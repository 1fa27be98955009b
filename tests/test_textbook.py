"""Every fast path of each oracle.SCHEMES entry against the model in tests/textbook.py:
signing, designating and simulating give the model's fields, and every opener the model's
verdict and residue from the model's hash input (m, u), on each signature and simulated one
and on mutants: each field -1, +1, 0 and the top of its range (q or p); t and the UDVS e times
an h of small order ell, and e * h with w * h**-j for each j; the signer key times h; and
the threat ledger's forgeries."""

import random
from dataclasses import astuple, fields, replace
from itertools import product

import pytest

import textbook
from dvsig.errors import DegenerateHash, InvalidSignature
from dvsig.keys import PublicKey, keygen
from dvsig.modmath import ZQ, ZQ_STAR, sample_space
from dvsig.msghash import HashMode, raw_message
from dvsig.oracle import SCHEME_LEECHANG, SCHEME_PV, SCHEME_SAEEDNIA, SCHEME_UDVS, SCHEMES, SUBGROUP
from dvsig.udvs import dsg
from test_threats import LEDGER, choices, forgery, knowledge

PROD, STUB = HashMode.PRODUCTION, HashMode.STUB

def alike(expected, library, *args, refused=DegenerateHash):
    """library(*args), once its fields are expected; None where it refuses and expected is None."""
    try:
        sig = library(*args)
    except refused:
        sig = None
    assert (None if sig is None else astuple(sig)) == expected, args
    return sig


def opens_alike(params, scheme, y_a, b, m, sig, mode, hashed):
    """The residue the library recovers from sig under y_A, or None: the model's, hashed alike."""
    residue, hash_input = textbook.SCHEMES[scheme].open(params, y_a, b.x, m.value, astuple(sig), mode)
    # The one way the library differs from the model: every opener also rejects a signer key
    # with y_A**q != 1 (keys.in_subgroup), before x_B reaches a power.
    if hash_input and pow(y_a, params.q, params.p) != 1:
        residue, hash_input = None, None
    hashed.clear()
    try:
        got = SCHEMES[scheme].open(params, PublicKey(y_a), b, m, sig, mode).value
    except InvalidSignature:
        got = None
    assert (got, hashed) == (residue, [hash_input] if hash_input else []), (scheme, sig, y_a)
    return got


def mutants(params, scheme, sig, h, ell):
    p, q, entry = params.p, params.q, SCHEMES[scheme]
    for field, kind in zip(fields(entry.sig_type), entry.forgery):
        value = getattr(sig, field.name)
        for moved in (value - 1, value + 1, 0, q if kind in (ZQ, ZQ_STAR) else p):
            yield replace(sig, **{field.name: moved})
        if kind == SUBGROUP:
            yield replace(sig, **{field.name: value * h % p})
    for j in range(ell) if scheme == SCHEME_UDVS else ():
        yield replace(sig, w=sig.w * pow(h, -j, p) % p, e=sig.e * h % p)


def check(params, scheme, a, b, m, signs, sims, mode, hashed, ell):
    """Sign, simulate and open from each randomness, and open (PV: and designate) each mutant."""
    entry, model = SCHEMES[scheme], textbook.SCHEMES[scheme]
    p, h = params.p, textbook.small_order_element(params, ell)
    for rand in signs:
        sig = alike(model.sign(params, a, b, m.value, rand, mode), entry.sign, params, a, b, m, rand, mode)
        if sig is None:
            continue
        assert opens_alike(params, scheme, a.y, b, m, sig, mode, hashed) == m.value
        opens_alike(params, scheme, a.y * h % p, b, m, sig, mode, hashed)
        for mutant in mutants(params, scheme, sig, h, ell):
            opens_alike(params, scheme, a.y, b, m, mutant, mode, hashed)
            if scheme == SCHEME_PV:
                alike(textbook.designate(params, a.y, b.y, astuple(mutant), sig.r, mode),
                      dsg, params, a.y, b.y, mutant, sig.r, mode, refused=InvalidSignature)
    for rand in sims if entry.simulate else ():
        sig = alike(model.simulate(params, a, b, m.value, rand, mode),
                    entry.simulate, params, a, b, m, rand, mode)
        assert sig is None or opens_alike(params, scheme, a.y, b, m, sig, mode, hashed) == m.value


def every(q, space):
    return product(*(range(kind == ZQ_STAR, q) for kind in space))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_toy_signature_is_the_models(toy, toy_signer, toy_verifier, scheme, hashed):
    """toy23, stub hash: every signer and simulator randomness for m = 7 (Lee-Chang: every
    m), and the threat ledger's forgery of m = 7 from each of its choices."""
    entry, a, b = SCHEMES[scheme], toy_signer, toy_verifier
    for value in range(1, toy.p) if scheme == SCHEME_LEECHANG else [7]:
        check(toy, scheme, a, b, raw_message(value, toy), every(toy.q, entry.sign_space),
              every(toy.q, entry.sign_space), STUB, hashed, 2)
    known, m = knowledge(toy, LEDGER[scheme][0], a, b), raw_message(7, toy)
    for choice in product(*choices(scheme, toy.q)):
        try:
            sig = forgery(toy, scheme, known, m, choice, STUB)
        except InvalidSignature:  # dsg refuses a forged PV signature with t = 1
            continue
        if sig is not None:
            opens_alike(toy, scheme, a.y, b, m, sig, STUB, hashed)


def test_every_toy_saeednia_tuple_opens_as_the_model(toy, toy_signer, toy_verifier, hashed):
    """toy23, stub hash: every (r, s, t) and every message, with either key pair signing."""
    entry, accepted = SCHEMES[SCHEME_SAEEDNIA], set()
    for a, b in ((toy_signer, toy_verifier), (toy_verifier, toy_signer)):
        for value, sig in product(range(1, toy.p), every(toy.q, entry.forgery)):
            accepted.add(opens_alike(toy, SCHEME_SAEEDNIA, a.y, b, raw_message(value, toy),
                                     entry.sig_type(*sig), STUB, hashed) is not None)
    assert accepted == {True, False}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("group, draws, ell", [("midsize", 8, 23), ("wide", 8, 2), ("big", 1, 2)])
def test_sampled_draws_are_the_models(request, group, draws, ell, scheme, hashed):
    """Production hash; on wide the tables of g and both keys answer."""
    params, rng, entry = request.getfixturevalue(group), random.Random(41), SCHEMES[scheme]
    a, b = (request.getfixturevalue("wide_tabled") if group == "wide"
            else (keygen(params, rng), keygen(params, rng)))
    for _ in range(draws):
        m = raw_message(rng.randrange(1, params.p), params)
        signs, sims = ([sample_space(params.q, entry.sign_space, rng)] for _ in range(2))
        check(params, scheme, a, b, m, signs, sims, PROD, hashed, ell)
