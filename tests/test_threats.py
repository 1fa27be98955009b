"""The threat ledger: for each scheme, what a party must know to forge, to test a guessed
message, to name the signer or to link designations, with the attack behind each cell.

The paper claims that only the designated verifier can authenticate the true signer and
recover the message.  Each cell of LEDGER, and of its copy in README.md, holds the least
knowledge found to be enough: public (the public keys and the signatures), K = y_B**x_A
(neither party's secret), x_A, x_B, n/a, or none found, which does not show that no attack
exists.  Naming the signer is the privacy of the signer's identity (Laguillaumie &
Vergnaud, SCN 2004).  Each other cell runs its attack on midsize under the production
hash; it succeeds 200 of 200 times and its counter-check 0 times.  No scheme is changed.

The check, exponents mod q: a verifier accepts r = H(m, c) for the commitment c it opens.
The recovery schemes open theirs with public values, t**s * y_A**-r = g**-k2 (sdvs_mr),
so the holder of y_A gets c = g**k2 and tests a guessed message and a candidate signer
key.  Saeednia commits to c = y_B**k: public values give only g**k = (g**s * y_A**r)**t,
s = k/t - r*x_A gives k, and so c, to the holder of x_A, and x_B opens c.

The forgers.  The recovery schemes let the signer pick t: the holder of y_A picks z in Z_q
and s in Z_q* and sets u = g**z, r = H(m, u) and t = g**(-z/s) * y_A**(r/s), so that
t**s * y_A**-r = u**-1 for any m.  Lee-Chang takes c = m * y_B**z, PV c = m * u, and UDVS
designates that PV forgery with dsg, which needs public keys only.  Saeednia verifies
c = (g**s * y_A**r)**(t * x_B), so the holder of K picks a in Z_q and b in Z_q* and sets
c = y_B**a * K**b, r = H(m, c), t = b/r and s = a/t (Lipmaa, Wang & Bao, ICALP 2005,
delegation).  Criterion 4 of the acceptance suite draws random tuples and says nothing
about these forgers.  Linkage: a UDVS signature carries its PV signature's (t, r, s).
"""

import random
from itertools import product
from math import prod
from operator import attrgetter
from pathlib import Path

import pytest

from conftest import subgroup
from dvsig.errors import InvalidSignature
from dvsig.keys import PublicKey, SecretKey, keygen
from dvsig.modmath import ZQ, ZQ_STAR, mod_exp, mod_inv
from dvsig.msghash import HashMode, encode_message, hash_to_zq, payload_capacity, raw_message
from dvsig.oracle import (
    SCHEME_LEECHANG, SCHEME_PV, SCHEME_SAEEDNIA, SCHEME_UDVS, SCHEMES, SUBGROUP, UNIT,
    SignatureMultiset, enumerate_real, enumerate_simulated,
)
from dvsig.pv_scheme import PVSignature, psg
from dvsig.sdvs_mr import RecoverySignature, _simulate, mr_sign, random_nonces
from dvsig.sdvs_saeednia import SaeedniaSignature, sds_sign_random
from dvsig.udvs import dsg

PROD, STUB = HashMode.PRODUCTION, HashMode.STUB
TRIALS = 200
VOTES = (101, 202, 303)

CAPABILITIES = ("forge", "test a guessed m", "name the signer", "link designations")
LEDGER = {
    SCHEME_SAEEDNIA: ("K", "x_A", "x_B", "n/a"),
    SCHEME_LEECHANG: ("public", "public", "public", "n/a"),
    SCHEME_PV: ("public", "public", "public", "n/a"),
    SCHEME_UDVS: ("public", "public", "public", "public"),
}
CELLS = [(scheme, capability) for scheme, row in LEDGER.items()
         for capability, cell in zip(CAPABILITIES, row) if cell not in ("n/a", "none found")]


def knowledge(params, cell, signer, verifier):
    """What the holder of a cell knows: both public keys, and the one secret the cell names."""
    known = {"y_A": signer.y, "y_B": verifier.y}
    if cell != "public":
        known[cell] = {"K": mod_exp(verifier.y, signer.x, params.p),
                       "x_A": signer.x, "x_B": verifier.x}[cell]
    return known


def opens_to(params, scheme, a, b, m, sig, mode=PROD):
    """Whether the holder of b.x accepts sig as a.y's signature on m, recovering m if it can."""
    try:
        return SCHEMES[scheme].open(params, a, b, m, sig, mode) == m
    except InvalidSignature:
        return False


def accepts(params, scheme, known, sig, v, mode=PROD):
    """Whether the holder of known finds sig made under known["y_A"] on the guessed message v."""
    p, q = params.p, params.q
    if "x_B" in known:
        return opens_to(params, scheme, PublicKey(known["y_A"]), SecretKey(known["x_B"]),
                        raw_message(v, params), sig, mode)
    if scheme != SCHEME_SAEEDNIA:  # t**s * y_A**-r = c**-1
        c = mod_inv(mod_exp(sig.t, sig.s, p) * mod_exp(mod_inv(known["y_A"], p), sig.r, p) % p, p)
    elif "x_A" in known:
        c = mod_exp(known["y_B"], sig.t * (sig.s + sig.r * known["x_A"]) % q, p)
    else:  # g**k, not c
        c = mod_exp(mod_exp(params.g, sig.s, p) * mod_exp(known["y_A"], sig.r, p) % p, sig.t, p)
    return sig.r == hash_to_zq(v, c, params, mode)


def choices(scheme, q):  # in draw order: (a, b) for Saeednia, else (z, s), and UDVS's d
    return [range(q), range(1, q)] + [range(q)] * (scheme == SCHEME_UDVS)


def forgery(params, scheme, known, m, choice, mode=PROD):
    """The forgery of m that the holder of known makes from choice; None if Saeednia's r = 0."""
    p, q, g = params.p, params.q, params.g
    if scheme == SCHEME_SAEEDNIA:
        a, b = choice
        r = hash_to_zq(m.value, mod_exp(known["y_B"], a, p) * mod_exp(known["K"], b, p) % p,
                       params, mode)
        return SaeedniaSignature(r, a * r * pow(b, -1, q) % q, b * pow(r, -1, q) % q) if r else None
    z, s = choice[:2]
    u, s_inv = mod_exp(g, z, p), pow(s, -1, q)
    r = hash_to_zq(m.value, u, params, mode)
    t = mod_exp(g, -z * s_inv % q, p) * mod_exp(known["y_A"], r * s_inv % q, p) % p
    if scheme == SCHEME_LEECHANG:
        return RecoverySignature(t, m.value * mod_exp(known["y_B"], z, p) % p, r, s)
    pv_sig = PVSignature(t, m.value * u % p, r, s)
    return pv_sig if scheme == SCHEME_PV else dsg(
        params, known["y_A"], known["y_B"], pv_sig, choice[2], mode)


def forge(params, ballots, scheme, cell, trials=TRIALS):
    """(forgeries the designated verifier accepts, those accepted under a third party's key)."""
    rng = random.Random(1)
    signer, verifier, third = (keygen(params, rng) for _ in range(3))
    known = knowledge(params, cell, signer, verifier)
    accepted = under_third = 0
    for _ in range(trials):
        m = encode_message(rng.randbytes(rng.randrange(payload_capacity(params) + 1)), params)
        sig = None
        while sig is None:
            choice = [rng.randrange(c.start, c.stop) for c in choices(scheme, params.q)]
            sig = forgery(params, scheme, known, m, choice)
        accepted += opens_to(params, scheme, signer, verifier, m, sig)
        under_third += opens_to(params, scheme, third, verifier, m, sig)
    return accepted, under_third


@pytest.fixture(scope="module")
def ballots(midsize):
    """(parties, [(vote, {scheme: signature})]); UDVS designates each PV signature."""
    rng = random.Random(1)
    signer, verifier, third = (keygen(midsize, rng) for _ in range(3))
    assert len({signer.x, verifier.x, third.x}) == 3
    signed = []
    for _ in range(TRIALS):
        vote = rng.choice(VOTES)
        m = raw_message(vote, midsize)
        leechang = mr_sign(midsize, signer.x, verifier.y, m, random_nonces(midsize, rng))
        pv_sig = psg(midsize, signer.x, m, random_nonces(midsize, rng))
        udvs = dsg(midsize, signer.y, verifier.y, pv_sig, rng.randrange(midsize.q))
        saeednia = sds_sign_random(midsize, signer.x, verifier.y, m, rng)
        signed.append((vote, dict(zip(SCHEMES, (saeednia, leechang, pv_sig, udvs)))))
    return (signer, verifier, third), signed


def check(params, ballots, scheme, cell):
    """(ballots whose vote alone passes the check, votes that pass it under a third party's key
    and, where the cell is a secret, from public values)."""
    (signer, verifier, third), signed = ballots
    known = knowledge(params, cell, signer, verifier)
    less = [knowledge(params, cell, third, verifier)]
    if cell != "public":
        less.append(knowledge(params, "public", signer, verifier))
    picked = sum([v for v in VOTES if accepts(params, scheme, known, sigs[scheme], v)] == [vote]
                 for vote, sigs in signed)
    return picked, sum(accepts(params, scheme, k, sigs[scheme], v)
                       for k in less for _, sigs in signed for v in VOTES)


def link(params, ballots, scheme, cell):
    """(pairs of designations of one PV signature that share (t, r, s) and differ in w and e,
    pairs of designations of two PV signatures that share (t, r, s))."""
    rng = random.Random(2)
    signer, verifier, other = (keygen(params, rng) for _ in range(3))
    pairs = []
    for _ in range(TRIALS):
        pv_sig = psg(params, signer.x, raw_message(VOTES[0], params), random_nonces(params, rng))
        pairs.append([dsg(params, signer.y, y, pv_sig, rng.randrange(1, params.q))
                      for y in (verifier.y, other.y)])
    trs = attrgetter("t", "r", "s")
    linked = sum(trs(a) == trs(b) and a.w != b.w and a.e != b.e for a, b in pairs)
    return linked, sum(trs(a) == trs(b) for (a, _), (_, b) in zip(pairs, pairs[1:] + pairs[:1]))


# One check tests a guess and names the signer: the signed vote alone passes under y_A.
ATTACKS = dict(zip(CAPABILITIES, (forge, check, check, link)))


@pytest.mark.parametrize("scheme, capability", CELLS,
                         ids=[f"{s}-{c.replace(' ', '_')}" for s, c in CELLS])
def test_each_ledger_cell_holds(midsize, ballots, scheme, capability):
    cell = LEDGER[scheme][CAPABILITIES.index(capability)]
    assert ATTACKS[capability](midsize, ballots, scheme, cell) == (TRIALS, 0)


def test_the_readme_table_is_the_ledger_with_one_row_per_scheme():
    assert list(LEDGER) == list(SCHEMES)
    rows = [("scheme", *CAPABILITIES), ("---",) * 5, *((f"`{s}`", *r) for s, r in LEDGER.items())]
    table = ["| " + " | ".join(row) + " |" for row in rows]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## What each party can do\n", 1)[1].split("\n## ", 1)[0]
    assert [line for line in section.splitlines() if line.startswith("|")] == table


@pytest.mark.parametrize("scheme", [s for s, c in CELLS if c == "forge"])
def test_a_forger_is_accepted_at_full_size(big, scheme):
    assert forge(big, None, scheme, LEDGER[scheme][0], trials=1) == (1, 0)


@pytest.mark.parametrize("scheme, source, total", [
    (SCHEME_LEECHANG, enumerate_real, 110), (SCHEME_LEECHANG, enumerate_simulated, 110),
    (SCHEME_PV, enumerate_real, 110), (SCHEME_UDVS, enumerate_real, 1210),
    (SCHEME_UDVS, enumerate_simulated, 1210),
], ids=["leechang-real", "leechang-simulated", "pv-real", "udvs-real", "udvs-simulated"])
def test_toy_public_check_accepts_m_and_its_stub_twin(
        toy, toy_signer, toy_verifier, scheme, source, total):
    # The stub hash is (v + u) mod q, so v = 7 and v = 7 + q = 18 collide on toy23.
    multiset = source(toy, toy_signer, toy_verifier, raw_message(7, toy), scheme)
    known = knowledge(toy, "public", toy_signer, toy_verifier)
    for key in multiset.counts:
        sig = SCHEMES[scheme].sig_type(*multiset.decode(key))
        assert {v for v in range(1, toy.p) if accepts(toy, scheme, known, sig, v, STUB)} == {7, 18}
    assert multiset.total == total


def test_simulated_pv_forgeries_are_exactly_the_real_multiset(toy, toy_signer, toy_verifier):
    """For every message on toy23, _simulate over all (w1, w2), with c = m * u, gives the
    multiset of PV signatures that the signer makes over all (k1, k2): the forgeries look
    exactly like real signatures."""
    p, q = toy.p, toy.q
    for value in range(1, p):
        m = raw_message(value, toy)
        forged = SignatureMultiset(SCHEME_PV, p)
        for w1 in range(1, q):
            for w2 in range(q):
                t, u, r, s, _ = _simulate(toy, toy_signer.y, m, w1, w2, HashMode.STUB)
                forged.add(PVSignature(t=t, c=value * u % p, r=r, s=s))
        real = enumerate_real(toy, toy_signer, toy_verifier, m, SCHEME_PV)
        assert forged.counts == real.counts and forged.total == (q - 1) * q, value


@pytest.mark.parametrize("scheme, accepted, refused", [
    (SCHEME_SAEEDNIA, 2200, 0), (SCHEME_LEECHANG, 2200, 220), (SCHEME_PV, 2200, 220),
    (SCHEME_UDVS, 24200, 2420),
])
def test_every_toy_forgery_is_real_or_refused_at_t_1(
        toy, toy_signer, toy_verifier, scheme, accepted, refused):
    """toy23, stub hash: each forger over every message and every choice.  A forgery is
    refused only where t = 1 (for UDVS, dsg refuses the forged PV signature), Saeednia's
    r = 0 draws are skipped, and every accepted forgery is in the real support."""
    known = knowledge(toy, LEDGER[scheme][0], toy_signer, toy_verifier)
    counts = {"accepted": 0, "refused": 0}
    for value in range(1, toy.p):
        m = raw_message(value, toy)
        forged = SignatureMultiset(scheme, toy.p)
        for choice in product(*choices(scheme, toy.q)):
            try:
                sig = forgery(toy, scheme, known, m, choice, STUB)
                if sig is None:
                    continue
                assert SCHEMES[scheme].open(toy, toy_signer, toy_verifier, m, sig, STUB) == m
            except InvalidSignature as exc:
                assert str(exc) == ("refusing to designate: " if scheme == SCHEME_UDVS else "") + (
                    "t is not a nontrivial order-q subgroup element")
                counts["refused"] += 1
                continue
            counts["accepted"] += 1
            forged.add(sig)
        real = enumerate_real(toy, toy_signer, toy_verifier, m, scheme)
        assert forged.counts.keys() <= real.counts.keys(), value
    assert counts == {"accepted": accepted, "refused": refused}


@pytest.mark.parametrize("scheme, accepted, tuples, r_zero", [
    (SCHEME_SAEEDNIA, 110, 1210, 10), (SCHEME_LEECHANG, 110, 29282, 0),
    (SCHEME_PV, 110, 29282, 0), (SCHEME_UDVS, 1210, 322102, 0),
])
def test_every_toy_tuple_at_m_7(toy, toy_signer, toy_verifier, scheme, accepted, tuples, r_zero):
    """toy23, stub hash, m = 7: every tuple of the scheme's field ranges (Scheme.forgery).
    The accepted set is the real support, and for Saeednia also tuples with r = 0, which
    the signer never makes."""
    entry, m = SCHEMES[scheme], raw_message(7, toy)
    ranges = {ZQ: range(toy.q), ZQ_STAR: range(1, toy.q), SUBGROUP: subgroup(toy),
              UNIT: range(1, toy.p)}
    space = [ranges[kind] for kind in entry.forgery]
    found = {fields for fields in product(*space)
             if opens_to(toy, scheme, toy_signer, toy_verifier, m, entry.sig_type(*fields), STUB)}
    multiset = enumerate_real(toy, toy_signer, toy_verifier, m, scheme)
    real = set(map(multiset.decode, multiset.counts))
    extra = found - real
    assert (len(found), prod(map(len, space))) == (accepted, tuples)
    assert real <= found and len(extra) == r_zero and all(entry.sig_type(*f).r == 0 for f in extra)
