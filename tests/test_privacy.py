"""What a third party sees: checks made from public values alone.

The recovery schemes open their commitment with public values only,
t**s * y_A**-r = g**-k2 (see sdvs_mr), so anyone who holds y_A gets
u = g**k2 and can test r = H(v, u) for a guessed message v without x_B.
These tests pin what that check finds for Lee-Chang and UDVS: the signed
message, and the signer, since the check fails under another signer's
key.  Saeednia commits to c = y_B**k, which needs a secret.  The counts
are exact; no scheme is changed here.
"""

import random

import pytest

from dvsig.keys import keygen
from dvsig.modmath import mod_exp, mod_inv
from dvsig.msghash import HashMode, hash_to_zq, raw_message
from dvsig.oracle import SCHEME_LEECHANG, SCHEME_UDVS, SCHEMES, enumerate_real, enumerate_simulated
from dvsig.pv_scheme import psg
from dvsig.sdvs_mr import mr_sign, random_nonces
from dvsig.sdvs_saeednia import sds_sign_random
from dvsig.udvs import dsg

VOTES = (101, 202, 303)
SIGNATURES = 200


def public_check(params, signer_public, sig, v, mode):
    """r == H(v, (t**s * y_A**-r)**-1), from the signature and y_A only."""
    p = params.p
    opened = mod_exp(sig.t, sig.s, p) * mod_exp(mod_inv(signer_public, p), sig.r, p) % p
    return sig.r == hash_to_zq(v, mod_inv(opened, p), params, mode)


@pytest.mark.parametrize("scheme, total", [(SCHEME_LEECHANG, 110), (SCHEME_UDVS, 1210)])
@pytest.mark.parametrize("source", [enumerate_real, enumerate_simulated])
def test_toy_public_check_accepts_the_message_and_its_stub_twin(
        toy, toy_signer, toy_verifier, scheme, total, source):
    # The stub hash is (v + u) mod q, so v = 7 and v = 7 + q = 18 collide on toy23.
    multiset = source(toy, toy_signer, toy_verifier, raw_message(7, toy), scheme)
    seen = 0
    for fields, count in multiset.counts.items():
        sig = SCHEMES[scheme].sig_type(*fields)
        accepted = {v for v in range(1, toy.p)
                    if public_check(toy, toy_signer.y, sig, v, HashMode.STUB)}
        assert accepted == {7, 18}
        seen += count
    assert seen == total


@pytest.fixture(scope="module")
def ballots(midsize):
    """(keys, [(vote, Lee-Chang sig, UDVS sig, Saeednia sig)]), all from random.Random(1)."""
    rng = random.Random(1)
    signer, verifier, third = (keygen(midsize, rng) for _ in range(3))
    assert len({signer.x, verifier.x, third.x}) == 3
    mode = HashMode.PRODUCTION
    signed = []
    for _ in range(SIGNATURES):
        vote = rng.choice(VOTES)
        m = raw_message(vote, midsize)
        leechang = mr_sign(midsize, signer.x, verifier.y, m, random_nonces(midsize, rng), mode)
        pv_sig = psg(midsize, signer.x, m, random_nonces(midsize, rng), mode)
        udvs = dsg(midsize, signer.y, verifier.y, pv_sig, rng.randrange(midsize.q), mode)
        saeednia = sds_sign_random(midsize, signer.x, verifier.y, m, rng, mode)
        signed.append((vote, leechang, udvs, saeednia))
    return (signer, verifier, third), signed


@pytest.mark.parametrize("column", [1, 2], ids=[SCHEME_LEECHANG, SCHEME_UDVS])
def test_public_check_picks_the_vote_and_the_signer(midsize, ballots, column):
    (signer, _, third), signed = ballots
    mode = HashMode.PRODUCTION
    picked = sum([v for v in VOTES if public_check(midsize, signer.y, row[column], v, mode)]
                 == [row[0]] for row in signed)
    under_third = sum(public_check(midsize, third.y, row[column], v, mode)
                      for row in signed for v in VOTES)
    assert (picked, under_third) == (SIGNATURES, 0)


def test_saeednia_vote_needs_a_secret(midsize, ballots):
    (signer, verifier, _), signed = ballots
    p, q = midsize.p, midsize.q
    mode = HashMode.PRODUCTION
    public, with_x_a = 0, 0
    for vote, _, _, sig in signed:
        # Public values give g**k = (g**s * y_A**r)**t, not the commitment c = y_B**k.
        g_k = mod_exp(mod_exp(midsize.g, sig.s, p) * mod_exp(signer.y, sig.r, p) % p, sig.t, p)
        public += sum(sig.r == hash_to_zq(v, g_k, midsize, mode) for v in VOTES)
        # s = k * t**-1 - r * x_A, so an exposed x_A gives k, and y_B gives c.
        c = mod_exp(verifier.y, sig.t * (sig.s + sig.r * signer.x) % q, p)
        with_x_a += [v for v in VOTES if sig.r == hash_to_zq(v, c, midsize, mode)] == [vote]
    assert (public, with_x_a) == (0, SIGNATURES)


def test_designations_of_one_pv_signature_link(midsize):
    rng = random.Random(2)
    signer, verifier, other = (keygen(midsize, rng) for _ in range(3))
    m = raw_message(VOTES[0], midsize)
    pv_sig = psg(midsize, signer.x, m, random_nonces(midsize, rng))
    first = dsg(midsize, signer.y, verifier.y, pv_sig, rng.randrange(1, midsize.q))
    second = dsg(midsize, signer.y, other.y, pv_sig, rng.randrange(1, midsize.q))
    shared = (pv_sig.t, pv_sig.r, pv_sig.s)
    assert (first.t, first.r, first.s) == (second.t, second.r, second.s) == shared
    assert first.w != second.w and first.e != second.e
