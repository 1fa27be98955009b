import random
from dataclasses import astuple

import pytest

import textbook
from dvsig.errors import DegenerateHash, InvalidNonce, InvalidRandomness
from dvsig.groupparams import GroupParams
from dvsig.keys import keygen
from dvsig.msghash import HashMode, hash_to_zq, raw_message
from dvsig.sdvs_saeednia import (
    SaeedniaNonces,
    SaeedniaSignature,
    sds_sign,
    sds_sign_random,
    sds_simulate,
    sds_simulate_random,
    sds_verify,
)

STUB = HashMode.STUB


def test_sign_worked_vector(toy, toy_signer, toy_verifier):
    m = raw_message(7, toy)
    sig = sds_sign(toy, toy_signer.x, toy_verifier.y, m, SaeedniaNonces(k=2, t=3), STUB)
    # c = 12**2 mod 23 = 6, r = (7+6) mod 11 = 2, s = 2*4 - 2*3 mod 11 = 2
    assert (sig.r, sig.s, sig.t) == (2, 2, 3)


def test_sign_rejects_zero_t(toy, toy_signer, toy_verifier):
    m = raw_message(7, toy)
    with pytest.raises(InvalidNonce):
        sds_sign(toy, toy_signer.x, toy_verifier.y, m, SaeedniaNonces(k=2, t=0), STUB)


def test_sign_refuses_degenerate_hash(toy, toy_signer, toy_verifier):
    # with m = 7 the commitment c = y_B**9 = 4 makes r = (7+4) mod 11 = 0
    m = raw_message(7, toy)
    with pytest.raises(DegenerateHash):
        sds_sign(toy, toy_signer.x, toy_verifier.y, m, SaeedniaNonces(k=9, t=1), STUB)


def test_verify_worked_vector(toy, toy_signer, toy_verifier):
    m = raw_message(7, toy)
    sig = sds_sign(toy, toy_signer.x, toy_verifier.y, m, SaeedniaNonces(2, 3), STUB)
    assert sds_verify(toy, toy_signer.y, toy_verifier.x, m, sig, STUB)


def test_verify_rejects_wrong_verifier_secret(toy, toy_signer, toy_verifier):
    m = raw_message(7, toy)
    sig = sds_sign(toy, toy_signer.x, toy_verifier.y, m, SaeedniaNonces(2, 3), STUB)
    assert not sds_verify(toy, toy_signer.y, 4, m, sig, STUB)


@pytest.mark.parametrize("group", ["toy", "big"])
def test_verify_rejects_a_signer_key_outside_one_to_p(request, group):
    """y_A + p would verify exactly as y_A does; 0 and p are no keys.  Each is rejected
    next to the key that accepts."""
    params = request.getfixturevalue(group)
    rng = random.Random(9)
    signer, verifier = keygen(params, rng), keygen(params, rng)
    m = raw_message(7, params)
    sig = sds_sign_random(params, signer.x, verifier.y, m, rng, STUB)
    assert sds_verify(params, signer.y, verifier.x, m, sig, STUB)
    for key in (0, params.p, signer.y + params.p):
        assert not sds_verify(params, key, verifier.x, m, sig, STUB), key


@pytest.mark.parametrize("group, ell", [("toy", 2), ("midsize", 23)])
def test_small_subgroup_signer_key_probe_rejects_every_guess(request, group, ell, hashed):
    # Lim-Lee small-subgroup probe on the signer key: a signer who registers y_A * h, with
    # h of prime order l dividing (p - 1) / q, commits to c = y_B**k * h and varies t.  The
    # textbook opening reaches c exactly when r * t * x_B = 1 mod l, so accepting it would
    # leak x_B modulo l.
    params = request.getfixturevalue(group)
    p, q = params.p, params.q
    assert ell < q
    h = textbook.small_order_element(params, ell)
    rng = random.Random(23)
    signer = keygen(params, rng)
    verifier = next(key for key in iter(lambda: keygen(params, rng), None) if key.x % ell)
    forged_key = signer.y * h % p
    m = raw_message(7, params)
    k, r = next((k, r) for k in range(q)
                if (r := hash_to_zq(m.value, pow(verifier.y, k, p) * h % p, params, STUB)) % ell)
    accepted = []
    for j in range(ell):
        t = j or ell  # t = j mod l
        sig = SaeedniaSignature(r, (k * pow(t, -1, q) - r * signer.x) % q, t)
        opened, _ = textbook.saeednia_open(params, forged_key, verifier.x, m.value, astuple(sig), STUB)
        if opened == m.value:
            accepted.append(j)
        assert not sds_verify(params, forged_key, verifier.x, m, sig, STUB)
    assert hashed == []  # every guess stops at the key test, before x_B reaches a power
    assert accepted == [pow(r * verifier.x, -1, ell)]  # the probe is live: without the test it leaks


def test_simulate_worked_vector(toy, toy_signer, toy_verifier):
    m = raw_message(7, toy)
    sim = sds_simulate(toy, toy_signer.y, toy_verifier.x, m, 1, 2, STUB)
    # c = 4*18**2 mod 23 = 8, r = 4, ell = 2*4^-1 = 6, s = 6^-1 = 2, t = 6*5^-1 = 10
    assert (sim.r, sim.s, sim.t) == (4, 2, 10)
    assert sds_verify(toy, toy_signer.y, toy_verifier.x, m, sim, STUB)


def test_simulate_rejects_zero_r_rand(toy, toy_signer, toy_verifier):
    m = raw_message(7, toy)
    with pytest.raises(InvalidRandomness):
        sds_simulate(toy, toy_signer.y, toy_verifier.x, m, 1, 0, STUB)


def test_simulate_degenerate_hash(toy, toy_signer, toy_verifier):
    # c = g**(s' + x_A r') = g**1 = 4 when s' = 9, r' = 1; r = (7+4) mod 11 = 0
    m = raw_message(7, toy)
    with pytest.raises(DegenerateHash):
        sds_simulate(toy, toy_signer.y, toy_verifier.x, m, 9, 1, STUB)


def test_exhaustive_round_trip_with_degenerate_pairs(toy, toy_signer, toy_verifier):
    # m = 7 hits r = 0 exactly when k = 9 (c = 4), for all ten t values
    m = raw_message(7, toy)
    signed, degenerate = 0, 0
    for k in range(toy.q):
        for t in range(1, toy.q):
            try:
                sig = sds_sign(toy, toy_signer.x, toy_verifier.y, m, SaeedniaNonces(k, t), STUB)
            except DegenerateHash:
                degenerate += 1
                assert k == 9
                continue
            assert sds_verify(toy, toy_signer.y, toy_verifier.x, m, sig, STUB)
            signed += 1
    assert signed == 100 and degenerate == 10


def test_random_mode_gives_up_when_every_draw_is_degenerate():
    # On (5, 2, 4) the only key pair is (x, y) = (1, 4), and residue 2 hashes to
    # r = 0 under the production hash for both draws of (k, t) and of (s', r').
    params = GroupParams(p=5, q=2, g=4)
    sign = lambda m: sds_sign_random(params, 1, 4, m, random.Random(0))
    simulate = lambda m: sds_simulate_random(params, 4, 1, m, random.Random(0))
    for random_mode in (sign, simulate):
        with pytest.raises(DegenerateHash, match="every one of the 2 draws"):
            random_mode(raw_message(2, params))
        assert random_mode(raw_message(1, params)).r == 1
