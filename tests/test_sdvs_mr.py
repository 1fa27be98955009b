import random

import pytest
from hypothesis import given, settings, strategies as st

from dvsig.errors import InvalidNonce, InvalidRandomness, InvalidSignature
from dvsig.modmath import mod_inv
from dvsig.msghash import HashMode, encode_message, hash_to_zq, raw_message
from dvsig.sdvs_mr import (
    RecoveryNonces,
    RecoverySignature,
    mr_recover_verify,
    mr_sign,
    mr_simulate,
    random_nonces,
)

STUB = HashMode.STUB


def test_sign_worked_vector(toy, toy_signer, toy_verifier):
    m = raw_message(7, toy)
    sig = mr_sign(toy, toy_signer.x, toy_verifier.y, m, RecoveryNonces(k1=2, k2=3), STUB)
    # t = 4**2 = 16, c = 7 * 12**3 mod 23 = 21, r = (7+18) mod 11 = 3, s = 6*(9-3) mod 11 = 3
    assert (sig.t, sig.c, sig.r, sig.s) == (16, 21, 3, 3)


def test_sign_rejects_zero_k1(toy, toy_signer, toy_verifier):
    with pytest.raises(InvalidNonce):
        mr_sign(toy, toy_signer.x, toy_verifier.y, raw_message(7, toy), RecoveryNonces(0, 3), STUB)


def test_recover_worked_vector(toy, toy_signer, toy_verifier):
    sig = RecoverySignature(t=16, c=21, r=3, s=3)
    rec = mr_recover_verify(toy, toy_signer.y, toy_verifier.x, sig, STUB)
    assert rec.value == 7


def test_recover_rejects_tampered_c(toy, toy_signer, toy_verifier):
    # c = 20 recovers m' = 22 and H(22, 18) = 7 != 3
    sig = RecoverySignature(t=16, c=20, r=3, s=3)
    with pytest.raises(InvalidSignature):
        mr_recover_verify(toy, toy_signer.y, toy_verifier.x, sig, STUB)


def test_recover_rejects_wrong_verifier_secret(toy, toy_signer):
    sig = RecoverySignature(t=16, c=21, r=3, s=3)
    with pytest.raises(InvalidSignature):
        mr_recover_verify(toy, toy_signer.y, 4, sig, STUB)


def test_recover_rejects_out_of_range_fields(toy, toy_signer, toy_verifier):
    bad = [
        RecoverySignature(t=1, c=21, r=3, s=3),    # identity t
        RecoverySignature(t=5, c=21, r=3, s=3),    # t outside the subgroup
        RecoverySignature(t=16, c=0, r=3, s=3),
        RecoverySignature(t=16, c=21, r=11, s=3),
        RecoverySignature(t=16, c=21, r=3, s=11),
    ]
    for sig in bad:
        with pytest.raises(InvalidSignature):
            mr_recover_verify(toy, toy_signer.y, toy_verifier.x, sig, STUB)


def test_simulate_worked_vector(toy, toy_signer, toy_verifier):
    m = raw_message(7, toy)
    sim = mr_simulate(toy, toy_signer.y, toy_verifier.x, m, 2, 5, STUB)
    assert (sim.t, sim.c, sim.r, sim.s) == (8, 19, 1, 8)
    rec = mr_recover_verify(toy, toy_signer.y, toy_verifier.x, sim, STUB)
    assert rec.value == 7


def test_simulate_rejects_zero_w1(toy, toy_signer, toy_verifier):
    with pytest.raises(InvalidRandomness):
        mr_simulate(toy, toy_signer.y, toy_verifier.x, raw_message(7, toy), 0, 5, STUB)


def test_exhaustive_round_trip(toy, toy_signer, toy_verifier):
    m = raw_message(7, toy)
    count = 0
    for k1 in range(1, toy.q):
        for k2 in range(toy.q):
            sig = mr_sign(toy, toy_signer.x, toy_verifier.y, m, RecoveryNonces(k1, k2), STUB)
            assert mr_recover_verify(toy, toy_signer.y, toy_verifier.x, sig, STUB).value == 7
            count += 1
    assert count == 110


def test_simulator_bijection_onto_signer_nonces(toy, toy_signer, toy_verifier):
    # (w1, w2) -> (k1, k2) = (x_A * w1^-1, x_A * w1^-1 * w2) maps each simulated
    # signature onto the identical signer signature, tuple for tuple
    m = raw_message(7, toy)
    q = toy.q
    for w1 in range(1, q):
        for w2 in range(q):
            sim = mr_simulate(toy, toy_signer.y, toy_verifier.x, m, w1, w2, STUB)
            k1 = toy_signer.x * mod_inv(w1, q) % q
            k2 = k1 * w2 % q
            real = mr_sign(toy, toy_signer.x, toy_verifier.y, m, RecoveryNonces(k1, k2), STUB)
            assert sim == real


def test_simulate_from_the_key_table_equals_the_builtin_formulas(wide, wide_tabled):
    """With y_A's table answering, each simulated transcript is the one the builtin pow
    gives: t = y_A**(w1**-1), u = y_A**(w1**-1 * w2), c = m * u**x_B."""
    signer, verifier = wide_tabled
    p, q, y = wide.p, wide.q, int(signer.y)
    rng = random.Random(29)
    m = encode_message(b"exact", wide)
    for _ in range(40):
        w1, w2 = rng.randrange(1, q), rng.randrange(q)
        w1_inv = pow(w1, -1, q)
        u = pow(y, w1_inv * w2, p)
        r = hash_to_zq(m.value, u, wide, HashMode.PRODUCTION)
        expected = RecoverySignature(t=pow(y, w1_inv, p), c=m.value * pow(u, verifier.x, p) % p,
                                     r=r, s=(w1 * r - w2) % q)
        assert mr_simulate(wide, signer.y, verifier.x, m, w1, w2) == expected


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_random_nonce_round_trip(toy, toy_signer, toy_verifier, seed):
    rng = random.Random(seed)
    m = raw_message(1 + seed % (toy.p - 1), toy)
    sig = mr_sign(toy, toy_signer.x, toy_verifier.y, m, random_nonces(toy, rng), STUB)
    assert mr_recover_verify(toy, toy_signer.y, toy_verifier.x, sig, STUB).value == m.value


def test_full_size_payload_round_trip(big, big_signer, big_verifier):
    rng = random.Random(77)
    payload = b"the record stays sealed"
    m = encode_message(payload, big)
    sig = mr_sign(big, big_signer.x, big_verifier.y, m, random_nonces(big, rng))
    rec = mr_recover_verify(big, big_signer.y, big_verifier.x, sig)
    assert rec.payload == payload
    assert rec.value == m.value
    with pytest.raises(InvalidSignature):
        mr_recover_verify(big, big_signer.y, big_verifier.x,
                          RecoverySignature(sig.t, sig.c ^ 1, sig.r, sig.s))
