import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dvsig.errors import InvalidNonce, InvalidRandomness, InvalidSignature
from dvsig.keys import keygen
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


def textbook_recover(params, y_a, x_b, sig, mode):
    """The residue c * (t**s * y_A**-r)**x_B recovers, by builtin pows only, or None
    where the textbook verifier rejects."""
    p, q = params.p, params.q
    if not (0 <= sig.r < q and 0 <= sig.s < q and 1 <= sig.c < p and 1 < sig.t < p
            and pow(sig.t, q, p) == 1 and 1 <= y_a < p):
        return None
    unblind = pow(sig.t, sig.s, p) * pow(y_a, -sig.r, p) % p
    m = sig.c * pow(unblind, x_b, p) % p
    return m if hash_to_zq(m, pow(unblind, -1, p), params, mode) == sig.r else None


def recovered_or_none(params, y_a, x_b, sig, mode):
    try:
        return mr_recover_verify(params, y_a, x_b, sig, mode).value
    except InvalidSignature:
        return None


def with_each_field_moved(sig):
    """sig, then sig with each of t, c, r and s moved by -1 and by +1."""
    yield sig
    for field in ("t", "c", "r", "s"):
        for delta in (-1, 1):
            yield replace(sig, **{field: getattr(sig, field) + delta})


def test_recover_equals_the_textbook_form_on_every_toy_signature(toy, toy_signer, toy_verifier):
    """For every nonce pair and every message, and each field moved by one, the opening
    recovers what c * (t**s * y_A**-r)**x_B does, and accepts exactly when it does."""
    accepted = 0
    for value in range(1, toy.p):
        m = raw_message(value, toy)
        for k1 in range(1, toy.q):
            for k2 in range(toy.q):
                sig = mr_sign(toy, toy_signer.x, toy_verifier.y, m, RecoveryNonces(k1, k2), STUB)
                for variant in with_each_field_moved(sig):
                    got = recovered_or_none(toy, toy_signer.y, toy_verifier.x, variant, STUB)
                    assert got == textbook_recover(toy, toy_signer.y, toy_verifier.x, variant, STUB)
                    accepted += got is not None
    # Some moved fields accept too, so acceptance is compared beyond the 22 * 110 signatures.
    assert accepted > 22 * 110


@pytest.mark.parametrize("group, samples", [("wide", 12), ("big", 2)])
def test_recover_equals_the_textbook_form_on_sampled_signatures(request, group, samples):
    """The same, sampled, where t and y_A are powered from combs (on wide, with y_A's
    table built) and at the full 2048/256 bits."""
    params = request.getfixturevalue(group)
    if group == "wide":
        signer, verifier = request.getfixturevalue("wide_tabled")
    else:
        signer, verifier = (request.getfixturevalue(f"big_{role}") for role in ("signer", "verifier"))
    rng = random.Random(31)
    for _ in range(samples):
        m = raw_message(rng.randrange(1, params.p), params)
        sig = mr_sign(params, signer.x, verifier.y, m, random_nonces(params, rng))
        for variant in with_each_field_moved(sig):
            expected = textbook_recover(params, int(signer.y), verifier.x, variant, HashMode.PRODUCTION)
            assert recovered_or_none(params, signer.y, verifier.x, variant, HashMode.PRODUCTION) == expected
            assert (expected == m.value) if variant is sig else expected is None


@pytest.mark.parametrize("group, ell", [("toy", 2), ("midsize", 23)])
def test_small_subgroup_signer_key_probe_rejects_every_guess(request, group, ell):
    # Lim-Lee small-subgroup probe on the signer key: a signer who registers y_A * h, with
    # h of prime order l dividing (p - 1) / q, signs with c * h**j; the textbook opening
    # recovers m exactly when j = r * x_B mod l, so accepting it would leak x_B modulo l.
    params = request.getfixturevalue(group)
    p, q, g = params.p, params.q, params.g
    assert (p - 1) // q % ell == 0
    h = next(h for a in range(2, p) if (h := pow(a, (p - 1) // ell, p)) != 1)
    rng = random.Random(23)
    signer, verifier = keygen(params, rng), keygen(params, rng)
    forged_key = signer.y * h % p
    m = raw_message(7, params)
    # The verifier reopens u = g**k2 * h**r, so r = H(m, u) needs k2 with a fixed point r mod l.
    k2, r = next((k2, r) for k2 in range(1, q) for rho in range(ell)
                 if (r := hash_to_zq(m.value, pow(g, k2, p) * pow(h, rho, p) % p, params, STUB))
                 % ell == rho)
    k1 = 2
    t, s = pow(g, k1, p), mod_inv(k1, q) * (signer.x * r - k2) % q
    accepted = []
    for j in range(ell):
        sig = RecoverySignature(t, m.value * pow(verifier.y, k2, p) * pow(h, j, p) % p, r, s)
        if textbook_recover(params, forged_key, verifier.x, sig, STUB) == m.value:
            accepted.append(j)
        with pytest.raises(InvalidSignature, match="not an order-q subgroup element"):
            mr_recover_verify(params, forged_key, verifier.x, sig, STUB)
    assert accepted == [r * verifier.x % ell]  # the probe is live: without the key test it leaks


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
