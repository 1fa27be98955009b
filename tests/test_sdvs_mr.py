import random
from dataclasses import astuple

import pytest

import textbook
from dvsig.errors import InvalidNonce, InvalidRandomness, InvalidSignature
from dvsig.keys import keygen
from dvsig.modmath import mod_inv
from dvsig.msghash import HashMode, hash_to_zq, raw_message
from dvsig.sdvs_mr import RecoveryNonces, RecoverySignature, mr_recover_verify, mr_sign, mr_simulate

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


def test_recover_rejects_wrong_verifier_secret(toy, toy_signer):
    sig = RecoverySignature(t=16, c=21, r=3, s=3)
    with pytest.raises(InvalidSignature):
        mr_recover_verify(toy, toy_signer.y, 4, sig, STUB)


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


@pytest.mark.parametrize("group, ell", [("toy", 2), ("midsize", 23)])
def test_small_subgroup_signer_key_probe_rejects_every_guess(request, group, ell):
    # Lim-Lee small-subgroup probe on the signer key: a signer who registers y_A * h, with
    # h of prime order l dividing (p - 1) / q, signs with c * h**j; the textbook opening
    # recovers m exactly when j = r * x_B mod l, so accepting it would leak x_B modulo l.
    params = request.getfixturevalue(group)
    p, q, g = params.p, params.q, params.g
    h = textbook.small_order_element(params, ell)
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
        opened, _ = textbook.SCHEMES["leechang"].open(params, forged_key, verifier.x, m.value,
                                                      astuple(sig), STUB)
        if opened == m.value:
            accepted.append(j)
        with pytest.raises(InvalidSignature, match="not an order-q subgroup element"):
            mr_recover_verify(params, forged_key, verifier.x, sig, STUB)
    assert accepted == [r * verifier.x % ell]  # the probe is live: without the key test it leaks
