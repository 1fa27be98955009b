from dataclasses import replace

import pytest

from dvsig.errors import InvalidNonce, InvalidSignature
from dvsig.modmath import pow_in_subgroup
from dvsig.msghash import HashMode, Message, raw_message
from dvsig.pv_scheme import PVSignature, psg, psv, psv_matches
from dvsig.sdvs_mr import RecoveryNonces

STUB = HashMode.STUB


def test_psg_worked_vector(toy, toy_signer):
    m = raw_message(7, toy)
    sig = psg(toy, toy_signer.x, m, RecoveryNonces(k1=2, k2=3), STUB)
    # t = 16, c = 7*18 mod 23 = 11, r = (7+18) mod 11 = 3, s = 3
    assert (sig.t, sig.c, sig.r, sig.s) == (16, 11, 3, 3)


def test_psg_rejects_zero_k1(toy, toy_signer):
    with pytest.raises(InvalidNonce):
        psg(toy, toy_signer.x, raw_message(7, toy), RecoveryNonces(0, 3), STUB)


def test_psv_recovers_from_public_values_only(toy, toy_signer):
    sig = PVSignature(t=16, c=11, r=3, s=3)
    rec = psv(toy, toy_signer.y, sig, STUB)  # no secret key anywhere in the call
    assert rec.value == 7


def test_psv_matches_compares_claimed_message(toy, toy_signer):
    sig = PVSignature(t=16, c=11, r=3, s=3)
    assert psv_matches(toy, toy_signer.y, sig, raw_message(7, toy), STUB)
    assert not psv_matches(toy, toy_signer.y, sig, raw_message(8, toy), STUB)
    bad = PVSignature(t=16, c=11, r=4, s=3)
    assert not psv_matches(toy, toy_signer.y, bad, raw_message(7, toy), STUB)


def test_psv_matches_is_psv_and_compare_over_every_signature(toy, toy_signer):
    """On toy23, for every PV signature, each of its one-bit tampers and every claimed
    residue (0 and p included, which have no inverse), psv_matches holds exactly when
    psv accepts and recovers the claimed value."""
    p, q = toy.p, toy.q
    claims = [Message(value) for value in range(p + 1)]
    variants = 0
    for value in range(1, p):
        m = raw_message(value, toy)
        for k1 in range(1, q):
            for k2 in range(q):
                sig = psg(toy, toy_signer.x, m, RecoveryNonces(k1, k2), STUB)
                tampers = [replace(sig, **{name: getattr(sig, name) ^ (1 << bit)})
                           for name in ("t", "c", "r", "s") for bit in range(p.bit_length())]
                for variant in [sig, *tampers]:
                    try:
                        recovered = psv(toy, toy_signer.y, variant, STUB).value
                    except InvalidSignature:
                        recovered = None
                    for claim in claims:
                        assert psv_matches(toy, toy_signer.y, variant, claim, STUB) == \
                            (recovered == claim.value), (variant, claim)
                    variants += 1
    assert variants == (p - 1) * (q - 1) * q * (1 + 4 * p.bit_length())


def test_blinding_identity_over_all_nonces(toy, toy_signer):
    # t**s * y_A**-r collapses to g**-k2 for every nonce pair
    m = raw_message(7, toy)
    p, q = toy.p, toy.q
    for k1 in range(1, q):
        for k2 in range(q):
            sig = psg(toy, toy_signer.x, m, RecoveryNonces(k1, k2), STUB)
            lhs = pow_in_subgroup(sig.t, sig.s, p, q) * pow_in_subgroup(toy_signer.y, -sig.r, p, q) % p
            assert lhs == pow_in_subgroup(toy.g, -k2, p, q)
