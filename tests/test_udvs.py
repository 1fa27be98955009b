import inspect
import random
from dataclasses import astuple

import pytest

import textbook
from dvsig.errors import InvalidPVSignature, InvalidRandomness, InvalidSignature
from dvsig.keys import keygen
from dvsig.modmath import sample_uniform
from dvsig.msghash import HashMode, raw_message
from dvsig.pv_scheme import PVSignature, psg
from dvsig.sdvs_mr import random_nonces
from dvsig.udvs import DVSignature, SimulatorRandomness, dsg, dsv_recover, dv_simulate

STUB = HashMode.STUB

PV_VECTOR = PVSignature(t=16, c=11, r=3, s=3)  # psg(x_A=3, m=7, k1=2, k2=3)


def test_dsg_worked_vector(toy, toy_signer, toy_verifier):
    sig = dsg(toy, toy_signer.y, toy_verifier.y, PV_VECTOR, 4, STUB)
    # e = 4**-4 = 8, w = 11 * 12**4 mod 23 = 5
    assert (sig.t, sig.w, sig.r, sig.s, sig.e) == (16, 5, 3, 3, 8)


def test_dsg_with_zero_d_is_degenerate_designation(toy, toy_signer, toy_verifier):
    sig = dsg(toy, toy_signer.y, toy_verifier.y, PV_VECTOR, 0, STUB)
    assert sig == DVSignature(t=16, w=11, r=3, s=3, e=1)


def test_dsg_validates_before_designating(toy, toy_signer, toy_verifier):
    tampered = PVSignature(t=16, c=12, r=3, s=3)
    with pytest.raises(InvalidPVSignature):
        dsg(toy, toy_signer.y, toy_verifier.y, tampered, 4, STUB)


def test_dsv_worked_vector(toy, toy_signer, toy_verifier):
    sig = DVSignature(t=16, w=5, r=3, s=3, e=8)
    rec = dsv_recover(toy, toy_signer.y, toy_verifier.x, sig, STUB)
    assert rec.value == 7


def test_dsv_rejects_wrong_verifier_secret(toy, toy_signer):
    sig = DVSignature(t=16, w=5, r=3, s=3, e=8)
    with pytest.raises(InvalidSignature):
        dsv_recover(toy, toy_signer.y, 4, sig, STUB)


@pytest.mark.parametrize("group, ell", [("toy", 2), ("midsize", 23)])
def test_forged_e_probe_rejects_every_guess(request, group, ell):
    # Lim-Lee small-subgroup probe: with h of prime order l dividing (p - 1) / q,
    # (e * h, w * h**-j) recovers m exactly when j = x_B mod l, so accepting
    # it would leak x_B modulo l.
    params = request.getfixturevalue(group)
    p = params.p
    h = textbook.small_order_element(params, ell)
    rng = random.Random(23)
    signer, verifier = keygen(params, rng), keygen(params, rng)
    m = raw_message(7, params)
    pv_sig = psg(params, signer.x, m, random_nonces(params, rng), STUB)
    sig = dsg(params, signer.y, verifier.y, pv_sig, sample_uniform(params.q, False, rng), STUB)
    leaks = 0
    for j in range(ell):
        forged = DVSignature(t=sig.t, w=sig.w * pow(h, -j, p) % p,
                             r=sig.r, s=sig.s, e=sig.e * h % p)
        leaks += textbook.recover(params, "udvs", signer.y, verifier.x, astuple(forged))[0] == m.value
        with pytest.raises(InvalidSignature):
            dsv_recover(params, signer.y, verifier.x, forged, STUB)
    assert leaks == 1  # the probe is live: without the e check one guess passes


def test_simulate_worked_vector(toy, toy_signer, toy_verifier):
    m = raw_message(7, toy)
    sim = dv_simulate(toy, toy_signer.y, toy_verifier.x, m, SimulatorRandomness(2, 5, 4), STUB)
    assert (sim.t, sim.w, sim.r, sim.s, sim.e) == (8, 7, 1, 8, 8)
    assert dsv_recover(toy, toy_signer.y, toy_verifier.x, sim, STUB).value == 7


def test_simulate_rejects_zero_w1(toy, toy_signer, toy_verifier):
    with pytest.raises(InvalidRandomness):
        dv_simulate(toy, toy_signer.y, toy_verifier.x, raw_message(7, toy),
                    SimulatorRandomness(0, 5, 4), STUB)


def test_verification_interface_requires_verifier_secret():
    assert "verifier_secret" in inspect.signature(dsv_recover).parameters
