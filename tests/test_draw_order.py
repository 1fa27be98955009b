"""The library samplers draw their randomness in a pinned order.

Under a fixed seed, sds_sign_random, sds_simulate_random and
random_nonces must give exactly what explicit sample_uniform draws give
when fed to sds_sign, sds_simulate and RecoveryNonces: the same
components, in the same order, from the same ranges, with the whole
tuple redrawn on a degenerate hash.  test_cli_golden pins the same for
the CLI.
"""

import random

import pytest

from dvsig.errors import DegenerateHash
from dvsig.keys import keygen
from dvsig.modmath import sample_uniform
from dvsig.msghash import HashMode, encode_message, raw_message
from dvsig.sdvs_mr import RecoveryNonces, random_nonces
from dvsig.sdvs_saeednia import (SaeedniaNonces, sds_sign, sds_sign_random, sds_simulate,
                                 sds_simulate_random)

SEEDS = range(12)


def explicit(q, rng, operation):
    """operation(a, b) on a from Z_q, then b from Z_q*, drawn again on DegenerateHash."""
    while True:
        a = sample_uniform(q, False, rng)
        b = sample_uniform(q, True, rng)
        try:
            return operation(a, b)
        except DegenerateHash:
            continue


@pytest.fixture(params=["toy23-stub", "midsize-production"])
def setting(request, toy, toy_signer, toy_verifier, midsize):
    """(params, signer, verifier, message, hash mode)."""
    if request.param == "toy23-stub":
        return toy, toy_signer, toy_verifier, raw_message(7, toy), HashMode.STUB
    signer, verifier = keygen(midsize, random.Random(31)), keygen(midsize, random.Random(32))
    return midsize, signer, verifier, encode_message(b"draws", midsize), HashMode.PRODUCTION


def test_sds_sign_random_draws_k_then_t(setting):
    params, signer, verifier, m, mode = setting
    for seed in SEEDS:
        expected = explicit(params.q, random.Random(seed), lambda k, t: sds_sign(
            params, signer.x, verifier.y, m, SaeedniaNonces(k, t), mode))
        assert sds_sign_random(params, signer.x, verifier.y, m, random.Random(seed), mode) == expected


def test_sds_simulate_random_draws_s_then_r(setting):
    params, signer, verifier, m, mode = setting
    for seed in SEEDS:
        expected = explicit(params.q, random.Random(seed), lambda s, r: sds_simulate(
            params, signer.y, verifier.x, m, s, r, mode))
        assert sds_simulate_random(params, signer.y, verifier.x, m, random.Random(seed), mode) == expected


def test_random_nonces_draws_k1_then_k2(setting):
    params = setting[0]
    for seed in SEEDS:
        rng = random.Random(seed)
        expected = RecoveryNonces(sample_uniform(params.q, True, rng), sample_uniform(params.q, False, rng))
        assert random_nonces(params, random.Random(seed)) == expected


def test_seeds_cover_a_saeednia_redraw(toy, toy_signer, toy_verifier):
    """Seed 5's first toy23 draw signs to r = 0, and seed 9's simulates to r = 0."""
    m = raw_message(7, toy)
    rng = random.Random(5)
    with pytest.raises(DegenerateHash):
        sds_sign(toy, toy_signer.x, toy_verifier.y, m,
                 SaeedniaNonces(sample_uniform(toy.q, False, rng), sample_uniform(toy.q, True, rng)),
                 HashMode.STUB)
    rng = random.Random(9)
    with pytest.raises(DegenerateHash):
        sds_simulate(toy, toy_signer.y, toy_verifier.x, m, sample_uniform(toy.q, False, rng),
                     sample_uniform(toy.q, True, rng), HashMode.STUB)
