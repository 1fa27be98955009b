import random

import pytest

from dvsig.groupparams import (
    PRESETS,
    TOY23,
    GroupParams,
    generate_params,
    is_probable_prime,
    validate_params,
)
from dvsig.modmath import mod_exp


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def naive_order(g, p):
    value, order = g, 1
    while value != 1:
        value = value * g % p
        order += 1
    return order


def test_toy23_preset_by_exhaustive_search():
    assert PRESETS["toy23"] is TOY23
    assert naive_is_prime(TOY23.p) and naive_is_prime(TOY23.q)
    assert (TOY23.p - 1) % TOY23.q == 0
    assert naive_order(TOY23.g, TOY23.p) == 11
    assert validate_params(TOY23).valid


def test_toy23_subgroup_listing():
    subgroup = TOY23.subgroup()
    assert len(subgroup) == 11
    assert subgroup[0] == 1 and subgroup[1] == 4
    assert sorted(subgroup) == sorted(set(subgroup))


def test_validate_rejects_identity_generator():
    report = validate_params(GroupParams(p=23, q=11, g=1))
    assert not report.valid
    assert any("identity" in failure for failure in report.failures)


def test_validate_rejects_composite_modulus():
    report = validate_params(GroupParams(p=24, q=11, g=4))
    assert not report.valid
    assert any("not prime" in failure for failure in report.failures)


def test_validate_reports_a_composite_subgroup_order():
    # 22 divides 23 - 1 and 4 has order 11, which divides 22: only primality fails
    assert validate_params(GroupParams(p=23, q=22, g=4)).failures == ["q = 22 is not prime"]


def test_validate_rejects_wrong_order_element():
    # 5 is not in the order-11 subgroup of Z_23*
    report = validate_params(GroupParams(p=23, q=11, g=5))
    assert not report.valid
    assert any("order-q" in failure for failure in report.failures)


def test_generate_tiny_group_checked_exhaustively():
    params = generate_params(4, 8, random.Random(7))
    assert naive_is_prime(params.p) and naive_is_prime(params.q)
    assert params.q.bit_length() == 4 and params.p.bit_length() == 8
    assert (params.p - 1) % params.q == 0
    assert naive_order(params.g, params.p) == params.q
    assert validate_params(params).valid


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generate_outputs_always_validate(seed):
    params = generate_params(8, 24, random.Random(seed))
    assert validate_params(params).valid
    assert mod_exp(params.g, params.q, params.p) == 1
    assert mod_exp(params.g, 1, params.p) != 1


def test_generate_deterministic_for_fixed_seed():
    a = generate_params(8, 24, random.Random(42))
    b = generate_params(8, 24, random.Random(42))
    assert a == b


def test_generate_full_size_validates(big):
    assert big.q.bit_length() == 256
    assert big.p.bit_length() == 2048
    assert validate_params(big).valid


def test_generate_rejects_bad_bit_requests():
    with pytest.raises(ValueError):
        generate_params(3, 8, random.Random(0))
    with pytest.raises(ValueError):
        generate_params(8, 8, random.Random(0))


def test_generate_times_out_on_exhausted_budget():
    from dvsig.errors import GenerationTimeout

    with pytest.raises(GenerationTimeout):
        generate_params(256, 2048, random.Random(0), max_attempts=3)


def test_is_probable_prime_against_naive_oracle():
    for n in range(200):
        assert is_probable_prime(n) == naive_is_prime(n), n
    # spot checks above the trial-division window, verdicts reproducible
    assert is_probable_prime(2**127 - 1)
    assert not is_probable_prime((2**61 - 1) * (2**31 - 1))
