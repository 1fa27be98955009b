import os
import random
import subprocess
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest

from dvsig import groupparams, primes
from dvsig.errors import GenerationTimeout
from dvsig.groupparams import (
    PRESETS,
    TOY23,
    GroupParams,
    generate_params,
    is_probable_prime,
    validate_params,
)
from dvsig.modmath import mod_exp, sample_uniform


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


def child_processes() -> set[int]:
    """Pids of this process's children, running or not yet reaped, read from /proc."""
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state_and_ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:  # the process has gone
            continue
        if int(state_and_ppid[1]) == os.getpid():
            children.add(int(stat.parent.name))
    return children


def test_generate_times_out_on_exhausted_budget():
    before = child_processes()
    with pytest.raises(GenerationTimeout):
        generate_params(256, 2048, random.Random(0), max_attempts=3)
    assert child_processes() == before


def test_is_probable_prime_against_naive_oracle():
    for n in range(200):
        assert is_probable_prime(n) == naive_is_prime(n), n
    # spot checks above the trial-division window, verdicts reproducible
    assert is_probable_prime(2**127 - 1)
    assert not is_probable_prime((2**61 - 1) * (2**31 - 1))


# ------------------------------------------------ rounds on a process pool

# Moduli of primes._POOL_MIN_BITS or more take their Miller-Rabin
# rounds on a process pool.  These tests lower the crossover so that
# small groups open the pool too, and compare it with the builtin map.


@pytest.fixture()
def pool_at(monkeypatch):
    """pool_at(workers): open the pool for every modulus, with `workers` CPUs; returns the
    worker counts of the maps opened so far."""
    opened = []
    real = primes._rounds_map

    @contextmanager
    def recorded(bits):
        with real(bits) as (rounds, workers):
            opened.append(workers)
            yield rounds, workers

    def pool_at(workers):
        monkeypatch.setattr(primes, "_POOL_MIN_BITS", 2)
        monkeypatch.setattr(primes, "_cpus", lambda: workers)
        monkeypatch.setattr(primes, "_rounds_map", recorded)
        return opened

    return pool_at


def generated(q_bits, p_bits, seed, max_attempts=250_000):
    """(GroupParams or the GenerationTimeout message, rng state afterwards)."""
    rng = random.Random(seed)
    try:
        result = generate_params(q_bits, p_bits, rng, max_attempts=max_attempts)
    except GenerationTimeout as exc:
        result = str(exc)
    return result, rng.getstate()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_pool_returns_the_serial_group_and_rng_state(pool_at, workers):
    cases = [(q_bits, p_bits, seed) for q_bits, p_bits in ((16, 64), (32, 128)) for seed in range(3)]
    serial = [generated(*case) for case in cases]
    opened = pool_at(workers)
    assert [generated(*case) for case in cases] == serial
    assert opened == [workers] * len(cases)


def test_the_pool_times_out_at_the_serial_attempt(pool_at):
    # seed 2 needs 14 attempts at 64/16 bits, most of them candidates for p
    serial = [generated(16, 64, 2, attempts) for attempts in range(1, 15)]
    assert [type(result) for result, _ in serial] == [str] * 13 + [GroupParams]
    pool_at(2)
    assert [generated(16, 64, 2, attempts) for attempts in range(1, 15)] == serial


def serial_first_prime(candidates, rng, fail_round):
    """The one-round-at-a-time search, each open candidate n failing at round fail_round[n]
    (None: all pass); returns the prime and the (n, witness) pairs of the failing rounds."""
    failing = set()
    for n in candidates:
        for round_number in range(1, primes._MR_ROUNDS + 1):
            a = 2 + sample_uniform(n - 3, False, rng)
            if round_number == fail_round[n]:
                failing.add((n, a))
                break
        else:
            return n, failing
    return None, failing


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_a_round_failing_after_the_first_rewinds_rng_to_the_serial_state(batch):
    rng = random.Random(11)
    candidates = []
    while len(candidates) < 7:
        n = rng.getrandbits(128) | 1 << 127 | 1
        if all(n % prime for prime in groupparams._SMALL_PRIMES):
            candidates.append(n)
    for fail_rounds in ([1, 2, 1, 64, 5, 1, None], [33, 1, 2, 1, 1, 64, 1], [1] * 7):
        fail_round = dict(zip(candidates, fail_rounds))
        serial_rng = random.Random(5)
        expected, failing = serial_first_prime(candidates, serial_rng, fail_round)
        rounds = partial(map, lambda task: task not in failing)
        rng = random.Random(5)
        assert primes._first_prime(candidates, rng, rounds, batch) == expected
        assert rng.getstate() == serial_rng.getstate()


def test_no_worker_outlives_a_call(pool_at):
    before = child_processes()
    opened = pool_at(2)
    generate_params(16, 64, random.Random(0))
    assert child_processes() == before
    with pytest.raises(GenerationTimeout):
        generate_params(16, 64, random.Random(2), max_attempts=13)
    assert child_processes() == before
    assert opened == [2, 2]


def test_a_refused_full_size_modulus_leaves_no_worker(big):
    # q**8 is wide enough for the pool and has no factor below the trial-division limit
    composite = big.q**8
    assert composite.bit_length() >= primes._POOL_MIN_BITS
    before = child_processes()
    report = validate_params(GroupParams(p=composite, q=big.q, g=big.g))
    assert f"p = {composite} is not prime" in report.failures
    assert child_processes() == before


def test_importing_the_package_and_its_cli_loads_no_pool():
    """Nor the prime search itself, and importing the package's __main__ runs no CLI."""
    code = ("import sys, dvsig, dvsig.cli, dvsig.__main__; "
            "print(sorted(m for m in sys.modules if m == 'dvsig.primes' or m.split('.')[0] in "
            "('multiprocessing', 'concurrent', 'subprocess', 'pickle')))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode() == "[]\n"
