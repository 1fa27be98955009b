import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from dvsig import modmath, wirefmt
from dvsig.cli import run
from dvsig.errors import DegenerateHash, NonInvertible
from dvsig.groupparams import generate_params
from dvsig.modmath import ZQ, ZQ_STAR, mod_exp, mod_inv, pow_in_subgroup, sample_space, sample_uniform


def repeated_multiplication(base, exp, modulus):
    acc = 1
    for _ in range(exp):
        acc = acc * base % modulus
    return acc


def test_mod_exp_matches_repeated_multiplication():
    assert repeated_multiplication(4, 3, 23) == 18
    assert mod_exp(4, 3, 23) == 18


def test_mod_exp_zero_exponent_is_one():
    for x in (1, 2, 7, 22):
        assert mod_exp(x, 0, 23) == 1


def test_mod_exp_by_long_division():
    # 16**3 = 4096 = 178 * 23 + 2
    assert mod_exp(16, 3, 23) == 2


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=50))
def test_mod_exp_agrees_with_oracle(base, exp):
    assert mod_exp(base % 23, exp, 23) == repeated_multiplication(base % 23, exp, 23)


def test_mod_inv_small_cases():
    assert mod_inv(3, 11) == 4
    assert mod_inv(1, 11) == 1
    with pytest.raises(NonInvertible):
        mod_inv(0, 11)
    with pytest.raises(NonInvertible):
        mod_inv(22, 11)


@pytest.mark.parametrize("q", [11, 13, 101, 257])
def test_mod_inv_exhaustive(q):
    for a in range(1, q):
        assert a * mod_inv(a, q) % q == 1


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_exponent_addition_law(a, b):
    p, g = 23, 4
    assert mod_exp(g, a + b, p) == mod_exp(g, a, p) * mod_exp(g, b, p) % p


def test_pow_in_subgroup_handles_negative_exponents():
    # 18 has order 11 mod 23; 18**-3 must invert 18**3
    assert pow_in_subgroup(18, -3, 23, 11) * pow_in_subgroup(18, 3, 23, 11) % 23 == 1
    assert pow_in_subgroup(18, -3, 23, 11) == 16


def test_sample_uniform_single_choice():
    assert sample_uniform(2, True, random.Random(0)) == 1


def test_sample_uniform_deterministic_for_seed():
    a = [sample_uniform(11, False, random.Random(99)) for _ in range(20)]
    b = [sample_uniform(11, False, random.Random(99)) for _ in range(20)]
    assert a == b


@given(st.integers(min_value=2, max_value=300), st.integers(min_value=0, max_value=2**32))
def test_sample_uniform_stays_in_range(bound, seed):
    rng = random.Random(seed)
    for _ in range(25):
        value = sample_uniform(bound, False, rng)
        assert 0 <= value < bound
    for _ in range(25):
        value = sample_uniform(bound, True, rng)
        assert 1 <= value < bound


def test_sample_uniform_frequencies_within_five_sigma():
    rng = random.Random(20260810)
    draws = 10_000
    counts = [0] * 11
    for _ in range(draws):
        counts[sample_uniform(11, False, rng)] += 1
    expected = draws / 11
    sigma = (draws * (1 / 11) * (10 / 11)) ** 0.5
    for residue, count in enumerate(counts):
        assert abs(count - expected) <= 5 * sigma, (residue, count)


def test_sample_uniform_rejects_tiny_bound():
    with pytest.raises(ValueError):
        sample_uniform(1, False, random.Random(0))


def test_sample_space_draws_each_component_in_order():
    rng = random.Random(7)
    expected = (sample_uniform(11, True, rng), sample_uniform(11, False, rng),
                sample_uniform(11, False, rng))
    assert sample_space(11, (ZQ_STAR, ZQ, ZQ), random.Random(7)) == expected


def test_sample_space_redraws_only_on_a_degenerate_hash():
    draws = []

    def make(draw):
        draws.append(draw)
        if len(draws) < 3:
            raise DegenerateHash("redraw")
        return draw

    rng = random.Random(8)
    assert sample_space(11, (ZQ, ZQ_STAR), random.Random(8), make) == draws[-1]
    assert draws == [(sample_uniform(11, False, rng), sample_uniform(11, True, rng))
                     for _ in range(3)]
    with pytest.raises(NonInvertible):
        sample_space(11, (ZQ,), random.Random(8), lambda draw: mod_inv(0, 11))


def test_sample_space_gives_up_once_every_draw_is_rejected():
    rejected = set()

    def make(draw):
        rejected.add(draw)
        raise DegenerateHash("redraw")

    with pytest.raises(DegenerateHash, match="every one of the 20 draws"):
        sample_space(5, (ZQ_STAR, ZQ), random.Random(3), make)
    assert len(rejected) == 20


# ------------------------------------------------------- fixed-base tables

# Table powers must equal the builtin pow bit for bit; tables are built
# only for hot bases of full-size moduli, and their number is bounded.


def forget_all_bases():
    """Empty the table cache and the use counter, as in a fresh process."""
    modmath._tables.clear()
    modmath._uses.clear()


@pytest.fixture()
def tables():
    forget_all_bases()
    yield modmath._tables
    forget_all_bases()


def tabled(base, params):
    """The table of base, built by using it with exponent q - 1 as often as it takes."""
    p, q = params.p, params.q
    if (base, p) not in modmath._tables:
        for _ in range(modmath._TABLE_AFTER):
            assert mod_exp(base, q - 1, p) == pow(base, q - 1, p)
    return modmath._tables[(base, p)]


def outside_subgroup(params):
    h = 2
    while pow(h, params.q, params.p) == 1:
        h += 1
    return h


BASES = {
    "g": lambda params, key: params.g,
    "key": lambda params, key: key.y,
    "one": lambda params, key: 1,
    "p-1": lambda params, key: params.p - 1,
    "outside": lambda params, key: outside_subgroup(params),
}
TABLE_SETTINGS = settings(deadline=None, max_examples=40)


def special_or_below_q(params):
    q = params.q
    return st.one_of(st.sampled_from([0, 1, q - 1, q]), st.integers(min_value=0, max_value=q - 1))


@pytest.mark.parametrize("name", BASES)
def test_table_power_equals_builtin(big, big_signer, name, tables):
    base = BASES[name](big, big_signer)
    table = tabled(base, big)

    @TABLE_SETTINGS
    @given(special_or_below_q(big))
    def check(exp):
        assert exp.bit_length() <= table.width
        assert mod_exp(base, exp, big.p) == pow(base, exp, big.p)
        assert pow_in_subgroup(base, exp, big.p, big.q) == pow(base, exp % big.q, big.p)
        assert modmath._tables[(base, big.p)] is table

    check()


@pytest.mark.parametrize("name", BASES)
def test_exponents_wider_than_the_table_fall_back(big, big_signer, name, tables):
    base = BASES[name](big, big_signer)
    table = tabled(base, big)

    @TABLE_SETTINGS
    @given(st.integers(min_value=1 << table.width, max_value=1 << (2 * table.width)))
    def check(exp):
        assert mod_exp(base, exp, big.p) == pow(base, exp, big.p)
        assert modmath._tables[(base, big.p)] is table

    check()


@pytest.mark.parametrize("name", BASES)
def test_negative_exponents_through_pow_in_subgroup(big, big_signer, name, tables):
    base = BASES[name](big, big_signer)
    p, q = big.p, big.q
    tabled(base, big)

    @TABLE_SETTINGS
    @given(special_or_below_q(big))
    def check(k):
        assert pow_in_subgroup(base, -k, p, q) == pow(base, -k % q, p)
        if pow(base, q, p) == 1:
            assert pow_in_subgroup(base, -k, p, q) == pow(base, -k, p)

    check()


def test_fewer_uses_than_the_threshold_build_no_table(big, tables):
    p, q, g = big.p, big.q, big.g
    for k in range(1, modmath._TABLE_AFTER):
        assert mod_exp(g, q - k, p) == pow(g, q - k, p)
    assert not tables
    assert pow_in_subgroup(g, -1, p, q) == pow(g, q - 1, p)
    assert (g, p) in tables


@pytest.mark.parametrize("group", ["toy", "midsize"])
def test_small_groups_never_build_a_table(request, group, tables):
    params = request.getfixturevalue(group)
    p, q, g = params.p, params.q, params.g
    for k in range(4 * modmath._TABLE_AFTER):
        assert mod_exp(g, k % q, p) == pow(g, k % q, p)
        assert pow_in_subgroup(g, -k, p, q) == pow(g, -k % q, p)
    assert not tables and not modmath._uses


def test_table_and_counter_counts_stay_within_their_caps(big, tables):
    p, q, g = big.p, big.q, big.g
    bases = [pow(g, i, p) for i in range(2, modmath._MAX_TABLES + 4)]
    for base in bases:
        tabled(base, big)
        assert len(tables) <= modmath._MAX_TABLES
    assert list(tables) == [(base, p) for base in bases[-modmath._MAX_TABLES:]]
    for i in range(2 * modmath._MAX_COUNTED):
        assert mod_exp(g + i, 3, p) == pow(g + i, 3, p)
    assert len(modmath._uses) == modmath._MAX_COUNTED


def test_one_shot_cli_processes_build_no_table(big, big_signer, big_verifier, tmp_path, tables):
    """sign and verify on 2048-bit files, each run as a fresh process sees it."""
    files = {"params": big, "signer.sec": big_signer.secret(), "signer.pub": big_signer.public(),
             "verifier.sec": big_verifier.secret(), "verifier.pub": big_verifier.public()}
    for name, value in files.items():
        (tmp_path / name).write_text(wirefmt.armor(value))
    (tmp_path / "m.bin").write_bytes(b"one-shot")
    f = {name: str(tmp_path / name) for name in (*files, "m.bin", "m.rsig", "m.pvsig")}
    group = ["--params", f["params"]]
    runs = [
        ["sign", "--scheme", "leechang", *group, "--key", f["signer.sec"],
         "--verifier-key", f["verifier.pub"], "--message", f["m.bin"], "--seed", "1",
         "--out", f["m.rsig"]],
        ["recover", "--scheme", "leechang", *group, "--key", f["verifier.sec"],
         "--signer-key", f["signer.pub"], "--in", f["m.rsig"]],
        ["sign", "--scheme", "pv", *group, "--key", f["signer.sec"], "--message", f["m.bin"],
         "--seed", "2", "--out", f["m.pvsig"]],
        ["verify", "--scheme", "pv", *group, "--signer-key", f["signer.pub"],
         "--in", f["m.pvsig"], "--expect-message", f["m.bin"]],
    ]
    for argv in runs:
        forget_all_bases()
        assert run(argv) == 0
        assert not tables, argv[:3]


def test_threads_share_the_cache_safely(tables):
    """More threads than cores churn five hot bases through the tables and
    one-off bases through the counter; every power stays exact."""
    params = generate_params(64, 256, random.Random(3))
    p, q, g = params.p, params.q, params.g
    hot = [pow(g, i, p) for i in range(1, modmath._MAX_TABLES + 3)]
    wrong, finished = [], []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(1000):
            base = rng.choice(hot) if rng.random() < 0.5 else rng.randrange(2, p)
            exp = rng.randrange(q)
            if mod_exp(base, exp, p) != pow(base, exp, p):
                wrong.append((base, exp))
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == list(range(4)) and not wrong
    assert tables and len(tables) <= modmath._MAX_TABLES
    assert len(modmath._uses) <= modmath._MAX_COUNTED


# ----------------------------------------------------------- marked bases

# Inside a hot block a marked base is powered from a per-call comb, which
# must equal the builtin pow bit for bit and must not outlive the block.


def marks():
    """The calling thread's marks: {(base, modulus): comb or None}, None outside any block."""
    return getattr(modmath._local, "marks", None)


def marked_comb(base, params):
    """The per-call comb of a marked base, built by its first power, with exponent q."""
    p, q = params.p, params.q
    assert mod_exp(base, q, p) == pow(base, q, p)
    comb = marks()[(base, p)]
    assert isinstance(comb, modmath._Comb) and (comb.rows, comb.blocks) == (modmath._HOT_ROWS, 1)
    return comb


MARKED_BASES = {
    "zero": lambda params: 0,
    "one": lambda params: 1,
    "p-1": lambda params: params.p - 1,
    "p": lambda params: params.p,
    "p+g": lambda params: params.p + params.g,
    "outside": outside_subgroup,
    **{f"random-{seed}": lambda params, seed=seed: random.Random(seed).randrange(2, params.p)
       for seed in range(3)},
}


@pytest.mark.parametrize("name", MARKED_BASES)
def test_marked_power_equals_builtin(big, name, tables):
    base = MARKED_BASES[name](big)
    p, q = big.p, big.q
    with modmath.hot(p, base):
        comb = marked_comb(base, big)
        assert comb.width == q.bit_length()
        for exp in (0, 1, q - 1, (1 << comb.width) - 1, random.Random(name).randrange(q)):
            assert mod_exp(base, exp, p) == pow(base, exp, p)
            assert pow_in_subgroup(base, -exp, p, q) == pow(base, -exp % q, p)
        wider = 1 << comb.width
        assert mod_exp(base, wider, p) == pow(base, wider, p)
        assert mod_exp(base, wider + q, p) == pow(base, wider + q, p)
        assert marks()[(base, p)] is comb
    # 13 uses: below the table threshold, so the comb served every power that fit it.
    assert not tables


def test_a_table_takes_precedence_over_a_mark(big, tables):
    p, q, g = big.p, big.q, big.g
    table = tabled(g, big)
    with modmath.hot(p, g):
        assert mod_exp(g, q - 2, p) == pow(g, q - 2, p)
        assert marks()[(g, p)] is None
    assert tables[(g, p)] is table


@pytest.mark.parametrize("group", ["toy", "midsize", "256 bits"])
def test_small_moduli_mark_nothing(request, group, tables):
    """Below _TABLE_MIN_MODULUS, and from there up to _HOT_MIN_MODULUS, where a table may
    be built but a per-call comb would lose to the builtin pow."""
    if group == "256 bits":
        params = generate_params(64, 256, random.Random(3))
        assert modmath._TABLE_MIN_MODULUS <= params.p < modmath._HOT_MIN_MODULUS
    else:
        params = request.getfixturevalue(group)
    p, q, g = params.p, params.q, params.g
    with modmath.hot(p, g, p - 1):
        for base in (g, p - 1):
            for k in (-q - 1, -1, 0, 1, q - 1, q, 2 * q + 1):
                assert pow_in_subgroup(base, k, p, q) == pow(base, k % q, p)
                assert mod_exp(base, abs(k), p) == pow(base, abs(k), p)
        assert marks() == {}
    assert marks() is None and not tables


def test_marks_and_combs_end_with_their_block(big, tables):
    p, q, g = big.p, big.q, big.g
    h = pow(g, 5, p)
    assert marks() is None
    with modmath.hot(p, g):
        outer = marked_comb(g, big)
        with modmath.hot(p, h):
            assert marks()[(g, p)] is outer
            marked_comb(h, big)
        assert marks() == {(g, p): outer}
    assert marks() is None
    with pytest.raises(ZeroDivisionError):
        with modmath.hot(p, h):
            marked_comb(h, big)
            raise ZeroDivisionError
    assert marks() is None
    assert mod_exp(h, q - 1, p) == pow(h, q - 1, p)
    assert not tables


def test_threads_never_see_each_others_marks(big, tables):
    p, q, g = big.p, big.q, big.g
    bases = [pow(g, i, p) for i in (2, 3)]
    inside = threading.Barrier(2, timeout=60)
    seen, finished = {}, []

    def work(base):
        with modmath.hot(p, base):
            inside.wait()
            marked_comb(base, big)
            inside.wait()
            seen[base] = set(marks())
            assert mod_exp(base, q - 1, p) == pow(base, q - 1, p)
        seen[base, "after"] = marks()
        finished.append(base)

    threads = [threading.Thread(target=work, args=(base,)) for base in bases]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == sorted(bases)
    for base in bases:
        assert seen[base] == {(base, p)} and seen[base, "after"] is None
