import dataclasses
import gc
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from dvsig import modmath
from dvsig.cli import run
from dvsig.errors import DegenerateHash, InvalidSignature, NonInvertible
from dvsig.groupparams import GroupParams, generate_params
from dvsig.keys import keygen
from dvsig.modmath import (ZQ, ZQ_STAR, FixedBase, PerCallBase, mod_exp, mod_inv, pow_in_subgroup,
                           sample_space, sample_uniform)
from dvsig.msghash import encode_message
from dvsig.pv_scheme import PVSignature, psg, psv
from dvsig.sdvs_mr import RecoveryNonces, mr_recover_verify, mr_sign
from dvsig.udvs import dsg, dsv_recover


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


def test_mod_inv_composite_modulus():
    """Every a that shares a factor with the modulus raises NonInvertible, not the builtin
    ValueError; the others get their exact inverse."""
    with pytest.raises(NonInvertible, match="2 has no inverse mod 22"):
        mod_inv(2, 22)
    for modulus in range(2, 40):
        for a in range(-2 * modulus, 2 * modulus):
            if math.gcd(a, modulus) == 1:
                assert a * mod_inv(a, modulus) % modulus == 1
            else:
                with pytest.raises(NonInvertible):
                    mod_inv(a, modulus)


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

# Table powers must equal the builtin pow bit for bit; a FixedBase builds
# its table only at its 16th power modulo a full-size modulus.  The
# shared `big` params and keys keep their tables from test to test, so
# these tests mark fresh values.


@pytest.fixture()
def builds(monkeypatch):
    """(rows, blocks) of every comb built while the test runs, in order."""
    built = []

    class Recorded(modmath._Comb):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append((self.rows, self.blocks))

    monkeypatch.setattr(modmath, "_Comb", Recorded)
    return built


def tabled(value, params):
    """A fresh FixedBase of value, powered with exponent q - 1 until it has its table."""
    p, q = params.p, params.q
    base = FixedBase(int(value))
    for _ in range(FixedBase.after):
        assert mod_exp(base, q - 1, p) == pow(int(base), q - 1, p)
    comb = base.comb
    assert (comb.rows, comb.blocks, comb.modulus) == (FixedBase.rows, FixedBase.blocks, p)
    return base, comb


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
def test_table_power_equals_builtin(big, big_signer, name):
    base, table = tabled(BASES[name](big, big_signer), big)

    @TABLE_SETTINGS
    @given(special_or_below_q(big))
    def check(exp):
        assert exp.bit_length() <= table.width
        assert mod_exp(base, exp, big.p) == pow(int(base), exp, big.p)
        assert pow_in_subgroup(base, exp, big.p, big.q) == pow(int(base), exp % big.q, big.p)
        assert base.comb is table

    check()


@pytest.mark.parametrize("name", BASES)
def test_exponents_wider_than_the_table_fall_back(big, big_signer, name):
    base, table = tabled(BASES[name](big, big_signer), big)

    @TABLE_SETTINGS
    @given(st.integers(min_value=1 << table.width, max_value=1 << (2 * table.width)))
    def check(exp):
        assert mod_exp(base, exp, big.p) == pow(int(base), exp, big.p)
        assert base.comb is table

    check()


@pytest.mark.parametrize("name", BASES)
def test_negative_exponents_through_pow_in_subgroup(big, big_signer, name):
    base, _ = tabled(BASES[name](big, big_signer), big)
    p, q = big.p, big.q

    @TABLE_SETTINGS
    @given(special_or_below_q(big))
    def check(k):
        assert pow_in_subgroup(base, -k, p, q) == pow(int(base), -k % q, p)
        if pow(int(base), q, p) == 1:
            assert pow_in_subgroup(base, -k, p, q) == pow(int(base), -k, p)

    check()


def test_fewer_uses_than_the_threshold_build_no_table(big, builds):
    p, q = big.p, big.q
    g = FixedBase(int(big.g))
    for k in range(1, FixedBase.after):
        assert mod_exp(g, q - k, p) == pow(int(g), q - k, p)
    assert g.comb is None and not builds
    assert pow_in_subgroup(g, -1, p, q) == pow(int(g), q - 1, p)
    assert builds == [(FixedBase.rows, FixedBase.blocks)] and g.comb.width >= q.bit_length()


@pytest.mark.parametrize("group", ["toy", "midsize"])
def test_small_groups_never_build_a_table(request, group, builds):
    params = request.getfixturevalue(group)
    p, q = params.p, params.q
    g = FixedBase(int(params.g))
    for k in range(4 * FixedBase.after):
        assert mod_exp(g, k % q, p) == pow(int(g), k % q, p)
        assert pow_in_subgroup(g, -k, p, q) == pow(int(g), -k % q, p)
    assert g.comb is None and g.uses == 0 and not builds


def test_marking_a_marked_value_returns_it(big):
    """A key pair and its public key share one FixedBase, and so one table."""
    pair = keygen(big, random.Random(303))
    assert isinstance(pair.y, FixedBase) and pair.public().y is pair.y
    assert FixedBase(pair.y) is pair.y and FixedBase(big.g) is big.g
    assert type(GroupParams(big.p, big.q, int(big.g)).g) is FixedBase
    assert PerCallBase(pair.y) is not pair.y and PerCallBase(pair.y) == pair.y


@pytest.mark.parametrize("form", [FixedBase, PerCallBase])
def test_a_comb_leaves_other_moduli_to_the_builtin_pow(big, form, builds):
    """The comb is bound to the modulus of the power that built it."""
    p, q = big.p, big.q
    other = p - 2
    base = form(int(big.g))
    for _ in range(form.after):
        assert mod_exp(base, q - 1, p) == pow(int(base), q - 1, p)
    comb = base.comb
    assert comb.modulus == p and builds == [(form.rows, form.blocks)]
    for exp in (0, 1, q - 1, random.Random(5).randrange(q)):
        assert mod_exp(base, exp, other) == pow(int(base), exp, other)
        assert pow_in_subgroup(base, -exp, other, q) == pow(int(base), -exp % q, other)
    assert base.comb is comb and len(builds) == 1


def test_a_table_is_freed_with_its_owner(big):
    params = GroupParams(big.p, big.q, int(big.g))
    for _ in range(FixedBase.after):
        mod_exp(params.g, big.q - 1, big.p)
    table = params.g.comb
    assert table is not None
    del params
    gc.collect()
    # Only the local name and getrefcount's own argument still hold it.
    assert sys.getrefcount(table) == 2


def test_one_shot_cli_processes_build_no_table(big, cli_files, tmp_path, builds):
    """Each in-process run loads fresh params and keys, as a one-shot process does, so rounds
    of sign, designate, verify and recover on 2048-bit files never reach a table."""
    f = cli_files(big, b"one-shot")
    builds.clear()
    pv, dv, rsig = (str(tmp_path / name) for name in ("pv.sig", "udvs.sig", "leechang.sig"))
    group = ["--params", f["params"]]
    runs = [
        ["sign", "--scheme", "pv", *group, "--key", f["signer.sec"], *f["message"],
         "--seed", "2", "--out", pv],
        ["verify", "--scheme", "pv", *group, "--signer-key", f["signer.pub"],
         "--in", pv, "--expect-message", f["m.bin"]],
        ["designate", *group, "--signer-key", f["signer.pub"], "--verifier-key", f["verifier.pub"],
         "--in", pv, "--seed", "3", "--out", dv],
        ["dverify", *group, "--key", f["verifier.sec"], "--signer-key", f["signer.pub"], "--in", dv],
        ["sign", "--scheme", "leechang", *group, "--key", f["signer.sec"],
         "--verifier-key", f["verifier.pub"], *f["message"], "--seed", "1", "--out", rsig],
        ["recover", "--scheme", "leechang", *group, "--key", f["verifier.sec"],
         "--signer-key", f["signer.pub"], "--in", rsig],
    ]
    for _ in range(4):
        for argv in runs:
            assert run(argv) == 0, argv[:3]
    assert (FixedBase.rows, FixedBase.blocks) not in builds
    # Per round: one per-call comb each in verify, designate (its psv) and recover; two in dverify.
    assert builds.count((PerCallBase.rows, PerCallBase.blocks)) == 4 * 5


def test_threads_share_marked_bases_safely(wide, builds):
    """More threads than cores share five marked bases, each past its table build, and
    power one-off bases beside them; every power stays exact."""
    p, q, g = wide.p, wide.q, wide.g
    shared = [FixedBase(pow(g, i, p)) for i in range(1, 6)]
    wrong, finished = [], []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(1000):
            base = rng.choice(shared) if rng.random() < 0.5 else rng.randrange(2, p)
            exp = rng.randrange(q)
            if mod_exp(base, exp, p) != pow(int(base), exp, p):
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
    assert all(base.comb is not None for base in shared)
    assert len(shared) <= len(builds) <= 4 * len(shared)


# ----------------------------------------------------------- marked bases

# A PerCallBase is powered from a comb built at its first power, which
# must equal the builtin pow bit for bit.


def marked_comb(base, params):
    """The per-call comb of a PerCallBase, built by its first power, with exponent q."""
    p, q = params.p, params.q
    assert base.comb is None
    assert mod_exp(base, q, p) == pow(int(base), q, p)
    comb = base.comb
    assert (comb.rows, comb.blocks) == (PerCallBase.rows, PerCallBase.blocks)
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
def test_marked_power_equals_builtin(big, name, builds):
    base = PerCallBase(MARKED_BASES[name](big))
    p, q = big.p, big.q
    comb = marked_comb(base, big)
    assert comb.width == q.bit_length()
    for exp in (0, 1, q - 1, (1 << comb.width) - 1, random.Random(name).randrange(q)):
        assert mod_exp(base, exp, p) == pow(int(base), exp, p)
        assert pow_in_subgroup(base, -exp, p, q) == pow(int(base), -exp % q, p)
    wider = 1 << comb.width
    assert mod_exp(base, wider, p) == pow(int(base), wider, p)
    assert mod_exp(base, wider + q, p) == pow(int(base), wider + q, p)
    assert base.comb is comb and len(builds) == 1


@pytest.mark.parametrize("group", ["toy", "midsize", "256 bits"])
def test_small_moduli_mark_nothing(request, group, builds):
    """Below 512 bits neither form builds a comb, not even a FixedBase powered past its
    `after`: at 256 bits neither comb clearly beats the builtin pow."""
    if group == "256 bits":
        params = generate_params(64, 256, random.Random(3))
        assert params.p.bit_length() == 256 and params.p < modmath._TABLE_MIN_MODULUS
    else:
        params = request.getfixturevalue(group)
    p, q = params.p, params.q
    bases = [PerCallBase(int(params.g)), PerCallBase(p - 1), FixedBase(int(params.g))]
    for base in bases:
        for _ in range(FixedBase.after):
            for k in (-q - 1, -1, 0, 1, q - 1, q, 2 * q + 1):
                assert pow_in_subgroup(base, k, p, q) == pow(int(base), k % q, p)
                assert mod_exp(base, abs(k), p) == pow(int(base), abs(k), p)
    assert all(base.comb is None for base in bases) and not builds


def test_both_forms_build_from_512_bits(wide, builds):
    """At the 512-bit threshold a PerCallBase builds at its first power, a FixedBase at its
    `after`-th."""
    p, q = wide.p, wide.q
    assert p.bit_length() == 512 and p >= modmath._TABLE_MIN_MODULUS
    per_call, fixed = PerCallBase(int(wide.g)), FixedBase(int(wide.g))
    assert mod_exp(per_call, q - 1, p) == pow(int(wide.g), q - 1, p)
    assert builds == [(PerCallBase.rows, PerCallBase.blocks)]
    for _ in range(FixedBase.after):
        assert mod_exp(fixed, q - 1, p) == pow(int(wide.g), q - 1, p)
    assert builds[1:] == [(FixedBase.rows, FixedBase.blocks)]


def test_one_pv_signature_builds_one_per_call_comb(big, big_signer, big_verifier, builds):
    """A PV signature's t keeps the comb its first opening builds: two psv calls, a dsg
    and the dsv_recover of that designation build one comb for t and one for e.  A
    Lee-Chang signature keeps a plain-int t, marked for one call at each opening."""
    sig = psg(big, big_signer.x, encode_message(b"twice", big), RecoveryNonces(k1=5, k2=7))
    builds.clear()
    for _ in range(2):
        assert psv(big, big_signer.y, sig).payload == b"twice"
    dv = dsg(big, big_signer.y, big_verifier.y, sig, 9)
    assert dsv_recover(big, big_signer.y, big_verifier.x, dv).payload == b"twice"
    assert builds == [(PerCallBase.rows, PerCallBase.blocks)] * 2
    assert type(sig.t) is PerCallBase and dv.t is sig.t

    lee = mr_sign(big, big_signer.x, big_verifier.y, encode_message(b"twice", big),
                  RecoveryNonces(k1=5, k2=7))
    builds.clear()
    for _ in range(2):
        assert mr_recover_verify(big, big_signer.y, big_verifier.x, lee).payload == b"twice"
    assert builds == [(PerCallBase.rows, PerCallBase.blocks)] * 2
    assert type(lee.t) is int

    comb = sig.t.comb
    assert comb is not None
    del sig, dv
    gc.collect()
    # Only the local name and getrefcount's own argument still hold it.
    assert sys.getrefcount(comb) == 2


def plain(sig):
    """A copy of a PV signature whose t is a plain int, so each opening marks it for one call."""
    copy = PVSignature(int(sig.t), sig.c, sig.r, sig.s)
    object.__setattr__(copy, "t", int(sig.t))
    return copy


def opened(params, signer_public, sig):
    """psv's message, or the message of the InvalidSignature it raises."""
    try:
        return psv(params, signer_public, sig).value
    except InvalidSignature as exc:
        return str(exc)


def test_a_kept_comb_too_narrow_for_q_leaves_the_opening_exact(big, big_signer):
    """A PV signature's t first powered by a short exponent keeps a comb too narrow for
    q: every opening, valid or tampered, equals that of a plain-int copy."""
    sig = psg(big, big_signer.x, encode_message(b"narrow", big), RecoveryNonces(k1=11, k2=13))
    assert mod_exp(sig.t, 3, big.p) == pow(int(sig.t), 3, big.p)
    narrow = sig.t.comb
    assert narrow.width < big.q.bit_length()
    tampered = dataclasses.replace(sig, c=sig.c % (big.p - 1) + 1)
    assert tampered.t is sig.t
    for candidate in (sig, tampered, sig):
        assert opened(big, big_signer.y, candidate) == opened(big, big_signer.y, plain(candidate))
    assert opened(big, big_signer.y, tampered) == "hash check failed"
    assert sig.t.comb is narrow


def test_a_kept_comb_leaves_another_modulus_exact(big, big_signer, powers):
    """One PV object opened under a second 2048-bit group as well: its comb is bound to
    the first group's modulus, so the other group's openings take the builtin pow, and
    each opening, and each power of t in it, equals that of a plain-int copy."""
    other = generate_params(256, 2048, random.Random(0x0DD))
    assert other.p != big.p and other.p.bit_length() == 2048
    m = encode_message(b"two groups", big)
    # A signature whose fields lie in both groups' ranges, so both openings reach t**q.
    for k1 in range(1, 100):
        sig = psg(big, big_signer.x, m, RecoveryNonces(k1=k1, k2=k1 + 1))
        if sig.t < other.p and sig.c < other.p and sig.r < other.q and sig.s < other.q:
            break
    else:
        pytest.fail("no signature lies in both groups' ranges")
    assert opened(big, big_signer.y, sig) == m.value
    comb = sig.t.comb
    assert comb.modulus == big.p
    powers.clear()
    for params in (other, big, other):
        assert opened(params, big_signer.y, sig) == opened(params, big_signer.y, plain(sig))
    assert opened(other, big_signer.y, sig) == "t is not a nontrivial order-q subgroup element"
    of_t = [power for power in powers if power.base is sig.t]
    assert [power.modulus for power in of_t] == [other.p, big.p, big.p, other.p, other.p]
    assert all(power.result == pow(int(power.base), power.exp, power.modulus) for power in of_t)
    assert sig.t.comb is comb
