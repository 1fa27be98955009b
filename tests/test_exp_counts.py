"""Modular exponentiations per scheme operation.

The count does not depend on the machine, so it pins the cost of each
operation exactly.  Every dvsig module binds modmath's functions with
``from ... import``, so the counter replaces them under every name bound
in every loaded dvsig module, not only in dvsig.modmath.
"""

import random
import sys

import pytest

from dvsig import modmath, wirefmt
from dvsig.cli import run
from dvsig.errors import InvalidSignature
from dvsig.keys import keygen
from dvsig.modmath import sample_uniform
from dvsig.msghash import encode_message
from dvsig.pv_scheme import psg, psv
from dvsig.sdvs_mr import RecoverySignature, mr_recover_verify, mr_sign, mr_simulate, random_nonces
from dvsig.sdvs_saeednia import SaeedniaNonces, sds_sign, sds_sign_random, sds_simulate, sds_verify
from dvsig.udvs import DVSignature, SimulatorRandomness, dsg, dsv_recover, dv_simulate


@pytest.fixture()
def exp_counter(monkeypatch):
    calls = []
    originals = (modmath.mod_exp, modmath.pow_in_subgroup)

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "dvsig" or name.startswith("dvsig."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, attr, counting(value))

    def count(operation):
        calls.clear()
        result = operation()
        return result, len(calls)

    return count


def test_exponentiations_per_operation(midsize, exp_counter):
    pinned_counts(midsize, exp_counter)


def test_exponentiations_per_operation_with_per_call_combs(wide, exp_counter):
    """The same counts where the openers power t and e from per-call combs."""
    pinned_counts(wide, exp_counter)


def test_exponentiations_per_operation_at_full_size(big, exp_counter):
    """The same counts at 2048/256 bits, the size the benchmark runs."""
    pinned_counts(big, exp_counter)


def pinned_counts(params, exp_counter):
    """Pin each operation's count of exponentiations.

    Saeednia verify takes 3: the test y_A**q = 1, then g**(s*t*x_B) and
    y_A**(r*t*x_B).  Its exponents of y_A are mod q, so, as for Lee-Chang,
    a key outside the subgroup would hand its holder a residue of x_B.

    Lee-Chang recover takes 6: t**q, y_A**r, t**s, the test y_A**q = 1,
    and the unblinding (t**s * y_A**-r)**x_B as t**(s*x_B) * y_A**(-r*x_B),
    so that it reads t's per-call comb and y_A's table instead of a
    builtin pow of a fresh base.  The split costs one more power, and the
    key test another: with exponents mod q, a key outside the subgroup
    would give its holder a fresh residue of x_B at every signature.
    """
    rng = random.Random(7)
    signer = keygen(params, rng)
    verifier = keygen(params, rng)
    m = encode_message(b"count", params)
    x_a, y_a, x_b, y_b = signer.x, signer.y, verifier.x, verifier.y
    zq = lambda: sample_uniform(params.q, False, rng)
    zq_star = lambda: sample_uniform(params.q, True, rng)

    # Saeednia can refuse a nonce whose hash is 0; this seed never hits it.
    sae, n = exp_counter(lambda: sds_sign(params, x_a, y_b, m, SaeedniaNonces(zq(), zq_star())))
    assert n == 1
    ok, n = exp_counter(lambda: sds_verify(params, y_a, x_b, m, sae))
    assert ok and n == 3
    _, n = exp_counter(lambda: sds_simulate(params, y_a, x_b, m, zq(), zq_star()))
    assert n == 2

    lee, n = exp_counter(lambda: mr_sign(params, x_a, y_b, m, random_nonces(params, rng)))
    assert n == 3
    rec, n = exp_counter(lambda: mr_recover_verify(params, y_a, x_b, lee))
    assert rec.value == m.value and n == 6
    _, n = exp_counter(lambda: mr_simulate(params, y_a, x_b, m, zq_star(), zq()))
    assert n == 3

    pv, n = exp_counter(lambda: psg(params, x_a, m, random_nonces(params, rng)))
    assert n == 2
    rec, n = exp_counter(lambda: psv(params, y_a, pv))
    assert rec.value == m.value and n == 3

    dv, n = exp_counter(lambda: dsg(params, y_a, y_b, pv, zq()))
    assert n == 5
    rec, n = exp_counter(lambda: dsv_recover(params, y_a, x_b, dv))
    assert rec.value == m.value and n == 5
    rands = SimulatorRandomness(zq_star(), zq(), zq())
    _, n = exp_counter(lambda: dv_simulate(params, y_a, x_b, m, rands))
    assert n == 4


@pytest.mark.parametrize("group", ["midsize", "wide"])
def test_one_pv_signature_costs_the_same_at_every_opening(request, group, exp_counter):
    """psv, psv again, dsg and dsv_recover of that designation, all on one PV signature
    object whose t keeps its comb from the first opening, cost 3, 3, 5 and 5, as on fresh
    objects: the comb saves its build, never a power."""
    params = request.getfixturevalue(group)
    rng = random.Random(9)
    signer, verifier = keygen(params, rng), keygen(params, rng)
    m = encode_message(b"count", params)
    pv = psg(params, signer.x, m, random_nonces(params, rng))
    for _ in range(2):
        rec, n = exp_counter(lambda: psv(params, signer.y, pv))
        assert rec.value == m.value and n == 3
    d = sample_uniform(params.q, False, rng)
    dv, n = exp_counter(lambda: dsg(params, signer.y, verifier.y, pv, d))
    assert dv.t is pv.t and n == 5
    rec, n = exp_counter(lambda: dsv_recover(params, signer.y, verifier.x, dv))
    assert rec.value == m.value and n == 5
    if params.p >= modmath._TABLE_MIN_MODULUS:
        assert pv.t.comb is not None


def pv_verify_expecting(params, exp_counter, tmp_path, expected: bytes):
    """(exit code, exponentiations) of `verify --scheme pv --expect-message` on a
    signature of b"count" against a file holding expected."""
    signer = keygen(params, random.Random(7))
    files = {"params": params, "signer.sec": signer.secret(), "signer.pub": signer.public()}
    for name, value in files.items():
        (tmp_path / name).write_text(wirefmt.armor(value))
    (tmp_path / "m.bin").write_bytes(b"count")
    (tmp_path / "expected.bin").write_bytes(expected)
    group = ["--params", str(tmp_path / "params")]
    assert run(["sign", "--scheme", "pv", *group, "--key", str(tmp_path / "signer.sec"),
                "--message", str(tmp_path / "m.bin"), "--seed", "1",
                "--out", str(tmp_path / "m.pvsig")]) == 0
    return exp_counter(lambda: run(
        ["verify", "--scheme", "pv", *group, "--signer-key", str(tmp_path / "signer.pub"),
         "--in", str(tmp_path / "m.pvsig"), "--expect-message", str(tmp_path / "expected.bin")]))


def test_cli_pv_verify_with_expectation_opens_once(midsize, exp_counter, tmp_path):
    """`verify --scheme pv --expect-message` costs one check of the signer key, y_A**q,
    and what one psv costs: 1 + 3."""
    code, n = pv_verify_expecting(midsize, exp_counter, tmp_path, b"count")
    assert code == 0 and n == 1 + 3


def test_cli_pv_verify_against_another_message_opens_once(midsize, exp_counter, tmp_path, capsys):
    """A mismatched expectation is refused by psv_matches without opening the signature,
    so the key check and the one opening that prints the recovered message are all it
    costs: 1 + 3."""
    code, n = pv_verify_expecting(midsize, exp_counter, tmp_path, b"other")
    assert code == 1 and n == 1 + 3
    assert capsys.readouterr().out == f"REJECT\npayload-hex: {b'count'.hex()}\n"


def test_the_verifier_secret_reaches_e_only_after_its_subgroup_test(wide, monkeypatch):
    """dsv_recover powers e by x_B only after e**q = 1 has passed, and never otherwise."""
    p, q = wide.p, wide.q
    rng = random.Random(11)
    signer, verifier = keygen(wide, rng), keygen(wide, rng)
    m = encode_message(b"spy", wide)
    dv = dsg(wide, signer.y, verifier.y, psg(wide, signer.x, m, random_nonces(wide, rng)),
             sample_uniform(q, False, rng))
    h = 2
    while pow(h, q, p) == 1:
        h += 1
    outside = DVSignature(dv.t, dv.w, dv.r, dv.s, dv.e * h % p)
    powers, power = [], modmath._power

    def spy(base, exp, modulus):
        powers.append((base, exp))
        return power(base, exp, modulus)

    monkeypatch.setattr(modmath, "_power", spy)
    assert dsv_recover(wide, signer.y, verifier.x, dv).value == m.value
    assert powers.index((dv.e, verifier.x)) > powers.index((dv.e, q))
    powers.clear()
    with pytest.raises(InvalidSignature, match="e is not an order-q subgroup element"):
        dsv_recover(wide, signer.y, verifier.x, outside)
    assert (outside.e, q) in powers
    assert not any(base == outside.e and exp != q for base, exp in powers)


def test_the_verifier_secret_reaches_t_only_after_its_subgroup_test(wide, wide_tabled,
                                                                    monkeypatch):
    """mr_recover_verify powers t by s*x_B only after t**q = 1 has passed, and y_A by
    -r*x_B only after y_A**q = 1 has, and neither otherwise.  With y_A's table answering,
    it raises only t, from the per-call comb that t**q built, and y_A, from its table: the
    one builtin pow left is the modular inverse."""
    p, q = wide.p, wide.q
    signer, verifier = wide_tabled
    rng = random.Random(19)
    m = encode_message(b"spy", wide)
    sig = mr_sign(wide, signer.x, verifier.y, m, random_nonces(wide, rng))
    h = 2
    while pow(h, q, p) == 1:
        h += 1
    outside = RecoverySignature(sig.t * h % p, sig.c, sig.r, sig.s)
    powers, builtin_exps, power = [], [], modmath._power

    def spy(base, exp, modulus):
        powers.append((base, exp))
        return power(base, exp, modulus)

    def builtin_spy(base, exp, modulus):
        builtin_exps.append(exp)
        return pow(base, exp, modulus)

    monkeypatch.setattr(modmath, "_power", spy)
    monkeypatch.setattr(modmath, "pow", builtin_spy, raising=False)
    assert mr_recover_verify(wide, signer.y, verifier.x, sig).value == m.value
    assert powers.index((sig.t, sig.s * verifier.x % q)) > powers.index((sig.t, q))
    assert powers.index((signer.y, -sig.r * verifier.x % q)) > powers.index((signer.y, q))
    assert len(powers) == 6 and builtin_exps == [-1]
    for base, _ in powers:
        assert base is signer.y or (type(base) is modmath.PerCallBase and base == sig.t)
    powers.clear()
    with pytest.raises(InvalidSignature, match="t is not a nontrivial order-q subgroup element"):
        mr_recover_verify(wide, signer.y, verifier.x, outside)
    assert powers == [(outside.t, q)]
    powers.clear()
    with pytest.raises(InvalidSignature, match="signer public key is not an order-q subgroup"):
        mr_recover_verify(wide, signer.y * h % p, verifier.x, sig)
    assert powers[-1] == (signer.y * h % p, q)
    assert all(exp in (q, sig.r, sig.s) for _, exp in powers)


def test_saeednia_verify_and_lee_chang_simulate_power_only_tabled_bases(wide, wide_tabled,
                                                                        monkeypatch):
    """sds_verify raises only y_A (to q, first) and then g and y_A, and mr_simulate only
    y_A: FixedBase residues whose tables answer, so no builtin pow of a fresh base is left
    in either."""
    signer, verifier = wide_tabled
    rng = random.Random(13)
    m = encode_message(b"spy", wide)
    sig = sds_sign_random(wide, signer.x, verifier.y, m, rng)
    bases, exps, power = [], [], modmath._power

    def spy(base, exp, modulus):
        bases.append(base)
        exps.append(exp)
        return power(base, exp, modulus)

    monkeypatch.setattr(modmath, "_power", spy)
    assert sds_verify(wide, signer.y, verifier.x, m, sig)
    assert len(bases) == 3 and exps[0] == wide.q
    assert bases[0] is signer.y and bases[1] is wide.g and bases[2] is signer.y
    bases.clear()
    mr_simulate(wide, signer.y, verifier.x, m, sample_uniform(wide.q, True, rng),
                sample_uniform(wide.q, False, rng))
    assert len(bases) == 3 and all(base is signer.y for base in bases)
    assert type(signer.y) is modmath.FixedBase and signer.y.comb.modulus == wide.p
