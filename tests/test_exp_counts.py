"""Modular exponentiations per scheme operation.

The count does not depend on the machine, so it pins the cost of each
operation exactly.  The powers fixture (conftest) counts every call of
modmath._power, which mod_exp and pow_in_subgroup both make.
"""

import random

import pytest

import textbook
from dvsig import modmath
from dvsig.cli import run
from dvsig.errors import InvalidSignature
from dvsig.keys import keygen
from dvsig.modmath import sample_uniform
from dvsig.msghash import encode_message
from dvsig.pv_scheme import psg, psv
from dvsig.sdvs_mr import RecoverySignature, mr_recover_verify, mr_sign, mr_simulate, random_nonces
from dvsig.sdvs_saeednia import SaeedniaNonces, sds_sign, sds_sign_random, sds_simulate, sds_verify
from dvsig.udvs import DVSignature, SimulatorRandomness, dsg, dsv_recover, dv_simulate


def test_exponentiations_per_operation(midsize, powers):
    pinned_counts(midsize, powers)


def test_exponentiations_per_operation_with_per_call_combs(wide, powers):
    """The same counts where the openers power t and e from per-call combs."""
    pinned_counts(wide, powers)


def test_exponentiations_per_operation_at_full_size(big, powers):
    """The same counts at 2048/256 bits, the size the benchmark runs."""
    pinned_counts(big, powers)


def pinned_counts(params, powers):
    """Pin each operation's count of exponentiations, for keys from keygen and for the same
    signer key as a plain int.

    keygen takes 2: g**x, and the y**q of validate_public, which makes y a keys.SubgroupKey.
    Every opener asks keys.in_subgroup about its signer key, which powers y_A to q only for
    a key that is no SubgroupKey of the group: a plain int costs each opener one more.

    Saeednia verify takes 2: g**(s*t*x_B) and y_A**(r*t*x_B).  Its exponents of y_A are mod
    q, so, as for Lee-Chang, a key outside the subgroup would hand its holder a residue of x_B.

    Lee-Chang recover takes 5: t**q, y_A**r, t**s, and the unblinding (t**s * y_A**-r)**x_B
    as t**(s*x_B) * y_A**(-r*x_B), so that it reads t's per-call comb and y_A's table instead
    of a builtin pow of a fresh base.  The split costs one more power than the textbook's 4.
    """
    rng = random.Random(7)
    signer = powers.take(2, lambda: keygen(params, rng))
    verifier = keygen(params, rng)
    m = encode_message(b"count", params)
    x_a, x_b, y_b = signer.x, verifier.x, verifier.y
    zq = lambda: sample_uniform(params.q, False, rng)
    zq_star = lambda: sample_uniform(params.q, True, rng)

    for y_a, test in ((signer.y, 0), (int(signer.y), 1)):
        # Saeednia can refuse a nonce whose hash is 0; this seed never hits it.
        sae = powers.take(1, lambda: sds_sign(params, x_a, y_b, m, SaeedniaNonces(zq(), zq_star())))
        assert powers.take(2 + test, lambda: sds_verify(params, y_a, x_b, m, sae))
        powers.take(2, lambda: sds_simulate(params, y_a, x_b, m, zq(), zq_star()))

        lee = powers.take(3, lambda: mr_sign(params, x_a, y_b, m, random_nonces(params, rng)))
        assert powers.take(5 + test, lambda: mr_recover_verify(params, y_a, x_b, lee)).value == m.value
        powers.take(3, lambda: mr_simulate(params, y_a, x_b, m, zq_star(), zq()))

        pv = powers.take(2, lambda: psg(params, x_a, m, random_nonces(params, rng)))
        assert powers.take(3 + test, lambda: psv(params, y_a, pv)).value == m.value

        dv = powers.take(5 + test, lambda: dsg(params, y_a, y_b, pv, zq()))
        assert powers.take(5 + test, lambda: dsv_recover(params, y_a, x_b, dv)).value == m.value
        rands = SimulatorRandomness(zq_star(), zq(), zq())
        powers.take(4, lambda: dv_simulate(params, y_a, x_b, m, rands))


@pytest.mark.parametrize("group", ["midsize", "wide"])
def test_one_pv_signature_costs_the_same_at_every_opening(request, group, powers):
    """psv, psv again, dsg and dsv_recover of that designation, all on one PV signature
    object whose t keeps its comb from the first opening, cost 3, 3, 5 and 5, as on fresh
    objects: the comb saves its build, never a power."""
    params = request.getfixturevalue(group)
    rng = random.Random(9)
    signer, verifier = keygen(params, rng), keygen(params, rng)
    m = encode_message(b"count", params)
    pv = psg(params, signer.x, m, random_nonces(params, rng))
    for _ in range(2):
        assert powers.take(3, lambda: psv(params, signer.y, pv)).value == m.value
    d = sample_uniform(params.q, False, rng)
    dv = powers.take(5, lambda: dsg(params, signer.y, verifier.y, pv, d))
    assert dv.t is pv.t
    assert powers.take(5, lambda: dsv_recover(params, signer.y, verifier.x, dv)).value == m.value
    if params.p >= modmath._TABLE_MIN_MODULUS:
        assert pv.t.comb is not None


def pv_verify_expecting(f, powers, tmp_path, expected: bytes):
    """The exit code of `verify --scheme pv --expect-message` on f's PV signature against a
    file holding expected, once it took 1 + 3 exponentiations."""
    (tmp_path / "expected.bin").write_bytes(expected)
    return powers.take(1 + 3, lambda: run(
        ["verify", "--scheme", "pv", "--params", f["params"], "--signer-key", f["signer.pub"],
         "--in", f["pv.sig"], "--expect-message", str(tmp_path / "expected.bin")]))


def test_cli_pv_verify_with_expectation_opens_once(midsize, cli_files, powers, tmp_path):
    """`verify --scheme pv --expect-message` costs one check of the signer key, y_A**q,
    and what one psv costs: 1 + 3."""
    assert pv_verify_expecting(cli_files(midsize, b"count"), powers, tmp_path, b"count") == 0


@pytest.mark.parametrize("command, scheme, count", [("verify", "saeednia", 2),
                                                    ("recover", "leechang", 5)])
def test_cli_opener_tests_the_signer_key_once(midsize, cli_files, powers, command, scheme, count):
    """The CLI tests the signer key where it reads it, y_A**q, and hands the opener the
    keys.SubgroupKey it made, which the opener does not test again: 1 + count."""
    f = cli_files(midsize, b"count")
    message = f["message"] if scheme == "saeednia" else []
    assert powers.take(1 + count, lambda: run(
        [command, "--scheme", scheme, "--params", f["params"], "--signer-key", f["signer.pub"],
         "--key", f["verifier.sec"], *message, "--in", f[f"{scheme}.sig"]])) == 0


def test_cli_pv_verify_against_another_message_opens_once(midsize, cli_files, powers, tmp_path,
                                                          capsys):
    """A mismatched expectation is refused by psv_matches without opening the signature,
    so the key check and the one opening that prints the recovered message are all it
    costs: 1 + 3."""
    assert pv_verify_expecting(cli_files(midsize, b"count"), powers, tmp_path, b"other") == 1
    assert capsys.readouterr().out == f"REJECT\npayload-hex: {b'count'.hex()}\n"


def pairs(powers):
    return [(power.base, power.exp) for power in powers]


def test_the_verifier_secret_reaches_e_only_after_its_subgroup_test(wide, powers):
    """dsv_recover powers e by x_B only after e**q = 1 has passed, and never otherwise."""
    p, q = wide.p, wide.q
    rng = random.Random(11)
    signer, verifier = keygen(wide, rng), keygen(wide, rng)
    m = encode_message(b"spy", wide)
    dv = dsg(wide, signer.y, verifier.y, psg(wide, signer.x, m, random_nonces(wide, rng)),
             sample_uniform(q, False, rng))
    outside = DVSignature(dv.t, dv.w, dv.r, dv.s, dv.e * textbook.small_order_element(wide, 2) % p)
    assert powers(lambda: dsv_recover(wide, signer.y, verifier.x, dv))[0].value == m.value
    assert pairs(powers).index((dv.e, verifier.x)) > pairs(powers).index((dv.e, q))
    with pytest.raises(InvalidSignature, match="e is not an order-q subgroup element"):
        powers(lambda: dsv_recover(wide, signer.y, verifier.x, outside))
    assert (outside.e, q) in pairs(powers)
    assert not any(base == outside.e and exp != q for base, exp in pairs(powers))


def test_the_verifier_secret_reaches_t_only_after_its_subgroup_test(wide, wide_tabled, powers,
                                                                    monkeypatch):
    """mr_recover_verify powers t by s*x_B only after t**q = 1 has passed, and y_A by
    -r*x_B only after y_A**q = 1 has, and neither otherwise; a key from keygen passed its
    test there.  With y_A's table answering, it raises only t, from the per-call comb that
    t**q built, and y_A, from its table: the one builtin pow left is the modular inverse."""
    p, q = wide.p, wide.q
    signer, verifier = wide_tabled
    rng = random.Random(19)
    m = encode_message(b"spy", wide)
    sig = mr_sign(wide, signer.x, verifier.y, m, random_nonces(wide, rng))
    h = textbook.small_order_element(wide, 2)
    outside = RecoverySignature(sig.t * h % p, sig.c, sig.r, sig.s)
    builtin_exps = []

    def builtin_spy(base, exp, modulus):
        builtin_exps.append(exp)
        return pow(base, exp, modulus)

    monkeypatch.setattr(modmath, "pow", builtin_spy, raising=False)
    assert powers(lambda: mr_recover_verify(wide, signer.y, verifier.x, sig)) == (m, 5)
    assert pairs(powers).index((sig.t, sig.s * verifier.x % q)) > pairs(powers).index((sig.t, q))
    assert builtin_exps == [-1]
    for base, exp in pairs(powers):
        assert (base is signer.y and exp != q) or (type(base) is modmath.PerCallBase and base == sig.t)
    plain = int(signer.y)
    assert powers(lambda: mr_recover_verify(wide, plain, verifier.x, sig)) == (m, 6)
    assert pairs(powers).index((plain, -sig.r * verifier.x % q)) > pairs(powers).index((plain, q))
    with pytest.raises(InvalidSignature, match="t is not a nontrivial order-q subgroup element"):
        powers(lambda: mr_recover_verify(wide, signer.y, verifier.x, outside))
    assert pairs(powers) == [(outside.t, q)]
    with pytest.raises(InvalidSignature, match="signer public key is not an order-q subgroup"):
        powers(lambda: mr_recover_verify(wide, signer.y * h % p, verifier.x, sig))
    assert pairs(powers)[-1] == (signer.y * h % p, q)
    assert all(exp in (q, sig.r, sig.s) for _, exp in pairs(powers))


def test_saeednia_verify_and_lee_chang_simulate_power_only_tabled_bases(wide, wide_tabled, powers):
    """sds_verify raises only g and y_A, and mr_simulate only y_A: FixedBase residues whose
    tables answer, so no builtin pow of a fresh base is left in either.  A key from keygen
    needs no test there; the same key as a plain int is raised to q first."""
    signer, verifier = wide_tabled
    rng = random.Random(13)
    m = encode_message(b"spy", wide)
    sig = sds_sign_random(wide, signer.x, verifier.y, m, rng)
    assert powers(lambda: sds_verify(wide, signer.y, verifier.x, m, sig)) == (True, 2)
    assert all(power.base is base for power, base in zip(powers, (wide.g, signer.y)))
    assert powers(lambda: sds_verify(wide, int(signer.y), verifier.x, m, sig)) == (True, 3)
    assert pairs(powers)[0] == (signer.y, wide.q)
    powers(lambda: mr_simulate(wide, signer.y, verifier.x, m, sample_uniform(wide.q, True, rng),
                               sample_uniform(wide.q, False, rng)))
    assert len(powers) == 3 and all(power.base is signer.y for power in powers)
    assert isinstance(signer.y, modmath.FixedBase) and signer.y.comb.modulus == wide.p
