import argparse
import hashlib
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import STUBBED, src_env
from dvsig import oracle, primes, wirefmt
from dvsig.cli import build_parser, run
from dvsig.groupparams import GroupParams, TOY23, validate_params
from dvsig.keys import PublicKey
from dvsig.pv_scheme import PVSignature
from dvsig.sdvs_mr import RecoverySignature
from dvsig.udvs import DVSignature


def dvsig_process(argv, **kwargs):
    """python -m dvsig in a child process (conftest.src_env); stdout and stderr are captured."""
    return subprocess.run([sys.executable, "-m", "dvsig", *argv], capture_output=True,
                          env=src_env(), timeout=60, **kwargs)


@pytest.fixture(scope="module")
def toyfiles(cli_files):
    """cli_files on toy23, plus bad.pvsig and bad.dvsig: pv.sig with c and udvs.sig with w
    moved by one."""
    f = cli_files(TOY23)
    for name, bad, kind, field in (("pv.sig", "bad.pvsig", PVSignature, "c"),
                                   ("udvs.sig", "bad.dvsig", DVSignature, "w")):
        sig = wirefmt.loads_expected(Path(f[name]).read_bytes(), kind)
        f[bad] = str(f["dir"] / bad)
        moved = replace(sig, **{field: getattr(sig, field) % (TOY23.p - 1) + 1})
        Path(f[bad]).write_text(wirefmt.armor(moved))
    return f


PAYLOAD = b"\x00\x01payload"


@pytest.fixture(scope="module")
def bigfiles(cli_files, big):
    """cli_files on the 2048-bit group, signing PAYLOAD, whose leading zero byte must print."""
    return cli_files(big, PAYLOAD)


def test_params_gen_writes_armored_preset(tmp_path):
    out = tmp_path / "toy.params"
    assert run(["params", "gen", "--preset", "toy23", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("-----BEGIN DVS PARAMS-----")
    assert wirefmt.loads(out.read_bytes()) == TOY23


def test_params_gen_fresh_small_group(tmp_path):
    out = tmp_path / "small.params"
    assert run(["params", "gen", "--q-bits", "8", "--p-bits", "24", "--seed", "5",
                "--out", str(out)]) == 0
    params = wirefmt.loads_expected(out.read_bytes(), GroupParams)
    assert params.q.bit_length() == 8 and params.p.bit_length() == 24
    assert validate_params(params).valid


def test_params_gen_on_the_pool_writes_a_valid_group(tmp_path, monkeypatch):
    """From 1024 bits up, generation takes its Miller-Rabin rounds on the worker pool (two
    workers here, on any machine); params gen does not check its own output, so this does."""
    opened, real = [], primes._Pool
    monkeypatch.setattr(primes, "_cpus", lambda: 2)
    monkeypatch.setattr(primes, "_Pool", lambda workers: opened.append(workers) or real(workers))
    out = tmp_path / "pooled.params"
    assert run(["params", "gen", "--q-bits", "160", "--p-bits", "1024", "--seed", "1",
                "--out", str(out)]) == 0
    assert opened == [2]
    params = wirefmt.loads_expected(out.read_bytes(), GroupParams)
    assert params.q.bit_length() == 160 and params.p.bit_length() == 1024
    assert validate_params(params).valid


def test_params_gen_exits_2_when_a_pool_worker_exits(tmp_path, monkeypatch, capsys,
                                                      second_worker_exits):
    monkeypatch.setattr(primes, "_cpus", lambda: 2)
    assert run(["params", "gen", "--q-bits", "160", "--p-bits", "1024", "--seed", "1",
                "--out", str(tmp_path / "pooled.params")]) == 2
    assert capsys.readouterr().err == "error: a Miller-Rabin worker exited; worker statuses [None, 3]\n"


def test_params_check_accepts_and_rejects(tmp_path, capsys):
    good = tmp_path / "good.params"
    assert run(["params", "gen", "--preset", "toy23", "--out", str(good)]) == 0
    assert run(["params", "check", "--in", str(good)]) == 0
    assert "VALID" in capsys.readouterr().out

    bad = tmp_path / "bad.params"
    bad.write_text(wirefmt.armor(GroupParams(p=24, q=11, g=4)))
    assert run(["params", "check", "--in", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_params_check_malformed_file(tmp_path):
    junk = tmp_path / "junk.params"
    junk.write_bytes(b"\x02\x10\x00")
    assert run(["params", "check", "--in", str(junk)]) == 3


def test_keygen_writes_both_armored_files(toyfiles):
    with open(toyfiles["signer.sec"]) as fh:
        assert "DVS SECRET KEY" in fh.read()
    with open(toyfiles["signer.pub"]) as fh:
        assert "DVS PUBLIC KEY" in fh.read()


PV = ["--scheme", "pv", "--signer-key", "signer.pub", "--in"]
OPENER = ["--key", "verifier.sec", "--signer-key", "signer.pub"]
DESIGNATE = ["designate", "--signer-key", "signer.pub", "--verifier-key", "verifier.pub", "--in"]
SEVEN, FRAMED = "ACCEPT\nresidue: 7\n", f"ACCEPT\npayload-hex: {PAYLOAD.hex()}\n"


def cli_argv(f, argv):
    """argv with the files it names by their keys in file set f, then --params and the set's
    hash flags."""
    return [*(f.get(arg, arg) for arg in argv), "--params", f["params"], *f["hash"]]


def run_rows(f, capsys, *rows):
    """Runs (argv, stdout, exit code) rows in order on file set f."""
    for argv, stdout, code in rows:
        assert run(cli_argv(f, argv)) == code, argv
        assert capsys.readouterr().out == stdout, argv


def test_pv_pipeline_with_designation(toyfiles, capsys):
    run_rows(toyfiles, capsys, (["verify", *PV, "pv.sig", "--expect-residue", "7"], SEVEN, 0),
             (["dverify", *OPENER, "--in", "udvs.sig"], SEVEN, 0))


def test_pv_verify_expect_mismatch(toyfiles, capsys):
    run_rows(toyfiles, capsys,
             (["verify", *PV, "pv.sig", "--expect-residue", "8"], "REJECT\nresidue: 7\n", 1))


def test_saeednia_sign_verify(toyfiles, capsys):
    verify = ["verify", "--scheme", "saeednia", *OPENER, "--in", "saeednia.sig", "--raw-residue"]
    run_rows(toyfiles, capsys, ([*verify, "7"], "ACCEPT\n", 0), ([*verify, "8"], "REJECT\n", 1))


def test_leechang_sign_recover(toyfiles, capsys):
    run_rows(toyfiles, capsys,
             (["recover", "--scheme", "leechang", *OPENER, "--in", "leechang.sig"], SEVEN, 0))


def test_dverify_rejects_tampered_signature(toyfiles, capsys):
    run_rows(toyfiles, capsys, (["dverify", *OPENER, "--in", "bad.dvsig"], "REJECT\n", 1))


def test_designate_rejects_tampered_pv_signature(toyfiles, tmp_path, capsys):
    f = {**toyfiles, "out.dvsig": str(tmp_path / "out.dvsig")}
    run_rows(f, capsys, ([*DESIGNATE, "bad.pvsig", "--seed", "4", "--out", "out.dvsig"],
                         "REJECT\n", 1))


def test_full_size_message_file_pipeline(bigfiles, capsys):
    run_rows(bigfiles, capsys,
             (["verify", *PV, "pv.sig", "--expect-message", "m.bin"], FRAMED, 0),
             (["recover", *PV, "pv.sig"], FRAMED, 0),
             (["recover", "--scheme", "leechang", *OPENER, "--in", "leechang.sig"], FRAMED, 0),
             (["dverify", *OPENER, "--in", "udvs.sig"], FRAMED, 0),
             (["verify", "--scheme", "saeednia", *OPENER, "--message", "m.bin",
               "--in", "saeednia.sig"], "ACCEPT\n", 0))


def test_pv_verify_recovered_payload_printed(bigfiles, capsys):
    run_rows(bigfiles, capsys, (["verify", *PV, "pv.sig"], FRAMED, 0))


@pytest.fixture(scope="module")
def bare(bigfiles, tmp_path_factory):
    """bigfiles plus bare.pvsig, bare.rsig and bare.dvsig: PV, Lee-Chang and designated
    signatures of residue 7, which is no framed payload, on a group that frames payloads."""
    d = tmp_path_factory.mktemp("bare")
    f = {**bigfiles, **{name: str(d / name) for name in ("bare.pvsig", "bare.rsig", "bare.dvsig")}}
    for argv in (["sign", "--scheme", "pv", "--key", "signer.sec", "--raw-residue", "7",
                  "--seed", "1", "--out", "bare.pvsig"],
                 ["sign", "--scheme", "leechang", "--key", "signer.sec",
                  "--verifier-key", "verifier.pub", "--raw-residue", "7", "--seed", "1",
                  "--out", "bare.rsig"],
                 [*DESIGNATE, "bare.pvsig", "--seed", "1", "--out", "bare.dvsig"]):
        assert run(cli_argv(f, argv)) == 0, argv
    return f


BARE_CASES = {
    "verify-pv-expected": (["verify", *PV, "bare.pvsig", "--expect-residue", "7"], SEVEN, 0),
    "verify-pv-other": (["verify", *PV, "bare.pvsig", "--expect-residue", "8"],
                        "REJECT\nresidue: 7\n", 1),
    "recover-pv": (["recover", *PV, "bare.pvsig"], SEVEN, 0),
    "recover-leechang": (["recover", "--scheme", "leechang", *OPENER, "--in", "bare.rsig"], SEVEN, 0),
    "dverify": (["dverify", *OPENER, "--in", "bare.dvsig"], SEVEN, 0),
}


@pytest.mark.parametrize("case", sorted(BARE_CASES))
def test_a_valid_signature_of_a_bare_residue_is_not_malformed(bare, capsys, case):
    run_rows(bare, capsys, BARE_CASES[case])


def test_pv_verify_reads_expectation_before_opening(toyfiles, tmp_path, capsys):
    """An unreadable --expect-message is a usage error even when the signature is invalid."""
    verify = ["verify", "--scheme", "pv", "--params", toyfiles["params"],
              "--signer-key", toyfiles["signer.pub"], "--in", toyfiles["bad.pvsig"], *STUBBED]
    assert run([*verify, "--expect-residue", "7"]) == 1
    assert capsys.readouterr().out == "REJECT\n"
    assert run([*verify, "--expect-message", str(tmp_path / "absent")]) == 2
    assert capsys.readouterr().out == ""


def test_simulated_signatures_verify_and_share_wire_kind(toyfiles, tmp_path, capsys):
    """A simulated signature has the wire kind of the scheme's real one and opens as it does."""
    f, sim = toyfiles, tmp_path / "sim.sig"
    for scheme, opener in [("saeednia", ["verify", "--scheme", "saeednia", "--raw-residue", "7"]),
                           ("leechang", ["recover", "--scheme", "leechang"]), ("udvs", ["dverify"])]:
        assert run(["simulate", "--scheme", scheme, "--params", f["params"], "--key", f["verifier.sec"],
                    "--signer-key", f["signer.pub"], *f["message"], "--seed", "12", *STUBBED,
                    "--out", str(sim)]) == 0
        real = Path(f[f"{scheme}.sig"])
        assert type(wirefmt.loads(sim.read_bytes())) is type(wirefmt.loads(real.read_bytes()))
        outs = []
        for path in (sim, real):
            assert run([*opener, "--params", f["params"], "--key", f["verifier.sec"],
                        "--signer-key", f["signer.pub"], "--in", str(path), *STUBBED]) == 0, scheme
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith("ACCEPT\n"), scheme


def test_oracle_subcommand(toyfiles, capsys):
    for scheme in ("saeednia", "leechang", "udvs"):
        assert run(["oracle", "--scheme", scheme, "--params", toyfiles["params"]]) == 0
        out = capsys.readouterr().out
        assert "verdict: INDISTINGUISHABLE" in out
    assert run(["oracle", "--scheme", "leechang", "--params", toyfiles["params"],
                "--raw-residue", "3", "--seed", "77"]) == 0


def test_oracle_reports_a_distinguishable_pair(toyfiles, capsys, monkeypatch):
    enumerate_simulated = oracle.enumerate_simulated

    def skewed(*args):
        simulated = enumerate_simulated(*args)
        simulated.add(RecoverySignature(0, 0, 0, 0))
        return simulated

    monkeypatch.setattr(oracle, "enumerate_simulated", skewed)
    assert run(["oracle", "--scheme", "leechang", "--params", toyfiles["params"]]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "verdict: DISTINGUISHABLE" in out
    assert out[-1] == "diff: only in second multiset: (0, 0, 0, 0) x1"


def test_oracle_rejects_a_group_too_small_for_two_keys(tmp_path):
    """q = 2 leaves one secret in Z_q*, so two distinct parties cannot exist."""
    params = tmp_path / "q2.params"
    params.write_text(wirefmt.armor(GroupParams(p=5, q=2, g=4)))
    assert run(["params", "check", "--in", str(params)]) == 0
    # a subprocess with a timeout, so that a key loop that cannot end fails here
    oracle = dvsig_process(["oracle", "--scheme", "saeednia", "--params", str(params)])
    assert oracle.returncode == 2
    assert b"q >= 3" in oracle.stderr


def test_a_group_where_every_draw_is_degenerate_exits_two(tmp_path):
    """On (5, 2, 4) residue 2 hashes to r = 0 under both of Saeednia's draws."""
    params = tmp_path / "q2.params"
    params.write_text(wirefmt.armor(GroupParams(p=5, q=2, g=4)))
    keys = {name: str(tmp_path / name) for name in ("a.sec", "a.pub", "b.sec", "b.pub")}
    for who, seed in (("a", "1"), ("b", "2")):
        assert run(["keygen", "--params", str(params), "--seed", seed,
                    "--out-secret", keys[f"{who}.sec"], "--out-public", keys[f"{who}.pub"]]) == 0
    commands = {
        "sign": ["--key", keys["a.sec"], "--verifier-key", keys["b.pub"]],
        "simulate": ["--key", keys["b.sec"], "--signer-key", keys["a.pub"]],
    }
    for command, flags in commands.items():
        for residue, code in (("2", 2), ("1", 0)):
            # a subprocess with a timeout, so that a redraw loop that cannot end fails here
            done = dvsig_process([command, "--scheme", "saeednia", "--params", str(params),
                                  *flags, "--raw-residue", residue,
                                  "--out", str(tmp_path / "out.sig")])
            assert done.returncode == code, (command, residue, done.stderr)
            if code == 2:
                assert b"every one of the 2 draws" in done.stderr


def test_keygen_on_a_group_whose_g_is_not_of_order_q_writes_nothing(tmp_path, capsys):
    """(23, 11, 22) passes the load-time shape check, but g = -1 has order 2: every g**x is
    1 or 22, a key no command would accept, so keygen refuses it and writes no file."""
    params = tmp_path / "g22.params"
    params.write_text(wirefmt.armor(GroupParams(p=23, q=11, g=22)))
    out = {name: tmp_path / name for name in ("a.sec", "a.pub")}
    for seed in ("1", "2", "3"):
        assert run(["keygen", "--params", str(params), "--seed", seed,
                    "--out-secret", str(out["a.sec"]), "--out-public", str(out["a.pub"])]) == 3
        assert "public key" in capsys.readouterr().err
    assert not any(path.exists() for path in out.values())


def test_a_composite_subgroup_order_exits_three_not_two(tmp_path, capsys):
    """(23, 22, 5) passes the load-time shape check; a draw whose inverse mod q = 22 does not
    exist is malformed input, never a usage error."""
    params = tmp_path / "q22.params"
    params.write_text(wirefmt.armor(GroupParams(p=23, q=22, g=5)))
    keys = {name: str(tmp_path / name) for name in ("a.sec", "a.pub", "b.sec", "b.pub")}
    for who, seed in (("a", "1"), ("b", "2")):
        assert run(["keygen", "--params", str(params), "--seed", seed,
                    "--out-secret", keys[f"{who}.sec"], "--out-public", keys[f"{who}.pub"]]) == 0
    codes = [run(["sign", "--scheme", "leechang", "--params", str(params), "--key", keys["a.sec"],
                  "--verifier-key", keys["b.pub"], "--raw-residue", "7", *STUBBED,
                  "--seed", str(seed), "--out", str(tmp_path / "out.sig")]) for seed in range(12)]
    assert codes == [3, 3, 0, 0, 0, 0, 3, 3, 0, 3, 3, 3]
    assert capsys.readouterr().err.count("has no inverse mod 22") == 7


def test_usage_errors_exit_two(toyfiles, tmp_path, capsys):
    # unknown scheme is an argparse-level usage error
    assert run(["sign", "--scheme", "bogus", "--params", toyfiles["params"],
                "--key", toyfiles["signer.sec"], "--raw-residue", "7",
                "--out", str(tmp_path / "x")]) == 2
    # stub hash without the insecurity acknowledgement
    assert run(["sign", "--scheme", "pv", "--params", toyfiles["params"],
                "--key", toyfiles["signer.sec"], "--raw-residue", "7",
                "--hash", "stub", "--out", str(tmp_path / "x")]) == 2
    # missing message
    assert run(["sign", "--scheme", "pv", "--params", toyfiles["params"],
                "--key", toyfiles["signer.sec"], *STUBBED, "--out", str(tmp_path / "x")]) == 2
    # a residue flag outside [1, p); an oversized --message file is malformed input (exit 3)
    for residue in ("0", "23", "-1"):
        assert run(["sign", "--scheme", "pv", "--params", toyfiles["params"], "--key",
                    toyfiles["signer.sec"], "--raw-residue", residue, *STUBBED, "--out", "-"]) == 2
    assert run(["oracle", "--scheme", "leechang", "--params", toyfiles["params"],
                "--raw-residue", "0"]) == 2
    assert capsys.readouterr().err.splitlines()[-4:] == [
        "error: --raw-residue: message residue must lie in [1, 22]"] * 4
    # missing counterparty key
    assert run(["sign", "--scheme", "saeednia", "--params", toyfiles["params"],
                "--key", toyfiles["signer.sec"], "--raw-residue", "7", *STUBBED,
                "--out", str(tmp_path / "x")]) == 2
    # missing subcommand
    assert run([]) == 2
    # keygen writes no role, so it takes none
    assert run(["keygen", "--params", toyfiles["params"], "--seed", "1", "--role", "signer",
                "--out-secret", str(tmp_path / "k.sec"), "--out-public", str(tmp_path / "k.pub")]) == 2
    assert not (tmp_path / "k.sec").exists()
    # a group too large for the exhaustive oracle (GroupTooLarge)
    big_toy = tmp_path / "q8.params"
    assert run(["params", "gen", "--q-bits", "8", "--p-bits", "24", "--seed", "5",
                "--out", str(big_toy)]) == 0
    assert run(["oracle", "--scheme", "leechang", "--params", str(big_toy)]) == 2
    # a missing input file (OSError)
    assert run(["recover", "--scheme", "pv", "--params", toyfiles["params"],
                "--signer-key", toyfiles["signer.pub"], "--in", str(tmp_path / "absent"),
                *STUBBED]) == 2
    # message flags a valid signature's scheme cannot use
    ssig, pvsig = toyfiles["saeednia.sig"], toyfiles["pv.sig"]
    saeednia = ["verify", "--scheme", "saeednia", "--params", toyfiles["params"],
                "--key", toyfiles["verifier.sec"], "--signer-key", toyfiles["signer.pub"],
                "--raw-residue", "7", "--in", ssig, *STUBBED]
    assert run(saeednia) == 0
    # Saeednia recovers nothing, so there is nothing to compare an expectation with
    assert run([*saeednia, "--expect-residue", "8"]) == 2
    assert run([*saeednia, "--expect-message", ssig]) == 2
    pv = ["verify", "--scheme", "pv", "--params", toyfiles["params"],
          "--signer-key", toyfiles["signer.pub"], "--in", pvsig, *STUBBED]
    assert run(pv) == 0
    # PV carries its message, so a message given alongside would be ignored
    assert run([*pv, "--raw-residue", "8"]) == 2
    assert run([*pv, "--message", ssig]) == 2
    assert run([*pv, "--expect-residue", "0"]) == 2
    # both forms of the expectation, of which one would be ignored
    assert run([*pv, "--expect-message", ssig, "--expect-residue", "7"]) == 2
    # Saeednia recovers nothing, so there is nothing to print raw
    assert run([*saeednia, "--raw"]) == 2
    # PV opens with public values only, so a verifier key would be ignored
    assert run([*pv, "--key", toyfiles["verifier.sec"]]) == 2
    pv_recover = ["recover", *pv[1:]]
    assert run(pv_recover) == 0
    assert run([*pv_recover, "--key", toyfiles["verifier.sec"]]) == 2
    # PV is not designated, so signing ignores a verifier key
    pv_sign = ["sign", "--scheme", "pv", "--params", toyfiles["params"],
               "--key", toyfiles["signer.sec"], "--raw-residue", "7", *STUBBED]
    assert run([*pv_sign, "--out", str(tmp_path / "a.pvsig")]) == 0
    assert run([*pv_sign, "--verifier-key", toyfiles["verifier.pub"],
                "--out", str(tmp_path / "b.pvsig")]) == 2
    assert not (tmp_path / "b.pvsig").exists()
    # a preset is written as it is, so generation flags would be dropped
    preset = ["params", "gen", "--preset", "toy23"]
    assert run([*preset, "--out", str(tmp_path / "preset.params")]) == 0
    for flag in (["--seed", "1"], ["--q-bits", "8"], ["--p-bits", "24"]):
        assert run([*preset, *flag, "--out", str(tmp_path / "flagged.params")]) == 2
        assert not (tmp_path / "flagged.params").exists()


# Every option of every subcommand; a flag that no handler reads does not belong here.
OPTIONS = {
    "params gen": {"--q-bits", "--p-bits", "--preset", "--out", "--seed"},
    "params check": {"--in"},
    "keygen": {"--params", "--out-secret", "--out-public", "--seed"},
    "sign": {"--scheme", "--params", "--key", "--verifier-key", "--message", "--raw-residue",
             "--out", "--seed", "--hash", "--allow-insecure"},
    "verify": {"--scheme", "--params", "--key", "--signer-key", "--message", "--raw-residue",
               "--in", "--expect-message", "--expect-residue", "--raw", "--hash",
               "--allow-insecure"},
    "recover": {"--scheme", "--params", "--key", "--signer-key", "--in", "--raw", "--hash",
                "--allow-insecure"},
    "designate": {"--params", "--signer-key", "--verifier-key", "--in", "--out", "--seed",
                  "--hash", "--allow-insecure"},
    "dverify": {"--params", "--key", "--signer-key", "--in", "--raw", "--hash",
                "--allow-insecure"},
    "simulate": {"--scheme", "--params", "--key", "--signer-key", "--message", "--raw-residue",
                 "--out", "--seed", "--hash", "--allow-insecure"},
    "oracle": {"--scheme", "--params", "--raw-residue", "--seed"},
}


def _options(parser, command=()):
    """{command: its option strings, without --help} for every leaf subcommand under parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {name: opts for sub_name, sub in action.choices.items()
                    for name, opts in _options(sub, (*command, sub_name)).items()}
    return {" ".join(command): {option for action in parser._actions if action.dest != "help"
                                for option in action.option_strings}}


def test_each_subcommand_has_exactly_its_options():
    assert _options(build_parser()) == OPTIONS


def test_scheme_choices_in_help_order():
    """The --scheme choices that oracle.SCHEMES yields, as every --help page lists them."""
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    choices = {name: list(next(action for action in sub._actions if action.dest == "scheme").choices)
               for name, sub in subcommands.items()
               if any(action.dest == "scheme" for action in sub._actions)}
    assert choices == {
        "sign": ["saeednia", "leechang", "pv"],
        "verify": ["saeednia", "pv"],
        "recover": ["leechang", "pv"],
        "simulate": ["saeednia", "leechang", "udvs"],
        "oracle": ["saeednia", "leechang", "udvs"],
    }


def test_malformed_inputs_exit_three(toyfiles, tmp_path):
    junk = tmp_path / "junk"
    junk.write_bytes(b"not a blob at all")
    assert run(["verify", "--scheme", "pv", "--params", toyfiles["params"],
                "--signer-key", toyfiles["signer.pub"], "--in", str(junk)]) == 3
    # wrong kind: params where a signature is expected
    assert run(["verify", "--scheme", "pv", "--params", toyfiles["params"],
                "--signer-key", toyfiles["signer.pub"], "--in", toyfiles["params"]]) == 3
    # params armored under the public key label
    relabelled = tmp_path / "relabelled.params"
    relabelled.write_text(Path(toyfiles["params"]).read_text().replace("PARAMS", "PUBLIC KEY"))
    assert run(["params", "check", "--in", str(relabelled)]) == 3
    # oversized message payload for the group
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"far too long for a toy group")
    assert run(["sign", "--scheme", "pv", "--params", toyfiles["params"],
                "--key", toyfiles["signer.sec"], "--message", str(msg), *STUBBED,
                "--out", str(tmp_path / "x")]) == 3


BROKEN_SHAPES = {"zero": GroupParams(p=0, q=0, g=0), "q-not-dividing": GroupParams(p=24, q=11, g=4),
                 "identity-generator": GroupParams(p=23, q=11, g=1)}


@pytest.mark.parametrize("shape", sorted(BROKEN_SHAPES))
def test_every_command_that_loads_params_refuses_a_broken_shape(toyfiles, tmp_path, capsys, shape):
    """q >= 2, q | p - 1 and 1 < g < p need no exponentiation, so every --params reader checks them."""
    params = tmp_path / "broken.params"
    params.write_text(wirefmt.armor(BROKEN_SHAPES[shape]))
    pv_sig, out = toyfiles["pv.sig"], tmp_path / "out"
    signer, verifier = ["--signer-key", toyfiles["signer.pub"]], ["--key", toyfiles["verifier.sec"]]
    commands = [
        ["keygen", "--seed", "1", "--out-secret", str(out), "--out-public", str(out)],
        ["sign", "--scheme", "pv", "--key", toyfiles["signer.sec"], "--raw-residue", "7", "--seed", "1",
         *STUBBED, "--out", str(out)],
        ["verify", "--scheme", "pv", *signer, "--in", pv_sig, *STUBBED],
        ["recover", "--scheme", "pv", *signer, "--in", pv_sig, *STUBBED],
        ["designate", *signer, "--verifier-key", toyfiles["verifier.pub"], "--in", pv_sig,
         "--seed", "1", *STUBBED, "--out", str(out)],
        ["dverify", *verifier, *signer, "--in", pv_sig, *STUBBED],
        ["simulate", "--scheme", "udvs", *verifier, *signer, "--raw-residue", "7", "--seed", "1",
         *STUBBED, "--out", str(out)],
        ["oracle", "--scheme", "udvs"],
    ]
    for argv in commands:
        assert run([*argv, "--params", str(params)]) == 3, argv
        assert "error: --params: " in capsys.readouterr().err
        assert not out.exists()
    # params check still reports the group instead of refusing it
    assert run(["params", "check", "--in", str(params)]) == 1


# Every command that reads a public key, with the files it reads named by their toyfiles keys.
KEY_READERS = [
    ["sign", "--scheme", "saeednia", "--key", "signer.sec", "--verifier-key", "verifier.pub",
     "--raw-residue", "7", "--seed", "1", "--out", "out"],
    ["sign", "--scheme", "leechang", "--key", "signer.sec", "--verifier-key", "verifier.pub",
     "--raw-residue", "7", "--seed", "1", "--out", "out"],
    ["verify", "--scheme", "saeednia", "--key", "verifier.sec", "--signer-key", "signer.pub",
     "--raw-residue", "7", "--in", "saeednia.sig"],
    ["verify", "--scheme", "pv", "--signer-key", "signer.pub", "--in", "pv.sig"],
    ["recover", "--scheme", "leechang", "--key", "verifier.sec", "--signer-key", "signer.pub",
     "--in", "leechang.sig"],
    ["recover", "--scheme", "pv", "--signer-key", "signer.pub", "--in", "pv.sig"],
    ["dverify", "--key", "verifier.sec", "--signer-key", "signer.pub", "--in", "udvs.sig"],
    ["designate", "--signer-key", "signer.pub", "--verifier-key", "verifier.pub", "--in", "pv.sig",
     "--seed", "1", "--out", "out"],
    *(["simulate", "--scheme", scheme, "--key", "verifier.sec", "--signer-key", "signer.pub",
       "--raw-residue", "7", "--seed", "1", "--out", "out"]
      for scheme in ("saeednia", "leechang", "udvs")),
]


@pytest.mark.parametrize("bad", ["p-y", 0, 1, TOY23.p])
def test_every_public_key_reader_refuses_a_key_outside_the_subgroup(toyfiles, tmp_path, capsys, bad):
    """Each --signer-key and --verifier-key is checked where it is read: a key of order 2q
    (p - y), or one outside (1, p), exits 3 with nothing on stdout, from every command whose
    run with the good keys exits 0."""
    out = tmp_path / "out"
    signed = {**toyfiles, "out": str(out)}
    for argv in KEY_READERS:
        files = [signed.get(arg, arg) for arg in argv]
        assert run([*files, "--params", signed["params"], *STUBBED]) == 0, argv
        out.unlink(missing_ok=True)
        capsys.readouterr()
        for flag in ("--signer-key", "--verifier-key"):
            if flag not in argv:
                continue
            good = files[argv.index(flag) + 1]
            y = wirefmt.loads_expected(Path(good).read_bytes(), PublicKey).y
            bad_key = tmp_path / "bad.pub"
            bad_key.write_text(wirefmt.armor(PublicKey(TOY23.p - y if bad == "p-y" else bad)))
            files[argv.index(flag) + 1] = str(bad_key)
            assert run([*files, "--params", signed["params"], *STUBBED]) == 3, (argv, flag)
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith(f"error: {flag}: "), (argv, flag)
            assert not out.exists()
            files[argv.index(flag) + 1] = good


def test_two_dash_files_in_one_direction_are_usage_errors(toyfiles):
    """stdin and stdout are one stream each, so at most one file argument can name each."""
    params = Path(toyfiles["params"]).read_bytes()
    two_outputs = ["keygen", "--params", toyfiles["params"], "--seed", "1",
                   "--out-secret", "-", "--out-public", "-"]
    two_inputs = [
        ["verify", "--scheme", "pv", "--params", toyfiles["params"], "--signer-key", "-",
         "--in", toyfiles["params"], "--expect-message", "-", *STUBBED],
        ["verify", "--scheme", "pv", "--params", "-", "--signer-key", "-",
         "--in", toyfiles["params"], *STUBBED],
    ]
    for argv in [two_outputs, *two_inputs]:
        done = dvsig_process(argv, input=params)
        assert done.returncode == 2, (argv, done.stderr)
        assert done.stdout == b""
        assert b"only one file argument can be '-'" in done.stderr


HELP_PAGES = [[], ["params"], ["params", "gen"], ["params", "check"],
              *([name] for name in ("keygen", "sign", "verify", "recover", "designate", "dverify",
                                    "simulate", "oracle"))]
# One SHA-256 over the pages in HELP_PAGES order, as Python 3.10, 3.11 and 3.12 render them
# 80 columns wide.
HELP_SHA256 = "ccca7e159102f4402d708350698686a6ee5c9c476fa6e56db81c110f6655f1b8"


def test_every_help_page_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for page in HELP_PAGES:
        assert run([*page, "--help"]) == 0, page
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == HELP_SHA256


def test_raw_blob_piping_between_processes(toyfiles):
    sign = dvsig_process(["sign", "--scheme", "pv",
                          "--params", toyfiles["params"], "--key", toyfiles["signer.sec"],
                          "--raw-residue", "7", "--seed", "3", *STUBBED, "--out", "-"])
    assert sign.returncode == 0
    blob = sign.stdout
    assert blob[:2] == bytes([0x01, 0x03])  # raw PV signature blob on stdout
    verify = dvsig_process(["verify", "--scheme", "pv",
                            "--params", toyfiles["params"], "--signer-key", toyfiles["signer.pub"],
                            "--in", "-", *STUBBED], input=blob)
    assert verify.returncode == 0
    assert b"ACCEPT" in verify.stdout
