"""Workload cli-pipeline: real `python -m dvsig` processes, one at a time.

Set-up writes armored params and key files for a 2048/256-bit group,
and params for a toy group with q = 23. Each message then goes through
twelve processes:

  PV:        sign, verify --expect-message, designate, dverify
  Saeednia:  sign, verify
  Lee-Chang: sign, recover
  UDVS:      simulate, dverify of the simulated signature
  tamper:    dverify of the designated signature with one bit flipped
  oracle:    the exhaustive oracle on the toy group, for saeednia,
             leechang and udvs in turn

Every process is checked: exit code 0 and the exact ACCEPT/payload-hex
output for accepts, exit code 1 and REJECT for the tampered one, a
parseable signature file for the signer side, and for the oracle the
verdict INDISTINGUISHABLE with exact totals (q(q-1) for leechang,
q^2(q-1) for udvs, real = simulated for saeednia). The oracle processes
are operations but neither signer- nor verifier-side latency samples.

The traced run replays the same argument lists in-process through
dvsig.cli.run, once untraced and once traced, and requires the output
files to be byte-identical to the ones the processes wrote.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import dvsig.cli
from dvsig import msghash, pv_scheme, sdvs_mr, sdvs_saeednia, udvs, wirefmt
from dvsig.errors import DVSError

from common import SIGNER, VERIFIER, Group, Tally, child_env, flip_one_bit, make_group

NAME = "cli-pipeline"
# At least this many messages per window, so that the tail percentile
# (5 signer-side and 6 verifier-side processes per message) is always the same one.
MIN_ITERATIONS = 8
SAMPLES_PER_ITERATION = 5
PROCESS_TIMEOUT_S = 120
ORACLE_SCHEMES = ("saeednia", "leechang", "udvs")

SIGNATURE_TYPES = {
    "m.pvsig": pv_scheme.PVSignature,
    "m.dvsig": udvs.DVSignature,
    "m.ssig": sdvs_saeednia.SaeedniaSignature,
    "m.rsig": sdvs_mr.RecoverySignature,
    "m.simsig": udvs.DVSignature,
}


class Context:
    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.group: Group | None = None
        self.mode = msghash.HashMode.PRODUCTION
        self.work = root / ".bench_work" / f"{NAME}-{seed}-{os.getpid()}"
        self.files: dict[str, str] = {}
        self.toy = None
        self.written: dict[int, dict[str, bytes]] = {}  # message -> signature file bytes
        self.env = child_env(root)

    def setup_once(self, repeat: int) -> Group:
        group = make_group(self.seed, repeat, toy=False)
        toy = make_group(self.seed, repeat, toy=True).params
        keydir = self.work / f"setup-{repeat}"
        keydir.mkdir(parents=True, exist_ok=True)
        files = {
            "params": (keydir / "group.params", group.params),
            "toy_params": (keydir / "toy.params", toy),
            "signer_sec": (keydir / "signer.sec", group.signer.secret()),
            "signer_pub": (keydir / "signer.pub", group.signer.public()),
            "verifier_sec": (keydir / "verifier.sec", group.verifier.secret()),
            "verifier_pub": (keydir / "verifier.pub", group.verifier.public()),
        }
        for path, value in files.values():
            path.write_text(wirefmt.armor(value))
        if repeat == 0:
            self.files = {name: str(path) for name, (path, _) in files.items()}
            self.toy = toy
        return group

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # ------------------------------------------------------------ runners

    def subprocess_runner(self, argv: list[str]):
        t0 = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "dvsig", *argv], capture_output=True,
                                  text=True, env=self.env, timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, "", perf_counter() - t0
        return proc.returncode, proc.stdout, perf_counter() - t0

    @staticmethod
    def inprocess_runner(argv: list[str]):
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            code = dvsig.cli.run(argv)
        return code, out.getvalue(), perf_counter() - t0

    # --------------------------------------------------------- iterations

    def iteration(self, i: int, tally: Tally) -> None:
        self.run_message(i, tally, self.subprocess_runner)

    def replay(self, i: int, tally: Tally) -> None:
        self.run_message(i, tally, self.inprocess_runner)

    def finish(self, tally: Tally) -> None:
        pass

    def run_message(self, i: int, tally: Tally, runner) -> None:
        rng = random.Random(f"dvsig-bench/{self.seed}/message/{i}")
        payload = rng.randbytes(rng.randrange(msghash.payload_capacity(self.group.params) + 1))
        f, d = self.files, self.work
        msg = str(d / "m.bin")
        Path(msg).write_bytes(payload)
        accept = f"ACCEPT\npayload-hex: {payload.hex()}\n"
        group = ["--params", f["params"]]
        signer = ["--signer-key", f["signer_pub"]]
        verifier_sec = ["--key", f["verifier_sec"]]
        written = self.written.setdefault(i, {})

        def step(side, argv, check, want_code=0, out=None):
            code, stdout, seconds = runner(argv)
            ok = code == want_code and check(stdout)
            if ok and out is not None:
                ok = self._check_output(d / out, SIGNATURE_TYPES[out], written, out)
            what = f"message {i} {' '.join(argv[:3])}: exit {code}, stdout {stdout[:80]!r}"
            tally.record(side, seconds, ok, what, kind=argv[0])

        def sign(argv, out):
            seed = str(rng.randrange(2**31))
            step(SIGNER, [*argv, "--seed", seed, "--out", str(d / out)], lambda stdout: True, out=out)

        def dverify(name, want=accept, want_code=0):
            step(VERIFIER, ["dverify", *group, *verifier_sec, *signer, "--in", str(d / name)],
                 want.__eq__, want_code)

        sign(["sign", "--scheme", "pv", *group, "--key", f["signer_sec"], "--message", msg],
             "m.pvsig")
        step(VERIFIER, ["verify", "--scheme", "pv", *group, *signer, "--in", str(d / "m.pvsig"),
                        "--expect-message", msg], accept.__eq__)
        sign(["designate", *group, *signer, "--verifier-key", f["verifier_pub"],
              "--in", str(d / "m.pvsig")], "m.dvsig")
        dverify("m.dvsig")
        sign(["sign", "--scheme", "saeednia", *group, "--key", f["signer_sec"],
              "--verifier-key", f["verifier_pub"], "--message", msg], "m.ssig")
        step(VERIFIER, ["verify", "--scheme", "saeednia", *group, *verifier_sec, *signer,
                        "--message", msg, "--in", str(d / "m.ssig")], "ACCEPT\n".__eq__)
        sign(["sign", "--scheme", "leechang", *group, "--key", f["signer_sec"],
              "--verifier-key", f["verifier_pub"], "--message", msg], "m.rsig")
        step(VERIFIER, ["recover", "--scheme", "leechang", *group, *verifier_sec, *signer,
                        "--in", str(d / "m.rsig")], accept.__eq__)
        sign(["simulate", "--scheme", "udvs", *group, *verifier_sec, *signer, "--message", msg],
             "m.simsig")
        dverify("m.simsig")
        self._write_tampered(rng)
        dverify("m.bad.dvsig", "REJECT\n", 1)

        scheme = ORACLE_SCHEMES[i % len(ORACLE_SCHEMES)]
        residue = str(rng.randrange(1, self.toy.p))
        step(None, ["oracle", "--scheme", scheme, "--params", f["toy_params"],
                    "--raw-residue", residue, "--seed", str(rng.randrange(2**31))],
             lambda out: self._oracle_ok(scheme, out, tally))

    def _oracle_ok(self, scheme: str, stdout: str, tally: Tally) -> bool:
        """Verdict INDISTINGUISHABLE and exact totals."""
        fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        try:
            real, simulated = int(fields["real-total"]), int(fields["simulated-total"])
        except (KeyError, ValueError):
            return False
        q = self.toy.q
        expected = {"leechang": q * (q - 1), "udvs": q * q * (q - 1)}.get(scheme, real)
        tally.counts["oracle.tuples"] += real + simulated
        return (fields.get("verdict") == "INDISTINGUISHABLE" and real == simulated == expected
                and real > 0)

    def _check_output(self, path: Path, cls, written: dict, name: str) -> bool:
        """The file parses as cls and repeats the bytes of any earlier run."""
        try:
            data = path.read_bytes()
            wirefmt.loads_expected(data, cls)
        except (OSError, DVSError):
            return False
        return written.setdefault(name, data) == data

    def _write_tampered(self, rng: random.Random) -> None:
        path = self.work / "m.dvsig"
        try:
            sig = wirefmt.loads_expected(path.read_bytes(), udvs.DVSignature)
        except (OSError, DVSError):
            sig = udvs.DVSignature(t=0, w=0, r=0, s=0, e=0)
        (self.work / "m.bad.dvsig").write_text(wirefmt.armor(flip_one_bit(sig, rng)))
