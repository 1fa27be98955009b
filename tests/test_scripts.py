"""The scripts under scripts/, run with their defaults, pinned by SHA-256 of stdout.

The digests were recorded from an earlier commit.  scripts/modmath_layer.py
prints timings, so only its exactness guards and group headers are checked,
in-process with one timing round and one interleaved rep.
"""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "toy_walkthrough.py": "135637ddb7f96da815b8246142c814ae2ff844707dc0e00a8c6ba02256f73c46",
    "distribution_audit.py": "c400cb2115313e5218ee03f37ff76d16d662b40075244947ec310e2bb3fb3870",
}


@pytest.mark.parametrize("script", GOLDEN)
def test_script_output_is_unchanged(script):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, env=src_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN[script]


def test_modmath_layer_tables_match_pow(capsys):
    """The script exits non-zero when a table or per-call comb power differs from the builtin
    pow.  POWERS and PER_CALL_ROUNDS keep their values, so both guards see the same exponents;
    only the timing repetitions drop to one."""
    spec = importlib.util.spec_from_file_location("modmath_layer", ROOT / "scripts" / "modmath_layer.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.REPEAT = script.PER_CALL_REPS = 1
    script.main()  # sys.exit, and so SystemExit, on a mismatch
    headers = [line for line in capsys.readouterr().out.splitlines() if line.startswith("group:")]
    sizes = ((256, 2048), (64, 512), (64, 384), (64, 256), (48, 160), (16, 64))
    assert headers == [f"group: {p_bits}/{q_bits} bits, seed 0x5eed2026" for q_bits, p_bits in sizes]
