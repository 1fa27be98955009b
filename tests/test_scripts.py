"""The scripts under scripts/, run with their defaults, pinned by SHA-256 of stdout.

The digests were recorded from an earlier commit.  scripts/modmath_layer.py
prints timings, so only its exit status and group headers are checked.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "toy_walkthrough.py": "135637ddb7f96da815b8246142c814ae2ff844707dc0e00a8c6ba02256f73c46",
    "distribution_audit.py": "c400cb2115313e5218ee03f37ff76d16d662b40075244947ec310e2bb3fb3870",
}


@pytest.mark.parametrize("script", GOLDEN)
def test_script_output_is_unchanged(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN[script]


def test_modmath_layer_tables_match_pow():
    """The script exits non-zero when a fixed-base table power differs from the builtin pow."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "modmath_layer.py")],
                          capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    headers = [line for line in done.stdout.decode().splitlines() if line.startswith("group:")]
    sizes = ((256, 2048), (64, 512), (64, 384), (64, 256), (48, 160), (16, 64))
    assert headers == [f"group: {p_bits}/{q_bits} bits, seed 0x5eed2026" for q_bits, p_bits in sizes]
