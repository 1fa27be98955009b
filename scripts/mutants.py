"""Run the mutant ledger of tests/mutants.py: every row's mutant must fail its test nodes.

For each row, this copies src/, tests/ and pyproject.toml into a temporary directory, applies
the row's replacement there, and runs the row's nodes with `pytest -x -q` in a child process
whose PYTHONPATH starts with the copy's src.  The tests are copied too because pytest puts the
src beside pyproject.toml first on sys.path, and conftest.src_env hands that src to the
processes that tests start.  It prints one line per row, killed, survived or error, with the seconds
taken, and exits 1 unless every row was killed.  Standard library only.

    python scripts/mutants.py           # every row
    python scripts/mutants.py NAME ...  # the rows so named
"""

import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


def run_row(row) -> tuple[str, str]:
    """(verdict, output) of one ledger row: 'killed', 'survived' or 'error', and why."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tmp / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, tmp / name)
        path = tmp / row.path
        text = path.read_text()
        if text.count(row.old) != 1:
            return "error", f"the old text occurs {text.count(row.old)} times in {row.path}\n"
        path.write_text(text.replace(row.old, row.new))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(tmp / "src"), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *row.nodes],
                              cwd=tmp, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed or errored; any code but 0 or 1 means the nodes did not run.
    return {0: "survived", 1: "killed"}.get(done.returncode, "error"), done.stdout + done.stderr


def main(names) -> int:
    rows = runpy.run_path(str(ROOT / "tests" / "mutants.py"))["MUTANTS"]
    unknown = set(names) - {row.name for row in rows}
    if unknown:
        print(f"no such row: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for row in rows:
        if names and row.name not in names:
            continue
        start = time.perf_counter()
        verdict, output = run_row(row)
        print(f"{verdict:<9} {time.perf_counter() - start:5.1f} s  {row.name}", flush=True)
        if verdict == "error":
            print(output, file=sys.stderr)
        failed += verdict != "killed"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
