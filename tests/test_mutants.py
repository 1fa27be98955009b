"""The mutant ledger applies: each row's old text occurs exactly once in its file.

Whether each mutant dies is scripts/mutants.py's run, not Tier-1's.
"""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("row", MUTANTS, ids=lambda row: row.name)
def test_each_old_text_occurs_once(row):
    assert (ROOT / row.path).read_text().count(row.old) == 1
