"""Smoke test of ``scripts/interleave.py`` on the corpus listings."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "interleave.py"


def test_same_tree_on_both_sides():
    src = str(ROOT / "src")
    argv = [sys.executable, str(SCRIPT), src, src, "--workload", "corpus-cli", "--rounds", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    head, *sides = proc.stdout.splitlines()
    assert head == (
        "corpus-cli seed 0: 2 rounds of 9 calls per side; time only, both sides share one heap"
    )
    wins = 0
    for side, line in zip(("parent", "change"), sides, strict=True):
        m = re.fullmatch(rf"{side}: median [\d.]+ ms per pass, faster in (\d) of 2", line)
        assert m, line
        wins += int(m.group(1))
    assert wins <= 2
