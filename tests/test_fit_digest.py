"""The bit-for-bit gate: scripts/fit_digest.py hashes every dataset, draw,
move, score, solver value and tree answer of the benchmark's inputs and
compares the hashes with scripts/fit_digest.expected."""

import subprocess
import sys
from pathlib import Path

FIT_DIGEST = Path(__file__).parents[1] / "scripts" / "fit_digest.py"


def test_fit_digest_matches_expected():
    proc = subprocess.run(
        [sys.executable, str(FIT_DIGEST)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    expected = FIT_DIGEST.with_name("fit_digest.expected").read_text(encoding="utf-8")
    assert proc.stdout == expected
