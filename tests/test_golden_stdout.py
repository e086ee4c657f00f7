"""The CLI's stdout, and any CSV it writes, pinned byte for byte.

``golden_stdout.json`` maps each argv in ARGVS to the exit code and the
sha256 of the op's stdout (and of its CSV, for ``--format csv``).  Every op
runs in a fresh directory with ``--out out.csv``, so the path in the report
is the same on every machine.  No argv uses ``--eps random``, whose output
follows numpy's random stream.

A refactor that must keep the output byte-identical regenerates nothing.
When the output changes on purpose, regenerate the file from the repository
root with

    PYTHONPATH=src python tests/test_golden_stdout.py

and say in the change which hashes moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from cyclicbent.cli import main

GOLDEN = Path(__file__).with_name("golden_stdout.json")

# The small tier of the three benchmark workloads, without --eps random and
# without "charquad --m 3 --L x^2", which CHARQUAD_ARGVS holds.
WORKLOAD_ARGVS = [
    "construct --m 4 --mode reduced",
    "construct --m 4 --chain 1,3 --enumerate-gamma --mode reduced",
    "verify --m 4 --mode full",
    "verify --m 4 --mode full --threads 2",
    "verify --n 3 --mode reduced",
    "verify --n 3 --mode full",
    "charquad --m 3 --L x^1 --walsh-check",
    "verify --n 3 --gold 3 --mode reduced",
    "codebook --m 4",
    "codebook --m 4 --threads 2",
    "codebook --m 4 --kind complex",
    "codebook --n 3 --kind semibent",
    "mub --m 4 --walsh-check",
    "seqfam --kind quaternary --m 4 --table-check",
    "seqfam --kind semibent --n 3 --table-check",
    "seqfam --kind binary --m 4 --table-check",
    "code --m 4",
    "code --n 3",
    "design --m 4 --k 6 --t 3",
    "design --m 4 --k 8 --t 3",
    "design --m 4 --k 10 --t 3",
    "design --n 3 --k 4 --t 3",
]

CHARQUAD_ARGVS = [
    f"charquad --m {m} --L {L}{check}"
    for m in (3, 5, 7, 9, 11)
    for L in ("x^2", "x^4", "x^8", "3*x^2+x^4", "x+x^2")
    for check in ("", " --walsh-check")
]

CSV_ARGVS = [
    f"{cmd} --format csv --out out.csv"
    for cmd in ("codebook --m 4", "codebook --n 3 --kind semibent", "mub --m 4",
                "seqfam --kind quaternary --m 4", "seqfam --kind binary --m 4",
                "seqfam --kind semibent --n 3")
]

ARGVS = WORKLOAD_ARGVS + CHARQUAD_ARGVS + CSV_ARGVS + [
    "verify --n 5 --restrict-bent",
    "code --n 5 --restrict-bent",
    "design --n 5 --restrict-bent --k 12 --t 3",
    "selftest",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv: str) -> dict:
    """Exit code and hashes of one CLI call, run in a fresh directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out):
                rc = main(argv.split())
            csv = Path("out.csv")
            row = {"rc": rc, "stdout": _sha(out.getvalue().encode())}
            if csv.exists():
                row["csv"] = _sha(csv.read_bytes())
        finally:
            os.chdir(cwd)
    return row


def test_golden_covers_exactly_the_argvs():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(ARGVS)


@pytest.mark.parametrize("argv", ARGVS)
def test_stdout_matches_golden(argv):
    assert digest(argv) == json.loads(GOLDEN.read_text())[argv]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({a: digest(a) for a in ARGVS}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ARGVS)} entries to {GOLDEN}", file=sys.stderr)
