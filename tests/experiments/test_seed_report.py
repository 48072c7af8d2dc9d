"""The 19-experiment seed report, pinned byte for byte.

``python -m repro.experiments`` at its default seeds is what a reader of
the reproduction runs, so any change to a protocol, to the kernel's
execution order or to the report format shows up here.  A deliberate
change must update both :data:`SEED_REPORT_SHA256` and the checked-in copy
``seed_report.txt``, regenerated with::

    PYTHONPATH=src python -m repro.experiments > tests/experiments/seed_report.txt
"""

import difflib
import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.experiments import run_all

SEED_REPORT_SHA256 = "2b32e2077be2c778f71c04f263701d11adac2376e1dabc3ac7ec7a1c799bca9d"
GOLDEN = Path(__file__).with_name("seed_report.txt")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_checked_in_report_matches_the_pinned_hash():
    assert _sha256(GOLDEN.read_text(encoding="utf-8")) == SEED_REPORT_SHA256


def test_seed_report_is_byte_identical():
    out = io.StringIO()
    with redirect_stdout(out):
        status = run_all.main([])
    report = out.getvalue()
    assert status == 0
    if _sha256(report) != SEED_REPORT_SHA256:
        diff = difflib.unified_diff(
            GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True),
            report.splitlines(keepends=True),
            fromfile="seed_report.txt (checked in)",
            tofile="run_all.main([])",
        )
        pytest.fail("seed report changed:\n" + "".join(diff))
