"""The refactor check in tier-1: ``sh scripts/refactor_check.sh`` must print the
committed digests of ``scripts/refactor_check.expected`` (see "Refactor check"
in README.md)."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_WITH = "Python 3.11, numpy 2.4"  # the versions that made the expected digests


def _skip_reason():
    missing = [tool for tool in ("sh", "sha256sum", "python3") if shutil.which(tool) is None]
    if missing:
        return f"{', '.join(missing)} not found"
    # the versions of the python3 the script runs, not of this interpreter
    probe = ("import sys, numpy; print('Python %d.%d, numpy %s.%s' "
             "% (*sys.version_info[:2], *numpy.__version__.split('.')[:2]))")
    found = subprocess.run(["python3", "-c", probe], capture_output=True, text=True).stdout.strip()
    if found != EXPECTED_WITH:
        return (f"the expected digests were made with {EXPECTED_WITH}; "
                f"python3 here has {found or 'no numpy'}")
    return None


def test_refactor_check():
    reason = _skip_reason()
    if reason:
        pytest.skip(reason)
    proc = subprocess.run(["sh", "scripts/refactor_check.sh"], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, f"refactor check failed:\n{proc.stderr}"
