"""Self-test of scripts/raise_audit.py on one raise: `_axis`'s range check."""

import hashlib
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SELECTION = "tests/test_cli.py::test_axis_value_out_of_range_exits_two_before_sampling"


def _source_digests() -> dict[str, str]:
    return {
        str(path.relative_to(REPO)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((REPO / "src").rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }


def test_axis_range_mutant_is_killed_in_a_copy():
    """Deleting the range check fails the test written for it, and the checkout is left as it was."""
    lines = (REPO / "src/jlproj/experiments.py").read_text().splitlines()
    [line] = [i + 1 for i, text in enumerate(lines) if 'raise ValueError(f"sweep value' in text]
    site = f"src/jlproj/experiments.py:{line}"
    before = _source_digests()
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts/raise_audit.py"), "--only", site, "--", SELECTION],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"KILLED    {site}\n" in proc.stdout
    assert "1 mutants, 1 killed, 0 survived\n" in proc.stdout
    assert _source_digests() == before
