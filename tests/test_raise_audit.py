"""Self-test of scripts/raise_audit.py on one raise, `_axis`'s range
check, and of the plugin that runs a mutant's own module tests first."""

import hashlib
import os
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


def _collected(*args: str) -> list[str]:
    """Test ids pytest collects for ``args`` with the audit loaded as its plugin."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "-p", "raise_audit", *args],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "scripts")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [line for line in proc.stdout.splitlines() if "::" in line]


def test_own_module_tests_first_only_reorders_the_selection():
    """A narrow selection is not widened to the module's tests, and a wider
    one has them moved to the front, every other test in its own order."""
    narrow = "tests/test_raise_audit.py::test_axis_range_mutant_is_killed_in_a_copy"
    assert _collected("--audit-first", "test_experiments.py", narrow) == [narrow]
    files = ["tests/test_public_api.py", "tests/test_raise_audit.py"]
    plain = _collected(*files)
    own = [test for test in plain if test.startswith("tests/test_raise_audit.py::")]
    assert own and plain[0].startswith("tests/test_public_api.py::")
    assert _collected("--audit-first", "test_raise_audit.py", *files) == own + [t for t in plain if t not in own]
