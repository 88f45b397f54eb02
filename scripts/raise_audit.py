"""Raise audit: does some test fail when a ``raise`` in src/jlproj is deleted?

For each ``raise`` statement in ``src/jlproj``, one at a time, the audit
changes that statement to ``pass`` in a temporary copy of the repository
(the checkout itself is never written), runs the given pytest selection
there with ``-x``, and prints one line per mutant:

    KILLED    src/jlproj/core.py:123
    SURVIVED  src/jlproj/core.py:130

A mutant is killed when the selection fails.  Each mutant's pytest runs
with a wall-clock timeout of 10 minutes and a 2 GiB address-space limit,
set in that child process only, so a mutant that deletes an entry-budget check fails to
allocate instead of taking gigabytes.  A mutant that hits either limit
counts as killed and is listed again at the end.  The unmutated copy runs
the selection first and must pass.  Mutants run one after another.

Usage (stdlib only; the arguments after ``--`` are the pytest selection,
``tests`` when none are given):

    python scripts/raise_audit.py -- tests -k "not criterion_07"
    python scripts/raise_audit.py --only src/jlproj/core.py:123 -- tests/test_core.py

Exit status: 0 when no mutant survives, 1 otherwise, 2 when the
unmutated selection does not pass.
"""

from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path("src/jlproj")
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench", "*.egg-info")
_MEMORY_ERRORS = ("MemoryError", "Unable to allocate")
# Per pytest run.  The unmutated tier-1 selection runs in about a minute
# and passes under this address-space limit; the 8 GiB that the entry
# budget refuses cannot be allocated under it.
_TIMEOUT_S = 600
_MAX_BYTES = 2 << 30


def raise_sites(source: str) -> list[tuple[int, str]]:
    """``(line, mutant source)`` for each ``raise`` in ``source``: the
    statement's exact span is replaced by ``pass``, all else unchanged."""
    lines = source.splitlines(keepends=True)
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line.encode()))
    data = source.encode()
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            # ast offsets are in UTF-8 bytes from the start of each line.
            start = offsets[node.lineno - 1] + node.col_offset
            end = offsets[node.end_lineno - 1] + node.end_col_offset
            sites.append((node.lineno, (data[:start] + b"pass" + data[end:]).decode()))
    return sorted(sites)


def run_selection(copy: Path, selection: list[str]) -> tuple[str, str]:
    """Run pytest -x on ``selection`` in ``copy``: (outcome, output), the
    outcome one of "passed", "failed", "timeout" or "memory"."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)  # the copy's pytest config puts its own src first
    proc = subprocess.Popen(
        cmd,
        cwd=copy,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
        preexec_fn=partial(resource.setrlimit, resource.RLIMIT_AS, (_MAX_BYTES, _MAX_BYTES)),
    )
    try:
        output, _ = proc.communicate(timeout=_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # pytest's own subprocesses too
        proc.communicate()
        return "timeout", ""
    if proc.returncode == 0:
        return "passed", output
    if proc.returncode < 0 or any(marker in output for marker in _MEMORY_ERRORS):
        return "memory", output
    return "failed", output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", default=[], metavar="FILE:LINE", help="audit only these raises")
    parser.add_argument("selection", nargs="*", help="pytest arguments, after --")
    args = parser.parse_args(argv)
    selection = args.selection or ["tests"]

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="raise-audit-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=_IGNORE)
        mutants = []
        for path in sorted((copy / PACKAGE).glob("*.py")):
            original = path.read_text()
            for line, mutant in raise_sites(original):
                mutants.append((f"{path.relative_to(copy)}:{line}", path, original, mutant))
        unknown = set(args.only) - {site for site, *_ in mutants}
        if unknown:
            parser.error(f"no raise at {', '.join(sorted(unknown))}")
        if args.only:
            mutants = [m for m in mutants if m[0] in args.only]

        outcome, output = run_selection(copy, selection)
        if outcome != "passed":
            print(output, end="")
            print(f"the unmutated selection did not pass ({outcome}); no mutant was run")
            return 2
        survived, limited = [], []
        for site, path, original, mutant in mutants:
            path.write_text(mutant)
            try:
                outcome, _ = run_selection(copy, selection)
            finally:
                path.write_text(original)
            if outcome == "passed":
                survived.append(site)
            elif outcome in ("timeout", "memory"):
                limited.append(f"{site} ({outcome} limit)")
            print(f"{'SURVIVED' if outcome == 'passed' else 'KILLED':<9} {site}", flush=True)

    print(f"{len(mutants)} mutants, {len(mutants) - len(survived)} killed, {len(survived)} survived")
    if limited:
        print("killed by a limit: " + ", ".join(limited))
    print(f"selection: {' '.join(selection)}")
    print(f"wall time: {time.monotonic() - started:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
