"""Golden digests of the experiment CSVs at a tiny fixed config.

Any change to sampling order, stream ids, cell order, quantile ranks or
float formatting changes these bytes.  Regenerate the digests only for a
change that is meant to alter output, and say why where it is recorded.
"""

import hashlib
import json
from pathlib import Path

import pytest

from jlproj.cli import cli_main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_outputs.json").read_text())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN["outputs"]))
def test_csv_bytes_match_golden(command, tmp_path):
    out = tmp_path / "out.csv"
    assert cli_main([command, *GOLDEN["args"], "--out", str(out)]) == 0
    written = {"csv": _sha256(out)}
    tail = out.with_suffix(".tail.csv")
    if tail.exists():
        written["tail.csv"] = _sha256(tail)
    assert written == GOLDEN["outputs"][command]
