"""Golden digests of the experiment CSVs at a tiny fixed config.

Any change to sampling order, stream ids, cell order, quantile ranks or
float formatting changes these bytes.  Regenerate the digests only for a
change that is meant to alter output, and say why where it is recorded.

The fixed config has d = 200, so every dense transform is one row block;
the d = 10^4 sweep-k case projects k = 200 and k = 400 in several blocks
(two and four of at most 104 rows), on dense inputs cut into two chunks.
The d = 10^4 sweep-t case meets sparse batches through support operators
that cover part of the columns (t = 1 and 100) and all of them (t = 1000).

The digests were captured on OpenBLAS's SkylakeX kernel with 2 BLAS
threads.  Dense-transform x dense-input rows come from a BLAS GEMM and
every |y|^2 from a BLAS matmul, both summing in the kernel's order, so
the sweep-s and sweep-k digests hold for that kernel and thread count
only.  The cdf and sweep-t digests also hold at one BLAS thread, which
test_cdf_and_sweep_t_match_golden_at_one_blas_thread checks.
"""

import hashlib
import json
import os
import subprocess
import sys
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


# sweep-k at d = 10^4, captured before dense transforms were drawn in row blocks.
BLOCKS_ARGS = ["--n", "150", "--d", "10000", "--trials", "2", "--k", "200,400", "--seed", "5"]
BLOCKS_CSV = "988b388ce97e7cdf32d1a7f59df26e63f0ec3a5dbcc6db0ddf470d6938623e4a"


def test_sweep_k_in_row_blocks_matches_golden(tmp_path):
    out = tmp_path / "out.csv"
    assert cli_main(["sweep-k", *BLOCKS_ARGS, "--out", str(out)]) == 0
    assert _sha256(out) == BLOCKS_CSV


# sweep-t at d = 10^4, captured before the graph construction met sparse
# batches through a dense support operator.
SUPPORT_ARGS = ["--n", "300", "--d", "10000", "--trials", "1", "--t", "1,100,1000", "--seed", "5"]
SUPPORT_CSV = "c058da27b929dd6704a6d8e281aebca35ee95388b42d1918d0d08c4414ce0245"


def test_sweep_t_through_support_operators_matches_golden(tmp_path):
    """Captured on OpenBLAS's SkylakeX kernel: the epilogue's matmul sums
    each |y|^2 in the kernel's order, so these bytes depend on the kernel."""
    out = tmp_path / "out.csv"
    assert cli_main(["sweep-t", *SUPPORT_ARGS, "--out", str(out)]) == 0
    assert _sha256(out) == SUPPORT_CSV


def test_cdf_and_sweep_t_match_golden_at_one_blas_thread(tmp_path):
    """The desk cdf (CSV and tail CSV), the desk sweep-t and the d = 10^4
    sweep-t keep their digests under OPENBLAS_NUM_THREADS=1, which is read
    when OpenBLAS loads, hence the fresh interpreter."""
    runs = {
        "cdf": ["cdf", *GOLDEN["args"]],
        "sweep-t": ["sweep-t", *GOLDEN["args"]],
        "support": ["sweep-t", *SUPPORT_ARGS],
    }
    code = (
        "from jlproj.cli import cli_main\n"
        f"for name, args in {runs!r}.items():\n"
        f"    assert cli_main([*args, '--out', {str(tmp_path)!r} + '/' + name + '.csv']) == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert _sha256(tmp_path / "cdf.csv") == GOLDEN["outputs"]["cdf"]["csv"]
    assert _sha256(tmp_path / "cdf.tail.csv") == GOLDEN["outputs"]["cdf"]["tail.csv"]
    assert _sha256(tmp_path / "sweep-t.csv") == GOLDEN["outputs"]["sweep-t"]["csv"]
    assert _sha256(tmp_path / "support.csv") == SUPPORT_CSV
