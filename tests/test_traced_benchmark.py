"""The benchmark's traced mode keeps working against this checkout.

Runs `perfbench/child.py` with tracing on, at desk size, the way the
benchmark starts one workload process, and checks what a traced run
reports: every traced function is still bound, every graph-construction
batch of sparse inputs touches exactly n*t*s entries, and the projected
vector count is n * cells * trials.  Traced `verify` books every
transform draw under the verification check that made it.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
N, TRIALS = 60, 2


def _traced(argv, tmp_path) -> dict:
    """The result JSON of one traced child process running ``argv``."""
    result_path = tmp_path / "r.json"
    env = {**os.environ, "JL_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(CHILD), repr(time.monotonic()), str(result_path), "1", "--", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["code"] == 0
    assert result["missing_bindings"] == []
    return result


@pytest.mark.parametrize(
    "argv,cells,graph_sparse_batches",
    [
        # (Sparse, Ach) x t in {1, 3}; Sparse x 2 t values x 2 trials.
        (["sweep-t", "--s", "4", "--t", "1,3"], 4, 4),
        # (Dense, Ach, Sparse) x 2 input families x k in {8, 16}; Sparse x sparse inputs x 2 k x 2 trials.
        (["sweep-k", "--k", "8,16", "--s", "4"], 12, 4),
    ],
    ids=["sweep-t", "sweep-k"],
)
def test_traced_run(argv, cells, graph_sparse_batches, tmp_path):
    argv = [*argv, "--n", str(N), "--d", "200", "--trials", str(TRIALS), "--out", str(tmp_path / "x.csv")]
    result = _traced(argv, tmp_path)
    pairs = result["graph_sparse_batches"]
    assert len(pairs) == graph_sparse_batches
    assert all(touched == n_t_s for touched, n_t_s in pairs)
    assert result["layers"]["experiments.cells"] == cells
    assert result["layers"]["apply.vectors"] == N * cells * TRIALS


def test_traced_verify(tmp_path):
    """Every transform draw of `verify` is a child of a `stats.check` span:
    one per tail (3), fourth-moment (3) and variance (1) check.  A check
    that called a stats function captured at import would escape the
    tracer, and its draws would hang off `experiments.run` instead."""
    _traced(["verify", "--trials", "1", "--pairs", "20"], tmp_path)
    spans = json.loads((tmp_path / "r.json.spans.json").read_text())["spans"]
    names = {span[0]: span[1] for span in spans}
    draws = [span for span in spans if span[1] == "constructions.sample_transform"]
    assert draws
    assert all(names.get(span[4]) == "stats.check" for span in draws)
    assert len({span[4] for span in draws}) == 7
