"""The benchmark's workloads: the `jlproj` command each one runs and the outputs it must produce.

Every workload runs with JL_THREADS=1 and whatever BLAS thread count the
environment gives.  Sizes keep the paper's d=10000 but cut n and trials so
that one workload process takes seconds rather than minutes, which lets a
run of the benchmark report a median over several fresh processes.
"""

from __future__ import annotations

from dataclasses import dataclass

PROBES = ("0.5", "0.99")
SWEEP_HEADER = "construction,input_family,{axis},probe,mean,std,trials"

# Names `jlproj verify` prints, in order; every one must read PASS.
VERIFY_CHECKS = (
    "gaussian-tail",
    "rademacher-tail",
    "achlioptas-tail",
    "gaussian-fourth-moment",
    "rademacher-fourth-moment",
    "achlioptas-fourth-moment",
    "collision-mean",
    "collision-distribution",
    "collision-tail",
    "gaussian-variance",
    "hypergeometric-normalization",
)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # jlproj argv without --seed and --out
    deltas: int  # distortion values produced, from the config
    # Sweeps only: the CSV's expected shape and the manifest fields the argv fixes.
    axis: str | None = None
    axis_values: tuple[int, ...] = ()
    series: tuple[tuple[str, str], ...] = ()  # (construction, input family) in CSV order
    trials: int = 0
    config: tuple[tuple[str, int], ...] = ()
    # Graph-construction x sparse-input batches (one per trial), each of
    # which must touch exactly n*t*s stored entries.
    graph_sparse_batches: int = 0
    # (construction, input family, axis value) cells whose rows must have
    # mean and std exactly 0.0.
    zero_cells: tuple[tuple[str, str, int], ...] = ()

    def command(self, seed: int, out: str) -> list[str]:
        argv = [*self.argv, "--seed", str(seed)]
        return argv if self.axis is None else [*argv, "--out", out]

    def expected_rows(self) -> list[tuple[str, str, str, str]]:
        return [
            (construction, family, str(value), probe)
            for construction, family in self.series
            for value in self.axis_values
            for probe in PROBES
        ]


_SWEEP_K_N, _SWEEP_K_TRIALS, _SWEEP_K_GRID = 500, 1, (50, 400)
_SWEEP_T_N, _SWEEP_T_TRIALS, _SWEEP_T_GRID = 2500, 2, (1, 2, 5, 10, 50, 100, 1000)
_VERIFY_TRIALS = 500

WORKLOADS = {
    w.name: w
    for w in (
        # Projection of dense inputs dominates sweep-k (94 % of a paper-scale
        # trial, about 70 % at this n), so batched projection shows here, and
        # BLAS threading acts through the Gaussian GEMV at k=400.
        Workload(
            name="sweep-k-paper",
            argv=(
                "sweep-k", "--paper-scale",
                "--n", str(_SWEEP_K_N),
                "--trials", str(_SWEEP_K_TRIALS),
                "--k", ",".join(map(str, _SWEEP_K_GRID)),
            ),
            deltas=_SWEEP_K_N * _SWEEP_K_TRIALS * 3 * 2 * len(_SWEEP_K_GRID),
            axis="k",
            axis_values=_SWEEP_K_GRID,
            series=tuple((c, f) for c in ("Dense", "Ach", "Sparse") for f in ("dense", "sparse")),
            trials=_SWEEP_K_TRIALS,
            config=(("n", _SWEEP_K_N), ("d", 10000), ("trials", _SWEEP_K_TRIALS), ("s", 16), ("t", 5)),
            graph_sparse_batches=len(_SWEEP_K_GRID) * _SWEEP_K_TRIALS,
        ),
        # The graph construction's sparse-input fast path dominates (one apply
        # call per vector) next to a fixed share of Fisher-Yates vector
        # sampling; no dense input is projected, so a dense-path change
        # should leave it unchanged.
        Workload(
            name="sweep-t-paper",
            argv=(
                "sweep-t", "--paper-scale",
                "--n", str(_SWEEP_T_N),
                "--trials", str(_SWEEP_T_TRIALS),
                "--s", "16",
                "--t", ",".join(map(str, _SWEEP_T_GRID)),
            ),
            deltas=_SWEEP_T_N * _SWEEP_T_TRIALS * 2 * len(_SWEEP_T_GRID),
            axis="t",
            axis_values=_SWEEP_T_GRID,
            series=(("Sparse", "sparse"), ("Ach", "sparse")),
            trials=_SWEEP_T_TRIALS,
            config=(("n", _SWEEP_T_N), ("d", 10000), ("trials", _SWEEP_T_TRIALS), ("s", 16), ("k", 50)),
            graph_sparse_batches=len(_SWEEP_T_GRID) * _SWEEP_T_TRIALS,
            # The graph construction maps a one-hot input to one of its
            # columns exactly, so t=1 has zero distortion.
            zero_cells=(("Sparse", "sparse", 1),),
        ),
        # The same layers the other way round: thousands of fresh small
        # transforms, each applied to one vector, so transform sampling
        # dominates and per-call overhead in apply would show.  It runs the
        # tail-bound code of acceptance criterion 07.
        Workload(
            name="verify",
            argv=("verify", "--trials", str(_VERIFY_TRIALS)),
            # Three tail checks of `trials` each plus the 4000-trial variance check.
            deltas=3 * _VERIFY_TRIALS + max(_VERIFY_TRIALS, 4000),
        ),
    )
}
