"""Command-line front door for the distortion experiments.

Subcommands: sweep-s, sweep-t, sweep-k, cdf, verify, required-k.  Every
experiment subcommand writes its CSV to --out plus a JSON run manifest
(config, seed, version, start time) next to it; the directory of --out
must exist, which is checked before any sampling.  Exit codes: 0 on
success, 1 when `verify` finds failing checks, 2 on invalid arguments
(including a missing output directory, an empty --probes, and a swept
axis that is empty or repeats a value, each checked before any
sampling), 3 when a transform, an input block or a cell's delta block
would exceed the memory budget or an output cannot be written.  Outputs
are written to a temp file and renamed into place.  Errors print one
`error: ...` line on stderr.

The JL_THREADS environment variable sets how many threads run experiment
cells (unset means 1).  It is read once, before anything else runs; a
value that is not a positive integer exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from .constructions import ResourceLimitError
from .experiments import (
    DEFAULT_K_GRID,
    DEFAULT_S_GRID,
    DEFAULT_T_GRID,
    DESK_SCALE,
    PAPER_SCALE,
    ExperimentConfig,
    GridSpec,
    required_k,
    run_cdf,
    run_input_sparsity_sweep,
    run_k_sweep,
    run_sparsity_sweep,
    run_verification,
    write_cdf_csv,
    write_manifest,
    write_sweep_csv,
    write_tail_csv,
)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _worker_count() -> int:
    """Threads for experiment cells, from JL_THREADS; unset means 1."""
    text = os.environ.get("JL_THREADS")
    if text is None:
        return 1
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"JL_THREADS must be a positive integer, got {text!r}")
    return workers


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="input vectors per experiment")
    parser.add_argument("--d", type=int, help="ambient dimension")
    parser.add_argument("--trials", type=int, help="independent transform instances")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--probes", type=_float_list, default=[0.5, 0.99], help="quantile probes")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help=f"use n={PAPER_SCALE['n']}, d={PAPER_SCALE['d']}, trials={PAPER_SCALE['trials']} defaults",
    )
    parser.add_argument("--out", required=True, help="CSV output path")


def _build_config(args, *, k: int, s: int, t: int) -> ExperimentConfig:
    scale = PAPER_SCALE if args.paper_scale else DESK_SCALE
    constructions = tuple(getattr(args, "constructions", None) or ("Dense", "Ach", "Sparse"))
    return ExperimentConfig(
        n=args.n if args.n is not None else scale["n"],
        d=args.d if args.d is not None else scale["d"],
        k=k,
        s=s,
        t=t,
        trials=args.trials if args.trials is not None else scale["trials"],
        master_seed=args.seed,
        constructions=constructions,
        probes=tuple(args.probes),
    )


def _write_sweep(args, cfg: ExperimentConfig, result, started_at: str) -> None:
    out = Path(args.out)
    write_sweep_csv(result, out)
    extra = {"axis": {"name": result.axis_name, "values": list(result.axis_values)}}
    write_manifest(out.with_suffix(".manifest.json"), cfg, started_at, extra)


def _write_cdf(args, cfg: ExperimentConfig, result, started_at: str, grid: GridSpec) -> None:
    out = Path(args.out)
    write_cdf_csv(result, out)
    write_tail_csv(result, out.with_suffix(".tail.csv"))
    extra = {"grid": dataclasses.asdict(grid)}
    write_manifest(out.with_suffix(".manifest.json"), cfg, started_at, extra)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jlproj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-s", help="distortion quantiles vs column sparsity")
    _add_scale_args(p)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--s", type=_int_list, default=None, help="comma list of s values")
    p.add_argument("--t", type=int, default=5)

    p = sub.add_parser("sweep-t", help="distortion quantiles vs input sparsity")
    _add_scale_args(p)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--s", type=int, default=16)
    p.add_argument("--t", type=_int_list, default=None, help="comma list of t values")

    p = sub.add_parser("sweep-k", help="absolute distortion quantiles vs target dimension")
    _add_scale_args(p)
    p.add_argument("--k", type=_int_list, default=None, help="comma list of k values")
    p.add_argument("--s", type=int, default=16)
    p.add_argument("--t", type=int, default=5)
    p.add_argument("--constructions", type=lambda v: v.split(","), default=None)

    p = sub.add_parser("cdf", help="pooled distortion CDF per construction")
    _add_scale_args(p)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--s", type=int, default=16)
    p.add_argument("--t", type=int, default=5)
    p.add_argument("--constructions", type=lambda v: v.split(","), default=None)
    p.add_argument("--grid-min", type=float, default=-1.0)
    p.add_argument("--grid-max", type=float, default=1.0)
    p.add_argument("--grid-points", type=int, default=201)
    p.add_argument("--tail-min", type=float, default=1e-4)
    p.add_argument("--tail-max", type=float, default=1.0)
    p.add_argument("--tail-points", type=int, default=17)

    p = sub.add_parser("verify", help="run the empirical bound checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--pairs", type=int, default=100_000)

    p = sub.add_parser("required-k", help="target dimension for n points at accuracy eps")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)

    return parser


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    started_at = datetime.now(timezone.utc).isoformat()
    try:
        workers = _worker_count()
        out = getattr(args, "out", None)
        if out is not None and not Path(out).parent.is_dir():
            raise ValueError(f"output directory {Path(out).parent} is not an existing directory")
        if args.command == "sweep-s":
            cfg = _build_config(args, k=args.k, s=1, t=args.t)
            s_values = args.s if args.s is not None else [s for s in DEFAULT_S_GRID if s <= cfg.k]
            result = run_sparsity_sweep(cfg, s_values, workers)
            _write_sweep(args, cfg, result, started_at)
        elif args.command == "sweep-t":
            cfg = _build_config(args, k=args.k, s=args.s, t=1)
            t_values = args.t if args.t is not None else [t for t in DEFAULT_T_GRID if t <= cfg.d]
            result = run_input_sparsity_sweep(cfg, t_values, workers)
            _write_sweep(args, cfg, result, started_at)
        elif args.command == "sweep-k":
            k_values = args.k if args.k is not None else [k for k in DEFAULT_K_GRID if k >= args.s]
            cfg = _build_config(args, k=max([*k_values, args.s]), s=args.s, t=args.t)
            result = run_k_sweep(cfg, k_values, workers)
            _write_sweep(args, cfg, result, started_at)
        elif args.command == "cdf":
            cfg = _build_config(args, k=args.k, s=args.s, t=args.t)
            grid = GridSpec(
                lo=args.grid_min,
                hi=args.grid_max,
                points=args.grid_points,
                tail_lo=args.tail_min,
                tail_hi=args.tail_max,
                tail_points=args.tail_points,
            )
            result = run_cdf(cfg, grid, workers)
            _write_cdf(args, cfg, result, started_at, grid)
        elif args.command == "verify":
            checks = run_verification(args.seed, trials=args.trials, pair_samples=args.pairs)
            for check in checks:
                status = "PASS" if check.passed else "FAIL"
                print(f"{status} {check.name}: {check.detail}")
            failed = [c.name for c in checks if not c.passed]
            if failed:
                print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
                return 1
            return 0
        elif args.command == "required-k":
            print(required_k(args.n, args.eps))
            return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
