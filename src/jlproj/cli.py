"""Command-line front door for the distortion experiments.

Subcommands: sweep-s, sweep-t, sweep-k, cdf, verify, required-k.  Every
experiment subcommand writes its CSV to --out plus a JSON run manifest
(config, seed, version, start time) to --out with its suffix replaced by
.manifest.json, and cdf also writes its tail table with the suffix
.tail.csv (--out r/k.csv gives r/k.manifest.json and r/k.tail.csv); the
directory of --out must exist and each of these files must be absent or
a regular file, all checked before any sampling.  Exit codes: 0 on
success, 1 when `verify` finds failing checks, 2 on invalid arguments
(including a missing output directory, a sweep's empty --probes, an
infinite or out-of-order cdf grid or tail table, and a swept axis that
is empty or repeats a value, each checked before any sampling), 3
when an input block, a cell's delta block, any cell's transform or a cdf
grid would exceed the memory budget (also checked before any sampling),
the machine refuses an allocation (MemoryError), or an output cannot be
written (including an output path naming a directory, FIFO or other file
that is not a regular file).  Outputs are written to a temp file and
renamed into place.  Errors print one `error: ...` line on stderr.  A
negative value with an exponent needs the `=` form, `--grid-min=-1e-3`:
argparse's negative-number pattern has no exponent, so in `--grid-min
-1e-3` it reads `-1e-3` as an option and exits 2.

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
    DESK_SCALE,
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


def _experiment_parser(sub, command: str, help: str, axis: str | None) -> argparse.ArgumentParser:
    """Subparser with the scale flags and --k, --s, --t; a sweep's `axis`
    takes a comma list, the others default to ExperimentConfig's, and
    only a sweep takes --probes."""
    parser = sub.add_parser(command, help=help)
    parser.add_argument("--n", type=int, help="input vectors per experiment")
    parser.add_argument("--d", type=int, help="ambient dimension")
    parser.add_argument("--trials", type=int, help="independent transform instances")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help=f"use n={ExperimentConfig.n}, d={ExperimentConfig.d}, trials={ExperimentConfig.trials} defaults",
    )
    parser.add_argument("--out", required=True, help="CSV output path")
    for name in ("k", "s", "t"):
        if name == axis:
            parser.add_argument(f"--{name}", type=_int_list, default=None, help=f"comma list of {name} values")
        else:
            parser.add_argument(f"--{name}", type=int, default=getattr(ExperimentConfig, name))
    if axis is not None:
        parser.add_argument("--probes", type=_float_list, default=ExperimentConfig.probes, help="quantile probes")
    return parser


def _build_config(args, **sizes) -> ExperimentConfig:
    """The run's config: --n, --d and --trials, else desk scale, or paper
    scale (ExperimentConfig's defaults) with --paper-scale; `sizes`
    overrides the --k, --s or --t a sweep varies."""
    given = {name: getattr(args, name) for name in DESK_SCALE if getattr(args, name) is not None}
    return ExperimentConfig(
        master_seed=args.seed,
        constructions=tuple(getattr(args, "constructions", None) or ExperimentConfig.constructions),
        probes=tuple(getattr(args, "probes", ExperimentConfig.probes)),
        **{**({} if args.paper_scale else DESK_SCALE), **given, "k": args.k, "s": args.s, "t": args.t, **sizes},
    )


def _output_paths(out: str, *suffixes: str) -> list[Path]:
    """--out, then <out> with each suffix: every file a subcommand writes.

    Checked before any draw: the directory must exist (exit 2), and each
    path must be absent or a regular file (exit 3), so a directory, FIFO
    or device file is never renamed over.  --out is checked before its
    siblings are named, since "." or "/" has no name to put a suffix on.
    """

    def regular(path: Path) -> Path:
        if path.exists() and not path.is_file():
            raise OSError(f"--out {out}: {path.name or path} exists and is not a regular file")
        return path

    first = Path(out)
    if not first.parent.is_dir():
        raise ValueError(f"output directory {first.parent} is not an existing directory")
    return [regular(first), *(regular(first.with_suffix(suffix)) for suffix in suffixes)]


# cdf's grid flags, in the order of the GridSpec fields they set.
_GRID_FLAGS = ("--grid-min", "--grid-max", "--grid-points", "--tail-min", "--tail-max", "--tail-points")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jlproj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _experiment_parser(sub, "sweep-s", "distortion quantiles vs column sparsity", axis="s")
    _experiment_parser(sub, "sweep-t", "distortion quantiles vs input sparsity", axis="t")
    p = _experiment_parser(sub, "sweep-k", "absolute distortion quantiles vs target dimension", axis="k")
    p.add_argument("--constructions", type=lambda v: v.split(","), default=None)
    p = _experiment_parser(sub, "cdf", "pooled distortion CDF per construction", axis=None)
    p.add_argument("--constructions", type=lambda v: v.split(","), default=None)
    for flag, field in zip(_GRID_FLAGS, dataclasses.fields(GridSpec)):
        p.add_argument(flag, type=type(field.default), default=field.default)

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
    # Built per call, so a runner rebound on this module (a tracer, a test stub) is the one run.
    sweeps = {"sweep-s": run_sparsity_sweep, "sweep-t": run_input_sparsity_sweep, "sweep-k": run_k_sweep}
    try:
        workers = _worker_count()
        if args.command in sweeps:
            out, manifest = _output_paths(args.out, ".manifest.json")
            axis = args.command[-1]
            values = getattr(args, axis)
            # The config's swept size is a stand-in: s = t = 1, k = max(k values, s).
            stand_in = max([*(DEFAULT_K_GRID if values is None else values), args.s]) if axis == "k" else 1
            cfg = _build_config(args, **{axis: stand_in})
            result = sweeps[args.command](cfg, values, workers)
            write_sweep_csv(result, out)
            write_manifest(manifest, cfg, started_at, {"axis": {"name": axis, "values": list(result.axis_values)}})
        elif args.command == "cdf":
            out, manifest, tail = _output_paths(args.out, ".manifest.json", ".tail.csv")
            cfg = _build_config(args)
            grid = GridSpec(*(getattr(args, flag[2:].replace("-", "_")) for flag in _GRID_FLAGS))
            result = run_cdf(cfg, grid, workers)
            write_cdf_csv(result, out)
            write_tail_csv(result, tail)
            write_manifest(manifest, cfg, started_at, {"grid": dataclasses.asdict(grid)})
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
    except (ResourceLimitError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
