#!/usr/bin/env python3
"""The jlproj benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summary [--seed N] [--seconds S] [--save FILE]

Run from the root of a source checkout.  Each workload (see workloads.py)
runs as a fresh `python3` process through `jlproj.cli.cli_main`, back to
back, until the next process would end after S seconds (at least three
processes).  Every process's outputs are checked; a process fails if it
exits non-zero or fails a check.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics, each the median over
the run's processes; with --trace 1 traced and untraced processes
alternate and it carries the per-layer metrics (see spans.py), medians
over the traced processes.

--summary runs every workload untraced and traced and prints all metrics
with the environment block; --save writes them as JSON.  Outputs, spans,
run records and a log of digests and counts go to .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_outputs
from spans import LAYER_METRICS
from workloads import WORKLOADS, Workload

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"

E2E_METRICS = {"setup_s": "s", "run_s": "s", "deltas_per_s": "1/s", "peak_rss_mb": "MB"}
# Counts (and bytes computed from them) that must repeat exactly between
# traced processes and between runs of the same sources.
EXACT_COUNTS = [name for name, unit in LAYER_METRICS.items() if unit in ("count", "B")]
MIN_PROCESSES = 3
# A run ends within this many seconds even if processes hang or run long.
RUN_LIMIT_S = 170


def source_identity() -> dict:
    """The git commit if there is one, and a digest of the jlproj sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def run_process(workload: Workload, seed: int, index: int, traced: bool, rundir: Path, timeout: float) -> dict:
    """Start one workload process, wait for it, and check what it wrote."""
    pdir = rundir / f"{index:02d}{'-traced' if traced else ''}"
    pdir.mkdir(parents=True)
    out, result_path = pdir / "out.csv", pdir / "result.json"
    env = {**os.environ, "JL_THREADS": "1"}
    with open(pdir / "stdout.txt", "w") as stdout, open(pdir / "stderr.txt", "w") as stderr:
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), repr(spawned), str(result_path), str(int(traced)), "--"]
        proc = subprocess.Popen([*cmd, *workload.command(seed, str(out))], stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    sample = {
        "index": index,
        "traced": traced,
        "exit_code": proc.returncode,
        "wall_s": time.monotonic() - spawned,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "errors": [],
        "digests": {},
    }
    try:
        child = json.loads(result_path.read_text())
    except (OSError, ValueError):
        sample["errors"].append(f"exit code {proc.returncode} and no result; see {pdir / 'stderr.txt'}")
        return sample
    sample.update({k: child[k] for k in ("setup_s", "run_s", "environment")})
    if proc.returncode != 0:
        sample["errors"].append(f"exit code {proc.returncode}; see {pdir / 'stderr.txt'}")
    if not Path(child["jlproj"]).is_relative_to(ROOT / "src"):
        sample["errors"].append(f"imported jlproj from {child['jlproj']}, not from this checkout")
    errors, sample["digests"] = check_outputs(workload, seed, out, (pdir / "stdout.txt").read_text())
    sample["errors"] += errors
    if traced:
        sample["layers"] = child["layers"]
        sample["missing_bindings"] = child["missing_bindings"]
        batches = child["graph_sparse_batches"]
        if len(batches) != workload.graph_sparse_batches or any(t != e for t, e in batches):
            sample["errors"].append(
                f"graph x sparse-input batches (entries touched, n*t*s) = {batches}; "
                f"expected {workload.graph_sparse_batches} batches with equal pairs"
            )
    return sample


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run processes for `seconds`, then turn them into metrics and verdicts."""
    rundir = STATE / f"{workload.name}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    start = time.monotonic()
    samples: list[dict] = []
    while True:
        traced = trace and len(samples) % 2 == 0
        elapsed = time.monotonic() - start
        expected = _median(s["wall_s"] for s in samples if s["traced"] == traced)
        if elapsed + expected > (seconds if len(samples) >= MIN_PROCESSES else RUN_LIMIT_S):
            break
        samples.append(run_process(workload, seed, len(samples), traced, rundir, RUN_LIMIT_S - elapsed))

    ok = [s for s in samples if not s["errors"]]
    timed = ok or [s for s in samples if "run_s" in s]
    plain = [s for s in timed if not s["traced"]]
    flags = []
    digests = {json.dumps(s["digests"], sort_keys=True) for s in ok}
    if len(digests) > 1:
        flags.append(f"output digests differ between processes of one run: {sorted(digests)}")
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": workload.command(seed, "<out>"),
        "source": source_identity(),
        "environment": timed[0]["environment"] if timed else None,
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "digests": ok[0]["digests"] if ok else {},
        "samples": samples,
    }
    if trace:
        layered = [s for s in timed if s["traced"]]
        metrics = {name: _median(s["layers"].get(name, 0) for s in layered) for name in LAYER_METRICS}
        plain_run = _median(s["run_s"] for s in plain)
        metrics["trace.overhead_frac"] = _median(s["run_s"] for s in layered) / plain_run - 1 if plain_run else 0.0
        for name in EXACT_COUNTS:
            values = {s["layers"].get(name) for s in layered}
            if len(values) > 1:
                flags.append(f"{name} differs between traced processes: {sorted(values)}")
        record["counts"] = {name: metrics[name] for name in EXACT_COUNTS}
        record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
        record["missing_bindings"] = sorted({m for s in layered for m in s["missing_bindings"]})
    else:
        metrics = {
            "setup_s": _median(s["setup_s"] for s in plain),
            "run_s": _median(s["run_s"] for s in plain),
            "deltas_per_s": _median(workload.deltas / s["run_s"] for s in plain),
            "peak_rss_mb": _median(s["peak_rss_mb"] for s in plain),
        }
        record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in E2E_METRICS.items()}
    flags += check_run_log(record)
    record["flags"] = flags
    record["correct"] = record["failed"] == 0 and not flags
    (rundir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def check_run_log(record: dict) -> list[str]:
    """Compare output digests (same seed) and exact counts (any seed) with
    earlier runs of the same sources and workload definition, kept in .perfbench/."""
    log_path = STATE / "runs.json"
    try:
        log = json.loads(log_path.read_text())
    except (OSError, ValueError):
        log = {}
    argv = " ".join(WORKLOADS[record["workload"]].argv)
    prefix = f"{record['source']['source_sha256']} {record['workload']} [{argv}]"
    entries = [(f"{prefix} seed={record['seed']} digests", record["digests"])]
    if "counts" in record:
        entries.append((f"{prefix} counts", record["counts"]))
    flags = []
    for key, value in entries:
        if not value:
            continue
        earlier = log.setdefault(key, value)
        if earlier != value:
            flags.append(f"{key} differ from an earlier run of the same sources: {earlier} vs {value}")
    log_path.write_text(json.dumps(log, indent=1, sort_keys=True) + "\n")
    return flags


def describe_environment(record: dict) -> str:
    env, src = record["environment"] or {}, record["source"]
    threads = " ".join(f"{k}={v}" for k, v in env.get("threads", {}).items())
    blas = env.get("blas", {})
    return (
        f"python {env.get('python')}  numpy {env.get('numpy')}  scipy {env.get('scipy')}  "
        f"BLAS {blas.get('name')} {blas.get('version')}\n"
        f"{threads}  nproc {env.get('nproc')}  CPU {env.get('cpu_model')}\n"
        f"commit {src['commit']}  sources sha256 {src['source_sha256'][:16]}"
    )


def print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  argv {' '.join(record['argv'])}")
    print(describe_environment(record))
    for s in record["samples"]:
        times = f"setup {s['setup_s']:.3f} s  run {s['run_s']:.3f} s" if "run_s" in s else "no timings"
        status = "ok" if not s["errors"] else "FAILED: " + "; ".join(s["errors"])
        print(f"  process {s['index']:2d}{' traced' if s['traced'] else '       '}  {times}  rss {s['peak_rss_mb']:.1f} MB  {status}")
    used = sum(1 for s in record["samples"] if not s["errors"] and s["traced"] == bool(record["trace"]))
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:>18.6g} {m['unit']:6s} (median of {used})")
    print(f"  failed_frac {record['failed']}/{record['attempted']}  digests {record['digests']}")
    for flag in record["flags"] + [f"missing binding {m}" for m in record.get("missing_bindings", [])]:
        print(f"  FLAG {flag}")


def summary(seed: int, seconds: float, save: str | None) -> int:
    records = [run_workload(w, seed, seconds, trace) for w in WORKLOADS.values() for trace in (False, True)]
    for record in records:
        print_record(record)
    names = list(WORKLOADS)
    print("\n" + f"{'metric':45s} {'unit':6s} " + " ".join(f"{n:>15s}" for n in names))
    for trace, units in ((0, E2E_METRICS), (1, LAYER_METRICS)):
        by_workload = {r["workload"]: r for r in records if r["trace"] == trace}
        for name, unit in units.items():
            cells = " ".join(f"{by_workload[n]['metrics'][name]['value']:>15.6g}" for n in names)
            print(f"{name:45s} {unit:6s} {cells}")
    failed = {n: sum(r["failed"] for r in records if r["workload"] == n) for n in names}
    attempted = {n: sum(r["attempted"] for r in records if r["workload"] == n) for n in names}
    print(f"{'failed_frac':45s} {'ratio':6s} " + " ".join(f"{failed[n] / attempted[n]:>15.6g}" for n in names))
    print("\nenvironment:\n" + describe_environment(records[0]))
    correct = all(r["correct"] for r in records)
    print(f"correct: {correct}")
    if save:
        Path(save).write_text(json.dumps({"seed": seed, "seconds": seconds, "runs": records}, indent=1) + "\n")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed, passed to jlproj as --seed")
    parser.add_argument("--seconds", type=float, default=35.0, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--save", help="with --summary: write all runs as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jlproj" / "cli.py").is_file():
        print(f"error: {ROOT} is not a jlproj checkout (no src/jlproj/cli.py); run from its root", file=sys.stderr)
        return 2
    if args.summary:
        return summary(args.seed, args.seconds, args.save)
    if args.workload is None:
        parser.error("--workload is required without --summary")
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
