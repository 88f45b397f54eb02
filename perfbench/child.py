"""One workload process: import jlproj from the checkout, run one `jlproj` command, report.

    python3 perfbench/child.py SPAWNED RESULT_JSON TRACE -- JLPROJ_ARGV...

SPAWNED is the parent's `time.monotonic()` just before it started this
process; CLOCK_MONOTONIC is system-wide, so set-up time counts interpreter
start.  Set-up ends once jlproj is imported and the argv is built, before
any random draw.  The run ends when `cli_main` returns, after the CSV and
manifest (or the verify report) are written.  With TRACE=1 the layer spans
are recorded (see spans.py) and written next to RESULT_JSON.
"""

import json
import os
import sys
import time


def environment() -> dict:
    """What shapes the numbers, as this process sees it."""
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": None, "version": None}
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("JL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
    }


def main() -> int:
    spawned, result_path, trace, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: child.py SPAWNED RESULT_JSON TRACE -- JLPROJ_ARGV...")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import jlproj.cli

    argv = list(argv)
    setup_end = time.monotonic()

    cli_main, tracer = jlproj.cli.cli_main, None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        cli_main = tracer.wrap("cli.main", cli_main)
    run_start = time.monotonic()
    code = cli_main(argv)
    run_end = time.monotonic()
    sys.stdout.flush()

    result = {
        "code": code,
        "jlproj": os.path.abspath(jlproj.__file__),
        "setup_s": setup_end - float(spawned),
        "run_s": run_end - run_start,
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["graph_sparse_batches"] = tracer.graph_sparse_batches()
        result["missing_bindings"] = tracer.missing
        with open(result_path + ".spans.json", "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "attrs"], "spans": tracer.spans}, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
