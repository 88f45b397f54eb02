"""Layer spans and work counts recorded from outside jlproj.

`Tracer.install` replaces public functions of the jlproj modules, as they
are bound in the module that calls them, with wrappers that record a span
(name, start, end, parent span, attributes).  The apply layer also gets an
injected `WorkCounter`, so its entry-touch count is exact.  Spans stay in
memory; the workload process writes them out when it ends.

The workloads run with JL_THREADS=1, so every call happens on one thread
and spans nest; a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from functools import partial

# Per-layer metrics and their units, in report order.  A `_frac` metric is
# a share of the traced process's run time (its `cli_main` span), so the
# path or family it names may read 0 on a workload that never takes it;
# every `_s` time is nonzero on every workload.
LAYER_METRICS = {
    "apply.project_s": "s",
    "apply.project_frac.dense_input": "ratio",
    "apply.project_frac.sparse_input": "ratio",
    "apply.bytes_moved_computed": "B",
    "apply.calls": "count",
    "apply.vectors": "count",
    "apply.entries_touched": "count",
    "constructions.sample_transform_s": "s",
    "constructions.sample_transform_frac.Dense": "ratio",
    "constructions.sample_transform_frac.Rademacher": "ratio",
    "constructions.sample_transform_frac.Ach": "ratio",
    "constructions.sample_transform_frac.Sparse": "ratio",
    "constructions.transforms": "count",
    "constructions.entries_drawn": "count",
    "core.derive_stream_s": "s",
    "core.derive_stream_calls": "count",
    "core.sample_vectors_s": "s",
    "core.vectors": "count",
    "stats.self_s": "s",
    "stats.quantile_frac": "ratio",
    "stats.quantile_calls": "count",
    "experiments.self_s": "s",
    "experiments.write_frac": "ratio",
    "experiments.cells": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

_FAMILIES = {"DenseGaussian": "Dense", "Rademacher": "Rademacher", "AchlioptasSparse": "Ach", "GraphSparse": "Sparse"}
# Transform streams are TRANSFORM_ROLE | cell << 32 | trial (see jlproj.experiments).
_TRANSFORM_ROLE = 2


def _positional(args, kwargs, names):
    return list(args[: len(names)]) + [kwargs[n] for n in names[len(args) :]]


def _describe_project(tracer, args, kwargs, batch):
    # distortion_batch(transform, xs, transform_instance=0, counter=None)
    # distortion(transform, x, counter=None)
    counter_pos = 3 if batch else 2
    if "counter" not in kwargs and len(args) <= counter_pos:
        kwargs["counter"] = tracer.counter
    transform, xs = _positional(args, kwargs, ("transform", "xs" if batch else "x"))
    vectors = xs if batch else [xs]
    before = tracer.counter.entries_touched

    def finish(_):
        touched = tracer.counter.entries_touched - before
        sparse = bool(vectors) and all(x.indices is not None for x in vectors)
        nnz = [x.nnz for x in vectors]
        graph = hasattr(transform, "rows")
        # Stored graph entries are an int64 row and a float64 sign; dense ones a float64.
        in_bytes = sum(nnz) * (16 if sparse else 8)
        moved = touched * (16 if graph else 8) + in_bytes + 8 * transform.k * len(vectors)
        uniform_t = graph and sparse and len(set(nnz)) == 1
        return {
            "input": "sparse" if sparse else "dense",
            "vectors": len(vectors),
            "bytes": moved,
            "touched": touched,
            "n_t_s": len(vectors) * nnz[0] * transform.s if uniform_t else None,
        }

    return finish


def _describe_transform(tracer, args, kwargs):
    kind, _, _, seed = _positional(args, kwargs, ("kind", "k", "d", "seed"))
    role = seed.stream_id >> 60

    def finish(result):
        drawn = result.rows.size if hasattr(result, "rows") else result.entries.size
        return {
            "family": _FAMILIES[type(kind).__name__],
            "entries": int(drawn),
            "cell": (seed.stream_id >> 32) & ((1 << 28) - 1) if role == _TRANSFORM_ROLE else None,
        }

    return finish


def _describe_vectors(tracer, args, kwargs):
    return lambda result: {"vectors": len(result) if isinstance(result, list) else 1}


# (calling module, name bound there, span name, describe).  A name missing
# from its module is skipped and reported, so a renamed function shows up
# as a missing binding instead of a crash.
BINDINGS = (
    ("jlproj.cli", "run_sparsity_sweep", "experiments.run", None),
    ("jlproj.cli", "run_input_sparsity_sweep", "experiments.run", None),
    ("jlproj.cli", "run_k_sweep", "experiments.run", None),
    ("jlproj.cli", "run_cdf", "experiments.run", None),
    ("jlproj.cli", "run_verification", "experiments.run", None),
    ("jlproj.cli", "write_sweep_csv", "experiments.write", None),
    ("jlproj.cli", "write_cdf_csv", "experiments.write", None),
    ("jlproj.cli", "write_tail_csv", "experiments.write", None),
    ("jlproj.cli", "write_manifest", "experiments.write", None),
    ("jlproj.experiments", "quantile", "stats.quantile", None),
    ("jlproj.experiments", "empirical_cdf", "stats.check", None),
    ("jlproj.experiments", "tail_bound_report", "stats.check", None),
    ("jlproj.experiments", "fourth_moment_check", "stats.check", None),
    ("jlproj.experiments", "gaussian_variance_check", "stats.check", None),
    ("jlproj.experiments", "sample_collision_counts", "stats.check", None),
    ("jlproj.experiments", "collision_tail_check", "stats.check", None),
    ("jlproj.experiments", "chi_square_gof", "stats.check", None),
    ("jlproj.experiments", "hypergeometric_pmf", "stats.check", None),
    ("jlproj.experiments", "distortion_batch", "apply.project", partial(_describe_project, batch=True)),
    ("jlproj.stats", "distortion", "apply.project", partial(_describe_project, batch=False)),
    ("jlproj.experiments", "sample_transform", "constructions.sample_transform", _describe_transform),
    ("jlproj.stats", "sample_transform", "constructions.sample_transform", _describe_transform),
    ("jlproj.experiments", "sample_unit_sphere_batch", "core.sample_vectors", _describe_vectors),
    ("jlproj.experiments", "sample_sparse_unit_batch", "core.sample_vectors", _describe_vectors),
    ("jlproj.stats", "sample_unit_sphere", "core.sample_vectors", _describe_vectors),
    ("jlproj.constructions", "derive_stream", "core.derive_stream", None),
    ("jlproj.core", "derive_stream", "core.derive_stream", None),
)
_DESCRIBED = {span for _, _, span, describe in BINDINGS if describe is not None}


class Tracer:
    def __init__(self) -> None:
        from jlproj.apply import WorkCounter

        self.spans: list[list] = []  # [id, name, start, end, parent id, attrs]
        self._stack: list[int] = []
        self.counter = WorkCounter()
        self.apply_calls = 0
        self.missing: list[str] = []

    def install(self) -> None:
        for module_name, attr, span_name, describe in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(span_name, fn, describe))
        # Per-vector kernel calls, as `distortion` looks `apply` up: a count only.
        apply_module = importlib.import_module("jlproj.apply")
        kernel = getattr(apply_module, "apply", None)
        if kernel is None:
            self.missing.append("jlproj.apply.apply")
            return

        def apply(*args, **kwargs):
            self.apply_calls += 1
            return kernel(*args, **kwargs)

        apply_module.apply = apply

    def wrap(self, name, fn, describe=None):
        """`fn` recording one span per call; `describe(tracer, args, kwargs)`
        runs before the call and returns a function of the result giving the
        span's attributes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            finish = describe(self, args, kwargs) if describe else None
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if finish is not None:
                span[5] = finish(result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer totals and shares over the process (all but `trace.overhead_frac`)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        m = {name: 0 for name in LAYER_METRICS if name != "trace.overhead_frac"}
        shares: dict[str, float] = defaultdict(float)  # seconds, divided by run time below
        run_time = 0.0
        cells = set()
        for span_id, name, start, end, _, attrs in self.spans:
            if attrs is None and name in _DESCRIBED:
                continue  # the call raised; its attributes are unknown
            dur = end - start
            own = dur - child_time[span_id]
            if name == "apply.project":
                m["apply.project_s"] += dur
                shares[f"apply.project_frac.{attrs['input']}_input"] += dur
                m["apply.vectors"] += attrs["vectors"]
                m["apply.bytes_moved_computed"] += attrs["bytes"]
            elif name == "constructions.sample_transform":
                m["constructions.sample_transform_s"] += dur
                shares[f"constructions.sample_transform_frac.{attrs['family']}"] += dur
                m["constructions.transforms"] += 1
                m["constructions.entries_drawn"] += attrs["entries"]
                if attrs["cell"] is not None:
                    cells.add(attrs["cell"])
            elif name == "core.derive_stream":
                m["core.derive_stream_s"] += dur
                m["core.derive_stream_calls"] += 1
            elif name == "core.sample_vectors":
                m["core.sample_vectors_s"] += dur
                m["core.vectors"] += attrs["vectors"]
            elif name == "stats.quantile":
                m["stats.self_s"] += own
                shares["stats.quantile_frac"] += dur
                m["stats.quantile_calls"] += 1
            elif name == "stats.check":
                m["stats.self_s"] += own
            elif name == "experiments.run":
                m["experiments.self_s"] += own
            elif name == "experiments.write":
                shares["experiments.write_frac"] += dur
            elif name == "cli.main":
                m["cli.self_s"] += own
                run_time += dur
        for name, seconds in shares.items():
            m[name] = seconds / run_time if run_time else 0.0
        m["experiments.cells"] = len(cells)
        m["apply.calls"] = self.apply_calls
        m["apply.entries_touched"] = self.counter.entries_touched
        return m

    def graph_sparse_batches(self) -> list[tuple[int, int]]:
        """(entries touched, n*t*s) of every graph-construction call on
        sparse inputs that all have the same support size t."""
        return [
            (attrs["touched"], attrs["n_t_s"])
            for _, name, _, _, _, attrs in self.spans
            if name == "apply.project" and attrs is not None and attrs["n_t_s"] is not None
        ]

