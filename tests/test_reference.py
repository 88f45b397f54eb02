"""Every CSV number of sweep-s, sweep-t, sweep-k and cdf against an independent reference.

`reference.py` rebuilds each row from the documented contract, with every
transform as a dense matrix.  Means and stds must agree within an
absolute 1e-12: that covers any BLAS kernel and thread count summing in
its own order, while a wrong stream id, cell order, quantile rank, scale
or mean/std formula moves a row by far more.  CDF and tail fractions are
counts over the same samples, so they must match exactly.

Between them the configs cover both input families, every construction
(in the default order and another), s > 1 and s = k, t = 1 and t = d,
probes whose p*n rounds above an integer in float (0.1 of 30), and a
dense transform drawn in two row blocks (k = 400 at d = 2700).
"""

import csv
import math

import numpy as np

import reference
from jlproj.cli import cli_main

TOL = 1e-12


def _csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]


def _run(argv, out):
    assert cli_main([*argv, "--out", str(out)]) == 0
    return _csv(out)


def _flags(**flags):
    return [part for name, value in flags.items() for part in (f"--{name}", str(value))]


def _assert_rows(written, expected):
    assert len(written) == len(expected)
    for row, (construction, family, axis, probe, mean, std, trials) in zip(written, expected):
        assert row[:4] == [construction, family, str(axis), repr(probe)]
        assert abs(float(row[4]) - mean) <= TOL, (row, mean)
        assert abs(float(row[5]) - std) <= TOL, (row, std)
        assert row[6] == str(trials)


def test_sweep_s_matches_reference(tmp_path):
    cfg = dict(seed=11, n=60, d=200, k=24, t=7, trials=3)
    s_values, probes = (1, 3, 8, 24), (0.5, 0.99)
    written = _run(["sweep-s", *_flags(**cfg, s=",".join(map(str, s_values)))], tmp_path / "s.csv")
    _assert_rows(written, reference.sweep_s(**cfg, s_values=s_values, probes=probes))


def test_sweep_t_matches_reference(tmp_path):
    cfg = dict(seed=3, n=30, d=120, k=30, s=6, trials=2)
    t_values, probes = (1, 4, 120), (0.1, 0.5, 0.9)
    argv = ["sweep-t", *_flags(**cfg, t=",".join(map(str, t_values)), probes=",".join(map(repr, probes)))]
    _assert_rows(_run(argv, tmp_path / "t.csv"), reference.sweep_t(**cfg, t_values=t_values, probes=probes))


def test_sweep_k_matches_reference(tmp_path):
    cfg = dict(seed=5, n=40, d=2700, s=5, t=9, trials=2)
    k_values, probes = (25, 400), (0.5, 0.99)
    written = _run(["sweep-k", *_flags(**cfg, k=",".join(map(str, k_values)))], tmp_path / "k.csv")
    constructions = ("Dense", "Ach", "Sparse")
    _assert_rows(written, reference.sweep_k(**cfg, k_values=k_values, constructions=constructions, probes=probes))


def test_cdf_matches_reference(tmp_path):
    cfg = dict(seed=2, n=80, d=150, k=20, s=4, t=10, trials=3)
    constructions = ("Sparse", "Ach", "Dense")
    out = tmp_path / "c.csv"
    _run(["cdf", *_flags(**cfg, constructions=",".join(constructions), **{"tail-points": 9})], out)
    samples = reference.cdf_samples(**cfg, constructions=constructions)
    grid = np.linspace(-1.0, 1.0, 201)
    thresholds = 10.0 ** np.linspace(-4.0, 0.0, 9)
    tail = out.with_suffix(".tail.csv")
    for path, xs, share in ((out, grid, reference.cdf), (tail, thresholds, reference.exceedance)):
        written = _csv(path)
        assert [row[0] for row in written] == [c for c in constructions for _ in xs]
        for row, x in zip(written, np.tile(xs, len(constructions))):
            point = float(row[1])
            assert math.isclose(point, x, rel_tol=TOL, abs_tol=TOL)
            assert float(row[2]) == share(samples[row[0]], point), row
