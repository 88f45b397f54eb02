"""Pinned bytes of the transform and subset draws.

The Gaussian, Achlioptas, graph-layout and subset digests in
``tests/data/golden_draws.json`` fix the draw conventions documented in
``sample_transform`` and ``sample_without_replacement``: any change to how
generator output becomes stored values, or to the order in which draws are
consumed, changes them.  The two subset cases span several pool chunks
(the second in int8 pools), so they also pin that the pool's layout and
the sort's working type change no subset.  The Rademacher digest pins the
packed-byte sign convention and the Achlioptas digest the
``integers(0, 6, dtype=uint8)`` byte map.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from jlproj.constructions import sample_transform
from jlproj.core import (
    AchlioptasSparse,
    DenseGaussian,
    GraphSparse,
    Rademacher,
    SeedSpec,
    derive_stream,
    sample_without_replacement,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_draws.json").read_text())


def _graph(part):
    return lambda: getattr(sample_transform(GraphSparse(16), 50, 301, SeedSpec(11, 4)), part)


def _subsets(n, m, count, stream):
    return lambda: sample_without_replacement(n, m, derive_stream(SeedSpec(11, stream)), count=count)


CASES = {
    "gaussian_entries_k37_d301": lambda: sample_transform(DenseGaussian(), 37, 301, SeedSpec(11, 1)).entries,
    "achlioptas_entries_k37_d301": lambda: sample_transform(AchlioptasSparse(), 37, 301, SeedSpec(11, 2)).entries,
    "rademacher_entries_k37_d301": lambda: sample_transform(Rademacher(), 37, 301, SeedSpec(11, 3)).entries,
    "graph_rows_k50_s16_d301": _graph("rows"),
    "graph_signs_k50_s16_d301": _graph("signs"),
    "subsets_n10000_m5_count1000": _subsets(10_000, 5, 1000, 5),
    "subsets_n50_m16_count100000": _subsets(50, 16, 100_000, 6),
}


def describe(array: np.ndarray) -> dict:
    """dtype, shape and sha256 of the C-ordered bytes."""
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "sha256": hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest(),
    }


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_draw_bytes_match_golden(name):
    assert describe(CASES[name]()) == GOLDEN[name]
