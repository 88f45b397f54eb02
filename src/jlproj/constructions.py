"""Sampling and storage of the four random projection families.

Scaling convention: the 1/sqrt(k) factor of the dense families is baked
into the stored values at sampling time, so projection is a plain matrix
product with no extra multiply; the graph construction stores +-1 signs
and its 1/sqrt(s) factor is applied to the product.  Dense transforms are
stored row-major; the graph construction is stored column-wise (per-column
row lists and signs), which is exactly the (d, k) CSR matrix that
projection multiplies by.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .core import (  # MAX_DENSE_ENTRIES and ResourceLimitError are re-exported
    MAX_DENSE_ENTRIES,
    AchlioptasSparse,
    ConstructionKind,
    DenseGaussian,
    GraphSparse,
    Rademacher,
    ResourceLimitError,
    SeedSpec,
    check_entry_budget,
    derive_stream,
    sample_without_replacement,
)

@dataclass(frozen=True)
class DenseTransform:
    """Materialized k x d transform with pre-scaled float64 entries."""

    k: int
    d: int
    entries: np.ndarray
    kind: ConstructionKind
    seed: SeedSpec | None = None

    def __post_init__(self) -> None:
        if self.entries.shape != (self.k, self.d):
            raise ValueError(f"entries must have shape ({self.k}, {self.d}), got {self.entries.shape}")


@dataclass(frozen=True)
class SparseColumnLayout:
    """Graph construction: per-column sorted row indices and signs.

    ``rows[i]`` holds the s strictly increasing row indices of column i and
    ``signs[i]`` the matching +-1 factors.  The stored sign magnitude is 1;
    the 1/sqrt(s) value scale is applied during multiplication (see
    :attr:`scale`), which is arithmetically the pre-scaled column.
    Construction checks these invariants, d >= 1 and 1 <= s <= k.
    """

    k: int
    d: int
    s: int
    rows: np.ndarray
    signs: np.ndarray
    seed: SeedSpec | None = None

    def __post_init__(self) -> None:
        if self.d < 1 or not 1 <= self.s <= self.k:
            raise ValueError(f"need d >= 1 and 1 <= s <= k, got d={self.d}, s={self.s}, k={self.k}")
        shape = (self.d, self.s)
        if self.rows.shape != shape or self.signs.shape != shape:
            raise ValueError(f"rows and signs must have shape {shape}, got {self.rows.shape} and {self.signs.shape}")
        if self.rows.min() < 0 or self.rows.max() >= self.k:
            raise ValueError(f"row index outside [0, {self.k})")
        if not np.all(np.diff(self.rows, axis=1) > 0):
            raise ValueError("row indices of a column are not strictly increasing")
        if not np.all(np.abs(self.signs) == 1):
            raise ValueError("signs must be -1 or +1")

    @property
    def scale(self) -> float:
        return 1.0 / np.sqrt(self.s)


Transform = Union[DenseTransform, SparseColumnLayout]


def check_transform_budget(kind: ConstructionKind, k: int, d: int) -> None:
    """Raise ResourceLimitError when a k x d transform of ``kind`` would
    exceed the entry budget: its (d, s) layout for the graph construction,
    its (k, d) entries for the others."""
    if isinstance(kind, GraphSparse):
        check_entry_budget("graph layout", d, kind.s)
    else:
        check_entry_budget("dense transform", k, d)


def sample_transform(kind: ConstructionKind, k: int, d: int, seed: SeedSpec) -> Transform:
    """Sample a transform of the given family; deterministic in ``seed``.

    Each family makes one generator call for its values, in a fixed
    convention (documented here so fixtures stay stable):

    * DenseGaussian: one (k, d) ``standard_normal`` block, divided by
      sqrt(k).
    * Rademacher: ``ceil(k*d / 8)`` bytes from ``integers(0, 256,
      dtype=uint8)``, unpacked most significant bit first into k*d bits
      read in row-major (k, d) order; bit 1 stores +1/sqrt(k) and bit 0
      stores -1/sqrt(k).
    * AchlioptasSparse: one (k, d) block of ``integers(0, 6,
      dtype=uint8)`` bytes, mapped 0 -> +sqrt(3/k), 1 -> -sqrt(3/k) and
      2, 3, 4, 5 -> +0.0.
    * GraphSparse: all column row-subsets first
      (:func:`~jlproj.core.sample_without_replacement`), then a (d, s)
      block of ``integers(0, 2)`` signs, 1 -> +1 and 0 -> -1.

    The Achlioptas and graph-sign maps are exact: the Achlioptas map turns
    each byte into an integer step in {1, -1, 0} and multiplies it by
    sqrt(3/k), and a sign bit b becomes 2b - 1, so every stored value is
    exactly one of the listed ones.
    """
    if k < 1 or d < 1:
        raise ValueError(f"transform shape must be positive, got k={k}, d={d}")
    if isinstance(kind, GraphSparse) and kind.s > k:
        raise ValueError(f"column sparsity s={kind.s} exceeds k={k}")
    check_transform_budget(kind, k, d)
    rng = derive_stream(seed)
    if isinstance(kind, GraphSparse):
        rows = sample_without_replacement(k, kind.s, rng, count=d)
        signs = rng.integers(0, 2, size=(d, kind.s)).astype(np.float64)
        signs *= 2.0
        signs -= 1.0
        rows.setflags(write=False)
        signs.setflags(write=False)
        return SparseColumnLayout(k=k, d=d, s=kind.s, rows=rows, signs=signs, seed=seed)
    if isinstance(kind, DenseGaussian):
        entries = rng.standard_normal((k, d))
        entries /= np.sqrt(k)
    elif isinstance(kind, Rademacher):
        packed = rng.integers(0, 256, size=-(-k * d // 8), dtype=np.uint8)
        entries = np.unpackbits(packed, count=k * d).astype(np.float64).reshape(k, d)
        # 2/sqrt(k) is exactly twice 1/sqrt(k), so b -> 2b/sqrt(k) - 1/sqrt(k)
        # stores exactly +-(1/sqrt(k)).
        entries *= 2.0 / np.sqrt(k)
        entries -= 1.0 / np.sqrt(k)
    elif isinstance(kind, AchlioptasSparse):
        u = rng.integers(0, 6, size=(k, d), dtype=np.uint8)
        # The step (u == 0) - (u == 1) in {1, -1, 0} is built in place in
        # the entries, so each is exactly +-sqrt(3/k) or +0.0, and the draw
        # holds 9 bytes per entry (bytes and entries) with no temporary.
        entries = np.empty((k, d))
        np.equal(u, 0, out=entries)
        np.equal(u, 1, out=u)
        entries -= u
        del u
        entries *= np.sqrt(3.0 / k)
    else:
        raise TypeError(f"unknown construction kind: {kind!r}")
    entries.setflags(write=False)
    return DenseTransform(k=k, d=d, entries=entries, kind=kind, seed=seed)


# ---------------------------------------------------------------------------
# Binary serialization (little-endian, versioned header; see README)
# ---------------------------------------------------------------------------

_MAGIC = b"JLPX"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIBQQQBQQ")  # magic, version, kind, k, d, s, has_seed, master, stream
_KIND_CODES = {DenseGaussian: 0, Rademacher: 1, AchlioptasSparse: 2, GraphSparse: 3}


def save_transform(transform: Transform, path: str | Path) -> None:
    """Write a transform to ``path`` in the versioned binary format."""
    if isinstance(transform, SparseColumnLayout):
        kind_code, s = _KIND_CODES[GraphSparse], transform.s
    else:
        kind_code, s = _KIND_CODES[type(transform.kind)], 0
    seed = transform.seed
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        kind_code,
        transform.k,
        transform.d,
        s,
        0 if seed is None else 1,
        0 if seed is None else seed.master_seed,
        0 if seed is None else seed.stream_id,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        if isinstance(transform, SparseColumnLayout):
            fh.write(transform.rows.astype("<i8").tobytes())
            fh.write(transform.signs.astype("<i1").tobytes())
        else:
            fh.write(transform.entries.astype("<f8").tobytes())


def load_transform(path: str | Path) -> Transform:
    """Read a transform written by :func:`save_transform`.

    The file is checked before anything is allocated from its header: the
    payload must have exactly the size the header implies.  The loaded
    transform then passes its type's own checks (for a graph layout: rows
    in [0, k), strictly increasing per column, +-1 signs, 1 <= s <= k).
    Any violation raises a one-line ValueError naming the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError(f"{path}: truncated transform file")
        magic, version, kind_code, k, d, s, has_seed, master, stream = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a transform file (bad magic {magic!r})")
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        kind_types = {code: cls for cls, code in _KIND_CODES.items()}
        if kind_code not in kind_types:
            raise ValueError(f"{path}: unknown construction code {kind_code}")
        graph = kind_types[kind_code] is GraphSparse
        if k < 1 or d < 1:
            raise ValueError(f"{path}: transform shape must be positive, got k={k}, d={d}")
        if not graph and s != 0:
            raise ValueError(f"{path}: dense transform header has s={s}, expected 0")
        expected = 9 * d * s if graph else 8 * k * d
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size < expected:
            raise ValueError(f"{path}: truncated payload of {size} bytes, header needs {expected}")
        if size > expected:
            raise ValueError(f"{path}: {size - expected} trailing bytes after the payload")
        payload = fh.read(expected)
    seed = SeedSpec(master, stream) if has_seed else None
    try:
        if graph:
            rows = np.frombuffer(payload, dtype="<i8", count=d * s).reshape(d, s).astype(np.int64)
            signs = np.frombuffer(payload, dtype="<i1", offset=8 * d * s).reshape(d, s).astype(np.float64)
            rows.setflags(write=False)
            signs.setflags(write=False)
            return SparseColumnLayout(k=k, d=d, s=s, rows=rows, signs=signs, seed=seed)
        entries = np.frombuffer(payload, dtype="<f8").reshape(k, d).astype(np.float64)
        entries.setflags(write=False)
        return DenseTransform(k=k, d=d, entries=entries, kind=kind_types[kind_code](), seed=seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
