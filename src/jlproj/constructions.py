"""Sampling and storage of the four random projection families.

Scaling convention: the 1/sqrt(k) factor of the dense families is baked
into the stored values at sampling time, so projection is a plain matrix
product with no extra multiply; the graph construction stores +-1 signs
and its 1/sqrt(s) factor is applied to the product.  Dense transforms are
row-major and drawn in row blocks: a sampled one is held as its recipe and
drawn a block at a time when it is projected, and the join of its blocks
is the documented one-call draw (see :func:`sample_transform`), so no
whole k x d transform is held unless its ``entries`` are read.  The graph
construction is stored column-wise (per-column row lists and signs), which
is exactly the (d, k) CSR matrix that projection multiplies by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

class DenseTransform:
    """A k x d transform with pre-scaled float64 entries.

    A sampled transform is its recipe ``(kind, k, d, seed)``: nothing is
    drawn until :meth:`row_blocks` draws its entries a block of rows at a
    time, or :attr:`entries` is read.  A transform that is built in code
    passes its ``entries`` in; they must have shape (k, d) and be finite.
    """

    def __init__(
        self, k: int, d: int, entries: np.ndarray | None, kind: ConstructionKind, seed: SeedSpec | None = None
    ) -> None:
        self.k, self.d, self.kind, self.seed = k, d, kind, seed
        if entries is None:
            if not isinstance(kind, (DenseGaussian, Rademacher, AchlioptasSparse)):
                raise TypeError(f"unknown construction kind: {kind!r}")
            if seed is None:
                raise ValueError("a dense transform needs its entries or the seed to draw them from")
            return
        if entries.shape != (k, d):
            raise ValueError(f"entries must have shape ({k}, {d}), got {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("entries must be finite")
        self.entries = entries

    @cached_property
    def entries(self) -> np.ndarray:
        """The (k, d) entries, drawn as one row block on first read and kept (read-only)."""
        [(_, entries)] = self.row_blocks(self.k)
        entries.setflags(write=False)
        return entries

    def row_blocks(self, rows: int):
        """``(start, block)`` for consecutive row blocks of at most ``rows``
        rows, a lone trailing row joining the block before it: ``block``
        holds rows ``start, start + 1, ...`` of the entries.

        Once :attr:`entries` is held the blocks are views of it.  Otherwise
        each call draws the blocks afresh from the seed, into one buffer
        that the next block overwrites, so a block must be used before the
        next is drawn; their join is :attr:`entries`, bit for bit (see
        :func:`sample_transform`).
        """
        bounds = list(range(0, self.k, rows)) + [self.k]
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
        if "entries" in self.__dict__:
            return ((a, self.entries[a:b]) for a, b in zip(bounds, bounds[1:]))
        return _drawn_blocks(self.kind, self.k, self.d, self.seed, bounds)


def _drawn_blocks(kind: ConstructionKind, k: int, d: int, seed: SeedSpec, bounds: list[int]):
    """The row blocks ``[a, b)`` of consecutive ``bounds`` of a fresh draw,
    in one reused buffer (see :meth:`DenseTransform.row_blocks`)."""
    rng = derive_stream(seed)
    if isinstance(kind, Rademacher):
        packed = rng.integers(0, 256, size=-(-k * d // 8), dtype=np.uint8)
    elif isinstance(kind, AchlioptasSparse):
        # numpy buffers uint8 draws within one call, so the bytes are one
        # (k, d) draw; splitting it would change them.
        u = rng.integers(0, 6, size=(k, d), dtype=np.uint8)
    buf = np.empty((max(b - a for a, b in zip(bounds, bounds[1:])), d))
    for a, b in zip(bounds, bounds[1:]):
        block = buf[: b - a]
        if isinstance(kind, DenseGaussian):
            rng.standard_normal(out=block)
            block /= np.sqrt(k)
        elif isinstance(kind, Rademacher):
            # Bits a*d .. b*d of the packed bytes, in row-major order.
            lo, hi = a * d, b * d
            block.reshape(-1)[:] = np.unpackbits(packed[lo // 8 : -(-hi // 8)])[lo % 8 : lo % 8 + hi - lo]
            # 2/sqrt(k) is exactly twice 1/sqrt(k), so b -> 2b/sqrt(k) - 1/sqrt(k)
            # stores exactly +-(1/sqrt(k)).
            block *= 2.0 / np.sqrt(k)
            block -= 1.0 / np.sqrt(k)
        else:
            # The step (u == 0) - (u == 1) in {1, -1, 0} is built in place in
            # the block, so each entry is exactly +-sqrt(3/k) or +0.0; the
            # bytes' own rows are reused for u == 1, as each is read once.
            step = u[a:b]
            np.equal(step, 0, out=block)
            np.equal(step, 1, out=step)
            block -= step
            block *= np.sqrt(3.0 / k)
        yield a, block


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


def check_transform(kind: ConstructionKind, k: int, d: int) -> None:
    """Check that a k x d transform of ``kind`` can be drawn: a positive shape
    and s <= k for the graph construction (ValueError), then the entry budget
    of its (d, s) layout or its (k, d) entries (ResourceLimitError)."""
    if k < 1 or d < 1:
        raise ValueError(f"transform shape must be positive, got k={k}, d={d}")
    if isinstance(kind, GraphSparse):
        if kind.s > k:
            raise ValueError(f"column sparsity s={kind.s} exceeds k={k}")
        check_entry_budget("graph layout", d, kind.s)
    else:
        check_entry_budget("dense transform", k, d)


def sample_transform(kind: ConstructionKind, k: int, d: int, seed: SeedSpec) -> Transform:
    """Sample a transform of the given family; deterministic in ``seed``.

    A graph layout is drawn here.  A dense family returns its recipe, a
    :class:`DenseTransform` whose entries are drawn in row blocks when it
    is projected (:meth:`DenseTransform.row_blocks`) or when its
    ``entries`` are read.  The join of the blocks is always the one-call
    draw below, a convention fixed so that fixtures stay stable:

    * DenseGaussian: one (k, d) ``standard_normal`` block, divided by
      sqrt(k).  A row block is the next ``standard_normal`` draw of its
      size, and consecutive draws join into the one-call draw.
    * Rademacher: ``ceil(k*d / 8)`` bytes from ``integers(0, 256,
      dtype=uint8)``, unpacked most significant bit first into k*d bits
      read in row-major (k, d) order; bit 1 stores +1/sqrt(k) and bit 0
      stores -1/sqrt(k).  The bytes are one draw; each row block unpacks
      its own bits.
    * AchlioptasSparse: one (k, d) block of ``integers(0, 6,
      dtype=uint8)`` bytes, mapped 0 -> +sqrt(3/k), 1 -> -sqrt(3/k) and
      2, 3, 4, 5 -> +0.0.  The bytes are one draw, held while the blocks
      are mapped from it.
    * GraphSparse: all column row-subsets first
      (:func:`~jlproj.core.sample_without_replacement`), then a (d, s)
      block of ``integers(0, 2)`` signs, 1 -> +1 and 0 -> -1.

    The Achlioptas and graph-sign maps are exact: the Achlioptas map turns
    each byte into an integer step in {1, -1, 0} and multiplies it by
    sqrt(3/k), and a sign bit b becomes 2b - 1, so every stored value is
    exactly one of the listed ones.
    """
    check_transform(kind, k, d)
    if isinstance(kind, GraphSparse):
        rng = derive_stream(seed)
        rows = sample_without_replacement(k, kind.s, rng, count=d)
        signs = rng.integers(0, 2, size=(d, kind.s)).astype(np.float64)
        signs *= 2.0
        signs -= 1.0
        rows.setflags(write=False)
        signs.setflags(write=False)
        return SparseColumnLayout(k=k, d=d, s=kind.s, rows=rows, signs=signs)
    return DenseTransform(k=k, d=d, entries=None, kind=kind, seed=seed)

