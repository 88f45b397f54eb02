"""Domain types, deterministic random streams, and unit-vector generators.

Randomness contract
-------------------
Every random quantity in this package is a pure function of a ``SeedSpec``,
a ``(master_seed, stream_id)`` pair of 64-bit unsigned integers.  A spec is
turned into a stream by keying the counter-based Philox4x64-10 bit generator
with the 128-bit integer ``stream_id * 2**64 + master_seed``; distinct specs
therefore yield independent streams regardless of the order in which they
are consumed, which is what makes parallel experiment cells reproducible.

Draw conventions (fixed so that golden fixtures stay stable):

* normals:  ``Generator.standard_normal`` (numpy's ziggurat method)
* bounded integers: ``Generator.integers`` (Lemire rejection sampling)
* fair bits: ``ceil(n / 8)`` bytes from ``Generator.integers(0, 256,
  dtype=uint8)``, unpacked most significant bit first into n bits read in
  row-major order of the block they fill
* uniform m-subsets: partial Fisher-Yates on per-subset pools of the
  narrowest signed integer type that holds range(n) (int8 for n <= 2^7,
  int16 for n <= 2^15, then int32 and int64), drawn in fixed chunks of
  subsets (:func:`subset_blocks`); the blocks it yields are the draw
  order, in the pool's type, each row sorted.  One chunk is held at a
  time: a chunk's pool is held transposed (position j of every subset is
  one contiguous row) and freed before its block is sorted and yielded.
  :func:`sample_without_replacement` is their concatenation in int64; a
  sparse input batch keeps them in the pool's type.  The type changes no
  value and no draw.

Each transform family has one draw convention, documented in
:func:`jlproj.constructions.sample_transform`: Rademacher signs are fair
bits (k*d of them, bit 1 -> +1/sqrt(k)), Gaussian entries scaled normals
and Achlioptas entries mapped ``integers(0, 6, dtype=uint8)`` bytes
(0 -> +sqrt(3/k), 1 -> -sqrt(3/k), 2..5 -> 0).

Each input family has one draw convention, defined by its batch sampler
(:func:`sample_unit_sphere_batch`, :func:`sample_sparse_unit_batch`); a
single draw is a batch of one.  Both normalise their draws in place, a
few MB of rows at a time; each row's norm is bit for bit the one
``np.linalg.norm`` gives over the whole block, so values are unchanged.

All floating-point arithmetic is float64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

_UINT64_MAX = (1 << 64) - 1

# Refuse input blocks and transforms beyond this many entries (8 GiB of
# float64) instead of letting numpy attempt them.
MAX_DENSE_ENTRIES = 1 << 30

# Pool rows per chunk in the batched without-replacement sampler are capped
# so the (chunk, n) scratch array stays around 32 MB even at d = 10^4.
_FY_CHUNK_BYTES = 1 << 25

# Rows per block when input draws are normalised: np.linalg.norm squares
# its argument into a temporary, which this caps near 4 MB.
_NORM_BLOCK_BYTES = 1 << 22


class ResourceLimitError(RuntimeError):
    """Requested array would exceed the addressable-memory budget."""


def check_entry_budget(what: str, rows: int, cols: int) -> None:
    """Raise ResourceLimitError when a rows x cols block exceeds MAX_DENSE_ENTRIES."""
    if rows * cols > MAX_DENSE_ENTRIES:
        raise ResourceLimitError(f"{what} of {rows}x{cols} entries exceeds the {MAX_DENSE_ENTRIES} entry budget")


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"batch size must be non-negative, got count={count}")


@dataclass(frozen=True)
class DenseGaussian:
    """Dense transform; entries i.i.d. normal with variance 1/k."""


@dataclass(frozen=True)
class Rademacher:
    """Dense transform; entries +-1/sqrt(k) with equal probability."""


@dataclass(frozen=True)
class AchlioptasSparse:
    """Sparse discrete transform; entries sqrt(3/k) * {+1 w.p. 1/6, 0 w.p. 2/3, -1 w.p. 1/6}."""


@dataclass(frozen=True)
class GraphSparse:
    """Column-sparse transform: each column gets exactly ``s`` rows, values +-1/sqrt(s).

    Rows are drawn uniformly without replacement per column; signs are
    independent fair coin flips.  Requires 1 <= s <= k at sampling time.
    """

    s: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError(f"GraphSparse needs s >= 1, got s={self.s}")


ConstructionKind = Union[DenseGaussian, Rademacher, AchlioptasSparse, GraphSparse]


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one deterministic random stream.

    ``master_seed`` identifies the experiment, ``stream_id`` the role within
    it (a transform instance, a vector batch, a verification trial, ...).
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if not 0 <= value <= _UINT64_MAX:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value}")

    def stream(self, stream_id: int) -> "SeedSpec":
        """Same master seed, different stream."""
        return SeedSpec(self.master_seed, stream_id)


def derive_stream(seed: SeedSpec) -> np.random.Generator:
    """Deterministic generator for a seed spec.

    The Philox key is ``stream_id * 2**64 + master_seed``, so equal specs
    give bit-identical streams and unequal specs give independent ones.
    """
    key = (seed.stream_id << 64) | seed.master_seed
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class InputVector:
    """Unit-norm input vector, stored dense or as sorted sparse pairs.

    Dense storage: ``indices is None`` and ``values`` has length ``dim``.
    Sparse storage: ``indices`` is strictly increasing with values aligned.
    Checked as a batch of one (:class:`InputBatch`); arrays are immutable.
    """

    dim: int
    values: np.ndarray
    indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.batch()

    def batch(self) -> "InputBatch":
        """This vector as a batch of one, made of views."""
        return InputBatch(self.dim, self.values[None], None if self.indices is None else self.indices[None])

    @property
    def nnz(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class InputBatch:
    """``n`` inputs of one storage as one block, checked once.

    Dense storage: ``indices is None`` and ``values`` has shape (n, dim).
    Sparse storage: ``values`` and ``indices`` have shape (n, t), each index
    row strictly increasing in [0, dim); the indices may be of any integer
    type (the sampler's are the narrowest that fits dim, see
    :func:`sample_sparse_unit_batch`).  ``batch[i]`` is row i as an
    :class:`InputVector` of views.  Arrays are treated as immutable, so the
    row norms and the sparse support (the sorted distinct columns the
    indices use) are computed on first use and cached.
    """

    dim: int
    values: np.ndarray
    indices: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if self.values.ndim != 2:
            raise ValueError(f"an input batch needs 2-D values, got shape {self.values.shape}")
        if self.indices is None:
            if self.values.shape[1] != self.dim:
                raise ValueError(f"dense storage needs {self.dim} values per row, got {self.values.shape[1]}")
            return
        if self.indices.shape != self.values.shape:
            raise ValueError("sparse indices and values must align")
        if not np.issubdtype(self.indices.dtype, np.integer):
            raise ValueError(f"sparse indices must be integers, got {self.indices.dtype}")
        if self.indices.size and (self.indices[:, 0].min() < 0 or self.indices[:, -1].max() >= self.dim):
            raise ValueError(f"sparse indices must lie in [0, {self.dim})")
        # A comparison, not np.diff, which would wrap for unsigned indices.
        if not np.all(self.indices[:, 1:] > self.indices[:, :-1]):
            raise ValueError("sparse indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def norms(self) -> np.ndarray:
        """Euclidean norm of each row, computed on first use and kept (read-only)."""
        # einsum sums each row's squares without an (n, d) temporary.
        norms = np.sqrt(np.einsum("ij,ij->i", self.values, self.values))
        norms.setflags(write=False)
        return norms

    @cached_property
    def support(self) -> np.ndarray | None:
        """Sorted distinct columns the sparse rows use (None for dense
        storage), computed on first use and kept (read-only)."""
        if self.indices is None:
            return None
        # A dim-sized mask, not np.unique, which sorts a copy of all n * t indices.
        used = np.zeros(self.dim, dtype=bool)
        used[self.indices] = True
        support = np.flatnonzero(used)
        support.setflags(write=False)
        return support

    def __getitem__(self, i: int) -> InputVector:
        return InputVector(self.dim, self.values[i], None if self.indices is None else self.indices[i])


def _normalize_rows(block: np.ndarray) -> None:
    """Divide each row of ``block`` by its norm, in place, in row blocks of
    at most ``_NORM_BLOCK_BYTES``: ``np.linalg.norm`` of a row slice gives
    each row's norm bit for bit, without a second full-size array."""
    rows = max(1, _NORM_BLOCK_BYTES // (8 * block.shape[1]))
    for start in range(0, len(block), rows):
        part = block[start : start + rows]
        part /= np.linalg.norm(part, axis=1, keepdims=True)


def sample_unit_sphere(d: int, seed: SeedSpec) -> InputVector:
    """Uniform draw from the unit sphere in R^d: a batch of one."""
    return sample_unit_sphere_batch(d, 1, seed)[0]


def sample_unit_sphere_batch(d: int, count: int, seed: SeedSpec) -> InputBatch:
    """``count`` independent sphere vectors from one stream (row-by-row normals)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    _check_count(count)
    check_entry_budget("dense input block", count, d)
    rng = derive_stream(seed)
    block = rng.standard_normal((count, d))
    _normalize_rows(block)
    block.setflags(write=False)
    return InputBatch(d, block)


def sample_sparse_unit_batch(d: int, t: int, count: int, seed: SeedSpec) -> InputBatch:
    """``count`` independent sparse unit vectors from one stream.

    Each support is t positions uniform without replacement; nonzero values
    are i.i.d. standard normal, then normalized to unit norm.  Supports are
    drawn for the whole batch first, then the (count, t) value block.  The
    supports are the blocks of :func:`subset_blocks` written into one
    (count, t) index array of their own type, the narrowest that fits d
    (int8 for d <= 2^7, int16 for d <= 2^15, then int32), for every count
    including 0; its values are those of :func:`sample_without_replacement`
    for the same stream.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got d={d}")
    if t < 1 or t > d:
        raise ValueError(f"support size must satisfy 1 <= t <= d, got t={t}, d={d}")
    _check_count(count)
    check_entry_budget("sparse input block", count, t)
    rng = derive_stream(seed)
    idx = _joined_subsets(d, t, rng, count, _subset_dtype(d))
    vals = rng.standard_normal((count, t))
    _normalize_rows(vals)
    idx.setflags(write=False)
    vals.setflags(write=False)
    return InputBatch(d, vals, idx)


def sample_without_replacement(n: int, m: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` sorted uniform m-subsets of range(n), int64 (count, m): the
    blocks of :func:`subset_blocks` in one array."""
    return _joined_subsets(n, m, rng, count, np.int64)


def _joined_subsets(n: int, m: int, rng: np.random.Generator, count: int, dtype) -> np.ndarray:
    """The blocks of :func:`subset_blocks` written into one (count, m) array of ``dtype``."""
    blocks = subset_blocks(n, m, rng, count)
    out = np.empty((count, m), dtype=dtype)
    for start, block in blocks:
        out[start : start + len(block)] = block
    return out


def _subset_dtype(n: int):
    """The narrowest signed integer type that holds every value in range(n)."""
    for dtype in (np.int8, np.int16, np.int32):
        if n <= np.iinfo(dtype).max + 1:
            return dtype
    return np.int64


def subset_blocks(n: int, m: int, rng: np.random.Generator, count: int):
    """``count`` sorted uniform m-subsets of range(n) via partial Fisher-Yates,
    as an iterator of ``(start, block)``: ``block`` holds subsets
    ``start, start + 1, ...`` as rows, each row sorted, in the narrowest
    signed integer type that holds range(n): int8 for n <= 2^7, int16 for
    n <= 2^15, then int32 and int64.

    Exactly uniform over the C(n, m) subsets.  There is one block per draw
    chunk of ``_FY_CHUNK_BYTES // (8 * n)`` subsets, each drawing its m
    ``integers(j, n, size=chunk)`` vectors in turn, so the blocks are the
    draw order: that row count stays tied to 8 bytes per entry even though
    the pool is narrow.  The full-set case m == n consumes no draws; its
    blocks are read-only broadcast views, chunked the same way so that a
    reader's per-block scratch stays bounded.  Arguments are checked here,
    not at the first block.
    """
    _check_count(count)
    if m < 0 or m > n:
        raise ValueError(f"subset size must satisfy 0 <= m <= n, got m={m}, n={n}")
    return _fisher_yates_blocks(n, m, rng, count)


def _fisher_yates_blocks(n: int, m: int, rng: np.random.Generator, count: int):
    dtype = _subset_dtype(n)
    chunk = max(1, _FY_CHUNK_BYTES // (8 * n))
    for start in range(0, count, chunk):
        c = min(chunk, count - start)
        if m == n:
            yield start, np.broadcast_to(np.arange(n, dtype=dtype), (c, n))
        else:
            # Yielded straight from the call, so this frame keeps no
            # reference to the block, and the chunk's pool is already freed.
            yield start, _fisher_yates_chunk(n, m, rng, c, dtype)


def _fisher_yates_chunk(n: int, m: int, rng: np.random.Generator, c: int, dtype) -> np.ndarray:
    """The first m entries of c partially shuffled pools of range(n), each row sorted.

    The pools are held transposed, shape (n, c), so position j of every
    pool is the contiguous row ``pool[j]`` and a swap is one flat gather
    and scatter at ``pick * c + arange(c)``.
    """
    pool = np.broadcast_to(np.arange(n, dtype=dtype)[:, None], (n, c)).copy()
    flat = pool.reshape(-1)
    ar = np.arange(c)
    for j in range(m):
        at = rng.integers(j, n, size=c)
        at *= c
        at += ar
        chosen = flat[at]
        flat[at] = pool[j]
        pool[j] = chosen
    block = pool[:m].T.copy()
    del pool, flat
    if dtype == np.int8:
        # numpy sorts int16 rows faster than int8 ones (5x at 16 entries).
        # The widened copy is made only now, after the pool is freed.
        wide = block.astype(np.int16)
        wide.sort(axis=1)
        block[...] = wide
    else:
        block.sort(axis=1)
    return block
