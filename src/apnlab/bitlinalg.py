"""GF(2) linear algebra: batched ranks of narrow vectors, and an echelon
basis of bit-packed rows of any width.

:func:`row_ranks` ranks many small sets of vectors of at most 64 bits at
once, each vector held in one integer.  Wide rows are packed into numpy
uint64 words, 64 columns per word, column j in word ``j >> 6`` at bit
``j & 63`` (LSB first).  Their rank is computed by absorbing rows into an
incremental echelon basis.  A stored row is written once and never
rewritten; each finished block of 8 rows carries a 256-entry index map from
pivot bits to table entries, so one 256-entry XOR table per block clears
the block's pivot columns from a work chunk with one gather (four-Russians
style).

:func:`split_run` runs one job over contiguous ranges of its items, one
range per CPU the process may run on: the rows of a :class:`GF2Basis` chunk
(each range reduced with its own table), the (a, b) pairs of a resultant
pass, and the mu rows (or, in a one-mu pass, the v columns) of a key-lemma
pass in :mod:`apnlab.analysis`.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .errors import MemoryBudgetError, PreconditionError

__all__ = [
    "GF2Basis",
    "check_alloc",
    "mem_budget_bytes",
    "row_ranks",
    "split_run",
    "xor_permute_columns",
]

_CHUNK_ROWS = 2048
# Bytes of chunk rows per table gather: a slice stays in cache while it is
# XORed in (64 rows of the GF(2^8) incidence matrix).
_SLICE_BYTES = 1 << 19
#: CPUs this process may run on; :func:`split_run` splits work across them.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
#: Fewest rows per worker: a table's entry count, so that no worker spends
#: more on building its table than on its gathers.
_MIN_PART_ROWS = 256
#: Bytes per row of basis capacity besides the row: its pivot's column,
#: word and mask (3 x 8 B) and its share of its block's 256-entry uint8
#: index map (256 / 8 B).
_ROW_INDEX_BYTES = 3 * 8 + 256 // 8
#: Bytes per chunk row of a reduction's temporaries while it reads a block's
#: pivot bits: the row's 8 pivot words and their masked copy (64 B each),
#: their flags, packed bits and table index.  Measured (tracemalloc, 2048
#: rows of 16 words): 155 B per row.
_PIVOT_BIT_BYTES = 160

# Butterfly masks: bit positions whose t-th index bit is 0.
_BFLY = (
    np.uint64(0x5555555555555555),
    np.uint64(0x3333333333333333),
    np.uint64(0x0F0F0F0F0F0F0F0F),
    np.uint64(0x00FF00FF00FF00FF),
    np.uint64(0x0000FFFF0000FFFF),
    np.uint64(0x00000000FFFFFFFF),
)


def mem_budget_bytes() -> int:
    """Memory budget in bytes, from APNLAB_MEM_BUDGET_GIB; unset, the smaller
    of 12 GiB and 0.8 x the MemAvailable of ``/proc/meminfo``."""
    text = os.environ.get("APNLAB_MEM_BUDGET_GIB")
    if text is None:
        return int(min(12 << 30, 0.8 * _meminfo_bytes(("MemAvailable",))))
    try:
        gib = float(text)
    except ValueError:
        gib = math.nan
    if not (math.isfinite(gib) and gib >= 0):
        raise PreconditionError(
            f"APNLAB_MEM_BUDGET_GIB must be a finite number >= 0, got {text!r}")
    return int(gib * (1 << 30))


def check_alloc(nbytes: int, what: str, budget: int | None = None) -> None:
    """Before allocating ``nbytes`` for ``what``: raise MemoryBudgetError
    above ``budget`` (default :func:`mem_budget_bytes`)."""
    limit = mem_budget_bytes() if budget is None else budget
    if nbytes > limit:
        raise MemoryBudgetError(f"{what} needs {nbytes} bytes, budget is {limit}")


def _meminfo_bytes(keys: tuple[str, ...], path: str = "/proc/meminfo") -> float:
    """Sum of the ``keys`` fields of ``path`` in bytes, or infinity where
    ``path`` does not give them all."""
    try:
        with open(path, encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return sum(int(fields[key].split()[0]) for key in keys) << 10
    except (OSError, ValueError, KeyError, IndexError):
        return math.inf


def _words_for(cols: int) -> int:
    return (cols + 63) >> 6


def _parts(size: int, minimum: int) -> int:
    """Number of ranges :func:`split_run` cuts ``size`` items into."""
    return max(1, min(_WORKERS, size // minimum))


@functools.cache
def _pool():
    """The package's worker threads, started by the first split; the ranges
    run NumPy gathers and arithmetic, which release the GIL, side by side."""
    from concurrent.futures import ThreadPoolExecutor  # 8 ms: import on use
    return ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="apnlab")


def split_run(work, size: int, minimum: int) -> list:
    """``[work(k, lo, hi), ...]`` over contiguous ranges ``lo..hi-1`` that
    cover ``range(size)``, one per CPU but none under ``minimum`` items (at
    least one range; the first ``size % parts`` hold one item more).

    Range 0 runs on the calling thread and the others on the pool, so one
    range starts no thread.  Results come in range order; every range has
    finished when this returns or raises, and a worker's error is re-raised.
    """
    parts = _parts(size, minimum)
    q, r = divmod(size, parts)
    cuts = [k * q + min(k, r) for k in range(parts + 1)]
    futures = [_pool().submit(work, k, cuts[k], cuts[k + 1])
               for k in range(1, parts)]
    try:
        head = work(0, 0, cuts[1])
    finally:
        for future in futures:
            future.exception()  # waits; no range outlives the call
    return [head] + [future.result() for future in futures]


def xor_permute_columns(data: np.ndarray, mask: int, cols: int) -> np.ndarray:
    """Translate the packed rows ``data`` in place, one ``_SLICE_BYTES``
    slice at a time, so column j holds the old column j XOR mask; return it.

    The column count must be a power of two covering the mask (the operation
    is translation by a group element of (F_2^k, +)).
    """
    if cols & (cols - 1):
        raise PreconditionError("xor-permute needs a power-of-two column count")
    if not 0 <= mask < cols:
        raise PreconditionError("mask out of range")
    words = _words_for(cols)
    if data.ndim != 2 or data.shape[1] != words or data.dtype != np.uint64:
        raise PreconditionError(f"xor-permute needs rows of {words} uint64 words")
    hi, lo = mask >> 6, mask & 63
    order = np.arange(words) ^ hi  # below words, a power of two above hi
    step = max(1, _SLICE_BYTES // (8 * words))
    scratch = np.empty_like(data[:step])
    for r0 in range(0, data.shape[0], step):
        rows = data[r0: r0 + step]
        tmp = scratch[: rows.shape[0]]
        if hi:
            np.take(rows, order, axis=1, out=tmp, mode="clip")
            rows[...] = tmp
        for t in range(6):
            if (lo >> t) & 1:  # swap the bits of _BFLY[t] with those s up
                s = np.uint64(1 << t)
                np.right_shift(rows, s, out=tmp)
                tmp ^= rows
                tmp &= _BFLY[t]
                rows ^= tmp
                tmp <<= s
                rows ^= tmp
    return data


# ---------------------------------------------------------------------------
# Incremental echelon basis


class GF2Basis:
    """Echelon basis of a GF(2) row space in one row store, reserved once.

    Invariants: every stored row was fully reduced against the rows stored
    before it, and a stored row is never rewritten, so the rows stored
    before any moment keep their values after it.  Each finished block of 8
    rows carries an index map: entry ``h`` is the combination of block rows
    whose pivot bits are ``h`` (the inverse of the block's unitriangular
    pivot-bit map).
    ``absorb`` stages incoming rows in chunks after the stored rows, reduces
    them there and moves the survivors down; the final ``rank`` equals the
    rank of everything absorbed.  ``stage`` gathers stored rows there, for a
    caller to translate in place and absorb with no copy of its own.
    """

    #: Elimination backend, recorded by benchmark run metadata.
    backend = "numpy"

    def __init__(self, cols: int):
        if cols <= 0:
            raise PreconditionError("column count must be positive")
        self.cols = cols
        self.words = _words_for(cols)
        # read once: the default follows MemAvailable, which the basis lowers;
        # the OS refuses a store past RAM and swap
        self._budget = int(min(mem_budget_bytes(),
                               _meminfo_bytes(("MemTotal", "SwapTotal"))))
        # empty until the first absorb has checked its rows against the budget
        self._reserve(0)
        self.count = 0
        self._tables: list[np.ndarray] = []  # one per worker, made on use

    @property
    def rank(self) -> int:
        return self.count

    def check_absorb(self, rows: int, held: int) -> None:
        """Raise :class:`MemoryBudgetError` when absorbing ``rows`` rows, with
        ``held`` bytes of the caller's, would exceed the budget read at
        construction (which every reserved row fits): the basis with the rows
        written, its pivot arrays and index maps, their pivot-bit temporaries,
        every worker's table and slice of table rows (or translate scratch)."""
        parts = _parts(rows, _MIN_PART_ROWS)
        tables = max(len(self._tables), parts)
        row = self.words * 8
        gathers = parts * min(_SLICE_BYTES, -(-rows // parts) * row)
        check_alloc((self.count + rows) * (row + _ROW_INDEX_BYTES) + gathers
                    + held + rows * _PIVOT_BIT_BYTES + 256 * tables * row,
                    f"absorbing {rows} rows (basis and {tables} tables)",
                    self._budget)

    def stage(self, take: np.ndarray, held: int) -> np.ndarray:
        """Gather up to ``_CHUNK_ROWS`` stored rows ``take`` into the rows
        after the basis, once :meth:`check_absorb` passes them with ``held``
        bytes; return those rows, a view that :meth:`absorb` takes in place
        and the next ``stage`` or ``absorb`` overwrites."""
        k = take.size
        if k > _CHUNK_ROWS or k and not 0 <= take.min() <= take.max() < self.count:
            raise PreconditionError(f"stage takes up to {_CHUNK_ROWS} rows below count")
        self.check_absorb(k, held)
        staged = self._rows[self.count: self.count + k]
        # indices are checked above; mode="raise" would buffer the whole chunk
        np.take(self._rows[: self.count], take, axis=0, out=staged, mode="clip")
        return staged

    def _reserve(self, cap: int) -> None:
        """Allocate the row store and per-row arrays for ``cap`` rows as one
        block: ``np.zeros`` commits a page only when it is written, and no
        array of the basis is left in the malloc heap among the closure's
        temporaries (five arrays apart raised Table 4 row 12's peak RSS by
        about 2 MiB over repeated rounds)."""
        block = np.zeros(cap * (self.words + 3) + cap // 8 * 32, dtype=np.uint64)
        rows, piv, index = np.split(block, [cap * self.words,
                                            cap * (self.words + 3)])
        self._rows = rows.reshape(cap, self.words)
        self._piv_col, self._piv_word = piv[: 2 * cap].view(np.int64).reshape(2, cap)
        self._piv_mask = piv[2 * cap:]
        self._index_map = index.view(np.uint8).reshape(cap // 8, 256)

    def absorb(self, rows: np.ndarray, out: np.ndarray | None = None) -> int:
        """Absorb packed rows (k, words); return the number of new pivots.

        If ``out`` (a boolean array of length k) is given, ``out[i]`` is set
        to whether row i gave a pivot, i.e. was appended to the basis.
        """
        rows = np.asarray(rows, dtype=np.uint64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.shape[1] != self.words:
            raise PreconditionError("row width mismatch")
        if out is not None and out.shape != (rows.shape[0],):
            raise PreconditionError("out must hold one flag per row")
        before = self.count
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            part = rows[start: start + _CHUNK_ROWS]
            k = part.shape[0]
            self.check_absorb(k, 0)
            if not self._rows.shape[0]:
                # every pivot row and a chunk after them, or all the budget holds
                self._reserve(min(self.cols + _CHUNK_ROWS, self._budget
                                  // (self.words * 8 + _ROW_INDEX_BYTES)))
            self._rows[self.count: self.count + k] = part  # no-op if staged
            gave = self._absorb_chunk(self._rows[self.count: self.count + k])
            if out is not None:
                out[start: start + k] = gave
        return self.count - before

    def _build_table8(self, base: int, t: np.ndarray) -> None:
        """Make entry ``idx`` of ``t`` the XOR of the block rows whose bit is
        set in ``idx``; built by doubling, one vector XOR per row."""
        t[0] = 0
        for k in range(8):
            np.bitwise_xor(t[: 1 << k], self._rows[base + k],
                           out=t[1 << k: 2 << k])

    def _pivot_bits(self, rows: np.ndarray, base: int) -> np.ndarray:
        """Bit k of entry i: row i has the pivot column of block row k set."""
        hit = (rows[:, self._piv_word[base: base + 8]]
               & self._piv_mask[base: base + 8]) != 0
        return np.packbits(hit, axis=1, bitorder="little")[:, 0]

    def _reduce_blocks(self, chunk: np.ndarray, lo: int, hi: int) -> None:
        """Clear the pivot columns of blocks ``lo..hi-1`` from all chunk rows.

        The rows are cut into one contiguous range per worker, each reduced
        with its own table, inline when there is one range; every row gets
        the same XORs in the same order either way.
        """
        if lo >= hi:
            return
        parts = _parts(chunk.shape[0], _MIN_PART_ROWS)
        while len(self._tables) < parts:
            self._tables.append(np.empty((256, self.words), dtype=np.uint64))

        def reduce(k: int, r0: int, r1: int) -> None:
            # a view: the range is reduced in place
            self._reduce_range(chunk[r0:r1], self._tables[k], lo, hi)

        split_run(reduce, chunk.shape[0], _MIN_PART_ROWS)

    def _reduce_range(self, rows: np.ndarray, table: np.ndarray, lo: int,
                      hi: int) -> None:
        """Clear blocks ``lo..hi-1`` from ``rows``, building each block's
        table in ``table``."""
        # gather into cache-sized row slices, not one chunk-sized temporary
        step = max(1, _SLICE_BYTES // (8 * self.words))
        for blk in range(lo, hi):
            self._build_table8(blk * 8, table)
            idx = self._index_map[blk][self._pivot_bits(rows, blk * 8)]
            for r0 in range(0, rows.shape[0], step):
                rows[r0: r0 + step] ^= table[idx[r0: r0 + step]]

    def _row_reduce_tail(self, row: np.ndarray, lo: int, hi: int) -> None:
        for t in range(lo, hi):
            if row[self._piv_word[t]] & self._piv_mask[t]:
                row ^= self._rows[t]

    def _find_lead(self, row: np.ndarray) -> int:
        nz = np.flatnonzero(row)
        if nz.size == 0:
            return -1
        w = int(nz[0])
        v = int(row[w])
        return (w << 6) + ((v & -v).bit_length() - 1)

    def _append(self, row: np.ndarray, lead: int) -> None:
        c = self.count
        self._rows[c] = row
        self._piv_col[c] = lead
        self._piv_word[c] = lead >> 6
        self._piv_mask[c] = np.uint64(1) << np.uint64(lead & 63)
        self.count = c + 1
        if self.count % 8 == 0:
            # table entry e has pivot bits bits[e]; the map inverts that
            base = self.count - 8
            own = self._pivot_bits(self._rows[base: self.count], base)
            bits = np.zeros(256, dtype=np.uint8)
            for k in range(8):
                np.bitwise_xor(bits[: 1 << k], own[k], out=bits[1 << k: 2 << k])
            self._index_map[base >> 3, bits] = np.arange(256, dtype=np.uint8)

    def _absorb_chunk(self, chunk: np.ndarray) -> np.ndarray:
        """Reduce the chunk staged at row ``count`` and append its survivors;
        return which rows gave pivots.  A survivor moves to row ``count``,
        never past its own, so no unreduced row is overwritten."""
        applied = self.count // 8
        self._reduce_blocks(chunk, 0, applied)
        nrows = chunk.shape[0]
        gave = np.zeros(nrows, dtype=bool)
        for i in range(nrows):
            self._reduce_blocks(chunk[i:], applied, self.count // 8)
            applied = self.count // 8
            row = chunk[i]
            self._row_reduce_tail(row, applied * 8, self.count)
            lead = self._find_lead(row)
            if lead >= 0:
                self._append(row, lead)
                gave[i] = True
        return gave


def row_ranks(vectors: np.ndarray) -> np.ndarray:
    """GF(2) rank of the vectors (integers of at most 64 bits) in each row
    of ``vectors``.

    Gaussian elimination on every row at once, vector by vector: vector j,
    reduced by the ones before it, is its row's pivot unless it is zero,
    and is XORed into each later vector of the row that has its lowest set
    bit.  No later XOR brings that bit back, so each nonzero pivot adds one
    to the rank.  The work runs on a transposed copy, where vector j of
    every row is one contiguous array.
    """
    vectors = np.array(np.transpose(vectors), order="C")
    ranks = np.zeros(vectors.shape[1], dtype=np.int64)
    for j in range(vectors.shape[0]):
        pivot = vectors[j]
        low = pivot & (~pivot + 1)  # the lowest set bit; 0 for a zero pivot
        later = vectors[j + 1:]
        later ^= ((later & low) != 0) * pivot
        ranks += low != 0
    return ranks
