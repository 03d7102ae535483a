"""GF(2) linear algebra: batched ranks of narrow vectors, and an echelon
basis of bit-packed rows of any width.

:func:`row_ranks` ranks many small sets of vectors of at most 64 bits at
once, each vector held in one integer.  Wide rows are packed by :func:`pack`
into numpy uint64 words, 64 columns per word, column j in word ``j >> 6`` at
bit ``j & 63`` (LSB first).  Their rank is computed by absorbing rows into an
incremental echelon basis.  A stored row is written once and never
rewritten; each finished block of 8 rows carries a 256-entry index map from
pivot bits to table entries, so one 256-entry XOR table per block clears
the block's pivot columns from a work chunk with one gather (four-Russians
style).

:func:`split_run` runs one job over contiguous ranges of its items, one
range per CPU the process may run on: the rows of a :class:`GF2Basis` chunk
(each range reduced with its own table), and the points or tuples of a pass
of the resultant and key-lemma sweeps in :mod:`apnlab.analysis`.
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
    "pack",
    "rank",
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
        return int(min(12 << 30, 0.8 * _mem_available_bytes()))
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


def _mem_available_bytes(path: str = "/proc/meminfo") -> float:
    """MemAvailable in bytes, or infinity where ``path`` does not give it."""
    try:
        with open(path, encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
        return int(fields["MemAvailable"].split()[0]) << 10
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
    """Return a C-ordered copy with column j holding the old column j XOR mask.

    The column count must be a power of two covering the mask (the operation
    is translation by a group element of (F_2^k, +)).
    """
    if cols & (cols - 1):
        raise PreconditionError("xor-permute needs a power-of-two column count")
    if not 0 <= mask < cols:
        raise PreconditionError("mask out of range")
    data = np.ascontiguousarray(data)
    out = data
    hi = mask >> 6
    if hi:
        # np.take returns a new C-ordered array; fancy indexing on axis 1
        # would return an F-ordered one that needs a second copy
        out = np.take(out, np.arange(data.shape[1]) ^ hi, axis=1)
    lo = mask & 63
    for t in range(6):
        if (lo >> t) & 1:
            s = np.uint64(1 << t)
            m = _BFLY[t]
            out = ((out >> s) & m) | ((out & m) << s)
    return data.copy() if out is data else out


# ---------------------------------------------------------------------------
# Incremental echelon basis


class GF2Basis:
    """Growing echelon basis of a GF(2) row space.

    Invariants: every stored row was fully reduced against the rows stored
    before it, and a stored row is never rewritten, so ``rows_view`` of a
    past moment stays valid.  Each finished block of 8 rows carries an index
    map: entry ``h`` is the combination of block rows whose pivot bits are
    ``h`` (the inverse of the block's unitriangular pivot-bit map).
    ``absorb`` reduces incoming rows in chunks and appends the survivors; the
    final ``rank`` equals the rank of everything absorbed.
    """

    #: Elimination backend, recorded by benchmark run metadata.
    backend = "numpy"

    def __init__(self, cols: int):
        if cols <= 0:
            raise PreconditionError("column count must be positive")
        self.cols = cols
        self.words = _words_for(cols)
        # read once: the default follows MemAvailable, which the basis lowers
        self._budget = mem_budget_bytes()
        # empty until the first absorb has sized its room against the budget
        self._rows = np.zeros((0, self.words), dtype=np.uint64)
        self._piv_col = np.zeros(0, dtype=np.int64)
        self._piv_word = np.zeros(0, dtype=np.int64)
        self._piv_mask = np.zeros(0, dtype=np.uint64)
        self._index_map = np.zeros((0, 256), dtype=np.uint8)
        self.count = 0
        self._tables: list[np.ndarray] = []  # one per worker, made on use

    @property
    def rank(self) -> int:
        return self.count

    def pivot_cols(self) -> list[int]:
        return sorted(int(c) for c in self._piv_col[: self.count])

    def rows_view(self) -> np.ndarray:
        """Read-only view of the stored rows (do not mutate); rows are never
        rewritten, so the view keeps its values while the basis grows."""
        return self._rows[: self.count]

    def _room(self, extra: int, copies: int, what: str, held: int = 0) -> int:
        """Capacity that holds ``extra`` more rows: 256 rows, doubled as
        needed.

        Raises :class:`MemoryBudgetError` when the basis at that capacity
        (with the arrays it grows out of, while it copies), its per-row pivot
        arrays and index maps, ``copies`` chunks of ``extra`` rows, their
        pivot-bit temporaries, the tables of every worker such a chunk can
        use, the slice of table rows each of its workers gathers and
        ``held`` bytes of the caller's would exceed the budget read at
        construction.
        """
        have = self._rows.shape[0]
        cap = max(have, 256)
        while cap < self.count + extra:
            cap *= 2
        rows = cap + have if cap > have else have
        parts = _parts(extra, _MIN_PART_ROWS)
        tables = max(len(self._tables), parts)
        row = self.words * 8
        gathers = parts * min(_SLICE_BYTES, -(-extra // parts) * row)
        check_alloc(rows * (row + _ROW_INDEX_BYTES) + gathers + held
                    + extra * _PIVOT_BIT_BYTES
                    + (copies * extra + 256 * tables) * row,
                    f"{what} (basis, {copies} chunks and {tables} tables)",
                    self._budget)
        return cap

    def check_absorb(self, rows: int, copies: int, held: int = 0) -> None:
        """Before a caller makes ``copies`` copies of a ``rows``-row chunk to
        absorb: raise :class:`MemoryBudgetError` when those copies, the
        basis's own copy of the chunk, its growth and its tables, with
        ``held`` bytes the caller keeps meanwhile, would exceed the budget."""
        self._room(rows, copies + 1, f"{copies} copies of {rows} rows to absorb",
                   held)

    def _take_chunk(self, rows: np.ndarray) -> np.ndarray:
        """Copy ``rows`` for reduction and make room for them in the basis,
        both sized by :meth:`_room` first.  The copy is made before the basis
        grows: that order kept Table 4 row 12 at 10-20 MiB less peak RSS.
        """
        extra = rows.shape[0]
        cap = self._room(extra, 1, f"absorbing {extra} rows")
        chunk = np.array(rows, dtype=np.uint64)
        if cap > self._rows.shape[0]:
            grown = np.zeros((cap, self.words), dtype=np.uint64)
            grown[: self.count] = self._rows[: self.count]
            self._rows = grown
            self._piv_col = np.resize(self._piv_col, cap)
            self._piv_word = np.resize(self._piv_word, cap)
            self._piv_mask = np.resize(self._piv_mask, cap)
            self._index_map = np.resize(self._index_map, (cap // 8, 256))
        return chunk

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
            chunk = self._take_chunk(rows[start: start + _CHUNK_ROWS])
            gave = self._absorb_chunk(chunk)
            if out is not None:
                out[start: start + chunk.shape[0]] = gave
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
        """Reduce and append the chunk; return which rows gave pivots."""
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


def pack(dense: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into (rows, words) uint64 rows, column
    j at bit ``j & 63`` of word ``j >> 6``: the rows :meth:`GF2Basis.absorb`
    takes."""
    array = np.asarray(dense, dtype=np.uint8)
    if array.ndim != 2:
        raise PreconditionError("dense input must be 2-D")
    rows, cols = array.shape
    packed = np.zeros((rows, _words_for(cols) * 8), dtype=np.uint8)
    packed[:, : (cols + 7) >> 3] = np.packbits(array & 1, axis=1,
                                               bitorder="little")
    return packed.view(np.uint64)


def rank(dense: np.ndarray) -> int:
    """Rank over GF(2) of a dense (rows, cols) 0/1 array."""
    rows = pack(dense)
    basis = GF2Basis(np.shape(dense)[1])
    basis.absorb(rows)
    return basis.rank


def row_ranks(vectors: np.ndarray, n: int) -> np.ndarray:
    """GF(2) rank of the n-bit vectors (n <= 64) in each row of ``vectors``.

    Gaussian elimination on every row at once: for each bit, the first
    vector of a row with that bit set is its pivot and is XORed into every
    vector of the row with the bit set, itself included.
    """
    vectors = np.array(vectors)
    rows = np.arange(vectors.shape[0])
    ranks = np.zeros(vectors.shape[0], dtype=np.int64)
    for bit in range(n):
        has = (vectors >> bit) & 1
        pivot = vectors[rows, has.argmax(axis=1)]
        pivot *= (pivot >> bit) & 1  # rows with no vector carrying the bit
        vectors ^= has * pivot[:, None]
        ranks += pivot != 0
    return ranks
