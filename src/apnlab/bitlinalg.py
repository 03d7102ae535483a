"""Bit-packed GF(2) linear algebra.

Matrices are stored as numpy uint64 arrays, 64 columns per word, column j in
word ``j >> 6`` at bit ``j & 63`` (LSB first).  Rank is computed by absorbing
rows into an incremental echelon basis; finished pivot blocks are internally
pivot-reduced so a 256-entry XOR table per block clears a whole block of pivot
columns from a work chunk with one gather (four-Russians style).
"""

from __future__ import annotations

import math
import os
from typing import Iterator

import numpy as np

from .errors import MemoryBudgetError, PreconditionError

__all__ = [
    "BitMatrix",
    "GF2Basis",
    "mem_budget_bytes",
    "rank",
    "xor_permute_columns",
]

_CHUNK_ROWS = 2048
# Bytes of chunk rows per table gather: a slice stays in cache while it is
# XORed in (64 rows of the GF(2^8) incidence matrix).
_SLICE_BYTES = 1 << 19

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
    """Memory budget in bytes, from APNLAB_MEM_BUDGET_GIB (default 12 GiB)."""
    text = os.environ.get("APNLAB_MEM_BUDGET_GIB", "12")
    try:
        gib = float(text)
    except ValueError:
        gib = math.nan
    if not (math.isfinite(gib) and gib >= 0):
        raise PreconditionError(
            f"APNLAB_MEM_BUDGET_GIB must be a finite number >= 0, got {text!r}")
    return int(gib * (1 << 30))


def _words_for(cols: int) -> int:
    return (cols + 63) >> 6


class BitMatrix:
    """A rows x cols matrix over GF(2), bit-packed into uint64 words."""

    def __init__(self, rows: int, cols: int, data: np.ndarray | None = None):
        if rows < 0 or cols <= 0:
            raise PreconditionError("matrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.words = _words_for(cols)
        if data is None:
            data = np.zeros((rows, self.words), dtype=np.uint64)
        if data.shape != (rows, self.words) or data.dtype != np.uint64:
            raise PreconditionError("backing array shape/dtype mismatch")
        self.data = data

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise PreconditionError("bit index out of range")
        return int(self.data[i, j >> 6] >> np.uint64(j & 63)) & 1

    def set(self, i: int, j: int, value: int = 1) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise PreconditionError("bit index out of range")
        m = np.uint64(1) << np.uint64(j & 63)
        if value:
            self.data[i, j >> 6] |= m
        else:
            self.data[i, j >> 6] &= ~m

    def row_weights(self) -> np.ndarray:
        return np.bitwise_count(self.data).sum(axis=1)

    def to_dense01(self) -> np.ndarray:
        """Unpack to a (rows, cols) uint8 array of 0/1 values."""
        bits = np.unpackbits(self.data.view(np.uint8), axis=1, bitorder="little")
        return bits[:, : self.cols]

    @classmethod
    def from_dense01(cls, array: np.ndarray) -> "BitMatrix":
        array = np.asarray(array, dtype=np.uint8)
        if array.ndim != 2:
            raise PreconditionError("dense input must be 2-D")
        rows, cols = array.shape
        words = _words_for(cols)
        padded = np.zeros((rows, words * 64), dtype=np.uint8)
        padded[:, :cols] = array & 1
        data = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
        return cls(rows, cols, np.ascontiguousarray(data))

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_dense01(self.to_dense01().T)

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.rows, self.cols, self.data.copy())

    def iter_chunks(self, chunk_rows: int = _CHUNK_ROWS) -> Iterator[np.ndarray]:
        for i in range(0, self.rows, chunk_rows):
            yield self.data[i: i + chunk_rows]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BitMatrix) and self.rows == other.rows
                and self.cols == other.cols and bool(np.array_equal(self.data, other.data)))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def xor_permute_columns(data: np.ndarray, mask: int, cols: int) -> np.ndarray:
    """Return a copy with column j holding the old column j XOR mask.

    The column count must be a power of two covering the mask (the operation
    is translation by a group element of (F_2^k, +)).
    """
    if cols & (cols - 1):
        raise PreconditionError("xor-permute needs a power-of-two column count")
    if not 0 <= mask < cols:
        raise PreconditionError("mask out of range")
    out = data
    hi = mask >> 6
    if hi:
        words = data.shape[1]
        out = out[:, np.arange(words) ^ hi]
    lo = mask & 63
    if lo:
        out = out.copy() if out is data else out
        for t in range(6):
            if (lo >> t) & 1:
                s = np.uint64(1 << t)
                m = _BFLY[t]
                out = ((out >> s) & m) | ((out & m) << s)
    elif out is data:
        out = out.copy()
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# Incremental echelon basis


class GF2Basis:
    """Growing echelon basis of a GF(2) row space.

    Invariants: every stored row was fully reduced against the rows stored
    before it; each finished block of rows is additionally pivot-reduced
    internally so its rows carry unit vectors on the block's own pivot
    columns.  ``absorb`` reduces incoming rows in chunks and appends the
    survivors; the final ``rank`` equals the rank of everything absorbed.
    """

    #: Elimination backend, recorded by benchmark run metadata.
    backend = "numpy"
    #: Pivot rows per finished block, one 256-entry XOR table each.
    block_size = 8

    def __init__(self, cols: int, budget: int | None = None):
        if cols <= 0:
            raise PreconditionError("column count must be positive")
        self.cols = cols
        self.words = _words_for(cols)
        self._budget = mem_budget_bytes() if budget is None else budget
        cap = 256
        self._rows = np.zeros((cap, self.words), dtype=np.uint64)
        self._piv_col = np.zeros(cap, dtype=np.int64)
        self._piv_word = np.zeros(cap, dtype=np.int64)
        self._piv_mask = np.zeros(cap, dtype=np.uint64)
        self.count = 0
        self._table = np.zeros((256, self.words), dtype=np.uint64)

    @property
    def rank(self) -> int:
        return self.count

    def pivot_cols(self) -> list[int]:
        return sorted(int(c) for c in self._piv_col[: self.count])

    def rows_view(self) -> np.ndarray:
        """Read-only view of the stored basis rows (do not mutate)."""
        return self._rows[: self.count]

    def _ensure_capacity(self, extra: int) -> None:
        need = self.count + extra
        cap = self._rows.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        nbytes = cap * self.words * 8
        if nbytes > self._budget:
            raise MemoryBudgetError(
                f"basis would need {nbytes} bytes, budget is {self._budget}")
        grown = np.zeros((cap, self.words), dtype=np.uint64)
        grown[: self.count] = self._rows[: self.count]
        self._rows = grown
        self._piv_col = np.resize(self._piv_col, cap)
        self._piv_word = np.resize(self._piv_word, cap)
        self._piv_mask = np.resize(self._piv_mask, cap)

    def absorb(self, rows: np.ndarray) -> int:
        """Absorb packed rows (k, words); return the number of new pivots."""
        rows = np.asarray(rows, dtype=np.uint64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.shape[1] != self.words:
            raise PreconditionError("row width mismatch")
        before = self.count
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            chunk = np.array(rows[start: start + _CHUNK_ROWS], dtype=np.uint64)
            self._ensure_capacity(chunk.shape[0])
            self._absorb_chunk(chunk)
        return self.count - before

    def _build_table8(self, base: int) -> np.ndarray:
        """Entry ``idx`` is the XOR of the block rows whose bit is set in
        ``idx``; built by doubling, one vector XOR per row."""
        t = self._table
        t[0] = 0
        for k in range(8):
            np.bitwise_xor(t[: 1 << k], self._rows[base + k],
                           out=t[1 << k: 2 << k])
        return t

    def _table_reduce(self, chunk: np.ndarray, base: int) -> None:
        """Clear 8 pivot columns (block at row ``base``) from all chunk rows."""
        t = self._build_table8(base)
        hit = (chunk[:, self._piv_word[base: base + 8]]
               & self._piv_mask[base: base + 8]) != 0
        idx = np.packbits(hit, axis=1, bitorder="little")[:, 0]
        # gather into cache-sized row slices, not one chunk-sized temporary
        step = max(1, _SLICE_BYTES // (8 * self.words))
        for r0 in range(0, chunk.shape[0], step):
            chunk[r0: r0 + step] ^= t[idx[r0: r0 + step]]

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
            base = self.count - 8
            for j in range(1, 8):
                w = self._piv_word[base + j]
                m = self._piv_mask[base + j]
                for k in range(j):
                    if self._rows[base + k, w] & m:
                        self._rows[base + k] ^= self._rows[base + j]

    def _absorb_chunk(self, chunk: np.ndarray) -> None:
        nblocks = self.count // 8
        for blk in range(nblocks):
            self._table_reduce(chunk, blk * 8)
        applied = nblocks
        nrows = chunk.shape[0]
        for i in range(nrows):
            while applied < self.count // 8:
                self._table_reduce(chunk[i:], applied * 8)
                applied += 1
            row = chunk[i]
            self._row_reduce_tail(row, applied * 8, self.count)
            lead = self._find_lead(row)
            if lead >= 0:
                self._append(row, lead)


def rank(matrix: BitMatrix | np.ndarray) -> int:
    """Rank over GF(2) of a packed matrix or a dense 0/1 array."""
    if isinstance(matrix, np.ndarray):
        matrix = BitMatrix.from_dense01(matrix)
    basis = GF2Basis(matrix.cols)
    for chunk in matrix.iter_chunks():
        basis.absorb(chunk)
    return basis.rank
