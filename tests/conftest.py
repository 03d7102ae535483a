"""Shared fixtures: cached small fields, the textbook GF(2) rank and DDT
oracles, a Gaussian-elimination determinant over GF(2^m), the unskipped
translate closure and an extended-run gate."""

from __future__ import annotations

import os

import numpy as np
import pytest

from apnlab.bitlinalg import GF2Basis, xor_permute_columns
from apnlab.gf2n import Field, field_new
from apnlab.invariants import _graph_indicator_row
from apnlab.vbf import FunctionTable

_FIELDS: dict[int, Field] = {}


def get_field(n: int) -> Field:
    """Default-modulus field, cached across tests (tables are immutable)."""
    if n not in _FIELDS:
        _FIELDS[n] = field_new(n)
    return _FIELDS[n]


def naive_rank(dense: np.ndarray) -> int:
    """Textbook GF(2) Gaussian elimination on a dense 0/1 array."""
    a = np.array(dense, dtype=np.uint8) & 1
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        pivots = np.nonzero(a[r:, c])[0]
        if pivots.size == 0:
            continue
        p = r + int(pivots[0])
        a[[r, p]] = a[[p, r]]
        hit = np.nonzero(a[:, c])[0]
        hit = hit[hit != r]
        a[hit] ^= a[r]
        r += 1
        if r == rows:
            break
    return r


def shift_add_mul(a: int, b: int, modulus: int) -> int:
    """a * b in GF(2)[x] / (modulus), by shift and add on plain ints."""
    top = 1 << (modulus.bit_length() - 1)
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return out


def gauss_det(matrix: list[list[int]], modulus: int) -> int:
    """Determinant over GF(2^m) = GF(2)[x] / (modulus) by Gaussian
    elimination; a row swap changes no sign in characteristic 2."""
    a = [list(row) for row in matrix]
    k, order = len(a), 1 << (modulus.bit_length() - 1)
    det = 1
    for c in range(k):
        p = next((r for r in range(c, k) if a[r][c]), None)
        if p is None:
            return 0
        a[c], a[p] = a[p], a[c]
        det = shift_add_mul(det, a[c][c], modulus)
        inv = 1  # a^(2^m - 2), by square and multiply
        base, e = a[c][c], order - 2
        while e:
            if e & 1:
                inv = shift_add_mul(inv, base, modulus)
            base = shift_add_mul(base, base, modulus)
            e >>= 1
        for r in range(c + 1, k):
            if a[r][c]:
                q = shift_add_mul(a[r][c], inv, modulus)
                a[r] = [x ^ shift_add_mul(q, y, modulus)
                        for x, y in zip(a[r], a[c])]
    return det


def row_by_row_ddt(lut: np.ndarray) -> tuple[int, dict, list]:
    """Textbook DDT tally, one derivative direction a at a time, with the
    witnesses (a, b) attaining delta taken in scan order up to 16."""
    order = lut.size
    zs = np.arange(order)
    hist: dict[int, int] = {}
    delta, witnesses = 0, []
    for a in range(1, order):
        counts = np.bincount(lut[zs ^ a] ^ lut, minlength=order)
        for v in counts.tolist():
            hist[v] = hist.get(v, 0) + 1
        top = int(counts.max())
        if top > delta:
            delta, witnesses = top, []
        if top == delta:
            for b in np.flatnonzero(counts == top)[: 16 - len(witnesses)]:
                witnesses.append((a, int(b)))
    return delta, hist, witnesses


def unskipped_closure(t: FunctionTable, chunk_rows: int):
    """The translate closure with no skip: every round translates and absorbs
    every row of its snapshot, ``chunk_rows`` at a time.  Returns the basis,
    the label of each basis row (the bitmask of the translate bits that made
    it), the new pivots of each round and the number of rows absorbed."""
    side = 1 << (2 * t.field.n)
    basis = GF2Basis(side)
    absorbed = 1
    basis.absorb(_graph_indicator_row(t))
    labels = [0]
    pivots = []
    for r in range(2 * t.field.n):
        src = basis.rows_view()
        before = basis.count
        for start in range(0, src.shape[0], chunk_rows):
            chunk = src[start: start + chunk_rows]
            gave = np.zeros(chunk.shape[0], dtype=bool)
            basis.absorb(xor_permute_columns(chunk, 1 << r, side), out=gave)
            labels += [a | 1 << r for a, g in zip(labels[start:], gave) if g]
            absorbed += chunk.shape[0]
        pivots.append(basis.count - before)
    return basis, labels, pivots, absorbed


@pytest.fixture
def field8() -> Field:
    return get_field(8)


def extended_enabled() -> bool:
    return os.environ.get("APNLAB_EXTENDED", "") == "1"


requires_extended = pytest.mark.skipif(
    not extended_enabled(),
    reason="release-gating check; set APNLAB_EXTENDED=1 to run",
)
