"""Shared fixtures: cached small fields, the textbook GF(2) rank and DDT
oracles, plain-integer GF(2^m) arithmetic with a Gaussian-elimination
determinant, scalar evaluation of the function forms, the subfield pair map
and the key lemma's quantities on it, dense-row packing and ranks, affine
permutations, LUT and code-export text, the unskipped translate closure and
an extended-run gate."""

from __future__ import annotations

import functools
import os
import re
from typing import IO

import numpy as np
import pytest

from apnlab import bitlinalg
from apnlab.bitlinalg import GF2Basis, row_ranks, xor_permute_columns
from apnlab.errors import PreconditionError
from apnlab.gf2n import Field, field_from_header, field_new
from apnlab.invariants import _graph_indicator_row
from apnlab.vbf import BivariateFunc, FunctionTable, LinearizedPoly

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


def shift_add_pow(a: int, e: int, modulus: int) -> int:
    """a^e (e >= 0, 0^0 = 1) in GF(2)[x] / (modulus), by square and
    multiply on :func:`shift_add_mul`."""
    out = 1
    while e:
        if e & 1:
            out = shift_add_mul(out, a, modulus)
        a = shift_add_mul(a, a, modulus)
        e >>= 1
    return out


def scalar_eval(form, *point):
    """``form`` at one point from its stored terms, in plain-int arithmetic
    on :func:`shift_add_mul`: a UnivariatePoly or LinearizedPoly at z, a
    BivariateFunc at (x, y) as the pair of its coordinates."""
    modulus = form.field.modulus

    def at(terms) -> int:
        out = 0
        for c, *exps in terms:
            for v, e in zip(point, exps):
                c = shift_add_mul(c, shift_add_pow(v, e, modulus), modulus)
            out ^= c
        return out

    if isinstance(form, BivariateFunc):
        return at(form.first), at(form.second)
    if isinstance(form, LinearizedPoly):
        return at((c, 1 << i) for i, c in enumerate(form.coeffs))
    return at(form.terms)


@functools.cache
def _subfield_pairs(parent: Field, component: Field) -> list[int]:
    """SubfieldMap's correspondence from its definition, in plain-int
    arithmetic: entry ``(x << m) | y`` is e(x) + e(y) * beta, where e sends
    the component's generator to the least parent root of the component's
    modulus and beta is the least parent element outside the image of e."""
    mod, m = parent.modulus, component.n

    def value(coeffs: int, r: int, degree: int) -> int:
        """The polynomial with coefficient bits ``coeffs`` at ``r``."""
        out = 0
        for i in range(degree + 1):
            if coeffs >> i & 1:
                out ^= shift_add_pow(r, i, mod)
        return out

    root = next(r for r in range(parent.order)
                if value(component.modulus, r, m) == 0)
    e = [value(x, root, m - 1) for x in range(component.order)]
    beta = min(set(range(parent.order)) - set(e))
    return [e[x] ^ shift_add_mul(e[y], beta, mod)
            for x in range(component.order) for y in range(component.order)]


def embed_pair(submap, x: int, y: int) -> int:
    """The parent element of the component pair (x, y), by the definition."""
    return _subfield_pairs(submap.parent, submap.component)[
        (x << submap.component.n) | y]


def split_pair(submap, z: int) -> tuple[int, int]:
    """The component pair (x, y) of the parent element z, by the definition."""
    return divmod(_subfield_pairs(submap.parent, submap.component).index(z),
                  submap.component.order)


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
        inv = shift_add_pow(a[c][c], order - 2, modulus)
        for r in range(c + 1, k):
            if a[r][c]:
                q = shift_add_mul(a[r][c], inv, modulus)
                a[r] = [x ^ shift_add_mul(q, y, modulus)
                        for x, y in zip(a[r], a[c])]
    return det


def key_lemma_oracle(m: int, s: int, mu: int, v: int, modulus: int) -> list[dict]:
    """The trinomial proof's displayed quantities and five claims at each
    a = 1..2^(3m)-1, from the printed formulas in plain-integer GF(2^(3m))
    arithmetic (``modulus`` of degree 3m): one dict per point with L(a) as
    ``la``, A..E, U1..U4, V1..V4, U, V, T, P, and ``claims``, five bools."""
    mult_order = (1 << (3 * m)) - 1
    q, q2, qs = 1 << m, 1 << (2 * m), 1 << s
    qms, q2ms = 1 << (m + s), 1 << (2 * m + s)

    def mono(*pairs) -> int:
        """The product of x^e over the (x, e) pairs, flattened."""
        out = 1
        for x, e in zip(pairs[::2], pairs[1::2]):
            power = shift_add_pow(x, e % mult_order, modulus) if x else int(e == 0)
            out = shift_add_mul(out, power, modulus)
        return out

    rows = []
    for a in range(1, mult_order + 1):
        la = mono(a, qms) ^ mono(mu, 1, a, qs) ^ a
        cv = la ^ mono(v, 1, a, 1)
        A = mono(la, 1, a, q2ms)
        B = mono(mono(la, q) ^ mono(mu, q, la, 1), 1, a, qms)
        C = mono(cv, 1, a, q)
        D = mono(mu, 1, la, q, a, qs)
        E = mono(cv, q, a, 1)
        U1 = mono(D, q2, E, q + 1) ^ mono(A, 1, C, q2, E, q) ^ mono(B, q, C, q2 + 1)
        U2 = mono(A, q2, E, q + 1) ^ mono(B, 1, C, q2, E, q) ^ mono(C, q2 + 1, D, q)
        U3 = mono(B, q2, E, q + 1) ^ mono(C, q2, D, 1, E, q) ^ mono(A, q, C, q2 + 1)
        U4 = mono(C, q2 + q + 1) ^ mono(E, q2 + q + 1)
        V1 = (mono(A, q2 + 2, C, q) ^ mono(A, 1, B, 1, C, q, D, q2)
              ^ mono(A, 1, B, q + 1, E, q2) ^ mono(A, 2, D, q, E, q2))
        V2 = (mono(A, q2 + 2, E, q) ^ mono(A, 1, B, 1, D, q2, E, q)
              ^ mono(A, q2 + 1, B, q, C, 1) ^ mono(A, 1, C, 1, D, q2 + q))
        V3 = (mono(A, q2 + 1, B, q, E, 1) ^ mono(A, 1, B, q + 1, C, q2)
              ^ mono(A, 2, C, q2, D, q) ^ mono(A, 1, D, q2 + q, E, 1))
        V4 = (mono(mono(B, q + 1) ^ mono(A, 1, D, q), 1,
                   mono(A, 1, B, q2) ^ mono(D, q2 + 1), 1)
              ^ mono(mono(A, q2 + 1) ^ mono(B, 1, D, q2), 1,
                     mono(A, q + 1) ^ mono(B, q, D, 1), 1))
        U = (mono(mu, q, a, qms + 1) ^ mono(a, q2ms + 1) ^ mono(a, qms + q)
             ^ mono(mu, q + 1, a, q2 + qms) ^ mono(mu, q2 + 1, a, q2ms + q)
             ^ mono(mu, 1, a, q2ms + q2))
        V = (mono(a, q + qs) ^ mono(mu, q, a, q2 + qms)
             ^ mono(mu, q2, a, q2ms + q) ^ mono(a, q2ms + q2))
        T = (mono(mono(mu, q2 + q + 1) ^ 1, 1, a, qs) ^ mono(mu, q2 + q, a, 1)
             ^ mono(mu, q2, a, q) ^ mono(a, q2))
        P = mono(a, q2ms) ^ mono(mu, q, a, qms)
        lead = mono(U2, 1, V1, qs) ^ mono(U1, 1, V2, qs)
        claims = (
            A ^ B ^ C ^ D ^ E == 0 and 0 not in (A, B, C, D, E, C ^ E),
            0 not in (U1, V1, U2, V2, U3, V3),
            U4 == 0 and V4 == 0,
            lead ^ mono(U3, 1, V1, qs) ^ mono(U1, 1, V3, qs) == 0,
            lead != 0,
        )
        rows.append({
            "la": la, "A": A, "B": B, "C": C, "D": D, "E": E,
            "U1": U1, "U2": U2, "U3": U3, "U4": U4,
            "V1": V1, "V2": V2, "V3": V3, "V4": V4,
            "U": U, "V": V, "T": T, "P": P, "claims": claims,
        })
    return rows


def pack(dense: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into (rows, words) uint64 rows, column
    j at bit ``j & 63`` of word ``j >> 6``: the rows GF2Basis.absorb takes."""
    array = np.asarray(dense, dtype=np.uint8)
    if array.ndim != 2:
        raise PreconditionError("dense input must be 2-D")
    rows, cols = array.shape
    packed = np.zeros((rows, ((cols + 63) >> 6) * 8), dtype=np.uint8)
    packed[:, : (cols + 7) >> 3] = np.packbits(array & 1, axis=1,
                                               bitorder="little")
    return packed.view(np.uint64)


def basis_rank(dense: np.ndarray) -> int:
    """GF(2) rank of a dense (rows, cols) 0/1 array, through GF2Basis."""
    basis = GF2Basis(np.shape(dense)[1])
    basis.absorb(pack(dense))
    return basis.rank


def stored_rows(basis: GF2Basis) -> np.ndarray:
    """The rows a basis has stored, as a view (do not mutate)."""
    return basis._rows[: basis.count]


def is_permutation(table: FunctionTable) -> bool:
    """Whether the table takes every field element once."""
    return bool(np.unique(table.lut).size == table.field.order)


def compose(outer: FunctionTable, inner: FunctionTable) -> FunctionTable:
    """The composite z -> outer(inner(z))."""
    return FunctionTable(outer.field, outer.lut[inner.lut])


def random_affine_permutation(field: Field, rng: np.random.Generator) -> FunctionTable:
    """A uniformly random affine permutation z -> M z + c of the field bits."""
    n = field.n
    while True:
        rows = [int(rng.integers(1, field.order)) for _ in range(n)]
        if row_ranks(np.array([rows], dtype=np.uint32))[0] == n:
            break
    const = int(rng.integers(0, field.order))
    zs = field.all_elements_vec()
    acc = np.full(field.order, const, dtype=np.uint32)
    for j, row in enumerate(rows):
        # output bit j is <row, z>; accumulate parity * 2^j
        bit = np.bitwise_count(zs & np.uint32(row)) & 1
        acc ^= (bit << j).astype(np.uint32)
    return FunctionTable(field, acc)


def write_lut(table: FunctionTable, fh: IO[str]) -> None:
    """The LUT file ``apnlab ddt --lut`` reads: the field header, then the
    2^n entries in hex, one per line."""
    fh.write(table.field.header() + "\n")
    for v in table.lut:
        fh.write(f"{int(v):x}\n")


def parse_code_export(text: str) -> tuple[Field, np.ndarray]:
    """The field and the dense uint8 0/1 code matrix of a ``plain-bits``
    code export."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PreconditionError("empty code export")
    fld = field_from_header(lines[0])
    rows = lines[1:]
    if len(rows) != 2 * fld.n + 1:
        raise PreconditionError(
            f"expected {2 * fld.n + 1} rows for n={fld.n}, got {len(rows)}")
    dense = np.zeros((len(rows), fld.order), dtype=np.uint8)
    for i, row in enumerate(rows):
        if not re.fullmatch(r"[01]+", row) or len(row) != fld.order:
            raise PreconditionError(f"bad 0/1 row of length {len(row)}")
        dense[i] = np.frombuffer(row.encode(), dtype=np.uint8) - ord("0")
    return fld, dense


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
        src = stored_rows(basis)
        before = basis.count
        for start in range(0, src.shape[0], chunk_rows):
            chunk = src[start: start + chunk_rows]
            gave = np.zeros(chunk.shape[0], dtype=bool)
            # a copy: the translate is in place, and chunk views stored rows
            basis.absorb(xor_permute_columns(chunk.copy(), 1 << r, side),
                         out=gave)
            labels += [a | 1 << r for a, g in zip(labels[start:], gave) if g]
            absorbed += chunk.shape[0]
        pivots.append(basis.count - before)
    return basis, labels, pivots, absorbed


@pytest.fixture(autouse=True, scope="session")
def _started_pool():
    """The worker pool imports its modules and makes its threads at the
    first split, once per process.  Start it before any test, so that what
    a test traces of a split run does not depend on the tests before it."""
    if bitlinalg._WORKERS > 1:
        bitlinalg._pool().submit(int).result()


@pytest.fixture
def field8() -> Field:
    return get_field(8)


def extended_enabled() -> bool:
    return os.environ.get("APNLAB_EXTENDED", "") == "1"


requires_extended = pytest.mark.skipif(
    not extended_enabled(),
    reason="release-gating check; set APNLAB_EXTENDED=1 to run",
)
