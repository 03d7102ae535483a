"""Linear-code and incidence-matrix invariants of vectorial Boolean functions.

Two GF(2) matrices are attached to a function ``f : GF(2^n) -> GF(2^n)``:

* the *code matrix*, a ``(2n+1) x 2^n`` generator matrix whose rows are the
  all-ones vector, the coordinate bits of the input, and the coordinate bits
  of the output, with one column per field element;
* the *incidence matrix* of the development of the graph
  ``{(z, f(z))}``, a ``2^(2n) x 2^(2n)`` 0/1 matrix whose row ``(a, b)``
  marks the translated graph ``{(z + a, f(z) + b)}``.

The GF(2) rank of the incidence matrix is invariant under CCZ-equivalence,
which makes it a practical tool for separating inequivalent functions.

The rank is computed by a translate-closure iteration that never
materialises the incidence matrix: every row is a coordinate-translate of the
graph-indicator row, so the row space is the smallest translate-closed space
containing that row, and it can be grown by absorbing translates of the
current basis one index-bit at a time.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import bitlinalg
from .bitlinalg import GF2Basis, check_alloc, xor_permute_columns
from .errors import PreconditionError
from .gf2n import Field
from .vbf import FunctionTable

__all__ = [
    "GammaRankReport",
    "code_matrix",
    "export_code",
    "gamma_rank",
]

#: Bytes per basis row of the closure's labels while a chunk is absorbed:
#: the round's labels, the labels it has grown and the index array whose
#: first chunk is the live snapshot rows (8 B each).
_LABEL_BYTES = 24
#: Bytes per code-matrix column, besides its 2n+1 entries of 1 B, while the
#: matrix is built: the column's element and image (uint32 each) and two
#: uint32 temporaries of one bit-row (tracemalloc: 57.0 B per column at
#: n = 20, where 41 are entries).
_CODE_BYTES_PER_COLUMN = 16


def code_matrix(f: FunctionTable) -> np.ndarray:
    """Generator matrix of the linear code attached to ``f``, as a dense
    uint8 0/1 array.

    Shape ``(2n+1, 2^n)``.  Column 0 corresponds to the field element 0 and
    column ``j`` (``1 <= j <= 2^n - 1``) to ``g^j`` where ``g`` is the
    field's canonical primitive element (so the element 1 sits in the last
    column).  Row 0 is all ones, rows ``1..n`` carry the bits of the input
    element, and rows ``n+1..2n`` the bits of its image under ``f``.
    """
    fld = f.field
    n = fld.n
    check_alloc((2 * n + 1 + _CODE_BYTES_PER_COLUMN) << n,
                f"the code matrix of GF(2^{n})")
    exp, _ = fld._tables()
    cols = np.concatenate(
        [np.zeros(1, dtype=np.uint32), exp[1 : fld.mult_order + 1]]
    )
    images = f.lut[cols]
    dense = np.empty((2 * n + 1, fld.order), dtype=np.uint8)
    dense[0, :] = 1
    for i in range(n):
        dense[1 + i, :] = (cols >> i) & 1
        dense[1 + n + i, :] = (images >> i) & 1
    return dense


@dataclass
class GammaRankReport:
    """Outcome of a rank computation on the graph-development matrix."""

    family: str
    n: int
    gamma_rank: int
    matrix_dims: tuple[int, int]
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "gamma_rank": self.gamma_rank,
            "matrix_dims": list(self.matrix_dims),
            "method": "in-core",
        }


def _graph_indicator_row(f: FunctionTable) -> np.ndarray:
    """The (1, words) packed row marking ``{(z, f(z))}`` inside GF(2)^(2n)."""
    n = f.field.n
    side = 1 << (2 * n)
    positions = (np.arange(f.field.order, dtype=np.int64) << n) | f.lut.astype(np.int64)
    row = np.zeros((1, (side + 63) >> 6), dtype=np.uint64)
    np.bitwise_or.at(
        row[0], positions >> 6, np.uint64(1) << (positions & 63).astype(np.uint64)
    )
    return row


def _close_upward(dead: np.ndarray, bits: int) -> None:
    """Set every entry whose index contains the index of a set entry."""
    for i in range(bits):
        pairs = dead.reshape(-1, 2, 1 << i)
        pairs[:, 1] |= pairs[:, 0]


def _translate_closure_rank(f: FunctionTable) -> int:
    """Rank of the incidence matrix without materialising it.

    Every row of the matrix is ``sigma_t``-translates of the graph indicator
    (``sigma_t`` = XOR of the column index by ``t``), so the row space is the
    closure of the indicator row under all 2n single-bit translations.  The
    closure is reached by absorbing, for each bit, the translates of the
    basis accumulated so far; translating by a processed bit keeps landing
    inside the span, so one pass over the bits suffices even though the
    basis keeps growing.  Stored rows are never rewritten, so the rows
    stored before a round starts stay its snapshot; ``GF2Basis.stage``
    gathers each chunk of them into the rows after the basis, where it is
    translated and absorbed with no copy.

    Each stored row carries a label, the bitmask of the translate bits that
    made it: the indicator has label 0, and the row that round ``t`` stores
    from a snapshot row labelled ``A`` has label ``A | 1 << t``.  Labels are
    visited in increasing order (colex order of bit sets).  With
    ``s_i = 1 + sigma_i`` and ``f`` the indicator, the rows absorbed before
    the candidate labelled ``L`` span the ``s^B f`` over all labels
    ``B < L``.  If the candidate ``L = A | 1 << t`` reduces to zero,
    ``s^L f`` lies in that span; multiplying by ``s^C`` for a ``C``
    disjoint from ``L`` keeps it there, since ``s_i^2 = 0`` and a disjoint
    ``C`` keeps the order.  So the round skips every later snapshot row
    whose label contains ``A``: each would reduce to zero (the Groebner
    staircase criterion: multiples of a non-standard monomial are
    non-standard).  Skips are decided between chunks of
    ``bitlinalg._CHUNK_ROWS`` live snapshot rows.
    """
    n = f.field.n
    side = 1 << (2 * n)
    basis = GF2Basis(side)
    basis.check_absorb(1, basis.words * 8)  # the indicator row
    basis.absorb(_graph_indicator_row(f))
    labels = np.zeros(basis.count, dtype=np.int64)
    for t in range(2 * n):
        dead = np.zeros(1 << t, dtype=bool)
        grown = [labels]
        pos = 0
        while True:
            live = np.flatnonzero(~dead[labels[pos:]])[: bitlinalg._CHUNK_ROWS]
            if live.size == 0:
                break
            take = pos + live
            pos = int(take[-1]) + 1
            gave = np.zeros(take.size, dtype=bool)
            held = _LABEL_BYTES * (basis.count + take.size) + dead.nbytes
            basis.absorb(xor_permute_columns(basis.stage(take, held), 1 << t,
                                             side), out=gave)
            grown.append(labels[take[gave]] | (1 << t))
            dead[labels[take[~gave]]] = True
            _close_upward(dead, t)
        labels = np.concatenate(grown)
    return basis.rank


def gamma_rank(f: FunctionTable, family: str = "") -> GammaRankReport:
    """GF(2) rank of the incidence matrix of the graph development of ``f``.

    Computed by translate-closure iteration, in-core, in memory of about
    ``rank * 2^(2n) / 8`` bytes for the basis, which
    ``APNLAB_MEM_BUDGET_GIB`` caps.
    """
    n = f.field.n
    side = 1 << (2 * n)
    t0 = time.perf_counter()
    value = _translate_closure_rank(f)
    return GammaRankReport(
        family=family,
        n=n,
        gamma_rank=value,
        matrix_dims=(side, side),
        elapsed=time.perf_counter() - t0,
    )


def export_code(f: FunctionTable, format: str = "plain-bits") -> Iterator[str]:
    """Serialise the code matrix of ``f`` for external tools: the format is
    checked and the matrix built now, and each line of text (newline
    included) is made as it is read.

    ``"plain-bits"``: a field header line followed by ``2n+1`` rows of
    ``0``/``1`` characters, one column per field element in canonical order.
    Byte-deterministic for a given field header and LUT.

    ``"script"``: a self-contained computer-algebra script (Magma-style)
    that rebuilds the code as a ``LinearCode`` over GF(2).
    """
    if format not in _EXPORT_LINES:
        raise PreconditionError(f"unknown export format {format!r}")
    return _EXPORT_LINES[format](f.field, code_matrix(f))


def _plain_bits_lines(fld: Field, dense: np.ndarray) -> Iterator[str]:
    yield f"{fld.header()}\n"
    for row in dense:
        yield (row + ord("0")).tobytes().decode() + "\n"


def _script_lines(fld: Field, dense: np.ndarray) -> Iterator[str]:
    yield f"// {fld.header()}\n"
    yield f"// code matrix of a GF(2^{fld.n}) -> GF(2^{fld.n}) function\n"
    yield "K := GF(2);\n"
    yield f"V := VectorSpace(K, {fld.order});\n"
    yield "rows := [\n"
    text = np.full(2 * fld.order - 1, ord(","), dtype=np.uint8)
    for i, row in enumerate(dense):
        text[::2] = row + ord("0")
        comma = "," if i < dense.shape[0] - 1 else ""
        yield f"    V![{text.tobytes().decode()}]{comma}\n"
    yield from ("];\n", "C := LinearCode(sub<V | rows>);\n", "C;\n")


_EXPORT_LINES = {"plain-bits": _plain_bits_lines, "script": _script_lines}
