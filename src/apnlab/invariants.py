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

import re
import time
from dataclasses import dataclass

import numpy as np

from . import bitlinalg
from .bitlinalg import BitMatrix, GF2Basis, rank, xor_permute_columns
from .errors import PreconditionError
from .gf2n import Field, field_from_header
from .vbf import FunctionTable

__all__ = [
    "GammaRankReport",
    "code_matrix",
    "code_matrix_rank",
    "export_code",
    "gamma_rank",
    "parse_code_export",
]


def code_matrix(f: FunctionTable) -> BitMatrix:
    """Generator matrix of the linear code attached to ``f``.

    Shape ``(2n+1, 2^n)``.  Column 0 corresponds to the field element 0 and
    column ``j`` (``1 <= j <= 2^n - 1``) to ``g^j`` where ``g`` is the
    field's canonical primitive element (so the element 1 sits in the last
    column).  Row 0 is all ones, rows ``1..n`` carry the bits of the input
    element, and rows ``n+1..2n`` the bits of its image under ``f``.
    """
    fld = f.field
    n = fld.n
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
    return BitMatrix.from_dense01(dense)


def code_matrix_rank(f: FunctionTable) -> int:
    """GF(2) rank of :func:`code_matrix` (at most ``2n+1``)."""
    return rank(code_matrix(f))


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


def _translate_closure_rank(f: FunctionTable, budget: int | None) -> int:
    """Rank of the incidence matrix without materialising it.

    Every row of the matrix is ``sigma_t``-translates of the graph indicator
    (``sigma_t`` = XOR of the column index by ``t``), so the row space is the
    closure of the indicator row under all 2n single-bit translations.  The
    closure is reached by absorbing, for each bit, the translates of the
    basis accumulated so far; translating by a processed bit keeps landing
    inside the span, so one pass over the bits suffices even though the
    basis keeps growing.  Stored rows are never rewritten, so the round-start
    ``rows_view`` is the round's snapshot.
    """
    n = f.field.n
    side = 1 << (2 * n)
    basis = GF2Basis(side, budget=budget)
    basis.absorb(_graph_indicator_row(f))
    for t in range(2 * n):
        src = basis.rows_view()
        step = bitlinalg._CHUNK_ROWS
        for start in range(0, src.shape[0], step):
            basis.absorb(xor_permute_columns(src[start : start + step], 1 << t, side))
    return basis.rank


def gamma_rank(
    f: FunctionTable, family: str = "", budget: int | None = None
) -> GammaRankReport:
    """GF(2) rank of the incidence matrix of the graph development of ``f``.

    Computed by translate-closure iteration, in-core, in memory of about
    ``rank * 2^(2n) / 8`` bytes for the basis; ``budget`` (bytes, default
    ``APNLAB_MEM_BUDGET_GIB``) caps that basis.
    """
    n = f.field.n
    side = 1 << (2 * n)
    t0 = time.perf_counter()
    value = _translate_closure_rank(f, budget)
    return GammaRankReport(
        family=family,
        n=n,
        gamma_rank=value,
        matrix_dims=(side, side),
        elapsed=time.perf_counter() - t0,
    )


def export_code(f: FunctionTable, format: str = "plain-bits") -> str:
    """Serialise the code matrix of ``f`` for external tools.

    ``"plain-bits"``: a field header line followed by ``2n+1`` rows of
    ``0``/``1`` characters, one column per field element in canonical order.
    Byte-deterministic for a given field header and LUT, and parseable back
    via :func:`parse_code_export`.

    ``"script"``: a self-contained computer-algebra script (Magma-style)
    that rebuilds the code as a ``LinearCode`` over GF(2).
    """
    matrix = code_matrix(f)
    dense = matrix.to_dense01()
    header = f.field.header()
    if format == "plain-bits":
        lines = [header]
        for i in range(matrix.rows):
            lines.append("".join("1" if b else "0" for b in dense[i]))
        return "\n".join(lines) + "\n"
    if format == "script":
        n = f.field.n
        lines = [
            f"// {header}",
            f"// code matrix of a GF(2^{n}) -> GF(2^{n}) function",
            "K := GF(2);",
            f"V := VectorSpace(K, {f.field.order});",
            "rows := [",
        ]
        for i in range(matrix.rows):
            bits = ",".join(str(int(b)) for b in dense[i])
            comma = "," if i < matrix.rows - 1 else ""
            lines.append(f"    V![{bits}]{comma}")
        lines += [
            "];",
            "C := LinearCode(sub<V | rows>);",
            "C;",
        ]
        return "\n".join(lines) + "\n"
    raise PreconditionError(f"unknown export format {format!r}")


def parse_code_export(text: str) -> tuple[Field, BitMatrix]:
    """Inverse of :func:`export_code` for the ``plain-bits`` format."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PreconditionError("empty code export")
    fld = field_from_header(lines[0])
    rows = lines[1:]
    if len(rows) != 2 * fld.n + 1:
        raise PreconditionError(
            f"expected {2 * fld.n + 1} rows for n={fld.n}, got {len(rows)}"
        )
    dense = np.zeros((len(rows), fld.order), dtype=np.uint8)
    for i, row in enumerate(rows):
        if not re.fullmatch(r"[01]+", row) or len(row) != fld.order:
            raise PreconditionError(f"bad 0/1 row of length {len(row)}")
        dense[i] = np.frombuffer(row.encode(), dtype=np.uint8) - ord("0")
    return fld, BitMatrix.from_dense01(dense)
