"""Vectorial Boolean function representations over GF(2^n).

Four interchangeable forms:

* :class:`FunctionTable` — the ground truth: a full lookup table over the
  field, used by every counting and rank computation.
* :class:`UnivariatePoly` — sparse polynomial in one variable, exponents
  reduced by the function semantics z^(e) = z^(((e-1) mod (2^n-1)) + 1).
* :class:`LinearizedPoly` — coefficients of z^(2^i) only; supports the adjoint
  (transpose with respect to the trace pairing) and permutation testing.
* :class:`BivariateFunc` — a pair of polynomials in (x, y) over GF(2^m),
  materialized over GF(2^(2m)) through a :class:`~apnlab.gf2n.SubfieldMap`.
"""

from __future__ import annotations

from typing import IO, Iterable, Sequence

import numpy as np

from .bitlinalg import row_ranks
from .errors import PreconditionError
from .gf2n import Field, FieldElement, SubfieldMap, field_from_header

__all__ = [
    "BivariateFunc",
    "FunctionTable",
    "LinearizedPoly",
    "UnivariatePoly",
    "adjoint",
    "bivariate_to_table",
    "compose",
    "is_linearized_permutation",
    "normalize_exponent",
    "random_affine_permutation",
    "read_lut",
    "to_table",
    "write_lut",
]


def normalize_exponent(e: int, mult_order: int) -> int:
    """Reduce an exponent to [0, 2^n - 1] preserving the induced function.

    0 stays 0 (the constant-term exponent); positive e maps to
    ((e - 1) mod (2^n - 1)) + 1, so z^e and its reduction agree at z = 0 too.
    """
    if e < 0:
        raise PreconditionError("polynomial exponents must be non-negative")
    if e == 0:
        return 0
    r = e % mult_order
    return r if r else mult_order


def _format_coeff(field: Field, c: int, style: str) -> str:
    if style == "hex":
        return f"0x{c:x}"
    if c == 1:
        return ""
    _, log = field._tables()
    return f"u^{int(log[c])}"


class FunctionTable:
    """A function GF(2^n) -> GF(2^n) as a read-only lookup table."""

    def __init__(self, field: Field, lut: Sequence[int] | np.ndarray):
        arr = np.array(lut, dtype=np.uint32)
        if arr.shape != (field.order,):
            raise PreconditionError(
                f"lookup table must have 2^{field.n} entries, got {arr.shape}")
        if arr.size and int(arr.max()) >= field.order:
            raise PreconditionError("lookup table entry out of field range")
        arr.setflags(write=False)
        self.field = field
        self.lut = arr

    def is_permutation(self) -> bool:
        return bool(np.bincount(self.lut, minlength=self.field.order).max() == 1)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FunctionTable) and self.field == other.field
                and bool(np.array_equal(self.lut, other.lut)))

    def __hash__(self) -> int:
        return hash((self.field, self.lut.tobytes()))

    def __repr__(self) -> str:
        return f"FunctionTable(GF(2^{self.field.n}))"


class UnivariatePoly:
    """Sparse univariate polynomial over GF(2^n), as a function form."""

    def __init__(self, field: Field,
                 terms: Iterable[tuple[int | FieldElement, int]]):
        combined: dict[int, int] = {}
        for c, e in terms:
            cb = field.coerce(c)
            en = normalize_exponent(e, field.mult_order)
            combined[en] = combined.get(en, 0) ^ cb
        self.field = field
        self.terms: tuple[tuple[int, int], ...] = tuple(
            (c, e) for e, c in sorted(combined.items()) if c)

    @classmethod
    def monomial(cls, field: Field, e: int, c: int | FieldElement = 1) -> "UnivariatePoly":
        return cls(field, [(c, e)])

    def eval(self, z: int | FieldElement) -> int:
        f = self.field
        zb = f.coerce(z)
        acc = 0
        for c, e in self.terms:
            acc ^= f.mul(c, f.pow(zb, e))
        return acc

    def eval_vec(self, zs: np.ndarray) -> np.ndarray:
        f = self.field
        acc = np.zeros(np.asarray(zs).shape, dtype=np.uint32)
        for c, e in self.terms:
            acc = acc ^ f.mul_vec(c, f.pow_vec(zs, e))
        return acc

    def to_table(self) -> FunctionTable:
        return FunctionTable(self.field, self.eval_vec(self.field.all_elements_vec()))

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        if other.field != self.field:
            raise PreconditionError("mixed-field operands in polynomial sum")
        return UnivariatePoly(self.field, list(self.terms) + list(other.terms))

    def __mul__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        if other.field != self.field:
            raise PreconditionError("mixed-field operands in polynomial product")
        f = self.field
        prods = [(f.mul(c1, c2), e1 + e2)
                 for c1, e1 in self.terms for c2, e2 in other.terms]
        return UnivariatePoly(f, prods)

    def frob(self, k: int) -> "UnivariatePoly":
        """The polynomial raised to the 2^k power (as a function form)."""
        f = self.field
        return UnivariatePoly(
            f, [(f.pow(c, 1 << k), e * (1 << k)) for c, e in self.terms])

    def format(self, style: str = "power") -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, e in reversed(self.terms):
            cs = _format_coeff(self.field, c, style)
            if e == 0:
                parts.append(cs if cs else "1")
            else:
                v = "z" if e == 1 else f"z^{e}"
                parts.append(f"{cs}*{v}" if cs else v)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"UnivariatePoly(GF(2^{self.field.n}), {self.format('hex')})"


class LinearizedPoly:
    """Polynomial with terms c_i z^(2^i) only; a GF(2)-linear map."""

    def __init__(self, field: Field, coeffs: Iterable[int | FieldElement]):
        cs = [field.coerce(c) for c in coeffs]
        if len(cs) > field.n:
            raise PreconditionError(
                f"linearized form needs at most n={field.n} coefficients")
        cs += [0] * (field.n - len(cs))
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_exponent_terms(cls, field: Field,
                            terms: Iterable[tuple[int | FieldElement, int]]) -> "LinearizedPoly":
        """Build from (coefficient, i) pairs meaning c * z^(2^i); i is taken mod n."""
        cs = [0] * field.n
        for c, i in terms:
            cs[i % field.n] ^= field.coerce(c)
        return cls(field, cs)

    def eval(self, z: int | FieldElement) -> int:
        f = self.field
        zb = f.coerce(z)
        acc = 0
        cur = zb
        for c in self.coeffs:
            if c:
                acc ^= f.mul(c, cur)
            cur = f.sqr(cur)
        return acc

    def eval_vec(self, zs: np.ndarray) -> np.ndarray:
        f = self.field
        acc = np.zeros(np.asarray(zs).shape, dtype=np.uint32)
        cur = np.asarray(zs, dtype=np.uint32)
        for c in self.coeffs:
            if c:
                acc = acc ^ f.mul_vec(c, cur)
            cur = f.sqr_vec(cur)
        return acc

    def to_table(self) -> FunctionTable:
        return FunctionTable(self.field, self.eval_vec(self.field.all_elements_vec()))

    def to_univariate(self) -> UnivariatePoly:
        return UnivariatePoly(self.field,
                              [(c, 1 << i) for i, c in enumerate(self.coeffs) if c])

    def __repr__(self) -> str:
        return f"LinearizedPoly(GF(2^{self.field.n}), {self.coeffs})"


def is_linearized_permutation(L: LinearizedPoly) -> bool:
    """Whether the linearized polynomial permutes the field: the images of
    the n basis vectors have full GF(2) rank."""
    n = L.field.n
    images = L.eval_vec(np.uint32(1) << np.arange(n, dtype=np.uint32))
    return bool(row_ranks(images[None])[0] == n)


def adjoint(L: LinearizedPoly) -> LinearizedPoly:
    """The adjoint map L* with tr(y * L(x)) = tr(x * L*(y)) for all x, y.

    Termwise, (c z^(2^i))* = c^(2^(n-i)) z^(2^(n-i)).
    """
    f = L.field
    n = f.n
    out = [0] * n
    for i, c in enumerate(L.coeffs):
        if c:
            j = (n - i) % n
            out[j] ^= f.pow(c, 1 << j)
    return LinearizedPoly(f, out)


class BivariateFunc:
    """A map GF(2^m)^2 -> GF(2^m)^2 given by two polynomials in (x, y).

    Each coordinate is a list of terms (c, ex, ey) meaning c * x^ex * y^ey.
    """

    def __init__(self, field: Field,
                 first: Iterable[tuple[int | FieldElement, int, int]],
                 second: Iterable[tuple[int | FieldElement, int, int]]):
        self.field = field
        self.first = self._normalize(first)
        self.second = self._normalize(second)

    def _normalize(self, terms) -> tuple[tuple[int, int, int], ...]:
        f = self.field
        combined: dict[tuple[int, int], int] = {}
        for c, ex, ey in terms:
            key = (normalize_exponent(ex, f.mult_order),
                   normalize_exponent(ey, f.mult_order))
            combined[key] = combined.get(key, 0) ^ f.coerce(c)
        return tuple((c, ex, ey)
                     for (ex, ey), c in sorted(combined.items()) if c)

    def _eval_coord(self, terms, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        f = self.field
        acc = np.zeros(np.asarray(xs).shape, dtype=np.uint32)
        for c, ex, ey in terms:
            acc = acc ^ f.mul_vec(c, f.mul_vec(f.pow_vec(xs, ex),
                                               f.pow_vec(ys, ey)))
        return acc

    def eval(self, x: int | FieldElement, y: int | FieldElement) -> tuple[int, int]:
        xs = np.array([self.field.coerce(x)], dtype=np.uint32)
        ys = np.array([self.field.coerce(y)], dtype=np.uint32)
        return (int(self._eval_coord(self.first, xs, ys)[0]),
                int(self._eval_coord(self.second, xs, ys)[0]))

    def to_table(self, submap: SubfieldMap) -> FunctionTable:
        if submap.component != self.field:
            raise PreconditionError("subfield map component differs from the function's field")
        parent = submap.parent
        xs, ys = submap.split_vec(parent.all_elements_vec())
        fx = self._eval_coord(self.first, xs, ys)
        fy = self._eval_coord(self.second, xs, ys)
        return FunctionTable(parent, submap.embed_vec(fx, fy))

    def format(self, style: str = "power") -> str:
        def one(terms):
            if not terms:
                return "0"
            parts = []
            for c, ex, ey in reversed(terms):
                cs = _format_coeff(self.field, c, style)
                vs = "*".join(
                    ([("x" if ex == 1 else f"x^{ex}")] if ex else [])
                    + ([("y" if ey == 1 else f"y^{ey}")] if ey else []))
                if not vs:
                    parts.append(cs if cs else "1")
                else:
                    parts.append(f"{cs}*{vs}" if cs else vs)
            return " + ".join(parts)
        return f"({one(self.first)}, {one(self.second)})"

    def __repr__(self) -> str:
        return f"BivariateFunc(GF(2^{self.field.n}), {self.format('hex')})"


def to_table(f: UnivariatePoly | LinearizedPoly | FunctionTable) -> FunctionTable:
    if isinstance(f, FunctionTable):
        return f
    return f.to_table()


def bivariate_to_table(f: BivariateFunc, submap: SubfieldMap) -> FunctionTable:
    return f.to_table(submap)


def compose(outer: FunctionTable, inner: FunctionTable) -> FunctionTable:
    """The composite z -> outer(inner(z))."""
    if outer.field != inner.field:
        raise PreconditionError("mixed-field operands in composition")
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


# ---------------------------------------------------------------------------
# LUT file format: header line, then 2^n hex entries, one per line


def write_lut(table: FunctionTable, fh: IO[str]) -> None:
    fh.write(table.field.header() + "\n")
    for v in table.lut:
        fh.write(f"{int(v):x}\n")


def read_lut(fh: IO[str]) -> FunctionTable:
    header = fh.readline()
    field = field_from_header(header)
    vals = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            v = int(line, 16)
        except ValueError:
            v = -1
        if not 0 <= v < field.order:
            raise PreconditionError(
                f"LUT line {lineno}: {line!r} is not a hex element of GF(2^{field.n})")
        vals.append(v)
    if len(vals) != field.order:
        raise PreconditionError(
            f"LUT file must carry 2^{field.n} entries, found {len(vals)}")
    return FunctionTable(field, vals)
