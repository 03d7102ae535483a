"""Differential analysis and exact verifiers for APN constructions.

Four groups of tools:

* difference-distribution statistics (:func:`ddt`, :func:`is_apn`, and the
  two-solution shortcut :func:`is_apn_quadratic` valid for quadratic
  functions, whose degree :func:`algebraic_degree` checks);
* root classification of cubics ``z^3 + az + b`` over GF(2^m) via the
  quadratic resolvent ``t^2 + bt + a^3`` (:func:`cubic_root_count`),
  cross-checkable against brute force;
* polynomial resultants as Sylvester determinants — scalar
  (:func:`resultant`), with one variable eliminated from a bivariate pair
  (:func:`resultant_bivariate`), and the full factored-identity check for
  the bivariate APN family's derivative system
  (:func:`verify_resultant_identity`);
* the algebraic identity suite behind the trinomial family's APN proof
  (:func:`verify_key_lemma` and :func:`sweep_key_lemma`), which recomputes
  every displayed quantity and factorization from scratch at each point.

Everything here is exact GF(2^m) arithmetic; no floating point, no
sampling unless a pointwise mode is explicitly requested.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .bitlinalg import mem_budget_bytes
from .errors import MemoryBudgetError, PreconditionError
from .gf2n import Field, cube_class, field_new, subfield_embedding
from .vbf import FunctionTable

__all__ = [
    "CubicClass",
    "brute_cubic_root_count",
    "DdtSummary",
    "KeyLemmaReport",
    "ResultantIdentityReport",
    "algebraic_degree",
    "cubic_root_count",
    "cubic_trinomial_has_root",
    "ddt",
    "is_apn",
    "is_apn_quadratic",
    "resultant",
    "resultant_bivariate",
    "sweep_key_lemma",
    "verify_adjoint_permutation_agreement",
    "verify_key_lemma",
    "verify_resultant_identity",
    "verify_subfield_scaled_permutations",
]

_DDT_MAX_N = 16
_DDT_WARN_N = 14
_WITNESS_CAP = 16
#: DDT cells tallied per vectorised pass (whole rows of the table).
_DDT_CELLS_PER_PASS = 1 << 16

#: Peak bytes per (a, b, x) point of the full resultant sweep: the int64
#: index (8 B); 4 B for each uint32 array live at the determinant's widest
#: step, i.e. 15 inputs (a, b, x, a^2, b^2, a^3, b^3, a^4, b^4, x^2 and the
#: Sylvester entries f2, f1, f0, g1, g0) and 25 partial minors; and 33 B of
#: one ``mul_vec`` call's scratch (a 1 B mask, three int64 log/index arrays
#: and two uint32 gathers).  Measured peak: 197 B/point at m = 4..6.
_RESULTANT_BYTES_PER_POINT = 8 + 4 * (15 + 25) + 33


# ----------------------------------------------------------------------
# difference distribution


@dataclass
class DdtSummary:
    """Differential spectrum of a function: delta and the full histogram."""

    field: Field
    delta: int
    histogram: dict[int, int]  # DDT entry value -> number of (a != 0, b) cells
    witnesses: list[tuple[int, int]]  # (a, b) with DDT[a][b] == delta, capped

    def to_json_dict(self) -> dict:
        return {
            "n": self.field.n,
            "delta": self.delta,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "witnesses": [list(w) for w in self.witnesses],
        }


def _ddt_guard(n: int) -> None:
    if n > _DDT_MAX_N:
        raise PreconditionError(
            f"DDT supported up to n={_DDT_MAX_N}, got n={n}"
        )
    if n >= _DDT_WARN_N:
        warnings.warn(
            f"DDT at n={n} walks 2^{2 * n} pairs; expect minutes",
            RuntimeWarning,
            stacklevel=3,
        )


def ddt(f: FunctionTable) -> DdtSummary:
    """Exact difference-distribution summary of ``f``.

    For every a != 0 the counts of solutions z to f(z+a)+f(z) = b are
    tallied over all b (zeros included in the histogram); ``delta`` is the
    maximum count, and up to 16 (a, b) cells achieving it are recorded in
    scan order.
    """
    n = f.field.n
    _ddt_guard(n)
    order = f.field.order
    lut = f.lut
    zs = np.arange(order, dtype=np.uint32)
    hist = np.zeros(order + 1, dtype=np.int64)
    delta = 0
    witnesses: list[tuple[int, int]] = []
    step = max(1, _DDT_CELLS_PER_PASS // order)
    for a0 in range(1, order, step):
        a = np.arange(a0, min(a0 + step, order), dtype=np.uint32)
        # DDT cell (a, b) of this pass at flat index (a - a0) * order + b
        cells = (lut[zs ^ a[:, None]] ^ lut).astype(np.int64)
        cells += np.arange(0, a.size * order, order, dtype=np.int64)[:, None]
        block = np.bincount(cells.ravel(), minlength=a.size * order)
        hist += np.bincount(block, minlength=order + 1)
        block = block.reshape(a.size, order)
        block_max = block.max(axis=1)
        for i in np.flatnonzero(block_max >= delta):
            counts, row_max = block[i], int(block_max[i])
            if row_max > delta:
                delta = row_max
                witnesses = [(a0 + int(i), int(b)) for b in
                             np.flatnonzero(counts == row_max)[:_WITNESS_CAP]]
            elif row_max == delta and len(witnesses) < _WITNESS_CAP:
                extra = np.flatnonzero(counts == row_max)[: _WITNESS_CAP - len(witnesses)]
                witnesses.extend((a0 + int(i), int(b)) for b in extra)
    histogram = {int(v): int(c) for v, c in enumerate(hist) if c}
    return DdtSummary(field=f.field, delta=delta, histogram=histogram, witnesses=witnesses)


def is_apn(f: FunctionTable) -> bool:
    """True iff the differential uniformity of ``f`` is exactly 2.

    Aborts at the first derivative direction exceeding two solutions, so
    non-APN inputs return quickly.
    """
    n = f.field.n
    _ddt_guard(n)
    order = f.field.order
    lut = f.lut
    zs = np.arange(order, dtype=np.uint32)
    for a in range(1, order):
        counts = np.bincount(lut[zs ^ a] ^ lut, minlength=order)
        if int(counts.max()) != 2:
            return False
    return order > 1


def algebraic_degree(f: FunctionTable) -> int:
    """Algebraic degree of ``f``: the largest weight of a monomial in the
    algebraic normal form of any coordinate (0 for constant functions).

    A Möbius transform over the LUT, one vectorised pass per input bit,
    transforms all n coordinates at once as the bits of each entry.
    """
    anf = np.array(f.lut, dtype=np.uint32)
    for i in range(f.field.n):
        pairs = anf.reshape(-1, 2, 1 << i)
        pairs[:, 1] ^= pairs[:, 0]
    support = np.flatnonzero(anf)
    if support.size == 0:
        return 0
    return int(np.bitwise_count(support).max())


def is_apn_quadratic(f: FunctionTable) -> bool:
    """Two-solution shortcut: every f(z+a)+f(z)+f(a)+f(0) vanishes only at {0, a}.

    Agrees with :func:`is_apn` whenever ``f`` is quadratic (each derivative
    is then affine, so its value is taken equally often everywhere it is
    taken at all); raises :class:`PreconditionError` above degree 2.
    """
    if algebraic_degree(f) > 2:
        raise PreconditionError("condition violated: algebraic degree <= 2")
    order = f.field.order
    lut = f.lut
    zs = np.arange(order, dtype=np.uint32)
    f0 = int(lut[0])
    for a in range(1, order):
        vals = lut[zs ^ a] ^ lut ^ int(lut[a]) ^ f0
        if int((vals == 0).sum()) != 2:
            return False
    return order > 1


# ----------------------------------------------------------------------
# cubic root classification


@dataclass
class CubicClass:
    """Root count of z^3 + az + b with the resolvent evidence when used."""

    root_count: int  # 0, 1, or 3
    resolvent_roots: tuple[int, int] | None = None  # bits; see in_extension
    resolvent_in_extension: bool = False  # roots live in GF(2^(2m)) not GF(2^m)


def brute_cubic_root_count(field: Field, a, b) -> int:
    """Roots of z^3 + az + b counted by exhaustive evaluation (the oracle)."""
    a = field.coerce(a)
    b = field.coerce(b)
    zs = field.all_elements_vec()
    vals = field.pow_vec(zs, 3) ^ field.mul_scalar_vec(a, zs) ^ b
    return int((vals == 0).sum())


def _artin_schreier_root(field: Field, w: int) -> int | None:
    """Smallest r with r^2 + r = w, or None when the trace obstruction holds."""
    zs = field.all_elements_vec()
    hits = np.flatnonzero(field.sqr_vec(zs) ^ zs == w)
    return int(hits[0]) if hits.size else None


def cubic_root_count(field: Field, a, b) -> CubicClass:
    """Number of roots of z^3 + az + b in GF(2^m), with resolvent evidence.

    For a, b both nonzero the classification is: one root when
    tr(a^3/b^2) != tr(1); otherwise the resolvent t^2 + bt + a^3 has roots
    t1, t2 (in GF(2^m) for even m, in GF(2^(2m)) for odd m) and the cubic
    has three roots when the t_i are cubes there and none otherwise.
    Degenerate inputs (a = 0 or b = 0) are counted by brute force and carry
    no resolvent evidence.
    """
    a = field.coerce(a)
    b = field.coerce(b)
    if a == 0 or b == 0:
        return CubicClass(root_count=brute_cubic_root_count(field, a, b))
    m = field.n
    w = field.mul(field.pow(a, 3), field.inv(field.sqr(b)))
    tr_w = field.trace_to(1, w)
    tr_one = field.trace_to(1, 1)
    if tr_w != tr_one:
        return CubicClass(root_count=1)
    # resolvent roots t = b*r with r^2 + r = a^3/b^2
    if m % 2 == 0:
        r = _artin_schreier_root(field, w)
        assert r is not None  # tr(w) = tr(1) = 0 for even m
        t1 = field.mul(b, r)
        t2 = field.mul(b, r ^ 1)
        both_cubes = (
            cube_class(field, t1) == "cube" and cube_class(field, t2) == "cube"
        )
        return CubicClass(
            root_count=3 if both_cubes else 0,
            resolvent_roots=(t1, t2),
            resolvent_in_extension=False,
        )
    ext = field_new(2 * m)
    lift = subfield_embedding(ext, field)
    w_up = int(lift[w])
    b_up = int(lift[b])
    r = _artin_schreier_root(ext, w_up)
    assert r is not None  # absolute trace doubles to 0 in the even extension
    t1 = ext.mul(b_up, r)
    t2 = ext.mul(b_up, r ^ 1)
    both_cubes = (
        cube_class(ext, t1) == "cube" and cube_class(ext, t2) == "cube"
    )
    return CubicClass(
        root_count=3 if both_cubes else 0,
        resolvent_roots=(t1, t2),
        resolvent_in_extension=True,
    )


def cubic_trinomial_has_root(m: int) -> bool:
    """Whether z^3 + z + 1 has a root in GF(2^m)."""
    field = field_new(m)
    return brute_cubic_root_count(field, 1, 1) > 0


# ----------------------------------------------------------------------
# resultants (Sylvester determinants)


def _trimmed(field: Field, coeffs) -> list[int]:
    out = [field.coerce(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def _sylvester_rows(u: list, v: list, zero) -> list[list]:
    """Sylvester matrix rows for ascending-coefficient u, v (deg >= 1 total)."""
    du, dv = len(u) - 1, len(v) - 1
    size = du + dv
    rows = []
    u_desc = u[::-1]
    v_desc = v[::-1]
    for i in range(dv):
        rows.append([zero] * i + u_desc + [zero] * (size - du - 1 - i))
    for i in range(du):
        rows.append([zero] * i + v_desc + [zero] * (size - dv - 1 - i))
    return rows


def _det_masked(rows: list[list], mul, add, is_zero) -> object:
    """Division-free determinant via DP over column subsets.

    In characteristic 2 the determinant equals the permanent, so the usual
    sign bookkeeping disappears: D[mask] accumulates the permanent of the
    first popcount(mask) rows against the column set ``mask``.  The DP
    starts from the first row's entries, so no multiplication by one is
    made; entries may be scalars, polynomials or arrays (elementwise).
    """
    k = len(rows)
    prev = {1 << j: e for j, e in enumerate(rows[0]) if not is_zero(e)}
    for row in rows[1:]:
        nxt: dict[int, object] = {}
        for mask, val in prev.items():
            for j in range(k):
                if mask >> j & 1 or is_zero(row[j]):
                    continue
                m2 = mask | (1 << j)
                term = mul(val, row[j])
                if m2 in nxt:
                    nxt[m2] = add(nxt[m2], term)
                else:
                    nxt[m2] = term
        prev = nxt
        if not prev:
            return None  # all contributions vanished structurally
    return prev.get((1 << k) - 1)


def resultant(field: Field, u, v, formal_degrees: tuple[int, int] | None = None) -> int:
    """Resultant of two polynomials with GF(2^m) coefficients.

    ``u``/``v`` are ascending coefficient sequences (ints or FieldElement).
    By default degrees are the actual ones (trailing zeros dropped; zero
    polynomials are an error).  ``formal_degrees`` pins the Sylvester block
    sizes instead, evaluating the determinant with declared degrees even if
    a leading coefficient is zero.
    """
    if formal_degrees is None:
        uu = _trimmed(field, u)
        vv = _trimmed(field, v)
        if not uu or not vv:
            raise PreconditionError("resultant of a zero polynomial")
    else:
        du, dv = formal_degrees
        uu = [field.coerce(c) for c in u] + [0] * (du + 1 - len(u))
        vv = [field.coerce(c) for c in v] + [0] * (dv + 1 - len(v))
        uu = uu[: du + 1]
        vv = vv[: dv + 1]
    du, dv = len(uu) - 1, len(vv) - 1
    if du == 0 and dv == 0:
        return 1
    if du == 0:
        return field.pow(uu[0], dv)
    if dv == 0:
        return field.pow(vv[0], du)
    rows = _sylvester_rows(uu, vv, 0)
    det = _det_masked(
        rows,
        mul=field.mul,
        add=lambda x, y: x ^ y,
        is_zero=lambda x: x == 0,
    )
    return 0 if det is None else det


class _XPolyRing:
    """Dense univariate polynomials over GF(2^m), as ascending bit-tuples."""

    def __init__(self, field: Field):
        self.field = field
        self.zero: tuple[int, ...] = ()

    def trim(self, p: tuple[int, ...]) -> tuple[int, ...]:
        n = len(p)
        while n and p[n - 1] == 0:
            n -= 1
        return p[:n]

    def add(self, p, q):
        if len(p) < len(q):
            p, q = q, p
        out = list(p)
        for i, c in enumerate(q):
            out[i] ^= c
        return self.trim(tuple(out))

    def mul(self, p, q):
        if not p or not q:
            return ()
        out = [0] * (len(p) + len(q) - 1)
        fmul = self.field.mul
        for i, c in enumerate(p):
            if not c:
                continue
            for j, d in enumerate(q):
                if d:
                    out[i + j] ^= fmul(c, d)
        return self.trim(tuple(out))

    def is_zero(self, p) -> bool:
        return not p


def _bivariate_to_y_coeffs(
    field: Field, terms, eliminate: str
) -> list[tuple[int, ...]]:
    """Collect (coeff, ex, ey) terms into ascending-in-y list of x-polys."""
    acc: dict[int, dict[int, int]] = {}
    for c, ex, ey in terms:
        c = field.coerce(c)
        if not c:
            continue
        if eliminate == "x":
            ex, ey = ey, ex
        acc.setdefault(ey, {})[ex] = acc.get(ey, {}).get(ex, 0) ^ c
    out: list[tuple[int, ...]] = []
    top = max(acc) if acc else 0
    for ey in range(top + 1):
        row = acc.get(ey, {})
        width = max(row) + 1 if row else 0
        poly = [0] * width
        for ex, c in row.items():
            poly[ex] = c
        ring = _XPolyRing(field)
        out.append(ring.trim(tuple(poly)))
    while out and not out[-1]:
        out.pop()
    return out


def resultant_bivariate(
    field: Field, f_terms, g_terms, eliminate: str = "y"
) -> tuple[int, ...]:
    """Eliminate one variable from two bivariate polynomials over GF(2^m).

    ``f_terms``/``g_terms`` are iterables of (coeff, x-exponent, y-exponent)
    with *formal* (non-reduced) exponents.  Returns the resultant with
    respect to the eliminated variable as an ascending coefficient tuple in
    the remaining variable.  Every common zero of the inputs is a root of
    the result.
    """
    if eliminate not in ("x", "y"):
        raise PreconditionError("eliminate must be 'x' or 'y'")
    fu = _bivariate_to_y_coeffs(field, f_terms, eliminate)
    gu = _bivariate_to_y_coeffs(field, g_terms, eliminate)
    if len(fu) <= 1 or len(gu) <= 1:
        raise PreconditionError(
            "input is degenerate (degree 0) in the eliminated variable"
        )
    ring = _XPolyRing(field)
    rows = _sylvester_rows(fu, gu, ring.zero)
    det = _det_masked(rows, mul=ring.mul, add=ring.add, is_zero=ring.is_zero)
    return () if det is None else det


# ----------------------------------------------------------------------
# derivative-system resultant identity for the new bivariate family


@dataclass
class ResultantIdentityReport:
    """Outcome of checking the factored derivative-system resultant."""

    m: int
    mode: str
    checked: int
    mismatches: list[tuple[int, int, int]]  # witness (a, b, x) triples, capped
    b_coeff_zero_set_ok: bool  # constant term vanishes only at (a,b) = (1,1)
    denominator_nonzero_ok: bool  # a^3+ab^2+b^3 != 0 off the origin

    @property
    def identity_holds(self) -> bool:
        return not self.mismatches

    @property
    def all_ok(self) -> bool:
        return (
            self.identity_holds
            and self.b_coeff_zero_set_ok
            and self.denominator_nonzero_ok
        )

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "mode": self.mode,
            "checked": self.checked,
            "identity_holds": self.identity_holds,
            "b_coeff_zero_set_ok": self.b_coeff_zero_set_ok,
            "denominator_nonzero_ok": self.denominator_nonzero_ok,
            "mismatches": [list(w) for w in self.mismatches],
        }


def verify_resultant_identity(
    m: int,
    mode: str = "full-sweep",
    samples: int = 256,
    seed: int = 0,
) -> ResultantIdentityReport:
    """Check the factored form of the derivative system's y-resultant.

    The system's two coordinate equations, viewed as polynomials in y with
    x, a, b specialized, have y-degrees 2 and 4; their 6x6 Sylvester
    determinant must equal ``(a^3+ab^2+b^3)^2 x (x+a) H(x) H(x+a)`` with
    ``H(x) = x^3 + (a^2+ab+a+b^2+b+1) x + (a^3+a^2b+a+b^3+b^2+1)``.

    full-sweep mode checks every (a, b, x) in GF(2^m)^3; pointwise mode
    checks ``samples`` uniformly random triples.  Two side facts are always
    swept over all (a, b): the constant term of H vanishes only at
    (a, b) = (1, 1), and a^3+ab^2+b^3 is nonzero off the origin.

    Raises :class:`MemoryBudgetError` before allocating when the full sweep
    would exceed ``APNLAB_MEM_BUDGET_GIB``.
    """
    field = field_new(m)
    order = field.order
    if mode == "full-sweep":
        need = order**3 * _RESULTANT_BYTES_PER_POINT
        limit = mem_budget_bytes()
        if need > limit:
            raise MemoryBudgetError(
                f"full resultant sweep at m={m} needs {need} bytes, "
                f"budget is {limit}")
        idx = np.arange(order**3, dtype=np.int64)
        a = (idx // (order * order)).astype(np.uint32)
        b = ((idx // order) % order).astype(np.uint32)
        x = (idx % order).astype(np.uint32)
    elif mode == "pointwise":
        rng = np.random.default_rng(seed)
        a = rng.integers(0, order, samples).astype(np.uint32)
        b = rng.integers(0, order, samples).astype(np.uint32)
        x = rng.integers(0, order, samples).astype(np.uint32)
    else:
        raise PreconditionError(f"unknown mode {mode!r}")

    mul, sq = field.mul_vec, field.sqr_vec
    a2, b2 = sq(a), sq(b)
    a3, b3 = mul(a2, a), mul(b2, b)
    a4, b4 = sq(a2), sq(b2)
    x2 = sq(x)

    # first equation in y: (a+b) y^2 + (a+b^2) y + [a x^2 + (a^2+b^2+b) x]
    f2 = a ^ b
    f1 = a ^ b2
    f0 = mul(a, x2) ^ mul(a2 ^ b2 ^ b, x)
    # second equation in y: b y^4 + a^2 y^2 + (a^4+a+b^4) y
    #                        + [(a+b) x^4 + b^2 x^2 + (a^4+b) x]
    g4 = b
    g2 = a2
    g1 = a4 ^ a ^ b4
    g0 = mul(a ^ b, sq(x2)) ^ mul(b2, x2) ^ mul(a4 ^ b, x)

    rows = _sylvester_rows([f0, f1, f2], [g0, g1, g2, None, g4], None)
    lhs = _det_masked(rows, mul=mul, add=lambda x, y: x ^ y,
                      is_zero=lambda x: x is None)

    h_lin = a2 ^ mul(a, b) ^ a ^ b2 ^ b ^ 1
    h_const = a3 ^ mul(a2, b) ^ a ^ b3 ^ b2 ^ 1
    xa = x ^ a

    def h_at(t: np.ndarray) -> np.ndarray:
        return mul(sq(t), t) ^ mul(h_lin, t) ^ h_const

    lead = a3 ^ mul(a, b2) ^ b3
    rhs = mul(mul(mul(sq(lead), mul(x, xa)), h_at(x)), h_at(xa))

    bad = np.flatnonzero(lhs ^ rhs)
    mismatches = [
        (int(a[i]), int(b[i]), int(x[i])) for i in bad[:_WITNESS_CAP]
    ]

    # side facts over all (a, b) pairs regardless of mode
    pa, pb = np.meshgrid(
        np.arange(order, dtype=np.uint32),
        np.arange(order, dtype=np.uint32),
        indexing="ij",
    )
    pa, pb = pa.ravel(), pb.ravel()
    pa2, pb2 = sq(pa), sq(pb)
    pa3, pb3 = mul(pa2, pa), mul(pb2, pb)
    const = pa3 ^ mul(pa2, pb) ^ pa ^ pb3 ^ pb2 ^ 1
    zero_set = set(zip((pa[const == 0]).tolist(), (pb[const == 0]).tolist()))
    b_ok = zero_set == {(1, 1)}
    denom = pa3 ^ mul(pa, pb2) ^ pb3
    denom_zero = set(zip((pa[denom == 0]).tolist(), (pb[denom == 0]).tolist()))
    den_ok = denom_zero == {(0, 0)}

    return ResultantIdentityReport(
        m=m,
        mode=mode,
        checked=int(a.size),
        mismatches=mismatches,
        b_coeff_zero_set_ok=b_ok,
        denominator_nonzero_ok=den_ok,
    )


# ----------------------------------------------------------------------
# identity suite for the trinomial family's APN proof


@dataclass
class KeyLemmaReport:
    """All displayed quantities of the trinomial proof, recomputed at one point.

    Stores the five primary values A..E, the two derived quadruples U1..U4
    and V1..V4, and the diagnostics U, V, T, P; ``claim_results`` recomputes
    the five claims from these stored values on access.
    """

    field: Field
    m: int
    s: int
    mu: int
    v: int
    a: int
    A: int
    B: int
    C: int
    D: int
    E: int
    U1: int
    U2: int
    U3: int
    U4: int
    V1: int
    V2: int
    V3: int
    V4: int
    U: int
    V: int
    T: int
    P: int
    la: int  # L(a)
    factorization_failures: list[str] = dataclass_field(default_factory=list)

    @property
    def claim_results(self) -> tuple[bool, bool, bool, bool, bool]:
        """The five claims, in :func:`_key_claims` order."""
        q = {k: getattr(self, k) for k in _KEY_QUANTITIES}
        return tuple(bool(c) for c in _key_claims(self.field, self.s, q, vec=False))

    @property
    def all_claims_hold(self) -> bool:
        return all(self.claim_results) and not self.factorization_failures


def _key_point_values(field: Field, m: int, s: int, mu_bits: int, v_bits: int,
                      a, la, vec: bool) -> dict:
    """The proof's displayed quantities at ``a`` (scalar or elementwise).

    With ``vec`` false, ``a``/``la`` are ints and every value is an int;
    with ``vec`` true they are uint32 arrays and every value is an array of
    the same shape.  One body serves both so the exhaustive sweep cannot
    drift from the single-point report.
    """
    mul = field.mul_vec if vec else field.mul
    pw = field.pow_vec if vec else field.pow
    qm = 1 << m
    q2 = 1 << (2 * m)
    qs = 1 << s
    lam = pw(la, qm)
    cv = la ^ mul(v_bits, a)

    A = mul(la, pw(a, 1 << (2 * m + s)))
    B = mul(lam ^ mul(field.pow(mu_bits, qm), la), pw(a, 1 << (m + s)))
    C = mul(cv, pw(a, qm))
    D = mul(mu_bits, mul(lam, pw(a, qs)))
    E = mul(pw(cv, qm), a)

    U1 = (
        mul(pw(D, q2), pw(E, qm + 1))
        ^ mul(A, mul(pw(C, q2), pw(E, qm)))
        ^ mul(pw(B, qm), pw(C, q2 + 1))
    )
    U2 = (
        mul(pw(A, q2), pw(E, qm + 1))
        ^ mul(B, mul(pw(C, q2), pw(E, qm)))
        ^ mul(pw(C, q2 + 1), pw(D, qm))
    )
    U3 = (
        mul(pw(B, q2), pw(E, qm + 1))
        ^ mul(pw(C, q2), mul(D, pw(E, qm)))
        ^ mul(pw(A, qm), pw(C, q2 + 1))
    )
    U4 = pw(C, q2 + qm + 1) ^ pw(E, q2 + qm + 1)

    V1 = (
        mul(pw(A, q2 + 2), pw(C, qm))
        ^ mul(A, mul(B, mul(pw(C, qm), pw(D, q2))))
        ^ mul(A, mul(pw(B, qm + 1), pw(E, q2)))
        ^ mul(pw(A, 2), mul(pw(D, qm), pw(E, q2)))
    )
    V2 = (
        mul(pw(A, q2 + 2), pw(E, qm))
        ^ mul(A, mul(B, mul(pw(D, q2), pw(E, qm))))
        ^ mul(pw(A, q2 + 1), mul(pw(B, qm), C))
        ^ mul(A, mul(C, pw(D, q2 + qm)))
    )
    V3 = (
        mul(pw(A, q2 + 1), mul(pw(B, qm), E))
        ^ mul(A, mul(pw(B, qm + 1), pw(C, q2)))
        ^ mul(pw(A, 2), mul(pw(C, q2), pw(D, qm)))
        ^ mul(A, mul(pw(D, q2 + qm), E))
    )
    V4 = mul(
        pw(B, qm + 1) ^ mul(A, pw(D, qm)), mul(A, pw(B, q2)) ^ pw(D, q2 + 1)
    ) ^ mul(
        pw(A, q2 + 1) ^ mul(B, pw(D, q2)), pw(A, qm + 1) ^ mul(pw(B, qm), D)
    )

    mum = field.pow(mu_bits, qm)
    mu2 = field.pow(mu_bits, q2)

    def ap(e: int):
        return pw(a, e)

    U = (
        mul(mum, ap((1 << (m + s)) + 1))
        ^ ap((1 << (2 * m + s)) + 1)
        ^ ap((1 << (m + s)) + qm)
        ^ mul(field.pow(mu_bits, qm + 1), ap(q2 + (1 << (m + s))))
        ^ mul(field.pow(mu_bits, q2 + 1), ap((1 << (2 * m + s)) + qm))
        ^ mul(mu_bits, ap((1 << (2 * m + s)) + q2))
    )
    V = (
        ap(qm + qs)
        ^ mul(mum, ap(q2 + (1 << (m + s))))
        ^ mul(mu2, ap((1 << (2 * m + s)) + qm))
        ^ ap((1 << (2 * m + s)) + q2)
    )
    T = (
        mul(field.pow(mu_bits, q2 + qm + 1) ^ 1, ap(qs))
        ^ mul(field.pow(mu_bits, q2 + qm), a)
        ^ mul(mu2, ap(qm))
        ^ ap(q2)
    )
    P = ap(1 << (2 * m + s)) ^ mul(mum, ap(1 << (m + s)))

    return {
        "A": A, "B": B, "C": C, "D": D, "E": E,
        "U1": U1, "U2": U2, "U3": U3, "U4": U4,
        "V1": V1, "V2": V2, "V3": V3, "V4": V4,
        "U": U, "V": V, "T": T, "P": P, "la": la,
    }


#: The displayed quantities a :class:`KeyLemmaReport` stores.
_KEY_QUANTITIES = ("A", "B", "C", "D", "E", "U1", "U2", "U3", "U4",
                   "V1", "V2", "V3", "V4", "U", "V", "T", "P", "la")


def _key_claims(field: Field, s: int, q: dict, vec: bool) -> list:
    """The lemma's five claims on the quantities ``q``, in order:

    1. A+B+C+D+E = 0 with every summand nonzero and C+E nonzero;
    2. U_i V_i != 0 for i = 1, 2, 3;
    3. U4 = V4 = 0;
    4. U2 V1^(2^s) + U1 V2^(2^s) + U3 V1^(2^s) + U1 V3^(2^s) = 0;
    5. U2 V1^(2^s) + U1 V2^(2^s) != 0.

    Each is a bool (scalar mode) or a boolean array (vector mode).
    """
    mul = field.mul_vec if vec else field.mul
    pw = field.pow_vec if vec else field.pow
    A, B, C, D, E = (q[k] for k in "ABCDE")
    U1, U2, U3, U4 = (q[f"U{i}"] for i in range(1, 5))
    V1, V2, V3, V4 = (q[f"V{i}"] for i in range(1, 5))
    e = 1 << s
    v1e = pw(V1, e)
    leading = mul(U2, v1e) ^ mul(U1, pw(V2, e))
    return [
        ((A ^ B ^ C ^ D ^ E) == 0) & (A != 0) & (B != 0) & (C != 0)
        & (D != 0) & (E != 0) & ((C ^ E) != 0),
        (U1 != 0) & (V1 != 0) & (U2 != 0) & (V2 != 0) & (U3 != 0) & (V3 != 0),
        (U4 == 0) & (V4 == 0),
        (leading ^ mul(U3, v1e) ^ mul(U1, pw(V3, e))) == 0,
        leading != 0,
    ]


def _key_factorization_checks(field: Field, m: int, s: int, mu_bits: int,
                              v_bits: int, a, q: dict, vec: bool) -> list[tuple[str, object]]:
    """(name, equality) pairs for the proof's printed product forms.

    Covers both displayed shapes of the first product, the three-fold
    Frobenius ladder of each triple, the closed forms of the diagnostics,
    and the proportionality tying E to C.  ``equality`` is a bool (scalar
    mode) or a boolean array (vector mode).
    """
    mul = field.mul_vec if vec else field.mul
    pw = field.pow_vec if vec else field.pow
    qm = 1 << m
    q2 = 1 << (2 * m)
    qs = 1 << s

    def ap(e: int):
        return pw(a, e)

    asu = mul(ap(qs), q["U"])
    vcb = mul(v_bits, mul(ap(qm), pw(q["C"], q2)))
    av = mul(a, q["V"])
    vlt = mul(
        mul(v_bits, ap((1 << (2 * m + s + 1)) + (1 << (m + s)))),
        mul(q["la"], q["T"]),
    )
    pairs = [
        ("U1 = v a^(2^m) C^(2^2m) (a^(2^s) U)^(2^2m)",
         (q["U1"], mul(vcb, pw(asu, q2)))),
        ("U1 = v a^(2^(2m+s)+2^m) C^(2^2m) U^(2^2m)",
         (q["U1"], mul(mul(v_bits, ap((1 << (2 * m + s)) + qm)),
                       mul(pw(q["C"], q2), pw(q["U"], q2))))),
        ("U2 = v a^(2^m) C^(2^2m) (a^(2^s) U)^(2^m)",
         (q["U2"], mul(vcb, pw(asu, qm)))),
        ("U3 = v a^(2^m) C^(2^2m) (a^(2^s) U)",
         (q["U3"], mul(vcb, asu))),
        ("V1 = v a^(2^(2m+s+1)+2^(m+s)) L(a) T (aV)^(2^2m)",
         (q["V1"], mul(vlt, pw(av, q2)))),
        ("V2 = v a^(2^(2m+s+1)+2^(m+s)) L(a) T (aV)^(2^m)",
         (q["V2"], mul(vlt, pw(av, qm)))),
        ("V3 = v a^(2^(2m+s+1)+2^(m+s)) L(a) T (aV)",
         (q["V3"], mul(vlt, av))),
        ("V = a^(2^2m) P + a^(2^m) P^(2^m)",
         (q["V"], mul(ap(q2), q["P"]) ^ mul(ap(qm), pw(q["P"], qm)))),
        ("U = V^(2^2m) + mu V",
         (q["U"], pw(q["V"], q2) ^ mul(mu_bits, q["V"]))),
        ("E = C^(2^m) a^(1-2^2m)",
         (q["E"], mul(pw(q["C"], qm), pw(a, 1 - q2)))),
    ]
    return [(name, lhs == rhs) for name, (lhs, rhs) in pairs]


def verify_key_lemma(m: int, s: int, mu, v, a) -> KeyLemmaReport:
    """Recompute the trinomial proof's displayed quantities at one point ``a``.

    ``mu``/``v`` follow the coefficient convention (FieldElement, or an int
    primitive-power exponent); ``a`` is a FieldElement or a raw bit
    pattern.  Besides the five claims (exposed as properties of the report), the
    printed product factorizations of U1..U3 and V1..V3, the closed forms
    of U and V in terms of the diagnostics, and the proportionality
    E = C^(2^m) a^(1-2^(2m)) are each checked; any that fail are listed in
    ``factorization_failures``.
    """
    from .families import validate_trinomial_params

    field, L, mu_bits, v_bits = validate_trinomial_params(m, s, mu, v)
    a_bits = field.coerce(a)
    if a_bits == 0:
        raise PreconditionError("a != 0")
    la = L.eval(a_bits)
    q = _key_point_values(field, m, s, mu_bits, v_bits, a_bits, la, vec=False)
    failures = [
        name
        for name, ok in _key_factorization_checks(
            field, m, s, mu_bits, v_bits, a_bits, q, vec=False
        )
        if not ok
    ]
    return KeyLemmaReport(
        field=field, m=m, s=s, mu=mu_bits, v=v_bits, a=a_bits,
        A=q["A"], B=q["B"], C=q["C"], D=q["D"], E=q["E"],
        U1=q["U1"], U2=q["U2"], U3=q["U3"], U4=q["U4"],
        V1=q["V1"], V2=q["V2"], V3=q["V3"], V4=q["V4"],
        U=q["U"], V=q["V"], T=q["T"], P=q["P"], la=la,
        factorization_failures=failures,
    )


@dataclass
class KeyLemmaSweep:
    """Aggregate of :func:`verify_key_lemma` over every nonzero point."""

    m: int
    s: int
    mu: int
    v: int
    total: int
    claim_failures: list[int]  # a-values (bits) with any claim false, capped
    factorization_failures: list[int]

    @property
    def all_pass(self) -> bool:
        return not self.claim_failures and not self.factorization_failures

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "s": self.s,
            "mu": self.mu,
            "v": self.v,
            "points_checked": self.total,
            "all_pass": self.all_pass,
            "claim_failures": self.claim_failures,
            "factorization_failures": self.factorization_failures,
        }


def sweep_key_lemma(m: int, s: int, mu, v) -> KeyLemmaSweep:
    """Check every claim and factorization at every a != 0, vectorized.

    Equivalent to folding :func:`verify_key_lemma` over the whole field
    (the two share one quantity-evaluation body) but computed elementwise
    on arrays, which keeps exhaustive parameter sweeps inside test budgets.
    """
    from .families import validate_trinomial_params

    field, L, mu_bits, v_bits = validate_trinomial_params(m, s, mu, v)
    a = field.all_elements_vec()[1:]
    la = L.eval_vec(a)
    q = _key_point_values(field, m, s, mu_bits, v_bits, a, la, vec=True)
    claims_ok = np.logical_and.reduce(_key_claims(field, s, q, vec=True))

    fact_ok = np.ones(a.shape, dtype=bool)
    for _, ok in _key_factorization_checks(
        field, m, s, mu_bits, v_bits, a, q, vec=True
    ):
        fact_ok &= ok

    claim_bad = [int(x) for x in a[~claims_ok][:_WITNESS_CAP]]
    fact_bad = [int(x) for x in a[~fact_ok][:_WITNESS_CAP]]
    return KeyLemmaSweep(
        m=m, s=s, mu=mu_bits, v=v_bits, total=int(a.size),
        claim_failures=claim_bad, factorization_failures=fact_bad,
    )


# ----------------------------------------------------------------------
# linearized-permutation property checks


def verify_subfield_scaled_permutations(m: int, s: int, mu) -> bool:
    """Scaling the identity term by any subfield element keeps L a permutation.

    For L(z) = z^(2^(m+s)) + mu z^(2^s) + beta z with beta ranging over
    GF(2^m): given that the beta = 1 instance permutes (and the norm
    condition on mu holds), every instance must.  ``mu`` follows the
    coefficient convention (FieldElement or primitive-power exponent).
    Returns True when the full beta sweep agrees; raises when the beta = 1
    preconditions fail.
    """
    from .families import validate_trinomial_params
    from .vbf import LinearizedPoly, is_linearized_permutation

    # v = u^0 = 1 lies in GF(2^m)*, so only the conditions on s and mu bite
    field, _, mu_bits, _ = validate_trinomial_params(m, s, mu, 0)
    lift = subfield_embedding(field, field_new(m))
    for beta_small in range(1 << m):
        beta = int(lift[beta_small])
        L = LinearizedPoly.from_exponent_terms(
            field, [(1, m + s), (mu_bits, s), (beta, 0)]
        )
        if not is_linearized_permutation(L):
            return False
    return True


def verify_adjoint_permutation_agreement(L) -> bool:
    """A linearized map permutes the field iff its trace-adjoint does."""
    from .vbf import adjoint, is_linearized_permutation

    return is_linearized_permutation(L) == is_linearized_permutation(adjoint(L))
