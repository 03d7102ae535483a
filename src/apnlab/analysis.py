"""Differential analysis and exact verifiers for APN constructions.

Four groups of tools:

* difference-distribution statistics (:func:`ddt`) and one APN test,
  :func:`is_apn`.  Both send functions of :func:`algebraic_degree` <= 2 to
  one pass over the ranks of their derivatives, at any n (a quadratic's DDT
  follows from those ranks; :func:`is_apn_quadratic` asks that each be
  n-1), and the rest to the tally of the DDT (n <= 16);
* root classification of cubics ``z^3 + az + b`` over GF(2^m) via the
  quadratic resolvent ``t^2 + bt + a^3`` (:func:`cubic_root_count`),
  checked against brute force by :func:`sweep_cubic_classifier`;
* the factored-identity check for the bivariate APN family's derivative
  system (:func:`verify_resultant_identity`): its y-resultant, a Sylvester
  determinant, and the printed factors, both as polynomials in x with one
  coefficient per (a, b), must agree at every (a, b, x); only the (a, b)
  whose coefficients differ are evaluated point by point;
* the algebraic identity suite behind the trinomial family's APN proof
  (:func:`sweep_key_lemmas` over every valid (s, mu, v) of an m, and
  :func:`sweep_key_lemma` for one tuple), which recomputes every displayed
  quantity, claim and factorization at every point.  A pass is a grid of
  mu rows and v columns against the points; v enters only through C and
  E, so every quantity free of them is computed once per mu, not per v.

Everything here is exact GF(2^m) arithmetic; no floating point, no
sampling.  Each exhaustive sweep checks its size with ``check_alloc`` first;
the resultant and key-lemma sweeps run each pass across the process's CPUs.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .bitlinalg import check_alloc, row_ranks, split_run
from .errors import PreconditionError
from .families import _trinomial_mus, validate_trinomial_params
from .gf2n import Field, cube_class, field_new, subfield_embedding
from .vbf import FunctionTable, LinearizedPoly, adjoint, is_linearized_permutation

__all__ = [
    "CubicClass",
    "brute_cubic_root_count",
    "DdtSummary",
    "ResultantIdentityReport",
    "algebraic_degree",
    "cubic_root_count",
    "ddt",
    "is_apn",
    "is_apn_quadratic",
    "sweep_cubic_classifier",
    "sweep_key_lemma",
    "sweep_key_lemmas",
    "verify_adjoint_permutation_agreement",
    "verify_resultant_identity",
    "verify_subfield_scaled_permutations",
]

_DDT_MAX_N = 16
#: First n whose DDT takes over 30 s (n = 16: 42 s on a 2-core x86-64 host).
_DDT_WARN_N = 16
_WITNESS_CAP = 16
#: Peak bytes per field element of a quadratic DDT's witness sweep: 4 B of
#: z values and two uint32 temporaries (8 B) that select a half, while the
#: last direction's half and image (2 B each) are still held.  Measured
#: (tracemalloc): 16.0 B at n = 14 and 18.
_WITNESS_BYTES_PER_ELEMENT = 4 + 8 + 2 + 2
#: Cells per vectorised pass: DDT cells (whole rows of the table), and the
#: n basis images per direction of the quadratic rank test.
_DDT_CELLS_PER_PASS = 1 << 16
#: Most (tuple, point) pairs a pass of the key-lemma sweep evaluates: as
#: many whole mu rows (each (2^m - 1) v x (2^3m - 1) points) as fit, or,
#: where one row does not (m >= 5), a block of v for one mu.
_KEY_ELEMS_PER_PASS = 1 << 18
#: Fewest (tuple, point) pairs in one range of a split key-lemma pass.  On
#: a 2-core x86-64 host, two ranges took 1.51x the one-thread time of a
#: pass of 16 x 511 pairs, 0.88x at 32 x 511 and 0.45x at 512 x 511.
_KEY_MIN_PART_PAIRS = 1 << 13
#: Bytes each key-lemma tuple holds until the sweep returns.  Measured
#: (tracemalloc, m = 3): 301 B over 5,292 tuples, 307 B over 882.
_KEY_BYTES_PER_TUPLE = 384
#: Peak bytes per (tuple, point) pair of one key-lemma pass, whose v-free
#: quantities are 1/V of its size.  Measured (tracemalloc, one full pass,
#: its results and power maps included): 92.1 B at m = 3 (73 mu x 7 v),
#: 88.3 B at m = 4 (4 mu x 15 v) and 95.0 B at m = 5 (1 mu x 8 v).
_KEY_BYTES_PER_PAIR = 96

#: (a, b) pairs per pass of the resultant sweep.  On a 2-core x86-64 host,
#: with ranges of at least 2^14 pairs, the m = 10 sweep took 0.55 s at
#: 2^15 and 2^16 against 0.69-0.78 s at 2^14 and 1.20 s at 2^13, and the
#: m = 8 sweep 31-36 ms at 2^15 against 38-41 ms at 2^14 (medians).
_RESULTANT_PAIRS_PER_PASS = 1 << 15
#: Fewest pairs in one range of a split resultant pass.  Each range runs
#: its own coefficient determinant, in Python under the interpreter lock.
#: On a 2-core x86-64 host, the m = 10 sweep in passes of 2^15 took 0.55 s
#: in two ranges against 0.89 s whole; at m = 7 (2^14 pairs) two ranges
#: gained nothing (11.4 against 11.3 ms).
_RESULTANT_MIN_PART_PAIRS = 1 << 14
#: Peak bytes per (a, b) pair of one resultant pass.  The widest step is
#: the right side's last multiply, the 7 rows in x of H(x) H(x+a) times
#: lead^2 (x^2 + a x) into 10: the product's 40 B and the multiply's uint32
#: index, intp copy and output (16 B a row, 112 B), over the 116 B then
#: held (the left side's 9 rows, the operand, H(x) and the columns).
#: Measured (tracemalloc, whole sweeps): 293.6 B/pair at m = 4, 280.5 at
#: m = 5, 276.3 at m = 7 and 276.2 at m = 10 on one thread; 294.3 at m = 8
#: and m = 10 in two ranges, where the count includes the thread pool's
#: start.
_RESULTANT_BYTES_PER_PAIR = 304
#: Peak bytes per (a, b, x) point of a range's evaluation block, the rows
#: whose difference polynomial is not zero: Horner's multiply by x holds
#: the value, the uint32 index, its intp copy and the product, 20 B, and
#: ``np.nonzero`` 16 B a hit.  Measured (tracemalloc, every row of a pass
#: flagged, over what the range holds): 20.2 B at m = 10, 20.6 at m = 7,
#: 23.1-23.4 at m = 5 and 31.3-34.1 at m = 4, where a block is 256 points;
#: whole sweeps with every row flagged peak at the unflagged sweep's bytes.
_RESULTANT_BYTES_PER_POINT = 24


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
            f"DDT at n={n} walks 2^{2 * n - 1} (a, z) pairs; expect a minute",
            RuntimeWarning,
            stacklevel=3,
        )


def _half_derivative_passes(f: FunctionTable):
    """Yield ``(a0, block)`` for the directions a != 0 in ascending order:
    ``block[i, b]`` is DDT[a0 + i][b] / 2.

    A pass holds directions of one top bit h.  Each pair {z, z+a} of such
    a direction meets the half {z : bit h of z = 0} exactly once, so
    counting f(z+a)+f(z) over that half counts each pair of solutions once.
    """
    order, lut = f.field.order, f.lut
    zs = np.arange(order, dtype=np.uint32)
    step = max(1, _DDT_CELLS_PER_PASS // order)
    for h in range(f.field.n):
        half = zs[(zs >> h) & 1 == 0]
        for a0 in range(1 << h, 2 << h, step):
            a = np.arange(a0, min(a0 + step, 2 << h), dtype=np.uint32)
            # cell (a, b) of this pass at flat index (a - a0) * order + b
            cells = (lut[half ^ a[:, None]] ^ lut[half]).astype(np.int64)
            cells += np.arange(0, a.size * order, order, dtype=np.int64)[:, None]
            block = np.bincount(cells.ravel(), minlength=a.size * order)
            yield a0, block.reshape(a.size, order)


def ddt(f: FunctionTable) -> DdtSummary:
    """Exact difference-distribution summary of ``f``.

    For every a != 0 the counts of solutions z to f(z+a)+f(z) = b are
    tallied over all b (zeros included in the histogram); ``delta`` is the
    maximum count, and up to 16 (a, b) cells achieving it are recorded in
    scan order.  Degree <= 2 reads the table off the derivative ranks, at
    any n; any other ``f`` walks the (a, z) pairs (n <= 16).
    """
    if algebraic_degree(f) <= 2:
        return _quadratic_ddt(f)
    _ddt_guard(f.field.n)
    return _ddt_tally(f)


def _ddt_tally(f: FunctionTable) -> DdtSummary:
    """:func:`ddt` by counting every (a, z) pair with a's top bit clear in z,
    for ``f`` of any degree; the caller guards n."""
    hist = np.zeros(f.field.order // 2 + 1, dtype=np.int64)
    half_delta = 0
    witnesses: list[tuple[int, int]] = []
    for a0, block in _half_derivative_passes(f):
        hist += np.bincount(block.ravel(), minlength=hist.size)
        top = int(block.max())
        if top > half_delta:
            half_delta, witnesses = top, []
        if top == half_delta and len(witnesses) < _WITNESS_CAP:
            cells = np.argwhere(block == top)[: _WITNESS_CAP - len(witnesses)]
            witnesses += [(a0 + int(i), int(b)) for i, b in cells]
    histogram = {2 * v: int(c) for v, c in enumerate(hist) if c}
    return DdtSummary(f.field, 2 * half_delta, histogram, witnesses)


def _quadratic_ddt(f: FunctionTable) -> DdtSummary:
    """:func:`ddt` of ``f`` of degree <= 2, from its derivative ranks.

    D_a f(x) = L_a(x) + f(a) + f(0) with L_a linear of rank r, so row a
    holds 2^r cells equal to 2^(n-r), at b in f(a)+f(0) + Im L_a, and zeros
    elsewhere.  The witnesses are the first 16 such cells of the
    directions of least rank, each image read off half a sweep of D_a f.
    """
    n, order, lut = f.field.n, f.field.order, f.lut
    check_alloc(order * _WITNESS_BYTES_PER_ELEMENT,
                f"DDT witnesses at n={n} (a half sweep of {order // 2} points)")
    rows = np.zeros(n, dtype=np.int64)  # rows[r]: directions of rank r
    low, dirs = n, []  # least rank, and its first directions
    for a0, ranks in _derivative_rank_passes(f):
        rows += np.bincount(ranks, minlength=n)
        r = int(ranks.min())
        if r < low:
            low, dirs = r, []
        if r == low and len(dirs) < _WITNESS_CAP:
            hits = np.flatnonzero(ranks == r)[: _WITNESS_CAP - len(dirs)]
            dirs += (a0 + hits).tolist()
    counts = rows.tolist()
    histogram = {1 << (n - r): c << r for r, c in enumerate(counts) if c}
    zeros = sum(c * (order - (1 << r)) for r, c in enumerate(counts))
    if zeros:
        histogram[0] = zeros
    zs = np.arange(order, dtype=np.uint32)
    witnesses: list[tuple[int, int]] = []
    for a in dirs:
        half = zs[(zs >> (a.bit_length() - 1)) & 1 == 0]
        image = np.unique(lut[half ^ a] ^ lut[half])
        witnesses += [(a, int(b)) for b in image[: _WITNESS_CAP - len(witnesses)]]
        if len(witnesses) == _WITNESS_CAP:
            break
    return DdtSummary(f.field, 1 << (n - low), histogram, witnesses)


def is_apn(f: FunctionTable) -> bool:
    """True iff the differential uniformity of ``f`` is exactly 2.

    Degree <= 2 goes to the exact :func:`is_apn_quadratic`, at any n.  Any
    other ``f`` walks the DDT (n <= 16) and stops at the first pass with a
    count above two, so non-APN inputs return quickly.
    """
    if algebraic_degree(f) <= 2:
        return is_apn_quadratic(f)
    _ddt_guard(f.field.n)
    return all(block.max() <= 1 for _, block in _half_derivative_passes(f))


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


def _derivative_rank_passes(f: FunctionTable):
    """Yield ``(a0, ranks)`` for the directions a != 0 in ascending order:
    ``ranks[i]`` is the GF(2) rank of x -> f(x+a)+f(x)+f(a)+f(0) at
    a = a0 + i, a linear map when ``f`` has degree <= 2.

    The ranks come from the images of the n basis vectors, for a whole
    block of directions at once.
    """
    n, order, lut = f.field.n, f.field.order, f.lut
    basis = np.uint32(1) << np.arange(n, dtype=np.uint32)
    step = max(1, _DDT_CELLS_PER_PASS // n)
    for a0 in range(1, order, step):
        a = np.arange(a0, min(a0 + step, order), dtype=np.uint32)[:, None]
        images = lut[a ^ basis] ^ lut[basis] ^ lut[a] ^ lut[0]
        yield a0, row_ranks(images)


def is_apn_quadratic(f: FunctionTable) -> bool:
    """APN test for quadratic ``f`` by the ranks of its derivatives.

    For quadratic ``f`` and a != 0 the map x -> f(x+a)+f(x)+f(a)+f(0) is
    GF(2)-linear and vanishes at a, so ``f`` is APN iff every such map has
    rank n-1, i.e. kernel {0, a}; the test stops at the first pass of
    directions with a lower rank.  Raises :class:`PreconditionError` above
    degree 2, where the maps are not linear.
    """
    if algebraic_degree(f) > 2:
        raise PreconditionError("condition violated: algebraic degree <= 2")
    n = f.field.n
    return all(np.all(ranks == n - 1) for _, ranks in _derivative_rank_passes(f))


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
    vals = field.pow_vec(zs, 3) ^ field.mul_vec(a, zs) ^ b
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
    w = field.mul(field.pow(a, 3), field.inv(field.sqr(b)))
    if field.trace_to(1, w) != field.trace_to(1, 1):
        return CubicClass(root_count=1)
    # resolvent roots t = b*r with r^2 + r = a^3/b^2, found in the field of
    # even degree: GF(2^m) itself, or GF(2^(2m)) with w and b lifted, where
    # the absolute trace of w doubles to 0
    ext = field if field.n % 2 == 0 else field_new(2 * field.n)
    if ext is not field:
        lift = subfield_embedding(ext, field)
        w, b = int(lift[w]), int(lift[b])
    r = _artin_schreier_root(ext, w)
    assert r is not None  # tr(w) = 0 in a field of even degree
    t1, t2 = ext.mul(b, r), ext.mul(b, r ^ 1)
    both_cubes = cube_class(ext, t1) == "cube" and cube_class(ext, t2) == "cube"
    return CubicClass(
        root_count=3 if both_cubes else 0,
        resolvent_roots=(t1, t2),
        resolvent_in_extension=ext is not field,
    )


def sweep_cubic_classifier(m: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Every a, b != 0 of GF(2^m) through :func:`cubic_root_count` and brute
    force: the case count and the first 16 mismatches ``(a, b, got, want)``."""
    field = field_new(m)
    mismatches = []
    for a in range(1, field.order):
        for b in range(1, field.order):
            got = cubic_root_count(field, a, b).root_count
            want = brute_cubic_root_count(field, a, b)
            if got != want and len(mismatches) < _WITNESS_CAP:
                mismatches.append((a, b, got, want))
    return (field.order - 1) ** 2, mismatches


# ----------------------------------------------------------------------
# the new bivariate family's derivative-system resultant identity


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
    made; entries may be scalars, arrays (elementwise) or anything else
    ``mul`` and ``add`` take, such as the resultant's polynomials.
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


@dataclass
class ResultantIdentityReport:
    """Outcome of checking the factored derivative-system resultant."""

    m: int
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
            "mode": "full-sweep",
            "checked": self.checked,
            "identity_holds": self.identity_holds,
            "b_coeff_zero_set_ok": self.b_coeff_zero_set_ok,
            "denominator_nonzero_ok": self.denominator_nonzero_ok,
            "mismatches": [list(w) for w in self.mismatches],
        }


def verify_resultant_identity(m: int) -> ResultantIdentityReport:
    """Check the factored form of the derivative system's y-resultant.

    The system's two coordinate equations, viewed as polynomials in y with
    x, a, b specialized, have y-degrees 2 and 4; their 6x6 Sylvester
    determinant must equal ``(a^3+ab^2+b^3)^2 x (x+a) H(x) H(x+a)`` with
    ``H(x) = x^3 + (a^2+ab+a+b^2+b+1) x + (a^3+a^2b+a+b^3+b^2+1)``.

    Every (a, b, x) in GF(2^m)^3 is checked.  For fixed (a, b) both sides
    are polynomials in x, so each (a, b) row is checked by the coefficients
    of their difference (:func:`_resultant_difference`), computed on arrays
    of the size of the (a, b) pairs: a row whose difference has no nonzero
    coefficient holds at all 2^m points.  A row with one is evaluated at
    every x, since a nonzero polynomial of degree >= 2^m can vanish on the
    whole field; that and the scan order of the witnesses is
    :func:`_resultant_range`'s.  A pass holds ``_RESULTANT_PAIRS_PER_PASS``
    pairs (at least one row's 2^m), split across the CPUs by
    :func:`~apnlab.bitlinalg.split_run`.  Each pair also gives two side
    facts: the constant term of H vanishes only at (a, b) = (1, 1), and
    a^3+ab^2+b^3 is nonzero off the origin.

    Raises :class:`MemoryBudgetError` before allocating when one pass and
    its evaluation blocks would exceed ``APNLAB_MEM_BUDGET_GIB``.
    """
    field = field_new(m)
    order = field.order
    checked = order**3
    pairs = order * order
    # a pass, and each range of a split one, holds at least one row's 2^m
    # pairs, so a range's evaluation block of pairs // 2^m rows (at least
    # one) holds no more points than the range has pairs
    per_pass = min(pairs, max(order, _RESULTANT_PAIRS_PER_PASS))
    check_alloc(per_pass * (_RESULTANT_BYTES_PER_PAIR + _RESULTANT_BYTES_PER_POINT),
                f"resultant check at m={m} (one pass of {per_pass} (a, b) pairs)")
    min_part = max(order, _RESULTANT_MIN_PART_PAIRS)
    mismatches: list[tuple[int, int, int]] = []
    const_zeros: set[tuple[int, int]] = set()
    denom_zeros: set[tuple[int, int]] = set()
    for start in range(0, pairs, per_pass):
        ranges = split_run(
            lambda _, lo, hi: _resultant_range(field, start + lo, start + hi),
            min(per_pass, pairs - start), min_part)
        for found, const, denom in ranges:  # in scan order
            mismatches += found[: _WITNESS_CAP - len(mismatches)]
            const_zeros.update(const)
            denom_zeros.update(denom)
    return ResultantIdentityReport(
        m=m,
        checked=checked,
        mismatches=mismatches,
        b_coeff_zero_set_ok=const_zeros == {(1, 1)},
        denominator_nonzero_ok=denom_zeros == {(0, 0)},
    )


def _resultant_range(field: Field, lo: int, hi: int) -> tuple[list, list, list]:
    """The first ``_WITNESS_CAP`` mismatch witnesses (a, b, x) in the rows
    of the pairs a 2^m + b = lo..hi-1, and the (a, b) among them where the
    constant term of H and where a^3+ab^2+b^3 vanish.

    Only the rows whose difference polynomial has a nonzero coefficient
    are evaluated at every x, in scan order, by Horner, in blocks of
    (hi - lo) // 2^m rows (at least one), until the range holds
    ``_WITNESS_CAP`` witnesses.
    """
    mul = field.mul_vec
    ab = np.arange(lo, hi, dtype=np.uint32)
    a, b = ab >> field.n, ab & np.uint32(field.order - 1)
    difference, h0, lead = _resultant_difference(field, a, b)
    flagged = np.flatnonzero(difference.any(axis=0))
    x = field.all_elements_vec()
    block = max(1, (hi - lo) // field.order)
    found: list[tuple[int, int, int]] = []
    for start in range(0, len(flagged), block):
        if len(found) >= _WITNESS_CAP:
            break
        rows = flagged[start: start + block]
        coefficients = difference[:, rows, None]
        at_x = np.broadcast_to(coefficients[-1], (len(rows), field.order))
        for c in coefficients[-2::-1]:
            at_x = mul(at_x, x) ^ c
        row, col = np.nonzero(at_x)
        take = _WITNESS_CAP - len(found)
        row, col = rows[row[:take]], col[:take]
        found += zip(a[row].tolist(), b[row].tolist(), x[col].tolist())
    const, denom = (list(zip(a[value == 0].tolist(), b[value == 0].tolist()))
                    for value in (h0, lead))
    return found, const, denom


def _poly_times(mul, p: np.ndarray, terms: dict) -> np.ndarray:
    """The product of p, a polynomial in x whose row i holds the
    coefficients of x^i, one per (a, b) pair, and the sum of the terms
    ``{e: c}``, c x^e with c a column of pairs or, where it is None, 1."""
    out = np.zeros((len(p) + max(terms), p.shape[1]), dtype=np.uint32)
    for e, c in terms.items():
        out[e: e + len(p)] ^= p if c is None else mul(p, c)
    return out


def _poly_plus(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The sum of polynomials p and q in x; p, a product of
    :func:`_poly_times`, is reused when it is as long as q."""
    if len(p) < len(q):
        p, q = q.copy(), p
    p[: len(q)] ^= q
    return p


def _resultant_difference(field: Field, a, b) -> tuple[np.ndarray, ...]:
    """The y-resultant (:func:`_resultant_lhs`) minus its printed factors,
    as a polynomial in x: row i holds the coefficients of x^i, one per pair
    of the 1-D arrays a, b; with it, per pair, the constant term H(0) of H
    and the leading factor a^3+ab^2+b^3 of the right-hand side.

    The right-hand side is built as the left is, from the polynomials x,
    x+a, H(x) and H(x+a), so every product is of the size of a and b.
    """
    lhs = _resultant_lhs(field, a, b)
    mul, sq = field.mul_vec, field.sqr_vec
    a2, b2 = sq(a), sq(b)
    a3, b3 = mul(a2, a), mul(b2, b)
    h_lin = a2 ^ mul(a, b) ^ a ^ b2 ^ b ^ 1
    h_const = a3 ^ mul(a2, b) ^ a ^ b3 ^ b2 ^ 1
    lead = a3 ^ mul(a, b2) ^ b3
    lead2 = sq(lead)
    h = np.stack([h_const, h_lin, np.zeros_like(a), np.ones_like(a)])  # H(x)
    # H(x+a) = x^3 + a x^2 + (a^2 + h_lin) x + H(a)
    hh = _poly_times(mul, h, {0: a3 ^ mul(h_lin, a) ^ h_const, 1: a2 ^ h_lin,
                              2: a, 3: None})
    # lead^2 x (x+a) = lead^2 x^2 + lead^2 a x
    rhs = _poly_times(mul, hh, {1: mul(lead2, a), 2: lead2})
    return _poly_plus(rhs, lhs), h_const, lead


def _resultant_lhs(field: Field, a, b) -> np.ndarray:
    """The derivative system's y-resultant as a polynomial in x: row i
    holds the coefficients of x^i, one per pair of the 1-D arrays a, b.

    Of the Sylvester entries only the constant terms f0 and g0 of the two
    equations depend on x, so the determinant is a polynomial in them whose
    coefficients (:func:`_resultant_coefficients`) are the size of a and b.
    It is taken by Horner, in f0 inside g0, over polynomials in x, skipping
    each coefficient that is zero at every (a, b) given.
    """
    mul, sq = field.mul_vec, field.sqr_vec
    a2, b2 = sq(a), sq(b)
    # the constant terms in y of the equations in _resultant_coefficients
    f0 = {1: a2 ^ b2 ^ b, 2: a}
    g0 = {1: sq(a2) ^ b, 2: b2, 4: a ^ b}
    coefficients = {key: c[None] for key, c in
                    _resultant_coefficients(field, a, b).items() if c.any()}

    def horner(terms: list, t: dict):
        """The sum of terms[i] t^i over the terms that are not None; None
        if every term is."""
        acc = None
        for c in reversed(terms):
            if acc is not None:
                acc = _poly_times(mul, acc, t)
            if c is not None:
                acc = c if acc is None else _poly_plus(acc, c)
        return acc

    # of degree 4 in f0 and 2 in g0: one per Sylvester row of each equation
    lhs = horner([horner([coefficients.get((i, j)) for i in range(5)], f0)
                  for j in range(3)], g0)
    return np.zeros((1, len(a)), dtype=np.uint32) if lhs is None else lhs


def _resultant_coefficients(field: Field, a, b) -> dict[tuple[int, int], np.ndarray]:
    """The derivative system's y-resultant as a polynomial in the constant
    terms f0, g0 of its two equations: ``{(i, j): c}`` for its terms
    c f0^i g0^j, each c of the broadcast shape of a and b.

    ``_det_masked`` runs once over the Sylvester rows, whose entries are
    polynomials in the symbols f0 and g0, so every product it makes is of
    the size of a and b.
    """
    mul, sq = field.mul_vec, field.sqr_vec
    a2, b2 = sq(a), sq(b)
    one = np.uint32(1)  # a symbol's coefficient, passed through, not multiplied

    def plus(p: dict, q: dict) -> dict:
        out = dict(p)
        for key, d in q.items():
            out[key] = out[key] ^ d if key in out else d
        return out

    def times(p: dict, q: dict) -> dict:
        out: dict = {}
        for (i, j), c in p.items():
            out = plus(out, {(i + k, j + l): d if c is one else
                             c if d is one else mul(c, d) for (k, l), d in q.items()})
        return out

    # first equation in y: (a+b) y^2 + (a+b^2) y + [a x^2 + (a^2+b^2+b) x]
    f = [{(1, 0): one}, {(0, 0): a ^ b2}, {(0, 0): a ^ b}]
    # second equation in y: b y^4 + a^2 y^2 + (a^4+a+b^4) y
    #                        + [(a+b) x^4 + b^2 x^2 + (a^4+b) x]
    g = [{(0, 1): one}, {(0, 0): sq(a2) ^ a ^ sq(b2)}, {(0, 0): a2}, None,
         {(0, 0): b}]
    return _det_masked(_sylvester_rows(f, g, None), mul=times, add=plus,
                       is_zero=lambda e: e is None)


# ----------------------------------------------------------------------
# identity suite for the trinomial family's APN proof


def _key_point_values(field: Field, m: int, s: int, mu_bits, v_bits,
                      a: np.ndarray, la: np.ndarray) -> dict:
    """The proof's displayed quantities at the points ``a``, elementwise,
    with C^(2^m) and C^(2^2m) (``Cm``, ``Cq2``) for the factorization checks.

    ``a`` is a uint32 array of points and ``la`` holds L(a) for each mu;
    ``mu_bits`` and ``v_bits`` are ints or arrays that broadcast against
    them.  A sweep passes a ``(M, 1, 1)`` column of mu, a ``(1, V, 1)`` row
    of v and ``la`` of shape ``(M, 1, N)``: v enters only through C and E,
    so the quantities free of both keep the v-free shape, and each product
    takes its v-free factors together before the full-size one.
    """
    mul, pw = field.mul_vec, field.pow_vec
    qm = 1 << m
    q2 = 1 << (2 * m)
    qs = 1 << s
    lam = pw(la, qm)
    cv = la ^ mul(v_bits, a)

    A = mul(la, pw(a, 1 << (2 * m + s)))
    B = mul(lam ^ mul(pw(mu_bits, qm), la), pw(a, 1 << (m + s)))
    C = mul(cv, pw(a, qm))
    D = mul(mu_bits, mul(lam, pw(a, qs)))
    E = mul(pw(cv, qm), a)

    # the powers of C and E that several terms share, each taken once
    Cm, Cq2, Cq21 = pw(C, qm), pw(C, q2), pw(C, q2 + 1)
    Em, Eq2, Em1 = pw(E, qm), pw(E, q2), pw(E, qm + 1)
    CE = mul(Cq2, Em)
    Bqm, Dq2, Dqm = pw(B, qm), pw(D, q2), pw(D, qm)

    U1 = mul(Dq2, Em1) ^ mul(A, CE) ^ mul(Bqm, Cq21)
    U2 = mul(pw(A, q2), Em1) ^ mul(B, CE) ^ mul(Cq21, Dqm)
    U3 = mul(pw(B, q2), Em1) ^ mul(D, CE) ^ mul(pw(A, qm), Cq21)
    U4 = pw(C, q2 + qm + 1) ^ pw(E, q2 + qm + 1)

    # the v-free factor of the terms of V1, V2 and V3, each taken once
    A22 = pw(A, q2 + 2)
    ABD = mul(A, mul(B, Dq2))
    AB1 = mul(A, pw(B, qm + 1))
    A2D = mul(pw(A, 2), Dqm)
    A1B = mul(pw(A, q2 + 1), Bqm)
    AD = mul(A, pw(D, q2 + qm))
    V1 = mul(A22, Cm) ^ mul(ABD, Cm) ^ mul(AB1, Eq2) ^ mul(A2D, Eq2)
    V2 = mul(A22, Em) ^ mul(ABD, Em) ^ mul(A1B, C) ^ mul(AD, C)
    V3 = mul(A1B, E) ^ mul(AB1, Cq2) ^ mul(A2D, Cq2) ^ mul(AD, E)
    V4 = mul(
        pw(B, qm + 1) ^ mul(A, Dqm), mul(A, pw(B, q2)) ^ pw(D, q2 + 1)
    ) ^ mul(
        pw(A, q2 + 1) ^ mul(B, Dq2), pw(A, qm + 1) ^ mul(Bqm, D)
    )

    mum = pw(mu_bits, qm)
    mu2 = pw(mu_bits, q2)

    def ap(e: int):
        return pw(a, e)

    U = (
        mul(mum, ap((1 << (m + s)) + 1))
        ^ ap((1 << (2 * m + s)) + 1)
        ^ ap((1 << (m + s)) + qm)
        ^ mul(pw(mu_bits, qm + 1), ap(q2 + (1 << (m + s))))
        ^ mul(pw(mu_bits, q2 + 1), ap((1 << (2 * m + s)) + qm))
        ^ mul(mu_bits, ap((1 << (2 * m + s)) + q2))
    )
    V = (
        ap(qm + qs)
        ^ mul(mum, ap(q2 + (1 << (m + s))))
        ^ mul(mu2, ap((1 << (2 * m + s)) + qm))
        ^ ap((1 << (2 * m + s)) + q2)
    )
    T = (
        mul(pw(mu_bits, q2 + qm + 1) ^ 1, ap(qs))
        ^ mul(pw(mu_bits, q2 + qm), a)
        ^ mul(mu2, ap(qm))
        ^ ap(q2)
    )
    P = ap(1 << (2 * m + s)) ^ mul(mum, ap(1 << (m + s)))

    return {
        "A": A, "B": B, "C": C, "D": D, "E": E, "Cm": Cm, "Cq2": Cq2,
        "U1": U1, "U2": U2, "U3": U3, "U4": U4,
        "V1": V1, "V2": V2, "V3": V3, "V4": V4,
        "U": U, "V": V, "T": T, "P": P, "la": la,
    }


def _key_claims(field: Field, s: int, q: dict) -> list[np.ndarray]:
    """The lemma's five claims on the quantities ``q``, in order:

    1. A+B+C+D+E = 0 with every summand nonzero and C+E nonzero;
    2. U_i V_i != 0 for i = 1, 2, 3;
    3. U4 = V4 = 0;
    4. U2 V1^(2^s) + U1 V2^(2^s) + U3 V1^(2^s) + U1 V3^(2^s) = 0;
    5. U2 V1^(2^s) + U1 V2^(2^s) != 0.

    Each is a boolean array of the quantities' shape.
    """
    mul, pw = field.mul_vec, field.pow_vec
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


def _key_factorization_checks(field: Field, m: int, s: int, mu_bits, v_bits,
                              a: np.ndarray, q: dict) -> list[tuple[str, np.ndarray]]:
    """(name, equality) pairs for the proof's printed product forms.

    Covers both displayed shapes of the first product, the three-fold
    Frobenius ladder of each triple, the closed forms of the diagnostics,
    and the proportionality tying E to C.  ``equality`` is a boolean array
    of the broadcast shape of ``q`` and ``v_bits``.
    """
    mul, pw = field.mul_vec, field.pow_vec
    qm = 1 << m
    q2 = 1 << (2 * m)
    qs = 1 << s

    def ap(e: int):
        return pw(a, e)

    asu = mul(ap(qs), q["U"])
    am = ap(qm)
    vc = mul(v_bits, q["Cq2"])  # the U forms' factor that depends on v
    av = mul(a, q["V"])
    lt = mul(ap((1 << (2 * m + s + 1)) + (1 << (m + s))),
             mul(q["la"], q["T"]))
    # each side is compared as it is made, so a pass holds one product
    # form at a time, not ten; each takes its v-free factors together
    # before the one that depends on v
    return [
        ("U1 = v a^(2^m) C^(2^2m) (a^(2^s) U)^(2^2m)",
         q["U1"] == mul(mul(am, pw(asu, q2)), vc)),
        ("U1 = v a^(2^(2m+s)+2^m) C^(2^2m) U^(2^2m)",
         q["U1"] == mul(mul(ap((1 << (2 * m + s)) + qm), pw(q["U"], q2)),
                        vc)),
        ("U2 = v a^(2^m) C^(2^2m) (a^(2^s) U)^(2^m)",
         q["U2"] == mul(mul(am, pw(asu, qm)), vc)),
        ("U3 = v a^(2^m) C^(2^2m) (a^(2^s) U)",
         q["U3"] == mul(mul(am, asu), vc)),
        ("V1 = v a^(2^(2m+s+1)+2^(m+s)) L(a) T (aV)^(2^2m)",
         q["V1"] == mul(v_bits, mul(lt, pw(av, q2)))),
        ("V2 = v a^(2^(2m+s+1)+2^(m+s)) L(a) T (aV)^(2^m)",
         q["V2"] == mul(v_bits, mul(lt, pw(av, qm)))),
        ("V3 = v a^(2^(2m+s+1)+2^(m+s)) L(a) T (aV)",
         q["V3"] == mul(v_bits, mul(lt, av))),
        ("V = a^(2^2m) P + a^(2^m) P^(2^m)",
         q["V"] == mul(ap(q2), q["P"]) ^ mul(ap(qm), pw(q["P"], qm))),
        ("U = V^(2^2m) + mu V",
         q["U"] == pw(q["V"], q2) ^ mul(mu_bits, q["V"])),
        ("E = C^(2^m) a^(1-2^2m)",
         q["E"] == mul(q["Cm"], pw(a, 1 - q2))),
    ]


@dataclass
class KeyLemmaSweep:
    """The key lemma's claims and factorizations at every nonzero point of
    one tuple (s, mu, v), with the first failing points of each."""

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
    """Check every claim and factorization at every a != 0 for one tuple.

    The one-tuple pass of :func:`sweep_key_lemmas`; ``mu``/``v`` follow the
    coefficient convention (FieldElement, or an int primitive-power
    exponent).
    """
    field, _, mu_bits, v_bits = validate_trinomial_params(m, s, mu, v)
    check_alloc(field.mult_order * _KEY_BYTES_PER_PAIR,
                f"key lemma sweep at m={m} (a pass of 1 tuple)")
    return _sweep_key_group(field, m, s, [mu_bits], [v_bits])[0]


def sweep_key_lemmas(m: int, s: int | None = None) -> list[KeyLemmaSweep]:
    """:func:`sweep_key_lemma` for every valid (s, mu, v), or each with ``s``.

    Each (s, mu) of :func:`search_trinomial_params`, which establishes the
    preconditions, meets each unit v = g^(j (2^(3m)-1)/(2^m-1)) of GF(2^m)
    in turn.  A pass is a grid of one s's tuples, mu rows by v columns, of
    at most ``_KEY_ELEMS_PER_PASS`` (tuple, point) pairs: whole mu rows, or,
    where one row holds more, a block of v for one mu.  Each pass's mu rows
    (or, in a one-mu pass, its v columns) are split across the CPUs by
    :func:`~apnlab.bitlinalg.split_run`.  The results and one pass are
    checked against the budget before any tuple is built.
    """
    groups = [(t, mus) for t, mus in _trinomial_mus(m)
              if mus.size and (s is None or t == s)]
    if s is not None and not groups:
        raise PreconditionError(f"no valid (s, mu) with s={s} for m={m}")
    field = field_new(3 * m)
    points = field.mult_order
    step = points // ((1 << m) - 1)
    vs = np.array([field.primitive_power(step * j) for j in range((1 << m) - 1)],
                  dtype=np.uint32)
    count = sum(mus.size for _, mus in groups) * vs.size
    rows = _KEY_ELEMS_PER_PASS // (vs.size * points)
    cols = vs.size if rows else max(1, _KEY_ELEMS_PER_PASS // points)
    rows = max(1, rows)
    per_pass = min(max((mus.size for _, mus in groups), default=0), rows) * cols
    check_alloc(count * _KEY_BYTES_PER_TUPLE
                + per_pass * points * _KEY_BYTES_PER_PAIR,
                f"key verifier at m={m} ({count} tuples and a pass of "
                f"{per_pass})")
    out: list[KeyLemmaSweep] = []
    for t, mus in groups:
        for i in range(0, mus.size, rows):
            mu_pass = mus[i:i + rows]
            for j in range(0, vs.size, cols):
                v_pass = vs[j:j + cols]
                if mu_pass.size > 1:
                    parts = split_run(
                        lambda _, lo, hi: _sweep_key_group(
                            field, m, t, mu_pass[lo:hi], v_pass),
                        mu_pass.size,
                        max(1, _KEY_MIN_PART_PAIRS // (v_pass.size * points)))
                else:
                    parts = split_run(
                        lambda _, lo, hi: _sweep_key_group(
                            field, m, t, mu_pass, v_pass[lo:hi]),
                        v_pass.size, max(1, _KEY_MIN_PART_PAIRS // points))
                for part in parts:
                    out += part
    return out


def _sweep_key_group(field: Field, m: int, s: int, mus, vs) -> list[KeyLemmaSweep]:
    """One pass over the grid of valid tuples (s, mu, v), mu in ``mus`` and
    v in ``vs`` (raw bits); the sweeps come mu by mu, v by v within each.

    mu is a ``(M, 1, 1)`` column and v a ``(1, V, 1)`` row against the
    points, so L(a) and every quantity free of v are ``(M, 1, N)`` arrays,
    and only those that involve C or E are ``(M, V, N)``.
    """
    a = field.all_elements_vec()[1:]
    mu = np.asarray(mus, dtype=np.uint32)[:, None, None]
    v = np.asarray(vs, dtype=np.uint32)[None, :, None]
    la = field.frob_vec(a, m + s) ^ field.mul_vec(mu, field.frob_vec(a, s)) ^ a  # L(a)
    q = _key_point_values(field, m, s, mu, v, a, la)
    claims_ok = functools.reduce(np.logical_and, _key_claims(field, s, q))
    checks = _key_factorization_checks(field, m, s, mu, v, a, q)
    fact_ok = functools.reduce(np.logical_and, (ok for _, ok in checks))
    # one row per tuple, in (mu, v) order
    claims_ok = claims_ok.reshape(-1, a.size)
    fact_ok = fact_ok.reshape(-1, a.size)
    claims_all = claims_ok.all(axis=1)
    fact_all = fact_ok.all(axis=1)

    def bad(ok_row: np.ndarray) -> list[int]:
        return [int(x) for x in a[~ok_row][:_WITNESS_CAP]]

    tuples = [(mu_bits, v_bits) for mu_bits in mu.ravel().tolist()
              for v_bits in v.ravel().tolist()]
    return [
        KeyLemmaSweep(
            m=m, s=s, mu=mu_bits, v=v_bits, total=int(a.size),
            claim_failures=[] if claims_all[t] else bad(claims_ok[t]),
            factorization_failures=[] if fact_all[t] else bad(fact_ok[t]),
        )
        for t, (mu_bits, v_bits) in enumerate(tuples)
    ]


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
    # v = u^0 = 1 lies in GF(2^m)*, so only the conditions on s and mu bite
    field, _, mu_bits, _ = validate_trinomial_params(m, s, mu, 0)
    betas = subfield_embedding(field, field_new(m))
    head = LinearizedPoly.from_exponent_terms(field, [(1, m + s), (mu_bits, s)])
    basis = np.uint32(1) << np.arange(field.n, dtype=np.uint32)
    # images of the basis under head(z) + beta z, one row per beta
    images = head.eval_vec(basis) ^ field.mul_vec(betas[:, None], basis)
    return bool(np.all(row_ranks(images) == field.n))


def verify_adjoint_permutation_agreement(L) -> bool:
    """A linearized map permutes the field iff its trace-adjoint does."""
    return is_linearized_permutation(L) == is_linearized_permutation(adjoint(L))
