"""Differential spectra, cubic classification, resultants, lemma sweeps."""

from __future__ import annotations

import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from apnlab import analysis, bitlinalg, gf2n
from apnlab.analysis import (
    _det_masked,
    _key_claims,
    _key_point_values,
    _resultant_coefficients,
    _resultant_difference,
    _resultant_lhs,
    _sylvester_rows,
    algebraic_degree,
    brute_cubic_root_count,
    cubic_root_count,
    ddt,
    is_apn,
    is_apn_quadratic,
    sweep_cubic_classifier,
    sweep_key_lemma,
    sweep_key_lemmas,
    verify_adjoint_permutation_agreement,
    verify_resultant_identity,
    verify_subfield_scaled_permutations,
)
from apnlab.bitlinalg import check_alloc
from apnlab.errors import MemoryBudgetError, PreconditionError
from apnlab.families import (
    FamilyId,
    _trinomial_mus,
    build_from_descriptor,
    make_known,
    make_new_bivariate,
    make_new_trinomial,
    search_trinomial_params,
    validate_trinomial_params,
)
from apnlab.vbf import FunctionTable, LinearizedPoly, UnivariatePoly, to_table

from conftest import (gauss_det, get_field, key_lemma_oracle, row_by_row_ddt,
                      shift_add_mul)


# ---------------------------------------------------------------------------
# differential spectra
# ---------------------------------------------------------------------------

def test_ddt_of_gold_map():
    f = get_field(6)
    s = ddt(to_table(UnivariatePoly.monomial(f, 3)))
    assert s.delta == 2
    # every nonzero derivative is 2-to-1: half the b values hit, half missed
    assert s.histogram == {0: 63 * 32, 2: 63 * 32}
    assert len(s.witnesses) <= 16
    a, b = s.witnesses[0]
    diffs = [int(s.field.coerce(0))] * 0  # witnesses carry (a, b) pairs
    lut = to_table(UnivariatePoly.monomial(f, 3)).lut
    count = sum(1 for z in range(64) if lut[z ^ a] ^ lut[z] == b)
    assert count == s.delta


def test_ddt_counts_are_even_and_rows_sum():
    f = get_field(5)
    lut = np.array([f.pow(z, 5) for z in range(32)], dtype=np.uint32)
    s = ddt(FunctionTable(f, lut))
    total = sum(v * c for v, c in s.histogram.items())
    assert total == 31 * 32
    assert all(v % 2 == 0 for v in s.histogram)


#: Kinds of :func:`random_quadratic_lut`, of algebraic degree 2, 2, 1 and 0.
QUADRATIC_KINDS = ("quadratic", "sparse", "affine", "constant")


def random_quadratic_lut(rng, n: int, kind: str) -> np.ndarray:
    """LUT of c + sum_i l_i x_i + sum_{i<j} q_ij x_i x_j with random n-bit
    coefficients over the input bits x_i: every q_ij drawn ("quadratic"),
    a random third of them, so that low ranks and non-APN functions are
    common ("sparse"), no q_ij ("affine"), or c alone ("constant")."""
    zs = np.arange(1 << n)
    bits = [(zs >> i) & 1 for i in range(n)]
    lut = np.full(1 << n, rng.integers(0, 1 << n), dtype=np.int64)
    if kind == "constant":
        return lut.astype(np.uint32)
    for i in range(n):
        lut ^= bits[i] * rng.integers(0, 1 << n)
    if kind == "affine":
        return lut.astype(np.uint32)
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "quadratic" or rng.random() < 1 / 3:
                lut ^= bits[i] * bits[j] * rng.integers(0, 1 << n)
    return lut.astype(np.uint32)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10])
def test_ddt_matches_row_by_row_tally(monkeypatch, n):
    # at n=1 and 2 each top-bit group holds one direction; n=10 takes
    # several vectorised passes over the directions of one top bit, so a new
    # maximum can come inside a pass; with 64 cells a pass is one direction
    # from n=6, and each new maximum comes with a new pass.  The random
    # quadratics, affine and constant maps take the derivative ranks, with
    # 64 cells in passes of 64 // n directions
    f = get_field(n)
    rng = np.random.default_rng(n)
    luts = [rng.integers(0, f.order, f.order).astype(np.uint32)
            for _ in range(2)]
    luts.append(to_table(UnivariatePoly.monomial(f, 3)).lut)
    luts += [random_quadratic_lut(rng, n, kind) for kind in QUADRATIC_KINDS]
    for cells in (analysis._DDT_CELLS_PER_PASS, 64):
        monkeypatch.setattr(analysis, "_DDT_CELLS_PER_PASS", cells)
        for lut in luts:
            s = ddt(FunctionTable(f, lut))
            assert (s.delta, s.histogram, s.witnesses) == row_by_row_ddt(lut)


@pytest.mark.parametrize("n", range(1, 10))
def test_quadratic_ddt_matches_row_by_row_tally(n):
    # 34 functions of degree <= 2 per n, 306 in all: delta, the histogram
    # and the witnesses read off the derivative ranks equal the tally's
    rng = np.random.default_rng(1900 + n)
    f = get_field(n)
    for k in range(34):
        lut = random_quadratic_lut(rng, n, QUADRATIC_KINDS[k % 4])
        t = FunctionTable(f, lut)
        assert algebraic_degree(t) <= 2
        s = ddt(t)
        assert (s.delta, s.histogram, s.witnesses) == row_by_row_ddt(lut), k


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
def test_is_apn_matches_row_by_row_tally(n):
    f = get_field(n)
    rng = np.random.default_rng(100 + n)
    luts = [rng.integers(0, f.order, f.order).astype(np.uint32)
            for _ in range(3)]
    luts.append(to_table(UnivariatePoly.monomial(f, 3)).lut)
    verdicts = [is_apn(FunctionTable(f, lut)) for lut in luts]
    assert verdicts == [row_by_row_ddt(lut)[0] == 2 for lut in luts]
    assert verdicts[-1]  # z^3 is APN for every n


def test_ddt_guard_warns_from_n16_with_the_pairs_walked():
    with pytest.warns(RuntimeWarning, match=r"n=16 walks 2\^31 \(a, z\) pairs"):
        analysis._ddt_guard(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analysis._ddt_guard(15)
    with pytest.raises(PreconditionError, match="up to n=16"):
        analysis._ddt_guard(17)


#: Over GF(2^4): z^3 with its value at 0 changed by 1, each composed with a
#: GF(2)-linear bijection of the input.  Directions whose DDT row exceeds 2
#: come in triples {a, c, a+c} (solutions z, z+a, z+c, z+a+c of direction a
#: are solutions of direction c too), so a triple is the smallest failure a
#: LUT can carry: these put one at a = 1 and the last two directions, and
#: one in the last two top-bit groups, ending at a = 15.
PLANTED_LUTS = {
    (1, 14, 15): [1, 1, 8, 15, 10, 15, 15, 12, 8, 10, 8, 12, 12, 10, 1, 1],
    (7, 8, 15): [1, 8, 10, 15, 12, 15, 15, 1, 1, 12, 8, 8, 10, 12, 10, 1],
}


@pytest.mark.parametrize("cells", [16, 32, 1 << 16])
@pytest.mark.parametrize("failing", sorted(PLANTED_LUTS))
def test_planted_failures_are_found_in_every_pass_layout(monkeypatch, cells,
                                                         failing):
    # one, two or all directions of a top-bit group per pass
    monkeypatch.setattr(analysis, "_DDT_CELLS_PER_PASS", cells)
    f = get_field(4)
    lut = np.array(PLANTED_LUTS[failing], dtype=np.uint32)
    zs = np.arange(16)
    bad = [a for a in range(1, 16)
           if np.bincount(lut[zs ^ a] ^ lut, minlength=16).max() > 2]
    assert tuple(bad) == failing
    t = FunctionTable(f, lut)
    assert is_apn(t) is False
    s = ddt(t)
    assert (s.delta, s.histogram, s.witnesses) == row_by_row_ddt(lut)
    assert {a for a, _ in s.witnesses} == set(failing)


def test_ddt_json_schema():
    f = get_field(4)
    d = ddt(to_table(UnivariatePoly.monomial(f, 3))).to_json_dict()
    assert d["n"] == 4 and d["delta"] == 2
    assert set(map(type, d["histogram"].keys())) == {str}


def test_is_apn_and_shortcut_agree_on_quadratics():
    f = get_field(6)
    rng = np.random.default_rng(2)
    quadratic_exponents = [e for e in range(1, 63)
                           if bin(e).count("1") <= 2]
    for _ in range(8):
        k = int(rng.integers(2, 5))
        terms = [(int(rng.integers(1, 64)), int(e))
                 for e in rng.choice(quadratic_exponents, k, replace=False)]
        t = to_table(UnivariatePoly(f, terms))
        assert (row_by_row_ddt(t.lut)[0] == 2) == is_apn_quadratic(t)


def test_algebraic_degree_of_monomials_is_exponent_weight():
    f = get_field(6)
    for d in range(1, 63):
        t = to_table(UnivariatePoly.monomial(f, d))
        assert algebraic_degree(t) == bin(d).count("1"), d
    zero = FunctionTable(f, np.zeros(64, dtype=np.uint32))
    assert algebraic_degree(zero) == 0


def test_quadratic_shortcut_refuses_higher_degree():
    # z^7 on GF(2^7) is cubic with delta 6; the two-solution count alone
    # would call it APN
    t = to_table(UnivariatePoly.monomial(get_field(7), 7))
    assert algebraic_degree(t) == 3
    assert ddt(t).delta == 6
    with pytest.raises(PreconditionError, match=r"algebraic degree <= 2"):
        is_apn_quadratic(t)


def test_quadratic_shortcut_rejects_non_apn_quadratics():
    # z^(2^i+1) is APN on GF(2^n) exactly when gcd(i, n) = 1
    assert not is_apn_quadratic(to_table(UnivariatePoly.monomial(get_field(6), 5)))
    assert not is_apn_quadratic(to_table(UnivariatePoly.monomial(get_field(6), 9)))
    assert is_apn_quadratic(to_table(UnivariatePoly.monomial(get_field(9), 3)))
    # affine and constant maps have derivatives of rank 0
    f = get_field(5)
    assert not is_apn_quadratic(to_table(UnivariatePoly(f, [(3, 2), (1, 0)])))
    assert not is_apn_quadratic(FunctionTable(f, np.full(32, 7, dtype=np.uint32)))
    # every Gold exponent and random two-term quadratics, against the DDT
    rng = np.random.default_rng(11)
    for n in (5, 6, 7, 8):
        f = get_field(n)
        for i in range(1, n):
            t = to_table(UnivariatePoly.monomial(f, (1 << i) + 1))
            apn = row_by_row_ddt(t.lut)[0] == 2
            assert is_apn_quadratic(t) == (math.gcd(i, n) == 1) == apn
        weight2 = [e for e in range(1, f.order) if bin(e).count("1") == 2]
        for _ in range(6):
            terms = [(int(rng.integers(1, f.order)), int(e))
                     for e in rng.choice(weight2, 2, replace=False)]
            t = to_table(UnivariatePoly(f, terms))
            apn = row_by_row_ddt(t.lut)[0] == 2
            assert is_apn_quadratic(t) == apn, (n, terms)


def test_quadratic_shortcut_reaches_past_the_ddt():
    # the tally stops at n = 16; the rank test is 2^n (n x n) eliminations
    for m in (8, 10):
        assert is_apn_quadratic(make_new_bivariate(m).table), m


def test_ddt_answers_a_quadratic_past_the_tally():
    # n = 20: the derivative ranks give an APN function's forced spectrum,
    # half the cells of each row 2 and half 0
    t = make_new_bivariate(10).table
    n = t.field.n
    s = ddt(t)
    half_cells = ((1 << n) - 1) << (n - 1)
    assert (s.delta, s.histogram) == (2, {0: half_cells, 2: half_cells})
    zs = np.arange(1 << n, dtype=np.uint32)
    assert len(s.witnesses) == 16
    for a, b in s.witnesses[::15]:
        assert np.count_nonzero(t.lut[zs ^ a] ^ t.lut == b) == 2


def test_quadratic_ddt_sizes_its_witness_sweep_first(monkeypatch):
    # Gold n=18: a half sweep's 16 B per element is 4 MiB, above 2 MiB; the
    # refusal comes before the rank passes
    t = build_from_descriptor('{tag:"Gold", n:18, i:1}').table
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(2 / 1024))
    monkeypatch.setattr(analysis, "_derivative_rank_passes", None)
    with pytest.raises(MemoryBudgetError, match=r"^DDT witnesses at n=18"):
        ddt(t)


def test_trinomial_family_m5_sample_is_quadratic_apn():
    # GF(2^15): a seeded sample of 8 (s, mu, v) members, each about 0.05 s
    # through the degree check and the derivative ranks; one also through
    # the DDT (about 6 s)
    params = search_trinomial_params(5)
    step = ((1 << 15) - 1) // ((1 << 5) - 1)  # v = u^(step j) lies in GF(2^5)
    rng = np.random.default_rng(1205)
    tables = [make_new_trinomial(5, *params[i], step * int(j)).table
              for i, j in zip(rng.choice(len(params), 8, replace=False),
                              rng.integers(0, (1 << 5) - 1, 8))]
    for t in tables:
        assert algebraic_degree(t) == 2
        assert is_apn_quadratic(t)
    assert analysis._ddt_tally(tables[0]).delta == 2


def test_is_apn_answers_a_quadratic_past_the_ddt():
    # n = 17 is beyond the DDT's n <= 16
    assert is_apn(build_from_descriptor('{tag:"Gold", n:17, i:1}').table) is True


def test_is_apn_takes_the_rank_test_on_quadratics(monkeypatch):
    def refuse(_):
        raise AssertionError("DDT pass on a quadratic")

    monkeypatch.setattr(analysis, "_half_derivative_passes", refuse)
    assert is_apn(to_table(UnivariatePoly.monomial(get_field(7), 3))) is True
    assert is_apn(to_table(UnivariatePoly.monomial(get_field(6), 5))) is False


def test_is_apn_takes_the_ddt_above_degree_2(monkeypatch):
    # z^7 on GF(2^7) is cubic with delta 6
    def refuse(_):
        raise AssertionError("rank test on a cubic")

    monkeypatch.setattr(analysis, "is_apn_quadratic", refuse)
    assert is_apn(to_table(UnivariatePoly.monomial(get_field(7), 7))) is False


def test_ddt_takes_the_rank_passes_on_quadratics(monkeypatch):
    def refuse(_):
        raise AssertionError("DDT pass on a quadratic")

    monkeypatch.setattr(analysis, "_half_derivative_passes", refuse)
    assert ddt(to_table(UnivariatePoly.monomial(get_field(7), 3))).delta == 2
    assert ddt(to_table(UnivariatePoly.monomial(get_field(6), 5))).delta == 4


def test_ddt_tallies_above_degree_2(monkeypatch):
    # z^7 on GF(2^7) is cubic with delta 6
    def refuse(_):
        raise AssertionError("rank pass on a cubic")

    monkeypatch.setattr(analysis, "_derivative_rank_passes", refuse)
    assert ddt(to_table(UnivariatePoly.monomial(get_field(7), 7))).delta == 6


def test_is_apn_rejects_differentially_4_uniform():
    f = get_field(6)
    inverse = to_table(UnivariatePoly.monomial(f, 62))  # z^(2^6-2)
    assert ddt(inverse).delta == 4
    assert not is_apn(inverse)


# ---------------------------------------------------------------------------
# cubic root classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [3, 4, 5])
def test_cubic_matches_brute_everywhere(m):
    f = get_field(m)
    for a in range(f.order):
        for b in range(f.order):
            got = cubic_root_count(f, a, b)
            want = brute_cubic_root_count(f, a, b)
            assert got.root_count == want, (m, a, b)


def test_cubic_sweep_counts_cases_and_caps_mismatches(monkeypatch):
    assert sweep_cubic_classifier(3) == (49, [])
    # a classifier that is always wrong: the first 16 (a, b) in order
    monkeypatch.setattr(analysis, "cubic_root_count",
                        lambda field, a, b: analysis.CubicClass(root_count=2))
    f = get_field(3)
    want = [(a, b, 2, brute_cubic_root_count(f, a, b))
            for a in range(1, 8) for b in range(1, 8)][:16]
    assert sweep_cubic_classifier(3) == (49, want)


def test_cubic_resolvent_evidence_is_checkable():
    f = get_field(4)
    seen_evidence = 0
    for a in range(1, 16):
        for b in range(1, 16):
            cls = cubic_root_count(f, a, b)
            if cls.resolvent_roots is None:
                continue
            seen_evidence += 1
            t1, t2 = cls.resolvent_roots
            ext = cls.resolvent_in_extension
            g = get_field(8) if ext else f
            emb = None
            if ext:
                # the resolvent roots live in GF(2^8) via the subfield injection
                from apnlab.gf2n import subfield_embedding
                emb = subfield_embedding(g, f)
            def lift(x: int) -> int:
                return int(emb[x]) if emb is not None else x
            for t in (t1, t2):
                # t^2 + b t + a^3 = 0
                lhs = g.sqr(t) ^ g.mul(lift(b), t) ^ lift(f.pow(a, 3))
                assert lhs == 0
    assert seen_evidence > 0


def test_cubic_zero_parameter_edges():
    f = get_field(4)
    for a in range(16):
        assert cubic_root_count(f, a, 0).root_count == \
            brute_cubic_root_count(f, a, 0)
        assert cubic_root_count(f, 0, a).root_count == \
            brute_cubic_root_count(f, 0, a)


def test_cubic_trinomial_root_presence_tracks_subfield():
    # z^3 + z + 1 splits in GF(2^3), so it has roots exactly when 3 | m
    for m in (2, 3, 4, 5, 6, 7):
        assert (brute_cubic_root_count(get_field(m), 1, 1) > 0) == (m % 3 == 0)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def _xor(x, y):
    return x ^ y


def _scalar_det(field, matrix, hole):
    """``_det_masked`` of ``matrix`` with scalar entries, ``hole`` marking
    the structural zeros, as an int."""
    det = _det_masked(matrix, field.mul, _xor, lambda x: x is hole)
    return 0 if det is None else det


def _transpose(matrix):
    return [list(col) for col in zip(*matrix)]


def _resultant(field, u, v):
    """Res(u, v) of ascending coefficient lists: the determinant of their
    Sylvester rows, as the identity check takes it."""
    return _scalar_det(field, _sylvester_rows(u, v, None), None)


def test_resultant_of_linear_factors():
    f = get_field(6)
    for a in range(8):
        for b in range(8):
            assert _resultant(f, [a, 1], [b, 1]) == (a ^ b)


def test_resultant_zero_iff_common_root_small():
    f = get_field(3)
    # all monic quadratics vs monic linears: share a root <=> resultant is 0
    for c1 in range(8):
        for c0 in range(8):
            for r0 in range(8):
                res = _resultant(f, [c0, c1, 1], [r0, 1])
                shares = (f.sqr(r0) ^ f.mul(c1, r0) ^ c0) == 0
                assert (res == 0) == shares


def test_resultant_formal_degrees_extend_sylvester():
    f = get_field(4)
    # padding u to formal degree d scales the determinant by lc(v)^(d - deg u)
    assert _resultant(f, [1, 1, 0], [1, 3]) == f.mul(3, _resultant(f, [1, 1], [1, 3]))


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_det_masked_matches_gaussian_elimination(m):
    # dense k x k matrices with zero entries, fed by rows and by columns
    field = get_field(m)
    rng = np.random.default_rng(m)
    for k in range(1, 7):
        for _ in range(12):
            dense = rng.integers(0, field.order, (k, k))
            dense[rng.random((k, k)) < 0.3] = 0
            matrix = dense.tolist()
            want = gauss_det(matrix, field.modulus)
            assert _scalar_det(field, matrix, 0) == want
            assert _scalar_det(field, _transpose(matrix), 0) == want


@pytest.mark.parametrize("m", [2, 3, 5])
def test_det_masked_sylvester_matches_gaussian_elimination(m):
    # Sylvester matrices of random u, v of degrees 1..4, with None holes
    # and zero coefficients, fed by rows and by columns
    field = get_field(m)
    rng = np.random.default_rng(10 + m)
    for du in range(1, 4):
        for dv in range(1, 5):
            for _ in range(6):
                u, v = ([c if rng.random() > 0.2 else None
                         for c in rng.integers(0, field.order, d + 1).tolist()]
                        for d in (du, dv))
                rows = _sylvester_rows(u, v, None)
                want = gauss_det([[0 if e is None else e for e in row]
                                  for row in rows], field.modulus)
                assert _scalar_det(field, rows, None) == want
                assert _scalar_det(field, _transpose(rows), None) == want


def test_det_masked_broadcasts_array_entries():
    # x-free entries as (P, 1) columns, the constant terms as (1, q) rows;
    # every cell of the broadcast determinant is the determinant of its
    # scalar matrix
    field = get_field(4)
    rng = np.random.default_rng(4)
    p, q = 5, 7

    def draw(shape):
        return rng.integers(0, 16, shape).astype(np.uint32)

    col, row = (p, 1), (1, q)
    u = [draw(row), draw(col), draw(col)]
    v = [draw(row), draw(col), draw(col), None, draw(col)]
    rows = _sylvester_rows(u, v, None)
    for matrix in (rows, _transpose(rows)):
        det = _det_masked(matrix, field.mul_vec, _xor, lambda x: x is None)
        assert det.shape == (p, q)
        for i in range(p):
            for j in range(q):
                scalar = [[0 if e is None else int(np.broadcast_to(e, (p, q))[i, j])
                           for e in r] for r in rows]
                assert int(det[i, j]) == gauss_det(scalar, field.modulus)


def _derivative_sylvester(a, b, x, modulus):
    """The derivative system's 6x6 Sylvester matrix in y at (a, b, x), its
    entries from the printed equations in plain-integer GF(2^m) arithmetic:
    f = (a+b) y^2 + (a+b^2) y + a x^2 + (a^2+b^2+b) x and
    g = b y^4 + a^2 y^2 + (a^4+a+b^4) y + (a+b) x^4 + b^2 x^2 + (a^4+b) x."""
    def mul(p, q):
        return shift_add_mul(p, q, modulus)

    a2, b2, x2 = mul(a, a), mul(b, b), mul(x, x)
    a4, b4, x4 = mul(a2, a2), mul(b2, b2), mul(x2, x2)
    f = [a ^ b, a ^ b2, mul(a, x2) ^ mul(a2 ^ b2 ^ b, x)]  # descending in y
    g = [b, 0, a2, a4 ^ a ^ b4, mul(a ^ b, x4) ^ mul(b2, x2) ^ mul(a4 ^ b, x)]
    return ([[0] * i + f + [0] * (3 - i) for i in range(4)]
            + [[0] * i + g + [0] * (1 - i) for i in range(2)])


def _poly_at(field, poly, x):
    """The polynomial in x ``poly`` (row i: the coefficients of x^i, one
    per pair) at x, broadcast against its columns."""
    value = np.zeros(np.broadcast(poly[0], x).shape, dtype=np.uint32)
    for c in poly[::-1]:
        value = field.mul_vec(value, x) ^ c
    return value


@pytest.mark.parametrize("m", [3, 5])
def test_resultant_lhs_matches_gaussian_elimination(m):
    # the determinant's polynomial in x at every (a, b, x) at m=3 (each
    # pair's column against the row of x); at 2,000 seeded points at m=5,
    # each pair's polynomial at its own x
    field = get_field(m)
    order = field.order
    if m == 3:
        ab = np.arange(order * order, dtype=np.uint32)
        a, b = ab >> m, ab & (order - 1)
        x = np.arange(order, dtype=np.uint32)[None, :]
        got = _poly_at(field, _resultant_lhs(field, a, b)[:, :, None], x)
        a, b, x = (np.broadcast_to(v, got.shape) for v in (a[:, None], b[:, None], x))
    else:
        a, b, x = np.random.default_rng(25).integers(0, order, (3, 2000),
                                                      dtype=np.uint32)
        got = _poly_at(field, _resultant_lhs(field, a, b), x)
    points = zip(*(v.ravel().tolist() for v in (a, b, x)))
    want = [gauss_det(_derivative_sylvester(*point, field.modulus), field.modulus)
            for point in points]
    assert got.ravel().tolist() == want


@pytest.mark.parametrize("m", [3, 4, 5])
def test_resultant_coefficients_have_eight_terms(m):
    # the determinant's terms c f0^i g0^j, column-sized: degree 4 in f's
    # coefficients and 2 in g's, none free of both f0 and g0.  Three vanish
    # at every (a, b): with r, s the roots of f and G = g - g0, additive in
    # y, Res = f2^4 g(r) g(s) = f2^4 (G(r) G(s) + g0 G(r+s) + g0^2), where
    # r+s = f1/f2 holds no f0 (no f0 g0, f0^2 g0), and G(r) G(s), a sum of
    # (rs)^i and r^i s^j + r^j s^i over i < j in {1, 2, 4}, holds rs = f0/f2
    # to the powers 1, 2 and 4 only (no f0^3)
    field = get_field(m)
    ab = np.arange(field.order**2, dtype=np.uint32)
    coefficients = _resultant_coefficients(field, (ab >> m)[:, None],
                                           (ab & (field.order - 1))[:, None])
    assert sorted(coefficients) == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
                                    (2, 1), (3, 0), (4, 0)]
    assert all(c.shape == (field.order**2, 1) for c in coefficients.values())
    assert sorted(key for key, c in coefficients.items()
                  if not c.any()) == [(1, 1), (2, 1), (3, 0)]


@pytest.mark.parametrize("m,side_facts", [(2, True), (3, False), (4, True)])
def test_resultant_identity_report(m, side_facts):
    rep = verify_resultant_identity(m)
    assert rep.identity_holds, rep.mismatches[:3]
    assert rep.checked == (1 << m) ** 3
    assert rep.b_coeff_zero_set_ok == side_facts
    assert rep.denominator_nonzero_ok == side_facts
    assert rep.all_ok == side_facts
    d = rep.to_json_dict()
    assert d["m"] == m and d["identity_holds"] is True


def test_resultant_sweep_in_short_passes_matches_one_pass(monkeypatch):
    one_pass = verify_resultant_identity(4)  # 256 pairs, one pass
    monkeypatch.setattr(analysis, "_RESULTANT_PAIRS_PER_PASS", 63)
    assert verify_resultant_identity(4) == one_pass


def _planted_difference(order, flagged, seen):
    """A stand-in for ``_resultant_difference`` that adds to the real
    difference, on the row of each flagged flat index (a 2^m + b) 2^m + x,
    the polynomial that is 1 at that x and 0 elsewhere, 1 + (x + s)^(q-1),
    and records the flat pair indices a 2^m + b it is given; the side
    facts' arrays pass through."""
    def planted(field, a, b):
        pairs = a.astype(np.int64) * order + b
        seen.append(pairs)
        d, *side = _resultant_difference(field, a, b)
        out = np.zeros((max(order, len(d)), len(a)), dtype=np.uint32)
        out[: len(d)] = d
        for i in flagged:
            col = np.flatnonzero(pairs == i // order)
            s = int(i) % order
            out[0, col] ^= 1
            for k in range(order):  # (x + s)^(q-1): every binomial is odd
                out[k, col] ^= field.pow(s, order - 1 - k)
        return out, *side

    return planted


def test_resultant_witnesses_are_the_first_in_scan_order(monkeypatch):
    # 40 fixed points spread over the five passes of 63 (a, b) pairs have a
    # planted nonzero difference; the report keeps the first 16 by flat
    # index (a 2^m + b) 2^m + x
    m, order = 4, 16
    flagged = np.random.default_rng(3).choice(order**3, 40, replace=False)
    seen = []
    monkeypatch.setattr(analysis, "_RESULTANT_PAIRS_PER_PASS", 63)
    monkeypatch.setattr(analysis, "_resultant_difference",
                        _planted_difference(order, flagged, seen))
    rep = verify_resultant_identity(m)
    assert np.array_equal(np.concatenate(seen), np.arange(order**2))
    first = np.sort(flagged)[:16]
    assert len({int(i) // (63 * order) for i in first}) > 1
    assert rep.mismatches == [(int(i) >> 8, int(i) >> 4 & 15, int(i) & 15)
                              for i in first]
    assert not rep.identity_holds and rep.checked == order**3


def test_resultant_difference_that_vanishes_on_the_field_is_no_witness(
        monkeypatch):
    # x^16 + x is nonzero but vanishes on GF(16), so a row whose difference
    # it is holds at every x.  Planted on every row it gives no witness;
    # with one planted point on the last row as well, that point is the
    # only witness
    m, order = 4, 16
    real = verify_resultant_identity(m)
    for points, want in (([], []), ([(order**2 - 1) * order + 7], [(15, 15, 7)])):
        planted = _planted_difference(order, points, [])

        def vanishing(field, a, b, planted=planted):
            d, *side = planted(field, a, b)
            out = np.zeros((order + 1, len(a)), dtype=np.uint32)
            out[: len(d)] = d
            out[order] ^= 1
            out[1] ^= 1
            return out, *side

        monkeypatch.setattr(analysis, "_resultant_difference", vanishing)
        rep = verify_resultant_identity(m)
        assert rep.mismatches == want and rep.checked == order**3
    monkeypatch.setattr(analysis, "_resultant_difference",
                        _planted_difference(order, [], []))
    assert verify_resultant_identity(m) == real and real.identity_holds


def _resultant_count(m):
    """What ``verify_resultant_identity(m)`` counts before it allocates: a
    pass of pairs and the evaluation blocks its ranges may hold."""
    order = 1 << m
    per_pass = min(order**2, max(order, analysis._RESULTANT_PAIRS_PER_PASS))
    return per_pass * (analysis._RESULTANT_BYTES_PER_PAIR
                       + analysis._RESULTANT_BYTES_PER_POINT)


def _refused_before_sweeping(monkeypatch, m, count):
    """A budget one byte under ``count`` refuses the sweep before any range
    runs; the budget ``count`` itself is not checked here."""
    def no_range(*args):
        raise AssertionError("swept under a budget it does not fit")

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_resultant_range", no_range)
        patch.setenv("APNLAB_MEM_BUDGET_GIB", str((count - 1) / (1 << 30)))
        with pytest.raises(MemoryBudgetError, match=f"needs {count} bytes"):
            verify_resultant_identity(m)


def test_resultant_side_facts_stay_within_two_short_passes(monkeypatch):
    # 64 passes of 2^8 pairs at m=7: the (a, b) side facts come from each
    # pass's pair columns, so nothing outlives a pass.  The field's product
    # table is built first: its build (64 KiB and 256 KiB of block
    # temporaries) has its own check and happens once per field, not per pass
    m = 7
    monkeypatch.setattr(analysis, "_RESULTANT_PAIRS_PER_PASS", 1 << 8)
    count = _resultant_count(m)
    _refused_before_sweeping(monkeypatch, m, count)
    get_field(m)._product_table()
    tracemalloc.start()
    try:
        rep = verify_resultant_identity(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_ok and rep.checked == 1 << 21
    assert peak <= 2 * count


def test_resultant_sweep_memory_stays_within_two_passes(monkeypatch):
    # m=8 has 2^16 pairs, two passes
    m = 8
    count = _resultant_count(m)
    _refused_before_sweeping(monkeypatch, m, count)
    tracemalloc.start()
    try:
        rep = verify_resultant_identity(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_ok and rep.checked == 1 << 24
    assert peak <= 2 * count


# ---------------------------------------------------------------------------
# the supporting-lemma sweeps
# ---------------------------------------------------------------------------

#: The displayed quantities of the key lemma, in the proof's order.
_KEY_QUANTITIES = ("A", "B", "C", "D", "E", "U1", "U2", "U3", "U4",
                   "V1", "V2", "V3", "V4", "U", "V", "T", "P", "la")


def _key_vector_quantities(m, s, mu, v):
    field, L, mu_bits, v_bits = validate_trinomial_params(m, s, mu, v)
    a = field.all_elements_vec()[1:]
    q = _key_point_values(field, m, s, mu_bits, v_bits, a, L.eval_vec(a))
    return field, a, q


def _key_oracle(m, s, mu, v) -> list[dict]:
    """:func:`conftest.key_lemma_oracle` of a valid (s, mu, v) given in the
    coefficient convention."""
    field, _, mu_bits, v_bits = validate_trinomial_params(m, s, mu, v)
    return key_lemma_oracle(m, s, mu_bits, v_bits, field.modulus)


def _assert_rows_match_oracle(q: dict, claims: list, rows: list[dict]) -> None:
    """Every quantity and claim of one tuple's row equals the oracle's."""
    for k in _KEY_QUANTITIES:
        assert q[k].tolist() == [row[k] for row in rows], k
    assert [tuple(bool(c[i]) for c in claims) for i in range(len(rows))] == \
        [row["claims"] for row in rows]


@pytest.mark.parametrize("s,mu,v", [
    (3, 2, 1), (3, 21, 58), (5, 44, 59),  # valid: mu from the search, v in GF(4)*
    (1, 3, 1), (3, 3, 3),  # no valid shift or mu: claims 1, 2, 4, 5 fail somewhere
])
def test_key_lemma_quantities_match_plain_integer_oracle(s, mu, v):
    # mu and v are raw bits of GF(2^6); the oracle shares no code with apnlab
    m, field = 2, get_field(6)
    a = field.all_elements_vec()[1:]
    la = LinearizedPoly.from_exponent_terms(
        field, [(1, m + s), (mu, s), (1, 0)]).eval_vec(a)
    q = _key_point_values(field, m, s, mu, v, a, la)
    rows = key_lemma_oracle(m, s, mu, v, field.modulus)
    _assert_rows_match_oracle(q, _key_claims(field, s, q), rows)
    valid = (s, mu) in {(t, w.bits) for t, w in search_trinomial_params(m)}
    assert all(all(row["claims"]) for row in rows) == valid


def test_key_lemma_single_point_report():
    # a one-point pass at a = 5: the claims and factorizations hold there
    s, mu = search_trinomial_params(2)[0]
    field, L, mu_bits, v_bits = validate_trinomial_params(2, s, mu, 21)
    a = np.array([5], dtype=np.uint32)
    q = _key_point_values(field, 2, s, mu_bits, v_bits, a, L.eval_vec(a))
    assert (q["A"] ^ q["B"] ^ q["C"] ^ q["D"] ^ q["E"]).tolist() == [0]
    assert all(q[k].tolist() != [0] for k in "ABCDE")
    assert q["U4"].tolist() == q["V4"].tolist() == [0]
    claims = _key_claims(field, s, q)
    assert len(claims) == 5 and all(c.tolist() == [True] for c in claims)
    checks = analysis._key_factorization_checks(field, 2, s, mu_bits, v_bits, a, q)
    assert len(checks) == 10 and all(ok.tolist() == [True] for _, ok in checks)
    _assert_rows_match_oracle(q, claims, _key_oracle(2, s, mu, 21)[4:5])


def test_key_lemma_kernel_is_two_elements():
    # the five coefficients define a linear map whose kernel must be {0, 1}
    s, mu = search_trinomial_params(2)[0]
    m, n = 2, 6
    f, a, q = _key_vector_quantities(m, s, mu, 21)
    zs = f.all_elements_vec()
    for i, point in enumerate(a.tolist()):
        L = LinearizedPoly.from_exponent_terms(f, [
            (int(q["A"][i]), (2 * m + s) % n), (int(q["B"][i]), (m + s) % n),
            (int(q["C"][i]), m % n), (int(q["D"][i]), s % n), (int(q["E"][i]), 0)])
        vals = L.eval_vec(zs)
        kernel = set(map(int, zs[vals == 0]))
        assert kernel == {0, 1}, point


def test_key_lemma_sweep_agrees_with_single_points():
    s, mu = search_trinomial_params(2)[1]
    sweep = sweep_key_lemma(2, s, mu, 21)
    assert sweep.total == 63
    assert sweep.all_pass
    assert not sweep.claim_failures and not sweep.factorization_failures
    rows = _key_oracle(2, s, mu, 21)
    for a in (1, 7, 33, 62):
        assert all(rows[a - 1]["claims"])
    d = sweep.to_json_dict()
    assert d["points_checked"] == 63 and d["all_pass"] is True


def test_key_lemma_sweep_verdict_matches_every_single_point(monkeypatch):
    # claim 1 forced false wherever A is 0 mod 5: the one-tuple sweep lists
    # exactly the first 16 points where the oracle's claims, so bent, fail
    s, mu = search_trinomial_params(2)[2]
    claims = analysis._key_claims

    def forced_claims(field, s, q):
        out = claims(field, s, q)
        out[0] = out[0] & (q["A"] % 5 != 0)
        return out

    monkeypatch.setattr(analysis, "_key_claims", forced_claims)
    sweep = sweep_key_lemma(2, s, mu, 42)
    rows = _key_oracle(2, s, mu, 42)
    bad = [a for a, row in enumerate(rows, 1)
           if not all(row["claims"]) or row["A"] % 5 == 0]
    assert bad
    assert sweep.claim_failures == bad[:16]
    assert not sweep.factorization_failures and sweep.total == 63


def _key_tuples(m: int) -> list[tuple]:
    """Every (s, mu, v) the key verifier sweeps at this m, in its order."""
    step = ((1 << (3 * m)) - 1) // ((1 << m) - 1)
    return [(s, mu, step * j) for s, mu in search_trinomial_params(m)
            for j in range((1 << m) - 1)]


def _key_ids(m: int, params) -> list[tuple]:
    """``params`` as the (s, mu, v) bits a :class:`KeyLemmaSweep` reports."""
    field = get_field(3 * m)
    return [(s, mu.bits, field.primitive_power(v)) for s, mu, v in params]


def _key_rows(q: dict) -> list[dict]:
    """The quantities of a grid pass, one dict per tuple in (mu, v) order:
    each quantity broadcast to the pass's (mu, v, point) shape and viewed
    flat, one row per tuple."""
    shape = q["C"].shape
    flat = {k: np.broadcast_to(q[k], shape).reshape(-1, shape[-1])
            for k in _KEY_QUANTITIES}
    return [{k: flat[k][t] for k in _KEY_QUANTITIES}
            for t in range(shape[0] * shape[1])]


def test_batched_key_sweep_equals_per_tuple_fold_m2(monkeypatch):
    # one worker: every pass is one _key_point_values call, whatever the CPUs
    monkeypatch.setattr(bitlinalg, "_WORKERS", 1)
    params = _key_tuples(2)
    assert len(params) == 72
    singles = [sweep_key_lemma(2, *p) for p in params]
    passes = []

    def recorded(*args, **kwargs):
        q = _key_point_values(*args, **kwargs)
        passes.append(q)
        return q

    monkeypatch.setattr(analysis, "_key_point_values", recorded)
    sweeps = sweep_key_lemmas(2)
    assert [(w.s, w.mu, w.v) for w in sweeps] == _key_ids(2, params)
    assert sweeps == singles
    # one pass per shift: 12 mu rows by 3 v columns, the v-free quantities
    # once per mu
    assert [q["C"].shape for q in passes] == [(12, 3, 63)] * 2
    assert [q["A"].shape for q in passes] == [(12, 1, 63)] * 2
    # passes of two mu rows, then, with passes of 2 x 63 pairs (under one
    # row's 3 x 63), blocks of two v and one v of one mu, give the same
    # reports
    monkeypatch.setattr(analysis, "_KEY_ELEMS_PER_PASS", 2 * 3 * 63)
    assert sweep_key_lemmas(2) == singles
    assert [q["C"].shape for q in passes[2:]] == [(2, 3, 63)] * 12
    monkeypatch.setattr(analysis, "_KEY_ELEMS_PER_PASS", 2 * 63)
    assert sweep_key_lemmas(2) == singles
    assert [q["C"].shape for q in passes[14:]] == [(1, 2, 63), (1, 1, 63)] * 24
    # every quantity of every ninth tuple of each pass layout is the
    # oracle's value for that tuple
    field = get_field(6)
    for layout in (passes[2:14], passes[14:]):
        rows = [row for q in layout for row in _key_rows(q)]
        assert len(rows) == 72
        for row, (s, mu, v) in list(zip(rows, params))[::9]:
            oracle = _key_oracle(2, s, mu, v)
            claims = _key_claims(field, s, row)
            _assert_rows_match_oracle(row, claims, oracle)


def test_batched_key_sweep_equals_per_tuple_fold_m3_sample():
    params = _key_tuples(3)
    rng = np.random.default_rng(2014)
    picks = sorted(rng.choice(len(params), 5, replace=False))
    shifts = sorted({params[i][0] for i in picks})
    assert len(shifts) > 1
    first = {s: [p[0] for p in params].index(s) for s in shifts}
    sweeps = {s: sweep_key_lemmas(3, s) for s in shifts}
    for s in shifts:  # each shift's tuples, in the enumeration's order
        assert [(w.s, w.mu, w.v) for w in sweeps[s]] == _key_ids(
            3, [p for p in params if p[0] == s])
    for i in picks:
        s = params[i][0]
        assert sweeps[s][i - first[s]] == sweep_key_lemma(3, *params[i])
    # the quantities of one sampled tuple at all 511 points, against the oracle
    sample = params[picks[0]]
    field, _, q = _key_vector_quantities(3, *sample)
    _assert_rows_match_oracle(q, _key_claims(field, sample[0], q),
                              _key_oracle(3, *sample))


def test_key_sweep_refuses_before_building_an_element(monkeypatch):
    # m=6 has 442,260 (s, mu) pairs and 27,862,380 tuples; 1 GiB holds the
    # search's pairs but not the tuples, which are refused before any
    # FieldElement is made
    def no_element(self, bits):
        raise AssertionError("built a FieldElement before the size check")

    monkeypatch.setattr(gf2n.Field, "element", no_element)
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "1")
    with pytest.raises(MemoryBudgetError, match="27862380 tuples"):
        sweep_key_lemmas(6)


def test_key_sweep_memory_stays_within_its_check(monkeypatch):
    # the tuples' results and one full pass of 73 mu x 7 v x 511 points are
    # what check_alloc counts; the sweep's peak must stay inside that.  One
    # worker: split ranges peak together only when the threads keep step,
    # which a busy host does not promise (test_split_sweeps_stay_within_
    # their_checks covers the split peak)
    monkeypatch.setattr(bitlinalg, "_WORKERS", 1)
    counted = []

    def recorded(nbytes, what, budget=None):
        counted.append(nbytes)
        return check_alloc(nbytes, what, budget)

    monkeypatch.setattr(analysis, "check_alloc", recorded)
    search_trinomial_params(3)  # the search's own field work, not the sweep's
    tracemalloc.start()
    try:
        sweeps = sweep_key_lemmas(3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sweeps) == 882 and all(w.all_pass for w in sweeps)
    assert len(counted) == 1 and peak <= counted[0]
    assert peak >= 0.8 * counted[0]  # the count is not loose either


class _FirstPassDone(Exception):
    pass


def test_key_sweep_passes_a_v_block_of_one_mu_at_m5(monkeypatch):
    # at m = 5 one mu row, 31 v x 32,767 points, holds more than a pass's
    # 2^18 pairs: a pass is a block of 8 v for one mu, which check_alloc
    # counts before it is built.  Only the first pass runs
    monkeypatch.setattr(bitlinalg, "_WORKERS", 1)
    m, points = 5, (1 << 15) - 1
    s, mus = next((t, mus) for t, mus in _trinomial_mus(m) if mus.size)
    events, shapes, results = [], [], []

    def recorded_check(nbytes, what, budget=None):
        events.append(("check", nbytes))
        return check_alloc(nbytes, what, budget)

    def recorded_values(*args, **kwargs):
        q = _key_point_values(*args, **kwargs)
        shapes.append((q["A"].shape, q["C"].shape))
        return q

    group = analysis._sweep_key_group

    def first_pass_only(field, m, s, mus, vs):
        if results:
            raise _FirstPassDone
        events.append(("pass", list(mus), list(vs)))
        results.extend(group(field, m, s, mus, vs))
        return results

    monkeypatch.setattr(analysis, "check_alloc", recorded_check)
    monkeypatch.setattr(analysis, "_key_point_values", recorded_values)
    monkeypatch.setattr(analysis, "_sweep_key_group", first_pass_only)
    with pytest.raises(_FirstPassDone):
        sweep_key_lemmas(m, s)
    field = get_field(3 * m)
    vs = [field.primitive_power(j * (points // 31)) for j in range(8)]
    assert events == [
        ("check", 31 * mus.size * analysis._KEY_BYTES_PER_TUPLE
         + 8 * points * analysis._KEY_BYTES_PER_PAIR),
        ("pass", [int(mus[0])], vs),
    ]
    assert shapes == [((1, 1, points), (1, 8, points))]
    assert [(w.mu, w.v) for w in results] == [(int(mus[0]), v) for v in vs]
    assert all(w.all_pass and w.total == points for w in results)


# ---------------------------------------------------------------------------
# the lemma sweeps split across workers
# ---------------------------------------------------------------------------

def _split_everywhere(monkeypatch, workers):
    """Split every pass into ``workers`` ranges where it has that many items;
    with one worker, fail on any use of the thread pool."""
    monkeypatch.setattr(bitlinalg, "_WORKERS", workers)
    monkeypatch.setattr(analysis, "_RESULTANT_MIN_PART_PAIRS", 1)
    monkeypatch.setattr(analysis, "_KEY_MIN_PART_PAIRS", 1)
    if workers == 1:
        def no_pool():
            raise AssertionError("one worker runs every pass inline")

        monkeypatch.setattr(bitlinalg, "_pool", no_pool)


@pytest.fixture
def frequent_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_resultant_sweep_keeps_scan_order(monkeypatch, frequent_switches,
                                                workers):
    # passes of 63 (a, b) rows (1008 points) cut into ranges of 32 or 21
    # rows; the planted witnesses 500, 540, ... put the first 16 (500..1100)
    # on both sides of the range boundary at 512 and at 672, and of the
    # pass boundary at 1008.  The last pass, 4 rows, is shorter than one
    # row's 16 pairs, the least a range holds, and runs whole
    m, order = 4, 16
    real = verify_resultant_identity(m)
    flagged = np.arange(500, order**3, 40)[:40]
    seen = []
    _split_everywhere(monkeypatch, workers)
    monkeypatch.setattr(analysis, "_RESULTANT_PAIRS_PER_PASS", 63)
    assert verify_resultant_identity(m) == real
    monkeypatch.setattr(analysis, "_resultant_difference",
                        _planted_difference(order, flagged, seen))
    rep = verify_resultant_identity(m)
    ranges = sorted(seen, key=lambda pairs: pairs[0])
    assert np.array_equal(np.concatenate(ranges), np.arange(order**2))
    assert len(ranges) == 4 * workers + 1
    assert rep.mismatches == [(int(i) >> 8, int(i) >> 4 & 15, int(i) & 15)
                              for i in flagged[:16]]
    assert rep.checked == order**3


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_key_sweep_equals_one_worker(monkeypatch, frequent_switches,
                                           workers):
    # claim 1 is forced false wherever A is 0 mod 7, so the reports carry
    # failure lists; 12 mu rows x 3 v a pass, cut into 2 or 3 ranges of rows
    claims = analysis._key_claims

    def forced_claims(field, s, q):
        out = claims(field, s, q)
        out[0] = out[0] & (q["A"] % 7 != 0)
        return out

    monkeypatch.setattr(analysis, "_key_claims", forced_claims)
    monkeypatch.setattr(bitlinalg, "_WORKERS", 1)
    ref = sweep_key_lemmas(2)
    assert sum(bool(w.claim_failures) for w in ref) > 36
    _split_everywhere(monkeypatch, workers)
    calls = []
    point_values = analysis._key_point_values

    def recorded(field, m, s, mu, v, a, la):
        q = point_values(field, m, s, mu, v, a, la)
        calls.append((q["C"].shape, [(s, int(w)) for w in mu.ravel()]))
        return q

    monkeypatch.setattr(analysis, "_key_point_values", recorded)
    assert sweep_key_lemmas(2) == ref
    sizes = {1: [12], 2: [6, 6], 3: [4, 4, 4]}[workers]
    assert sorted(shape for shape, _ in calls) == sorted(
        [(t, 3, 63) for t in sizes] * 2)
    # the ranges of each shift's pass cover its mu rows, each once
    for s, mus in _trinomial_mus(2):
        got = sorted(mu for _, rows in calls for t, mu in rows if t == s)
        assert got == sorted(mus.tolist())


@pytest.mark.parametrize("sweep", ["resultant", "key"])
def test_split_sweep_builds_field_tables_once(monkeypatch, sweep):
    # a fresh field has no tables or power maps; both ranges of a split
    # pass need them.  A build that takes 20 ms lets the second range see
    # them unbuilt, unless the field builds its exp/log tables, its product
    # table and each map under its lock
    builds = []
    # the search's own field work (its shared GF(2^6)), not the sweep's,
    # whatever ran before
    search_trinomial_params(2)

    def slow_count(nbytes, what, budget=None):
        builds.append(what)
        time.sleep(0.02)

    monkeypatch.setattr(analysis, "field_new", gf2n.Field)
    monkeypatch.setattr(gf2n, "check_alloc", slow_count)
    _split_everywhere(monkeypatch, 2)
    if sweep == "resultant":
        assert verify_resultant_identity(3).identity_holds
    else:
        assert all(w.all_pass for w in sweep_key_lemmas(2, 3))
    assert sum("log/exp table" in what for what in builds) == 1
    assert len(builds) == len(set(builds)) > 1


def test_split_sweeps_stay_within_their_checks(monkeypatch):
    # at two workers the ranges of a pass together hold one pass, inside
    # what the budget checks count
    monkeypatch.setattr(bitlinalg, "_WORKERS", 2)
    counted = []

    def recorded(nbytes, what, budget=None):
        counted.append(nbytes)
        return check_alloc(nbytes, what, budget)

    monkeypatch.setattr(analysis, "check_alloc", recorded)
    search_trinomial_params(3)
    for sweep in (lambda: sweep_key_lemmas(3, 1),
                  lambda: verify_resultant_identity(6)):
        counted.clear()
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counted) == 1 and peak <= counted[0]


@pytest.mark.parametrize("name,bend,claim", [
    ("A", lambda x: 0 * x, 0),   # a zero summand
    ("U2", lambda x: 0 * x, 1),  # a vanishing product U2 V2
    ("U4", lambda x: x ^ 1, 2),  # a nonzero fourth quantity
    ("V3", lambda x: x ^ 1, 3),  # moves the cross sum by U1 != 0
])
def test_key_claims_flip_when_one_quantity_is_perturbed(name, bend, claim):
    # the perturbation at every other point of the sweep flips that claim there
    s, mu = search_trinomial_params(2)[0]
    field, a, q = _key_vector_quantities(2, s, mu, 21)
    assert all(np.all(c) for c in _key_claims(field, s, q))
    q[name] = q[name].copy()
    q[name][::2] = bend(q[name][::2])
    flipped = _key_claims(field, s, q)[claim]
    assert not np.any(flipped[::2]) and np.all(flipped[1::2])


def test_scaled_permutation_family_sweep():
    for s, mu in search_trinomial_params(2)[:4]:
        assert verify_subfield_scaled_permutations(2, s, mu)
    with pytest.raises(PreconditionError, match="gcd"):
        verify_subfield_scaled_permutations(2, 2, 3)


def test_scaled_permutation_sweep_matches_one_rank_per_beta(monkeypatch):
    # one beta at a time, from the whole field, so that some L_beta are
    # singular: the batched ranks must give each beta's own verdict
    field = get_field(6)
    for s, mu in search_trinomial_params(2)[:3]:
        verdicts = []
        for beta in range(field.order):
            monkeypatch.setattr(analysis, "subfield_embedding",
                                lambda parent, component, beta=beta:
                                np.array([beta], dtype=np.uint32))
            L = LinearizedPoly.from_exponent_terms(
                field, [(1, 2 + s), (mu.bits, s), (beta, 0)])
            want = is_linearized_perm(L)
            assert verify_subfield_scaled_permutations(2, s, mu) == want, beta
            verdicts.append(want)
        assert True in verdicts and False in verdicts


def test_adjoint_permutation_agreement_random():
    f = get_field(9)
    rng = np.random.default_rng(17)
    perms = 0
    for _ in range(20):
        coeffs = [int(c) for c in rng.integers(0, f.order, 9)]
        L = LinearizedPoly(f, coeffs)
        assert verify_adjoint_permutation_agreement(L)
        perms += is_linearized_perm(L)
    assert 0 <= perms <= 20


def is_linearized_perm(L: LinearizedPoly) -> bool:
    from apnlab.vbf import is_linearized_permutation

    return is_linearized_permutation(L)
