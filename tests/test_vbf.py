"""Function representations: polynomials, tables, LUT files, linear maps."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apnlab.errors import PreconditionError
from apnlab.gf2n import SubfieldMap
from apnlab.vbf import (
    BivariateFunc,
    FunctionTable,
    LinearizedPoly,
    UnivariatePoly,
    adjoint,
    bivariate_to_table,
    is_linearized_permutation,
    normalize_exponent,
    read_lut,
    to_table,
)

from conftest import (
    embed_pair,
    get_field,
    is_permutation,
    random_affine_permutation,
    scalar_eval,
    split_pair,
    write_lut,
)


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def test_monomial_eval_matches_field_pow():
    f = get_field(6)
    p = UnivariatePoly.monomial(f, 3)
    for z in range(f.order):
        assert scalar_eval(p, z) == f.pow(z, 3)
    zs = f.all_elements_vec()
    assert np.array_equal(p.eval_vec(zs), f.pow_vec(zs, 3))


def test_multi_term_eval():
    f = get_field(5)
    # coefficients are raw field elements; 0 terms vanish
    u = f.primitive
    p = UnivariatePoly(f, [(u, 9), (1, 3), (0, 17)])
    for z in range(f.order):
        expect = f.mul(u, f.pow(z, 9)) ^ f.pow(z, 3)
        assert scalar_eval(p, z) == expect


def test_zero_coefficient_terms_dropped():
    f = get_field(4)
    p = UnivariatePoly(f, [(0, 7), (1, 3)])
    assert p.format() == "z^3"
    # equal terms cancel in characteristic 2
    q = UnivariatePoly(f, [(1, 5), (1, 5)])
    assert q.format() == "0"


def test_poly_format_readable():
    f = get_field(4)
    p = UnivariatePoly(f, [(1, 3), (f.primitive_power(2), 5)])
    assert p.format() == "u^2*z^5 + z^3"


@given(st.integers(1, 10**9))
@settings(max_examples=80, deadline=None)
def test_normalize_exponent_preserves_function(e):
    f = get_field(4)
    r = normalize_exponent(e, f.mult_order)
    assert 1 <= r <= f.mult_order
    for z in range(f.order):
        assert f.pow(z, e) == f.pow(z, r)


def test_normalize_exponent_edges():
    assert normalize_exponent(0, 15) == 0
    assert normalize_exponent(15, 15) == 15
    assert normalize_exponent(16, 15) == 1
    with pytest.raises(PreconditionError):
        normalize_exponent(-1, 15)
    assert normalize_exponent(np.int64(16), 15) == 1
    # a form refuses an exponent that is not an int where it is built, not
    # by a TypeError in to_table
    f = get_field(4)
    for build in (lambda: UnivariatePoly(f, [(1, 2.5)]),
                  lambda: UnivariatePoly.monomial(f, 3.0),
                  lambda: BivariateFunc(f, [(1, 1, 2.5)], []),
                  lambda: UnivariatePoly(f, [(1, "3")])):
        with pytest.raises(PreconditionError, match="exponents are ints"):
            build()


def test_frob_and_scaled():
    f = get_field(5)
    p = UnivariatePoly(f, [(1, 3)])
    q = p.frob(1)  # z -> p(z)^2
    c = f.primitive_power(2)
    s = UnivariatePoly(f, [(c, 0)]) * p  # p scaled by c
    for z in range(f.order):
        assert scalar_eval(q, z) == f.sqr(scalar_eval(p, z))
        assert scalar_eval(s, z) == f.mul(c, scalar_eval(p, z))


# ---------------------------------------------------------------------------
# tables and LUT files
# ---------------------------------------------------------------------------

def test_to_table_round_trips_representations():
    f = get_field(5)
    p = UnivariatePoly(f, [(1, 5), (2, 3)])
    t = to_table(p)
    assert isinstance(t, FunctionTable)
    assert to_table(t) is t
    assert [int(v) for v in t.lut] == [scalar_eval(p, z) for z in range(f.order)]


def test_function_table_validates_lut():
    f = get_field(3)
    with pytest.raises(PreconditionError):
        FunctionTable(f, [0] * 7)  # wrong length
    with pytest.raises(PreconditionError):
        FunctionTable(f, list(range(7)) + [8])  # value out of range
    # entries are checked before the uint32 cast, which would truncate a
    # float, wrap a negative int and overflow on a too-large one
    for lut in ([0.5] * 8, np.full(8, 2.0), [-1] + [0] * 7,
                np.full(8, -1, dtype=np.int8), [1 << 40] + [0] * 7,
                [1 << 70] + [0] * 7, np.ones(8, dtype=bool)):
        with pytest.raises(PreconditionError, match=r"ints in \[0, 2\^3\)"):
            FunctionTable(f, lut)


def test_function_table_keeps_a_read_only_copy():
    f = get_field(3)
    lut = np.arange(8, dtype=np.uint32)[::-1]
    t = FunctionTable(f, lut)
    assert t.lut.dtype == np.uint32 and not t.lut.flags.writeable
    assert lut.flags.writeable and not np.shares_memory(t.lut, lut)
    assert FunctionTable(f, [int(v) for v in lut]) == t


def test_lut_file_round_trip():
    f = get_field(7)
    t = to_table(UnivariatePoly.monomial(f, 5))
    buf = io.StringIO()
    write_lut(t, buf)
    back = read_lut(io.StringIO(buf.getvalue()))
    assert back.field.n == 7 and back.field.modulus == f.modulus
    assert np.array_equal(back.lut, t.lut)


def test_read_lut_rejects_truncated_input():
    f = get_field(4)
    t = to_table(UnivariatePoly.monomial(f, 3))
    buf = io.StringIO()
    write_lut(t, buf)
    lines = buf.getvalue().splitlines()[:-2]
    with pytest.raises(PreconditionError):
        read_lut(io.StringIO("\n".join(lines)))


# ---------------------------------------------------------------------------
# linearized polynomials
# ---------------------------------------------------------------------------

def test_linearized_eval_is_additive():
    f = get_field(6)
    L = LinearizedPoly(f, [3, 0, 5, 0, 0, 1])
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, y = map(int, rng.integers(0, f.order, 2))
        assert scalar_eval(L, x ^ y) == scalar_eval(L, x) ^ scalar_eval(L, y)
    zs = f.all_elements_vec()
    assert np.array_equal(L.eval_vec(zs),
                          np.array([scalar_eval(L, z) for z in range(f.order)]))


def test_from_exponent_terms_matches_coeff_vector():
    f = get_field(6)
    # c * z^(2^i) terms with FieldElement coefficients
    L = LinearizedPoly.from_exponent_terms(f, [(f.element(3), 0),
                                               (f.element(5), 2)])
    M = LinearizedPoly(f, [f.element(3), 0, f.element(5), 0, 0, 0])
    for z in range(f.order):
        assert scalar_eval(L, z) == scalar_eval(M, z)
    # exponents reduce mod n (z^(2^n) = z)
    K = LinearizedPoly.from_exponent_terms(f, [(f.element(1), 6)])
    for z in range(f.order):
        assert scalar_eval(K, z) == z


def test_to_univariate_agrees():
    f = get_field(5)
    L = LinearizedPoly(f, [1, 0, 7, 0, 0])
    p = L.to_univariate()
    for z in range(f.order):
        assert scalar_eval(p, z) == scalar_eval(L, z)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_linearized_permutation_matches_table(n):
    # mostly zero coefficients, so that both verdicts occur
    f = get_field(n)
    rng = np.random.default_rng(n)
    verdicts = set()
    for _ in range(40):
        coeffs = rng.integers(0, f.order, n) * (rng.random(n) < 0.25)
        L = LinearizedPoly(f, [int(c) for c in coeffs])
        got = is_linearized_permutation(L)
        assert got == is_permutation(L.to_table()), L
        verdicts.add(got)
    assert verdicts == {True, False}


def test_matrix_rows_rank_iff_permutation():
    f = get_field(6)
    perm = LinearizedPoly(f, [0, 1, 0, 0, 0, 0])  # Frobenius, always bijective
    assert is_linearized_permutation(perm)
    # z + z^2 kills GF(2): never injective
    sing = LinearizedPoly(f, [1, 1, 0, 0, 0, 0])
    assert not is_linearized_permutation(sing)
    assert is_permutation(sing.to_table()) is False


def test_adjoint_trace_pairing_exhaustive():
    f = get_field(4)
    L = LinearizedPoly(f, [9, 2, 0, 4])
    La = adjoint(L)
    for x in range(f.order):
        for y in range(f.order):
            lhs = f.trace_to(1, f.mul(y, scalar_eval(L, x)))
            rhs = f.trace_to(1, f.mul(x, scalar_eval(La, y)))
            assert lhs == rhs
    # involution
    Laa = adjoint(La)
    for z in range(f.order):
        assert scalar_eval(Laa, z) == scalar_eval(L, z)


# ---------------------------------------------------------------------------
# bivariate maps over GF(2^m)^2
# ---------------------------------------------------------------------------

def test_bivariate_to_table_matches_manual_eval():
    comp, parent = get_field(3), get_field(6)
    sm = SubfieldMap(parent, comp)
    # (x, y) -> (x^3 + y, x y)
    g = BivariateFunc(comp, [(1, 3, 0), (1, 0, 1)], [(1, 1, 1)])
    t = bivariate_to_table(g, sm)
    assert t.field is parent
    for z in range(parent.order):
        x, y = split_pair(sm, z)
        first = comp.pow(x, 3) ^ y
        second = comp.mul(x, y)
        assert t.lut[z] == embed_pair(sm, first, second)


def test_bivariate_zero_coordinate():
    comp = get_field(3)
    u2 = comp.primitive_power(2)
    g = BivariateFunc(comp, [(u2, 1, 0)], [(0, 0, 0)])
    for x in range(comp.order):
        fx, sx = scalar_eval(g, x, 0)
        assert fx == comp.mul(u2, x) and sx == 0


# ---------------------------------------------------------------------------
# random affine permutations
# ---------------------------------------------------------------------------

def test_random_affine_permutation_is_affine_bijection():
    f = get_field(6)
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = random_affine_permutation(f, rng)
        assert is_permutation(t)
        # affine: A(x ^ y ^ z) = A(x) ^ A(y) ^ A(z)
        for _ in range(40):
            x, y, z = map(int, rng.integers(0, f.order, 3))
            assert t.lut[x ^ y ^ z] == t.lut[x] ^ t.lut[y] ^ t.lut[z]
