"""Function representations: polynomials, tables, LUT files, linear maps."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apnlab.errors import PreconditionError
from apnlab.gf2n import subfield_map
from apnlab.vbf import (
    BivariateFunc,
    FunctionTable,
    LinearizedPoly,
    UnivariatePoly,
    adjoint,
    bivariate_to_table,
    compose,
    is_linearized_permutation,
    normalize_exponent,
    random_affine_permutation,
    read_lut,
    to_table,
    write_lut,
)

from conftest import get_field


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

def test_monomial_eval_matches_field_pow():
    f = get_field(6)
    p = UnivariatePoly.monomial(f, 3)
    for z in range(f.order):
        assert p.eval(z) == f.pow(z, 3)
    zs = f.all_elements_vec()
    assert np.array_equal(p.eval_vec(zs), f.pow_vec(zs, 3))


def test_multi_term_eval():
    f = get_field(5)
    # coefficients are raw field elements; 0 terms vanish
    u = f.primitive
    p = UnivariatePoly(f, [(u, 9), (1, 3), (0, 17)])
    for z in range(f.order):
        expect = f.mul(u, f.pow(z, 9)) ^ f.pow(z, 3)
        assert p.eval(z) == expect


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


def test_frob_and_scaled():
    f = get_field(5)
    p = UnivariatePoly(f, [(1, 3)])
    q = p.frob(1)  # z -> p(z)^2
    c = f.primitive_power(2)
    s = UnivariatePoly(f, [(c, 0)]) * p  # p scaled by c
    for z in range(f.order):
        assert q.eval(z) == f.sqr(p.eval(z))
        assert s.eval(z) == f.mul(c, p.eval(z))


# ---------------------------------------------------------------------------
# tables and LUT files
# ---------------------------------------------------------------------------

def test_to_table_round_trips_representations():
    f = get_field(5)
    p = UnivariatePoly(f, [(1, 5), (2, 3)])
    t = to_table(p)
    assert isinstance(t, FunctionTable)
    assert to_table(t) is t
    assert [int(v) for v in t.lut] == [p.eval(z) for z in range(f.order)]


def test_function_table_validates_lut():
    f = get_field(3)
    with pytest.raises(PreconditionError):
        FunctionTable(f, [0] * 7)  # wrong length
    with pytest.raises(PreconditionError):
        FunctionTable(f, list(range(7)) + [8])  # value out of range


def test_is_permutation():
    f = get_field(5)
    assert to_table(UnivariatePoly.monomial(f, 3)).is_permutation()  # gcd(3,31)=1
    assert not to_table(UnivariatePoly.monomial(f, 0)).is_permutation()


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


def test_compose_is_lut_indexing():
    f = get_field(4)
    a = to_table(UnivariatePoly.monomial(f, 3))
    b = to_table(UnivariatePoly.monomial(f, 2))
    c = compose(a, b)
    for z in range(f.order):
        assert c.lut[z] == a.lut[b.lut[z]]
    other = get_field(5)
    with pytest.raises(PreconditionError):
        compose(a, to_table(UnivariatePoly.monomial(other, 3)))


# ---------------------------------------------------------------------------
# linearized polynomials
# ---------------------------------------------------------------------------

def test_linearized_eval_is_additive():
    f = get_field(6)
    L = LinearizedPoly(f, [3, 0, 5, 0, 0, 1])
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, y = map(int, rng.integers(0, f.order, 2))
        assert L.eval(x ^ y) == L.eval(x) ^ L.eval(y)
    zs = f.all_elements_vec()
    assert np.array_equal(L.eval_vec(zs),
                          np.array([L.eval(z) for z in range(f.order)]))


def test_from_exponent_terms_matches_coeff_vector():
    f = get_field(6)
    # c * z^(2^i) terms with FieldElement coefficients
    L = LinearizedPoly.from_exponent_terms(f, [(f.element(3), 0),
                                               (f.element(5), 2)])
    M = LinearizedPoly(f, [f.element(3), 0, f.element(5), 0, 0, 0])
    for z in range(f.order):
        assert L.eval(z) == M.eval(z)
    # exponents reduce mod n (z^(2^n) = z)
    K = LinearizedPoly.from_exponent_terms(f, [(f.element(1), 6)])
    for z in range(f.order):
        assert K.eval(z) == z


def test_to_univariate_agrees():
    f = get_field(5)
    L = LinearizedPoly(f, [1, 0, 7, 0, 0])
    p = L.to_univariate()
    for z in range(f.order):
        assert p.eval(z) == L.eval(z)


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
        assert got == L.to_table().is_permutation(), L
        verdicts.add(got)
    assert verdicts == {True, False}


def test_matrix_rows_rank_iff_permutation():
    f = get_field(6)
    perm = LinearizedPoly(f, [0, 1, 0, 0, 0, 0])  # Frobenius, always bijective
    assert is_linearized_permutation(perm)
    # z + z^2 kills GF(2): never injective
    sing = LinearizedPoly(f, [1, 1, 0, 0, 0, 0])
    assert not is_linearized_permutation(sing)
    assert sing.to_table().is_permutation() is False


def test_adjoint_trace_pairing_exhaustive():
    f = get_field(4)
    L = LinearizedPoly(f, [9, 2, 0, 4])
    La = adjoint(L)
    for x in range(f.order):
        for y in range(f.order):
            lhs = f.trace_to(1, f.mul(y, L.eval(x)))
            rhs = f.trace_to(1, f.mul(x, La.eval(y)))
            assert lhs == rhs
    # involution
    Laa = adjoint(La)
    for z in range(f.order):
        assert Laa.eval(z) == L.eval(z)


# ---------------------------------------------------------------------------
# bivariate maps over GF(2^m)^2
# ---------------------------------------------------------------------------

def test_bivariate_to_table_matches_manual_eval():
    comp, parent = get_field(3), get_field(6)
    sm = subfield_map(parent, comp)
    # (x, y) -> (x^3 + y, x y)
    g = BivariateFunc(comp, [(1, 3, 0), (1, 0, 1)], [(1, 1, 1)])
    t = bivariate_to_table(g, sm)
    assert t.field is parent
    for z in range(parent.order):
        x, y = sm.split(z)
        first = comp.pow(x, 3) ^ y
        second = comp.mul(x, y)
        assert t.lut[z] == sm.embed(first, second)


def test_bivariate_zero_coordinate():
    comp = get_field(3)
    u2 = comp.primitive_power(2)
    g = BivariateFunc(comp, [(u2, 1, 0)], [(0, 0, 0)])
    for x in range(comp.order):
        fx, sx = g.eval(x, 0)
        assert fx == comp.mul(u2, x) and sx == 0


# ---------------------------------------------------------------------------
# random affine permutations
# ---------------------------------------------------------------------------

def test_random_affine_permutation_is_affine_bijection():
    f = get_field(6)
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = random_affine_permutation(f, rng)
        assert t.is_permutation()
        # affine: A(x ^ y ^ z) = A(x) ^ A(y) ^ A(z)
        for _ in range(40):
            x, y, z = map(int, rng.integers(0, f.order, 3))
            assert t.lut[x ^ y ^ z] == t.lut[x] ^ t.lut[y] ^ t.lut[z]
