"""Field arithmetic: axioms, traces, cube classes, subfield maps."""

from __future__ import annotations

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apnlab import bitlinalg, gf2n
from apnlab.errors import MemoryBudgetError, PreconditionError
from apnlab.gf2n import (
    DEFAULT_MODULI,
    Field,
    SubfieldMap,
    cube_class,
    field_from_header,
    field_new,
    poly_is_irreducible,
    primitive_elements,
    subfield_embedding,
)

from conftest import embed_pair, get_field, shift_add_mul, split_pair


# ---------------------------------------------------------------------------
# independent oracles (kept deliberately naive)
# ---------------------------------------------------------------------------

def _poly_mul_mod(a: int, b: int, mod: int) -> int:
    """Carry-less school multiplication followed by long division by mod."""
    prod = 0
    shift = 0
    while b:
        if b & 1:
            prod ^= a << shift
        b >>= 1
        shift += 1
    deg = mod.bit_length() - 1
    while prod.bit_length() - 1 >= deg:
        prod ^= mod << (prod.bit_length() - 1 - deg)
    return prod


def _poly_irreducible_oracle(p: int) -> bool:
    """Trial division by every lower-degree polynomial."""
    deg = p.bit_length() - 1
    if deg <= 0:
        return False
    for d in range(2, 1 << deg):
        if d.bit_length() - 1 == 0:
            continue
        # long-divide p by d and check the remainder
        rem = p
        dd = d.bit_length() - 1
        while rem.bit_length() - 1 >= dd and rem:
            rem ^= d << (rem.bit_length() - 1 - dd)
        if rem == 0:
            return False
    return True


def _euler_phi(n: int) -> int:
    result = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


# ---------------------------------------------------------------------------
# moduli and construction
# ---------------------------------------------------------------------------

def test_default_moduli_are_irreducible():
    for n, mod in DEFAULT_MODULI.items():
        assert mod.bit_length() - 1 == n
        if n <= 14:
            assert _poly_irreducible_oracle(mod), f"n={n} modulus {mod:#x}"
        assert poly_is_irreducible(mod)


def test_poly_is_irreducible_matches_oracle_through_degree_6():
    for p in range(4, 1 << 7):
        assert poly_is_irreducible(p) == _poly_irreducible_oracle(p), f"{p:#x}"


def test_reducible_modulus_rejected():
    with pytest.raises(PreconditionError):
        field_new(4, modulus=0b10101)  # (x^2+x+1)^2


def test_header_round_trip():
    for n in (3, 6, 8, 9):
        f = get_field(n)
        g = field_from_header(f.header())
        assert (g.n, g.modulus, g.primitive) == (f.n, f.modulus, f.primitive)


def test_field_from_header_returns_the_shared_field():
    for n in (3, 8):
        f = field_new(n)
        assert field_from_header(f.header()) is f
    assert field_new(8, DEFAULT_MODULI[8]) is field_new(8)


def test_subfield_embedding_builds_no_second_parent_table(monkeypatch):
    parent, comp = field_new(10), field_new(5)
    parent._tables()
    comp._tables()
    builds = []
    tables = Field._tables

    def counted(self):
        if self._exp is None:
            builds.append(self)
        return tables(self)

    monkeypatch.setattr(Field, "_tables", counted)
    gf2n._subfield_root.cache_clear()
    subfield_embedding(parent, comp)
    assert builds == []


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_axioms_exhaustive(n):
    f = get_field(n)
    q = 1 << n
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, b) == _poly_mul_mod(a, b, f.modulus)
            for c in range(q):
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.pow(a, q - 1) == 1


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=200, deadline=None)
def test_axioms_sampled_gf256(a, b, c):
    f = get_field(8)
    assert f.mul(a, b) == f.mul(b, a) == _poly_mul_mod(a, b, f.modulus)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    if a:
        assert f.mul(a, f.inv(a)) == 1


@given(st.integers(1, (1 << 11) - 1), st.integers(-5, 200))
@settings(max_examples=100, deadline=None)
def test_pow_matches_repeated_multiplication(a, e):
    f = get_field(11)
    expect = 1
    for _ in range(e % f.mult_order if e >= 0 else (e % f.mult_order)):
        expect = f.mul(expect, a)
    assert f.pow(a, e) == expect


def test_pow_zero_conventions():
    f = get_field(5)
    assert f.pow(0, 0) == 1  # empty product
    assert f.pow(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


# ---------------------------------------------------------------------------
# vectorized kernels agree with the scalar ones
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 6, 9])
def test_vector_ops_match_scalar(n):
    f = get_field(n)
    rng = np.random.default_rng(7)
    a = rng.integers(0, f.order, 300, dtype=np.uint32)
    b = rng.integers(0, f.order, 300, dtype=np.uint32)
    assert all(int(x) == f.mul(int(p), int(q))
               for x, p, q in zip(f.mul_vec(a, b), a, b))
    assert all(int(x) == f.sqr(int(p)) for x, p in zip(f.sqr_vec(a), a))
    assert all(int(x) == f.pow(int(p), 11) for x, p in zip(f.pow_vec(a, 11), a))
    nz = a[a != 0]
    assert all(int(x) == f.inv(int(p)) for x, p in zip(f.inv_vec(nz), nz))
    assert all(int(x) == f.pow(int(p), 2) for x, p in zip(f.frob_vec(a, 1), a))
    assert all(int(x) == f.trace_to(1, int(p))
               for x, p in zip(f.trace_vec(1, a), a))
    c = int(b[0])
    assert all(int(x) == f.mul(c, int(p))
               for x, p in zip(f.mul_vec(c, a), a))


@pytest.mark.parametrize("n", [1, 8, 16, 17, 21, 24])
def test_vector_kernels_match_table_free_scalar_ops(n):
    # the oracle field never builds tables, so its mul/pow run shift-and-add
    oracle, f = Field(n), Field(n)
    m = f.mult_order
    rng = np.random.default_rng(n)
    a = rng.integers(0, f.order, 400, dtype=np.uint32)
    b = rng.integers(0, f.order, 400, dtype=np.uint32)
    a[::5] = 0
    b[::7] = 0
    a[:4] = b[:4] = [0, 1, m, f.primitive]
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.mul_vec(a, b).tolist() == [oracle.mul(p, q) for p, q in pairs]
    assert f.sqr_vec(a).tolist() == [oracle.mul(p, p) for p in a.tolist()]
    for c in {0, 1, m, int(b[-1])}:
        assert f.mul_vec(c, a).tolist() == [oracle.mul(c, p)
                                                   for p in a.tolist()]
    # one row per left operand, broadcast against the whole right operand
    grid = f.mul_vec(a[:6, None], b)
    assert grid.shape == (6, b.size)
    assert all(np.array_equal(grid[i], f.mul_vec(np.full_like(b, a[i]), b))
               for i in range(6))
    for e in {0, 1, 2, 3, m - 1, m, m + 1, max(0, f.order - 3), f.order - 2,
              5 * m + 3, (1 << 40) + 1}:
        assert f.pow_vec(a, e).tolist() == [oracle.pow(p, e) for p in a.tolist()], e
    nz = a[a != 0]
    for e in {-1, -2, -(m - 1), -(1 << 40)}:
        assert f.pow_vec(nz, e).tolist() == [oracle.pow(p, e) for p in nz.tolist()], e
    assert f.inv_vec(nz).tolist() == [oracle.inv(p) for p in nz.tolist()]
    assert f.pow_vec(np.zeros(3, dtype=np.uint32), 0).tolist() == [1, 1, 1]
    with pytest.raises(ZeroDivisionError):
        f.pow_vec(a, -1)
    assert oracle._exp is None and oracle._log is None
    # powers gather through maps x -> x^e up to n = 16, one per e mod 2^n-1
    assert bool(f._maps) == (n <= 16)
    assert all(t.shape == (f.order,) and t.dtype == np.uint32
               for t in f._maps.values())


def test_small_powers_above_the_map_limit_cover_the_whole_field():
    # n = 17 takes powers by log arithmetic; e = 1 and 2 (mod 2^n - 1) skip
    # the reduction and the zero mask, which only the zero tail makes safe
    f = get_field(17)
    m = f.mult_order
    a = f.all_elements_vec().reshape(2, -1)
    sq = f.mul_vec(a, a)
    for e, want in ((1, a), (m + 1, a), (2, sq), (2 * m + 2, sq),
                    (3, f.mul_vec(sq, a)), (m + 3, f.mul_vec(sq, a))):
        got = f.pow_vec(a, e)
        assert got.shape == a.shape and got.dtype == np.uint32, e
        assert np.array_equal(got, want), e
    nz = a.ravel()[1:]
    assert np.all(f.mul_vec(f.pow_vec(nz, -1), nz) == 1)
    assert np.array_equal(f.inv_vec(nz), f.pow_vec(nz, m - 1))


def test_field_keeps_a_bounded_set_of_power_maps(monkeypatch):
    # room for three maps of GF(2^6): a fourth exponent replaces the oldest,
    # and every power is still right
    monkeypatch.setattr(gf2n, "_POWER_MAP_BYTES", 3 * 4 << 6)
    f, oracle = Field(6), Field(6)
    a = f.all_elements_vec()
    for e in (2, 3, 5, 7, 3, 11):
        assert f.pow_vec(a, e).tolist() == [oracle.pow(x, e) for x in a.tolist()]
    assert list(f._maps) == [5, 7, 11]


def test_power_maps_built_by_split_ranges_at_once_match_one_thread(monkeypatch):
    # three ranges of a split meet the same unbuilt maps at once (a build
    # that takes 10 ms lets the others see it unbuilt); each map is built
    # once and equals a one-thread build on another fresh field
    exponents = [2, 3, 7, -1, 255, 1 << 9, 5 * 1023 + 3]
    serial = Field(10)
    want = [serial.pow_vec(serial.all_elements_vec()[1:], e) for e in exponents]
    shared = Field(10)
    builds = []
    count = gf2n.check_alloc

    def counted(nbytes, what, budget=None):
        builds.append(what)
        time.sleep(0.01)
        return count(nbytes, what, budget)

    shared._tables()
    monkeypatch.setattr(gf2n, "check_alloc", counted)
    monkeypatch.setattr(bitlinalg, "_WORKERS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ranges = bitlinalg.split_run(
            lambda _, lo, hi: [shared.pow_vec(shared.all_elements_vec()[1:], e)
                               for e in exponents], 3, 1)
    finally:
        sys.setswitchinterval(interval)
    assert len(ranges) == 3
    assert all(np.array_equal(g, w) for part in ranges for g, w in zip(part, want))
    assert sorted(shared._maps) == sorted(serial._maps)
    assert all(np.array_equal(shared._maps[r], serial._maps[r])
               for r in serial._maps)
    assert len(builds) == len(set(builds)) == len(serial._maps)


# ---------------------------------------------------------------------------
# the product table: mul_vec up to n = 10, against shift-and-add on ints
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_product_table_holds_every_product(n):
    f = Field(n)
    x = f.all_elements_vec()
    want = [[shift_add_mul(a, b, f.modulus) for b in range(f.order)]
            for a in range(f.order)]
    got = f.mul_vec(x[:, None], x)
    assert got.dtype == np.uint32 and got.tolist() == want
    assert f._products.shape == (f.order * f.order,)


@pytest.mark.parametrize("n", [10, 11])
def test_mul_vec_samples_on_both_sides_of_the_table_cap(n):
    f = Field(n)
    rng = np.random.default_rng(n)
    a = rng.integers(0, f.order, 2000, dtype=np.uint32)
    b = rng.integers(0, f.order, 2000, dtype=np.uint32)
    a[:4] = b[-4:] = [0, 1, f.order - 1, f.primitive]
    want = [shift_add_mul(p, q, f.modulus) for p, q in zip(a.tolist(), b.tolist())]
    assert f.mul_vec(a, b).tolist() == want
    assert f.mul_vec(b, a).tolist() == want
    assert (f._products is None) == (n > gf2n._PRODUCT_TABLE_MAX_N)


@pytest.mark.parametrize("n", [5, 10, 11])
def test_mul_vec_broadcasts_scalars_columns_and_rows(n):
    f = Field(n)
    rng = np.random.default_rng(3 * n)
    col = rng.integers(0, f.order, (7, 1), dtype=np.uint32)
    row = rng.integers(0, f.order, 300, dtype=np.uint32)
    grid = f.mul_vec(col, row)
    assert grid.shape == (7, 300) and grid.dtype == np.uint32
    assert grid.tolist() == [[shift_add_mul(c, r, f.modulus) for r in row.tolist()]
                             for c in col.ravel().tolist()]
    assert np.array_equal(f.mul_vec(row, col), grid)
    for c in (0, 1, f.order - 1, int(col[0, 0])):
        want = [shift_add_mul(c, r, f.modulus) for r in row.tolist()]
        assert f.mul_vec(c, row).tolist() == want
        assert f.mul_vec(row, c).tolist() == want
        assert f.mul_vec(np.int64(c), row.astype(np.int64)).tolist() == want
    assert int(f.mul_vec(3, 5)) == shift_add_mul(3, 5, f.modulus)
    assert f.mul_vec(row[:0], row[:0]).size == 0


def test_product_table_built_by_split_ranges_at_once_is_built_once(monkeypatch):
    # three ranges of a split meet the unbuilt table at once (a build that
    # takes 10 ms lets the others see it unbuilt); one build serves them all
    f = Field(10)
    f._tables()
    x = f.all_elements_vec()
    want = [shift_add_mul(a, 0x2A5, f.modulus) for a in x.tolist()]
    builds = []
    count = gf2n.check_alloc

    def counted(nbytes, what, budget=None):
        builds.append(what)
        time.sleep(0.01)
        return count(nbytes, what, budget)

    monkeypatch.setattr(gf2n, "check_alloc", counted)
    monkeypatch.setattr(bitlinalg, "_WORKERS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ranges = bitlinalg.split_run(
            lambda _, lo, hi: (f.mul_vec(x, 0x2A5), f._products), 3, 1)
    finally:
        sys.setswitchinterval(interval)
    assert [got.tolist() for got, _ in ranges] == [want] * 3
    assert all(table is f._products for _, table in ranges)
    assert builds == ["GF(2^10) product table"]


def test_product_table_is_sized_before_it_is_built(monkeypatch):
    # 4 MiB of products at n = 10 under a 1 MiB budget: refused, nothing kept
    f = Field(10)
    f._tables()
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(1 / 1024))
    with pytest.raises(MemoryBudgetError, match=r"^GF\(2\^10\) product table"):
        f.mul_vec(f.all_elements_vec(), 3)
    assert f._products is None


@pytest.mark.parametrize("n", [7, 10, 11, 12, 17])
def test_mul_vec_refuses_operands_outside_the_field(n):
    # both paths: the product table up to n = 10, logs above; 1 << (32 - n)
    # is the least a whose a << n wraps in the table's index
    f = Field(n)
    x = f.all_elements_vec()
    bad = [v for v in (f.order, f.order + 1, 1 << (32 - n), (1 << 32) - 1)
           if v >= f.order]
    for v in bad:
        for a, b in ((x, v), (v, x), (x[:, None], v), (np.uint32(v), x[:3])):
            with pytest.raises(IndexError):
                f.mul_vec(a, b)
        arr = x.copy()
        arr[-1] = v
        for a, b in ((arr, x), (x, arr), (arr[:, None], x[:5]), (x[:5], arr[:, None])):
            with pytest.raises(IndexError):
                f.mul_vec(a, b)
    for a in (-1, np.array([1, -1]), np.array([1.0, 2.0]), 1 << 70):
        with pytest.raises(IndexError):
            f.mul_vec(a, x[:2])
        with pytest.raises(IndexError):
            f.mul_vec(x[:2], a)


@pytest.mark.parametrize("call", [
    lambda f8, sm: f8.pow_vec(np.array([2.7]), 3),
    lambda f8, sm: f8.pow_vec(np.array([-1]), 3),
    lambda f8, sm: f8.pow_vec(np.array([256]), -1),
    lambda f8, sm: f8.pow_vec(np.array([300], dtype=np.uint32), 0),
    lambda f8, sm: f8.pow_vec(np.array([300], dtype=np.uint32), 5),
    lambda f8, sm: f8.pow_vec(np.array([1 << 16]), 0),
    lambda f8, sm: f8.trace_vec(1, np.array([2.5])),
    lambda f8, sm: f8.trace_vec(4, np.array([256], dtype=np.uint32)),
    lambda f8, sm: sm.embed_vec(np.array([2.5]), np.array([1])),
    lambda f8, sm: sm.embed_vec(np.array([1]), np.array([16], dtype=np.uint32)),
    lambda f8, sm: sm.embed_vec(np.array([16], dtype=np.uint32), 1),
    lambda f8, sm: sm.split_vec(np.array([-1])),
    lambda f8, sm: sm.split_vec(np.array([256], dtype=np.uint32)),
], ids=["pow-float", "pow-negative", "pow-inverse", "pow0-uint32",
        "pow-uint32", "pow0-int", "trace-float", "trace-uint32", "embed-float",
        "embed-y-uint32", "embed-x-uint32", "split-negative", "split-uint32"])
def test_vec_methods_refuse_operands_outside_the_field(call):
    # every *_vec path: pow_vec's map, e = 0 and e < 0, the trace, and the
    # subfield map, each operand checked by its own field
    f8 = get_field(8)
    with pytest.raises(IndexError):
        call(f8, SubfieldMap(f8, get_field(4)))


def test_log_readers_keep_their_output():
    from apnlab.families import _as_exponent
    from apnlab.vbf import _format_coeff

    f = field_new(9)
    _, log = f._tables()
    assert log.dtype == np.int32
    for k in (0, 1, 2, 255, f.mult_order - 1):
        bits = f.primitive_power(k)
        assert _as_exponent(f, bits) == k == int(log[bits])
        assert _format_coeff(f, bits, "exp") == ("" if k == 0 else f"u^{k}")
    assert _as_exponent(f, 0) is None


def test_all_elements_vec_is_identity_ramp():
    f = get_field(7)
    assert np.array_equal(f.all_elements_vec(), np.arange(128, dtype=np.uint32))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m", [(4, 1), (6, 2), (6, 3), (8, 4), (9, 3)])
def test_trace_properties(n, m):
    f = get_field(n)
    qm = 1 << m
    for a in range(f.order):
        t = f.trace_to(m, a)
        # the image lies in the subfield fixed by x -> x^(2^m)
        assert f.pow(t, qm) == t
        # invariance under the subfield Frobenius of the argument
        assert f.trace_to(m, f.pow(a, qm)) == t
    # additivity on a sample
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = map(int, rng.integers(0, f.order, 2))
        assert f.trace_to(m, a ^ b) == f.trace_to(m, a) ^ f.trace_to(m, b)


def test_absolute_trace_is_balanced():
    f = get_field(8)
    ones = sum(f.trace_to(1, a) for a in range(256))
    assert ones == 128


def test_trace_to_rejects_non_divisor():
    f = get_field(6)
    with pytest.raises(PreconditionError):
        f.trace_to(4, 1)
    # on GF(2^8) a negative m divides n as Python computes n % m, and m = 0
    # would divide by zero: both trace paths refuse them as they refuse 3
    f8 = get_field(8)
    for m in (-1, -2, 0, 3, 9):
        with pytest.raises(PreconditionError, match="positive divisor of n"):
            f8.trace_to(m, 5)
        with pytest.raises(PreconditionError, match="positive divisor of n"):
            f8.trace_vec(m, np.array([5, 7]))


# ---------------------------------------------------------------------------
# multiplicative structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_primitive_element_count(n):
    f = get_field(n)
    prims = primitive_elements(f)
    assert len(prims) == _euler_phi(f.mult_order)
    for p in prims[:8]:
        seen = set()
        x = 1
        for _ in range(f.mult_order):
            seen.add(x)
            x = f.mul(x, p.bits)
        assert len(seen) == f.mult_order


def test_primitive_power_is_discrete_exp():
    f = get_field(6)
    x = 1
    for k in range(f.mult_order):
        assert f.primitive_power(k) == x
        x = f.mul(x, f.primitive)
    assert f.primitive_power(f.mult_order) == 1  # exponents wrap


@pytest.mark.parametrize("n", [4, 6, 8])
def test_cube_class_matches_brute(n):
    f = get_field(n)
    cubes = {f.pow(a, 3) for a in range(1, f.order)}
    for z in range(f.order):
        cls = cube_class(f, z)
        if z == 0:
            assert cls == "zero"
        elif n % 2 == 1:
            # cubing permutes odd-degree fields: everything is a cube
            assert cls == "cube"
        else:
            assert cls == ("cube" if z in cubes else "noncube")


# ---------------------------------------------------------------------------
# subfield maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (8, 4)])
def test_subfield_map_is_field_homomorphism(n, m):
    parent, comp = get_field(n), get_field(m)
    sm = SubfieldMap(parent, comp)
    qm = 1 << m
    # the pair (a, 0) is a
    emb = [int(v) for v in sm.embed_vec(np.arange(qm), 0)]
    assert emb[0] == 0 and emb[1] == 1
    assert len(set(emb)) == qm
    for a in range(qm):
        for b in range(qm):
            assert emb[a ^ b] == emb[a] ^ emb[b]
            assert emb[comp.mul(a, b)] == parent.mul(emb[a], emb[b])
    # the image is exactly the fixed field of x -> x^(2^m)
    fixed = {x for x in range(parent.order) if parent.pow(x, qm) == x}
    assert set(emb) == fixed


@pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (8, 4)])
def test_split_embed_inverse_pair(n, m):
    parent, comp = get_field(n), get_field(m)
    sm = SubfieldMap(parent, comp)
    # each element's pair, scalar by scalar through the vector paths, is the
    # pair of the definition
    for x in range(parent.order):
        hi, lo = (int(v) for v in sm.split_vec(x))
        assert (hi, lo) == split_pair(sm, x)
        assert int(sm.embed_vec(hi, lo)) == x
    k = min(comp.order, 8)
    pairs = [(a, b) for a in range(k) for b in range(k)]
    hi = np.array([p[0] for p in pairs], dtype=np.uint32)
    lo = np.array([p[1] for p in pairs], dtype=np.uint32)
    vec = sm.embed_vec(hi, lo)
    assert [int(v) for v in vec] == [embed_pair(sm, a, b) for a, b in pairs]
    sh, sl = sm.split_vec(vec)
    assert np.array_equal(sh, hi) and np.array_equal(sl, lo)


def test_subfield_embedding_table_matches_map():
    parent, comp = get_field(6), get_field(3)
    table = subfield_embedding(parent, comp)
    sm = SubfieldMap(parent, comp)
    assert [int(t) for t in table] == [embed_pair(sm, a, 0) for a in range(8)]


def test_subfield_map_requires_half_degree_component():
    with pytest.raises(PreconditionError):
        SubfieldMap(get_field(6), get_field(4))
    with pytest.raises(PreconditionError):
        SubfieldMap(get_field(6), get_field(2))


# ---------------------------------------------------------------------------
# element wrapper and coercion conventions
# ---------------------------------------------------------------------------

def test_coerce_int_means_raw_bits():
    f = get_field(5)
    assert f.coerce(11) == 11
    el = f.element(11)
    assert f.coerce(el) == 11
    assert f.coerce(np.uint32(11)) == f.element(np.int64(11)).bits == 11
    other = get_field(6)
    with pytest.raises(PreconditionError):
        f.coerce(other.element(1))
    with pytest.raises(PreconditionError):
        f.coerce(1 << 5)


@pytest.mark.parametrize("call", [
    lambda f: f.coerce(2.7),
    lambda f: f.coerce("3"),
    lambda f: f.element(2.7),
    lambda f: f.element(-1),
    lambda f: f.element(3) < 1 << 8,
], ids=["coerce-float", "coerce-str", "element-float", "element-negative",
        "lt-too-large"])
def test_scalar_operands_outside_the_field_are_refused(call):
    with pytest.raises(PreconditionError):
        call(get_field(8))


def test_element_operators_match_the_field_methods():
    # README's quickstart arithmetic, on a seeded sample of GF(2^8) pairs
    f = get_field(8)
    rng = np.random.default_rng(8)
    for a, b in rng.integers(0, f.order, (64, 2)).tolist():
        x, y = f.element(a), f.element(b)
        for got in (x + y, x - y, x + b, b + x):
            assert got == a ^ b and got.field is f
        for got in (x * y, x * b, b * x):
            assert got == f.mul(a, b) and got.field is f
        assert x ** 5 == f.pow(a, 5) and x ** 0 == 1
        if b:
            assert y ** -1 == f.inv(b) and x / y == x / b == f.mul(a, f.inv(b))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        assert (x < y) == (x < b) == (a < b)
        assert int(x) == a and bool(x) == (a != 0)
    assert f.element(0) ** 0 == 1
    other = get_field(4).element(3)
    for op in (lambda x: x + other, lambda x: x * other, lambda x: x / other,
               lambda x: x < other, lambda x: x + 2.9, lambda x: 2.9 * x,
               lambda x: x / 2.0, lambda x: x < 2.0):
        with pytest.raises(PreconditionError):
            op(f.element(5))


def test_element_wrapper_inverse_and_trace():
    f = get_field(5)
    el = f.element(9)
    assert el.inv().bits == f.inv(9)
    assert el.trace() == f.trace_to(1, 9)


def test_cross_field_default_moduli_and_orders():
    # math.gcd sanity for the sizes the package leans on
    assert math.gcd(3, 5) == 1
    for n in (6, 9, 12):
        f = get_field(n)
        assert f.order == 1 << n
        assert f.mult_order == (1 << n) - 1


def test_field_new_shares_one_instance_per_modulus():
    f = field_new(8)
    assert field_new(8) is f
    other = field_new(8, 0x11D)
    assert other is field_new(8, 0x11D)
    assert other != f and other.primitive == 2
