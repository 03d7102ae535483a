"""Bit-packed GF(2) matrices and the incremental elimination engine."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apnlab import bitlinalg
from apnlab.bitlinalg import (
    BitMatrix,
    GF2Basis,
    mem_budget_bytes,
    rank,
    xor_permute_columns,
)
from apnlab.errors import MemoryBudgetError, PreconditionError

from conftest import naive_rank


def random_dense(rng: np.random.Generator, rows: int, cols: int,
                 density: float) -> np.ndarray:
    return (rng.random((rows, cols)) < density).astype(np.uint8)


# ---------------------------------------------------------------------------
# construction and round trips
# ---------------------------------------------------------------------------

def test_dense_round_trip():
    rng = np.random.default_rng(0)
    d = random_dense(rng, 13, 70, 0.4)
    m = BitMatrix.from_dense01(d)
    assert (m.rows, m.cols) == (13, 70)
    assert np.array_equal(m.to_dense01(), d)
    for i in range(13):
        for j in (0, 63, 64, 69):
            assert m.get(i, j) == int(d[i, j])


def test_set_get():
    m = BitMatrix(3, 130)
    m.set(2, 129, 1)
    m.set(0, 0, 1)
    assert m.get(2, 129) == 1 and m.get(0, 0) == 1 and m.get(1, 64) == 0
    m.set(2, 129, 0)
    assert m.get(2, 129) == 0


def test_row_weights_and_transpose():
    rng = np.random.default_rng(1)
    d = random_dense(rng, 9, 33, 0.5)
    m = BitMatrix.from_dense01(d)
    assert np.array_equal(m.row_weights(), d.sum(axis=1))
    t = m.transpose()
    assert np.array_equal(t.to_dense01(), d.T)


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def test_rank_known_values():
    eye = np.eye(20, dtype=np.uint8)
    assert rank(eye) == 20
    assert rank(np.zeros((5, 9), dtype=np.uint8)) == 0
    ones = np.ones((6, 6), dtype=np.uint8)
    assert rank(ones) == 1


def test_rank_matches_naive_random():
    rng = np.random.default_rng(4)
    for _ in range(60):
        rows = int(rng.integers(1, 120))
        cols = int(rng.integers(1, 150))
        density = float(rng.uniform(0.02, 0.9))
        d = random_dense(rng, rows, cols, density)
        assert rank(BitMatrix.from_dense01(d)) == naive_rank(d)


def test_rank_transpose_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_dense(rng, int(rng.integers(1, 80)),
                         int(rng.integers(1, 80)), 0.35)
        m = BitMatrix.from_dense01(d)
        assert rank(m) == rank(m.transpose())


@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_rank_row_operations_invariant(seed, rows, cols):
    rng = np.random.default_rng(seed)
    d = random_dense(rng, rows, cols, 0.4)
    base = naive_rank(d)
    assert rank(BitMatrix.from_dense01(d)) == base
    # xor a random row into another: rank unchanged
    if rows >= 2:
        i, j = rng.choice(rows, 2, replace=False)
        d2 = d.copy()
        d2[i] ^= d2[j]
        assert rank(BitMatrix.from_dense01(d2)) == base


def test_rank_duplicated_rows():
    rng = np.random.default_rng(6)
    d = random_dense(rng, 30, 50, 0.4)
    doubled = np.vstack([d, d])
    assert rank(BitMatrix.from_dense01(doubled)) == naive_rank(d)


def test_rank_wide_matrix_multiword():
    rng = np.random.default_rng(7)
    d = random_dense(rng, 60, 1000, 0.02)
    assert rank(BitMatrix.from_dense01(d)) == naive_rank(d)


def test_rank_matches_naive_across_row_slices():
    # at 8192 columns a table gather covers 512 rows: 2600 rows of rank 40
    # take several slices in the first absorb chunk and two in the second
    rng = np.random.default_rng(9)
    left = random_dense(rng, 2600, 40, 0.5)
    right = random_dense(rng, 40, 8192, 0.5)
    d = np.zeros((2600, 8192), dtype=np.uint8)
    for k in range(40):
        d[left[:, k] == 1] ^= right[k]
    assert rank(BitMatrix.from_dense01(d)) == naive_rank(d) == 40


# ---------------------------------------------------------------------------
# incremental basis
# ---------------------------------------------------------------------------

def test_basis_incremental_absorb():
    rng = np.random.default_rng(8)
    d = random_dense(rng, 90, 130, 0.3)
    m = BitMatrix.from_dense01(d)
    assert mem_budget_bytes() > 0  # the default budget this basis grows under
    basis = GF2Basis(130)
    total = 0
    for start in range(0, 90, 13):
        total += basis.absorb(m.data[start:start + 13])
    assert total == basis.rank == naive_rank(d)
    piv = basis.pivot_cols()
    assert len(piv) == basis.rank
    assert len(set(piv)) == len(piv)


def test_basis_absorb_reports_which_rows_gave_pivots(monkeypatch):
    monkeypatch.setattr(bitlinalg, "_CHUNK_ROWS", 16)  # flags span 3 chunks
    rng = np.random.default_rng(9)
    d = random_dense(rng, 40, 70, 0.3)
    d[[7, 20]] = d[[3, 5]]  # repeats give no pivot
    d[30] = 0
    data = BitMatrix.from_dense01(d).data
    basis = GF2Basis(70)
    gave = np.zeros(40, dtype=bool)
    assert basis.absorb(data, out=gave) == gave.sum() == basis.rank
    # row i gives a pivot exactly when it raises the rank of rows 0..i
    want = [naive_rank(d[: i + 1]) > naive_rank(d[:i]) if i else d[0].any()
            for i in range(40)]
    assert gave.tolist() == [bool(w) for w in want]
    assert not gave[[7, 20, 30]].any()
    with pytest.raises(PreconditionError, match="one flag per row"):
        basis.absorb(data, out=np.zeros(39, dtype=bool))


def test_basis_never_rewrites_stored_rows():
    # row 0 has the pivot column of row 5 set; completing the block must
    # leave it as stored, and the block's index map must still clear a
    # combination whose pivot bits differ from its table index
    def bits(*cols):
        d = np.zeros((1, 64), dtype=np.uint8)
        d[0, list(cols)] = 1
        return BitMatrix.from_dense01(d).data

    basis = GF2Basis(64)
    for row in ([0, 5], [1], [2], [3], [4]):
        assert basis.absorb(bits(*row)) == 1
    before = basis.rows_view().copy()
    for col in (5, 6, 7):
        assert basis.absorb(bits(col)) == 1
    assert np.array_equal(basis.rows_view()[:5], before)
    assert basis.absorb(bits(0, 6)) == 0  # rows 0, 5 and 6
    assert basis.rank == 8


@pytest.mark.parametrize("text,want", [("12", 12 << 30), ("0", 0),
                                       ("0.5", 1 << 29)])
def test_mem_budget_reads_the_environment(monkeypatch, text, want):
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", text)
    assert mem_budget_bytes() == want


@pytest.mark.parametrize("text", ["abc", "", "nan", "inf", "-inf", "-0.5"])
def test_mem_budget_rejects_malformed_values(monkeypatch, text):
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", text)
    with pytest.raises(PreconditionError, match="APNLAB_MEM_BUDGET_GIB"):
        mem_budget_bytes()


@pytest.mark.parametrize("avail,want", [(math.inf, 12 << 30), (5 << 30, 4 << 30),
                                         (100 << 30, 12 << 30)])
def test_default_mem_budget_is_capped_by_available_memory(monkeypatch, avail,
                                                          want):
    monkeypatch.delenv("APNLAB_MEM_BUDGET_GIB", raising=False)
    monkeypatch.setattr(bitlinalg, "_mem_available_bytes", lambda: avail)
    assert mem_budget_bytes() == want
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "12")
    assert mem_budget_bytes() == 12 << 30  # a set budget is taken as given


@pytest.mark.parametrize("text,want", [
    ("MemTotal:  8000000 kB\nMemAvailable:    7000 kB\n", 7000 << 10),
    ("MemTotal:  8000000 kB\n", math.inf),
    ("MemAvailable: many kB\n", math.inf),
    ("MemAvailable:\n", math.inf),
    ("no colon\n", math.inf),
])
def test_mem_available_reads_meminfo(tmp_path, text, want):
    path = tmp_path / "meminfo"
    path.write_text(text)
    assert bitlinalg._mem_available_bytes(str(path)) == want
    assert bitlinalg._mem_available_bytes(str(tmp_path / "absent")) == math.inf


def test_basis_respects_budget():
    # 300 independent rows of 8 words outgrow the first 256-row allocation
    basis = GF2Basis(512, budget=1024)
    with pytest.raises(MemoryBudgetError):
        basis.absorb(BitMatrix.from_dense01(np.eye(300, 512, dtype=np.uint8)).data)


def test_basis_rejects_width_mismatch():
    basis = GF2Basis(64)
    with pytest.raises(PreconditionError):
        basis.absorb(np.zeros((1, 3), dtype=np.uint64))


# ---------------------------------------------------------------------------
# column translation
# ---------------------------------------------------------------------------

def test_xor_permute_columns_is_involution():
    rng = np.random.default_rng(10)
    cols = 256
    d = random_dense(rng, 10, cols, 0.4)
    m = BitMatrix.from_dense01(d)
    for mask in (1, 5, 63, 64, 129, 255):
        once = xor_permute_columns(m.data, mask, cols)
        twice = xor_permute_columns(once, mask, cols)
        assert np.array_equal(twice, m.data)
        # word moves come out C-ordered, with no second copy to get there
        assert once.flags.c_contiguous
        fortran = xor_permute_columns(np.asfortranarray(m.data), mask, cols)
        assert fortran.flags.c_contiguous and np.array_equal(fortran, once)
        # column j of the permuted matrix is column j ^ mask of the original
        moved = BitMatrix(10, cols, once).to_dense01()
        assert np.array_equal(moved, d[:, np.arange(cols) ^ mask])


def test_xor_permute_rejects_bad_shapes():
    data = np.zeros((2, 2), dtype=np.uint64)
    with pytest.raises(PreconditionError):
        xor_permute_columns(data, 1, 100)  # not a power of two
    with pytest.raises(PreconditionError):
        xor_permute_columns(data, 128, 128)  # mask out of range
