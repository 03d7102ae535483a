"""Packing, GF(2) ranks and the incremental elimination engine."""

from __future__ import annotations

import ast
import math
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apnlab import bitlinalg
from apnlab.bitlinalg import (
    GF2Basis,
    check_alloc,
    mem_budget_bytes,
    pack,
    rank,
    row_ranks,
    xor_permute_columns,
)
from apnlab.errors import MemoryBudgetError, PreconditionError

from conftest import naive_rank

GIB = 1 << 30
#: A 256-row basis of 8-word rows with its pivot arrays and index maps.
BASIS_256_BYTES = 256 * (64 + bitlinalg._ROW_INDEX_BYTES)
SRC = Path(__file__).resolve().parent.parent / "src" / "apnlab"


def random_dense(rng: np.random.Generator, rows: int, cols: int,
                 density: float) -> np.ndarray:
    return (rng.random((rows, cols)) < density).astype(np.uint8)


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

def test_dense_round_trip():
    # column j of a dense row lands at bit j & 63 of word j >> 6
    rng = np.random.default_rng(0)
    d = random_dense(rng, 13, 70, 0.4)
    data = pack(d)
    assert data.shape == (13, 2) and data.dtype == np.uint64
    for i in range(13):
        for j in range(70):
            assert (int(data[i, j >> 6]) >> (j & 63)) & 1 == d[i, j]
    assert not (data[:, 1] >> np.uint64(6)).any()  # padding bits stay clear
    with pytest.raises(PreconditionError, match="2-D"):
        pack(d[0])


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
        assert rank(d) == naive_rank(d)


def test_rank_transpose_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_dense(rng, int(rng.integers(1, 80)),
                         int(rng.integers(1, 80)), 0.35)
        assert rank(d) == rank(d.T)


@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_rank_row_operations_invariant(seed, rows, cols):
    rng = np.random.default_rng(seed)
    d = random_dense(rng, rows, cols, 0.4)
    base = naive_rank(d)
    assert rank(d) == base
    # xor a random row into another: rank unchanged
    if rows >= 2:
        i, j = rng.choice(rows, 2, replace=False)
        d2 = d.copy()
        d2[i] ^= d2[j]
        assert rank(d2) == base


def test_rank_duplicated_rows():
    rng = np.random.default_rng(6)
    d = random_dense(rng, 30, 50, 0.4)
    doubled = np.vstack([d, d])
    assert rank(doubled) == naive_rank(d)


def test_rank_wide_matrix_multiword():
    rng = np.random.default_rng(7)
    d = random_dense(rng, 60, 1000, 0.02)
    assert rank(d) == naive_rank(d)


def test_rank_matches_naive_across_row_slices():
    # at 8192 columns a table gather covers 512 rows: 2600 rows of rank 40
    # take several slices in the first absorb chunk and two in the second
    rng = np.random.default_rng(9)
    left = random_dense(rng, 2600, 40, 0.5)
    right = random_dense(rng, 40, 8192, 0.5)
    d = np.zeros((2600, 8192), dtype=np.uint8)
    for k in range(40):
        d[left[:, k] == 1] ^= right[k]
    assert rank(d) == naive_rank(d) == 40


def test_row_ranks_match_textbook_elimination():
    rng = np.random.default_rng(5)
    for n, dtype in ((1, np.uint32), (4, np.uint32), (9, np.uint32),
                     (14, np.uint32), (64, np.uint64)):
        vectors = rng.integers(0, 1 << n, (50, n), dtype=dtype)
        vectors[::3, 1:] = vectors[::3, :1]  # some rank-deficient rows
        got = row_ranks(vectors, n)
        for row, r in zip(vectors, got):
            dense = (row[:, None] >> np.arange(n, dtype=dtype)) & 1
            assert r == naive_rank(dense)


# ---------------------------------------------------------------------------
# incremental basis
# ---------------------------------------------------------------------------

def test_basis_incremental_absorb():
    rng = np.random.default_rng(8)
    d = random_dense(rng, 90, 130, 0.3)
    data = pack(d)
    assert mem_budget_bytes() > 0  # the default budget this basis grows under
    basis = GF2Basis(130)
    total = 0
    for start in range(0, 90, 13):
        total += basis.absorb(data[start:start + 13])
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
    data = pack(d)
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
        return pack(d)

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


def test_basis_respects_budget(monkeypatch):
    # 300 independent rows of 8 words outgrow the first 256-row allocation
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(1024 / GIB))
    basis = GF2Basis(512)
    with pytest.raises(MemoryBudgetError):
        basis.absorb(pack(np.eye(300, 512, dtype=np.uint8)))


def test_budget_counts_chunk_and_tables_before_reducing(monkeypatch):
    # 16 rows of 8 words: the 256-row basis (30 KiB with its pivot arrays
    # and index maps), the chunk copy, its gathered slice of table rows and
    # its pivot-bit temporaries fit; one 256-entry table (16 KiB) more does
    # not
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(
        (BASIS_256_BYTES + 16 * (2 * 64 + bitlinalg._PIVOT_BIT_BYTES)) / GIB))
    basis = GF2Basis(512)
    with pytest.raises(MemoryBudgetError, match="1 tables"):
        basis.absorb(pack(np.eye(16, 512, dtype=np.uint8)))
    assert basis.count == 0 and basis._tables == []


def test_basis_allocates_nothing_before_its_first_check(monkeypatch):
    # the first 256 rows of 2^28 columns (Gold n=14's Γ-rank) are 8 GiB
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "1")
    basis = GF2Basis(1 << 28)
    assert basis._rows.nbytes == 0 and basis.rows_view().shape == (0, 1 << 22)
    with pytest.raises(MemoryBudgetError, match="^1 copies of 1 rows"):
        basis.check_absorb(1, 1)


def test_check_absorb_counts_the_callers_copies(monkeypatch):
    # absorbing 16 rows of 8 words takes the 256-row basis, one chunk copy,
    # its gathered slice, its pivot-bit temporaries and one table, with
    # 1000 bytes the caller holds exactly the budget; two more copies of the
    # chunk, or one byte more held, do not fit beside them
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(
        (BASIS_256_BYTES + (16 + 16 + 256) * 64
         + 16 * bitlinalg._PIVOT_BIT_BYTES + 1000) / GIB))
    basis = GF2Basis(512)
    with pytest.raises(MemoryBudgetError, match="3 chunks and 1 tables"):
        basis.check_absorb(16, 2)
    with pytest.raises(MemoryBudgetError, match="1 chunks and 1 tables"):
        basis.check_absorb(16, 0, 1001)
    assert basis._rows.nbytes == 0
    basis.check_absorb(16, 0, 1000)
    assert basis.absorb(pack(np.eye(16, 512, dtype=np.uint8))) == 16
    # the per-row arrays are what _ROW_INDEX_BYTES counts
    per_row = (basis._piv_col, basis._piv_word, basis._piv_mask,
               basis._index_map)
    assert sum(a.nbytes for a in per_row) == BASIS_256_BYTES - basis._rows.nbytes


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """The calls of ``name`` (a plain or dotted name) inside ``tree``."""
    return [c for c in ast.walk(tree) if isinstance(c, ast.Call)
            and name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))]


def test_memory_budget_has_one_guard():
    # every budget refusal is made by check_alloc, and only bitlinalg reads
    # the budget; the other modules size their allocations and call it
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    guard = next(f for f in trees["bitlinalg"].body
                 if isinstance(f, ast.FunctionDef) and f.name == "check_alloc")
    made = [(mod, c.lineno) for mod, tree in trees.items()
            for c in _calls(tree, "MemoryBudgetError")]
    assert made == [("bitlinalg", c.lineno)
                    for c in _calls(guard, "MemoryBudgetError")]
    assert len(made) == 1
    assert {mod for mod, tree in trees.items()
            if _calls(tree, "mem_budget_bytes")} == {"bitlinalg"}
    assert {"analysis", "gf2n", "bitlinalg"} <= {
        mod for mod, tree in trees.items() if _calls(tree, "check_alloc")}


def test_check_alloc_names_what_it_refuses(monkeypatch):
    check_alloc(1024, "a table", budget=1024)  # up to the budget is allowed
    with pytest.raises(MemoryBudgetError,
                       match=r"^a table needs 1025 bytes, budget is 1024$"):
        check_alloc(1025, "a table", budget=1024)
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(1024 / GIB))
    with pytest.raises(MemoryBudgetError, match="budget is 1024$"):
        check_alloc(1025, "a table")


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_reduction_is_bit_identical(monkeypatch, workers):
    # 3 workers exceed a 2-CPU host and cut 16-row chunks unevenly (6, 5, 5)
    rng = np.random.default_rng(12)
    left = random_dense(rng, 150, 60, 0.5)
    d = (left.astype(np.int64) @ random_dense(rng, 60, 300, 0.5)) & 1
    d[[40, 90]] = 0
    data = pack(d)
    monkeypatch.setattr(bitlinalg, "_CHUNK_ROWS", 16)

    def absorbed():
        basis = GF2Basis(300)
        gave = np.zeros(150, dtype=bool)
        basis.absorb(data, out=gave)
        return basis, gave

    ref, ref_gave = absorbed()  # 16 rows never reach 256 per worker
    assert ref.rank == naive_rank(d) and len(ref._tables) == 1
    monkeypatch.setattr(bitlinalg, "_WORKERS", workers)
    monkeypatch.setattr(bitlinalg, "_MIN_PART_ROWS", 1)
    if workers == 1:
        def no_pool():
            raise AssertionError("one worker reduces inline")

        monkeypatch.setattr(bitlinalg, "_pool", no_pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        basis, gave = absorbed()
    finally:
        sys.setswitchinterval(interval)
    assert len(basis._tables) == workers
    assert np.array_equal(basis.rows_view(), ref.rows_view())
    assert basis.pivot_cols() == ref.pivot_cols()
    assert gave.tolist() == ref_gave.tolist()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_run_returns_ranges_in_order(monkeypatch, workers):
    monkeypatch.setattr(bitlinalg, "_WORKERS", workers)
    threads = set()

    def work(k, lo, hi):
        threads.add(threading.current_thread().name)
        time.sleep(0.01 * (workers - k))  # later ranges finish first
        return k, lo, hi

    if workers == 1:
        monkeypatch.setattr(bitlinalg, "_pool", None)  # one range: no thread
    cuts = {1: [(0, 0, 16)], 2: [(0, 0, 8), (1, 8, 16)],
            3: [(0, 0, 6), (1, 6, 11), (2, 11, 16)]}[workers]
    assert bitlinalg.split_run(work, 16, 4) == cuts
    assert bitlinalg.split_run(work, 7, 4) == [(0, 0, 7)]  # 7 // 4 = 1 range
    assert threading.current_thread().name in threads
    assert all(name == threading.current_thread().name
               or name.startswith("apnlab") for name in threads)


def test_split_run_waits_for_every_range_and_reraises(monkeypatch):
    monkeypatch.setattr(bitlinalg, "_WORKERS", 3)
    done = []

    def work(k, lo, hi):
        if k == 0:
            raise ValueError("range 0")
        time.sleep(0.02)
        done.append(k)
        if k == 2:
            raise KeyError("range 2")

    with pytest.raises(ValueError, match="range 0"):
        bitlinalg.split_run(work, 3, 1)
    assert sorted(done) == [1, 2]  # no range outlives the call
    done.clear()
    with pytest.raises(KeyError, match="range 2"):
        bitlinalg.split_run(lambda k, lo, hi: k and work(k, lo, hi), 3, 1)
    assert sorted(done) == [1, 2]


def test_import_leaves_the_thread_pool_unloaded():
    # the pool's module is imported by the first split only
    src = str(Path(bitlinalg.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import apnlab.cli; "
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


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
    data = pack(d)
    for mask in (1, 5, 63, 64, 129, 255):
        once = xor_permute_columns(data, mask, cols)
        twice = xor_permute_columns(once, mask, cols)
        assert np.array_equal(twice, data)
        # word moves come out C-ordered, with no second copy to get there
        assert once.flags.c_contiguous
        fortran = xor_permute_columns(np.asfortranarray(data), mask, cols)
        assert fortran.flags.c_contiguous and np.array_equal(fortran, once)
        # column j of the permuted matrix is column j ^ mask of the original
        moved = np.unpackbits(once.view(np.uint8), axis=1, bitorder="little")
        assert np.array_equal(moved, d[:, np.arange(cols) ^ mask])


def test_xor_permute_rejects_bad_shapes():
    data = np.zeros((2, 2), dtype=np.uint64)
    with pytest.raises(PreconditionError):
        xor_permute_columns(data, 1, 100)  # not a power of two
    with pytest.raises(PreconditionError):
        xor_permute_columns(data, 128, 128)  # mask out of range
