"""Packing, GF(2) ranks and the incremental elimination engine."""

from __future__ import annotations

import ast
import math
import subprocess
import sys
import threading
import time
import tracemalloc
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
    row_ranks,
    xor_permute_columns,
)
from apnlab.errors import MemoryBudgetError, PreconditionError

from conftest import basis_rank, naive_rank, pack, stored_rows

GIB = 1 << 30
#: One written basis row of 8 words with its pivot arrays and index map.
ROW_BYTES = 64 + bitlinalg._ROW_INDEX_BYTES
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
    assert basis_rank(eye) == 20
    assert basis_rank(np.zeros((5, 9), dtype=np.uint8)) == 0
    ones = np.ones((6, 6), dtype=np.uint8)
    assert basis_rank(ones) == 1


def test_rank_matches_naive_random():
    rng = np.random.default_rng(4)
    for _ in range(60):
        rows = int(rng.integers(1, 120))
        cols = int(rng.integers(1, 150))
        density = float(rng.uniform(0.02, 0.9))
        d = random_dense(rng, rows, cols, density)
        assert basis_rank(d) == naive_rank(d)


def test_rank_transpose_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_dense(rng, int(rng.integers(1, 80)),
                         int(rng.integers(1, 80)), 0.35)
        assert basis_rank(d) == basis_rank(d.T)


@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_rank_row_operations_invariant(seed, rows, cols):
    rng = np.random.default_rng(seed)
    d = random_dense(rng, rows, cols, 0.4)
    base = naive_rank(d)
    assert basis_rank(d) == base
    # xor a random row into another: rank unchanged
    if rows >= 2:
        i, j = rng.choice(rows, 2, replace=False)
        d2 = d.copy()
        d2[i] ^= d2[j]
        assert basis_rank(d2) == base


def test_rank_duplicated_rows():
    rng = np.random.default_rng(6)
    d = random_dense(rng, 30, 50, 0.4)
    doubled = np.vstack([d, d])
    assert basis_rank(doubled) == naive_rank(d)


def test_rank_wide_matrix_multiword():
    rng = np.random.default_rng(7)
    d = random_dense(rng, 60, 1000, 0.02)
    assert basis_rank(d) == naive_rank(d)


def test_rank_matches_naive_across_row_slices():
    # at 8192 columns a table gather covers 512 rows: 2600 rows of rank 40
    # take several slices in the first absorb chunk and two in the second
    rng = np.random.default_rng(9)
    left = random_dense(rng, 2600, 40, 0.5)
    right = random_dense(rng, 40, 8192, 0.5)
    d = np.zeros((2600, 8192), dtype=np.uint8)
    for k in range(40):
        d[left[:, k] == 1] ^= right[k]
    assert basis_rank(d) == naive_rank(d) == 40


def test_row_ranks_match_textbook_elimination():
    # n vectors a row, and more (n + 2) or fewer (n - 2) than bits; some rows
    # rank-deficient, some all zero, some with a zero first vector
    rng = np.random.default_rng(5)
    for n, dtype in ((1, np.uint32), (4, np.uint32), (9, np.uint32),
                     (14, np.uint32), (64, np.uint64)):
        for k in sorted({max(1, n - 2), n, n + 2}):
            vectors = rng.integers(0, 1 << n, (50, k), dtype=dtype)
            vectors[::3, 1:] = vectors[::3, :1]
            vectors[1::7] = 0
            vectors[2::5, 0] = 0
            before = vectors.copy()
            got = row_ranks(vectors)
            assert np.array_equal(vectors, before)  # the argument is kept
            assert (got[1::7] == 0).all()
            for row, r in zip(vectors, got):
                dense = (row[:, None] >> np.arange(n, dtype=dtype)) & 1
                assert r == naive_rank(dense), (n, k)


# ---------------------------------------------------------------------------
# incremental basis
# ---------------------------------------------------------------------------

def test_basis_incremental_absorb():
    rng = np.random.default_rng(8)
    d = random_dense(rng, 90, 130, 0.3)
    data = pack(d)
    assert mem_budget_bytes() > 0  # the default budget this basis works under
    basis = GF2Basis(130)
    total = 0
    for start in range(0, 90, 13):
        total += basis.absorb(data[start:start + 13])
    assert total == basis.rank == naive_rank(d)
    piv = basis._piv_col[: basis.count].tolist()
    assert len(set(piv)) == len(piv) == basis.rank


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
    before = stored_rows(basis).copy()
    for col in (5, 6, 7):
        assert basis.absorb(bits(col)) == 1
    assert np.array_equal(stored_rows(basis)[:5], before)
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
    monkeypatch.setattr(bitlinalg, "_meminfo_bytes", lambda keys: avail)
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
    available = ("MemAvailable",)
    assert bitlinalg._meminfo_bytes(available, str(path)) == want
    assert bitlinalg._meminfo_bytes(available, str(tmp_path / "absent")) == math.inf


def test_basis_respects_budget(monkeypatch):
    # 16-row chunks of 8 words: the first chunk's 16 rows with their gathered
    # slice, pivot-bit temporaries and one table fit exactly; the second
    # chunk's 16 rows more do not, and are refused before they are staged
    monkeypatch.setattr(bitlinalg, "_CHUNK_ROWS", 16)
    budget = 16 * (ROW_BYTES + 64 + bitlinalg._PIVOT_BIT_BYTES) + 256 * 64
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(budget / GIB))
    basis = GF2Basis(512)
    with pytest.raises(MemoryBudgetError, match="^absorbing 16 rows"):
        basis.absorb(pack(np.eye(32, 512, dtype=np.uint8)))
    assert basis.count == 16
    # the store holds every row the budget admits, and no more
    assert basis._rows.shape == (budget // ROW_BYTES, 8)


def test_budget_counts_chunk_and_tables_before_reducing(monkeypatch):
    # 16 rows of 8 words: the rows written (with their pivot arrays and
    # index maps), their gathered slice of table rows and their pivot-bit
    # temporaries fit; one 256-entry table (16 KiB) more does not, and
    # nothing is allocated
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(
        16 * (ROW_BYTES + 64 + bitlinalg._PIVOT_BIT_BYTES) / GIB))
    basis = GF2Basis(512)
    with pytest.raises(MemoryBudgetError, match="1 tables"):
        basis.absorb(pack(np.eye(16, 512, dtype=np.uint8)))
    assert basis.count == 0 and basis._tables == []
    assert basis._rows.nbytes == 0


def test_basis_allocates_nothing_before_its_first_check(monkeypatch):
    # one 256-entry table of 2^28-column rows (Gold n=14's Γ-rank) is 8 GiB
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "1")
    basis = GF2Basis(1 << 28)
    assert basis._rows.nbytes == 0 and stored_rows(basis).shape == (0, 1 << 22)
    with pytest.raises(MemoryBudgetError, match="^absorbing 1 rows"):
        basis.check_absorb(1, basis.words * 8)  # the caller's row held


def test_check_absorb_counts_the_callers_copies(monkeypatch):
    # absorbing 16 rows of 8 words takes those rows written, their gathered
    # slice, their pivot-bit temporaries and one table, with 1000 bytes the
    # caller holds exactly the budget; one byte more held does not fit
    budget = (16 * ROW_BYTES + (16 + 256) * 64
              + 16 * bitlinalg._PIVOT_BIT_BYTES + 1000)
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(budget / GIB))
    basis = GF2Basis(512)
    with pytest.raises(MemoryBudgetError,
                       match="^absorbing 16 rows .basis and 1 tables"):
        basis.check_absorb(16, 1001)
    assert basis._rows.nbytes == 0
    basis.check_absorb(16, 1000)
    assert basis.absorb(pack(np.eye(16, 512, dtype=np.uint8))) == 16
    # the per-row arrays are what _ROW_INDEX_BYTES counts: 24 B of pivot
    # arrays per row and 256 B of index map per whole block of 8
    cap = basis._rows.shape[0]
    assert cap == budget // ROW_BYTES
    per_row = (basis._piv_col, basis._piv_word, basis._piv_mask,
               basis._index_map)
    assert sum(a.nbytes for a in per_row) == 24 * cap + 256 * (cap // 8)
    assert 24 * cap + 256 * (cap // 8) <= cap * bitlinalg._ROW_INDEX_BYTES


def test_basis_budget_is_capped_by_ram_and_swap(monkeypatch):
    # a budget set above MemTotal + SwapTotal would reserve a store the OS
    # refuses; the basis takes the smaller of the two
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "12")
    fields = {}

    def meminfo(keys, path="/proc/meminfo"):
        fields["keys"] = keys
        return 3 << 30

    monkeypatch.setattr(bitlinalg, "_meminfo_bytes", meminfo)
    assert GF2Basis(64)._budget == 3 << 30
    assert fields["keys"] == ("MemTotal", "SwapTotal")
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "1")
    assert GF2Basis(64)._budget == 1 << 30


def test_meminfo_sums_ram_and_swap(tmp_path):
    path = tmp_path / "meminfo"
    path.write_text("MemTotal: 8000 kB\nMemAvailable: 7000 kB\n"
                    "SwapTotal: 2000 kB\n")
    keys = ("MemTotal", "SwapTotal")
    assert bitlinalg._meminfo_bytes(keys, str(path)) == 10000 << 10
    path.write_text("MemTotal: 8000 kB\n")
    assert bitlinalg._meminfo_bytes(keys, str(path)) == math.inf


def test_gf512_row_7_fits_its_budget_as_it_grows(monkeypatch):
    # Table 5 row 7 (z^255) has rank 130,816 in 32 KiB rows.  A 2048-row
    # chunk staged beside a basis of 65,000 and of 128,768 rows, with two
    # workers' tables and gathered slices, is 2.1 and 4.0 GiB; counting a
    # doubled store beside the one it is copied from asked 6.2 GiB at 65,000
    # rows.  The larger fits a budget of exactly its bytes, and one byte
    # less refuses it
    monkeypatch.setattr(bitlinalg, "_WORKERS", 2)
    row = 1 << 15
    need = ((128_768 + 2048) * (row + bitlinalg._ROW_INDEX_BYTES)
            + 2 * bitlinalg._SLICE_BYTES + 2048 * bitlinalg._PIVOT_BIT_BYTES
            + 2 * 256 * row)
    assert 4.0 * GIB < need < 4.1 * GIB
    basis = GF2Basis(1 << 18)
    tracemalloc.start()
    try:
        for budget in (need, need - 1):
            basis._budget = budget  # on any host, whatever its RAM and swap
            for count in (65_000, 128_768):
                # a basis of ``count`` rows, stood in for by a zero-stride view
                basis.count = count
                basis._rows = np.broadcast_to(
                    np.zeros(basis.words, np.uint64), (count, basis.words))
                if budget < need and count == 128_768:
                    with pytest.raises(MemoryBudgetError, match="2 tables"):
                        basis.check_absorb(2048, 0)
                else:
                    basis.check_absorb(2048, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # check_absorb reserves nothing


@pytest.mark.parametrize("chunk_rows", [2048, 16])
def test_absorb_stages_chunks_in_its_store(monkeypatch, chunk_rows):
    # 5,000 rows of 64 columns span several chunks, each staged and reduced
    # in the store after the stored rows; the caller's rows stay as given
    monkeypatch.setattr(bitlinalg, "_CHUNK_ROWS", chunk_rows)
    # rows of a rank-40 space, with new pivots at 10 rows spread to the end
    rng = np.random.default_rng(13)
    d = (random_dense(rng, 5000, 40, 0.5).astype(np.int64)
         @ random_dense(rng, 40, 64, 0.5)) & 1
    d[np.linspace(100, 4999, 10).astype(int)] = random_dense(rng, 10, 64, 0.5)
    d[[1, 2]] = 0
    data = pack(d)
    before = data.copy()
    basis = GF2Basis(64)
    gave = np.zeros(5000, dtype=bool)
    assert basis.absorb(data, out=gave) == basis.rank == naive_rank(d)
    assert data.tobytes() == before.tobytes()
    # row i gives a pivot exactly when it is outside the span of rows 0..i-1
    by_top, want = {}, []  # the span's rows, by their highest bit
    for value in data[:, 0].tolist():
        while value and value.bit_length() in by_top:
            value ^= by_top[value.bit_length()]
        want.append(value != 0)
        if value:
            by_top[value.bit_length()] = value
    assert gave.tolist() == want and sum(want) == basis.rank
    # one store, reserved at the first absorb and kept by every later one
    store = basis._rows
    assert store.shape == (64 + chunk_rows, 1)
    assert basis.absorb(data[:100]) == 0 and basis._rows is store


def _basis_of_40_rows(seed: int) -> GF2Basis:
    basis = GF2Basis(190)
    basis.absorb(pack(random_dense(np.random.default_rng(seed), 40, 190, 0.5)))
    assert basis.count == 40
    return basis


def test_stage_gathers_stored_rows_after_the_basis():
    basis = _basis_of_40_rows(14)
    stored = stored_rows(basis).copy()
    take = np.array([5, 0, 39, 3, 3, 17])
    staged = basis.stage(take, 0)
    assert np.array_equal(staged, stored[take])
    assert stored_rows(basis).tobytes() == stored.tobytes()
    # the staged rows are the store's rows after the basis, which absorb
    # reduces where they stand: every one lies in the span
    assert staged.base is basis._rows.base and staged.flags.writeable
    assert np.shares_memory(staged, basis._rows[40: 40 + take.size])
    gave = np.ones(take.size, dtype=bool)
    assert basis.absorb(staged, out=gave) == 0 and not gave.any()
    assert stored_rows(basis).tobytes() == stored.tobytes()


def test_stage_refuses_rows_outside_the_basis():
    # an index at or past ``count`` (or below 0) is refused, never clipped
    # to the last stored row, and nothing is gathered
    basis = _basis_of_40_rows(15)
    store = basis._rows.copy()
    for take in ([0, 40], [41], [-1, 2], [0] * (bitlinalg._CHUNK_ROWS + 1)):
        with pytest.raises(PreconditionError, match="stage takes"):
            basis.stage(np.array(take), 0)
        assert basis._rows.tobytes() == store.tobytes()


def test_stage_and_translate_allocate_no_chunk(monkeypatch):
    # a 2048-row chunk of 8 KiB rows is 16 MiB; gathering it into the staged
    # rows and translating it there holds one slice-sized scratch array.
    # The 256 stored rows are written directly: staging reads stored rows,
    # not the elimination that made them
    basis = GF2Basis(1 << 16)
    basis._reserve(256 + 2048)
    basis._rows[:256] = np.random.default_rng(16).integers(
        0, 1 << 63, (256, 1024), dtype=np.uint64)
    basis.count = 256
    take = np.random.default_rng(17).integers(0, 256, 2048)
    mask = (37 << 6) | 45  # a word move and three butterfly steps
    want = [np.unpackbits(stored_rows(basis)[i].view(np.uint8),
                          bitorder="little")[np.arange(1 << 16) ^ mask]
            for i in take[[0, -1]]]
    tracemalloc.start()
    try:
        staged = xor_permute_columns(basis.stage(take, 0), mask, 1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * bitlinalg._SLICE_BYTES
    for row, bits in zip(staged[[0, -1]], want):
        assert np.array_equal(
            np.unpackbits(row.view(np.uint8), bitorder="little"), bits)


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
    assert np.array_equal(stored_rows(basis), stored_rows(ref))
    assert np.array_equal(basis._piv_col[: basis.count],
                          ref._piv_col[: ref.count])
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

def test_xor_permute_columns_is_involution(monkeypatch):
    # slices of 3 rows: 10 rows take three whole slices and one partial
    monkeypatch.setattr(bitlinalg, "_SLICE_BYTES", 3 * 32)
    rng = np.random.default_rng(10)
    cols = 256
    d = random_dense(rng, 10, cols, 0.4)
    data = pack(d)
    for mask in (1, 5, 63, 64, 129, 255):
        once = data.copy()
        assert xor_permute_columns(once, mask, cols) is once  # in place
        twice = xor_permute_columns(once.copy(), mask, cols)
        assert np.array_equal(twice, data)
        # column j of the permuted matrix is column j ^ mask of the original
        moved = np.unpackbits(once.view(np.uint8), axis=1, bitorder="little")
        assert np.array_equal(moved, d[:, np.arange(cols) ^ mask])


def test_xor_permute_rejects_bad_shapes():
    data = np.zeros((2, 2), dtype=np.uint64)
    with pytest.raises(PreconditionError):
        xor_permute_columns(data, 1, 100)  # not a power of two
    with pytest.raises(PreconditionError):
        xor_permute_columns(data, 128, 128)  # mask out of range
    with pytest.raises(PreconditionError):
        xor_permute_columns(data, 1, 256)  # rows of 2 words, not 4
    with pytest.raises(PreconditionError):
        xor_permute_columns(data.astype(np.int64), 1, 128)
