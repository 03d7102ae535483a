"""Rank invariants of the translation-closed incidence structure."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from apnlab import bitlinalg, invariants
from apnlab.bitlinalg import check_alloc, xor_permute_columns
from apnlab.errors import MemoryBudgetError, PreconditionError
from apnlab.invariants import code_matrix, export_code, gamma_rank
from apnlab.vbf import FunctionTable, UnivariatePoly, to_table

from conftest import (
    basis_rank,
    get_field,
    naive_rank,
    parse_code_export,
    stored_rows,
    unskipped_closure,
)


def gold_table(n: int) -> FunctionTable:
    return to_table(UnivariatePoly.monomial(get_field(n), 3))


def dense_incidence(t: FunctionTable) -> np.ndarray:
    """The 2^(2n)-square 0/1 incidence matrix of the graph development of
    ``t``: row ``(a << n) | b`` marks the translated graph
    ``{(z ^ a, f(z) ^ b)}``, column index ``(x << n) | y``."""
    n = t.field.n
    zs = np.arange(1 << n)
    lut = np.asarray(t.lut, dtype=np.int64)
    m = np.zeros((1 << (2 * n), 1 << (2 * n)), dtype=np.uint8)
    for a in range(1 << n):
        for b in range(1 << n):
            m[(a << n) | b, ((zs ^ a) << n) | (lut ^ b)] = 1
    return m


# ---------------------------------------------------------------------------
# code matrix
# ---------------------------------------------------------------------------

def test_code_matrix_shape_and_rows():
    f = get_field(5)
    t = gold_table(5)
    d = code_matrix(t)
    assert d.shape == (11, 32) and d.dtype == np.uint8
    # constant row
    assert d[0].sum() == 32
    # column 0 is the zero element, column j (j >= 1) the j-th primitive power
    col_elems = np.array([0] + [f.primitive_power(j) for j in range(1, 32)],
                         dtype=np.uint32)
    lut = np.asarray(t.lut)
    for j in range(5):
        assert np.array_equal(d[1 + j], (col_elems >> j) & 1)
        assert np.array_equal(d[6 + j], (lut[col_elems] >> j) & 1)


def test_code_matrix_rank_equals_naive():
    for n in (3, 4, 5, 6):
        t = gold_table(n)
        assert basis_rank(code_matrix(t)) == naive_rank(code_matrix(t))


# ---------------------------------------------------------------------------
# incidence matrix
# ---------------------------------------------------------------------------

def test_incidence_matrix_definition_spot_checks():
    n = 3
    t = gold_table(n)
    m = dense_incidence(t)
    assert m.shape == (64, 64)
    lut = t.lut
    rng = np.random.default_rng(0)
    assert np.all(m.sum(axis=1) == 8)
    for _ in range(16):
        a, b = map(int, rng.integers(0, 8, 2))
        row = m[(a << n) | b]
        expect = np.zeros(64, dtype=np.uint8)
        for z in range(8):
            expect[((z ^ a) << n) | (int(lut[z]) ^ b)] = 1
        assert np.array_equal(row, expect)


def test_incidence_budget_guard(monkeypatch):
    # the basis of the incidence row space (rank 1102 rows of 512 B) must
    # not outgrow the budget
    table = gold_table(6)  # its field's tables are built before the budget is set
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(1024 / (1 << 30)))
    with pytest.raises(MemoryBudgetError):
        gamma_rank(table)


def _closure_peak(monkeypatch, table: FunctionTable) -> tuple[int, int, list]:
    """Run the closure on ``table`` under tracemalloc; return the rank, the
    traced peak less the basis's reserved rows never written, and every
    ``(nbytes, what)`` checked.  tracemalloc counts the whole reservation,
    but ``np.zeros`` commits only the pages that are written: the rows up
    to the highest ``count`` plus staged chunk."""
    checks, bases = [], []
    real_check = bitlinalg.check_alloc
    real_absorb = bitlinalg.GF2Basis.absorb

    def recording_check(nbytes, what, budget=None):
        checks.append((nbytes, what))
        real_check(nbytes, what, budget)

    def recording_absorb(self, rows, out=None):
        bases.append((self, self.count + len(rows)))
        return real_absorb(self, rows, out)

    monkeypatch.setattr(bitlinalg, "check_alloc", recording_check)
    monkeypatch.setattr(bitlinalg.GF2Basis, "absorb", recording_absorb)
    tracemalloc.start()
    try:
        rank = gamma_rank(table).gamma_rank
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    basis = bases[0][0]
    assert all(b is basis for b, _ in bases) and len(bases) > 1
    written = max(rows for _, rows in bases)
    cap = basis._rows.shape[0]
    reserved = sum(a.nbytes for a in (basis._rows, basis._piv_col,
                                      basis._piv_word, basis._piv_mask,
                                      basis._index_map))
    return rank, peak - reserved * (cap - written) // cap, checks


def test_closure_memory_stays_within_its_largest_check(monkeypatch):
    # at Gold n=6 (512 B rows) the peak holds the rows written with their
    # pivot arrays and index maps (56 B per row) and each worker's gathered
    # slice of table rows; the largest count must cover all of it
    table = gold_table(6)  # its field's tables are built before the trace
    rank, peak, checks = _closure_peak(monkeypatch, table)
    assert rank == 1102
    assert peak <= max(nbytes for nbytes, _ in checks)


def test_closure_refuses_a_chunk_before_translating_it(monkeypatch):
    # staging a chunk counts the basis with the chunk staged in it, its
    # tables and gathers and the closure's labels, more than absorb's own
    # check of that chunk.  A budget one byte under the largest count of
    # Gold n=6 must stop the closure at a chunk's staging, before any of its
    # rows is gathered or translated.
    table = gold_table(6)  # its field's tables are built before the budget is set
    _, _, checks = _closure_peak(monkeypatch, table)
    largest = max(nbytes for nbytes, _ in checks)
    events, stores = [], []

    class Recording(invariants.GF2Basis):
        def stage(self, take, held):
            events.append("stage")
            stores[:] = [self, self._rows.copy()]
            return super().stage(take, held)

    def recording_translate(data, mask, cols):
        events.append("translate")
        return xor_permute_columns(data, mask, cols)

    monkeypatch.setattr(invariants, "GF2Basis", Recording)
    monkeypatch.setattr(invariants, "xor_permute_columns", recording_translate)
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str((largest - 1) / (1 << 30)))
    with pytest.raises(MemoryBudgetError, match=f"^absorbing .* needs {largest} "):
        gamma_rank(table)
    assert events[-1] == "stage"
    assert events.count("translate") == events.count("stage") - 1 > 0
    basis, store = stores
    assert basis._rows.tobytes() == store.tobytes()  # nothing gathered


# ---------------------------------------------------------------------------
# rank invariant
# ---------------------------------------------------------------------------

def test_gamma_rank_frozen_values():
    assert gamma_rank(gold_table(3)).gamma_rank == 28
    assert gamma_rank(gold_table(4)).gamma_rank == 100
    assert gamma_rank(gold_table(6)).gamma_rank == 1102


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_translate_closure_equals_direct_elimination(n):
    # the oracle shares no code with the packed eliminator
    t = gold_table(n)
    assert gamma_rank(t).gamma_rank == naive_rank(dense_incidence(t))


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("e", [3, 7, 11])
def test_translate_closure_across_chunks_equals_direct_elimination(
        monkeypatch, n, e):
    # with 64-row chunks the later rounds span several chunks and end in a
    # partial block; at the default 2048 rows every round here fits in one
    monkeypatch.setattr(bitlinalg, "_CHUNK_ROWS", 64)
    chunk_rows = []

    def recording(data, mask, cols):
        chunk_rows.append(data.shape[0])
        return xor_permute_columns(data, mask, cols)

    monkeypatch.setattr(invariants, "xor_permute_columns", recording)
    t = to_table(UnivariatePoly.monomial(get_field(n), e))
    assert gamma_rank(t).gamma_rank == naive_rank(dense_incidence(t))
    assert max(chunk_rows) == 64 and len(chunk_rows) > 2 * n


def _traced_closure(monkeypatch, t: FunctionTable):
    """Run ``gamma_rank`` on ``t``; return its basis and, for each call of
    ``xor_permute_columns``, the mask, a copy of the rows it translated and
    the pivots they gave."""
    bases, calls = [], []

    class Recording(invariants.GF2Basis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            bases.append(self)

        def absorb(self, rows, out=None):
            got = super().absorb(rows, out)
            if calls:
                calls[-1][2] = got
            return got

    def recording(data, mask, cols):
        calls.append([mask, data.copy(), None])
        return xor_permute_columns(data, mask, cols)

    monkeypatch.setattr(invariants, "GF2Basis", Recording)
    monkeypatch.setattr(invariants, "xor_permute_columns", recording)
    rank_value = gamma_rank(t).gamma_rank
    (basis,) = bases
    assert basis.rank == rank_value
    return basis, calls


def _staircase_chunks(labels: list[int], pivots: list[int], chunk_rows: int):
    """The (mask, snapshot indices) of each chunk the skipping closure should
    translate, from the unskipped closure's labels: a round skips a row whose
    label contains the label of a row that reduced to zero in an earlier
    chunk of the same round.  Sets and subset tests; no code shared with the
    closure."""
    stored = set(labels)
    chunks = []
    size = 1
    for r, new in enumerate(pivots):
        zero: list[int] = []
        pos = 0
        while True:
            take = [i for i in range(pos, size)
                    if not any(labels[i] & a == a for a in zero)][:chunk_rows]
            if not take:
                break
            chunks.append((1 << r, take))
            zero += [labels[i] for i in take if labels[i] | 1 << r not in stored]
            pos = take[-1] + 1
        size += new
    return chunks


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("e", ["3", "7", "inverse"])
def test_translate_closure_skip_matches_unskipped_closure(monkeypatch, n, e):
    # A skipped row must be one that reduces to zero where it stands, so the
    # basis is the unskipped closure's, row for row, and every round adds
    # the same pivots; a lost pivot row that a later round recovers would
    # leave the final rank alone but not the rounds.  The rows translated
    # must be exactly those the staircase rule leaves, so dropping a row that
    # would have reduced to zero fails too.  With 64-row chunks the skip
    # fires at these sizes.
    monkeypatch.setattr(bitlinalg, "_CHUNK_ROWS", 64)
    exponent = (1 << n) - 2 if e == "inverse" else int(e)
    t = to_table(UnivariatePoly.monomial(get_field(n), exponent))
    ref_basis, labels, ref_pivots, ref_absorbed = unskipped_closure(t, 64)
    basis, calls = _traced_closure(monkeypatch, t)

    pivots = [sum(got for mask, _, got in calls if mask == 1 << r)
              for r in range(2 * n)]
    assert pivots == ref_pivots
    assert np.array_equal(stored_rows(basis), stored_rows(ref_basis))
    index = {row.tobytes(): i for i, row in enumerate(stored_rows(ref_basis))}
    chunks = [(mask, [index[row.tobytes()] for row in rows])
              for mask, rows, _ in calls]
    assert chunks == _staircase_chunks(labels, ref_pivots, 64)
    assert 1 + sum(len(take) for _, take in chunks) < ref_absorbed


@pytest.mark.parametrize("workers", [1, 3])
def test_translate_closure_skip_holds_with_rows_split(monkeypatch, workers):
    # every reduction split into up to 3 row ranges, one table each
    monkeypatch.setattr(bitlinalg, "_WORKERS", workers)
    monkeypatch.setattr(bitlinalg, "_MIN_PART_ROWS", 1)
    for n, e in ((5, "inverse"), (6, "7")):
        test_translate_closure_skip_matches_unskipped_closure(monkeypatch, n, e)


def test_gamma_rank_report_shape():
    rep = gamma_rank(gold_table(4), family="Gold")
    d = rep.to_json_dict()
    assert d["family"] == "Gold"
    assert d["n"] == 4
    assert d["matrix_dims"] == [256, 256]
    assert d["gamma_rank"] == 100
    assert d["method"] == "in-core"


def test_gamma_rank_of_linear_map_is_degenerate():
    # for f(z) = z the point set lies on a subgroup: rank collapses
    f = get_field(4)
    ident = FunctionTable(f, np.arange(16, dtype=np.uint32))
    r_id = gamma_rank(ident).gamma_rank
    r_apn = gamma_rank(gold_table(4)).gamma_rank
    assert r_id < r_apn


# ---------------------------------------------------------------------------
# code export
# ---------------------------------------------------------------------------

def test_export_plain_bits_round_trip():
    t = gold_table(5)
    text = "".join(export_code(t, format="plain-bits"))
    fld, mat = parse_code_export(text)
    assert fld.n == 5
    assert np.array_equal(mat, code_matrix(t))


def test_export_script_format():
    text = "".join(export_code(gold_table(4), format="script"))
    assert text.startswith("//")
    assert "VectorSpace" in text


def test_export_rejects_unknown_format():
    with pytest.raises(PreconditionError):
        export_code(gold_table(3), format="csv")


@pytest.mark.parametrize("fmt,row_text", [("plain-bits", 1), ("script", 2)])
def test_export_holds_the_matrix_and_two_rows_of_text(fmt, row_text):
    # the lines are made as they are read: besides the code matrix's counted
    # bytes, an export holds at most two rows of text (1 B per column in
    # plain-bits, a digit and a comma in script)
    n = 16
    t = gold_table(n)
    counted = (2 * n + 1 + invariants._CODE_BYTES_PER_COLUMN) << n
    tracemalloc.start()
    try:
        size = sum(len(line) for line in export_code(t, format=fmt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > (2 * n + 1) * row_text << n
    assert peak <= counted + 2 * (row_text << n)


def test_parse_code_export_rejects_bad_input():
    with pytest.raises(PreconditionError):
        parse_code_export("")
    t = gold_table(3)
    text = "".join(export_code(t))
    lines = text.splitlines()
    with pytest.raises(PreconditionError):
        parse_code_export("\n".join(lines[:-1]))
