"""Rank invariants of the translation-closed incidence structure."""

from __future__ import annotations

import numpy as np
import pytest

from apnlab import bitlinalg, invariants
from apnlab.bitlinalg import rank, xor_permute_columns
from apnlab.errors import MemoryBudgetError, PreconditionError
from apnlab.invariants import (
    code_matrix,
    code_matrix_rank,
    export_code,
    gamma_rank,
    parse_code_export,
)
from apnlab.vbf import FunctionTable, UnivariatePoly, to_table

from conftest import get_field, naive_rank


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
    m = code_matrix(t)
    assert (m.rows, m.cols) == (11, 32)
    d = m.to_dense01()
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
        m = code_matrix(t)
        assert code_matrix_rank(t) == rank(m.to_dense01())


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


def test_incidence_budget_guard():
    # the basis of the incidence row space (rank 1102 rows of 512 B) must
    # not outgrow the budget
    with pytest.raises(MemoryBudgetError):
        gamma_rank(gold_table(6), budget=1024)


# ---------------------------------------------------------------------------
# rank invariant
# ---------------------------------------------------------------------------

def test_gamma_rank_frozen_values():
    assert gamma_rank(gold_table(3)).gamma_rank == 28
    assert gamma_rank(gold_table(4)).gamma_rank == 100
    assert gamma_rank(gold_table(6)).gamma_rank == 1102


@pytest.mark.parametrize("n", [2, 3, 4, 5])
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
    text = export_code(t, format="plain-bits")
    fld, mat = parse_code_export(text)
    assert fld.n == 5
    assert mat == code_matrix(t)


def test_export_script_format():
    text = export_code(gold_table(4), format="script")
    assert text.startswith("//")
    assert "VectorSpace" in text


def test_export_rejects_unknown_format():
    with pytest.raises(PreconditionError):
        export_code(gold_table(3), format="csv")


def test_parse_code_export_rejects_bad_input():
    with pytest.raises(PreconditionError):
        parse_code_export("")
    t = gold_table(3)
    text = export_code(t)
    lines = text.splitlines()
    with pytest.raises(PreconditionError):
        parse_code_export("\n".join(lines[:-1]))
