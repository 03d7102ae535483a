"""Acceptance gate: one check per shipped guarantee, one verdict line each.

Every test prints ``CRITERION <k>: PASS/FAIL — <measurements>`` so the run
log doubles as a conformance report.  Long release-gating checks (marked
``extended``) are skipped unless ``APNLAB_EXTENDED=1``.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from apnlab.analysis import (
    brute_cubic_root_count,
    ddt,
    is_apn,
    is_apn_quadratic,
    sweep_cubic_classifier,
    sweep_key_lemmas,
    verify_adjoint_permutation_agreement,
    verify_resultant_identity,
    verify_subfield_scaled_permutations,
)
from apnlab.errors import PreconditionError
from apnlab.families import (
    TABLE_RANKS,
    make_edel_pott,
    make_new_bivariate,
    make_new_trinomial,
    representatives,
    search_trinomial_params,
)
from apnlab.gf2n import (
    field_new,
    poly_is_irreducible,
    primitive_elements,
    subfield_embedding,
)
from apnlab.invariants import gamma_rank
from apnlab.vbf import LinearizedPoly, UnivariatePoly, to_table

from conftest import (
    basis_rank,
    compose,
    get_field,
    naive_rank,
    random_affine_permutation,
    requires_extended,
    row_by_row_ddt,
)

# Published rank values the tables must reproduce exactly; the computed
# ranks below are the independent side of each check.
TABLE4_RANKS = TABLE_RANKS[4]
TABLE5_RANKS = TABLE_RANKS[5]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def subfield_unit_exponents(m: int) -> list[int]:
    """Primitive-power exponents of GF(2^m)* inside GF(2^(3m))."""
    step = ((1 << (3 * m)) - 1) // ((1 << m) - 1)
    return [step * j for j in range((1 << m) - 1)]


# ---------------------------------------------------------------------------
# criterion 1: the bivariate family is APN over its stated degrees
# ---------------------------------------------------------------------------

def test_criterion_01_bivariate_family_apn():
    budget_s = 120.0
    t0 = time.perf_counter()
    deltas = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for m in (2, 4, 5, 7):
            deltas[m] = ddt(make_new_bivariate(m).table).delta
    elapsed = time.perf_counter() - t0
    ok = all(d == 2 for d in deltas.values()) and elapsed <= budget_s
    report(1, ok,
           f"differential uniformity {deltas} over GF(2^(2m)), "
           f"m in (2,4,5,7), {elapsed:.1f}s (budget {budget_s:.0f}s)")


@requires_extended
@pytest.mark.extended
def test_criterion_01x_bivariate_m8():
    budget_s = 3600.0
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        delta = ddt(make_new_bivariate(8).table).delta
    elapsed = time.perf_counter() - t0
    ok = delta == 2 and elapsed <= budget_s
    report(1, ok, f"extended m=8: delta={delta} over GF(2^16), "
                  f"{elapsed:.1f}s (budget {budget_s:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 2: the trinomial family is APN for every admissible parameter
# ---------------------------------------------------------------------------

def test_criterion_02_trinomial_family_apn():
    budget_s = 600.0
    t0 = time.perf_counter()
    checked = 0
    failures = []
    for m in (2, 3):
        tuples = search_trinomial_params(m)
        assert tuples, f"no parameters found for m={m}"
        for s, mu in tuples:
            for v_exp in subfield_unit_exponents(m):
                inst = make_new_trinomial(m, s, mu, v_exp)
                checked += 1
                if ddt(inst.table).delta != 2:
                    failures.append((m, s, mu.bits, v_exp))
    # a sampled slice of the next degree up
    sampled = search_trinomial_params(4)[:6]
    assert len(sampled) >= 5
    for s, mu in sampled:
        inst = make_new_trinomial(4, s, mu, subfield_unit_exponents(4)[1])
        checked += 1
        if ddt(inst.table).delta != 2:
            failures.append((4, s, mu.bits, "sample"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= budget_s
    report(2, ok,
           f"{checked} members delta=2 (m=2,3 exhaustive x all subfield v; "
           f"6 sampled at m=4), failures={failures[:4]}, "
           f"{elapsed:.1f}s (budget {budget_s:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 3: the GF(2^8) rank table reproduces all published values
# ---------------------------------------------------------------------------

def test_criterion_03_rank_table_gf256(monkeypatch):
    budget_s = 7200.0
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "1")  # each row's basis
    t0 = time.perf_counter()
    rows = representatives(8)
    mismatches = []
    for k, (inst, want) in enumerate(zip(rows, TABLE4_RANKS), start=1):
        got = gamma_rank(inst.table, family=inst.label).gamma_rank
        if got != want:
            mismatches.append((k, got, want))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed <= budget_s
    report(3, ok,
           f"12/12 rows exact={not mismatches}, mismatches={mismatches}, "
           f"<=1GiB/row, {elapsed:.1f}s (budget {budget_s:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 4 (extended): the GF(2^9) gated rows reproduce published values
# ---------------------------------------------------------------------------

@requires_extended
@pytest.mark.extended
def test_criterion_04x_rank_table_gf512_gated_rows(monkeypatch):
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "12")  # each row's basis
    t0 = time.perf_counter()
    rows = representatives(9)
    got = {}
    for k in (1, 12):
        got[k] = gamma_rank(rows[k - 1].table).gamma_rank
    elapsed = time.perf_counter() - t0
    want = {1: TABLE5_RANKS[0], 12: TABLE5_RANKS[11]}
    ok = got == want
    report(4, ok, f"GF(2^9) rows 1,12: got={got} want={want}, "
                  f"<=12GiB, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 5: the factored resultant identity holds pointwise
# ---------------------------------------------------------------------------

def test_criterion_05_resultant_identity():
    budget_s = 10.0
    t0 = time.perf_counter()
    reports = {m: verify_resultant_identity(m) for m in (4, 5, 7, 8, 10)}
    elapsed = time.perf_counter() - t0
    ok = (all(r.all_ok for r in reports.values())
          and all(r.checked == (1 << m) ** 3 for m, r in reports.items())
          and elapsed <= budget_s)
    detail = {m: (r.identity_holds, r.b_coeff_zero_set_ok,
                  r.denominator_nonzero_ok) for m, r in reports.items()}
    report(5, ok,
           f"full sweeps m=4,5,7,8,10 (identity, zero-set, denominator)={detail}, "
           f"{elapsed:.2f}s (budget {budget_s:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 6: the five-part coefficient lemma holds at every point
# ---------------------------------------------------------------------------

def test_criterion_06_key_lemma_exhaustive():
    budget_s = 60.0
    t0 = time.perf_counter()
    tuples_checked = 0
    bad = []
    in_order = True
    for m in (2, 3):
        field = field_new(3 * m)
        params = [(s, mu, v_exp) for s, mu in search_trinomial_params(m)
                  for v_exp in subfield_unit_exponents(m)]
        sweeps = sweep_key_lemmas(m)
        in_order &= [(w.s, w.mu, w.v) for w in sweeps] == [
            (s, mu.bits, field.primitive_power(v_exp)) for s, mu, v_exp in params]
        for (s, mu, v_exp), sweep in zip(params, sweeps):
            tuples_checked += 1
            if not sweep.all_pass:
                bad.append((m, s, mu.bits, v_exp,
                            sweep.claim_failures[:2],
                            sweep.factorization_failures[:2]))
    elapsed = time.perf_counter() - t0
    ok = in_order and not bad and elapsed <= budget_s
    report(6, ok,
           f"{tuples_checked} parameter tuples in order={in_order}, five "
           f"claims plus printed factorizations at every nonzero point, "
           f"failures={bad[:2]}, "
           f"{elapsed:.1f}s (budget {budget_s:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 7: the cubic-root classifier is exact
# ---------------------------------------------------------------------------

def test_criterion_07_cubic_classifier_exact():
    budget_s = 10.0
    t0 = time.perf_counter()
    cases = 0
    wrong = []
    for m in (3, 4, 5, 6):
        count, mismatches = sweep_cubic_classifier(m)
        cases += count
        wrong.extend((m, *case) for case in mismatches)
    elapsed = time.perf_counter() - t0
    ok = not wrong and elapsed <= budget_s
    report(7, ok, f"{cases} nonzero (a,b) pairs over m=3..6, "
                  f"mismatches={wrong[:3]}, {elapsed:.1f}s "
                  f"(budget {budget_s:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 8: supporting lemmas (trinomial roots, scaled maps, adjoints)
# ---------------------------------------------------------------------------

def test_criterion_08_supporting_lemmas():
    checks = []
    # z^3 + z + 1 has no root outside multiples-of-3 degrees
    rootless = [m for m in (2, 4, 5, 7, 8, 10, 11)
                if brute_cubic_root_count(field_new(m), 1, 1) == 0]
    checks.append(("rootless", len(rootless) == 7))
    # every subfield multiple of a valid kernel map is still a permutation,
    # for every admissible (s, mu) through degree parameter 4
    swept = 0
    for m in (2, 3, 4):
        for s, mu in search_trinomial_params(m):
            assert verify_subfield_scaled_permutations(m, s, mu)
            swept += 1
    checks.append(("scaled-permutations-exhaustive", swept == 24 + 756 + 6720))
    # a linear map permutes exactly when its trace-adjoint does
    f9 = get_field(9)
    rng = np.random.default_rng(2024)
    agree = all(
        verify_adjoint_permutation_agreement(
            LinearizedPoly(f9, [int(c) for c in rng.integers(0, 512, 9)]))
        for _ in range(200))
    checks.append(("adjoint-agreement-200", agree))
    ok = all(flag for _, flag in checks)
    report(8, ok, f"{checks}, scaled sweeps={swept}")


# ---------------------------------------------------------------------------
# criterion 9: the rank invariant is invariant where it must be
# ---------------------------------------------------------------------------

def test_criterion_09_rank_invariance():
    budget_s = 60.0
    t0 = time.perf_counter()
    f = get_field(6)
    base = to_table(UnivariatePoly.monomial(f, 3))
    want = gamma_rank(base).gamma_rank
    rng = np.random.default_rng(99)
    ranks = []
    for _ in range(10):
        pre = random_affine_permutation(f, rng)
        post = random_affine_permutation(f, rng)
        ranks.append(gamma_rank(compose(post, compose(base, pre))).gamma_rank)
    # independence from the field representation: another irreducible modulus
    alt_mod = next(p for p in range(65, 128)
                   if p != f.modulus and poly_is_irreducible(p))
    alt_field = field_new(6, modulus=alt_mod)
    alt_rank = gamma_rank(
        to_table(UnivariatePoly.monomial(alt_field, 3))).gamma_rank
    elapsed = time.perf_counter() - t0
    ok = (want == 1102 and all(r == want for r in ranks)
          and alt_rank == want and elapsed <= budget_s)
    report(9, ok,
           f"10 affine conjugates of the cube map all rank {want}, "
           f"modulus {alt_mod:#x} gives {alt_rank}, "
           f"{elapsed:.1f}s (budget {budget_s:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 10 (extended): the plateaued construction hits the table value
# ---------------------------------------------------------------------------

@requires_extended
@pytest.mark.extended
def test_criterion_10x_plateaued_construction_rank():
    budget_s = 7200.0
    t0 = time.perf_counter()
    f8 = field_new(8)
    found = None
    tried = 0
    for u in primitive_elements(f8):
        tried += 1
        inst = make_edel_pott(f8, u=u)
        if is_apn(inst.table):
            found = (u.bits, gamma_rank(inst.table).gamma_rank)
            break
    elapsed = time.perf_counter() - t0
    want = TABLE4_RANKS[11]
    ok = found is not None and found[1] == want and elapsed <= budget_s
    report(10, ok, f"APN member found after {tried} primitives: "
                   f"(u, rank)={found}, want rank {want}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 11: the quadratic shortcut is trustworthy
# ---------------------------------------------------------------------------

def test_criterion_11_quadratic_shortcut_agreement():
    f = get_field(6)
    rng = np.random.default_rng(6)
    weight2 = [e for e in range(1, 63) if bin(e).count("1") <= 2]
    disagreements = []
    for i in range(20):
        k = int(rng.integers(2, 6))
        terms = [(int(rng.integers(1, 64)), int(e))
                 for e in rng.choice(weight2, k, replace=False)]
        t = to_table(UnivariatePoly(f, terms))
        if (row_by_row_ddt(t.lut)[0] == 2) != is_apn_quadratic(t):
            disagreements.append(("random", i))
    for k, inst in enumerate(representatives(8), 1):
        if k == 3:
            # z^57 has algebraic degree 4: the shortcut must refuse it
            try:
                is_apn_quadratic(inst.table)
            except PreconditionError as exc:
                if "algebraic degree <= 2" not in str(exc):
                    disagreements.append(("row", inst.label, str(exc)))
            else:
                disagreements.append(("row", inst.label, "no degree error"))
        elif ((row_by_row_ddt(inst.table.lut)[0] == 2)
              != is_apn_quadratic(inst.table)):
            disagreements.append(("row", inst.label))
    ok = not disagreements
    report(11, ok, f"20 random quadratics over GF(2^6), the 11 quadratic "
                   f"reference rows over GF(2^8) and the degree-4 row 3 "
                   f"refused; disagreements={disagreements}")


# ---------------------------------------------------------------------------
# criterion 12: packed elimination equals textbook elimination
# ---------------------------------------------------------------------------

def test_criterion_12_rank_against_naive():
    rng = np.random.default_rng(123)
    wrong = 0
    for i in range(1000):
        rows = int(rng.integers(1, 257))
        cols = int(rng.integers(1, 257))
        density = float(rng.uniform(0.02, 0.98))
        d = (rng.random((rows, cols)) < density).astype(np.uint8)
        if basis_rank(d) != naive_rank(d):
            wrong += 1
    ok = wrong == 0
    report(12, ok, f"1000 random matrices up to 256x256, "
                   f"mismatches={wrong}")
