"""Command-line front end: schemas, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from apnlab import analysis, bitlinalg, cli, gf2n
from apnlab.analysis import sweep_key_lemmas
from apnlab.cli import main
from apnlab.families import (
    TABLE_RANKS,
    build_from_descriptor,
    representatives,
    search_trinomial_params,
)
from apnlab.gf2n import field_new
from apnlab.invariants import GammaRankReport

from conftest import parse_code_export, write_lut


def run(capsys, *argv) -> tuple[int, dict, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else {}
    return code, payload, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_reports_apn(capsys):
    code, out, err = run(capsys, "check", "--family", '{tag:"Gold", n:6, i:1}')
    assert code == 0
    assert out["schema"] == "apnlab/check/v2"
    assert out["apn"] is True and out["delta"] == 2
    assert "method" not in out
    assert "elapsed_seconds=" in err


def test_check_answers_a_quadratic_past_the_ddt(capsys):
    # n = 17 is beyond the DDT's n <= 16; the derivative-rank test answers
    code, out, _ = run(capsys, "check", "--family", '{tag:"Gold", n:17, i:1}')
    assert code == 0
    assert out["apn"] is True and out["delta"] == 2


def test_check_answers_higher_degree_through_the_ddt(capsys, monkeypatch):
    # Welch on GF(2^7) is z^11, of algebraic degree 3
    def refuse(_):
        raise AssertionError("is_apn_quadratic called on degree 3")

    monkeypatch.setattr(analysis, "is_apn_quadratic", refuse)
    code, out, _ = run(capsys, "check", "--family", '{tag:"Welch", n:7}')
    assert code == 0
    assert out["apn"] is True and out["delta"] == 2


def test_check_has_no_method_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--family", '{tag:"Gold", n:7, i:2}',
              "--quadratic-shortcut"])
    assert exc.value.code == 2
    assert "--quadratic-shortcut" in capsys.readouterr().err


@pytest.mark.parametrize("descriptor, delta", [
    # the README's four descriptors, then a cubic and a non-APN quadratic
    ('{tag:"Gold", n:8, i:3}', 2),
    ('{tag:"Inverse", n:5}', 2),
    ('{tag:"NewBivariate", m:4}', 2),
    ('{tag:"Kasami", n:7, i:2}', 2),
    ('{tag:"Welch", n:7}', 2),
    ('{tag:"EdelPottP", u:26}', 8),
])
def test_check_agrees_with_the_ddt_command(capsys, descriptor, delta):
    code, checked, _ = run(capsys, "check", "--family", descriptor)
    assert code == 0
    code, summary, _ = run(capsys, "ddt", "--family", descriptor)
    assert code == 0
    assert summary["delta"] == checked["delta"] == delta
    assert checked["apn"] is (delta == 2)


def test_check_precondition_failure_exits_2(capsys):
    code, out, err = run(capsys, "check", "--family", '{tag:"Gold", n:8, i:2}')
    assert code == 2
    assert out["schema"] == "apnlab/error/v1"
    assert out["status"] == "precondition-failed"
    assert "gcd(i,n)=1" in out["error"]
    assert "gcd(i,n)=1" in err


def test_check_edel_pott_outside_gf256_exits_2(capsys):
    code, out, err = run(capsys, "check", "--family", '{tag:"EdelPottP", n:9}')
    assert code == 2
    assert out["status"] == "precondition-failed"
    assert "n = 8" in out["error"] and "n = 8" in err


@pytest.mark.parametrize("descriptor, name", [
    ('{tag:"Gold", n:8, i:1.7}', "i"),
    ('{tag:"F4", n:8, a:1.5}', "a"),
    ('{tag:"Gold", n:8, i:"a"}', "i"),
    ('{tag:"Gold", n:8, i:null}', "i"),
    ('{tag:"F4", n:8, a:[1]}', "a"),
    ('{tag:"Gold", n:8.5, i:1}', "n"),
])
def test_check_rejects_non_integer_parameters(capsys, descriptor, name):
    code, out, _ = run(capsys, "check", "--family", descriptor)
    assert code == 2
    assert out["schema"] == "apnlab/error/v1"
    assert f"parameter {name} must be an integer" in out["error"]


@pytest.mark.parametrize("descriptor, name", [
    ('{tag:"Gold", n:8, i:-1}', "i"),
    ('{tag:"Kasami", n:7, i:-2}', "i"),
    ('{tag:"F1", n:12, k:4, s:-1}', "s"),
    ('{tag:"F2", n:12, k:-3, s:1}', "k"),
    ('{tag:"F3", n:6, i:-1, s:1, c:1}', "i"),
    ('{tag:"F7", n:12, s:-1, v:0, w:0}', "s"),
    ('{tag:"F11", n:10, i:-1}', "i"),
    ('{tag:"F13", m:4, k:1, i:-1, alpha:1}', "i"),
    ('{tag:"F13", m:4, k:-1, i:0, alpha:1}', "k"),
    ('{tag:"F14", m:3, k:-1, a:1, b:1}', "k"),
    ('{tag:"F15", m:4, i:-1, b:1, c:1}', "i"),
    ('{tag:"F16", m:4, i:-1}', "i"),
    ('{tag:"NewTrinomial", m:3, s:-1, mu:1, v:0}', "s"),
])
def test_check_rejects_negative_shift_parameters(capsys, descriptor, name):
    code, out, _ = run(capsys, "check", "--family", descriptor)
    assert code == 2
    assert out["schema"] == "apnlab/error/v1"
    assert f"parameter {name} must be >= 0" in out["error"]


def test_check_descriptor_from_file(tmp_path, capsys):
    p = tmp_path / "desc.json"
    p.write_text('{tag:"Welch", n:5}')
    code, out, _ = run(capsys, "check", "--family", f"@{p}")
    assert code == 0 and out["apn"] is True


def test_check_unreadable_descriptor_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, _ = run(capsys, "check", "--family", f"@{missing}")
    assert code == 2
    assert out["status"] == "precondition-failed"
    assert str(missing) in out["error"]


# ---------------------------------------------------------------------------
# ddt
# ---------------------------------------------------------------------------

def test_ddt_family(capsys):
    code, out, _ = run(capsys, "ddt", "--family", '{tag:"Inverse", n:5}')
    assert code == 0
    assert out["schema"] == "apnlab/ddt/v1"
    assert out["delta"] == 2
    assert sum(int(k) * v for k, v in out["histogram"].items()) == 31 * 32


def test_ddt_answers_a_quadratic_past_the_tally(capsys):
    # NewBivariate m=10 lives on GF(2^20), past the tally's n <= 16; its
    # derivative ranks give the spectrum
    code, out, _ = run(capsys, "ddt", "--family", '{tag:"NewBivariate", m:10}')
    assert code == 0
    half_cells = ((1 << 20) - 1) << 19
    assert out["delta"] == 2 and out["histogram"] == {"0": half_cells,
                                                       "2": half_cells}


def test_ddt_lut_file(tmp_path, capsys):
    inst = build_from_descriptor('{tag:"Gold", n:5, i:1}')
    p = tmp_path / "gold5.lut"
    with open(p, "w") as fh:
        write_lut(inst.table, fh)
    code, out, _ = run(capsys, "ddt", "--lut", str(p))
    assert code == 0 and out["delta"] == 2
    assert out["n"] == 5


def test_ddt_lut_file_with_non_hex_entry_exits_2(tmp_path, capsys):
    buf = io.StringIO()
    write_lut(build_from_descriptor('{tag:"Gold", n:5, i:1}').table, buf)
    lines = buf.getvalue().splitlines()
    lines[3] = "zz"
    p = tmp_path / "bad.lut"
    p.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "ddt", "--lut", str(p))
    assert code == 2
    assert out["status"] == "precondition-failed"
    assert "LUT line 4: 'zz'" in out["error"]


# ---------------------------------------------------------------------------
# gamma-rank and table
# ---------------------------------------------------------------------------

def test_gamma_rank_command(capsys):
    code, out, _ = run(capsys, "gamma-rank", "--family",
                       '{tag:"Gold", n:6, i:1}')
    assert code == 0
    assert out["schema"] == "apnlab/gamma-rank/v1"
    assert out["gamma_rank"] == 1102
    assert out["matrix_dims"] == [4096, 4096]


def test_gamma_rank_prints_elapsed_seconds_once(capsys):
    code, _, err = run(capsys, "gamma-rank", "--family",
                       '{tag:"Gold", n:4, i:1}')
    assert code == 0
    assert err.count("elapsed_seconds=") == 1


def test_gamma_rank_memory_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "0.0001")
    code, out, _ = run(capsys, "gamma-rank", "--family",
                       '{tag:"Gold", n:6, i:1}')
    assert code == 3
    assert out["status"] == "resource-limit"


@pytest.mark.parametrize("n", [14, 16])
def test_gamma_rank_past_the_budget_exits_3_before_allocating(capsys,
                                                              monkeypatch, n):
    # the first 256 basis rows of 2^(2n) columns are 8 GiB at n=14, 128 GiB
    # at n=16; the refusal must come before the basis or the indicator row
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "1")
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "gamma-rank", "--family",
                           f'{{tag:"Gold", n:{n}, i:1}}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out["status"] == "resource-limit"
    assert "absorbing 1 rows" in out["error"]
    assert peak < 16 << 20


@pytest.mark.parametrize("message", ["Unable to allocate 3.00 MiB", ""])
def test_gamma_rank_store_refused_by_the_os_exits_3(capsys, monkeypatch,
                                                     message):
    # the budget admits the basis, but the OS refuses its row store
    reserve = bitlinalg.GF2Basis._reserve
    reserved = []

    def refused(self, cap):
        if cap:
            reserved.append(cap)
            raise MemoryError(message)
        reserve(self, cap)

    monkeypatch.setattr(bitlinalg.GF2Basis, "_reserve", refused)
    code, out, err = run(capsys, "gamma-rank", "--family",
                         '{tag:"Gold", n:6, i:1}')
    assert reserved == [(1 << 12) + bitlinalg._CHUNK_ROWS]
    assert code == 3 and out == {"schema": "apnlab/error/v1",
                                 "status": "resource-limit",
                                 "error": message or "MemoryError"}
    assert "Traceback" not in err and err.startswith("resource limit: ")


def test_field_tables_are_sized_before_they_are_built(capsys, monkeypatch):
    # the GF(2^24) log/exp tables need 24 B per element, 384 MiB, above
    # 0.1 GiB; the build must not start
    field = field_new(24)
    monkeypatch.setattr(field, "_exp", None)
    monkeypatch.setattr(field, "_log", None)

    def no_build(*args):
        raise AssertionError("built tables over the budget")

    monkeypatch.setattr(type(field), "_mul_raw_vec", no_build)
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "0.1")
    code, out, _ = run(capsys, "search", "--trinomial", "--m", "8")
    assert code == 3
    assert out["status"] == "resource-limit"
    assert "GF(2^24)" in out["error"]


def test_gamma_rank_rejects_malformed_memory_budget(capsys, monkeypatch):
    for bad in ("abc", "nan", "inf", "-1"):
        monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", bad)
        code, out, err = run(capsys, "gamma-rank", "--family",
                             '{tag:"Gold", n:4, i:1}')
        assert code == 2, bad
        assert out["status"] == "precondition-failed"
        assert "APNLAB_MEM_BUDGET_GIB" in out["error"] and repr(bad) in err


def fake_gamma_rank(monkeypatch, offset: int) -> list:
    """Stand in for the CLI's ``gamma_rank``: each Table 4 and Table 5 row
    ranks as its published value plus ``offset``, any other function as
    ``offset``.  Returns the list of recorded ``(table, family)`` calls."""
    published = {r.table: rank for which, n in ((4, 8), (5, 9))
                 for r, rank in zip(representatives(n), TABLE_RANKS[which])}
    calls = []

    def fake(table, family="", **_):
        calls.append((table, family))
        rank = published.get(table, 0) + offset
        side = 1 << (2 * table.field.n)
        return GammaRankReport(family, table.field.n, rank, (side, side), 0.0)

    monkeypatch.setattr(cli, "gamma_rank", fake)
    return calls


def test_table_single_row(capsys, monkeypatch):
    calls = fake_gamma_rank(monkeypatch, offset=0)
    code, out, _ = run(capsys, "table", "--paper-table", "4", "--rows", "1")
    assert code == 0
    assert calls == [(representatives(8)[0].table, "z^3")]
    assert out == {
        "schema": "apnlab/table/v1",
        "paper_table": 4,
        "n": 8,
        "modulus": field_new(8).modulus,
        "rows": [{"row": 1, "function": "z^3", "gamma_rank": 11818,
                  "paper_value": 11818, "match": True}],
        "all_match": True,
    }


@pytest.mark.parametrize("which,digest", [
    ("4", "c4d233d4fbcaa3f5cb2f73a8f06df10370ea9de82b02612b4949eedd80bfec67"),
    ("5", "f68f1a003db0c2e53bf227dd3c44fd6c53c36ed8b50495e7d1a00cdf36572f28"),
])
def test_table_stdout_is_pinned(capsys, monkeypatch, which, digest):
    # every row's label and the payload format, with the published ranks
    fake_gamma_rank(monkeypatch, offset=0)
    code = main(["table", "--paper-table", which])
    text = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert json.loads(text)["all_match"] is True


@pytest.mark.parametrize("fmt,digest", [
    ("plain-bits", "9c78941dbc3afd77c3efed0d4743827527b87433b72c36588bc251e49eb4fd44"),
    ("script", "4ea321e680df5325bde3bf5fa1be0d601846b6dbdd8daedeecedf8e45ed7b250"),
])
def test_export_code_file_is_pinned(tmp_path, capsys, fmt, digest):
    # every byte of the file an external tool reads, in both formats
    out_path = tmp_path / "code"
    code, out, _ = run(capsys, "export-code", "--family",
                       '{tag:"Gold", n:5, i:1}', "--format", fmt,
                       "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_table_reports_mismatch_and_ranks_nothing_else(capsys, monkeypatch):
    # row 4 carries printed u-power coefficients; a wrong rank there is
    # reported as it is, not replaced by another primitive's rank
    calls = fake_gamma_rank(monkeypatch, offset=1)
    code, out, _ = run(capsys, "table", "--paper-table", "4", "--rows", "4")
    assert code == 0
    assert len(calls) == 1
    assert calls[0][0] == representatives(8)[3].table
    (row,) = out["rows"]
    assert row["gamma_rank"] == TABLE_RANKS[4][3] + 1
    assert row["match"] is False and out["all_match"] is False
    assert "swept_primitive" not in row


def test_table_rejects_bad_rows(capsys):
    for spec, named in (("0,13", ": 0"), ("x", "'x'"), ("1,,x", "'x'")):
        code, out, _ = run(capsys, "table", "--paper-table", "4",
                           "--rows", spec)
        assert code == 2, spec
        assert out["status"] == "precondition-failed"
        assert out["error"].endswith(named)


def test_table_rejects_repeated_rows(capsys):
    code, out, err = run(capsys, "table", "--paper-table", "4",
                         "--rows", "1,1")
    assert code == 2
    assert out["error"] == "row 1 selected twice"
    assert "gamma_rank" not in err  # refused before ranking anything


# ---------------------------------------------------------------------------
# search and verify
# ---------------------------------------------------------------------------

def test_search_trinomial(capsys):
    code, out, _ = run(capsys, "search", "--trinomial", "--m", "2")
    assert code == 0
    assert out["schema"] == "apnlab/search/v1"
    assert out["count"] == 24
    assert {p["s"] for p in out["params"]} == {3, 5}
    for p in out["params"]:
        assert p["mu_exponents"] == sorted(p["mu_exponents"])
    with pytest.raises(SystemExit) as exc:  # argparse requires --trinomial
        main(["search", "--m", "3"])
    assert exc.value.code == 2
    assert "--trinomial" in capsys.readouterr().err


def test_search_trinomial_listing_is_pinned(capsys):
    # the mu exponents are read from the log table; the m=3 listing (756
    # pairs, 126 per shift) is pinned byte for byte
    code = main(["search", "--trinomial", "--m", "3"])
    text = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6603eecb2bc7626e7f836167b6c07ef9b4b271a354b9cce21c9fdd1ddf587294")
    out = json.loads(text)
    field = field_new(9)
    found = {(s, mu.bits) for s, mu in search_trinomial_params(3)}
    assert {(p["s"], field.primitive_power(k)) for p in out["params"]
            for k in p["mu_exponents"]} == found


def test_search_trinomial_checks_its_size_before_building_elements(
        capsys, monkeypatch):
    # m=5 lists 107,760 (s, mu) pairs at about 200 B each, above 0.01 GiB
    def no_element(*args):
        raise AssertionError("built elements over the budget")

    monkeypatch.setattr(gf2n.Field, "element", no_element)
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "0.01")
    code, out, _ = run(capsys, "search", "--trinomial", "--m", "5")
    assert code == 3
    assert out["status"] == "resource-limit"
    assert "trinomial search at m=5" in out["error"]


def test_verify_cubic(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "cubic", "--m", "3")
    assert code == 0
    assert out["ok"] is True and out["cases"] == 49
    assert out["mismatches"] == []


def test_verify_resultant(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "resultant", "--m", "2")
    assert code == 0
    assert out["ok"] is True and out["identity_holds"] is True


@pytest.mark.parametrize("lemma,m", [("cubic", 3), ("resultant", 2)])
def test_verify_refuses_s_outside_the_key_lemma(capsys, lemma, m):
    code, out, err = run(capsys, "verify", "--lemma", lemma, "--m", str(m),
                         "--s", "2")
    assert code == 2
    assert out["status"] == "precondition-failed"
    assert "--s only with --lemma key" in out["error"]
    assert "Traceback" not in err


def test_verify_resultant_requires_m_coprime_to_3(capsys):
    code, out, err = run(capsys, "verify", "--lemma", "resultant", "--m", "3")
    assert code == 2
    assert out["status"] == "precondition-failed"
    assert "gcd(3,m)=1" in out["error"] and "gcd(3,m)=1" in err


#: What ``verify --lemma resultant --m 5`` counts before it allocates: its
#: one pass of 1,024 (a, b) pairs at 304 + 24 B (328 KiB).
_RESULTANT_M5_BYTES = 1024 * (analysis._RESULTANT_BYTES_PER_PAIR
                              + analysis._RESULTANT_BYTES_PER_POINT)


def _no_resultant_range(*args):
    raise AssertionError("swept under a budget it does not fit")


def test_verify_resultant_memory_budget_exits_3(capsys, monkeypatch):
    # one byte under the one m=5 pass exits 3 before any range is swept;
    # the count itself fits
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(_RESULTANT_M5_BYTES / (1 << 30)))
    code, out, _ = run(capsys, "verify", "--lemma", "resultant", "--m", "5")
    assert code == 0 and out["identity_holds"] is True
    monkeypatch.setattr(analysis, "_resultant_range", _no_resultant_range)
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB",
                       str((_RESULTANT_M5_BYTES - 1) / (1 << 30)))
    code, out, _ = run(capsys, "verify", "--lemma", "resultant", "--m", "5")
    assert code == 3
    assert out["status"] == "resource-limit"
    assert f"needs {_RESULTANT_M5_BYTES} bytes" in out["error"]


def test_default_memory_budget_follows_available_memory(capsys, monkeypatch):
    # with the variable unset the budget is 0.8 x MemAvailable: here one
    # byte under the one m=5 pass, refused before any range is swept; a
    # malformed value is still refused first
    monkeypatch.delenv("APNLAB_MEM_BUDGET_GIB", raising=False)
    monkeypatch.setattr(bitlinalg, "_meminfo_bytes",
                        lambda keys: (_RESULTANT_M5_BYTES - 1) / 0.8)
    monkeypatch.setattr(analysis, "_resultant_range", _no_resultant_range)
    code, out, _ = run(capsys, "verify", "--lemma", "resultant", "--m", "5")
    assert code == 3
    assert out["status"] == "resource-limit"
    assert f"needs {_RESULTANT_M5_BYTES} bytes" in out["error"]
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "abc")
    code, out, _ = run(capsys, "verify", "--lemma", "resultant", "--m", "5")
    assert code == 2
    assert out["status"] == "precondition-failed"


@pytest.mark.parametrize("argv,digest", [
    (["verify", "--lemma", "resultant", "--m", "5"],
     "7173d4f0de0309114b92e123f465abc6918d1cc549091265f691f6a4cfae466e"),
    (["ddt", "--family", '{tag:"Gold", n:9, i:1}'],
     "b22f254e912769a5e9b7265bf1bb879d7a54afff7c297a281bfb2fb3f3a2afcd"),
    (["verify", "--lemma", "cubic", "--m", "5"],
     "cfd69627ff7060507499f863a752ae4334ab1517413f7db5cbb0fdc5b9ad9a62"),
    (["verify", "--lemma", "key", "--m", "2", "--s", "3"],
     "71f76a56e9cbf6fc3f351604e140aa531fdddcfabb2ce89b9b6d8225fa434fd5"),
    (["verify", "--lemma", "key", "--m", "3", "--s", "1"],
     "d401c545264d18d0812b46e7dd827e0d8be1ce4c519404a45b570beb44d48d37"),
    (["verify", "--lemma", "key", "--m", "2", "--s", "1"],  # exit 2
     "f80c8bd949c092553b35cf833e5c06ec7a102eb4c0479ad3c77639453f6ed2bc"),
    (["search", "--trinomial", "--m", "4"],
     "2adeae83edf8ecf3012300be8ebb4cd47f1c1ac8988eb76390b70178ad0aa6cd"),
    (["verify", "--lemma", "resultant", "--m", "7"],
     "38d4379fa30aa2a15a1b44cb92ffa68145a5012118fc64a3c5165f03ecef0a93"),
    (["verify", "--lemma", "resultant", "--m", "8"],
     "2538893e3f79bb457c5d8e2829baf0e7d8cd4b894f8a00351f96095c54c7ebb8"),
    (["verify", "--lemma", "key", "--m", "3"],  # all six shifts, 5,292 tuples
     "d41905c7e7b0c12c990a7856188b0430f09cb1936fcfad60674f1f48f56474b2"),
    (["verify", "--lemma", "key", "--m", "4", "--s", "1"],
     "b4dcb9e9c987a310277947a281d3d9cb20670c220ad964e74f3936a21a75e8cb"),
])
def test_sweep_stdout_is_pinned(capsys, argv, digest):
    # stdout of each sweep as it was before its code was last rewritten; an
    # error document comes with its exit code
    code = main(argv)
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    failed = json.loads(text).get("status") == "precondition-failed"
    assert code == (2 if failed else 0)


def test_verify_key_checks_its_size_before_building_tuples(capsys,
                                                         monkeypatch):
    # 1 MiB fits the 36 tuples of m=2, s=3 but not the 5,292 of m=3
    # (about 2 MB), which it refuses before the list is built.  The m=3
    # search's own GF(2^9) product table (1.5 MB) is built first, whatever
    # ran before
    search_trinomial_params(3)
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(1 / 1024))
    code, out, _ = run(capsys, "verify", "--lemma", "key", "--m", "2",
                       "--s", "3")
    assert code == 0 and out["tuples_checked"] == 36

    monkeypatch.setattr(analysis, "_sweep_key_group", _no_key_pass)
    code, out, _ = run(capsys, "verify", "--lemma", "key", "--m", "3")
    assert code == 3
    assert out["status"] == "resource-limit"
    assert "5292 tuples" in out["error"]


def test_verify_key_names_its_tuples_under_a_small_budget(capsys,
                                                         monkeypatch):
    # m=6: the search's 442,260 (s, mu) pairs hold 8 B each, inside 0.05 GiB;
    # the key verifier's 27,862,380 tuples are what does not fit
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "0.05")
    monkeypatch.setattr(analysis, "_sweep_key_group", _no_key_pass)
    code, out, _ = run(capsys, "verify", "--lemma", "key", "--m", "6")
    assert code == 3
    assert out["error"].startswith("key verifier at m=6 (27862380 tuples")


def _no_key_pass(*args):
    raise AssertionError("swept under a budget it does not fit")


def test_verify_key_counts_one_pass_before_sweeping(capsys, monkeypatch):
    # 8 MiB holds the results of the 5,292 tuples of m=3 (2.0 MB) but not
    # one pass of 73 mu x 7 v x 511 points (about 25 MB)
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", str(8 / 1024))
    monkeypatch.setattr(analysis, "_sweep_key_group", _no_key_pass)
    code, out, _ = run(capsys, "verify", "--lemma", "key", "--m", "3")
    assert code == 3
    assert out["status"] == "resource-limit"
    assert "5292 tuples" in out["error"]


def test_verify_key_with_pinned_s(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "key", "--m", "2",
                       "--s", "3")
    assert code == 0
    assert out["ok"] is True
    assert out["points_per_tuple"] == 63
    assert out["tuples_checked"] == 36  # 12 mu values x 3 subfield v


@pytest.mark.parametrize("pass_elems", [None, 4 * 63, 2 * 63])
def test_verify_key_failures_keep_tuple_order_and_cap(capsys, monkeypatch,
                                                      pass_elems):
    # claim 1 forced false at chosen (tuple, a) points: 20 tuples fail, one
    # of them at 20 points, so both caps of 16 bite.  A pass is a grid of
    # 12 mu x 3 v per shift; 4 x 63 pairs hold one mu row of 3 x 63, and
    # 2 x 63 a v block of one mu.  Its tuples are the rows of the flattened
    # (mu, v) grid
    if pass_elems is not None:
        monkeypatch.setattr(analysis, "_KEY_ELEMS_PER_PASS", pass_elems)
    rng = np.random.default_rng(9)
    forced = {int(t): sorted(int(a) for a in rng.choice(np.arange(1, 64), 3,
                                                        replace=False))
              for t in rng.choice(72, 20, replace=False)}
    heavy = min(forced)
    forced[heavy] = list(range(3, 63, 3))
    claims, seen = analysis._key_claims, [0]

    def forced_claims(field, s, q):
        out = claims(field, s, q)
        first = out[0].copy()
        rows = first.reshape(-1, first.shape[-1])  # a view of the copy
        for row in range(rows.shape[0]):
            for a in forced.get(seen[0] + row, ()):
                rows[row, a - 1] = False
        seen[0] += rows.shape[0]
        out[0] = first
        return out

    code, clean, _ = run(capsys, "verify", "--lemma", "key", "--m", "2")
    assert code == 0 and clean["ok"] is True and clean["tuples_checked"] == 72
    field = field_new(6)
    step = field.mult_order // 3
    params = [(s, mu, field.element(field.primitive_power(step * j)))
              for s, mu in search_trinomial_params(2) for j in range(3)]
    sweeps = sweep_key_lemmas(2)
    assert [(w.s, w.mu, w.v) for w in sweeps] == [
        (s, mu.bits, v.bits) for s, mu, v in params]
    want = [dict(sweeps[t].to_json_dict(), all_pass=False,
                 claim_failures=forced[t][:16])
            for t in sorted(forced)][:16]
    monkeypatch.setattr(analysis, "_key_claims", forced_claims)
    code, out, _ = run(capsys, "verify", "--lemma", "key", "--m", "2")
    assert code == 0 and out["ok"] is False and out["tuples_checked"] == 72
    assert seen[0] == 72
    assert out["failures"] == want
    assert len(out["failures"]) == 16
    assert len(out["failures"][0]["claim_failures"]) == 16


def test_verify_key_rejects_empty_s(capsys):
    code, out, _ = run(capsys, "verify", "--lemma", "key", "--m", "2",
                       "--s", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# export-code
# ---------------------------------------------------------------------------

def test_export_code_round_trip(tmp_path, capsys):
    out_path = tmp_path / "code.txt"
    code, out, _ = run(capsys, "export-code", "--family",
                       '{tag:"Gold", n:5, i:1}', "--format", "plain-bits",
                       "--out", str(out_path))
    assert code == 0
    assert out["rows"] == 11 and out["cols"] == 32
    fld, mat = parse_code_export(out_path.read_text())
    assert fld.n == 5 and mat.shape == (11, 32)


def test_export_code_past_the_budget_exits_3_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    # Gold n=20's code matrix alone is 41 x 2^20 B = 43 MB, over 0.03 GiB
    out_path = tmp_path / "code.txt"
    monkeypatch.setenv("APNLAB_MEM_BUDGET_GIB", "0.03")
    for fmt in ("plain-bits", "script"):
        code, out, _ = run(capsys, "export-code", "--family",
                           '{tag:"Gold", n:20, i:1}', "--format", fmt,
                           "--out", str(out_path))
        assert code == 3 and out["status"] == "resource-limit"
        assert "the code matrix of GF(2^20)" in out["error"]
        assert not out_path.exists()


def test_export_code_unwritable_path_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.m"
    code, out, err = run(capsys, "export-code", "--family",
                         '{tag:"Gold", n:4, i:1}', "--format", "script",
                         "--out", str(out_path))
    assert code == 2
    assert out["status"] == "precondition-failed"
    assert f"cannot write {out_path}" in out["error"]
    assert "Traceback" not in err and not out_path.parent.exists()


def test_export_code_script(tmp_path, capsys):
    out_path = tmp_path / "code.m"
    code, out, _ = run(capsys, "export-code", "--family",
                       '{tag:"Gold", n:4, i:1}', "--format", "script",
                       "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("//")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_stdout_is_byte_identical_across_runs(capsys):
    argv = ["ddt", "--family", '{tag:"Kasami", n:7, i:2}']
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    second = capsys.readouterr().out
    assert first == second and first.strip()


@pytest.mark.parametrize("value", [
    {},
    [],
    {"empty_list": [], "empty_dict": {}, "nested": {"a": {"b": [[], {}]}}},
    {"escaped": 'quote " backslash \\ newline \n tab \t nul \x00 é ☃ , [x]',
     "strings": ["a, b", "[c]", "{d}", ""]},
    {"floats": [1.5, -0.0, 1e300, 2.0, float("nan"), float("inf"),
                -float("inf")],
     "flags": [True, False, None], "mixed": [1, True, None, 2.5, "s"]},
    {"ints": list(range(-3, 40)), "rows": [[1, 2], [3], []],
     "records": [{"s": 1, "mu": [5, 7]}, {"s": 2, "mu": []}], "pair": (1, 2),
     "tail": [1, [2, {"k": [3]}]]},
    {"non_str_keys": {1: "a", 2.5: [True], None: {}, False: 0}},
    [[[]]], "top-level string", 7, 3.25, None, True,
])
def test_emitter_matches_json_indent_2(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)
