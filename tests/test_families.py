"""Family constructors, descriptors, reference rows, parameter search."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from apnlab.analysis import algebraic_degree, ddt, is_apn, is_apn_quadratic
from apnlab.errors import PreconditionError
from apnlab.families import (
    KNOWN_TAGS,
    FamilyId,
    build_from_descriptor,
    descriptor_for,
    make_edel_pott,
    make_known,
    make_new_bivariate,
    make_new_trinomial,
    parse_descriptor,
    representatives,
    search_trinomial_params,
    validate_trinomial_params,
)
from apnlab.gf2n import field_new, primitive_elements

from conftest import get_field


# ---------------------------------------------------------------------------
# ids and descriptors
# ---------------------------------------------------------------------------

def test_unknown_tag_rejected():
    with pytest.raises(PreconditionError):
        FamilyId("Nonsense")


def test_require_exact_parameter_set():
    with pytest.raises(PreconditionError):
        make_known(FamilyId("Gold"), get_field(5))  # i missing
    with pytest.raises(PreconditionError):
        make_known(FamilyId("Gold", {"i": 1, "extra": 2}), get_field(5))


def test_parse_descriptor_accepts_bareword_keys():
    d = parse_descriptor('{tag:"Gold", n:8, i:2}')
    assert d == {"tag": "Gold", "n": 8, "i": 2}
    # strict JSON works too
    assert parse_descriptor('{"tag": "Gold", "n": 8, "i": 2}') == d


def test_parse_descriptor_rejects_garbage():
    for bad in ("", "{", '{"n": 8}', '{tag:"Gold" n:8}'):
        with pytest.raises(PreconditionError):
            parse_descriptor(bad)


def test_descriptor_round_trip_through_build():
    src = '{tag:"NewBivariate", m:4}'
    inst = build_from_descriptor(src)
    text = descriptor_for(inst)
    js = json.loads(text)  # canonical form is strict JSON
    assert js["tag"] == "NewBivariate" and js["m"] == 4
    again = build_from_descriptor(text)
    assert np.array_equal(again.table.lut, inst.table.lut)


def test_build_from_descriptor_equals_make_known():
    inst_a = build_from_descriptor('{tag:"Kasami", n:7, i:2}')
    inst_b = make_known(FamilyId("Kasami", {"i": 2}), get_field(7))
    assert np.array_equal(inst_a.table.lut, inst_b.table.lut)


@pytest.mark.parametrize("text", [
    '{tag:"Gold", n:7, i:3}',
    '{tag:"F13", m:4, k:1, i:0, alpha:1}',
    '{tag:"NewBivariate", m:4}',
    '{tag:"NewTrinomial", m:2, s:3, mu:1, v:21}',
    '{tag:"EdelPottP", n:8, u:7}',
])
def test_descriptor_for_round_trips(text):
    inst = build_from_descriptor(text)
    assert json.loads(descriptor_for(inst)) == parse_descriptor(text)
    again = build_from_descriptor(descriptor_for(inst))
    assert again.id == inst.id
    assert np.array_equal(again.table.lut, inst.table.lut)


def test_edel_pott_descriptor_defaults_to_gf256_and_canonical_u():
    want = make_edel_pott(get_field(8))
    for text in ('{tag:"EdelPottP"}', '{tag:"EdelPottP", n:8}',
                 '{tag:"EdelPottP", u:1}'):
        inst = build_from_descriptor(text)
        assert inst.id == want.id
        assert np.array_equal(inst.table.lut, want.table.lut)


@pytest.mark.parametrize("fid,n", [
    (FamilyId("NewBivariate", {"m": 4}), 6),
    (FamilyId("NewTrinomial", {"m": 2, "s": 3, "mu": 1, "v": 21}), 9),
    (FamilyId("EdelPottP", {"u": 1}), 9),
])
def test_make_known_rejects_a_field_of_the_wrong_size(fid, n):
    with pytest.raises(PreconditionError, match="n = "):
        make_known(fid, get_field(n))


# ---------------------------------------------------------------------------
# cataloged families over small fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "tag,n,params",
    [
        ("Gold", 5, {"i": 1}),
        ("Gold", 7, {"i": 3}),
        ("Kasami", 5, {"i": 2}),
        ("Kasami", 7, {"i": 2}),
        ("Welch", 5, {}),
        ("Welch", 7, {}),
        ("Niho1", 9, {}),
        ("Niho2", 7, {}),
        ("Inverse", 5, {}),
        ("Inverse", 7, {}),
        ("Dobbertin", 5, {}),
        ("F11", 10, {"i": 3}),
        ("F11", 10, {"i": 7}),
    ],
)
def test_cataloged_members_are_apn(tag, n, params):
    inst = make_known(FamilyId(tag, params), get_field(n))
    assert inst.table.field.n == n
    # the two-solution shortcut is valid only for quadratics
    if algebraic_degree(inst.table) <= 2:
        assert is_apn_quadratic(inst.table)
    else:
        assert ddt(inst.table).delta == 2


@pytest.mark.parametrize(
    "tag,n,params,condition",
    [
        ("Gold", 8, {"i": 2}, "gcd(i,n)=1"),
        ("Kasami", 9, {"i": 3}, "gcd(i,n)=1"),
        ("Welch", 6, {}, "n=2t+1"),
        ("Inverse", 6, {}, "n=2t+1"),
        ("Dobbertin", 6, {}, "n=5i"),
        ("F11", 10, {"i": 4}, "i in [3, 7]"),
        ("Niho2", 9, {}, "t odd"),
    ],
)
def test_precondition_errors_name_the_condition(tag, n, params, condition):
    with pytest.raises(PreconditionError, match=r".*" + condition.replace(
            "[", r"\[").replace("]", r"\]").replace("(", r"\(").replace(
            ")", r"\)").replace("+", r"\+")):
        make_known(FamilyId(tag, params), get_field(n))


def test_gold_is_power_map():
    f = get_field(7)
    inst = make_known(FamilyId("Gold", {"i": 3}), f)
    assert [int(v) for v in inst.table.lut] == [f.pow(z, 9) for z in range(128)]


# ---------------------------------------------------------------------------
# the bivariate family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 4, 5])
def test_new_bivariate_small(m):
    inst = make_new_bivariate(m)
    assert inst.table.field.n == 2 * m
    assert inst.id.tag == "NewBivariate" and inst.id.params == {"m": m}
    assert is_apn_quadratic(inst.table)


def test_new_bivariate_requires_m_coprime_to_3():
    for m in (3, 6):
        with pytest.raises(PreconditionError, match=r"gcd\(3,m\)=1"):
            make_new_bivariate(m)


def test_new_bivariate_component_values():
    # spot-check the two coordinates against a hand evaluation over GF(2^2)^2
    from apnlab.gf2n import subfield_map

    inst = make_new_bivariate(2)
    parent, comp = get_field(4), get_field(2)
    sm = subfield_map(parent, comp)
    for z in range(16):
        x, y = sm.split(z)
        first = (comp.pow(x, 3) ^ comp.mul(x, comp.sqr(y))
                 ^ comp.pow(y, 3) ^ comp.mul(x, y))
        second = (comp.pow(x, 5) ^ comp.mul(comp.pow(x, 4), y)
                  ^ comp.pow(y, 5) ^ comp.mul(x, y)
                  ^ comp.mul(comp.sqr(x), comp.sqr(y)))
        assert inst.table.lut[z] == sm.embed(first, second)


# ---------------------------------------------------------------------------
# the trinomial family
# ---------------------------------------------------------------------------

def test_search_m2_finds_wide_s_only():
    found = search_trinomial_params(2)
    assert len(found) == 24
    assert {s for s, _ in found} == {3, 5}


def test_search_results_all_validate():
    for s, mu in search_trinomial_params(2):
        # v exponents must land in GF(2^2)*: multiples of (2^6-1)/(2^2-1)
        field, L, mu_bits, v_bits = validate_trinomial_params(2, s, mu, 21)
        assert field.n == 6
        assert mu_bits == mu.bits
        assert field.pow(v_bits, 4) == v_bits


def test_trinomial_member_is_apn():
    s, mu = search_trinomial_params(2)[0]
    # v as a primitive-power exponent must land in GF(2^2)*: multiples of 21
    inst = make_new_trinomial(2, s, mu, 21)
    assert is_apn_quadratic(inst.table)
    assert inst.id.params["m"] == 2 and inst.id.params["s"] == s


def test_trinomial_parameter_conditions_named():
    with pytest.raises(PreconditionError, match="gcd\\(s,m\\)=1"):
        make_new_trinomial(2, 2, 3, 21)
    with pytest.raises(PreconditionError, match="mu"):
        make_new_trinomial(2, 3, 0, 21)  # norm of 1 is 1
    with pytest.raises(PreconditionError, match="v in GF"):
        make_new_trinomial(2, 3, 3, 1)  # u^1 lies outside GF(2^2)
    f6 = get_field(6)
    with pytest.raises(PreconditionError, match="v in GF"):
        make_new_trinomial(2, 3, 3, f6.element(0))


def test_trinomial_form_matches_table():
    s, mu = search_trinomial_params(2)[0]
    inst = make_new_trinomial(2, s, mu, 21)
    f = inst.table.field
    for z in (0, 1, 5, 17, 62):
        assert inst.form.eval(z) == inst.table.lut[z]


# ---------------------------------------------------------------------------
# reference rows
# ---------------------------------------------------------------------------

def test_representatives_gf256():
    reps = representatives(8)
    assert len(reps) == 12
    assert all(r.table.field.n == 8 for r in reps)
    assert all(r.label for r in reps)
    for r in reps:
        assert is_apn(r.table), r.label
    # the first three rows are power maps from the catalog
    f8 = get_field(8)
    assert np.array_equal(reps[0].table.lut,
                          make_known(FamilyId("Gold", {"i": 1}), f8).table.lut)
    assert np.array_equal(reps[1].table.lut,
                          make_known(FamilyId("Gold", {"i": 3}), f8).table.lut)
    assert np.array_equal(reps[2].table.lut,
                          make_known(FamilyId("Kasami", {"i": 3}), f8).table.lut)


def test_representatives_gf512():
    reps = representatives(9)
    assert len(reps) == 12
    for r in reps:
        assert is_apn(r.table), r.label


def test_gf512_quintic_row_needs_the_other_primitive_orbit():
    f9 = get_field(9)
    assert f9.primitive == 0x7
    # under the canonical primitive the printed quintic coefficients are not APN
    reps = representatives(9, u=f9.element(0x7))
    assert not is_apn(reps[10].table)
    # the documented default orbit representative fixes it
    default = representatives(9)
    assert is_apn(default[10].table)
    assert is_apn(default[11].table)


def test_representatives_reject_other_sizes():
    with pytest.raises(PreconditionError):
        representatives(7)


def test_representatives_reject_non_primitive_u():
    f9 = get_field(9)
    with pytest.raises(PreconditionError, match="primitive"):
        representatives(9, u=f9.element(1))


# ---------------------------------------------------------------------------
# the plateaued-component construction and primitive sweeps
# ---------------------------------------------------------------------------

def test_edel_pott_default_is_apn_over_gf256():
    f8 = get_field(8)
    inst = make_edel_pott(f8)
    assert inst.id.tag == "EdelPottP"
    assert is_apn(inst.table)


def test_edel_pott_and_representatives_share_the_primitive_check():
    f8 = get_field(8)
    not_primitive = f8.element(f8.primitive_power(5))  # order 51
    assert not_primitive not in primitive_elements(f8)
    with pytest.raises(PreconditionError, match="u primitive"):
        make_edel_pott(f8, not_primitive)
    with pytest.raises(PreconditionError, match="u primitive"):
        representatives(8, u=not_primitive)
    f4 = get_field(4)
    with pytest.raises(PreconditionError, match="v primitive"):
        representatives(8, v=f4.element(f4.primitive_power(3)))  # order 5
    for u in primitive_elements(f8)[:4]:
        assert make_edel_pott(f8, u).id.params["u"] == int(f8._tables()[1][u.bits])


def test_known_tags_cover_catalog_and_new_families():
    assert {"Gold", "Kasami", "Welch", "Niho1", "Niho2", "Inverse",
            "Dobbertin", "NewBivariate", "NewTrinomial", "EdelPottP",
            "F13"} <= set(KNOWN_TAGS)
    assert math.gcd(3, 4) == 1  # the bivariate family's m=4 member exists
