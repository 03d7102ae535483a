"""Family constructors, descriptors, reference rows, parameter search."""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest

from apnlab.analysis import algebraic_degree, ddt, is_apn, is_apn_quadratic
from apnlab.errors import PreconditionError
from apnlab.families import (
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

from conftest import embed_pair, get_field, scalar_eval, split_pair


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
    # builds but is not APN: _build_f10 does not validate the linear-map
    # condition of its source construction, so no APN check is made here
    '{tag:"F10", n:9, a:0, b:0, c:0}',
])
def test_descriptor_for_round_trips(text):
    inst = build_from_descriptor(text)
    assert json.loads(descriptor_for(inst)) == parse_descriptor(text)
    again = build_from_descriptor(descriptor_for(inst))
    assert again.id == inst.id
    assert np.array_equal(again.table.lut, inst.table.lut)


def test_descriptor_for_refuses_an_id_that_would_not_build():
    # Table 4 row 11 is no F15 member as printed, so it carries FamilyId(tag, {})
    with pytest.raises(PreconditionError, match=r"missing \['b', 'c', 'i'\]"):
        descriptor_for(representatives(8)[10])


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
        ("F1", 12, {"k": 4, "s": 1}),
        ("F2", 16, {"k": 4, "s": 1}),
        ("F12", 6, {"a": 1, "b": 1}),
        ("F15", 8, {"i": 1, "b": 0, "c": 5}),  # m = 4
        ("F17", 10, {"i": 1}),  # m = 5
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
    from apnlab.gf2n import SubfieldMap

    inst = make_new_bivariate(2)
    parent, comp = get_field(4), get_field(2)
    sm = SubfieldMap(parent, comp)
    for z in range(16):
        x, y = split_pair(sm, z)
        first = (comp.pow(x, 3) ^ comp.mul(x, comp.sqr(y))
                 ^ comp.pow(y, 3) ^ comp.mul(x, y))
        second = (comp.pow(x, 5) ^ comp.mul(comp.pow(x, 4), y)
                  ^ comp.pow(y, 5) ^ comp.mul(x, y)
                  ^ comp.mul(comp.sqr(x), comp.sqr(y)))
        assert inst.table.lut[z] == embed_pair(sm, first, second)


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
        assert scalar_eval(inst.form, z) == inst.table.lut[z]


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


# (label, sha256 of the little-endian uint32 LUT) of each default row
PINNED_ROWS = {
    8: [
        ("z^3", "29ef510447fa08816e71b87c76faeade125b97fa117620e4dfbe50f36fbe4a23"),
        ("z^9", "87c5e4d985ed0e5490b214dea83102c859cfb99aa66ab3258278a7d576f0a790"),
        ("z^57", "ac6ea54aea90f9534bf86c737f44cda7c837814ef83faf5e9da110742b80c1b5"),
        ("z^3+z^17+u^48 z^18+u^3 z^33+u z^34+z^48",
         "2bdc84455b14a283a3860e557b4415ead5e6a2946433339eb67dd369ad71bf4e"),
        ("z^3+tr(z^9)",
         "83541869f5706fd29de36ca9e42827aaa75f1cc91a06338e18feed03e283345d"),
        ("z^3+u^-1 tr(u^3 z^9)",
         "de31d0518b420415ba78d9e694c3b389ffbfccce8407e01fe7103a120ef278da"),
        ("(xy, x^3+v y^12)",
         "e6a6b1470100bcd05d69cb7f23a0831ee0bd0edcb5ae494475b3517d09dc2fcc"),
        ("(xy, x^12+x^4 y^2+y^3)",
         "cd28d08da05c68b26ebea64489871202088a2df8716fb0b0e02b9fb86282c653"),
        ("(xy, x^12+x^4 y^2+v^7 y^3)",
         "1d895d4b89ac4432141d169974bc40ab0cb6997c042fe3697bd919772bf79d6a"),
        ("(x^3+xy^2+y^3, x^5+x^4y+y^5)",
         "0246c6ab86228c9f63cf54e060356cb533f5afc0e0214f912e236b75f539b9b9"),
        ("(xy, x^3+x^2y+v x^4 y^8+v^5 y^3)",
         "1126ea24f583b2c9091ffde7cf026604134c8410a701677659451789418d88b9"),
        ("(x^3+xy^2+y^3+xy, x^5+x^4y+y^5+xy+x^2y^2)",
         "c4ee368f48c42279fb7823c6c71bce87aa04125323593919c38df18be626a0d5"),
    ],
    9: [
        ("z^3", "e704fe36ae78227e1e09d688feed3ab0a31de77e6449d84065545e2914be741b"),
        ("z^5", "84ab5e8c9fd42ac64383dcd1547782e9add5f91d14f57ecb79673cfe39bb642e"),
        ("z^17", "dee10a107e90ccf2831878f903a77df4226f084e954f036d6f2d013be0a7f2a0"),
        ("z^13", "a85a74604b27377b0bef7e17483dd29a579e780c7c4b286676eec81fe9c041be"),
        ("z^241", "2d30e0fa13de89e028d0000712a954635e1f38d658313feaa3b739567106fe8c"),
        ("z^19", "9afa9be3e13af0b7495197163796211c1e0296736db483afe6c7dea91a35fb41"),
        ("z^255", "fab14c7e48d5441039c1e148f671949af8ea741a1ca2dd3af221b3f5ca947bf4"),
        ("z^3+tr(z^9)",
         "5b0f46b9239450ea70e94cfaa14f4dab5a77b0bc1b998a334888e2de7a1bab4c"),
        ("z^3+tr_3(z^9+z^18)",
         "5ece7b87b8223f1e4de6824a8d2e2022ccb956e1dd3dd414904bb6b0f83f9b92"),
        ("z^3+tr_3(z^18+z^36)",
         "2d7c65e14760a7084b877fb072fd526eaf243fd6094c7e280cf2619014f1e4e9"),
        ("z^3+u^246 z^10+u^47 z^17+u^181 z^66+u^428 z^129",
         "8c3df3d4ae88a0ceef67238b686b5fe4cd26496cf987a0ab5eed1d93d2a20e81"),
        ("(z^16+u^5 z^2+z)^9+u^73 z^9",
         "7bba48bce8a893cb9bccc2f1ccab5e51d41f4c5aa48e8ce6880560b705089cfd"),
    ],
}


@pytest.mark.parametrize("n", [8, 9])
def test_representatives_are_pinned(n):
    got = [(r.label, hashlib.sha256(
        np.ascontiguousarray(r.table.lut, dtype="<u4").tobytes()).hexdigest())
        for r in representatives(n)]
    assert got == PINNED_ROWS[n]


@pytest.mark.parametrize("n", [8, 9])
def test_member_rows_round_trip_through_their_descriptors(n):
    # every row but row 11 is built by its family's constructor; row 11
    # keeps its printed form and an id without the tag's parameters
    for k, row in enumerate(representatives(n), 1):
        if k == 11:
            assert row.id.params == {}
            with pytest.raises(PreconditionError, match="missing"):
                descriptor_for(row)
            continue
        again = build_from_descriptor(descriptor_for(row))
        assert again.table == row.table, k
        assert again.id == row.id, k


@pytest.mark.parametrize("n,name,bits,condition", [
    (9, "u", 0x9, "L is a permutation"),
    (8, "u", 0x6, "with x^(q+1)=1"),
    (8, "v", 0x9, "P1(z)=z^(2^k+1)+az+b has no root"),
])
def test_representatives_refuse_a_primitive_that_leaves_the_family(
        n, name, bits, condition):
    field = get_field(4 if name == "v" else n)
    with pytest.raises(PreconditionError, match=re.escape(condition)):
        representatives(n, **{name: field.element(bits)})


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
