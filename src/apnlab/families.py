"""Constructors for cataloged APN function families.

Covers the classical monomial families (Gold, Kasami, Welch, Niho, inverse,
Dobbertin), the cataloged non-monomial univariate families F1-F12, the
bivariate families F13-F17, two recently found families (a bivariate
quartic/quintic pair over GF(2^m)^2 and a trinomial-based composition over
GF(2^(3m))), and the specific switched cubic over GF(2^8) attributed to
Edel and Pott.

Every constructor validates the family's side conditions exhaustively and
raises :class:`~apnlab.errors.PreconditionError` naming the violated
condition.  Coefficients are passed either as :class:`FieldElement` values
or as integers interpreted as *exponents of the field's canonical primitive
element* (``None`` encodes the zero element); this mirrors the usual
``u^k`` notation of the literature's tables.

:func:`representatives` gives the published lists of twelve pairwise
CCZ-inequivalent functions over GF(2^8) and GF(2^9) whose incidence-matrix
ranks serve as goldens for the rank engine.  Member rows are built and
checked by their family's constructor, labels stay the printed forms, and
alternate primitives are refused where a row is no member.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, replace

import numpy as np

from .bitlinalg import check_alloc
from .errors import PreconditionError
from .gf2n import (
    Field,
    FieldElement,
    cube_class,
    field_new,
    primitive_elements,
    subfield_embedding,
    subfield_map,
)
from .vbf import (
    BivariateFunc,
    FunctionTable,
    LinearizedPoly,
    UnivariatePoly,
    bivariate_to_table,
    is_linearized_permutation,
    to_table,
)

__all__ = [
    "FamilyId",
    "FamilyInstance",
    "KNOWN_TAGS",
    "TABLE_RANKS",
    "build_from_descriptor",
    "descriptor_for",
    "make_edel_pott",
    "make_known",
    "make_new_bivariate",
    "make_new_trinomial",
    "parse_descriptor",
    "representatives",
    "search_trinomial_params",
    "validate_trinomial_params",
]

#: Tags whose instances live on GF(2^m)^2 (materialised over GF(2^(2m))).
BIVARIATE_TAGS = frozenset({"F13", "F14", "F15", "F16", "F17", "NewBivariate"})

#: Parameter names each tag requires (coefficients as primitive-exponent
#: integers, ``None`` for zero, or FieldElement values).
_REQUIRED_PARAMS: dict[str, tuple[str, ...]] = {
    "Gold": ("i",),
    "Kasami": ("i",),
    "Welch": (),
    "Niho1": (),
    "Niho2": (),
    "Inverse": (),
    "Dobbertin": (),
    "F1": ("k", "s"),
    "F2": ("k", "s"),
    "F3": ("i", "s", "c"),
    "F4": ("a",),
    "F5": ("a",),
    "F6": ("a",),
    "F7": ("s", "v", "w"),
    "F8": ("s", "v", "w"),
    "F9": ("s", "v", "w"),
    "F10": ("a", "b", "c"),
    "F11": ("i",),
    "F12": ("a", "b"),
    "F13": ("k", "i", "alpha"),
    "F14": ("k", "a", "b"),
    "F15": ("i", "b", "c"),
    "F16": ("i",),
    "F17": ("i",),
    "NewBivariate": ("m",),
    "NewTrinomial": ("m", "s", "mu", "v"),
    "EdelPottP": ("u",),
}

KNOWN_TAGS = tuple(_REQUIRED_PARAMS)

#: Peak bytes per (s, mu) pair of a trinomial search's list of elements or
#: of the CLI listing (tracemalloc: ``search_trinomial_params`` 147 B per
#: pair at m = 4, 151 B at m = 5, 152 B at m = 6; ``apnlab search
#: --trinomial`` 131, 127 and 129 B).
_SEARCH_BYTES_PER_PAIR = 208
#: Peak bytes per field element of the trinomial search, besides the 8 B of
#: each mu found: the z values and the excluded set (5 B), held throughout,
#: and one s's sweep (its uint32 Frobenius images, inverse and product with
#: their int32 log scratch, the blocked flags and the s's own mu; measured
#: with tracemalloc, 25.4 B at m = 4, 25.0 at m = 5 and 6).
_SEARCH_BYTES_PER_ELEMENT = 32


def _size_rule(tag: str) -> tuple[str, int]:
    """The descriptor key that sizes a tag's field, and the field degree per
    unit of it: ``n`` gives GF(2^n), ``m`` gives GF(2^(2m)) for bivariate
    tags and GF(2^(3m)) for NewTrinomial."""
    if tag in BIVARIATE_TAGS:
        return "m", 2
    if tag == "NewTrinomial":
        return "m", 3
    return "n", 1


class FamilyId:
    """A family tag plus its named parameters.

    Parameters are stored as given (integers are primitive-power exponents,
    ``None`` is the zero element, FieldElement values pass through); two ids
    compare equal when tag and parameter map agree.
    """

    __slots__ = ("tag", "params")

    def __init__(self, tag: str, params: dict | None = None):
        if tag not in _REQUIRED_PARAMS:
            raise PreconditionError(f"unknown family tag {tag!r}")
        self.tag = tag
        self.params = dict(params or {})

    def require_exact(self) -> None:
        """Enforce that the parameter names are exactly the tag's set."""
        need = set(_REQUIRED_PARAMS[self.tag])
        have = set(self.params)
        if have != need:
            missing = sorted(need - have)
            extra = sorted(have - need)
            bits = []
            if missing:
                bits.append(f"missing {missing}")
            if extra:
                bits.append(f"unexpected {extra}")
            raise PreconditionError(
                f"{self.tag} parameters must be exactly {sorted(need)}: "
                + ", ".join(bits)
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FamilyId):
            return NotImplemented
        return self.tag == other.tag and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.tag, tuple(sorted(self.params.items(), key=repr))))

    def __repr__(self) -> str:
        return f"FamilyId({self.tag!r}, {self.params!r})"


@dataclass(frozen=True)
class FamilyInstance:
    """A constructed family member: identifier, symbolic form, and LUT."""

    id: FamilyId
    form: UnivariatePoly | BivariateFunc
    table: FunctionTable
    label: str = ""

    @property
    def field(self) -> Field:
        return self.table.field


def _as_int(value, name: str) -> int:
    """An integer parameter; bools and non-integers raise PreconditionError."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):
        return operator.index(value)
    raise PreconditionError(f"parameter {name} must be an integer, got {value!r}")


def _as_shift(value, name: str) -> int:
    """A Frobenius shift parameter (an exponent of 2): an integer >= 0."""
    shift = _as_int(value, name)
    if shift < 0:
        raise PreconditionError(f"parameter {name} must be >= 0, got {shift}")
    return shift


def _as_bits(field: Field, value, name: str) -> int:
    """Resolve a coefficient parameter to raw element bits.

    Integers are exponents of the canonical primitive element; ``None`` is
    the zero element; FieldElement values must belong to ``field``.
    """
    if value is None:
        return 0
    if isinstance(value, FieldElement):
        if value.field != field:
            raise PreconditionError(
                f"coefficient {name} must live in GF(2^{field.n})"
            )
        return value.bits
    return field.primitive_power(_as_int(value, name))


def _as_exponent(field: Field, bits: int) -> int | None:
    """Store-form of a coefficient: primitive-power exponent, None for zero."""
    if bits == 0:
        return None
    _, log = field._tables()
    return int(log[bits])


def _require(cond: bool, condition_name: str) -> None:
    if not cond:
        raise PreconditionError(f"condition violated: {condition_name}")


def _primitive_bits(field: Field, value: FieldElement | None, default: int,
                    name: str) -> int:
    """Bits of ``value`` (``default`` when None), checked to be primitive."""
    bits = default if value is None else _as_bits(field, value, name)
    _require(bits in {p.bits for p in primitive_elements(field)},
             f"{name} primitive")
    return bits


def _in_subfield(field: Field, bits: int, m: int) -> bool:
    return field.pow(bits, 1 << m) == bits


def _instance_uni(fid: FamilyId, poly: UnivariatePoly, label: str = "") -> FamilyInstance:
    return FamilyInstance(id=fid, form=poly, table=poly.to_table(), label=label)


def _instance_biv(
    fid: FamilyId, biv: BivariateFunc, ambient: Field, label: str = ""
) -> FamilyInstance:
    sm = subfield_map(ambient, biv.field)
    return FamilyInstance(
        id=fid, form=biv, table=bivariate_to_table(biv, sm), label=label
    )


# ----------------------------------------------------------------------
# monomial families


def _monomial_exponent(tag: str, field: Field, params: dict) -> int:
    n = field.n
    if tag == "Gold":
        i = _as_shift(params["i"], "i")
        _require(math.gcd(i, n) == 1, "gcd(i,n)=1")
        return (1 << i) + 1
    if tag == "Kasami":
        i = _as_shift(params["i"], "i")
        _require(math.gcd(i, n) == 1, "gcd(i,n)=1")
        return (1 << (2 * i)) - (1 << i) + 1
    # the remaining monomials need odd n = 2t+1 (Dobbertin needs n = 5i)
    if tag == "Dobbertin":
        _require(n % 5 == 0, "n=5i")
        i = n // 5
        return (1 << (4 * i)) + (1 << (3 * i)) + (1 << (2 * i)) + (1 << i) - 1
    _require(n % 2 == 1 and n >= 3, "n=2t+1")
    t = (n - 1) // 2
    if tag == "Welch":
        return (1 << t) + 3
    if tag == "Niho1":
        _require(t % 2 == 0, "t even")
        return (1 << t) + (1 << (t // 2)) - 1
    if tag == "Niho2":
        _require(t % 2 == 1, "t odd")
        return (1 << t) + (1 << ((3 * t + 1) // 2)) - 1
    if tag == "Inverse":
        return (1 << (2 * t)) - 1
    raise PreconditionError(f"not a monomial tag: {tag}")


# ----------------------------------------------------------------------
# univariate non-monomial families


def _build_f1_f2(tag: str, field: Field, params: dict) -> UnivariatePoly:
    n = field.n
    p = 3 if tag == "F1" else 4
    k, s = _as_shift(params["k"], "k"), _as_shift(params["s"], "s")
    _require(n == p * k, f"n={p}k")
    _require(math.gcd(k, 3) == 1, "gcd(k,3)=1")
    _require(math.gcd(s, 3 * k) == 1, "gcd(s,3k)=1")
    _require(n >= 12, "n>=12")
    i = (s * k) % p
    m = p - i
    u_coeff = field.primitive_power((1 << k) - 1)
    return UnivariatePoly(
        field,
        [
            (1, (1 << s) + 1),
            (u_coeff, (1 << (i * k)) + (1 << (m * k + s))),
        ],
    )


def _build_f3(field: Field, params: dict) -> UnivariatePoly:
    n = field.n
    _require(n % 2 == 0, "n=2m")
    m = n // 2
    q = 1 << m
    i = _as_shift(params["i"], "i")
    _require(math.gcd(i, m) == 1, "gcd(i,m)=1")
    s_bits = _as_bits(field, params["s"], "s")
    c_bits = _as_bits(field, params["c"], "c")
    _require(not _in_subfield(field, s_bits, m), "s not in GF(2^m)")
    # no x with x^(q+1) = 1 may satisfy x^(2^i+1) + c x^(2^i) + c^q x + 1 = 0
    cq = field.pow(c_bits, q)
    xs = field.all_elements_vec()[1:]
    unit_circle = xs[field.pow_vec(xs, q + 1) == 1]
    val = (
        field.pow_vec(unit_circle, (1 << i) + 1)
        ^ field.mul_vec(c_bits, field.pow_vec(unit_circle, 1 << i))
        ^ field.mul_vec(cq, unit_circle)
        ^ 1
    )
    _require(
        not bool((val == 0).any()),
        "x^(2^i+1)+cx^(2^i)+c^q x+1 has no solution with x^(q+1)=1",
    )
    return UnivariatePoly(
        field,
        [
            (s_bits, (1 << i) * (q + 1)),
            (1, (1 << i) + 1),
            (1, q * ((1 << i) + 1)),
            (c_bits, (1 << i) * q + 1),
            (cq, (1 << i) + q),
            (1, q + 1),
        ],
    )


def _trace_expanded_terms(
    field: Field, sub_degree: int, inner: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Terms of tr(sum c z^e) down to GF(2^sub_degree), fully expanded."""
    out = []
    for j in range(field.n // sub_degree):
        k = sub_degree * j
        for c, e in inner:
            out.append((field.pow(c, 1 << k), e * (1 << k)))
    return out


def _build_f4_f5_f6(tag: str, field: Field, params: dict) -> UnivariatePoly:
    n = field.n
    a = _as_bits(field, params["a"], "a")
    _require(a != 0, "a != 0")
    if tag == "F4":
        inner = [(field.pow(a, 3), 9)]
        sub = 1
    elif tag == "F5":
        _require(n % 3 == 0, "3 | n")
        inner = [(field.pow(a, 3), 9), (field.pow(a, 6), 18)]
        sub = 3
    else:  # F6
        _require(n % 3 == 0, "3 | n")
        inner = [(field.pow(a, 6), 18), (field.pow(a, 12), 36)]
        sub = 3
    ainv = field.inv(a)
    terms = [(1, 3)]
    for c, e in _trace_expanded_terms(field, sub, inner):
        terms.append((field.mul(ainv, c), e))
    return UnivariatePoly(field, terms)


def _build_f7_f8_f9(field: Field, params: dict) -> UnivariatePoly:
    n = field.n
    _require(n % 3 == 0, "n=3m")
    m = n // 3
    s = _as_shift(params["s"], "s")
    _require(math.gcd(m, 3) == 1, "gcd(m,3)=1")
    _require(math.gcd(s, 3 * m) == 1, "gcd(s,3m)=1")
    _require((m + s) % 3 == 0, "3 | m+s")
    v = _as_bits(field, params["v"], "v")
    w = _as_bits(field, params["w"], "w")
    _require(_in_subfield(field, v, m), "v in GF(2^m)")
    _require(_in_subfield(field, w, m), "w in GF(2^m)")
    _require(field.mul(v, w) != 1, "vw != 1")
    u = field.primitive
    uq = field.pow(u, 1 << m)
    return UnivariatePoly(
        field,
        [
            (u, (1 << s) + 1),
            (uq, (1 << (2 * m)) + (1 << (m + s))),
            (v, (1 << (2 * m)) + 1),
            (field.mul(w, field.mul(uq, u)), (1 << s) + (1 << (m + s))),
        ],
    )


def _build_f10(field: Field, params: dict) -> UnivariatePoly:
    n = field.n
    _require(n % 3 == 0, "n=3m")
    m = n // 3
    _require(m % 2 == 1, "m odd")
    a = _as_bits(field, params["a"], "a")
    b = _as_bits(field, params["b"], "b")
    c = _as_bits(field, params["c"], "c")
    # The linear-map condition this family inherits from its source
    # construction lives outside this catalog and is not validated here;
    # callers should confirm APNness with the analysis module.
    c2c = field.sqr(c) ^ c
    return UnivariatePoly(
        field,
        [
            (field.sqr(a), (1 << (2 * m + 1)) + 1),
            (field.sqr(b), (1 << (m + 1)) + 1),
            (a, (1 << (2 * m)) + 2),
            (b, (1 << m) + 2),
            (c2c, 3),
        ],
    )


def _f11_valid_i(m: int, n: int) -> set[int]:
    vals = {(m - 2) % n}
    try:
        vals.add(pow(m - 2, -1, n))
    except ValueError:
        pass
    return vals


def _build_f11(field: Field, params: dict) -> UnivariatePoly:
    n = field.n
    _require(n % 2 == 0, "n=2m")
    m = n // 2
    _require(m % 2 == 1, "m odd")
    _require(m % 3 != 0, "3 does not divide m")
    i = _as_shift(params["i"], "i")
    valid = _f11_valid_i(m, n)
    _require(i in valid, f"i in {sorted(valid)} (i = m-2 or its inverse mod n)")
    f4 = field_new(2)
    embed = subfield_embedding(field, f4)
    w = int(embed[2])  # a generator of the embedded GF(4)
    return UnivariatePoly(
        field,
        [
            (1, 3),
            (w, (1 << i) + 1),
            (field.sqr(w), 3 << m),
            (1, ((1 << i) + 1) << m),
        ],
    )


def _build_f12(field: Field, params: dict) -> UnivariatePoly:
    n = field.n
    _require(n % 2 == 0, "n=2m")
    m = n // 2
    _require(m % 2 == 1, "m odd")
    q = 1 << m
    a = _as_bits(field, params["a"], "a")
    b = _as_bits(field, params["b"], "b")
    _require(not _in_subfield(field, a, m), "a not in GF(2^m)")
    _require(cube_class(field, b) == "noncube", "b not a cube")
    aq = field.pow(a, q)
    bq = field.pow(b, q)
    return UnivariatePoly(
        field,
        [
            (field.mul(a, b), 3),
            (field.mul(a, bq), 3 * q),
            (field.mul(aq, field.pow(b, 3)), 9),
            (field.mul(aq, field.pow(bq, 3)), 9 * q),
        ],
    )


# ----------------------------------------------------------------------
# bivariate families (component field GF(2^m), ambient GF(2^(2m)))


_NEW_BIVARIATE_LABEL = "(x^3+xy^2+y^3+xy, x^5+x^4y+y^5+xy+x^2y^2)"


def _poly_has_root(component: Field, evaluate) -> bool:
    zs = component.all_elements_vec()
    return bool((evaluate(zs) == 0).any())


def _build_bivariate_known(
    tag: str, component: Field, params: dict
) -> BivariateFunc:
    m = component.n
    if tag == "NewBivariate":
        _require(math.gcd(3, m) == 1, "gcd(3,m)=1")
        return BivariateFunc(
            component,
            [(1, 3, 0), (1, 1, 2), (1, 0, 3), (1, 1, 1)],
            [(1, 5, 0), (1, 4, 1), (1, 0, 5), (1, 1, 1), (1, 2, 2)],
        )
    if tag == "F13":
        k, i = _as_shift(params["k"], "k"), _as_shift(params["i"], "i")
        alpha = _as_bits(component, params["alpha"], "alpha")
        _require(math.gcd(k, m) == 1, "gcd(k,m)=1")
        _require(m % 2 == 0, "m even")
        _require(cube_class(component, alpha) == "noncube", "alpha non-cubic")
        return BivariateFunc(
            component,
            [(1, 1, 1)],
            [(1, (1 << k) + 1, 0), (alpha, 0, ((1 << k) + 1) * (1 << i))],
        )
    if tag == "F14":
        k = _as_shift(params["k"], "k")
        a = _as_bits(component, params["a"], "a")
        b = _as_bits(component, params["b"], "b")
        _require(math.gcd(k, m) == 1, "gcd(k,m)=1")
        e = (1 << k) + 1
        _require(
            not _poly_has_root(
                component,
                lambda zs: component.pow_vec(zs, e)
                ^ component.mul_vec(a, zs)
                ^ b,
            ),
            "P1(z)=z^(2^k+1)+az+b has no root in GF(2^m)",
        )
        return BivariateFunc(
            component,
            [(1, 1, 1)],
            [
                (1, (1 << (3 * k)) + (1 << (2 * k)), 0),
                (a, 1 << (2 * k), 1 << k),
                (b, 0, (1 << k) + 1),
            ],
        )
    if tag == "F15":
        i = _as_shift(params["i"], "i")
        b = _as_bits(component, params["b"], "b")
        c = _as_bits(component, params["c"], "c")
        _require(m % 2 == 0, "m even")
        _require(math.gcd(i, m) == 1, "gcd(i,m)=1")
        h = m // 2
        e = (1 << i) + 1

        def p2(zs):
            inner = (
                component.mul_vec(c, component.pow_vec(zs, e))
                ^ component.mul_vec(b, component.pow_vec(zs, 1 << i))
                ^ 1
            )
            return component.pow_vec(inner, (1 << h) + 1) ^ component.pow_vec(
                zs, (1 << h) + 1
            )

        _require(
            not _poly_has_root(component, p2),
            "P2(z)=(cz^(2^i+1)+bz^(2^i)+1)^(2^(m/2)+1)+z^(2^(m/2)+1) "
            "has no root in GF(2^m)",
        )
        return BivariateFunc(
            component,
            [(1, 1, 1)],
            [
                (1, (1 << i) + 1, 0),
                (1, 1 << (i + h), 1 << h),
                (b, 1, 1 << i),
                (c, 0, (1 << i) + 1),
            ],
        )
    if tag in ("F16", "F17"):
        i = _as_shift(params["i"], "i")
        _require(math.gcd(3 * i, m) == 1, "gcd(3i,m)=1")
        first = [
            (1, (1 << i) + 1, 0),
            (1, 1, 1 << i),
            (1, 0, (1 << i) + 1),
        ]
        if tag == "F16":
            second = [
                (1, (1 << (2 * i)) + 1, 0),
                (1, 1 << (2 * i), 1),
                (1, 0, (1 << (2 * i)) + 1),
            ]
        else:
            _require(m % 2 == 1, "m odd")
            second = [(1, 1 << (3 * i), 1), (1, 1, 1 << (3 * i))]
        return BivariateFunc(component, first, second)
    raise PreconditionError(f"not a bivariate tag: {tag}")


# ----------------------------------------------------------------------
# public constructors


def make_known(fid: FamilyId, field: Field) -> FamilyInstance:
    """Build a cataloged family member over ``field`` (the ambient field).

    Bivariate tags require an even-degree ambient field; their component
    field is GF(2^(n/2)) with the default modulus, and integer coefficient
    parameters are exponents of the *component* field's primitive element.
    Univariate integer coefficients refer to the ambient primitive.  The
    field must have the degree the parameters fix: 2m for NewBivariate,
    3m (default modulus) for NewTrinomial, 8 for EdelPottP.
    """
    fid.require_exact()
    tag = fid.tag
    p = fid.params
    key, per_unit = _size_rule(tag)
    if key in p:  # NewBivariate and NewTrinomial: m fixes the field degree
        _require(field.n == per_unit * _as_int(p[key], key), f"n = {per_unit}m")
    if tag == "NewTrinomial":
        _require(field == field_new(field.n), "default modulus")
        return make_new_trinomial(_as_int(p["m"], "m"), _as_shift(p["s"], "s"),
                                  p["mu"], p["v"])
    if tag == "EdelPottP":
        return make_edel_pott(field, field.element(_as_bits(field, p["u"], "u")))
    if tag in ("Gold", "Kasami", "Welch", "Niho1", "Niho2", "Inverse", "Dobbertin"):
        e = _monomial_exponent(tag, field, p)
        poly = UnivariatePoly.monomial(field, e)
        return _instance_uni(fid, poly, label=f"z^{e}")
    if tag in ("F1", "F2"):
        return _instance_uni(fid, _build_f1_f2(tag, field, p))
    if tag == "F3":
        return _instance_uni(fid, _build_f3(field, p))
    if tag in ("F4", "F5", "F6"):
        return _instance_uni(fid, _build_f4_f5_f6(tag, field, p))
    if tag in ("F7", "F8", "F9"):
        return _instance_uni(fid, _build_f7_f8_f9(field, p))
    if tag == "F10":
        return _instance_uni(fid, _build_f10(field, p))
    if tag == "F11":
        return _instance_uni(fid, _build_f11(field, p))
    if tag == "F12":
        return _instance_uni(fid, _build_f12(field, p))
    if tag in BIVARIATE_TAGS:
        _require(field.n % 2 == 0, "n=2m")
        component = field_new(field.n // 2)
        biv = _build_bivariate_known(tag, component, p)
        label = _NEW_BIVARIATE_LABEL if tag == "NewBivariate" else ""
        return _instance_biv(fid, biv, field, label=label)
    raise PreconditionError(f"unknown family tag {tag!r}")


def make_new_bivariate(m: int) -> FamilyInstance:
    """The new bivariate family over GF(2^m)^2, defined when gcd(3,m)=1.

    First coordinate ``x^3 + xy^2 + y^3 + xy``, second coordinate
    ``x^5 + x^4 y + y^5 + xy + x^2 y^2``; materialised over GF(2^(2m)) via
    the default subfield basis.
    """
    return make_known(FamilyId("NewBivariate", {"m": m}), field_new(2 * m))


def validate_trinomial_params(
    m: int, s: int, mu, v
) -> tuple[Field, LinearizedPoly, int, int]:
    """Check the trinomial family's preconditions; return (field, L, mu, v).

    ``mu``/``v`` accept FieldElement values or primitive-power exponents
    (``None`` for zero); the returned coefficient values are raw bits.
    Raises :class:`PreconditionError` naming the first violated condition:
    gcd(s,m)=1, v in GF(2^m)*, the relative norm of mu differing from 1,
    and L(z) = z^(2^(m+s)) + mu z^(2^s) + z being a permutation.
    """
    field = field_new(3 * m)
    mu_bits = _as_bits(field, mu, "mu")
    v_bits = _as_bits(field, v, "v")
    _require(math.gcd(s, m) == 1, "gcd(s,m)=1")
    _require(v_bits != 0 and _in_subfield(field, v_bits, m), "v in GF(2^m)*")
    norm_exp = (1 << (2 * m)) + (1 << m) + 1
    _require(field.pow(mu_bits, norm_exp) != 1, "mu^(2^(2m)+2^m+1) != 1")
    L = LinearizedPoly.from_exponent_terms(
        field, [(1, m + s), (mu_bits, s), (1, 0)]
    )
    _require(is_linearized_permutation(L), "L is a permutation")
    return field, L, mu_bits, v_bits


def make_new_trinomial(
    m: int, s: int, mu: FieldElement, v: FieldElement
) -> FamilyInstance:
    """The new trinomial-based family over GF(2^(3m)).

    ``f(z) = L(z)^(2^m+1) + v z^(2^m+1)`` with
    ``L(z) = z^(2^(m+s)) + mu z^(2^s) + z``.  Requires gcd(s,m)=1, a nonzero
    ``v`` in the subfield GF(2^m), ``mu`` of relative norm != 1, and ``L``
    a permutation of GF(2^(3m)).
    """
    field, L, mu_bits, v_bits = validate_trinomial_params(m, s, mu, v)
    lu = L.to_univariate()
    poly = lu.frob(m) * lu + UnivariatePoly(field, [(v_bits, (1 << m) + 1)])
    fid = FamilyId(
        "NewTrinomial",
        {
            "m": m,
            "s": s,
            "mu": _as_exponent(field, mu_bits),
            "v": _as_exponent(field, v_bits),
        },
    )
    label = (
        f"(z^{1 << (m + s)}+mu*z^{1 << s}+z)^{(1 << m) + 1}+v*z^{(1 << m) + 1}"
    )
    return _instance_uni(fid, poly, label=label)


def search_trinomial_params(m: int) -> list[tuple[int, FieldElement]]:
    """All (s, mu) making the trinomial family's preconditions hold.

    s ranges over [1, 3m) with gcd(s,m)=1 — the range under which valid
    parameters exist for every 2 <= m <= 8 (the smallest case m=2 admits
    none below s=m).  For each s, valid mu are exactly the elements that
    avoid the image set {(z^(2^(m+s)) + z) / z^(2^s) : z != 0} (equivalent
    to L being a permutation) and whose relative norm over GF(2^m) is not 1.
    Results are sorted by (s, mu-bits); an empty list is a finding, not an
    error.  The pairs are checked against the memory budget before any
    element is built.
    """
    field = field_new(3 * m)
    return [(s, field.element(int(b))) for s, good in _searched_mus(m)
            for b in good]


def _searched_mus(m: int) -> list[tuple[int, np.ndarray]]:
    """The (s, mu bits) of :func:`_trinomial_mus` with at least one mu, once
    the list of pairs a search returns or prints fits the budget."""
    found = [(s, good) for s, good in _trinomial_mus(m) if good.size]
    count = sum(good.size for _, good in found)
    check_alloc(count * _SEARCH_BYTES_PER_PAIR,
                f"trinomial search at m={m} ({count} (s, mu) pairs)")
    return found


def _trinomial_mus(m: int) -> list[tuple[int, np.ndarray]]:
    """(s, bits of every valid mu, ascending) for each s of
    :func:`search_trinomial_params`.  Before each s, the mu found so far and
    the s's sweep are checked against the budget."""
    _require(m >= 2, "m >= 2")
    _require(3 * m <= 24, "3m <= 24")
    field = field_new(3 * m)
    zs = field.all_elements_vec()[1:]
    _, log = field._tables()
    # zero, and the norm-1 elements: the powers u^(j*(2^m-1))
    excluded = np.zeros(field.order, dtype=bool)
    excluded[0] = True
    excluded[1:][log[1:] % ((1 << m) - 1) == 0] = True
    found: list[tuple[int, np.ndarray]] = []
    count = 0
    for s in range(1, 3 * m):
        if math.gcd(s, m) != 1:
            continue
        check_alloc(8 * count + field.order * _SEARCH_BYTES_PER_ELEMENT,
                    f"trinomial search at m={m} ({count} mu before s={s} "
                    f"and its sweep)")
        image_of = field.mul_vec(
            field.frob_vec(zs, m + s) ^ zs, field.inv_vec(field.frob_vec(zs, s))
        )
        blocked = excluded.copy()
        blocked[image_of] = True
        good = np.flatnonzero(~blocked)
        count += good.size
        found.append((s, good))
    return found


def make_edel_pott(field: Field, u: FieldElement | None = None) -> FamilyInstance:
    """The switched cubic over GF(2^8) attributed to Edel and Pott.

    ``p(z) = z^3 + u tr(u^63 z^3 + u^252 z^9) + u^154 tr(u^68 z^3 +
    u^235 z^9) + u^35 tr(u^216 z^3 + u^116 z^9)`` with ``u`` primitive
    (default: the field's canonical primitive element).  Whether p is APN
    depends on which primitive is chosen; see the analysis module.
    """
    _require(field.n == 8, "n = 8")
    u_bits = _primitive_bits(field, u, field.primitive, "u")

    def up(k: int) -> int:
        return field.pow(u_bits, k)

    terms: list[tuple[int, int]] = [(1, 3)]
    for outer, c3, c9 in (
        (up(1), up(63), up(252)),
        (up(154), up(68), up(235)),
        (up(35), up(216), up(116)),
    ):
        for c, e in _trace_expanded_terms(field, 1, [(c3, 3), (c9, 9)]):
            terms.append((field.mul(outer, c), e))
    poly = UnivariatePoly(field, terms)
    fid = FamilyId("EdelPottP", {"u": _as_exponent(field, u_bits)})
    return _instance_uni(
        fid,
        poly,
        label="z^3+u*tr(u^63 z^3+u^252 z^9)+u^154*tr(u^68 z^3+u^235 z^9)"
        "+u^35*tr(u^216 z^3+u^116 z^9)",
    )


# ----------------------------------------------------------------------
# published reference rows

#: Published graph-development ranks of the rows of :func:`representatives`,
#: by the paper's table number (4: GF(2^8), 5: GF(2^9)).
TABLE_RANKS = {
    4: (11818, 12370, 15358, 13200, 13800, 13842, 13642, 13700, 13798,
        13642, 13960, 14034),
    5: (38470, 41494, 38470, 58676, 61726, 60894, 130816, 47890, 48428,
        48460, 48596, 48558),
}


def representatives(
    n: int,
    u: FieldElement | None = None,
    v: FieldElement | None = None,
) -> list[FamilyInstance]:
    """The published reference rows over GF(2^8) or GF(2^9), in table order.

    Each row that is a catalog member is built and checked by its family's
    constructor, so it carries a descriptor; its label stays the printed
    form.  ``u`` is the ambient primitive the printed exponents refer to
    and, for the n=8 bivariate rows, ``v`` the GF(2^4) primitive.  An
    alternate primitive under which a member row leaves its family raises
    the family's :class:`PreconditionError`.  Two rows are no catalog
    member as printed and keep their printed form and an id without
    parameters: Table 4 row 11 (its x^2y and v x^4y^8 are 4th powers of
    F15's terms) and Table 5 row 11 (F10 needs a^2 at z^129 and c^2+c=1).

    Defaults: over GF(2^8) the canonical primitive (bits 0x3) makes every
    row APN.  Over GF(2^9) the printed coefficients of the quintic row
    assume a different representation; exactly one Frobenius orbit of
    primitive elements makes that row APN (all giving linearly equivalent
    rows, hence equal rank invariants), so the default ``u`` is the least
    member of that orbit, bits 0x7A, rather than the field's canonical
    primitive 0x7.
    """
    if n not in (8, 9):
        raise PreconditionError("representatives exist for n in {8, 9}")
    field = field_new(n)
    u_bits = _primitive_bits(field, u, 0x7A if n == 9 else field.primitive, "u")

    def up(k):  # u^k as a canonical exponent
        return _as_exponent(field, field.pow(u_bits, k))

    if n == 8:
        component = field_new(4)
        v_bits = _primitive_bits(component, v, component.primitive, "v")

        def vp(k):  # v^k as a canonical exponent of GF(2^4)
            return _as_exponent(component, component.pow(v_bits, k))

        rows = [
            ("z^3", "Gold", {"i": 1}),
            ("z^9", "Gold", {"i": 3}),
            ("z^57", "Kasami", {"i": 3}),
            ("z^3+z^17+u^48 z^18+u^3 z^33+u z^34+z^48", "F3",
             {"i": 1, "s": up(1), "c": up(3)}),
            ("z^3+tr(z^9)", "F4", {"a": up(0)}),
            ("z^3+u^-1 tr(u^3 z^9)", "F4", {"a": up(1)}),
            ("(xy, x^3+v y^12)", "F13", {"k": 1, "i": 2, "alpha": vp(1)}),
            ("(xy, x^12+x^4 y^2+y^3)", "F14", {"k": 1, "a": vp(0), "b": vp(0)}),
            ("(xy, x^12+x^4 y^2+v^7 y^3)", "F14",
             {"k": 1, "a": vp(0), "b": vp(7)}),
            ("(x^3+xy^2+y^3, x^5+x^4y+y^5)", "F16", {"i": 1}),
            ("(xy, x^3+x^2y+v x^4 y^8+v^5 y^3)", "F15", BivariateFunc(
                component,
                [(1, 1, 1)],
                [(1, 3, 0), (1, 2, 1), (v_bits, 4, 8),
                 (component.pow(v_bits, 5), 0, 3)],
            )),
            (_NEW_BIVARIATE_LABEL, "NewBivariate", {"m": 4}),
        ]
    else:
        rows = [
            ("z^3", "Gold", {"i": 1}),
            ("z^5", "Gold", {"i": 2}),
            ("z^17", "Gold", {"i": 4}),
            ("z^13", "Kasami", {"i": 2}),
            ("z^241", "Kasami", {"i": 4}),
            ("z^19", "Welch", {}),
            ("z^255", "Inverse", {}),
            ("z^3+tr(z^9)", "F4", {"a": up(0)}),
            ("z^3+tr_3(z^9+z^18)", "F5", {"a": up(0)}),
            ("z^3+tr_3(z^18+z^36)", "F6", {"a": up(0)}),
            ("z^3+u^246 z^10+u^47 z^17+u^181 z^66+u^428 z^129", "F10",
             UnivariatePoly(field, [(1, 3)] + [
                 (field.pow(u_bits, k), e)
                 for k, e in ((246, 10), (47, 17), (181, 66), (428, 129))])),
            ("(z^16+u^5 z^2+z)^9+u^73 z^9", "NewTrinomial",
             {"m": 3, "s": 1, "mu": up(5), "v": up(73)}),
        ]
    out = []
    for label, tag, spec in rows:
        if isinstance(spec, dict):
            inst = make_known(FamilyId(tag, spec), field)
        elif isinstance(spec, BivariateFunc):
            inst = _instance_biv(FamilyId(tag), spec, field)
        else:
            inst = _instance_uni(FamilyId(tag), spec)
        out.append(replace(inst, label=label))
    return out


# ----------------------------------------------------------------------
# descriptor grammar (CLI interchange format)


_BAREWORD = re.compile(r'([{,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)')


def parse_descriptor(text: str) -> dict:
    """Parse a descriptor; bare keys like ``{tag:"Gold", n:8, i:1}`` allowed."""
    text = text.strip()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        try:
            doc = json.loads(_BAREWORD.sub(r'\1"\2"\3', text))
        except json.JSONDecodeError as exc:
            raise PreconditionError(f"unparseable family descriptor: {exc}") from None
    if not isinstance(doc, dict) or "tag" not in doc:
        raise PreconditionError("family descriptor must be an object with a tag")
    return doc


def build_from_descriptor(text: str | dict) -> FamilyInstance:
    """Construct the family instance a descriptor denotes.

    The descriptor carries ``tag``, a field size (``n``, or ``m`` for
    bivariate/composite tags), and the tag's parameters with coefficients
    as primitive-power exponents (null for zero).
    """
    doc = dict(parse_descriptor(text)) if isinstance(text, str) else dict(text)
    tag = doc.pop("tag")
    if tag not in _REQUIRED_PARAMS:
        raise PreconditionError(f"unknown family tag {tag!r}")
    if tag == "EdelPottP":  # defined on GF(2^8) only; u = the canonical primitive
        doc = {"n": 8, "u": 1, **doc}
    key, per_unit = _size_rule(tag)
    # NewBivariate and NewTrinomial take m as a parameter too
    size = doc.get(key) if key in _REQUIRED_PARAMS[tag] else doc.pop(key, None)
    if size is None:
        raise PreconditionError(f"{tag} descriptor needs {key}")
    return make_known(FamilyId(tag, doc), field_new(per_unit * _as_int(size, key)))


def descriptor_for(inst: FamilyInstance) -> str:
    """Descriptor text for a constructible instance (its id plus size); an id
    without the tag's exact parameters, which would not build, raises."""
    inst.id.require_exact()
    key, per_unit = _size_rule(inst.id.tag)
    doc = {"tag": inst.id.tag, key: inst.field.n // per_unit, **inst.id.params}
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))
