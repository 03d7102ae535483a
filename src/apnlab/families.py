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

The reference-row builders :func:`representatives` reproduce, literally,
the published lists of twelve pairwise CCZ-inequivalent functions over
GF(2^8) and GF(2^9) whose incidence-matrix ranks serve as goldens for the
rank engine.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .gf2n import (
    Field,
    FieldElement,
    cube_class,
    field_new,
    primitive_elements,
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
    return field.primitive_power(int(value))


def _as_exponent(field: Field, value) -> int | None:
    """Store-form of a coefficient: primitive-power exponent or None."""
    if value is None:
        return None
    if isinstance(value, FieldElement):
        if value.bits == 0:
            return None
        _, log = field._tables()
        return int(log[value.bits])
    return int(value)


def _require(cond: bool, condition_name: str) -> None:
    if not cond:
        raise PreconditionError(f"condition violated: {condition_name}")


def _primitive_bits(field: Field, value: FieldElement | None, default: int,
                    name: str) -> int:
    """Bits of ``value`` (``default`` when None), checked to be primitive."""
    if value is None:
        bits = default
    else:
        if value.field != field:
            raise PreconditionError(f"{name} must live in GF(2^{field.n})")
        bits = value.bits
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
        i = int(params["i"])
        _require(math.gcd(i, n) == 1, "gcd(i,n)=1")
        return (1 << i) + 1
    if tag == "Kasami":
        i = int(params["i"])
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
    k, s = int(params["k"]), int(params["s"])
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
    i = int(params["i"])
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
        ^ field.mul_scalar_vec(c_bits, field.pow_vec(unit_circle, 1 << i))
        ^ field.mul_scalar_vec(cq, unit_circle)
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
    s = int(params["s"])
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
    i = int(params["i"])
    valid = _f11_valid_i(m, n)
    _require(i in valid, f"i in {sorted(valid)} (i = m-2 or its inverse mod n)")
    from .gf2n import subfield_embedding

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


def _new_bivariate_form(component: Field) -> BivariateFunc:
    """The new bivariate family's two coordinates over ``component``."""
    return BivariateFunc(
        component,
        [(1, 3, 0), (1, 1, 2), (1, 0, 3), (1, 1, 1)],
        [(1, 5, 0), (1, 4, 1), (1, 0, 5), (1, 1, 1), (1, 2, 2)],
    )


def _poly_has_root(component: Field, evaluate) -> bool:
    zs = component.all_elements_vec()
    return bool((evaluate(zs) == 0).any())


def _build_bivariate_known(
    tag: str, component: Field, params: dict
) -> BivariateFunc:
    m = component.n
    if tag == "NewBivariate":
        _require(math.gcd(3, m) == 1, "gcd(3,m)=1")
        return _new_bivariate_form(component)
    if tag == "F13":
        k, i = int(params["k"]), int(params["i"])
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
        k = int(params["k"])
        a = _as_bits(component, params["a"], "a")
        b = _as_bits(component, params["b"], "b")
        _require(math.gcd(k, m) == 1, "gcd(k,m)=1")
        e = (1 << k) + 1
        _require(
            not _poly_has_root(
                component,
                lambda zs: component.pow_vec(zs, e)
                ^ component.mul_scalar_vec(a, zs)
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
        i = int(params["i"])
        b = _as_bits(component, params["b"], "b")
        c = _as_bits(component, params["c"], "c")
        _require(m % 2 == 0, "m even")
        _require(math.gcd(i, m) == 1, "gcd(i,m)=1")
        h = m // 2
        e = (1 << i) + 1

        def p2(zs):
            inner = (
                component.mul_scalar_vec(c, component.pow_vec(zs, e))
                ^ component.mul_scalar_vec(b, component.pow_vec(zs, 1 << i))
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
        i = int(params["i"])
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
        _require(field.n == per_unit * int(p[key]), f"n = {per_unit}m")
    if tag == "NewTrinomial":
        _require(field == field_new(field.n), "default modulus")
        return make_new_trinomial(int(p["m"]), int(p["s"]), p["mu"], p["v"])
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
    if isinstance(mu, FieldElement) and mu.field != field:
        raise PreconditionError(f"mu must live in GF(2^{field.n})")
    if isinstance(v, FieldElement) and v.field != field:
        raise PreconditionError(f"v must live in GF(2^{field.n})")
    mu_bits = mu.bits if isinstance(mu, FieldElement) else _as_bits(field, mu, "mu")
    v_bits = v.bits if isinstance(v, FieldElement) else _as_bits(field, v, "v")
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
            "mu": _as_exponent(field, field.element(mu_bits)),
            "v": _as_exponent(field, field.element(v_bits)),
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
    error.
    """
    _require(m >= 2, "m >= 2")
    _require(3 * m <= 24, "3m <= 24")
    field = field_new(3 * m)
    zs = field.all_elements_vec()[1:]
    _, log = field._tables()
    subgroup = (1 << m) - 1  # norm-1 elements are the powers u^(j*(2^m-1))
    out: list[tuple[int, FieldElement]] = []
    for s in range(1, 3 * m):
        if math.gcd(s, m) != 1:
            continue
        image_of = field.mul_vec(
            field.frob_vec(zs, m + s) ^ zs, field.inv_vec(field.frob_vec(zs, s))
        )
        blocked = np.zeros(field.order, dtype=bool)
        blocked[image_of] = True
        blocked[0] = True
        logs = log[1:]
        norm_one = np.zeros(field.order, dtype=bool)
        norm_one[1:][logs % subgroup == 0] = True
        good = np.flatnonzero(~blocked & ~norm_one)
        out.extend((s, field.element(int(b))) for b in good)
    return out


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
    fid = FamilyId("EdelPottP", {"u": _as_exponent(field, field.element(u_bits))})
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

#: Rows of each table whose printed forms carry representation-dependent
#: coefficients (candidates for a primitive-element sweep on mismatch).
_COEFF_ROWS = {4: (4, 6, 9, 11), 5: (11, 12)}


def _rep_rows_8(
    field: Field, component: Field, u: int, v: int
) -> list[tuple[str, str, object]]:
    """(label, tag, form) for the twelve GF(2^8) reference rows.

    ``u`` and ``v`` are the primitive elements (as bits) the printed
    coefficient exponents refer to.
    """
    U = UnivariatePoly

    def up(k):
        return field.pow(u, k)

    def vp(k):
        return component.pow(v, k)

    tr_z9 = _trace_expanded_terms(field, 1, [(1, 9)])
    u3z9 = _trace_expanded_terms(field, 1, [(up(3), 9)])
    uinv = field.inv(u)
    return [
        ("z^3", "Gold", U.monomial(field, 3)),
        ("z^9", "Gold", U.monomial(field, 9)),
        ("z^57", "Kasami", U.monomial(field, 57)),
        (
            "z^3+z^17+u^48 z^18+u^3 z^33+u z^34+z^48",
            "F3",
            U(
                field,
                [
                    (1, 3),
                    (1, 17),
                    (up(48), 18),
                    (up(3), 33),
                    (u, 34),
                    (1, 48),
                ],
            ),
        ),
        ("z^3+tr(z^9)", "F4", U(field, [(1, 3)] + tr_z9)),
        (
            "z^3+u^-1 tr(u^3 z^9)",
            "F4",
            U(field, [(1, 3)] + [(field.mul(uinv, c), e) for c, e in u3z9]),
        ),
        (
            "(xy, x^3+v y^12)",
            "F13",
            BivariateFunc(component, [(1, 1, 1)], [(1, 3, 0), (vp(1), 0, 12)]),
        ),
        (
            "(xy, x^12+x^4 y^2+y^3)",
            "F14",
            BivariateFunc(
                component, [(1, 1, 1)], [(1, 12, 0), (1, 4, 2), (1, 0, 3)]
            ),
        ),
        (
            "(xy, x^12+x^4 y^2+v^7 y^3)",
            "F14",
            BivariateFunc(
                component, [(1, 1, 1)], [(1, 12, 0), (1, 4, 2), (vp(7), 0, 3)]
            ),
        ),
        (
            "(x^3+xy^2+y^3, x^5+x^4y+y^5)",
            "F16",
            BivariateFunc(
                component,
                [(1, 3, 0), (1, 1, 2), (1, 0, 3)],
                [(1, 5, 0), (1, 4, 1), (1, 0, 5)],
            ),
        ),
        (
            "(xy, x^3+x^2y+v x^4 y^8+v^5 y^3)",
            "F15",
            BivariateFunc(
                component,
                [(1, 1, 1)],
                [(1, 3, 0), (1, 2, 1), (vp(1), 4, 8), (vp(5), 0, 3)],
            ),
        ),
        (_NEW_BIVARIATE_LABEL, "NewBivariate", _new_bivariate_form(component)),
    ]


def _rep_rows_9(field: Field, u: int) -> list[tuple[str, str, object]]:
    """(label, tag, form) for the twelve GF(2^9) reference rows."""
    U = UnivariatePoly

    def up(k):
        return field.pow(u, k)

    tr9_z9 = _trace_expanded_terms(field, 1, [(1, 9)])
    tr3_z9_z18 = _trace_expanded_terms(field, 3, [(1, 9), (1, 18)])
    tr3_z18_z36 = _trace_expanded_terms(field, 3, [(1, 18), (1, 36)])
    # row 12: (z^16 + u^5 z^2 + z)^9 + u^73 z^9
    L = U(field, [(1, 16), (up(5), 2), (1, 1)])
    row12 = L.frob(3) * L + U(field, [(up(73), 9)])
    return [
        ("z^3", "Gold", U.monomial(field, 3)),
        ("z^5", "Gold", U.monomial(field, 5)),
        ("z^17", "Gold", U.monomial(field, 17)),
        ("z^13", "Kasami", U.monomial(field, 13)),
        ("z^241", "Kasami", U.monomial(field, 241)),
        ("z^19", "Welch", U.monomial(field, 19)),
        ("z^255", "Inverse", U.monomial(field, 255)),
        ("z^3+tr(z^9)", "F4", U(field, [(1, 3)] + tr9_z9)),
        ("z^3+tr_3(z^9+z^18)", "F5", U(field, [(1, 3)] + tr3_z9_z18)),
        ("z^3+tr_3(z^18+z^36)", "F6", U(field, [(1, 3)] + tr3_z18_z36)),
        (
            "z^3+u^246 z^10+u^47 z^17+u^181 z^66+u^428 z^129",
            "F10",
            U(
                field,
                [
                    (1, 3),
                    (up(246), 10),
                    (up(47), 17),
                    (up(181), 66),
                    (up(428), 129),
                ],
            ),
        ),
        (
            "(z^16+u^5 z^2+z)^9+u^73 z^9",
            "NewTrinomial",
            row12,
        ),
    ]


def representatives(
    n: int,
    u: FieldElement | None = None,
    v: FieldElement | None = None,
) -> list[FamilyInstance]:
    """The published reference rows over GF(2^8) or GF(2^9), in table order.

    Rows are constructed literally from their printed forms, with ``u`` the
    ambient field's primitive element and (for n=8 bivariate rows) ``v`` the
    GF(2^4) primitive.  Alternate primitives may be supplied to sweep
    representation-dependent coefficients.

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
    if n == 8:
        component = field_new(4)
        v_bits = _primitive_bits(component, v, component.primitive, "v")
        rows = _rep_rows_8(field, component, u_bits, v_bits)
    else:
        rows = _rep_rows_9(field, u_bits)
    out = []
    for label, tag, form in rows:
        fid = FamilyId(tag, {})
        if isinstance(form, BivariateFunc):
            inst = _instance_biv(fid, form, field, label=label)
        else:
            inst = _instance_uni(fid, form, label=label)
        out.append(inst)
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
    return make_known(FamilyId(tag, doc), field_new(per_unit * int(size)))


def descriptor_for(inst: FamilyInstance) -> str:
    """Descriptor text for a constructible instance (its id plus size); an id
    without the tag's exact parameters, which would not build, raises."""
    inst.id.require_exact()
    key, per_unit = _size_rule(inst.id.tag)
    doc = {"tag": inst.id.tag, key: inst.field.n // per_unit, **inst.id.params}
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))
