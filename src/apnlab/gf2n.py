"""Arithmetic in GF(2^n) with plain-int elements and numpy bulk helpers.

Field elements are integers in ``[0, 2^n)`` whose bits are the coefficients of
the polynomial representative (bit i = coefficient of x^i).  A :class:`Field`
carries the modulus, lazily built log/exp tables, for n <= 10 a lazily built
table of all products and, for n <= 16, one lazily built map x -> x^e per
exponent in use; :class:`FieldElement` is a thin operator-overloading wrapper
used by the symbolic layers.  Bulk paths (truth tables, difference counting,
rank feeds) work on numpy integer arrays through the ``*_vec`` methods.
"""

from __future__ import annotations

import math
import operator
import re
import threading
from functools import lru_cache

import numpy as np

from .bitlinalg import check_alloc
from .errors import PreconditionError

__all__ = [
    "DEFAULT_MODULI",
    "Field",
    "FieldElement",
    "SubfieldMap",
    "cube_class",
    "field_from_header",
    "field_new",
    "poly_is_irreducible",
    "primitive_elements",
    "subfield_embedding",
]

# Lexicographically least irreducible polynomial of each degree (bit i is the
# coefficient of x^i), shipped as a fixed table so default fields are stable
# across versions.  Verified by tests against an independent sieve.
DEFAULT_MODULI: dict[int, int] = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
}

_MAX_TABLE_N = 24  # log/exp tables are built only up to this size
#: Peak bytes per element of a table build: exp 16, log 4, log's index run 4.
#: Measured (tracemalloc): 24.02 B at n = 22, 20.0 B held afterwards.
_TABLE_BYTES_PER_ELEMENT = 24
#: Largest n whose :meth:`Field.mul_vec` gathers through the table of all
#: products (4 B per pair, 4 MiB at n = 10); larger fields add logs.
_PRODUCT_TABLE_MAX_N = 10
#: Elements of a product table built per step (a block of rows), so the
#: build's temporaries stay at 512 KiB whatever the field.
_PRODUCT_BLOCK_ELEMENTS = 1 << 15
#: Largest n whose :meth:`Field.pow_vec` gathers through a map x -> x^e
#: (4 B per element, 256 KiB at n = 16); larger fields multiply logs.
_POWER_MAP_MAX_N = 16
#: Bytes of maps a field keeps (64 maps at n = 16); a new map past this
#: replaces the oldest, so evaluating many exponents cannot grow a cached
#: field without bound.
_POWER_MAP_BYTES = 16 << 20


# ---------------------------------------------------------------------------
# GF(2)[x] arithmetic on int-encoded polynomials


def _pdeg(a: int) -> int:
    return a.bit_length() - 1


def _pmod(a: int, m: int) -> int:
    dm = _pdeg(m)
    while _pdeg(a) >= dm:
        a ^= m << (_pdeg(a) - dm)
    return a


def _pmulmod(a: int, b: int, m: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a = _pmod(a << 1, m)
    return _pmod(r, m)


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _prime_factors(k: int) -> list[int]:
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def poly_is_irreducible(p: int) -> bool:
    """Whether the int-encoded polynomial is irreducible over GF(2).

    Uses Rabin's criterion: x^(2^d) == x (mod p) and, for every prime q | d,
    gcd(x^(2^(d/q)) + x, p) == 1.
    """
    d = _pdeg(p)
    if d < 1:
        return False
    if d == 1:
        return True
    if not p & 1:  # x divides p
        return False
    x = 0b10
    t = x
    for _ in range(d):
        t = _pmulmod(t, t, p)
    if t != x:
        return False
    for q in _prime_factors(d):
        t = x
        for _ in range(d // q):
            t = _pmulmod(t, t, p)
        if _pgcd(t ^ x, p) != 1:
            return False
    return True


# ---------------------------------------------------------------------------


class Field:
    """GF(2^n) under a fixed irreducible modulus.

    Elements are ints; the scalar methods (:meth:`mul`, :meth:`inv`, ...) and
    the numpy bulk methods (:meth:`mul_vec`, :meth:`pow_vec`, ...) all share
    this representation.  ``primitive`` is the least element (by bit pattern)
    of multiplicative order 2^n - 1.
    """

    __slots__ = ("n", "modulus", "order", "mult_order", "primitive",
                 "_exp", "_log", "_products", "_maps", "_lock")

    def __init__(self, n: int, modulus: int | None = None):
        if not 1 <= n <= 64:
            raise PreconditionError(f"field degree in [1, 64], got {n}")
        if modulus is None:
            if n not in DEFAULT_MODULI:
                raise PreconditionError(
                    f"no default modulus for n={n} (defaults cover n <= 24); "
                    "pass modulus explicitly")
            modulus = DEFAULT_MODULI[n]
        if _pdeg(modulus) != n or not poly_is_irreducible(modulus):
            raise PreconditionError(
                f"modulus must be irreducible of degree {n}, got 0x{modulus:x}")
        self.n = n
        self.modulus = modulus
        self.order = 1 << n
        self.mult_order = self.order - 1
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._products: np.ndarray | None = None  # entry (a << n) | b = a * b
        self._maps: dict[int, np.ndarray] = {}  # e mod (2^n - 1) -> x^e
        self._lock = threading.Lock()  # one build of each table and map
        self.primitive = self._find_primitive()

    # -- identity ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Field) and self.n == other.n
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.n, self.modulus))

    def __repr__(self) -> str:
        return f"GF(2^{self.n}, modulus=0x{self.modulus:x})"

    def header(self) -> str:
        """One-line serialization: ``n=<int> modulus=0x<hex> primitive=0x<hex>``."""
        return (f"n={self.n} modulus=0x{self.modulus:x} "
                f"primitive=0x{self.primitive:x}")

    # -- scalar arithmetic ---------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        m, n = self.modulus, self.n
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> n:
                a ^= m
        return r

    def _mul_raw_vec(self, a: np.ndarray, c: int) -> np.ndarray:
        """Elementwise c * a by shift-and-add, without the tables."""
        m, n = np.uint32(self.modulus), self.n
        a = np.array(a, dtype=np.uint32)
        r = np.zeros_like(a)
        while c:
            if c & 1:
                r ^= a
            c >>= 1
            a <<= 1
            a ^= (a >> n) * m
        return r

    def mul(self, a: int, b: int) -> int:
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            return int(self._exp[int(self._log[a]) + int(self._log[b])])
        return self._mul_raw(a, b)

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def pow(self, a: int, e: int) -> int:
        """a**e with the function-semantics conventions 0^0 = 1, 0^e = 0 (e > 0)."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("inverse of 0 in " + repr(self))
            return 0
        e %= self.mult_order
        if self._log is not None:
            return int(self._exp[(int(self._log[a]) * e) % self.mult_order])
        r, b = 1, a
        while e:
            if e & 1:
                r = self._mul_raw(r, b)
            b = self._mul_raw(b, b)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in " + repr(self))
        return self.pow(a, -1)

    def _trace_steps(self, m: int) -> int:
        """n / m, the terms of a trace onto GF(2^m); PreconditionError unless
        m is a positive divisor of n."""
        if not (1 <= m and self.n % m == 0):
            raise PreconditionError(
                f"trace target degree must be a positive divisor of n: m={m}, n={self.n}")
        return self.n // m

    def trace_to(self, m: int, a: int) -> int:
        """Relative trace onto the subfield GF(2^m): sum of a^(2^(m*i))."""
        acc = 0
        cur = a
        for _ in range(self._trace_steps(m)):
            acc ^= cur
            for _ in range(m):
                cur = self.sqr(cur)
        return acc

    def _find_primitive(self) -> int:
        if self.mult_order == 1:
            return 1
        ps = _prime_factors(self.mult_order)
        for a in range(2, self.order):
            if all(self.pow(a, self.mult_order // p) != 1 for p in ps):
                return a
        raise AssertionError("no primitive element found")  # pragma: no cover

    # -- elements ------------------------------------------------------------

    def element(self, bits: int) -> "FieldElement":
        return FieldElement(self, self.coerce(bits))

    def coerce(self, value: "FieldElement | int") -> int:
        """An int (anything ``operator.index`` takes) or a FieldElement of
        this field, as its bits: the one gate of scalar operands, so any
        other value, or an int outside ``[0, 2^n)``, is PreconditionError."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise PreconditionError(
                    f"mixed-field operands: {value.field!r} vs {self!r}")
            return value.bits
        try:
            bits = operator.index(value)
        except TypeError:
            raise PreconditionError(
                f"GF(2^{self.n}) elements are ints, got {value!r}") from None
        if not 0 <= bits < self.order:
            raise PreconditionError(
                f"element bits out of range [0, 2^{self.n}): {bits}")
        return bits

    def primitive_power(self, k: int) -> int:
        """The element primitive**k (k may be negative)."""
        return self.pow(self.primitive, k)

    # -- tables and bulk operations -------------------------------------------

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The exp/log tables of the canonical primitive element g.

        ``exp`` holds g^0..g^(2m-1) for m = 2^n - 1, so a sum of two logs
        needs no reduction, then a zero tail of 2m + 1 entries; ``log[0]``
        is 2m, so any sum with a zero operand lands in that tail and reads
        0.  Logs are int32: a sum of two is at most 4m < 2^26 for n <= 24.
        Built once, under the field's lock, as the product table is.
        """
        if self._log is None:
            if self.n > _MAX_TABLE_N:
                raise PreconditionError(
                    f"log/exp tables unsupported beyond n={_MAX_TABLE_N}")
            with self._lock:
                if self._log is None:
                    check_alloc(_TABLE_BYTES_PER_ELEMENT << self.n,
                                f"GF(2^{self.n}) log/exp table build")
                    m = self.mult_order
                    exp = np.zeros(4 * m + 1, dtype=np.uint32)
                    exp[0] = 1
                    k = 1
                    while k < m:  # g^(k..2k-1) = g^(0..k-1) * g^k
                        step = min(k, m - k)
                        g_k = self._mul_raw(int(exp[k - 1]), self.primitive)
                        exp[k:k + step] = self._mul_raw_vec(exp[:step], g_k)
                        k += step
                    assert self._mul_raw(int(exp[m - 1]), self.primitive) == 1, \
                        "primitive does not have full order"
                    exp[m:2 * m] = exp[:m]
                    log = np.empty(self.order, dtype=np.int32)
                    log[0] = 2 * m
                    log[exp[:m]] = np.arange(m, dtype=np.int32)
                    self._exp, self._log = exp, log  # _log last: the fast path tests it
        return self._exp, self._log

    def all_elements_vec(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.uint32)

    def _product_table(self) -> np.ndarray | None:
        """The table of all products, entry ``(a << n) | b`` = a * b, for
        n <= ``_PRODUCT_TABLE_MAX_N`` (None above).

        Built once, under the field's lock, so the ranges of a split pass
        that meet it unbuilt share one build, and in blocks of rows, so the
        log sums never take a temporary of the table's size.
        """
        table = self._products
        if table is None and self.n <= _PRODUCT_TABLE_MAX_N:
            exp, log = self._tables()
            with self._lock:
                table = self._products
                if table is None:
                    order = self.order
                    rows = min(order, _PRODUCT_BLOCK_ELEMENTS >> self.n)
                    # a block's int32 log sums, take's intp copy of them
                    # and its buffered output: 16 B an entry
                    check_alloc((4 << 2 * self.n) + 16 * rows * order,
                                f"GF(2^{self.n}) product table")
                    table = np.empty(order * order, dtype=np.uint32)
                    for lo in range(0, order, rows):
                        hi = min(order, lo + rows)
                        exp.take(log[lo:hi, None] + log,
                                 out=table[lo * order: hi * order].reshape(-1, order))
                    self._products = table
        return table

    def _refuse(self) -> IndexError:
        return IndexError(f"GF(2^{self.n}) operands are ints in [0, 2^{self.n})")

    def _uint32(self, a) -> np.ndarray:
        """Operand ``a`` (an array or an int) as a uint32 array, the one gate
        of the ``*_vec`` methods: a uint32 array passes unchanged, since the
        gathers bounds-check it; any other is IndexError unless its dtype is
        integer and its entries lie in ``[0, 2^n)``, where the cast keeps them."""
        a = np.asarray(a)
        if a.dtype == np.uint32:
            return a
        if a.dtype.kind not in "biu" or (
                a.size and (a.min() < 0 or a.max() >= self.order)):
            raise self._refuse()
        return a.astype(np.uint32)

    def _pack(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The index ``(a << n) | b`` of two uint32 operands; IndexError for an
        entry >= 2^n, which no gather would refuse: b would alias another
        index, and a << n wraps from a >= 2^(32-n)."""
        if a.size and b.size and (a.max() >= self.order or b.max() >= self.order):
            raise self._refuse()
        return (a << self.n) | b

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two arrays of field elements (broadcasting;
        either may be an int).

        Up to n = 10 one gather through the table of all products; above,
        log arithmetic.  An operand outside ``[0, 2^n)`` raises IndexError.
        """
        a, b = self._uint32(a), self._uint32(b)
        table = self._product_table()
        if table is None:
            exp, log = self._tables()
            return exp.take(log.take(a) + log.take(b))
        if a.size > b.size:
            # the product commutes: shift the operand with fewer entries,
            # a (P, 1) column rather than the grid it is broadcast against
            a, b = b, a
        return table.take(self._pack(a, b))

    #: c * a for a scalar c: the same call as :meth:`mul_vec`, kept under
    #: this name because the benchmark's tracer wraps it by name.
    mul_scalar_vec = mul_vec

    def _power_map(self, r: int) -> np.ndarray:
        """The map x -> x^r over all 2^n elements (0 -> 0), for 0 <= r <
        2^n - 1; built once, under a lock, so the ranges of a split pass
        that meet it unbuilt share one build."""
        table = self._maps.get(r)
        if table is None:
            exp, log = self._tables()
            with self._lock:
                table = self._maps.get(r)
                if table is None:
                    check_alloc(4 << self.n, f"GF(2^{self.n}) map x -> x^{r}")
                    table = np.zeros(self.order, dtype=np.uint32)
                    m = self.mult_order
                    table[1:] = exp.take(log[1:].astype(np.int64) * r % m)
                    if len(self._maps) >= _POWER_MAP_BYTES >> (self.n + 2):
                        del self._maps[next(iter(self._maps))]  # the oldest
                    self._maps[r] = table
        return table

    def pow_vec(self, a: np.ndarray, e: int) -> np.ndarray:
        """Elementwise a**e (scalar integer e; 0^0 = 1, 0^e = 0 for e > 0).

        Up to n = 16 one gather through the map x -> x^(e mod 2^n - 1);
        above, log arithmetic.  An operand outside ``[0, 2^n)`` raises
        IndexError."""
        a = self._uint32(a)
        if e == 0:
            if a.size and a.max() >= self.order:  # no gather checks it
                raise self._refuse()
            return np.ones_like(a)
        if e < 0 and not a.all():
            raise ZeroDivisionError("inverse of 0 in " + repr(self))
        m = self.mult_order
        if self.n <= _POWER_MAP_MAX_N:
            return self._power_map(e % m).take(a)
        exp, log = self._tables()
        if e % m in (1, 2):
            # a nonzero log times 1 or 2 stays below 2m, and a zero's log 2m
            # lands in the zero tail, so no reduction and no mask; times 3 a
            # nonzero log can reach the tail and a zero's passes the end
            return exp.take(log.take(a) * (e % m))
        la = log.take(a.ravel())
        zero = la == 2 * m
        # int64 before the product: log * e overflows int32 from n = 16 on
        idx = la.astype(np.int64)
        idx *= e % m
        idx %= m
        idx[zero] = 2 * m
        return exp.take(idx).reshape(a.shape)

    def inv_vec(self, a: np.ndarray) -> np.ndarray:
        return self.pow_vec(a, -1)

    def sqr_vec(self, a: np.ndarray) -> np.ndarray:
        return self.pow_vec(a, 2)

    def frob_vec(self, a: np.ndarray, k: int = 1) -> np.ndarray:
        """Elementwise a^(2^k) (k-fold Frobenius)."""
        return self.pow_vec(a, pow(2, k, self.mult_order) if self.mult_order > 1 else 1)

    def trace_vec(self, m: int, a: np.ndarray) -> np.ndarray:
        steps = self._trace_steps(m)
        cur = self._uint32(a)
        acc = np.zeros_like(cur)
        for _ in range(steps):
            acc = acc ^ cur
            cur = self.frob_vec(cur, m)
        return acc


def field_new(n: int, modulus: int | None = None) -> Field:
    """GF(2^n); with no modulus, use the shipped default table.

    Fields are immutable, so one instance per (n, modulus) is shared: family
    builders and sweeps ask for the same field thousands of times, and each
    fresh instance would redo the primitive search and the exp/log tables.
    An explicit default modulus gives the same instance as none.
    """
    return _shared_field(n, DEFAULT_MODULI.get(n) if modulus is None else modulus)


@lru_cache(maxsize=32)
def _shared_field(n: int, modulus: int | None) -> Field:
    return Field(n, modulus)


_HEADER_RE = re.compile(
    r"^n=(\d+) modulus=0x([0-9a-fA-F]+) primitive=0x([0-9a-fA-F]+)\s*$")


def field_from_header(line: str) -> Field:
    """Parse the ``n=.. modulus=0x.. primitive=0x..`` header line."""
    m = _HEADER_RE.match(line)
    if not m:
        raise PreconditionError(f"malformed field header: {line!r}")
    n, modulus, primitive = int(m.group(1)), int(m.group(2), 16), int(m.group(3), 16)
    f = field_new(n, modulus)
    if f.primitive != primitive:
        raise PreconditionError(
            f"header primitive 0x{primitive:x} is not the least generator "
            f"0x{f.primitive:x} of 0x{modulus:x}")
    return f


class FieldElement:
    """An element of a specific :class:`Field`, supporting operator syntax."""

    __slots__ = ("field", "bits")

    def __init__(self, field: Field, bits: int):
        self.field = field
        self.bits = bits

    def __add__(self, other: "FieldElement | int") -> "FieldElement":
        return FieldElement(self.field, self.bits ^ self.field.coerce(other))

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other: "FieldElement | int") -> "FieldElement":
        f = self.field
        return FieldElement(f, f.mul(self.bits, f.coerce(other)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.field, self.field.pow(self.bits, e))

    def __truediv__(self, other: "FieldElement | int") -> "FieldElement":
        f = self.field
        return FieldElement(f, f.mul(self.bits, f.inv(f.coerce(other))))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.bits))

    def trace(self) -> int:
        """Absolute trace, as a bit."""
        return self.field.trace_to(1, self.bits)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.bits == other.bits
        if isinstance(other, int):
            return self.bits == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.bits))

    def __lt__(self, other: "FieldElement") -> bool:
        return self.bits < self.field.coerce(other)

    def __int__(self) -> int:
        return self.bits

    __index__ = __int__

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return f"GF(2^{self.field.n}):0x{self.bits:x}"


def cube_class(field: Field, z: "FieldElement | int") -> str:
    """Classify z as ``'zero'``, ``'cube'`` or ``'noncube'``.

    Cubes form a proper subgroup only when 3 | 2^n - 1, i.e. for even n; for
    odd n every nonzero element is a cube.
    """
    bits = field.coerce(z)
    if bits == 0:
        return "zero"
    if field.n % 2:
        return "cube"
    return "cube" if field.pow(bits, field.mult_order // 3) == 1 else "noncube"


def primitive_elements(field: Field) -> list[FieldElement]:
    """All elements of multiplicative order 2^n - 1, sorted by bit pattern."""
    m = field.mult_order
    if m == 1:
        return [field.element(1)]
    exp, _ = field._tables()
    bits = sorted(int(exp[j]) for j in range(m) if math.gcd(j, m) == 1)
    return [FieldElement(field, b) for b in bits]


# ---------------------------------------------------------------------------
# Subfield embeddings and the pair <-> extension correspondence


@lru_cache(maxsize=None)
def _subfield_root(parent_n: int, parent_modulus: int, comp_n: int,
                   comp_modulus: int) -> int:
    """Least root in the parent field of the component field's modulus.

    Keyed by ints, so the unbounded cache keeps no field's tables alive."""
    parent = field_new(parent_n, parent_modulus)
    zs = parent.all_elements_vec()
    acc = np.zeros_like(zs)
    for i in range(comp_n + 1):
        if (comp_modulus >> i) & 1:
            acc = acc ^ parent.pow_vec(zs, i)
    roots = np.flatnonzero(acc == 0)
    assert roots.size == comp_n, "irreducible modulus must have deg-many roots"
    return int(roots[0])


def subfield_embedding(parent: Field, component: Field) -> np.ndarray:
    """Table of the canonical embedding GF(2^m) -> GF(2^n), m | n.

    Sends the component's polynomial generator to the least parent root of the
    component modulus; entry x of the returned array is the parent image of x.
    """
    if parent.n % component.n:
        raise PreconditionError(
            f"subfield degree must divide parent degree: {component.n} | {parent.n} fails")
    root = _subfield_root(parent.n, parent.modulus, component.n, component.modulus)
    table = np.zeros(component.order, dtype=np.uint32)
    xs = np.arange(component.order, dtype=np.uint32)
    power = np.full(component.order, 1, dtype=np.uint32)
    for i in range(component.n):
        sel = ((xs >> i) & 1).astype(bool)
        table[sel] ^= power[sel]
        power = parent.mul_vec(power, np.full(component.order, root, dtype=np.uint32))
    return table


class SubfieldMap:
    """Identification of GF(2^m) x GF(2^m) with GF(2^(2m)).

    A pair (x, y) maps to embed(x) + embed(y)*beta where embed is the
    canonical subfield embedding and beta is the least parent element
    outside the embedded subfield, so that (1, beta) is a basis of the
    parent over the embedded subfield.
    """

    def __init__(self, parent: Field, component: Field):
        if parent.n != 2 * component.n:
            raise PreconditionError(
                f"parent degree must be twice the component degree: "
                f"{parent.n} != 2*{component.n}")
        self.parent = parent
        self.component = component
        sub = subfield_embedding(parent, component)
        sub_set = np.zeros(parent.order, dtype=bool)
        sub_set[sub] = True
        beta = int(np.flatnonzero(~sub_set)[0])
        m = component.n
        xs = np.repeat(sub, component.order)       # embed(x), x major
        ys = np.tile(sub, component.order)         # embed(y), y minor
        pair = xs ^ parent.mul_vec(beta, ys)
        self._embed = pair  # index (x << m) | y
        split = np.empty(parent.order, dtype=np.uint32)
        split[pair] = np.arange(parent.order, dtype=np.uint32)
        self._split = split  # parent bits -> (x << m) | y
        self._m = m

    def embed_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        c = self.component
        return self._embed[c._pack(c._uint32(xs), c._uint32(ys))]

    def split_vec(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        packed = self._split[self.parent._uint32(zs)]
        return packed >> self._m, packed & np.uint32(self.component.order - 1)
