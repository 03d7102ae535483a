"""Expected values and output checks that share no code with apnlab.

Every value the benchmark compares apnlab's outputs with comes from here:
either a published figure, or a small pure-Python computation with its own
GF(2^n) arithmetic under its own moduli (deliberately not the library's
defaults), its own DDT and its own dense GF(2) elimination.  The quantities
compared are invariant under the choice of modulus: a change of modulus is a
linear bijection of the field that commutes with power maps, so Γ-ranks,
differential uniformity and parameter counts do not depend on it.

The check functions return ``None`` when a result is right and a message
naming the mismatch otherwise; ``selftest.py`` shows each one rejecting a
wrong result.
"""

from __future__ import annotations

import math
import random

#: Table 4, row 12 of "Two new infinite classes of APN functions"
#: (arXiv:2105.08464): the Γ-rank of the new bivariate function
#: (x^3+xy^2+y^3+xy, x^5+x^4y+y^5+xy+x^2y^2) over GF(2^4)^2 = GF(2^8).
PAPER_TABLE4_ROW12_RANK = 14034

#: Irreducible moduli of the benchmark's own fields (bit i = coefficient of
#: x^i).  apnlab's defaults are x^6+x+1, x^7+x+1 and x^9+x+1.
MODULI = {
    6: 0b1100001,  # x^6 + x^5 + 1
    7: 0b10001001,  # x^7 + x^3 + 1
    9: 0b1000010001,  # x^9 + x^4 + 1
}


# ---------------------------------------------------------------------------
# GF(2^n) arithmetic


def gf_mul(a: int, b: int, n: int) -> int:
    mod = MODULI[n]
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= mod
    return out


def gf_pow(a: int, e: int, n: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = gf_mul(out, a, n)
        a = gf_mul(a, a, n)
        e >>= 1
    return out


def power_lut(n: int, d: int) -> list[int]:
    """Look-up table of z -> z^d over the benchmark's own GF(2^n)."""
    return [gf_pow(z, d, n) if z else 0 for z in range(1 << n)]


def is_irreducible(poly: int) -> bool:
    """Trial division by every polynomial of degree 1..deg/2."""
    deg = poly.bit_length() - 1
    for d in range(2, 1 << (deg // 2 + 1)):
        rem = poly
        dd = d.bit_length()
        while rem.bit_length() >= dd:
            rem ^= d << (rem.bit_length() - dd)
        if rem == 0:
            return False
    return deg >= 1


# ---------------------------------------------------------------------------
# differential uniformity and Γ-rank


def ddt_delta(lut: list[int]) -> int:
    """Differential uniformity: max over a != 0 and b of #{x : f(x+a)+f(x) = b}."""
    order = len(lut)
    delta = 0
    for a in range(1, order):
        counts = [0] * order
        for x in range(order):
            counts[lut[x ^ a] ^ lut[x]] += 1
        delta = max(delta, max(counts))
    return delta


def apn_histogram(n: int) -> dict[int, int]:
    """The DDT histogram every APN function on GF(2^n) has.

    Each of the 2^n - 1 rows a != 0 holds 2^(n-1) entries equal to 2 (the
    entries sum to 2^n and none exceeds 2) and 2^(n-1) zeros.
    """
    half = ((1 << n) - 1) << (n - 1)
    return {0: half, 2: half}


def dense_gamma_rank(lut: list[int], n: int) -> int:
    """GF(2) rank of the full 2^(2n) x 2^(2n) incidence matrix, row by row.

    Row (a, b) marks the translated graph {(z + a, f(z) + b)}; rows are
    Python integers and elimination keys each pivot by its top bit.
    """
    order = 1 << n
    graph = [(z, lut[z]) for z in range(order)]
    pivots: dict[int, int] = {}
    for a in range(order):
        for b in range(order):
            row = 0
            for z, fz in graph:
                row |= 1 << (((z ^ a) << n) | (fz ^ b))
            while row:
                top = row.bit_length() - 1
                p = pivots.get(top)
                if p is None:
                    pivots[top] = row
                    break
                row ^= p
    return len(pivots)


# ---------------------------------------------------------------------------
# counts the lemma verifiers must report


def trinomial_mu_count(m: int, s: int) -> int:
    """Number of mu valid for the trinomial family at (m, s).

    mu must be nonzero, of relative norm mu^(2^(2m)+2^m+1) != 1, and keep
    L(z) = z^(2^(m+s)) + mu z^(2^s) + z a permutation, i.e. avoid every
    (z^(2^(m+s)) + z) / z^(2^s) with z != 0.
    """
    n = 3 * m
    order = 1 << n
    inv = {z: gf_pow(z, order - 2, n) for z in range(1, order)}
    blocked = {
        gf_mul(gf_pow(z, 1 << (m + s), n) ^ z, inv[gf_pow(z, 1 << s, n)], n)
        for z in range(1, order)
    }
    norm = (1 << (2 * m)) + (1 << m) + 1
    return sum(
        1 for mu in range(1, order)
        if mu not in blocked and gf_pow(mu, norm, n) != 1
    )


def key_lemma_tuples(m: int, s: int) -> int:
    """(s, mu, v) tuples `apnlab verify --lemma key --m m --s s` must check."""
    return trinomial_mu_count(m, s) * ((1 << m) - 1)


def resultant_points(m: int) -> int:
    """(a, b, x) points of the full resultant sweep over GF(2^m)^3."""
    return 1 << (3 * m)


def valid_key_shifts(m: int) -> list[int]:
    """Frobenius shifts s in [1, 3m) with gcd(s, m) = 1."""
    return [s for s in range(1, 3 * m) if math.gcd(s, m) == 1]


# ---------------------------------------------------------------------------
# affine-equivalent copies


def _invertible_matrix(n: int, rng: random.Random) -> list[int]:
    """Column images of a uniformly drawn invertible n x n GF(2) matrix."""
    while True:
        cols = [rng.getrandbits(n) for _ in range(n)]
        pivots: dict[int, int] = {}
        for c in cols:
            while c:
                top = c.bit_length() - 1
                if top not in pivots:
                    pivots[top] = c
                    break
                c ^= pivots[top]
        if len(pivots) == n:
            return cols


def _apply(cols: list[int], x: int) -> int:
    out = 0
    for i, c in enumerate(cols):
        if x >> i & 1:
            out ^= c
    return out


def affine_copy(lut: list[int], n: int, rng: random.Random) -> list[int]:
    """z -> A2 f(A1 z + c1) + c2 for seeded invertible A1, A2 and constants.

    Affine equivalence is a special case of CCZ-equivalence, so the copy has
    the Γ-rank of ``lut``.
    """
    a1, a2 = _invertible_matrix(n, rng), _invertible_matrix(n, rng)
    c1, c2 = rng.getrandbits(n), rng.getrandbits(n)
    return [_apply(a2, lut[_apply(a1, z) ^ c1]) ^ c2 for z in range(1 << n)]


# ---------------------------------------------------------------------------
# checks


def check_rank(got: int, want: int) -> str | None:
    if got != want:
        return f"rank {got}, expected {want}"
    return None


def check_apn_ddt(delta: int, histogram: dict[int, int], n: int) -> str | None:
    want = apn_histogram(n)
    if delta != 2 or dict(histogram) != want:
        return f"delta {delta}, histogram {dict(histogram)}; APN forces {want}"
    return None


def check_verifier_report(doc: dict, count_key: str, want: int) -> str | None:
    if doc.get("ok") is not True:
        return f"verifier reports ok={doc.get('ok')!r}"
    if doc.get(count_key) != want:
        return f"{count_key}={doc.get(count_key)!r}, recomputed {want}"
    return None
