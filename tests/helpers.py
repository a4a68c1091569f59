"""Independent reference implementations used as test oracles.

Everything here recomputes a quantity through a different route than
the package takes: per-message re-encoding instead of Gray walks,
digit-list arithmetic written from scratch instead of table lookups,
root scans instead of Frobenius-based irreducibility.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction


def naive_span(rows) -> list[int]:
    """Every word of the row span, by subset sums: word u is the sum of
    the rows that the bits of u select, so repeats are kept."""
    span = [0]
    for row in rows:
        span += [word ^ row for word in span]
    return span


def naive_min_distance(rows, n: int) -> int:
    """Minimum nonzero-codeword weight by encoding every message."""
    k = len(rows)
    best = n + 1
    for msg in range(1, 1 << k):
        cw = 0
        for j in range(k):
            if (msg >> j) & 1:
                cw ^= rows[j]
        w = bin(cw).count("1")
        if w < best:
            best = w
    return best


def popcount_min_distance(rows) -> int:
    """Minimum nonzero-codeword weight by a Gray walk of every message,
    one XOR and one popcount a codeword: for rows too long for the
    per-message encoding and bit strings of naive_min_distance."""
    best, cw = None, 0
    for h in range(1, 1 << len(rows)):
        cw ^= rows[(h & -h).bit_length() - 1]
        w = cw.bit_count()
        if best is None or w < best:
            best = w
    return best


def naive_weight_hist(rows, n: int) -> list[int]:
    hist = [0] * (n + 1)
    k = len(rows)
    for msg in range(1 << k):
        cw = 0
        for j in range(k):
            if (msg >> j) & 1:
                cw ^= rows[j]
        hist[bin(cw).count("1")] += 1
    return hist


def gv_definition(n: int, k: int) -> int:
    """Gilbert-Varshamov distance straight from its definition: the
    largest d <= n with sum_{i <= d-2} C(n-1, i) < 2^(n-k), each term
    from math.comb."""
    d = 1
    total = 0
    while d < n:
        total += math.comb(n - 1, d - 1)
        if total >= 1 << (n - k):
            break
        d += 1
    return d


def ref_ext_mul(p: int, m: int, modulus, a: int, b: int) -> int:
    """GF(p^m) product on indices, written independently of the field
    module: digit lists, convolution, then long reduction."""
    def digits(v):
        out = []
        for _ in range(m):
            out.append(v % p)
            v //= p
        return out

    da, db = digits(a), digits(b)
    prod = [0] * (2 * m)
    for i in range(m):
        for j in range(m):
            prod[i + j] += da[i] * db[j]
    prod = [c % p for c in prod]
    for top in range(2 * m - 1, m - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for j in range(m + 1):
                prod[top - m + j] = (prod[top - m + j] - c * modulus[j]) % p
    out = 0
    for c in reversed(prod[:m]):
        out = out * p + c
    return out


def ref_ext_pow(p: int, m: int, modulus, a: int, e: int) -> int:
    """a**e for e >= 0 by square and multiply over ref_ext_mul, with no
    reduction of the exponent."""
    out = 1
    while e:
        if e & 1:
            out = ref_ext_mul(p, m, modulus, out, a)
        a = ref_ext_mul(p, m, modulus, a, a)
        e >>= 1
    return out


def brute_order(field, a: int) -> int:
    """Multiplicative order of nonzero a, by stepping through its powers
    with ref_ext_mul until 1 comes back."""
    v, t = a, 1
    while v != 1:
        v, t = ref_ext_mul(field.p, field.m, field.modulus, v, a), t + 1
    return t


def ref_eval(f, x) -> int:
    """f at x by Horner's rule on the field's add and mul, one call per
    step, without the package's evaluator."""
    field = f.field
    v = 0
    for c in reversed(f.coeffs):
        v = field.add(field.mul(v, x), c)
    return v


def naive_curve_points(spec) -> int:
    """Affine points of y^2 = gamma prod(P_i(x)): each x is matched
    against the multiset {y*y : y in the field}, with no square test
    and no character row."""
    field = spec.field
    squares = Counter(field.mul(y, y) for y in range(field.q))
    total = 0
    for x in range(field.q):
        v = spec.gamma
        for f in spec.factors:
            v = field.mul(v, ref_eval(f, x))
        total += squares[v]
    return total


def surd_value(a, b, q: int):
    """a + b sqrt(q) for rational a, b: exact Fraction arithmetic on
    a + b isqrt(q) when q is a perfect square, else a 60-digit Decimal.
    With q not a square, a nonzero X + Y sqrt(q) with integer X, Y is at
    least 1 / (|X| + |Y| sqrt(q)) in size, so at the sizes the tests draw
    the value lies far further from every integer than the rounding, and
    the Decimal's sign and ceiling are exact."""
    a, b = Fraction(a), Fraction(b)
    r = math.isqrt(q)
    if r * r == q:
        return a + b * r
    with localcontext() as ctx:
        ctx.prec = 60
        return (
            Decimal(a.numerator) / a.denominator
            + Decimal(b.numerator) / b.denominator * Decimal(q).sqrt()
        )


def ref_divmod(f, g):
    """(quotient, remainder) of f by a nonzero g, by schoolbook division
    on coefficient lists held high degree first: each step divides the
    top of the remainder by the lead of g, subtracts that multiple of g
    as add(., neg(.)), and drops the cancelled top."""
    from shadowcodes.poly import Poly

    field = f.field
    num = list(reversed(f.coeffs))
    den = list(reversed(g.coeffs))
    quo = []
    while len(num) >= len(den):
        c = field.mul(num[0], field.inv(den[0]))
        quo.append(c)
        for j, d in enumerate(den):
            num[j] = field.add(num[j], field.neg(field.mul(c, d)))
        assert num.pop(0) == 0
    return Poly(field, reversed(quo)), Poly(field, reversed(num))


def oracle_irreducible(f) -> bool:
    """Degree <= 4 irreducibility by root scans and quadratic division,
    with no Frobenius computation anywhere."""
    d = f.degree
    field = f.field
    if d < 1:
        raise ValueError("needs degree >= 1")
    if d == 1:
        return True
    if any(ref_eval(f, x) == 0 for x in range(field.q)):
        return False
    if d <= 3:
        return True
    if d == 4:
        from shadowcodes.poly import Poly

        for c1 in range(field.q):
            for c0 in range(field.q):
                g = Poly(field, (c0, c1, 1))
                if any(ref_eval(g, x) == 0 for x in range(field.q)):
                    continue
                if (f % g).is_zero:
                    return False
        return True
    raise ValueError("oracle stops at degree 4")


def reducible_monic_quadratics(field) -> set[tuple[int, int]]:
    """(c, b) of every x^2 + bx + c that splits, as (x - r)(x - s) over
    all root pairs r <= s: no character and no Frobenius."""
    q = field.q
    return {
        (field.mul(r, s), field.neg(field.add(r, s)))
        for r in range(q)
        for s in range(r, q)
    }


def euler_row(f, points):
    """The row of f over points from Horner's rule on the field's add
    and mul and Euler's criterion a^((q - 1)/2) != 1, with no character
    string: bit j is set where f(points[j]) is a non-square.  Returns
    ("vanishes", beta) at the first point beta where f is zero."""
    field = f.field
    half = (field.q - 1) // 2
    row = 0
    for j, beta in enumerate(points):
        v = ref_eval(f, beta)
        if v == 0:
            return ("vanishes", beta)
        if field.pow(v, half) != 1:
            row |= 1 << j
    return row


def moebius(n: int) -> int:
    out = 1
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
        f += 1
    if n > 1:
        out = -out
    return out


def necklace_count(q: int, d: int) -> int:
    """Number of monic irreducible degree-d polynomials over GF(q)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += moebius(d // e) * q**e
    return total // d


def ref_concat_rows(m: int, N: int, K: int, modulus) -> list[list[int]]:
    """Generator rows of the RS/RM1 concatenation as bit lists, one per
    unit message, on ref_ext_mul arithmetic over GF(2^(m+1)) with the
    given modulus: theta's basis is the powers of the least element of
    full order, the outer word is the message polynomial at 1..N, and
    each symbol goes back to its bits by search before its RM1 block is
    written out coordinate by coordinate."""
    deg = m + 1
    q = 1 << deg

    def mul(a, b):
        return ref_ext_mul(2, deg, modulus, a, b)

    def order(a):
        v, t = a, 1
        while v != 1:
            v, t = mul(v, a), t + 1
        return t

    alpha = next(a for a in range(1, q) if order(a) == q - 1)
    basis = [1]
    for _ in range(m):
        basis.append(mul(basis[-1], alpha))

    def theta(bits):
        out = 0
        for b, e in zip(bits, basis):
            if b:
                out ^= e  # characteristic 2: add the coefficient bits mod 2
        return out

    preimage = {}
    for v in range(q):
        bits = [(v >> i) & 1 for i in range(deg)]
        preimage[theta(bits)] = bits
    rows = []
    for j in range(K * deg):
        message = [0] * (K * deg)
        message[j] = 1
        coeffs = [theta(message[i * deg : (i + 1) * deg]) for i in range(K)]
        word = []
        for beta in range(1, N + 1):
            s, power = 0, 1
            for c in coeffs:
                s ^= mul(c, power)
                power = mul(power, beta)
            v = preimage[s]
            for t in range(1 << m):
                word.append((v[0] + sum(v[i + 1] * ((t >> i) & 1) for i in range(m))) % 2)
        rows.append(word)
    return rows
