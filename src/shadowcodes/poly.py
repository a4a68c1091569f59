"""Univariate polynomials over a Field.

Coefficients are stored low degree first as canonical element indices,
mirroring the digit convention of the field module, so the text form
"1,0,1" is x^2 + 1 whatever the field.  The zero polynomial has an
empty coefficient tuple and degree -1.
"""

from __future__ import annotations

from itertools import compress, islice, repeat
from operator import eq
from typing import Iterable, Iterator

from .errors import (
    BadParameters,
    ConstantInput,
    DivisionByZero,
    ExhaustedSupply,
    FieldMismatch,
)
from .field import TABLE_LIMIT, Field


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: "Field", coeffs: Iterable[int]):
        cs = list(coeffs)
        for c in cs:
            if not 0 <= c < field.q:
                raise BadParameters(f"coefficient {c} out of range for GF({field.q})")
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: "Field") -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: "Field") -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: "Field") -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: "Field", c: int) -> "Poly":
        return cls(field, (c,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check_field(self, other: "Poly") -> None:
        if self.field is not other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "Poly") -> "Poly":
        """Schoolbook product, one output slice per coefficient of the
        shorter factor, on the field's byte rows where it has them."""
        self._check_field(other)
        f = self.field
        a, b = sorted((self.coeffs, other.coeffs), key=len)
        if not a:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        rows = f.byte_rows()
        for i, ai in enumerate(a):
            if ai:
                span = slice(i, i + len(b))
                if rows:
                    sums, row = rows[0], rows[1][ai]
                    out[span] = [sums[o][row[bj]] for o, bj in zip(out[span], b)]
                else:
                    out[span] = [f.add(o, f.mul(ai, bj)) for o, bj in zip(out[span], b)]
        return Poly(f, out)

    def __mod__(self, other: "Poly") -> "Poly":
        """Remainder of long division by other; each step adds c * other
        with c = top * (-1 / lead), so the negation is taken once."""
        self._check_field(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        g, d = other.coeffs, other.degree
        rem = list(self.coeffs)
        neg_inv_lead = f.neg(f.inv(g[-1]))
        for i in range(len(rem) - 1 - d, -1, -1):
            c = f.mul(rem[i + d], neg_inv_lead)
            if c:
                for j, gj in enumerate(g):
                    rem[i + j] = f.add(rem[i + j], f.mul(c, gj))
        return Poly(f, rem)

    def __call__(self, point: int) -> int:
        return self.field.horner(self.coeffs, (point,))[0]

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({poly_to_text(self)} over {self.field!r})"


def x_minus(field: "Field", lam: int) -> Poly:
    """The monic linear polynomial with root lam."""
    return Poly(field, (field.neg(lam), 1))


def chi_row(f: Poly, points) -> str:
    """chi of f at each of points, distinct element indices in ascending
    order over an odd field, as an EvaluationSet holds them.

    A constant reads one character.  Over a prefix range(n) with 2n >= q,
    a monic x + c is chi translated by c, and a monic x^2 + bx + c =
    (x + b/2)^2 + c - (b/2)^2 is chi translated by c - (b/2)^2, read at
    the squares, then translated by b/2; either is cut to n.  Every
    other f, and f over any other points, is one Field.horner_chi pass."""
    field, n = f.field, len(points)
    if f.degree < 1:
        return field.chi[f(0)] * n
    if not (f.is_monic and f.degree <= 2 and 2 * n >= field.q and points[-1] == n - 1):
        return field.horner_chi(f.coeffs, points)
    chi = field.chi_string()
    if f.degree == 1:
        return field.translate(chi, f.coeffs[0])[:n]
    c, b = f.coeffs[:2]
    half_b = field.mul(b, field.inv(2))
    shift = field.add(c, field.neg(field.mul(half_b, half_b)))
    return field.translate(field.gather_squares(field.translate(chi, shift)), half_b)[:n]


def gcd(f: Poly, g: Poly) -> Poly:
    """A greatest common divisor: the last nonzero Euclid remainder, not
    made monic, since callers read only its degree."""
    f._check_field(g)
    while not g.is_zero:
        f, g = g, f % g
    return f


def powmod(f: Poly, e: int, modulus: Poly) -> Poly:
    """f**e reduced by modulus, by square and multiply."""
    if e < 0:
        raise BadParameters("negative exponent")
    base = f % modulus
    out = Poly.one(f.field) % modulus
    while e:
        if e & 1:
            out = (out * base) % modulus
        base = (base * base) % modulus
        e >>= 1
    return out


def is_irreducible(f: Poly) -> bool:
    """A linear is irreducible.  A quadratic ax^2 + bx + c over an odd
    field is irreducible iff its discriminant b^2 - 4ac is a non-square,
    one chi lookup.  Any other f of degree d goes through Ben-Or's test:
    f is irreducible iff x^(q^i) - x is coprime to f for every i = 1 ..
    d // 2, since a reducible f has an irreducible factor of some degree
    i <= d // 2, and that factor divides x^(q^i) - x."""
    d = f.degree
    if d < 1:
        raise ConstantInput("irreducibility is a question about degree >= 1")
    if d == 1:
        return True
    field = f.field
    if d == 2 and field.q % 2:
        c, b, a = f.coeffs
        # -4 % p is the constant -4 as an element index
        disc = field.add(field.mul(b, b), field.mul(-4 % field.p, field.mul(a, c)))
        return field.chi[disc] == "1"
    if f.coeffs[0] == 0 or f(1) == 0:
        return False  # x or x - 1 divides; skip the Frobenius work
    g = Poly.x(field)  # reduced mod f already, since d >= 2
    for _ in range(d // 2):
        g = powmod(g, field.q, f)
        cs = [*g.coeffs, 0, 0]  # x^(q^i) - x: take 1 from coefficient 1
        cs[1] = field.add(cs[1], field.neg(1))
        if gcd(Poly(field, cs), f).degree != 0:
            return False
    return True


def _monic_lex(field: "Field", d: int) -> Iterator[Poly]:
    # the base-q digits of a counter, most significant first, are
    # (c0, .., c_{d-1}) in lexicographic order; for d >= 2 the count
    # starts at c0 = 1, since x divides every c0 = 0 polynomial.  Digits
    # are decoded lazily, so a huge q never lists its coefficients
    q = field.q
    for i in range(q ** (d - 1) if d >= 2 else 0, q**d):
        cs = [1]
        for _ in range(d):
            i, c = divmod(i, q)
            cs.append(c)
        yield Poly(field, tuple(reversed(cs)))


def _monic_irreducibles(field: "Field", d: int) -> Iterator[Poly]:
    """Monic irreducibles of degree d, lexicographic order.

    For d = 2 over an odd field with a chi string (q <= TABLE_LIMIT),
    x^2 + bx + c is irreducible iff b^2 - 4c is a non-square, so for
    each c in turn the b are the '1' positions of chi translated by -4c
    and read at the squares.  Every other case filters the lexicographic
    walk through is_irreducible, so a larger odd q reads each
    quadratic's discriminant and an even q or d >= 3 runs Ben-Or."""
    if d < 1:
        raise ConstantInput(f"degree must be >= 1, got {d}")
    if d == 2 and field.q % 2 and field.q <= TABLE_LIMIT:
        return _irreducible_quadratics(field)
    return filter(is_irreducible, _monic_lex(field, d))


def _irreducible_quadratics(field: "Field") -> Iterator[Poly]:
    chi = field.chi_string()
    four = 4 % field.p
    for c in range(field.q):
        discs = field.gather_squares(field.translate(chi, field.neg(field.mul(four, c))))
        for b in compress(range(field.q), map(eq, discs, repeat("1"))):
            yield Poly(field, (c, b, 1))


def enumerate_monic_irreducibles(field: "Field", d: int, count: int) -> list[Poly]:
    """First count monic irreducibles of degree d, lexicographic order."""
    found = list(islice(_monic_irreducibles(field, d), count))
    if len(found) < count:
        raise ExhaustedSupply(
            f"only {len(found)} monic irreducibles of degree {d} over GF({field.q}),"
            f" {count} requested"
        )
    return found


def all_monic_irreducibles(field: "Field", d: int) -> list[Poly]:
    return list(_monic_irreducibles(field, d))


def basic_polys(polys: Iterable[Poly]) -> tuple[Poly, ...]:
    """polys as a tuple, checked to be a nonempty list over one field
    whose non-constants are pairwise distinct monic irreducibles."""
    polys = tuple(polys)
    if not polys:
        raise BadParameters("need at least one polynomial")
    non_const = [f for f in polys if f.degree >= 1]
    if len(set(non_const)) != len(non_const):
        raise BadParameters("repeated irreducible factor")
    for f in polys:
        if f.field is not polys[0].field:
            raise FieldMismatch("polynomials over different fields in one list")
        if f.degree >= 1 and not (f.is_monic and is_irreducible(f)):
            raise BadParameters(f"{f!r} is not a monic irreducible")
    return polys


def poly_to_text(f: Poly) -> str:
    """Comma-separated coefficients, low degree first; zero is "0"."""
    if f.is_zero:
        return "0"
    return ",".join(str(c) for c in f.coeffs)


def poly_from_text(field: "Field", text: str) -> Poly:
    parts = [s.strip() for s in text.split(",")]
    return Poly(field, (int(s) for s in parts))
