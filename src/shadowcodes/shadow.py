"""Binary codes from quadratic-character evaluations of polynomials.

Over a field of odd order q, the parity map sends a nonzero element to
0 if it is a square and 1 otherwise; applying it pointwise to the
values of a polynomial P on an evaluation set E gives a length-|E|
binary row.  The parity map is a homomorphism onto (Z/2, +), so the
rows of a multiplicatively closed family are additively closed, and a
set B of generators (distinct monic irreducibles plus at most one
primitive constant) spans a linear code.

The distance guarantee is the surd

    delta(E, B) = |E| - q/2 - (sqrt(q)/2) (d_B - 1),   d_B = deg prod(B),

kept exact as a + b*sqrt(q) with rational a, b so positivity and
ceiling tests never go through floating point.

Two ready-made families:

* degree <= 1: B = {x - lam : lam outside E} plus a primitive constant,
  giving an (|E|, q - |E| + 1) code when delta > 0;
* degree 2: B = k distinct monic irreducible quadratics, E the whole
  field, giving a (q, k) code when delta > 0.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import compress, islice
from operator import eq
from typing import NamedTuple

from .binary import BinaryCode, gf2_rank, row_from_hex, row_to_hex
from .errors import (
    BadDescriptor,
    BadParameters,
    BudgetExceeded,
    EvaluationSetIsFullField,
    ExhaustedSupply,
    EvenCharacteristic,
    FieldMismatch,
    NonpositiveDelta,
    ParameterNotAdmissible,
    ShadowcodesError,
    VanishesOnE,
)
from .field import (
    Field,
    field_create,
    field_from_json,
    find_odd_prime_power,
    nearest_odd_prime_power,
)
from .poly import (
    Poly,
    all_monic_irreducibles,
    basic_polys,
    chi_row,
    enumerate_monic_irreducibles,
    poly_from_text,
    poly_to_text,
    x_minus,
)

# the most points an evaluation set, rows a degree <= 1 basic set, or
# quadratics a seeded degree 2 draw lists may have: a construct costs
# about 150 bytes a point, so 2**22 stays near 0.6 GB
LENGTH_BUDGET = 1 << 22


def _within_budget(what: str, length: int) -> None:
    if length > LENGTH_BUDGET:
        raise BudgetExceeded(f"{what} = {length} exceeds the length budget {LENGTH_BUDGET}")


class Surd(NamedTuple):
    """Exact a + b*sqrt(q) with rational a, b (Fractions or ints) and
    integer q >= 0."""

    a: Fraction
    b: Fraction
    q: int

    @property
    def is_exact(self) -> bool:
        """True when the value is rational: b = 0 or q a perfect square."""
        return self.b == 0 or math.isqrt(self.q) ** 2 == self.q

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.q)

    def sign(self) -> int:
        """Sign of a + b sqrt(q), decided on rationals alone: when a and
        b sqrt(q) have opposite signs, by comparing a^2 with b^2 q."""
        a, b = self.a, self.b
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0) if self.q else 0
        if sa * sb >= 0:
            return sa or sb
        lhs, rhs = a * a, b * b * self.q
        return sa if lhs > rhs else sb if lhs < rhs else 0

    def ceil(self) -> int:
        """Least integer t with value <= t, in integers: ceil(x) = -floor(-x).

        Over a common denominator d, -x = (-a' - b' sqrt(q))/d, and with
        r = isqrt(b'^2 q) the numerator's floor is r - a' for b' <= 0 and
        -a' - r, less one when b'^2 q is not a square, for b' > 0."""
        d = math.lcm(self.a.denominator, self.b.denominator)
        a = self.a.numerator * (d // self.a.denominator)
        b = self.b.numerator * (d // self.b.denominator)
        sq = b * b * self.q
        r = math.isqrt(sq)
        low = r - a if b <= 0 else -a - r - (r * r != sq)
        return -(low // d)

    def to_json(self) -> dict:
        return {
            "a": [self.a.numerator, self.a.denominator],
            "b": [self.b.numerator, self.b.denominator],
            "q": self.q,
            "value": float(self),
            "exact": self.is_exact,
        }


def surd_from_json(obj: dict) -> Surd:
    return Surd(
        Fraction(obj["a"][0], obj["a"][1]),
        Fraction(obj["b"][0], obj["b"][1]),
        obj["q"],
    )


class EvaluationSet(NamedTuple):
    field: Field
    points: tuple[int, ...]


def evaluation_set(field: Field, points) -> EvaluationSet:
    """E over an odd field: sorted, distinct element indices.

    A nonempty step-1 range inside 0..q-1 is sorted, distinct and made
    of ints by construction, so it is taken as built; any other points,
    a list among them, are sorted and checked for type, duplicates and
    range."""
    if field.q % 2 == 0:
        raise EvenCharacteristic("evaluation needs a field of odd order")
    if type(points) is range and points.step == 1 and 0 <= points.start < points.stop <= field.q:
        return EvaluationSet(field, tuple(points))
    pts = sorted(points)
    if not pts:
        raise BadParameters("empty evaluation set")
    if set(map(type, pts)) != {int}:
        raise BadParameters("evaluation points must be ints")
    if any(map(eq, pts, islice(pts, 1, None))):
        raise BadParameters("duplicate evaluation points")
    if not (0 <= pts[0] and pts[-1] < field.q):
        raise BadParameters(f"points must be element indices in 0..{field.q - 1}")
    return EvaluationSet(field, tuple(pts))


def full_evaluation_set(field: Field) -> EvaluationSet:
    _within_budget("|E| = q", field.q)
    return evaluation_set(field, range(field.q))


def first_evaluation_set(field: Field, size: int) -> EvaluationSet:
    if not 1 <= size <= field.q:
        raise BadParameters(f"size must be in 1..{field.q}")
    _within_budget("|E|", size)
    return evaluation_set(field, range(size))


class BasicSet(NamedTuple):
    """Generating polynomials: distinct monic irreducibles and at most
    one constant, which must be primitive."""

    polys: tuple[Poly, ...]


def basic_set(polys) -> BasicSet:
    polys = basic_polys(polys)
    constants = [f for f in polys if f.degree < 1]
    if len(constants) > 1:
        raise BadParameters("at most one constant generator is allowed")
    for c in constants:
        if not c.field.is_primitive(c(0)):
            raise BadParameters("the constant generator must be primitive")
    return BasicSet(polys)


def lambda_map(f: Poly, ev: EvaluationSet) -> int:
    """Pack the square/non-square parities of f over ev into an int row.

    Bit j is the parity at the j-th evaluation point, read off
    poly.chi_row(f, ev.points), the one row builder."""
    if f.field is not ev.field:
        raise FieldMismatch("polynomial and evaluation set disagree on the field")
    row = chi_row(f, ev.points)
    if "2" in row:
        beta = ev.points[row.index("2")]
        raise VanishesOnE(f"{f!r} vanishes at element {beta} of the evaluation set", beta)
    return int(row[::-1], 2)


def build_B1(field: Field, ev: EvaluationSet) -> BasicSet:
    """Linear factors through every point outside ev, ascending, plus a
    primitive constant.  |B| = q - |E| + 1 and the total degree is
    q - |E|.  The complement of a prefix E = range(|E|) is
    range(|E|, q); any other E marks its points in one byte per
    element."""
    if field is not ev.field:
        raise FieldMismatch("evaluation set was built over a different field")
    points = ev.points
    _within_budget("|B| = q - |E| + 1", field.q - len(points) + 1)
    if points[-1] == len(points) - 1:
        outside = range(len(points), field.q)
    else:
        marks = bytearray(b"\1") * field.q  # one byte per element, 1 outside E
        for beta in points:
            marks[beta] = 0
        outside = list(compress(range(field.q), marks))
    if not outside:
        raise EvaluationSetIsFullField(
            "degree <= 1 construction needs a point outside the evaluation set"
        )
    polys = [x_minus(field, lam) for lam in outside]
    polys.append(Poly.constant(field, field.primitive_element()))
    # distinct linears and a primitive constant: a basic set by construction
    return BasicSet(tuple(polys))


def build_B2(field: Field, k: int, seed: int | None = None) -> BasicSet:
    """k distinct monic irreducible quadratics: the lexicographically
    first k, or a seed-reproducible random choice."""
    if k < 1:
        raise BadParameters(f"need k >= 1, got {k}")
    if seed is None:
        polys = enumerate_monic_irreducibles(field, 2, k)
    else:
        _within_budget("irreducible quadratics q(q-1)/2", field.q * (field.q - 1) // 2)
        supply = all_monic_irreducibles(field, 2)
        if k > len(supply):
            raise ExhaustedSupply(
                f"only {len(supply)} monic irreducible quadratics over GF({field.q})"
            )
        polys = sorted(random.Random(seed).sample(supply, k), key=lambda f: f.coeffs[::-1])
    # distinct monic irreducibles, each already through is_irreducible
    return BasicSet(tuple(polys))


def delta(ev: EvaluationSet, basic: BasicSet) -> Surd:
    """The guarantee of ev and basic.  A constant has degree 0, so d_B
    sums the degrees of every generator."""
    return _delta(len(ev.points), ev.field.q, sum(f.degree for f in basic.polys))


def _delta(e_size: int, q: int, d_b: int) -> Surd:
    """|E| - q/2 - (sqrt(q)/2)(d_B - 1), exact."""
    return Surd(e_size - Fraction(q, 2), Fraction(1 - d_b, 2), q)


class ShadowCode(NamedTuple):
    evaluation: EvaluationSet
    basic: BasicSet
    rows: tuple[int, ...]
    n: int
    delta: Surd
    delta_positive: bool
    rank: int
    kind: str

    @property
    def k(self) -> int:
        return self.rank

    def generator(self) -> BinaryCode:
        return BinaryCode.from_span(self.rows, self.n)


def construct(ev: EvaluationSet, basic: BasicSet, kind: str = "custom") -> ShadowCode:
    """Assemble the generator matrix and the exact distance bound.

    A deg1 or deg2 kind is held to that family's closed form in n and
    |B|, which pins the builders' q and d_B; any other kind is a free
    label.  The dimension is the rank of the rows.  When delta > 0 it
    is exactly |B|; otherwise delta_positive is False to flag that no
    distance guarantee holds."""
    rows = tuple(lambda_map(f, ev) for f in basic.polys)
    d = delta(ev, basic)
    floor = _FAMILY_FLOORS.get(kind)
    if floor and d != floor(len(ev.points), len(basic.polys)):
        raise BadDescriptor(f"kind {kind} does not fit the code: delta is not its closed form")
    rk = gf2_rank(rows)
    positive = d.sign() > 0
    if positive and rk != len(rows):
        raise AssertionError(
            "rank fell below |B| with a positive bound; this contradicts the"
            " construction guarantee and indicates a bug"
        )
    return ShadowCode(ev, basic, rows, len(ev.points), d, positive, rk, kind)


def construct_deg1(field: Field, e_size: int) -> ShadowCode:
    """Code of length e_size over field with B the linear factors
    outside the first e_size elements plus a primitive constant."""
    ev = first_evaluation_set(field, e_size)
    return construct(ev, build_B1(field, ev), kind="deg1")


def construct_deg1_nk(n: int, k: int) -> ShadowCode:
    """(n, k) degree <= 1 code; needs q = n + k - 1 an odd prime power."""
    if k < 2:
        raise ParameterNotAdmissible(f"need k >= 2 so a point stays outside E, got {k}")
    if n < 1:
        raise ParameterNotAdmissible(f"need n >= 1, got {n}")
    q = n + k - 1
    pm = find_odd_prime_power(q)
    if pm is None:
        near = nearest_odd_prime_power(q, least=k)  # so that n = near - k + 1 >= 1
        raise ParameterNotAdmissible(
            f"q = n + k - 1 = {q} is not an odd prime power; nearest admissible"
            f" order is {near} (for example n={near - k + 1}, k={k})",
            suggested_q=near,
        )
    return construct_deg1(field_create(*pm), n)


def construct_deg2(field: Field, k: int, seed: int | None = None) -> ShadowCode:
    """(q, k) code from k monic irreducible quadratics over the whole field."""
    ev = full_evaluation_set(field)
    return construct(ev, build_B2(field, k, seed), kind="deg2")


def deg1_floor(n: int, k: int) -> Surd:
    """(n - k + 1)/2 - (sqrt(n + k - 1)/2)(k - 2), the degree <= 1 floor:
    q = n + k - 1 and d_B = k - 1."""
    return _delta(n, n + k - 1, k - 1)


def deg2_floor(n: int, k: int) -> Surd:
    """n/2 - (sqrt(n)/2)(2k - 1), the degree 2 floor: q = n and d_B = 2k."""
    return _delta(n, n, 2 * k)


# the closed form that each stock family's delta equals at (n, |B|)
_FAMILY_FLOORS = {"deg1": deg1_floor, "deg2": deg2_floor}


def distance_lower_bound(code: ShadowCode) -> Surd:
    """The exact distance guarantee; error when it is vacuous.  A stock
    family's delta was held to its closed form when the code was built."""
    if not code.delta_positive:
        raise NonpositiveDelta(
            f"delta = {float(code.delta):.4f} <= 0 guarantees nothing"
        )
    return code.delta


def to_descriptor(code: ShadowCode) -> dict:
    return {
        "format": "shadow-code/1",
        "field": code.evaluation.field.to_json(),
        "E": list(code.evaluation.points),
        "B": [poly_to_text(f) for f in code.basic.polys],
        "G": [row_to_hex(r, code.n) for r in code.rows],
        "n": code.n,
        "k": code.rank,
        "delta": code.delta.to_json(),
        "delta_positive": code.delta_positive,
        "rank": code.rank,
        "kind": code.kind,
    }


class _Malformed:
    """Turns a stdlib error raised while a descriptor is read into
    BadDescriptor.  A package error (a refused budget, a non-prime, a bad
    E) is not an error of the text, and leaves as it was raised."""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        read_errors = (AttributeError, KeyError, TypeError, ValueError)
        if isinstance(exc, read_errors) and not isinstance(exc, ShadowcodesError):
            raise BadDescriptor(f"malformed descriptor: {kind.__name__}: {exc}") from exc


def from_descriptor(obj: dict) -> ShadowCode:
    """Rebuild and re-derive a code, verifying the stored matrix.  E is
    held to the length budget, like every other evaluation set."""
    with _Malformed():
        field = field_from_json(obj["field"])
        points = list(obj["E"])
        _within_budget("|E|", len(points))
        ev = evaluation_set(field, points)
        polys = [poly_from_text(field, s) for s in obj["B"]]
        stored = tuple(row_from_hex(s) for s in obj["G"])
    kind = obj.get("kind", "custom")
    if type(kind) is not str:
        raise BadDescriptor(f"descriptor kind must be a string, got {kind!r}")
    code = construct(ev, basic_set(polys), kind=kind)
    if stored != code.rows:
        raise BadDescriptor("stored generator matrix does not match its field/E/B")
    return code
