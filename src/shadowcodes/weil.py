"""Brute-force point counts on hyperelliptic-shape curves.

For squarefree A(x) = gamma P_1(x) .. P_r(x) over GF(q), q odd, the
curve y^2 = A(x) has q + O(sqrt(q)) affine points: each x contributes
2 points when A(x) is a nonzero square, 1 when it is a root, 0
otherwise.  The classical bound puts |count - q| within
(deg A - 1) sqrt(q), and the weight of any shadow codeword is
controlled by the same count, which is what these oracles check by
exact integer comparisons (never through floats).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BadParameters, BudgetExceeded, FieldMismatch, ZeroArgument
from .field import Field
from .poly import Poly, basic_polys, is_irreducible
from .shadow import ShadowCode

COUNT_BUDGET = 1 << 14
CURVE_MAX_DEGREE = 3  # largest factor degree random_curve_spec draws
CURVE_MAX_FACTORS = 5  # most distinct factors random_curve_spec draws


@dataclass(frozen=True)
class CurveSpec:
    """gamma times a product of >= 1 distinct monic irreducibles."""

    field: Field
    gamma: int
    factors: tuple[Poly, ...]

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)


def curve_spec(field: Field, gamma: int, factors) -> CurveSpec:
    if field.q % 2 == 0:
        raise FieldMismatch("the square/non-square split needs odd order")
    if gamma == 0:
        raise ZeroArgument("gamma must be a nonzero scalar")
    factors = basic_polys(factors)
    if factors[0].field is not field:
        raise FieldMismatch("factors over a different field")
    if any(f.degree < 1 for f in factors):
        raise BadParameters("a constant factor belongs in gamma")
    return CurveSpec(field, gamma, factors)


def count_zeros(spec: CurveSpec) -> int:
    """Number of affine (x, y) with y^2 = gamma prod(P_i(x))."""
    field = spec.field
    if field.q > COUNT_BUDGET:
        raise BudgetExceeded(f"q = {field.q} exceeds the scan budget {COUNT_BUDGET}")
    half = (field.q - 1) // 2
    total = 0
    for x in range(field.q):
        v = spec.gamma
        for f in spec.factors:
            v = field.mul(v, f(x))
            if v == 0:
                break
        if v == 0:
            total += 1
        elif field.pow(v, half) == 1:  # Euler's criterion
            total += 2
    return total


@dataclass(frozen=True)
class CorollaryReport:
    count: int
    q: int
    degree: int
    bound: float
    ok: bool


def check_corollary(spec: CurveSpec) -> CorollaryReport:
    """Exact test of (count - q)^2 <= (deg - 1)^2 q."""
    count = count_zeros(spec)
    q = spec.field.q
    d = spec.degree
    ok = (count - q) ** 2 <= (d - 1) ** 2 * q
    return CorollaryReport(count, q, d, (d - 1) * q**0.5, ok)


@dataclass(frozen=True)
class WeightReport:
    message: int
    weight: int
    zero_entries: int
    q: int
    total_degree: int
    curve_count: int | None
    count_ok: bool
    bound_ok: bool

    @property
    def ok(self) -> bool:
        return self.count_ok and self.bound_ok


def check_weight_argument(code: ShadowCode, message: int) -> WeightReport:
    """Recreate the weight bound for one codeword from the curve side.

    The zero entries of the codeword are points where the selected
    product evaluates to a nonzero square, each of which lifts to two
    points of y^2 = A(x); so the curve count is at least twice the
    number of zero entries, and that number is itself at most
    q/2 + (sqrt(q)/2)(d_B - 1).  Selecting no non-constant factor
    leaves no curve, and only the (trivially true) entry bound runs."""
    if not 0 < message < (1 << len(code.rows)):
        raise ZeroArgument(f"message must be a nonzero {len(code.rows)}-bit vector")
    field = code.evaluation.field
    q = field.q
    selected = [f for i, f in enumerate(code.basic.polys) if (message >> i) & 1]
    cw = 0
    for i, row in enumerate(code.rows):
        if (message >> i) & 1:
            cw ^= row
    weight = cw.bit_count()
    zero_entries = code.n - weight
    d_b = code.basic.total_degree
    # 2*zeros - q <= sqrt(q) (d_B - 1), squared only when the left side
    # is positive so the square comparison is equivalent
    lhs = 2 * zero_entries - q
    bound_ok = lhs <= 0 or lhs * lhs <= q * (d_b - 1) ** 2
    gamma = 1
    factors = []
    for f in selected:
        if f.degree >= 1:
            factors.append(f)
        else:
            gamma = field.mul(gamma, f.coeffs[0])
    if factors:
        # a subset of the code's basic set, so already through is_irreducible
        count = count_zeros(CurveSpec(field, gamma, tuple(factors)))
        count_ok = count >= 2 * zero_entries
    else:
        count = None
        count_ok = True
    return WeightReport(
        message, weight, zero_entries, q, d_b, count, count_ok, bound_ok
    )


def random_curve_spec(field: Field, rng: random.Random) -> CurveSpec:
    """Seeded random squarefree curve: rejection-sample random monic
    polynomials until enough distinct irreducibles turn up."""
    r = rng.randint(1, CURVE_MAX_FACTORS)
    chosen: list[Poly] = []
    while len(chosen) < r:
        d = rng.randint(1, CURVE_MAX_DEGREE)
        f = Poly(field, [rng.randrange(field.q) for _ in range(d)] + [1])
        if f not in chosen and is_irreducible(f):
            chosen.append(f)
    gamma = rng.randrange(1, field.q)
    return CurveSpec(field, gamma, tuple(chosen))
