"""Brute-force point counts on hyperelliptic-shape curves.

For squarefree A(x) = gamma P_1(x) .. P_r(x) over GF(q), q odd, the
curve y^2 = A(x) has q + O(sqrt(q)) affine points: each x contributes
2 points when A(x) is a nonzero square, 1 when it is a root, 0
otherwise.  The classical bound puts |count - q| within
(deg A - 1) sqrt(q), which these oracles check on counted points by
exact integer comparisons (never through floats).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BadParameters, BudgetExceeded, FieldMismatch, ZeroArgument
from .field import Field
from .poly import Poly, basic_polys, is_irreducible

COUNT_BUDGET = 1 << 14
CURVE_MAX_DEGREE = 3  # largest factor degree random_curve_spec draws
CURVE_MAX_FACTORS = 5  # most distinct factors random_curve_spec draws
# points over x by chi of A(x): two at a nonzero square, none at a
# non-square, one at a root
_POINTS = {"0": 2, "1": 0, "2": 1}


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
    chi = field.chi  # the string, as COUNT_BUDGET <= TABLE_LIMIT
    total = 0
    for x in range(field.q):
        v = spec.gamma
        for f in spec.factors:
            v = field.mul(v, f(x))
            if v == 0:
                break
        total += _POINTS[chi[v]]
    return total


@dataclass(frozen=True)
class CorollaryReport:
    count: int
    q: int
    degree: int
    ok: bool


def check_corollary(spec: CurveSpec) -> CorollaryReport:
    """Exact test of (count - q)^2 <= (deg - 1)^2 q."""
    count = count_zeros(spec)
    q = spec.field.q
    d = spec.degree
    ok = (count - q) ** 2 <= (d - 1) ** 2 * q
    return CorollaryReport(count, q, d, ok)


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
