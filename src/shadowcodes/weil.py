"""Point counts on hyperelliptic-shape curves, read off character rows.

For squarefree A(x) = gamma P_1(x) .. P_r(x) over GF(q), q odd, the
curve y^2 = A(x) has q + O(sqrt(q)) affine points: each x contributes
2 points when A(x) is a nonzero square, 1 when it is a root, 0
otherwise.  The classical bound puts |count - q| within
(deg A - 1) sqrt(q), which `verify weil` checks on these counts by
exact integer comparisons (never through floats).

A count reads every x at once from the chi rows of the factors
(poly.chi_row, the rows shadow codewords are built from): chi is
multiplicative, so the non-square bits of A are the XOR of the
factors' non-square bits, flipped when gamma is a non-square, and its
roots are the OR of their zero bits.  The random curves ask
poly.is_irreducible about a drawn quadratic, which reads its
discriminant, and take a drawn cubic as irreducible when its row has no
zero, since a cubic is irreducible exactly when it has no root.  A row
table passed through one verify run holds each factor's row, built
once: a cubic's from its draw, any other's when it is first counted.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import BadParameters, BudgetExceeded, FieldMismatch, ZeroArgument
from .field import Field
from .poly import Poly, basic_polys, chi_row, is_irreducible

COUNT_BUDGET = 1 << 14
# largest factor degree random_curve_spec draws; its root test for
# irreducibility holds up to degree 3 only
CURVE_MAX_DEGREE = 3
CURVE_MAX_FACTORS = 5  # most distinct factors random_curve_spec draws
# a chi row as the bits of its non-squares, and of its zeros
_NON_SQUARE_BITS = str.maketrans("012", "010")
_ZERO_BITS = str.maketrans("012", "001")


class CurveSpec(NamedTuple):
    """gamma times a product of >= 1 distinct monic irreducibles."""

    field: Field
    gamma: int
    factors: tuple[Poly, ...]

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)


def curve_spec(field: Field, gamma: int, factors) -> CurveSpec:
    """y^2 = gamma prod(factors) over an odd field: gamma an int in
    1..q - 1, factors distinct monic irreducibles over field."""
    _check_odd(field)
    if type(gamma) is not int or not 0 <= gamma < field.q:
        raise BadParameters(f"gamma {gamma!r} is not an element index in 1..{field.q - 1}")
    if gamma == 0:
        raise ZeroArgument("gamma must be a nonzero scalar")
    factors = basic_polys(factors)
    if factors[0].field is not field:
        raise FieldMismatch("factors over a different field")
    if any(f.degree < 1 for f in factors):
        raise BadParameters("a constant factor belongs in gamma")
    return CurveSpec(field, gamma, factors)


def count_zeros(spec: CurveSpec, rows: dict[Poly, str] | None = None) -> int:
    """Number of affine (x, y) with y^2 = gamma prod(P_i(x)): with N the
    x where A(x) is a non-square and Z its roots, 2q - |Z| - 2|N \\ Z|.
    A factor's row is read from rows, or built and stored there."""
    field = spec.field
    q = field.q
    _check_budget(q)
    non_squares = zeros = 0
    for f in spec.factors:
        row = _row(f, rows)
        non_squares ^= int(row.translate(_NON_SQUARE_BITS), 2)
        zeros |= int(row.translate(_ZERO_BITS), 2)
    if field.chi[spec.gamma] == "1":
        non_squares ^= (1 << q) - 1
    return 2 * q - zeros.bit_count() - 2 * (non_squares & ~zeros).bit_count()


def _row(f: Poly, rows: dict[Poly, str] | None) -> str:
    if rows is None:
        rows = {}
    row = rows.get(f)
    if row is None:
        row = rows[f] = chi_row(f, range(f.field.q))
    return row


def _check_odd(field: Field) -> None:
    if field.q % 2 == 0:
        raise FieldMismatch("the square/non-square split needs odd order")


def _check_budget(q: int) -> None:
    if q > COUNT_BUDGET:
        raise BudgetExceeded(f"q = {q} exceeds the scan budget {COUNT_BUDGET}")


def random_curve_spec(
    field: Field, rng: random.Random, rows: dict[Poly, str] | None = None
) -> CurveSpec:
    """Seeded random squarefree curve over an odd field: rejection-sample
    random monic polynomials until enough distinct irreducibles turn up.
    is_irreducible decides a drawn quadratic by its discriminant, and a
    drawn cubic is irreducible iff its chi row, kept in rows, has no
    zero.  An even q is refused before the first draw."""
    _check_odd(field)
    _check_budget(field.q)
    r = rng.randint(1, CURVE_MAX_FACTORS)
    chosen: list[Poly] = []
    while len(chosen) < r:
        d = rng.randint(1, CURVE_MAX_DEGREE)
        f = Poly(field, [rng.randrange(field.q) for _ in range(d)] + [1])
        if f in chosen:
            continue
        if d == 1 or (is_irreducible(f) if d == 2 else "2" not in _row(f, rows)):
            chosen.append(f)
    gamma = rng.randrange(1, field.q)
    return CurveSpec(field, gamma, tuple(chosen))

