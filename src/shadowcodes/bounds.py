"""Competitor bounds, threshold analysis, and figure tables.

Gathered here: Delsarte-Goethals code parameters, the Gilbert-Varshamov
existence bound in exact big-integer arithmetic, the closed-form
distance floors of the two shadow families, the cubic

    S(n, k) = k^3 + (n-6) k^2 + (10-2n) k + (2n-5-n^2)

whose sign decides whether the degree <= 1 family reaches dimension k
at length n (S < 0 exactly when the distance floor is positive), its
root k0(n) by bisection cross-checked against the closed cubic formula,
and the rate/relative-distance tables behind the comparison figures.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .binary import exact_min_distance, random_linear_code
from .concat import concat_params, concat_spec
from .errors import BadParameters, BadShape, BudgetExceeded
from .field import find_odd_prime_power
from .shadow import construct_deg1_nk, deg1_floor, deg2_floor

DEFAULT_SEED = 1729
FIG3_EXACT_CAP = 16  # fig3's exact shadow code rows span k = 2 .. cap
FIG3_RANDOM_KS = (8, 12, 16)  # fig3's random codes, where k <= n; scanned exactly
# the float closed form of k0 stays within 1e-6 of the bisection up to
# here; it drifts past that from about n = 2.5e9
K0_N_MAX = 10**9
# gv_min_distance keeps prefix sums of about n^2/2 bits, about 0.5 GB at
# n = 2^16, so the length is capped there
GV_N_MAX = 1 << 16
FIG4_M_MAX = 511  # n = 4^m must fit a float
# floor_power takes an r-th root of n^p: at 2^18 bits, p = 253 at
# n = 4^511, one root took 18 ms and fig4 over m = 2..511 took 5 s
POWER_BITS_MAX = 1 << 18
# fig1's grid lists every point before it drops repeats: 2^16 points
# over n = 10 .. 10^9 take about 2 s and 30 MB, where 10^9 points ran
# out of a 1 GB address space
FIG1_POINTS_MAX = 1 << 16
# the largest even m whose DG length 2^m prints: Python refuses to turn
# an int of more than 4300 digits into text by default
DG_M_MAX = 14284


# -- competitor parameter formulas ---------------------------------------


def dg_params(m: int, d: int) -> tuple[int, int, int]:
    """Delsarte-Goethals DG(m, d) as (length, log2 size, min distance).

    Requires even m = 2t + 2 >= 4 and 1 <= d <= t + 1.  d = t + 1 is the
    Kerdock code; d = 1 is second-order Reed-Muller."""
    if not 4 <= m <= DG_M_MAX or m % 2:
        raise BadParameters(f"DG needs even m in 4..{DG_M_MAX}, got {m}")
    t = (m - 2) // 2
    if not 1 <= d <= t + 1:
        raise BadParameters(f"DG(m={m}) needs 1 <= d <= {t + 1}, got {d}")
    n = 1 << m
    log2_size = (2 * t + 1) * (t - d + 2) + 2 * t + 3
    dmin = (1 << (m - 1)) - (1 << (m - 1 - d))
    return n, log2_size, dmin


def rm2_dim(m: int) -> int:
    """Dimension of second-order Reed-Muller of length 2^m."""
    if m < 2:
        raise BadParameters(f"need m >= 2, got {m}")
    return 1 + m + m * (m - 1) // 2


def gv_min_distance(n: int, k: int) -> int:
    """Largest d with sum_{i <= d-2} C(n-1, i) < 2^(n-k), all exact.

    A binary linear (n, k) code with that minimum distance exists."""
    if not 0 < k <= n:
        raise BadParameters(f"need 0 < k <= n, got k={k}, n={n}")
    if n > GV_N_MAX:
        raise BudgetExceeded(f"n = {n} exceeds the GV length budget {GV_N_MAX}")
    return 1 + bisect_left(_binomial_prefix_sums(n), 1 << (n - k))


@lru_cache(maxsize=1)
def _binomial_prefix_sums(n: int) -> list[int]:
    """sum_{i <= j} C(n-1, i) for j = 0 .. n-2 (the single entry 1 at n = 1).

    One length is cached, so a figure column over every k at that
    length builds the list once."""
    sums = [1]
    term = 1
    for i in range(1, n - 1):
        term = term * (n - i) // i
        sums.append(sums[-1] + term)
    return sums


# -- shadow-family distance floors ----------------------------------------


def shadow_lb_deg1(n: int, k: int) -> float:
    """The degree <= 1 floor `deg1_floor` as a float."""
    return _floor_float(deg1_floor, n, k)


def shadow_lb_deg2(n: int, k: int) -> float:
    """The degree 2 floor `deg2_floor` as a float."""
    return _floor_float(deg2_floor, n, k)


def _floor_float(floor, n: int, k: int) -> float:
    if n < 1 or k < 1:
        raise BadParameters(f"need n, k >= 1, got n={n}, k={k}")
    try:
        value = float(floor(n, k))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise BadParameters("n and k put the floor past float range")
    return value


# -- the dimension-threshold cubic ------------------------------------------


def s_cubic(n: float, k: float):
    """Sign decides degree <= 1 feasibility: S < 0 iff the floor is positive."""
    return k**3 + (n - 6) * k**2 + (10 - 2 * n) * k + (2 * n - 5 - n * n)


class CubicRecord(NamedTuple):
    n: int
    k0: float
    k0_cardano: float
    xi: float
    omega_sq: int


def _cardano_root(n: int) -> tuple[float, int, float]:
    """The root of S(n, .) in (0, n) from the closed cubic formula."""
    xi = (-2 * n**3 + 45 * n**2 - 72 * n + 27) / 54
    rad = -12 * n**3 + 177 * n**2 - 174 * n - 15  # exact integer radicand
    shift = (n - 6) / 3
    roots = []
    if rad >= 0:
        om = (n - 1) * math.sqrt(rad) / 18
        roots.append(_real_cbrt(xi + om) + _real_cbrt(xi - om) - shift)
    else:
        om = complex(0.0, (n - 1) * math.sqrt(-rad) / 18)
        u = (complex(xi) + om) ** (1.0 / 3.0)
        zeta = cmath.exp(2j * cmath.pi / 3)
        for j in range(3):
            roots.append(2 * (u * zeta**j).real - shift)
    inside = [r for r in roots if 0 < r < n]
    root = min(inside, key=lambda r: abs(s_cubic(n, r))) if inside else roots[0]
    return xi, rad, root


def _real_cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def k0(n: int) -> CubicRecord:
    """Largest real k with S(n, k) = 0, bisected to 1e-10 and
    cross-checked against the closed formula to 1e-6."""
    if not 3 <= n <= K0_N_MAX:
        raise BadParameters(f"the threshold is checked for 3 <= n <= {K0_N_MAX}, got {n}")
    lo, hi = 0.0, float(n)  # S(n,0) < 0 and S(n,n) > 0 for n >= 3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if s_cubic(n, mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10:
            break
    root = 0.5 * (lo + hi)
    xi, rad, cardano = _cardano_root(n)
    if abs(cardano - root) > 1e-6:
        raise AssertionError(
            f"bisection {root} and closed form {cardano} disagree at n={n}"
        )
    return CubicRecord(n=n, k0=root, k0_cardano=cardano, xi=xi, omega_sq=rad)


# -- concatenated-family formulas -------------------------------------------


def fourth_power_exponent(n: int) -> int | None:
    """m with n = 4^m, else None."""
    if n < 4 or n & (n - 1):
        return None
    e = n.bit_length() - 1
    return e // 2 if e % 2 == 0 else None


def deltacon(n: int, k: int) -> float:
    """Concatenated relative-distance floor at length n = 4^m, dimension k:
    1/2 - (k - log2(sqrt(n)) - 1)/(sqrt(n)(log2(n) + 2)).

    Exact for k a multiple of m + 1 (whole outer symbols); evaluated
    as written otherwise."""
    m = fourth_power_exponent(n)
    if m is None:
        raise BadShape(f"length {n} is not a power of 4")
    if not 0 < k <= n:
        raise BadParameters(f"need 0 < k <= n, got k={k}, n={n}")
    return 0.5 - (k - m - 1) / ((1 << m) * (2 * m + 2))


def floor_power(n: int, a: float) -> int:
    """floor(n^a) exactly, for n >= 1 and a >= 0 read as the decimal it
    prints: 0.49 is 49/100, and floor(n^(p/r)) is the integer r-th root
    of n^p, for p/r in lowest terms."""
    a = Fraction(repr(a))
    p, r = a.numerator, a.denominator
    if p * n.bit_length() > POWER_BITS_MAX:
        raise BudgetExceeded(
            f"floor(n^a) at a = {p}/{r} and a {n.bit_length()}-bit n takes a root of"
            f" n^{p}, past the {POWER_BITS_MAX}-bit budget; give a with fewer digits"
        )
    return _iroot(n**p, r)


def _iroot(x: int, r: int) -> int:
    """floor(x^(1/r)) for x >= 0 and r >= 1.  Newton's method steps down
    to it from a guess at or above the root: one plus the root of x with
    its low r*s bits dropped, shifted up by s, which is close to the root
    when s is half its bits."""
    if x.bit_length() <= r:
        return min(x, 1)  # x < 2^r
    s = x.bit_length() // (2 * r)
    y = _iroot(x >> (r * s), r) + 1 << s if s else 1 << -(-x.bit_length() // r)
    while (z := ((r - 1) * y + x // y ** (r - 1)) // r) < y:
        y = z
    return y


# -- figure tables -------------------------------------------------------


class BoundPoint(NamedTuple):
    scheme: str
    n: int
    k: float
    rate: float
    delta: float
    kind: str  # lower_bound | exact | existence


FIG_FIELDNAMES = list(BoundPoint._fields)


def fig1_rows(n_min: int = 10, n_max: int = 100000, points: int = 50):
    """Threshold root k0 against sqrt(n) + 1/2 on a log grid."""
    if not 3 <= n_min < n_max:
        raise BadParameters("need 3 <= n_min < n_max")
    if n_max > K0_N_MAX:
        raise BadParameters(f"the threshold is checked up to n = {K0_N_MAX}, got n_max = {n_max}")
    if points < 1:
        raise BadParameters(f"need at least one point, got {points}")
    if points > FIG1_POINTS_MAX:
        raise BudgetExceeded(f"points = {points} exceeds the fig1 grid budget {FIG1_POINTS_MAX}")
    rows = []
    for n in sorted(set(log_grid(n_min, n_max, points))):
        rec = k0(n)
        rows.append({"n": n, "k0": rec.k0, "approx": math.sqrt(n) + 0.5})
    return rows


def log_grid(lo: int, hi: int, points: int) -> list[int]:
    """max(3, round(e^t)) at points evenly spaced t from log(lo) to
    log(hi); a single point sits at log(lo)."""
    a, b = math.log(lo), math.log(hi)
    step = (b - a) / (points - 1) if points > 1 else 0.0
    return [max(3, round(math.exp(a + i * step))) for i in range(points)]


def fig3_rows(n: int = 1024, seed: int = DEFAULT_SEED):
    """Rate/relative-distance table comparing every scheme at length n."""
    if n < 1:
        raise BadParameters(f"need n >= 1, got {n}")
    rows: list[BoundPoint] = []
    # each floor falls as k grows, so its rows run from the first
    # dimension up to the last k with a positive floor
    for scheme, floor, k in (("shadow_deg1", deg1_floor, 2), ("shadow_deg2", deg2_floor, 1)):
        while (d := floor(n, k)).sign() > 0:
            rows.append(BoundPoint(scheme, n, k, k / n, float(d) / n, "lower_bound"))
            k += 1
    m4 = fourth_power_exponent(n)
    if m4 is not None:
        big_n = 1 << m4
        for big_k in range(1, big_n + 1):
            p = concat_params(concat_spec(m4, big_n, big_k))
            rows.append(BoundPoint("rsrm", n, p.k, p.k / n, p.dmin_lb / n, "lower_bound"))
        if m4 >= 2:  # Delsarte-Goethals DG(2 m4, d) needs n >= 16
            for d in range(1, m4 + 1):
                _, log2m, dmin = dg_params(2 * m4, d)
                rows.append(BoundPoint("dg", n, log2m, log2m / n, dmin / n, "exact"))
    if n >= 2 and n & (n - 1) == 0:
        e = n.bit_length() - 1
        rows.append(BoundPoint("rm1", n, e + 1, (e + 1) / n, 0.5, "exact"))
        if e >= 2:
            k2 = rm2_dim(e)
            rows.append(BoundPoint("rm2", n, k2, k2 / n, 0.25, "exact"))
    for k in range(1, n + 1):
        rows.append(BoundPoint("gv", n, k, k / n, gv_min_distance(n, k) / n, "existence"))
    for k in FIG3_RANDOM_KS:
        if k > n:
            continue
        d = exact_min_distance(random_linear_code(n, k, seed * 1000 + k))
        rows.append(BoundPoint("random", n, k, k / n, d / n, "exact"))
    for k in range(2, FIG3_EXACT_CAP + 1):
        if find_odd_prime_power(n + k - 1) is None:
            continue
        code = construct_deg1_nk(n, k)
        if code.rank != k:  # rank-deficient: no (n, k) code to report
            continue
        d = exact_min_distance(code.generator())
        rows.append(BoundPoint("shadow_exact", n, k, k / n, d / n, "exact"))
    return rows


def fig4_rows(a: float = 0.49, m_min: int = 2, m_max: int = 10):
    """Both families at dimension floor(n^a) across n = 4^m, the floor
    taken exactly by floor_power."""
    if not 0 < a <= 0.5:
        raise BadShape(f"the sublinear exponent must sit in (0, 1/2], got {a}")
    if m_min < 2:
        raise BadParameters("the comparison starts at n = 16 (m >= 2)")
    if not m_min <= m_max <= FIG4_M_MAX:
        raise BadParameters(f"need m_min <= m_max <= {FIG4_M_MAX}, got {m_min}, {m_max}")
    floor_power(1 << (2 * m_max), a)  # an a past the root budget is refused before any row
    rows: list[BoundPoint] = []
    for m in range(m_min, m_max + 1):
        n = 1 << (2 * m)
        k = floor_power(n, a)
        rows.append(BoundPoint("rsrm", n, k, k / n, deltacon(n, k), "lower_bound"))
        rows.append(
            BoundPoint("shadow_deg1", n, k, k / n, shadow_lb_deg1(n, k) / n, "lower_bound")
        )
    return rows

