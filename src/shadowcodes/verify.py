"""Deterministic verification suites behind the CLI verify command.

Each suite recomputes a guarantee from scratch (enumeration, point
scans, exact arithmetic) and reports structured counterexamples when a
check fails, so a red result carries everything needed to reproduce
it.  Suite names double as CLI tokens; see the module functions for
what each one actually establishes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .binary import exact_min_distance, weight_distribution
from .bounds import DEFAULT_SEED, K0_N_MAX, k0, log_grid, s_cubic
from .concat import concat_generator, concat_params, concat_spec
from .errors import BadParameters, NonpositiveDelta
from .field import field_create, field_of_order
from .poly import Poly, poly_to_text
from .shadow import (
    Surd,
    construct_deg1,
    construct_deg2,
    distance_lower_bound,
    lambda_map,
)
from .weil import count_zeros, curve_spec, random_curve_spec

WEIL_FIELD_ORDERS = (9, 25, 27, 49, 121)
# largest dimensions whose codes the theorem 4 and 7 suites enumerate
THEOREM4_ENUM_CAP = 16
THEOREM7_ENUM_CAP = 20
THEOREM6_GRID_POINTS = 50  # log-spaced lengths 3 .. n_max for the root check
# the section 6 grid: inner degrees m and outer-rate steps per m
SECTION6_MS = range(2, 11)
SECTION6_STEPS = 100


def _report(suite: str, failures: list, **fields) -> dict:
    """A suite's report: its name, its own fields in order, then the
    failures and ok, which is false exactly when a check failed and
    makes the CLI exit 1."""
    return {"suite": suite, **fields, "failures": failures, "ok": not failures}


def verify_weil(q_max: int = 121, count: int = 200, seed: int = DEFAULT_SEED) -> dict:
    """Point counts of random squarefree curves against the
    (deg - 1) sqrt(q) window, decided in exact integers."""
    if count < 0:
        raise BadParameters(f"need count >= 0, got {count}")
    if q_max < WEIL_FIELD_ORDERS[0]:
        raise BadParameters(f"need q_max >= {WEIL_FIELD_ORDERS[0]}, got {q_max}")
    orders = [q for q in WEIL_FIELD_ORDERS if q <= q_max]
    rng = random.Random(seed)
    failures = []
    checks = 0
    rows = {}  # each factor's chi row, built once in this call

    def run(spec):
        nonlocal checks
        checks += 1
        count = count_zeros(spec, rows)
        q, d = spec.field.q, spec.degree
        # the window |count - q| <= (d - 1) sqrt(q), squared
        if (count - q) ** 2 > (d - 1) ** 2 * q:
            failures.append(
                {
                    "q": q,
                    "gamma": spec.gamma,
                    "factors": [poly_to_text(f) for f in spec.factors],
                    "count": count,
                    "degree": d,
                }
            )
        return count

    # fixed hand-checkable case: y^2 = x^2 + 1 over GF(3) has 2 points
    f3 = field_create(3)
    base = run(curve_spec(f3, 1, [Poly(f3, (1, 0, 1))]))
    if base != 2:
        failures.append({"q": 3, "expected_count": 2, "count": base})
    fields = [field_of_order(q) for q in orders]
    for i in range(count):
        run(random_curve_spec(fields[i % len(fields)], rng, rows))
    return _report("weil", failures, params={"q_max": q_max, "count": count, "seed": seed},
                   checks=checks)


_THEOREM4_ROSTER = (
    # (kind, q, size parameter): e_size for deg1 rows, k for deg2 rows
    ("deg1", 9, 7),
    ("deg1", 13, 11),
    ("deg1", 13, 9),  # negative floor: exercises the honest-rank path
    ("deg1", 25, 23),
    ("deg1", 27, 23),
    ("deg1", 49, 44),
    ("deg1", 121, 113),
    ("deg2", 25, 2),
    ("deg2", 49, 3),
    ("deg2", 81, 4),
)


def verify_theorem4(seed: int = DEFAULT_SEED) -> dict:
    """Structural guarantees of the construction on a fixed roster:
    the parity map turns products into row sums, a positive floor
    forces full rank, enumerated minimum distances clear the floor,
    and the constant generator makes degree <= 1 codes complement-closed."""
    rng = random.Random(seed)
    failures = []
    checks = 0

    def fail(code, what, **extra):
        failures.append(
            {
                "kind": code.kind,
                "q": code.evaluation.field.q,
                "n": code.n,
                "B_size": len(code.basic.polys),
                "check": what,
                **extra,
            }
        )

    codes = []
    for kind, q, size in _THEOREM4_ROSTER:
        field = field_of_order(q)
        codes.append(
            construct_deg1(field, size) if kind == "deg1" else construct_deg2(field, size)
        )
    for code in codes:
        ev, polys = code.evaluation, code.basic.polys
        # products of generators map to sums of rows; f^e for e = 1, 2, 3
        # is built once per generator
        powers = []
        for f in polys:
            square = f * f
            powers.append((f, square, square * f))
        for _ in range(20):
            exps = [rng.randrange(4) for _ in polys]
            prod = Poly.one(ev.field)
            want = 0
            for fs, e, row in zip(powers, exps, code.rows):
                if e:
                    prod = prod * fs[e - 1]
                if e & 1:
                    want ^= row
            checks += 1
            if lambda_map(prod, ev) != want:
                fail(code, "product_row_sum", exponents=exps)
        checks += 1
        if code.delta_positive:
            if code.rank != len(polys):
                fail(code, "full_rank")
        elif code.rank > len(polys):
            fail(code, "rank_bound")
        if code.delta_positive and code.rank <= THEOREM4_ENUM_CAP:
            need = distance_lower_bound(code).ceil()
            dmin = exact_min_distance(code.generator())
            checks += 1
            if dmin < need:
                fail(code, "distance_floor", dmin=dmin, floor=need)
        if not code.delta_positive:
            checks += 1
            try:
                distance_lower_bound(code)
                fail(code, "vacuous_floor_not_flagged")
            except NonpositiveDelta:
                pass
        if code.kind == "deg1" and code.rank <= THEOREM4_ENUM_CAP:
            # the unfolded histogram is symmetric exactly when 1 is in C;
            # one folded by 1 would be symmetric whatever C is
            hist = weight_distribution(code.generator())
            checks += 1
            if any(hist[w] != hist[code.n - w] for w in range(code.n + 1)):
                fail(code, "complement_symmetry")
    return _report("theorem4", failures, params={"seed": seed, "roster": len(codes)},
                   checks=checks)


def verify_theorem6(n_max: int = 100000) -> dict:
    """S(n, sqrt(n) + 1/2) < 0 for every n >= 2, decided exactly, so
    dimension sqrt(n) + 1/2 always has a positive floor; plus, on a log
    grid, the bisected root: bracketed by an exact sign change of S,
    within 1e-6 of the closed cubic formula, and above sqrt(n) + 1/2."""
    if n_max < 3:
        raise BadParameters(f"the root grid starts at n = 3, got n_max = {n_max}")
    if n_max > K0_N_MAX:
        raise BadParameters(f"the threshold is checked up to n = {K0_N_MAX}, got n_max = {n_max}")
    failures = []
    # with m = sqrt(n), S(m^2, m + 1/2) has degree <= 4 in m: agreeing at
    # five points proves it equals (38m - 26m^2 - 11)/8
    for m in range(5):
        got = s_cubic(Fraction(m * m), m + Fraction(1, 2))
        if got != Fraction(38 * m - 26 * m * m - 11, 8):
            failures.append({"m": m, "S": str(got)})
    # that quadratic peaks at m = 19/26 < sqrt(2), so it falls from its
    # value (38 sqrt(2) - 63)/8 at n = 2 for every larger n
    if not (Fraction(19, 26) ** 2 < 2 and Surd(-63, 38, 2).sign() < 0):
        failures.append({"check": "negative from n = 2 on"})
    checks = 6
    max_gap = 0.0
    for n in log_grid(3, n_max, THEOREM6_GRID_POINTS):
        rec = k0(n)
        gap = abs(rec.k0 - rec.k0_cardano)
        max_gap = max(max_gap, gap)
        checks += 2
        if gap > 1e-6 or not _root_bracketed(n, rec.k0):
            failures.append({"n": n, "bisection": rec.k0, "cardano": rec.k0_cardano})
        if Surd(Fraction(rec.k0) - Fraction(1, 2), -1, n).sign() <= 0:
            failures.append({"n": n, "k0": rec.k0, "approx": math.sqrt(n) + 0.5})
    return _report("theorem6", failures,
                   params={"n_max": n_max, "grid_points": THEOREM6_GRID_POINTS},
                   claim="S(n, sqrt(n) + 1/2) < 0 for every n >= 2", checks=checks,
                   max_root_gap=max_gap)


def _root_bracketed(n: int, root: float) -> bool:
    """S(n, root - 2^-30) < 0 < S(n, root + 2^-30), decided on ints: with
    root = a/d, the ends are (2^30 a -+ d)/D for D = 2^30 d."""
    a, d = root.as_integer_ratio()
    big_d = d << 30
    return _s_scaled(n, (a << 30) - d, big_d) < 0 < _s_scaled(n, (a << 30) + d, big_d)


def _s_scaled(n: int, k: int, d: int) -> int:
    """d^3 S(n, k/d), an integer cubic form in k and d."""
    return k**3 + (n - 6) * k * k * d + (10 - 2 * n) * k * d * d + (2 * n - 5 - n * n) * d**3


def verify_theorem7(m: int = 2) -> dict:
    """Enumerated minimum distances of the concatenated codes against
    (N - K + 1) 2^(m-1), and the exact rate identity, for every K whose
    dimension fits the enumeration cap."""
    if m < 1:
        raise BadParameters(f"need m >= 1, got {m}")
    failures = []
    checks = 0
    skipped = []
    big_n = 1 << m
    for big_k in range(1, big_n + 1):
        spec = concat_spec(m, big_n, big_k)
        params = concat_params(spec)
        checks += 1
        if params.rate != Fraction(big_k, big_n) * Fraction(m + 1, 1 << m):
            failures.append({"m": m, "K": big_k, "check": "rate"})
        if params.k > THEOREM7_ENUM_CAP:
            skipped.append(big_k)
            continue
        code = concat_generator(spec)
        dmin = exact_min_distance(code)
        checks += 1
        if dmin < params.dmin_lb:
            failures.append(
                {"m": m, "K": big_k, "dmin": dmin, "floor": params.dmin_lb}
            )
    return _report("theorem7", failures, params={"m": m, "enum_cap": THEOREM7_ENUM_CAP},
                   checks=checks, skipped_K=skipped)


def verify_section6() -> dict:
    """The concatenated floor (1 - r)/2 dominates the single-letter
    floor (1 - r(m + 1))/2 at every outer rate r = j/d in (0, 1/(m + 1)]
    on the grid, d = steps (m + 1).  Times 2d that is d - j > d - j(m + 1),
    decided on ints."""
    failures = []
    for m in SECTION6_MS:
        d = SECTION6_STEPS * (m + 1)
        for j in range(1, SECTION6_STEPS + 1):
            if not d - j > d - j * (m + 1):
                r = Fraction(j, d)
                lhs, rhs = (1 - r) / 2, (1 - r * (m + 1)) / 2
                failures.append({"m": m, "r": str(r), "lhs": str(lhs), "rhs": str(rhs)})
    return _report("section6", failures, params={"ms": list(SECTION6_MS), "steps": SECTION6_STEPS},
                   checks=len(SECTION6_MS) * SECTION6_STEPS)
