"""Fixed micro-probes for the layers whose calls are too many and too
short to trace one by one: field arithmetic, the irreducibility test,
the GV column and the threshold root.  Inputs come from the run seed;
each probe reports reference seconds (see hostclock.py) per call, loop
overhead included.
"""

from __future__ import annotations

import itertools
import random
import statistics

from shadowcodes.bounds import gv_min_distance, k0
from shadowcodes.field import field_of_order
from shadowcodes.poly import Poly, is_irreducible

from bench.roster import BUILD_FIELDS

PAIRS = 4000
REPEATS = 3
IRREDUCIBILITY_FIELDS = (3, 5, 7, 9, 11)
GV_LENGTH = 1024
K0_POINTS = 200


def _per_call(clock, fn, args, repeats: int = REPEATS) -> float:
    """Median over repeats of reference seconds per call of fn over args."""
    times = []
    for _ in range(repeats):
        with clock.measuring() as took:
            for a in args:
                fn(*a)
        times.append(took[1] / len(args))
    return statistics.median(times)


def field_probes(rng: random.Random, clock) -> dict[str, float]:
    out = {}
    for q in BUILD_FIELDS:
        f = field_of_order(q)
        pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(PAIRS)]
        out[f"field.add.ns.q{q}"] = _per_call(clock, f.add, pairs) * 1e9
        out[f"field.mul.ns.q{q}"] = _per_call(clock, f.mul, pairs) * 1e9
        singles = [(a,) for a, _ in pairs]
        out[f"field.lg_parity.ns.q{q}"] = _per_call(clock, f.lg_parity, singles) * 1e9
    return out


def poly_probe(clock) -> dict[str, float]:
    """Every monic quadratic and cubic over the small fields."""
    cands = [
        (Poly(field_of_order(q), low + (1,)),)
        for q in IRREDUCIBILITY_FIELDS
        for d in (2, 3)
        for low in itertools.product(range(q), repeat=d)
    ]
    return {"poly.is_irreducible.us": _per_call(clock, is_irreducible, cands, 1) * 1e6}


def bounds_probes(rng: random.Random, clock) -> dict[str, float]:
    column = [(GV_LENGTH, k) for k in range(1, GV_LENGTH + 1)]
    lengths = [(rng.randrange(3, 100000),) for _ in range(K0_POINTS)]
    return {
        "bounds.gv_min_distance.us": _per_call(clock, gv_min_distance, column, 1) * 1e6,
        "bounds.k0.us": _per_call(clock, k0, lengths) * 1e6,
    }


def run_probes(seed: int, clock) -> dict[str, float]:
    rng = random.Random(f"probes:{seed}")
    return {**field_probes(rng, clock), **poly_probe(clock), **bounds_probes(rng, clock)}
