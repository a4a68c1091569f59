"""Acceptance gate: eight end-to-end checks, each timed against its
budget and reported as a single PASS line with the measured values.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import math
import time
from fractions import Fraction

from shadowcodes.binary import exact_min_distance
from shadowcodes.bounds import dg_params, fig4_rows, gv_min_distance, rm2_dim
from shadowcodes.concat import concat_generator, concat_params, concat_spec
from shadowcodes.field import field_of_order
from shadowcodes.shadow import Surd, construct_deg1, construct_deg2, distance_lower_bound
from shadowcodes.verify import verify_section6, verify_theorem6, verify_weil


def _report(name: str, budget: float, elapsed: float, detail: str) -> None:
    print(f"PASS {name}: {detail} [{elapsed:.2f}s < {budget:.0f}s]")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget at {elapsed:.2f}s"


def test_1_deg1_flagship():
    start = time.perf_counter()
    code = construct_deg1(field_of_order(121), 113)
    assert (code.n, code.k, code.rank) == (113, 9, 9)
    floor = distance_lower_bound(code)
    assert floor.is_exact and Surd(floor.a - 14, floor.b, floor.q).sign() == 0
    dmin = exact_min_distance(code.generator())
    assert dmin >= 14
    _report(
        "deg1 flagship",
        1.0,
        time.perf_counter() - start,
        f"(113, 9) code, delta = 14 exactly, enumerated dmin = {dmin} >= 14",
    )


def test_2_deg2_instance():
    start = time.perf_counter()
    code = construct_deg2(field_of_order(49), 3)
    assert (code.n, code.k, code.rank) == (49, 3, 3)
    floor = distance_lower_bound(code)
    assert floor.is_exact and Surd(floor.a - 7, floor.b, floor.q).sign() == 0
    dmin = exact_min_distance(code.generator())
    assert dmin >= 7
    _report(
        "deg2 instance",
        1.0,
        time.perf_counter() - start,
        f"(49, 3) code, delta = 7 exactly, enumerated dmin = {dmin} >= 7",
    )


def test_3_dimension_threshold():
    start = time.perf_counter()
    report = verify_theorem6(n_max=100000)
    assert report["ok"], report["failures"][:3]
    _report(
        "dimension threshold",
        10.0,
        time.perf_counter() - start,
        f"S(n, sqrt(n)+1/2) < 0 for every n >= 2 (exact) and root gap "
        f"{report['max_root_gap']:.2e} <= 1e-6 on the 50-point grid "
        f"({report['checks']} checks)",
    )


def test_4_weil_oracle():
    start = time.perf_counter()
    report = verify_weil(q_max=121, count=200)
    assert report["ok"], report["failures"][:3]
    assert report["checks"] >= 201
    _report(
        "weil oracle",
        30.0,
        time.perf_counter() - start,
        f"{report['checks']} point-count windows held exactly, "
        "including the 2-point hand case over GF(3)",
    )


def test_5_concatenated_codes():
    start = time.perf_counter()
    details = []
    for K in (1, 2, 3):
        spec = concat_spec(2, 4, K)
        params = concat_params(spec)
        assert params.rate == Fraction(K, 4) * Fraction(3, 4)
        dmin = exact_min_distance(concat_generator(spec))
        assert dmin >= params.dmin_lb
        details.append(f"K={K}: dmin {dmin} >= {params.dmin_lb}")
    _report(
        "concatenated distance",
        1.0,
        time.perf_counter() - start,
        "; ".join(details) + "; rates exact",
    )


def test_6_dg_gv_tables():
    start = time.perf_counter()
    assert dg_params(4, 2) == (16, 8, 6)
    for m in (4, 6, 8):
        assert dg_params(m, 1)[1] == rm2_dim(m) == 1 + m + m * (m - 1) // 2
    assert gv_min_distance(16, 6) == 5
    _report(
        "dg/gv tables",
        1.0,
        time.perf_counter() - start,
        "dg(4,2) = (16, 8, 6); dg(m,1) dim matches RM(2,m) for m in {4,6,8}; "
        "gv(16,6) = 5",
    )


def test_7_floor_ordering():
    start = time.perf_counter()
    report = verify_section6()
    assert report["ok"], report["failures"][:3]
    rows = fig4_rows(a=0.49)
    by_n = {}
    for r in rows:
        by_n.setdefault(r.n, {})[r.scheme] = r.delta
    assert all(d["rsrm"] >= d["shadow_deg1"] for d in by_n.values())
    _report(
        "floor ordering",
        5.0,
        time.perf_counter() - start,
        f"concatenated floor strictly above on all {report['checks']} grid "
        f"points and at every fig4 length {sorted(by_n)}",
    )


def test_8_tightness_observation():
    start = time.perf_counter()
    roster = [(25, 21), (27, 23), (49, 44), (81, 75), (121, 113), (113, 104)]
    gaps = []
    for q, e_size in roster:
        code = construct_deg1(field_of_order(q), e_size)
        assert code.k <= 14 and code.delta_positive
        floor = distance_lower_bound(code).ceil()
        dmin = exact_min_distance(code.generator())
        assert dmin >= floor
        gaps.append((q, code.k, dmin, floor))
    assert len(gaps) >= 5
    assert any(dmin > floor for _, _, dmin, floor in gaps)
    detail = ", ".join(f"q={q} k={k}: {d} vs {f}" for q, k, d, f in gaps)
    _report(
        "tightness observation",
        120.0,
        time.perf_counter() - start,
        f"dmin >= ceil(delta) on all {len(gaps)} codes and strictly above "
        f"on {sum(d > f for _, _, d, f in gaps)} ({detail})",
    )
