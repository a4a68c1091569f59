import math
import random
from fractions import Fraction

import pytest

from helpers import gv_definition
from shadowcodes.binary import exact_min_distance
from shadowcodes.bounds import (
    CubicRecord,
    DEFAULT_SEED,
    DG_M_MAX,
    FIG1_POINTS_MAX,
    FIG3_EXACT_CAP,
    FIG4_M_MAX,
    GV_N_MAX,
    K0_N_MAX,
    deltacon,
    dg_params,
    POWER_BITS_MAX,
    _iroot,
    fig1_rows,
    fig3_rows,
    fig4_rows,
    floor_power,
    fourth_power_exponent,
    gv_min_distance,
    k0,
    rm2_dim,
    s_cubic,
    shadow_lb_deg1,
    shadow_lb_deg2,
)
from shadowcodes.errors import BadParameters, BadShape, BudgetExceeded
from shadowcodes.field import find_odd_prime_power
from shadowcodes.shadow import Surd, construct_deg1_nk


def test_default_seed_value():
    assert DEFAULT_SEED == 1729


# ------------------------------------------------------------ DG and RM

def test_dg_frozen_values():
    assert dg_params(4, 2) == (16, 8, 6)  # the length-16 Kerdock point
    assert dg_params(4, 1) == (16, 11, 4)
    assert dg_params(6, 1) == (64, 22, 16)
    assert dg_params(10, 5) == (1024, 20, 496)


def test_dg_d1_matches_second_order_reed_muller():
    for m in (4, 6, 8, 10):
        assert dg_params(m, 1)[1] == rm2_dim(m)


def test_dg_validation():
    for m, d in [(3, 1), (2, 1), (4, 0), (4, 3), (10, 6), (DG_M_MAX + 2, 1), (20000, 1)]:
        with pytest.raises(BadParameters):
            dg_params(m, d)
    # the cap is the last even m whose length still prints as a decimal
    assert len(str(dg_params(DG_M_MAX, 1)[0])) == 4300
    with pytest.raises(BadParameters):
        rm2_dim(1)


# ------------------------------------------------------------------- GV

def test_gv_frozen_and_defining_property():
    assert gv_min_distance(16, 6) == 5
    assert sum(math.comb(15, i) for i in range(4)) == 576 < 1024
    assert sum(math.comb(15, i) for i in range(5)) == 1941 >= 1024
    for n, k in [(16, 6), (32, 9), (64, 33), (100, 50)]:
        d = gv_min_distance(n, k)
        target = 1 << (n - k)
        assert sum(math.comb(n - 1, i) for i in range(d - 1)) < target
        if d < n:
            assert sum(math.comb(n - 1, i) for i in range(d)) >= target


def test_gv_edges_and_monotonicity():
    assert gv_min_distance(10, 10) == 1
    assert gv_min_distance(10, 1) == 10
    prev = None
    for k in range(1, 33):
        d = gv_min_distance(32, k)
        if prev is not None:
            assert d <= prev
        prev = d
    with pytest.raises(BadParameters):
        gv_min_distance(10, 0)
    with pytest.raises(BadParameters):
        gv_min_distance(10, 11)
    with pytest.raises(BudgetExceeded):
        gv_min_distance(GV_N_MAX + 1, 10)


def test_gv_column_matches_per_k_definition():
    for n in (16, 113, 1024):
        assert [gv_min_distance(n, k) for k in range(1, n + 1)] == [
            gv_definition(n, k) for k in range(1, n + 1)
        ]


# --------------------------------------------------- shadow floor curves

def test_shadow_floor_formulas():
    assert shadow_lb_deg1(113, 9) == pytest.approx(104 / 2 - 7 * math.sqrt(121) / 2 + 0.5)
    assert shadow_lb_deg1(104, 10) == pytest.approx(47.5 - 4 * math.sqrt(113))
    assert shadow_lb_deg2(49, 3) == pytest.approx(7.0)
    with pytest.raises(BadParameters):
        shadow_lb_deg1(0, 3)
    with pytest.raises(BadParameters):
        shadow_lb_deg2(10, 0)


def test_fig3_floor_rows_stop_at_the_thresholds():
    for n in (1, 2, 9, 25, 26, 49, 81, 121, 256, 1024):
        rows = fig3_rows(n)
        deg2 = [r.k for r in rows if r.scheme == "shadow_deg2"]
        big_k = len(deg2)
        assert deg2 == list(range(1, big_k + 1))
        assert (big_k == 0 or (2 * big_k - 1) ** 2 < n) and n <= (2 * big_k + 1) ** 2
        deg1 = [r.k for r in rows if r.scheme == "shadow_deg1"]
        k1 = len(deg1) + 1
        assert deg1 == list(range(2, k1 + 1))
        assert all(s_cubic(n, k) < 0 for k in deg1) and s_cubic(n, k1 + 1) >= 0


# ------------------------------------------------------- threshold cubic

def test_s_cubic_frozen_values():
    assert s_cubic(113, 9) == -5096
    assert s_cubic(3, 0) == -8
    assert s_cubic(3, 3) == 4


def test_theorem6_fails_when_s_cubic_is_perturbed(monkeypatch):
    from shadowcodes import verify

    assert verify.verify_theorem6(n_max=1000)["ok"]
    # the perturbation flips the sign only beyond n ~ 1.6e8, out of reach
    # of any loop over n, but it breaks the closed form at every m
    def perturbed(n, k):
        return s_cubic(n, k) + Fraction(n) ** 3 / 10**15

    monkeypatch.setattr(verify, "s_cubic", perturbed)
    report = verify.verify_theorem6(n_max=1000)
    assert not report["ok"]
    assert [f["m"] for f in report["failures"]] == [1, 2, 3, 4]


def test_s_cubic_factored_identity():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(3, 500)
        k = rng.randrange(0, n + 1)
        assert s_cubic(n, k) == (n + k - 1) * (k - 2) ** 2 - (n - k + 1) ** 2


def test_positive_floor_iff_cubic_negative_exact_grid():
    # the sign comparison is exact on both sides: integer cubic against
    # the surd form of the floor
    for n in range(3, 61):
        for k in range(1, n + 1):
            floor = Surd(Fraction(n - k + 1, 2), -Fraction(k - 2, 2), n + k - 1)
            assert (floor.sign() > 0) == (s_cubic(n, k) < 0), (n, k)


def test_k0_brackets_the_root():
    for n in (3, 13, 14, 100, 1024, 99991):
        rec = k0(n)
        assert s_cubic(n, rec.k0 - 1e-5) < 0 < s_cubic(n, rec.k0 + 1e-5)
        assert abs(rec.k0 - rec.k0_cardano) <= 1e-6
        gap = rec.k0 - (math.sqrt(n) + 0.5)
        assert 0 < gap < 0.5


def test_k0_record_fields_in_printed_order():
    assert CubicRecord._fields == ("n", "k0", "k0_cardano", "xi", "omega_sq")


def test_k0_radicand_sign_boundary():
    assert k0(13).omega_sq == 1272
    assert k0(14).omega_sq == -687
    assert all(k0(n).omega_sq > 0 for n in range(3, 14))
    assert all(k0(n).omega_sq < 0 for n in range(14, 40))
    assert k0(3).xi == 3.0
    with pytest.raises(BadParameters):
        k0(2)


def test_k0_closed_form_holds_up_to_its_bound():
    """The float closed form stays within 1e-6 of the bisection on a
    log-uniform sample of n <= K0_N_MAX and on the top of that range;
    one past the bound is refused."""
    rng = random.Random(29)
    top = range(K0_N_MAX - 200, K0_N_MAX + 1)
    sample = [round(math.exp(rng.uniform(math.log(3), math.log(K0_N_MAX)))) for _ in range(500)]
    for n in [*sample, *top]:
        rec = k0(n)  # raises AssertionError past the 1e-6 margin
        assert abs(rec.k0 - rec.k0_cardano) <= 1e-6, n
    with pytest.raises(BadParameters):
        k0(K0_N_MAX + 1)


# ------------------------------------------------- concatenated formulas

def test_fourth_power_exponent():
    assert fourth_power_exponent(4) == 1
    assert fourth_power_exponent(16) == 2
    assert fourth_power_exponent(1024) == 5
    for n in (0, 1, 2, 3, 15, 32, 100):
        assert fourth_power_exponent(n) is None


def test_deltacon_values_and_alignment():
    assert deltacon(16, 3) == 0.5
    for m in (2, 3, 5):
        n = 1 << (2 * m)
        for K in (1, 2, 5):
            if K * (m + 1) > n:
                continue
            k = K * (m + 1)
            assert deltacon(n, k) == pytest.approx(0.5 - (K - 1) / (1 << (m + 1)), abs=1e-15)
    with pytest.raises(BadShape):
        deltacon(15, 2)
    with pytest.raises(BadShape):
        deltacon(32, 2)
    for k in (-5, 0, 17):
        with pytest.raises(BadParameters):
            deltacon(16, k)


def _fig4_shadow_delta(a: float, m: int) -> float:
    (row,) = [row for row in fig4_rows(a, m, m) if row.scheme == "shadow_deg1"]
    assert row.delta == shadow_lb_deg1(row.n, row.k) / row.n  # at the k the row prints
    return row.delta


def test_fig4_shadow_column():
    assert _fig4_shadow_delta(0.49, 2) == pytest.approx(0.3049174785275224)
    values = [_fig4_shadow_delta(a, 6) for a in (0.2, 0.3, 0.4, 0.5)]
    assert values == sorted(values, reverse=True)
    for a in (0.0, 0.51):
        with pytest.raises(BadShape):
            fig4_rows(a)


@pytest.mark.parametrize("a, p, r", [(0.25, 1, 4), (0.4, 2, 5), (0.49, 49, 100), (0.5, 1, 2)])
def test_floor_power_is_exact_past_float_precision(a, p, r):
    """fig4's k = floor(n^a) at n = 4^m, a = p/r, has k^r <= n^p < (k + 1)^r
    at lengths where k passes 2^53, so the float floor(n**a) can miss."""
    for m in (50, 62, 105):
        n = 1 << (2 * m)
        k = floor_power(n, a)
        assert k**r <= n**p < (k + 1) ** r
        assert {row.k for row in fig4_rows(a, m, m)} == {k}


def test_floor_power_mends_the_float_floor():
    """At m = 50 and a = 0.49, n^a is 2^49 exactly; the float floor printed
    one less."""
    n = 1 << 100
    assert math.floor(n**0.49) == 2**49 - 1
    assert floor_power(n, 0.49) == 2**49
    assert floor_power(n, 0.5) == 2**50 and floor_power(n, 0.0) == 1
    assert floor_power(1, 0.49) == 1 and floor_power(3, 5e-324) == 1


def test_integer_root_brackets_the_real_root():
    rng = random.Random(5)
    cases = [(x, r) for x in range(70) for r in range(1, 5)]
    cases += [(rng.getrandbits(rng.randrange(1, 600)), rng.randrange(1, 60)) for _ in range(500)]
    for x, r in cases:
        y = _iroot(x, r)
        assert y**r <= x < (y + 1) ** r, (x, r)


def test_fig4_refuses_an_exponent_past_the_root_budget():
    """a = 0.499 is 499/1000: n^499 at n = 4^511 has more bits than the
    budget, so the table is refused before any row is computed."""
    assert 499 * (2 * FIG4_M_MAX + 1) > POWER_BITS_MAX
    with pytest.raises(BudgetExceeded):
        fig4_rows(0.499, 2, FIG4_M_MAX)
    assert len(fig4_rows(0.499, 2, 4)) == 6


# ---------------------------------------------------------------- tables

def test_fig1_rows():
    rows = fig1_rows(10, 1000, 10)
    assert [set(r) for r in rows] == [{"n", "k0", "approx"}] * len(rows)
    ns = [r["n"] for r in rows]
    assert ns == sorted(ns) and ns[0] == 10 and ns[-1] == 1000
    for r in rows:
        assert 0 < r["k0"] - r["approx"] < 0.5
    with pytest.raises(BadParameters):
        fig1_rows(2, 1)
    assert len(fig1_rows(10, 1000, 1)) == 1
    for points in (0, -3):
        with pytest.raises(BadParameters):
            fig1_rows(10, 1000, points)
    with pytest.raises(BadParameters):
        fig1_rows(10, K0_N_MAX + 1, 3)
    # the grid lists every point before it drops repeats
    assert len(fig1_rows(10, 11, FIG1_POINTS_MAX)) == 2
    with pytest.raises(BudgetExceeded, match="fig1 grid budget"):
        fig1_rows(10, 11, FIG1_POINTS_MAX + 1)


def test_fig3_rows_at_1024():
    rows = fig3_rows(1024)
    by_scheme = {}
    for r in rows:
        by_scheme.setdefault(r.scheme, []).append(r)
    assert set(by_scheme) == {
        "shadow_deg1",
        "shadow_deg2",
        "rsrm",
        "dg",
        "rm1",
        "rm2",
        "gv",
        "random",
        "shadow_exact",
    }
    assert sorted(r.k for r in by_scheme["shadow_exact"]) == [8, 10, 16]
    assert sorted(r.k for r in by_scheme["dg"]) == [20, 29, 38, 47, 56]
    assert len(by_scheme["gv"]) == 1024
    assert all(r.kind == "existence" for r in by_scheme["gv"])
    assert all(r.kind == "exact" for r in by_scheme["random"])
    assert {r.k for r in by_scheme["random"]} == {8, 12, 16}
    assert [r.k for r in by_scheme["rm1"]] == [11]
    assert [r.k for r in by_scheme["rm2"]] == [56]
    assert len(by_scheme["rsrm"]) == 32
    for r in rows:
        assert r.n == 1024
        assert r.rate == pytest.approx(r.k / 1024)
        assert r.kind in {"lower_bound", "exact", "existence", "upper_bound"}
    # every exactly-enumerated shadow dot beats its own floor
    floors = {r.k: r.delta for r in by_scheme["shadow_deg1"]}
    for r in by_scheme["shadow_exact"]:
        assert r.delta >= floors[r.k]


@pytest.mark.parametrize("n", [2, 40, 108, 155])
def test_fig3_exact_rows_claim_only_their_codes_rank(n):
    """At these lengths some deg1 codes with k <= FIG3_EXACT_CAP are
    rank-deficient; no shadow_exact row may claim a dimension its code
    lacks."""
    exact = [r for r in fig3_rows(n) if r.scheme == "shadow_exact"]
    dropped = [
        k
        for k in range(2, FIG3_EXACT_CAP + 1)
        if find_odd_prime_power(n + k - 1) and k not in {r.k for r in exact}
    ]
    assert dropped
    for r in exact:
        code = construct_deg1_nk(n, r.k)
        assert code.rank == r.k
        assert r.delta == exact_min_distance(code.generator()) / n


def test_fig3_rows_deterministic():
    a = fig3_rows(1024)
    b = fig3_rows(1024)
    assert a == b


def test_fig3_rows_off_grid_length():
    rows = fig3_rows(500)
    schemes = {r.scheme for r in rows}
    assert "rsrm" not in schemes and "dg" not in schemes and "rm1" not in schemes
    assert sorted(r.k for r in rows if r.scheme == "shadow_exact") == [4, 10]
    gv = [r for r in rows if r.scheme == "gv"]
    assert len(gv) == 500 and all(r.kind == "existence" for r in gv)


def test_fig3_large_length_keeps_the_exact_gv_column():
    n = 8192
    rows = fig3_rows(n)
    gv = [r for r in rows if r.scheme == "gv"]
    assert [r.k for r in gv] == list(range(1, n + 1))
    assert all(r.kind == "existence" for r in gv)
    # k = 1 saturates (d = n) and is covered by the full columns above;
    # these k keep the per-term oracle under a second
    for k in (1500, 4096, 6000, 8191, 8192):
        assert gv[k - 1].delta == gv_definition(n, k) / n


def test_fig4_rows_concat_dominates():
    rows = fig4_rows()
    assert len(rows) == 18
    pairs = {}
    for r in rows:
        pairs.setdefault(r.n, {})[r.scheme] = r.delta
    assert set(pairs) == {1 << (2 * m) for m in range(2, 11)}
    for n, d in pairs.items():
        assert d["rsrm"] > d["shadow_deg1"] > 0
    assert pairs[16]["rsrm"] == 0.5
    assert pairs[16]["shadow_deg1"] == pytest.approx(0.3049174785275224)
    with pytest.raises(BadShape):
        fig4_rows(a=0.6)
    with pytest.raises(BadParameters):
        fig4_rows(m_min=1)
    assert len(fig4_rows(m_min=FIG4_M_MAX, m_max=FIG4_M_MAX)) == 2  # 4^511 fits a float
    with pytest.raises(BadParameters):
        fig4_rows(m_max=FIG4_M_MAX + 1)

