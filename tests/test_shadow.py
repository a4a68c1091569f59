import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from helpers import euler_row, naive_min_distance, naive_weight_hist, surd_value
from shadowcodes.binary import exact_min_distance, weight_distribution
from shadowcodes.errors import (
    BadDescriptor,
    BadParameters,
    BudgetExceeded,
    EvaluationSetIsFullField,
    EvenCharacteristic,
    ExhaustedSupply,
    FieldMismatch,
    NonpositiveDelta,
    NotPrime,
    ParameterNotAdmissible,
    VanishesOnE,
)
from shadowcodes.field import Field, field_create, field_of_order, find_odd_prime_power
from shadowcodes.poly import Poly, x_minus
from shadowcodes import shadow
from shadowcodes.shadow import (
    Surd,
    basic_set,
    build_B1,
    build_B2,
    construct,
    construct_deg1,
    construct_deg1_nk,
    construct_deg2,
    delta,
    distance_lower_bound,
    evaluation_set,
    first_evaluation_set,
    from_descriptor,
    full_evaluation_set,
    lambda_map,
    surd_from_json,
    to_descriptor,
)

F7 = field_create(7)
F9 = field_create(3, 2)


# ---------------------------------------------------------------- Surd

def test_surd_sign_exact_cases():
    assert Surd(0, 0, 7).sign() == 0
    assert Surd(3, 0, 7).sign() == 1
    assert Surd(-3, 0, 7).sign() == -1
    assert Surd(0, 1, 7).sign() == 1
    assert Surd(0, -1, 7).sign() == -1
    # opposite signs decided on squares: -3 + sqrt(7) < 0 < -2 + sqrt(7)
    assert Surd(-3, 1, 7).sign() == -1
    assert Surd(-2, 1, 7).sign() == 1
    assert Surd(3, -1, 7).sign() == 1
    assert Surd(2, -1, 7).sign() == -1
    # perfect-square radicand resolves ties exactly
    assert Surd(-5, 1, 25).sign() == 0
    assert Surd(Fraction(105, 2), Fraction(-7, 2), 121).sign() == 1


def test_surd_ceil_exact_cases():
    assert Surd(0, 1, 2).ceil() == 2
    assert Surd(0, -1, 2).ceil() == -1
    assert Surd(3, 0, 5).ceil() == 3
    assert Surd(Fraction(1, 2), 0, 3).ceil() == 1
    assert Surd(Fraction(-1, 2), 0, 3).ceil() == 0
    # lands exactly on an integer: 105/2 - (7/2)*11 = 14
    assert Surd(Fraction(105, 2), Fraction(-7, 2), 121).ceil() == 14
    # value microscopically above zero; float rounding alone says 0
    assert Surd(Fraction(1, 10**20), 0, 2).ceil() == 1
    assert Surd(Fraction(-1, 10**20), 0, 2).ceil() == 0


RATIONALS = st.fractions(-(10**6), 10**6, max_denominator=100)


@settings(max_examples=300, deadline=None)
@given(
    a=RATIONALS,
    b=RATIONALS,
    q=st.one_of(st.integers(0, 10**6), st.integers(0, 1000).map(lambda r: r * r)),
    tie=st.one_of(st.none(), st.integers(-3, 3)),
)
def test_surd_sign_and_ceil_match_the_oracle(a, b, q, tie):
    r = math.isqrt(q)
    if tie is not None and r * r == q:
        a = tie - b * r  # the value is the integer tie
    v = surd_value(a, b, q)
    s = Surd(a, b, q)
    assert s.sign() == (v > 0) - (v < 0)
    assert s.ceil() == math.ceil(v)


HUGE_INTS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(10**400, 10**401),
    st.integers(-(10**401), -(10**400)),
)
HUGE_RATIONALS = st.builds(
    Fraction, HUGE_INTS, st.one_of(st.integers(1, 100), st.integers(1, 10**20))
)


@settings(max_examples=300, deadline=None)
@given(
    a=HUGE_RATIONALS,
    b=HUGE_RATIONALS,
    q=st.one_of(
        st.integers(0, 10**6),
        st.integers(0, 10**6).map(lambda r: r * r),
        st.integers(0, 10**40),
    ),
    tie=st.one_of(st.none(), st.integers(-3, 3)),
)
def test_surd_ceil_is_the_least_integer_above(a, b, q, tie):
    """ceil is the least t with a - t + b sqrt(q) <= 0, far past float
    range (|a|, |b| up to 10^401) and with denominators up to 10^20; that
    sign falls as t grows, so t = ceil must pass and t - 1 fail."""
    r = math.isqrt(q)
    if tie is not None and r * r == q:
        a = tie - b * r  # the value is the integer tie
    t = Surd(a, b, q).ceil()
    assert Surd(a - t, b, q).sign() <= 0
    assert Surd(a - (t - 1), b, q).sign() > 0
    if tie is not None and r * r == q:
        assert t == tie


def test_surd_exactness_and_json():
    s = Surd(Fraction(105, 2), Fraction(-7, 2), 121)
    assert s.is_exact and Surd(s.a - 14, s.b, s.q).sign() == 0
    t = Surd(1, 1, 7)
    assert not t.is_exact
    for v in (s, t):
        assert surd_from_json(v.to_json()) == v


# ------------------------------------------------------- evaluation sets

def test_evaluation_set_validation():
    ev = evaluation_set(F7, [2, 0, 1])
    assert ev.points == (0, 1, 2)  # sorted
    with pytest.raises(ValueError):
        evaluation_set(F7, [0, 0, 1])
    with pytest.raises(ValueError):
        evaluation_set(F7, [])
    with pytest.raises(ValueError):
        evaluation_set(F7, [7])
    with pytest.raises(EvenCharacteristic):
        evaluation_set(field_create(2, 3), [0, 1])
    assert full_evaluation_set(F7).points == tuple(range(7))
    assert first_evaluation_set(F7, 3).points == (0, 1, 2)


def test_shadow_parameter_faults_are_package_errors():
    with pytest.raises(BadParameters):
        evaluation_set(F7, [0, 0, 1])
    with pytest.raises(BadParameters):
        first_evaluation_set(F7, 8)
    with pytest.raises(BadParameters):
        basic_set([Poly(F7, (6, 0, 1))])
    with pytest.raises(BadParameters):
        build_B2(F7, 0)



SMALL_ODD = [F7, F9, field_create(5, 2)]


@pytest.mark.parametrize("field", SMALL_ODD, ids=repr)
def test_a_range_E_is_the_list_E_of_its_points(field):
    """A step-1 range inside 0..q-1, taken as built, gives the set the
    checked list of the same points gives; so do the other ranges,
    which go through the checks."""
    q = field.q
    for start in range(q):
        for stop in range(start + 1, q + 1):
            ev = evaluation_set(field, range(start, stop))
            assert ev == evaluation_set(field, list(range(start, stop)))
            assert type(ev.points) is tuple and set(map(type, ev.points)) == {int}
    for n in range(1, q + 1):
        assert first_evaluation_set(field, n) == evaluation_set(field, list(range(n)))
    assert full_evaluation_set(field) == evaluation_set(field, list(range(q)))
    for points in (range(0, q, 2), range(q - 1, -1, -1), range(q - 1, 0, -3)):
        assert evaluation_set(field, points).points == tuple(sorted(points))


@pytest.mark.parametrize("field", SMALL_ODD, ids=repr)
def test_a_range_E_past_the_field_or_empty_is_refused(field):
    q = field.q
    for empty in (range(0), range(3, 3), range(4, 1), range(1, 4, -1)):
        with pytest.raises(BadParameters, match="empty evaluation set"):
            evaluation_set(field, empty)
    for outside in (range(q + 1), range(q - 2, q + 1), range(-1, 3), range(-2, q)):
        with pytest.raises(BadParameters, match=f"element indices in 0..{q - 1}"):
            evaluation_set(field, outside)
    with pytest.raises(EvenCharacteristic):
        first_evaluation_set(field_create(2, 3), 3)
    with pytest.raises(EvenCharacteristic):
        evaluation_set(field_create(2, 3), range(3))

# ------------------------------------------------------------ basic sets

def test_basic_set_validation():
    b = basic_set([x_minus(F7, 3), Poly.constant(F7, 3)])
    assert sum(f.degree for f in b.polys) == 1 and any(f.degree < 1 for f in b.polys)
    with pytest.raises(ValueError):
        basic_set([])
    with pytest.raises(ValueError):
        basic_set([Poly(F7, (6, 3))])  # not monic
    with pytest.raises(ValueError):
        basic_set([Poly(F7, (6, 0, 1))])  # x^2 - 1 reducible
    with pytest.raises(ValueError):
        basic_set([x_minus(F7, 3), x_minus(F7, 3)])  # repeated factor
    with pytest.raises(ValueError):
        basic_set([Poly.constant(F7, 3), Poly.constant(F7, 5)])  # two constants
    with pytest.raises(ValueError):
        basic_set([Poly.constant(F7, 2)])  # 2 has order 3, not primitive
    with pytest.raises(ValueError):
        basic_set([Poly.zero(F7)])
    with pytest.raises(FieldMismatch):
        basic_set([Poly.x(F7), Poly.x(F9)])


# ------------------------------------------------------------ lambda map

def test_lambda_map_hand_case():
    # x - 3 on E = {0,1,2} over GF(7): values 4, 5, 6; squares are {1,2,4}
    ev = evaluation_set(F7, [0, 1, 2])
    assert lambda_map(x_minus(F7, 3), ev) == 0b110


def test_lambda_map_constants():
    ev = full_evaluation_set(F9)
    alpha = F9.primitive_element()
    assert lambda_map(Poly.constant(F9, alpha), ev) == (1 << 9) - 1
    square = F9.mul(alpha, alpha)
    assert lambda_map(Poly.constant(F9, square), ev) == 0


def test_lambda_map_vanishing_reports_point():
    ev = evaluation_set(F7, [0, 1, 4])
    with pytest.raises(VanishesOnE) as exc:
        lambda_map(x_minus(F7, 4), ev)
    assert exc.value.point == 4
    # of two roots in E, the first evaluation point is reported
    with pytest.raises(VanishesOnE) as exc:
        lambda_map(x_minus(F7, 4) * x_minus(F7, 1), ev)
    assert exc.value.point == 1


GATHER_ORDERS = [q for q in range(3, 730, 2) if find_odd_prime_power(q)] + [65537]


@pytest.mark.parametrize("q", GATHER_ORDERS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_lambda_map_matches_horner_and_euler(q, data):
    """The monics of degree 1 and 2 over E = range(|E|) with 2|E| >= q,
    and only they, gather their rows through Field.translate and
    Field.gather_squares; a constant reads one character, and a short
    or scattered E, a non-monic or a cubic takes Horner.  Over every odd
    q <= 729 and GF(65537), on every path, the row equals Horner plus
    Euler's criterion.  Each order is its own case, so a failing
    example shrinks over one field."""
    with (
        patch.object(Field, "translate", autospec=True, side_effect=Field.translate) as rolls,
        patch.object(
            Field, "gather_squares", autospec=True, side_effect=Field.gather_squares
        ) as gathers,
    ):
        field = field_of_order(q)
        coeff = st.integers(0, q - 1)
        n = data.draw(st.integers(1, q), label="n")
        if data.draw(st.booleans(), label="contiguous"):
            points = range(n)
        else:
            seed = data.draw(st.integers(0, 2**32), label="seed")
            points = sorted(random.Random(seed).sample(range(q), n))
        ev = evaluation_set(field, points)
        polys = [
            Poly.constant(field, data.draw(coeff, label="const")),
            Poly(field, (data.draw(coeff, label="c"), 1)),
            Poly(field, (data.draw(coeff, label="c"), data.draw(coeff, label="b"), 1)),
            Poly(
                field,
                (
                    data.draw(coeff, label="c"),
                    data.draw(coeff, label="b"),
                    data.draw(st.integers(2, q - 1), label="lead"),
                ),
            ),
            Poly(field, [data.draw(coeff, label="c") for _ in range(3)] + [1]),
        ]
        for f in polys:
            rolls.reset_mock()
            gathers.reset_mock()
            try:
                got = lambda_map(f, ev)
            except VanishesOnE as exc:
                got = ("vanishes", exc.point)
            assert got == euler_row(f, ev.points), (q, f)
            prefix = ev.points == tuple(range(n))  # a sample may draw a prefix
            gathered = prefix and 2 * n >= q and f.is_monic and 1 <= f.degree <= 2
            assert rolls.call_count == (f.degree if gathered else 0), (q, n, f)
            assert gathers.call_count == (gathered and f.degree == 2), (q, n, f)


def test_gathered_row_reports_the_first_vanishing_point():
    ev = first_evaluation_set(F7, 4)  # E = range(4), 2|E| >= 7: the row is gathered
    with pytest.raises(VanishesOnE) as exc:
        lambda_map(x_minus(F7, 3), ev)
    assert exc.value.point == 3
    with pytest.raises(VanishesOnE) as exc:
        lambda_map(x_minus(F7, 2) * x_minus(F7, 1), ev)
    assert exc.value.point == 1
    f49 = field_of_order(49)
    minus_one = f49.neg(1)
    with pytest.raises(VanishesOnE) as exc:
        lambda_map(x_minus(f49, minus_one) * x_minus(f49, 1), full_evaluation_set(f49))
    assert exc.value.point == 1
    with pytest.raises(VanishesOnE) as exc:
        lambda_map(Poly.zero(f49), full_evaluation_set(f49))
    assert exc.value.point == 0


def test_lambda_map_is_multiplicative():
    rng = random.Random(7)
    ev = evaluation_set(F7, [0, 1, 2, 5])
    pool = [x_minus(F7, 3), x_minus(F7, 4), x_minus(F7, 6), Poly(F7, (1, 0, 1)), Poly.constant(F7, 3)]
    for _ in range(40):
        f, g = rng.choice(pool), rng.choice(pool)
        assert lambda_map(f * g, ev) == lambda_map(f, ev) ^ lambda_map(g, ev)


# ------------------------------------------------------------- builders

def test_build_B1_shape():
    ev = first_evaluation_set(F7, 5)
    b = build_B1(F7, ev)
    assert len(b.polys) == 3  # two excluded points + constant
    assert sum(f.degree for f in b.polys) == 2
    assert any(f.degree < 1 for f in b.polys)
    assert [f.coeffs for f in b.polys] == [(2, 1), (1, 1), (3,)]  # x-5, x-6, alpha=3
    assert basic_set(b.polys) == b
    with pytest.raises(EvaluationSetIsFullField):
        build_B1(F7, full_evaluation_set(F7))
    with pytest.raises(FieldMismatch):
        build_B1(F9, ev)


def _oracle_B1(field, points) -> list[tuple[int, ...]]:
    """x - lam for each lam outside E in ascending order, then the
    primitive constant, as coefficient tuples."""
    outside = [lam for lam in range(field.q) if lam not in set(points)]
    return [(field.neg(lam), 1) for lam in outside] + [(field.primitive_element(),)]


@pytest.mark.parametrize("field", SMALL_ODD, ids=repr)
def test_build_B1_of_every_prefix_E_is_its_oracle_complement(field):
    for n in range(1, field.q):
        ev = first_evaluation_set(field, n)
        assert [f.coeffs for f in build_B1(field, ev).polys] == _oracle_B1(field, ev.points)
    with pytest.raises(EvaluationSetIsFullField):
        build_B1(field, first_evaluation_set(field, field.q))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_build_B1_of_a_scattered_E_is_its_oracle_complement(data):
    field = data.draw(st.sampled_from(SMALL_ODD))
    points = data.draw(st.sets(st.integers(0, field.q - 1), min_size=1, max_size=field.q - 1))
    ev = evaluation_set(field, sorted(points, reverse=True))
    assert [f.coeffs for f in build_B1(field, ev).polys] == _oracle_B1(field, points)


def test_length_budget_bounds_points_and_rows(monkeypatch):
    """At a budget of 5 over GF(7): an E of 5 points and a B1 of 5 rows
    (|E| = 3) are built, one more of either is refused before it is."""
    monkeypatch.setattr(shadow, "LENGTH_BUDGET", 5)
    assert len(build_B1(F7, first_evaluation_set(F7, 3)).polys) == 5
    assert first_evaluation_set(F7, 5).points == tuple(range(5))
    with pytest.raises(BudgetExceeded, match="length budget 5"):
        first_evaluation_set(F7, 6)
    with pytest.raises(BudgetExceeded):
        full_evaluation_set(F7)
    with pytest.raises(BudgetExceeded):
        build_B1(F7, first_evaluation_set(F7, 2))  # 6 rows
    with pytest.raises(BudgetExceeded):
        construct_deg2(F7, 1)


def test_length_budget_bounds_a_descriptors_points(monkeypatch):
    """A stored E is held to the same budget: at 5 the (5, 3) code over
    GF(7) reads back, at 4 its E is refused before evaluation_set runs,
    as BudgetExceeded and not as a malformed descriptor."""
    obj = to_descriptor(construct_deg1(F7, 5))
    monkeypatch.setattr(shadow, "LENGTH_BUDGET", 5)
    assert from_descriptor(obj).evaluation.points == tuple(range(5))
    monkeypatch.setattr(shadow, "LENGTH_BUDGET", 4)
    monkeypatch.setattr(shadow, "evaluation_set", None)
    with pytest.raises(BudgetExceeded, match=r"\|E\| = 5 exceeds the length budget 4"):
        from_descriptor(obj)


def test_length_budget_bounds_the_seeded_quadratic_supply(monkeypatch):
    """A seeded B2 lists all q(q-1)/2 monic irreducible quadratics, 21
    over GF(7), before it draws: a budget of 21 draws, 20 refuses.  The
    lex-first choice lists only k and is not bounded."""
    monkeypatch.setattr(shadow, "LENGTH_BUDGET", 21)
    assert len(build_B2(F7, 3, seed=11).polys) == 3
    monkeypatch.setattr(shadow, "LENGTH_BUDGET", 20)
    with pytest.raises(BudgetExceeded, match=r"q\(q-1\)/2 = 21 exceeds the length budget 20"):
        build_B2(F7, 3, seed=11)
    assert len(build_B2(F7, 3).polys) == 3


def test_length_budget_is_on_lengths_not_the_field():
    """A 3-point E over a field of order past the budget still builds;
    its B1 would have about 2^31 rows and is refused."""
    big = field_create(2**31 - 1)
    assert first_evaluation_set(big, 3).points == (0, 1, 2)
    with pytest.raises(BudgetExceeded):
        construct_deg1(big, 3)


def test_build_B2_lex_and_seeded():
    b = build_B2(F7, 3)
    assert all(f.degree == 2 and f.is_monic for f in b.polys)
    assert sum(f.degree for f in b.polys) == 6 and not any(f.degree < 1 for f in b.polys)
    keys = [f.coeffs[:-1] for f in b.polys]
    assert keys == sorted(keys)
    s = build_B2(F7, 3, seed=11)
    assert build_B2(F7, 3, seed=11).polys == s.polys
    assert len({f.coeffs for f in s.polys}) == 3
    assert basic_set(b.polys) == b and basic_set(s.polys) == s
    # only 3 monic irreducible quadratics exist over GF(3)
    with pytest.raises(ExhaustedSupply):
        build_B2(field_create(3), 4)
    with pytest.raises(ExhaustedSupply):
        build_B2(field_create(3), 4, seed=5)
    with pytest.raises(ValueError):
        build_B2(F7, 0)


def test_delta_formula():
    ev = first_evaluation_set(F7, 3)
    b = build_B1(F7, ev)  # d_B = 4
    d = delta(ev, b)
    assert d.a == Fraction(3) - Fraction(7, 2) and d.b == -Fraction(3, 2) and d.q == 7
    assert abs(float(d) - (3 - 3.5 - 1.5 * 7**0.5)) < 1e-12


# ------------------------------------------------- stock constructions

DEG1_ROSTER = [
    # q, n, k, ceil(delta), exact min distance
    (25, 21, 5, 1, 8),
    (27, 23, 5, 2, 7),
    (49, 44, 6, 6, 16),
    (81, 75, 7, 12, 24),
    (121, 113, 9, 14, 36),
    (113, 104, 10, 5, 34),
]


@pytest.mark.parametrize("q,n,k,floor,dmin", DEG1_ROSTER)
def test_deg1_roster_frozen(q, n, k, floor, dmin):
    field = field_of_order(q)
    code = construct_deg1(field, n)
    assert code.n == n and code.k == k
    assert code.rank == k and code.delta_positive
    lb = distance_lower_bound(code)
    assert lb.ceil() == floor
    got = exact_min_distance(code.generator())
    assert got == dmin
    assert got >= floor
    if k <= 10:
        assert naive_min_distance(code.rows, n) == dmin


DEG2_ROSTER = [
    # q=n, k, ceil(delta), exact min distance
    (25, 2, 5, 10),
    (49, 3, 7, 24),
    (81, 4, 9, 32),
]


@pytest.mark.parametrize("q,k,floor,dmin", DEG2_ROSTER)
def test_deg2_roster_frozen(q, k, floor, dmin):
    field = field_of_order(q)
    code = construct_deg2(field, k)
    assert code.n == q and code.k == k and code.delta_positive
    lb = distance_lower_bound(code)
    assert lb.ceil() == floor
    got = exact_min_distance(code.generator())
    assert got == dmin >= floor
    assert naive_min_distance(code.rows, q) == dmin


def test_deg2_seeded_still_guaranteed():
    field = field_of_order(49)
    for seed in (1, 2, 3):
        code = construct_deg2(field, 3, seed=seed)
        floor = distance_lower_bound(code).ceil()
        assert exact_min_distance(code.generator()) >= floor


def test_alpha_only_code_is_repetition():
    alpha = Poly.constant(F9, F9.primitive_element())
    code = construct(full_evaluation_set(F9), basic_set([alpha]))
    assert code.rows == ((1 << 9) - 1,)
    assert code.k == 1
    assert code.delta_positive and code.delta.ceil() == 6
    assert exact_min_distance(code.generator()) == 9


def test_nonpositive_delta_path():
    ev = evaluation_set(F7, [0, 1, 2])
    code = construct(ev, build_B1(F7, ev), kind="deg1")
    assert len(code.basic.polys) == 5
    assert not code.delta_positive
    assert code.rank == 3 and code.k == 3
    assert abs(float(code.delta) - (-4.4686269665968865)) < 1e-12
    with pytest.raises(NonpositiveDelta):
        distance_lower_bound(code)


def test_deg1_weight_distribution_is_symmetric():
    # the all-ones row is in the code, so complements pair up
    code = construct_deg1(field_of_order(25), 21)
    hist = weight_distribution(code.generator())
    assert hist == hist[::-1]
    assert hist == naive_weight_hist(code.rows, code.n)


def test_construct_deg1_nk():
    code = construct_deg1_nk(100, 10)
    assert code.n == 100 and code.k == 10
    assert code.evaluation.field.q == 109
    with pytest.raises(ParameterNotAdmissible) as exc:
        construct_deg1_nk(99, 10)
    assert "107" in str(exc.value)
    assert exc.value.suggested_q == 107
    # an order below k would leave n < 1, so none is suggested
    for n, k, near in ((1, 4, 5), (1, 26, 27), (2, 9, 9)):
        with pytest.raises(ParameterNotAdmissible) as exc:
            construct_deg1_nk(n, k)
        assert exc.value.suggested_q == near
        assert f"is {near} (for example n={near - k + 1}, k={k})" in str(exc.value)
    with pytest.raises(ParameterNotAdmissible):
        construct_deg1_nk(5, 1)  # k < 2 leaves no excluded point
    with pytest.raises(ParameterNotAdmissible):
        construct_deg1_nk(0, 3)


# ----------------------------------------------------------- descriptors

def test_descriptor_round_trip():
    code = construct_deg2(field_of_order(25), 2)
    obj = to_descriptor(code)
    assert obj["format"] == "shadow-code/1"
    assert obj["n"] == 25 and obj["k"] == 2 and obj["kind"] == "deg2"
    back = from_descriptor(obj)
    assert back.rows == code.rows
    assert back.delta == code.delta
    assert back.k == code.k


def test_descriptor_round_trip_through_json_text():
    import json

    code = construct_deg1(field_of_order(27), 23)
    text = json.dumps(to_descriptor(code))
    back = from_descriptor(json.loads(text))
    assert back.rows == code.rows and back.n == code.n


def test_descriptor_tamper_detection():
    from shadowcodes.binary import row_from_hex, row_to_hex

    code = construct_deg2(field_of_order(25), 2)
    obj = to_descriptor(code)
    bad = dict(obj)
    rows = list(obj["G"])
    rows[0] = row_to_hex(row_from_hex(rows[0]) ^ 1, code.n)
    bad["G"] = rows
    with pytest.raises(ValueError):
        from_descriptor(bad)


def test_descriptor_package_errors_keep_their_class():
    """A package error raised while a descriptor is read leaves as it was
    raised; only a stdlib error of the text becomes BadDescriptor."""
    obj = to_descriptor(construct_deg2(field_of_order(25), 2))
    with pytest.raises(NotPrime):
        from_descriptor(dict(obj, field={"p": 9, "m": 1}))
    with pytest.raises(BadParameters, match="duplicate evaluation points") as info:
        from_descriptor(dict(obj, E=[0, 0] + obj["E"][2:]))
    assert not isinstance(info.value, BadDescriptor)
    with pytest.raises(BadDescriptor, match="malformed descriptor: ValueError"):
        from_descriptor(dict(obj, G=["zz"] + obj["G"][1:]))


def test_descriptor_kind_must_fit_its_family():
    """A deg1 or deg2 kind is held to that family's closed form; any
    other kind is a free label."""
    deg2 = to_descriptor(construct_deg2(field_of_order(49), 2))
    deg1 = to_descriptor(construct_deg1_nk(28, 4))
    for obj, relabel in ((deg2, "deg1"), (deg1, "deg2")):
        with pytest.raises(BadDescriptor, match=f"kind {relabel}"):
            from_descriptor(dict(obj, kind=relabel))
        assert from_descriptor(dict(obj, kind="mine")).kind == "mine"


def test_construct_holds_a_stock_kind_to_its_closed_form():
    """construct refuses a deg1 basic set labelled deg2, and a deg2 one
    labelled deg1, whether or not the code came from a descriptor."""
    f31 = field_of_order(31)
    ev1 = first_evaluation_set(f31, 28)
    f49 = field_of_order(49)
    ev2 = full_evaluation_set(f49)
    for ev, basic, relabel in ((ev1, build_B1(f31, ev1), "deg2"), (ev2, build_B2(f49, 2), "deg1")):
        with pytest.raises(BadDescriptor, match=f"kind {relabel} does not fit the code"):
            construct(ev, basic, kind=relabel)
        assert construct(ev, basic, kind="mine").kind == "mine"


def test_descriptor_faults_raise_bad_descriptor():
    from shadowcodes.binary import row_from_hex, row_to_hex

    code = construct_deg2(field_of_order(25), 2)
    obj = to_descriptor(code)
    tampered = dict(obj, G=[row_to_hex(row_from_hex(obj["G"][0]) ^ 1, code.n)] + obj["G"][1:])
    with pytest.raises(BadDescriptor):
        from_descriptor(tampered)
    for key in ("field", "E", "B", "G"):
        missing = {k: v for k, v in obj.items() if k != key}
        with pytest.raises(BadDescriptor):
            from_descriptor(missing)
    with pytest.raises(BadDescriptor):
        from_descriptor([obj])
