import random
from itertools import product

import pytest

from helpers import naive_curve_points, oracle_irreducible, ref_eval
from shadowcodes.errors import BadParameters, BudgetExceeded, FieldMismatch, ZeroArgument
from shadowcodes.field import TABLE_LIMIT, field_create, field_of_order
from shadowcodes.poly import Poly, chi_row, enumerate_monic_irreducibles, is_irreducible, x_minus
from shadowcodes.shadow import construct_deg2
from shadowcodes.weil import (
    COUNT_BUDGET,
    CURVE_MAX_DEGREE,
    CURVE_MAX_FACTORS,
    CurveSpec,
    count_zeros,
    curve_spec,
    random_curve_spec,
)

F3 = field_create(3)
F7 = field_create(7)
F9 = field_create(3, 2)


def test_count_hand_cases():
    # y^2 = x^2 + 1 over GF(3): only x = 0 gives a square (1), two roots
    assert count_zeros(curve_spec(F3, 1, [Poly(F3, (1, 0, 1))])) == 2
    # y^2 = x: 0 -> 1 point, each nonzero square -> 2
    assert count_zeros(curve_spec(F3, 1, [Poly.x(F3)])) == 3
    assert count_zeros(curve_spec(F3, 2, [Poly.x(F3)])) == 3
    assert count_zeros(curve_spec(F9, 1, [Poly.x(F9)])) == 9


def test_count_matches_pairing_every_x_with_every_y():
    rng = random.Random(6)
    for q in (3, 7, 9, 13, 25, 27):
        field = field_of_order(q)
        for _ in range(8):
            spec = random_curve_spec(field, rng)
            assert count_zeros(spec) == naive_curve_points(spec), (q, spec)


def test_count_invariant_under_square_scaling():
    rng = random.Random(1)
    for field in (F7, F9, field_of_order(25)):
        for _ in range(10):
            spec = random_curve_spec(field, rng)
            base = count_zeros(spec)
            for s in range(1, field.q):
                s2 = field.mul(s, s)
                scaled = curve_spec(
                    field, field.mul(spec.gamma, s2), spec.factors
                )
                assert count_zeros(scaled) == base


def test_corollary_on_many_random_curves():
    rng = random.Random(20260816)
    checked = 0
    for q in (9, 25, 27, 49):
        field = field_of_order(q)
        for _ in range(15):
            spec = random_curve_spec(field, rng)
            count = count_zeros(spec)
            assert type(count) is int
            assert (count - q) ** 2 <= (spec.degree - 1) ** 2 * q, spec
            checked += 1
    assert checked == 60


def test_random_curve_spec_is_seeded_and_valid():
    a = random_curve_spec(F7, random.Random(5))
    b = random_curve_spec(F7, random.Random(5))
    assert a == b
    assert 1 <= len(a.factors) <= 5
    assert len(set(a.factors)) == len(a.factors)
    assert 1 <= a.gamma < 7
    assert curve_spec(F7, a.gamma, a.factors) == a


def test_ben_or_runs_once_per_polynomial(monkeypatch):
    """No builder hands a polynomial that already passed the
    irreducibility test to that test again, counted per polynomial
    object.  verify weil hands over only quadratics, its fixed GF(3)
    case x^2 + 1 and the drawn ones, each decided by its discriminant,
    so no Frobenius power is taken."""
    from shadowcodes import poly, shadow, verify, weil

    for q in verify.WEIL_FIELD_ORDERS:
        field_of_order(q)  # a first GF(27) would search its cubic modulus
    tested = {}
    repeats = []
    powers = []
    real, real_powmod = poly.is_irreducible, poly.powmod

    def counting(f):
        if id(f) in tested:
            repeats.append(f)
        tested[id(f)] = f  # holding f keeps its id from being reused
        return real(f)

    for module in (poly, shadow, weil):
        if hasattr(module, "is_irreducible"):
            monkeypatch.setattr(module, "is_irreducible", counting)
    monkeypatch.setattr(poly, "powmod", lambda *a: powers.append(a) or real_powmod(*a))
    assert verify.verify_weil(27, 30)["ok"]
    weil_tests = len(tested)
    assert Poly(F3, (1, 0, 1)) in tested.values()
    assert weil_tests > 1 and repeats == [] and powers == []
    assert all(f.degree == 2 for f in tested.values())
    # the quadratics come from the closed form, which runs no Ben-Or test
    code = construct_deg2(field_of_order(49), 4, seed=1729)
    assert len(tested) == weil_tests and repeats == []
    assert shadow.basic_set(code.basic.polys) == code.basic
    assert len(tested) == weil_tests + 4 and repeats == []


@pytest.mark.parametrize("m", [1, 2, 3])
def test_random_curve_spec_refuses_an_even_field_before_drawing(m):
    """Over GF(2^m) every element is a square, so a draw is refused at
    once, with curve_spec's error, and the rng is left as it was."""
    field = field_create(2, m)
    for seed in range(200):
        rng = random.Random(seed)
        state = rng.getstate()
        with pytest.raises(FieldMismatch, match="odd order"):
            random_curve_spec(field, rng)
        assert rng.getstate() == state


def test_count_budget():
    # every field within the budget has chi as a string, which the count reads
    assert COUNT_BUDGET <= TABLE_LIMIT
    big = field_create(16411)
    spec = curve_spec(big, 1, [Poly.x(big)])
    with pytest.raises(BudgetExceeded):
        count_zeros(spec)
    # a draw reads a q-length row, so it is refused at the same size
    with pytest.raises(BudgetExceeded):
        random_curve_spec(big, random.Random(1))
    assert random_curve_spec(field_of_order(16381), random.Random(1)).field.q == 16381


def test_curve_spec_validation():
    with pytest.raises(FieldMismatch):
        curve_spec(field_create(2, 3), 1, [Poly.x(field_create(2, 3))])
    with pytest.raises(ZeroArgument):
        curve_spec(F7, 0, [Poly.x(F7)])
    # gamma is an int element index in 1..q - 1: no negative, bool,
    # float or out-of-range gamma is read as some other element
    for field, gamma in ((F9, -1), (F9, True), (F9, False), (F9, 9), (F9, 100), (F9, 2.0),
                         (F7, -1), (F7, 7), (F7, 1.0), (F7, "1")):
        with pytest.raises(BadParameters):
            curve_spec(field, gamma, [Poly.x(field)])
    assert curve_spec(F9, 8, [Poly.x(F9)]).gamma == 8
    with pytest.raises(BadParameters):
        curve_spec(F7, 1, [])
    with pytest.raises(BadParameters):
        curve_spec(F7, 1, [Poly(F7, (6, 0, 1))])  # (x-1)(x+1)
    with pytest.raises(BadParameters):
        curve_spec(F7, 1, [x_minus(F7, 2), x_minus(F7, 2)])
    with pytest.raises(BadParameters):
        curve_spec(F7, 1, [Poly(F7, (1, 2))])  # not monic
    with pytest.raises(FieldMismatch):
        curve_spec(F7, 1, [Poly.x(F3)])
    with pytest.raises(BadParameters):
        curve_spec(F7, 1, [Poly.constant(F7, 3)])


def _ben_or_curve_spec(field, rng):
    """random_curve_spec's draws, each accepted by the root-scan oracle,
    which takes no chi value and no Frobenius power."""
    r = rng.randint(1, CURVE_MAX_FACTORS)
    chosen = []
    while len(chosen) < r:
        d = rng.randint(1, CURVE_MAX_DEGREE)
        f = Poly(field, [rng.randrange(field.q) for _ in range(d)] + [1])
        if f not in chosen and oracle_irreducible(f):
            chosen.append(f)
    return CurveSpec(field, rng.randrange(1, field.q), tuple(chosen))


@pytest.mark.parametrize("seed", [1729, 7])
def test_verify_weil_draws_and_counts_against_ben_or_and_pairing(monkeypatch, seed):
    """A green verify weil report holds no counts, so its 200 draws are
    replayed here: each spec is the one that root-scan acceptance draws
    from the same rng, and each count pairs every x with every y."""
    from shadowcodes import verify

    drawn = []

    def recording(field, rng, rows):
        drawn.append(random_curve_spec(field, rng, rows))
        return drawn[-1]

    monkeypatch.setattr(verify, "random_curve_spec", recording)
    assert verify.verify_weil(seed=seed)["ok"]
    assert len(drawn) == 200
    rng = random.Random(seed)
    for spec in drawn:
        assert spec == _ben_or_curve_spec(spec.field, rng)
        assert count_zeros(spec) == naive_curve_points(spec), spec


def test_count_with_non_square_gamma():
    """Every non-square gamma flips the square bits; two factors that are
    both non-squares at an x make a square there."""
    rng = random.Random(11)
    for q in (7, 9, 25, 27):
        field = field_of_order(q)
        gammas = [g for g in range(1, q) if field.chi[g] == "1"]
        for _ in range(6):
            factors = random_curve_spec(field, rng).factors
            for gamma in gammas:
                spec = curve_spec(field, gamma, factors)
                assert count_zeros(spec) == naive_curve_points(spec), spec
    # y^2 = 3 x (x - 1) over GF(7), 3 a non-square: two roots, and A(x)
    # a nonzero square at x = 3, 4, 5 only; at x = 6 both factors are
    # non-squares, so their product is a square and 3 times it is not
    spec = curve_spec(F7, 3, [Poly.x(F7), x_minus(F7, 1)])
    assert count_zeros(spec) == naive_curve_points(spec) == 8


def test_count_with_a_quartic_factor():
    """A factor of degree 4 takes the Horner branch of chi_row."""
    for field in (F7, F9, field_of_order(25)):
        quartic = enumerate_monic_irreducibles(field, 4, 1)[0]
        for gamma in range(1, field.q):
            for factors in ([quartic], [quartic, Poly.x(field), x_minus(field, 1)]):
                spec = curve_spec(field, gamma, factors)
                assert count_zeros(spec) == naive_curve_points(spec), spec


@pytest.mark.parametrize("q", [3, 9, 25])
def test_root_free_is_irreducible_for_degree_two_and_three(q):
    """The draws' root test against Ben-Or on every monic quadratic and
    cubic."""
    field = field_of_order(q)
    for d in (2, 3):
        for cs in product(range(q), repeat=d):
            f = Poly(field, cs + (1,))
            assert ("2" not in chi_row(f, range(q))) == is_irreducible(f), f


@pytest.mark.parametrize("q", [9, 121, 125, 127, 131, 243, 251])
def test_chi_row_is_chi_of_each_value(q):
    """chi_row over byte-row fields (GF(9), GF(121), and GF(5^3) and
    GF(127), whose lane sums reach 248 and 252) and just past them
    (GF(131), GF(3^5), GF(251)) equals chi read at each value one by
    one, and the join chi_row made of horner's values: drawn cubics;
    a cubic, a quartic and a non-monic quintic with roots among the
    points; non-monic polynomials of degree 1 to 4; over the whole
    field, a prefix, and sorted scattered subsets with and without 0."""
    field = field_of_order(q)
    chi, rng = field.chi, random.Random(q)
    scattered = sorted(rng.sample(range(1, q), q // 3))
    a, b = scattered[0], scattered[-1]
    roots = x_minus(field, a) * x_minus(field, b)
    polys = [Poly(field, [rng.randrange(q) for _ in range(3)] + [1]) for _ in range(3)]
    polys += [roots * x_minus(field, 0), roots * roots, roots * Poly(field, (1, 1, 0, 2))]
    polys += [Poly(field, [rng.randrange(q) for _ in range(d)] + [rng.randrange(2, q)])
              for d in (1, 2, 3, 4)]
    for f in polys:
        for points in (range(q), range(q // 2), [0, *scattered], scattered):
            row = chi_row(f, points)
            assert row == "".join([chi[ref_eval(f, x)] for x in points]), (f, points)
            assert row == "".join([chi[v] for v in field.horner(f.coeffs, points)])


@pytest.mark.parametrize("q", [9, 25, 27, 49, 121])
def test_discriminant_decides_every_monic_quadratic(q):
    """is_irreducible's discriminant test, against a root-free chi row
    and against the root-scan oracle, on every monic quadratic over the
    verify weil fields."""
    field = field_of_order(q)
    irreducible = 0
    for c, b in product(range(q), repeat=2):
        f = Poly(field, (c, b, 1))
        by_disc = is_irreducible(f)
        assert by_disc == ("2" not in chi_row(f, range(q))) == oracle_irreducible(f), f
        irreducible += by_disc
    assert irreducible == (q * q - q) // 2


@pytest.mark.parametrize("q", [257, 729])
def test_discriminant_past_the_byte_rows_on_seeded_quadratics(q):
    """The same test past the byte rows, a prime and an extension field,
    on seeded quadratics, half of them non-monic so that a slip in a, c
    or the constant -4 shows: against the root-free chi row and the
    root-scan oracle."""
    field, rng = field_of_order(q), random.Random(q)
    decided = set()
    for i in range(60):
        lead = 1 if i % 2 else rng.randrange(2, q)
        f = Poly(field, (rng.randrange(q), rng.randrange(q), lead))
        by_disc = is_irreducible(f)
        assert by_disc == ("2" not in chi_row(f, range(q))) == oracle_irreducible(f), f
        decided.add(by_disc)
    assert decided == {False, True}


def test_verify_weil_rows_each_factor_once_per_call(monkeypatch):
    """No rejected quadratic builds a row, no polynomial is rowed twice
    in a call, and a second call builds its rows again."""
    from shadowcodes import verify, weil

    rowed = []
    drawn = []
    real_row, real_draw = weil.chi_row, verify.random_curve_spec

    def spy(f, points):
        rowed.append(f)
        return real_row(f, points)

    def recording(field, rng, rows):
        drawn.append(real_draw(field, rng, rows))
        return drawn[-1]

    monkeypatch.setattr(weil, "chi_row", spy)
    monkeypatch.setattr(verify, "random_curve_spec", recording)
    assert verify.verify_weil()["ok"]
    first = list(rowed)
    assert len(set(first)) == len(first)
    counted = {f for spec in drawn for f in spec.factors}
    # every linear or quadratic row is of a counted factor, the fixed
    # GF(3) case's x^2 + 1 aside; cubics are rowed when drawn
    assert {f for f in first if f.degree < 3} == {f for f in counted if f.degree < 3} | {
        Poly(F3, (1, 0, 1))
    }
    assert {f for f in counted if f.degree == 3} <= set(first)
    rowed.clear()
    assert verify.verify_weil()["ok"]
    assert rowed == first
