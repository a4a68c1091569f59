import random
from itertools import product, starmap, zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    necklace_count,
    oracle_irreducible,
    reducible_monic_quadratics,
    ref_divmod,
    ref_eval,
)
from shadowcodes.errors import (
    BadParameters,
    ConstantInput,
    DivisionByZero,
    ExhaustedSupply,
    FieldMismatch,
)
from shadowcodes.field import _field_cached, field_create, field_of_order, find_odd_prime_power
from shadowcodes.poly import (
    Poly,
    _monic_lex,
    all_monic_irreducibles,
    basic_polys,
    enumerate_monic_irreducibles,
    gcd,
    is_irreducible,
    poly_from_text,
    poly_to_text,
    powmod,
    x_minus,
)

F3 = field_create(3)
F7 = field_create(7)
F9 = field_create(3, 2)


def test_normalization_and_degree():
    assert Poly(F3, (1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(F3, ()).degree == -1
    assert Poly(F3, (0,)).is_zero
    assert Poly.zero(F3).degree == -1
    assert Poly.one(F3).degree == 0
    assert Poly.x(F3).degree == 1
    assert Poly(F3, (1, 0, 1)).is_monic
    assert not Poly(F3, (1, 0, 2)).is_monic
    with pytest.raises(BadParameters):
        Poly(F3, (3,))
    with pytest.raises(BadParameters):
        Poly(F3, (-1,))
    # the first coefficient out of range is named, not the least or greatest
    with pytest.raises(BadParameters, match=r"^coefficient 5 out of range for GF\(3\)$"):
        Poly(F3, (1, 5, -1))


def test_eval_hand_values():
    f = Poly(F3, (1, 0, 1))  # x^2 + 1
    assert f(0) == 1
    assert f(1) == 2
    assert f(2) == 2  # 4 + 1 = 5 = 2 mod 3
    g = x_minus(F7, 3)
    assert g(3) == 0
    assert g(0) == 4  # -3 mod 7
    assert Poly.constant(F7, 5)(2) == 5
    assert Poly.zero(F7)(4) == 0


def test_eval_extension_field():
    # (x - alpha)(x - alpha^3) has the two primitive roots of x^2+1's field
    alpha = F9.primitive_element()
    f = x_minus(F9, alpha) * x_minus(F9, F9.pow(alpha, 3))
    assert f(alpha) == 0
    assert f(F9.pow(alpha, 3)) == 0
    assert f(1) != 0


def test_arithmetic_identities_random():
    """* over byte rows (GF(7), GF(9)) and past them (GF(3^6)), checked
    at a point by ref_eval, which evaluates without Field.horner."""
    rng = random.Random(17)
    for field in (F7, F9, field_create(3, 6)):
        for _ in range(100):
            f = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(5))])
            g = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(5))])
            h = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(5))])
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            x = rng.randrange(field.q)
            assert ref_eval(f * g, x) == field.mul(ref_eval(f, x), ref_eval(g, x))
            assert (f * g)(x) == field.mul(f(x), g(x))


# a prime field, a tabled extension, and GF(5^7), past the tables, whose
# mul and neg take the digit multiply.  GF(5^7) is taken from the cache with
# its canonical modulus x^7 + x^6 + 1, skipping the search for it: under
# a % that fails to cancel the top, Euclid's loop in that search never
# ends, and the property below should fail instead
DIVISION_FIELDS = [F7, F9, _field_cached(5, 7, (1, 0, 0, 0, 0, 0, 1, 1))]


def test_division_fields_cover_prime_tabled_and_untabled():
    prime, tabled, untabled = DIVISION_FIELDS
    assert prime.m == 1 and tabled._exp is not None
    assert untabled is field_create(5, 7) and untabled._exp is None


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(DIVISION_FIELDS), data=st.data())
def test_remainder_matches_schoolbook_division(field, data):
    """f % g against ref_divmod: f = q g + r with deg r < deg g, for
    non-monic g, and for f zero or of lower degree than g."""
    coeff = st.integers(0, field.q - 1)
    f = Poly(field, data.draw(st.lists(coeff, max_size=7), label="f"))
    lead = data.draw(st.integers(1, field.q - 1), label="lead")
    g = Poly(field, data.draw(st.lists(coeff, max_size=4), label="g") + [lead])
    q, r = ref_divmod(f, g)
    qg_plus_r = starmap(field.add, zip_longest((q * g).coeffs, r.coeffs, fillvalue=0))
    assert Poly(field, qg_plus_r) == f
    assert r.degree < g.degree
    assert f % g == r


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=repr)
def test_remainder_edge_cases(field):
    g = Poly(field, (1, 2, field.q - 1))  # non-monic
    assert (Poly.zero(field) % g).is_zero
    assert Poly(field, (3, 4)) % g == Poly(field, (3, 4))
    assert (g % g).is_zero and (g % Poly.constant(field, 2)).is_zero
    with pytest.raises(DivisionByZero):
        Poly.x(field) % Poly.zero(field)


def test_gcd_properties():
    rng = random.Random(29)
    for _ in range(50):
        f = Poly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 5))])
        g = Poly(F7, [rng.randrange(7) for _ in range(rng.randrange(1, 5))])
        if f.is_zero or g.is_zero:
            continue
        d = gcd(f, g)
        assert (f % d).is_zero and (g % d).is_zero
    # shared factor is recovered up to a unit: same degree, divides both
    a, b, c = x_minus(F7, 2), x_minus(F7, 3), x_minus(F7, 5)
    d = gcd(a * b, a * c)
    assert d.degree == a.degree and (d % a).is_zero
    assert (a * b % d).is_zero and (a * c % d).is_zero


def test_powmod_matches_repeated_multiplication():
    mod = Poly(F7, (1, 0, 1))
    f = Poly(F7, (2, 1))
    acc = Poly.one(F7) % mod
    for e in range(8):
        assert powmod(f, e, mod) == acc
        acc = (acc * f) % mod


def test_irreducibility_matches_root_scan_oracle():
    cases = [(3, 4), (5, 3), (7, 3), (9, 3)]
    for q, dmax in cases:
        field = field_of_order(q)
        for d in range(1, dmax + 1):
            rng = random.Random(q * 100 + d)
            seen = 0
            for trial in range(120):
                coeffs = [rng.randrange(q) for _ in range(d)] + [
                    rng.randrange(1, q)
                ]
                f = Poly(field, coeffs)
                assert is_irreducible(f) == oracle_irreducible(f), f
                seen += 1
            assert seen == 120


@pytest.mark.parametrize("q, dmax", [(3, 4), (5, 3), (9, 3)])
def test_irreducibility_matches_the_oracle_on_every_polynomial(q, dmax):
    """Every polynomial of degree 1 .. dmax, monic or not, so squares of
    irreducibles and (over GF(3)) products of two irreducible quadratics
    are all among the cases."""
    field = field_of_order(q)
    for d in range(1, dmax + 1):
        for low in product(range(q), repeat=d):
            for lead in range(1, q):
                f = Poly(field, low + (lead,))
                assert is_irreducible(f) == oracle_irreducible(f), f


def test_frobenius_steps_stop_at_half_the_degree(monkeypatch):
    """A linear, and a quadratic over an odd field, need no x^q power at
    all; an irreducible of degree d needs d // 2, so a quadratic over an
    even field needs 1."""
    from shadowcodes import poly

    fields = (F3, F9, field_of_order(25))
    calls = []
    real = poly.powmod
    monkeypatch.setattr(poly, "powmod", lambda *a: calls.append(a) or real(*a))
    for field in fields:
        for c0, c1 in product(range(field.q), range(1, field.q)):
            assert is_irreducible(Poly(field, (c0, c1)))
        for c0, c1 in product(range(field.q), repeat=2):
            f = Poly(field, (c0, c1, 1))
            assert is_irreducible(f) == oracle_irreducible(f), f
    assert calls == []
    for q in (4, 8):
        for f in all_monic_irreducibles(field_of_order(q), 2):
            calls.clear()
            assert is_irreducible(f)
            assert len(calls) == 1, f
    for d in range(3, 7):
        for f in enumerate_monic_irreducibles(F3, d, 2):
            calls.clear()
            assert is_irreducible(f)
            assert len(calls) == d // 2


def test_irreducibility_hand_cases():
    assert is_irreducible(Poly(F3, (1, 0, 1)))  # x^2+1 over GF(3)
    assert not is_irreducible(Poly(F9, (1, 0, 1)))  # splits over GF(9)
    assert not is_irreducible(Poly(F3, (2, 0, 1)))  # (x-1)(x+1)
    assert is_irreducible(Poly.x(F7))
    assert is_irreducible(x_minus(F7, 6))
    assert not is_irreducible(Poly(F7, (0, 0, 1)))  # x^2
    with pytest.raises(ConstantInput):
        is_irreducible(Poly.one(F7))
    with pytest.raises(ConstantInput):
        is_irreducible(Poly.zero(F7))


def test_enumeration_first_quadratics_over_gf3():
    got = enumerate_monic_irreducibles(F3, 2, 3)
    assert [f.coeffs for f in got] == [(1, 0, 1), (2, 1, 1), (2, 2, 1)]
    with pytest.raises(ExhaustedSupply):
        enumerate_monic_irreducibles(F3, 2, 4)


def test_enumeration_is_lexicographic_and_prefix_stable():
    for q, d in [(3, 2), (5, 2), (7, 1), (9, 2)]:
        field = field_of_order(q)
        sup = all_monic_irreducibles(field, d)
        keys = [f.coeffs[:-1] for f in sup]
        assert keys == sorted(keys)
        assert enumerate_monic_irreducibles(field, d, 3) == sup[:3]


@settings(max_examples=25, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 9]), d=st.integers(1, 3), data=st.data())
def test_enumeration_is_a_prefix_of_the_full_list(q, d, data):
    field = field_of_order(q)
    supply = all_monic_irreducibles(field, d)
    count = data.draw(st.integers(0, len(supply)), label="count")
    assert enumerate_monic_irreducibles(field, d, count) == supply[:count]


def test_enumeration_counts_match_necklace_formula():
    frozen = {(3, 1): 3, (3, 2): 3, (3, 3): 8, (5, 2): 10, (7, 2): 21, (9, 2): 36}
    for (q, d), expect in frozen.items():
        field = field_of_order(q)
        got = len(all_monic_irreducibles(field, d))
        assert got == expect == necklace_count(q, d)


ODD_ORDERS_243 = [q for q in range(3, 244, 2) if find_odd_prime_power(q)]


@pytest.mark.parametrize("q", [q for q in ODD_ORDERS_243 if q <= 49])
def test_closed_form_quadratics_match_ben_or(q):
    field = field_of_order(q)
    assert all_monic_irreducibles(field, 2) == list(filter(is_irreducible, _monic_lex(field, 2)))


@pytest.mark.parametrize("q, d", [(5, 3), (9, 3), (3, 4), (5, 4)])
def test_lex_walk_skips_no_irreducible(q, d):
    """The lexicographic walk starts at c0 = 1 for d >= 2; its list is
    still every monic of degree d that the root-scan oracle accepts."""
    field = field_of_order(q)
    every_monic = (Poly(field, cs + (1,)) for cs in product(range(q), repeat=d))
    assert all_monic_irreducibles(field, d) == list(filter(oracle_irreducible, every_monic))


@pytest.mark.parametrize("q, d", [(25, 3), (9, 3), (5, 4), (3, 6), (7, 1)])
def test_lex_walk_is_the_product_order(q, d):
    """The counter walk lists what product lists, in product's order:
    c0 slowest and c_{d-1} fastest, from c0 = 1 when d >= 2."""
    field = field_of_order(q)
    order = product(range(d >= 2, q), *[range(q)] * (d - 1))
    assert [f.coeffs for f in _monic_lex(field, d)] == [cs + (1,) for cs in order]


def test_closed_form_quadratics_are_the_non_split_ones():
    """Up to q = 243 the list is every monic quadratic, in lex order,
    that is no product of two linears."""
    for q in ODD_ORDERS_243:
        field = field_of_order(q)
        split = reducible_monic_quadratics(field)
        expect = [(c, b, 1) for c in range(q) for b in range(q) if (c, b) not in split]
        assert [f.coeffs for f in all_monic_irreducibles(field, 2)] == expect, q


def test_linears_enumerate_in_root_order():
    got = enumerate_monic_irreducibles(F7, 1, 3)
    assert [f.coeffs for f in got] == [(0, 1), (1, 1), (2, 1)]


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from([7, 9]), data=st.data())
def test_basic_polys_matches_the_oracle(q, data):
    field = field_of_order(q)
    coeff = st.integers(0, q - 1)
    lead = st.one_of(st.just(1), st.integers(1, q - 1))  # non-monic now and then
    entry = st.one_of(
        st.tuples(coeff),  # a constant, zero included
        st.integers(1, 3).flatmap(lambda d: st.tuples(*[coeff] * d, lead)),
    )
    pool = data.draw(st.lists(entry, min_size=1, max_size=4), label="pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=6), label="picks")
    polys = [Poly(field, pool[i]) for i in picks]  # repeats come from repeated picks
    non_const = [f for f in polys if f.degree >= 1]
    want = (
        bool(polys)
        and all(f.is_monic and oracle_irreducible(f) for f in non_const)
        and len(set(non_const)) == len(non_const)
    )
    if want:
        assert basic_polys(polys) == tuple(polys)
    else:
        with pytest.raises(BadParameters):
            basic_polys(polys)


def test_squarefree_product():
    assert basic_polys([x_minus(F7, 3), x_minus(F7, 4), Poly.constant(F7, 3)])
    with pytest.raises(BadParameters):
        basic_polys([x_minus(F7, 3), x_minus(F7, 3)])
    q1 = Poly(F7, (1, 0, 1))
    with pytest.raises(BadParameters):
        basic_polys([q1, q1])
    assert basic_polys([q1, x_minus(F7, 1)])


def test_text_round_trip():
    f = Poly(F3, (1, 0, 1))
    assert poly_to_text(f) == "1,0,1"
    assert poly_from_text(F3, "1,0,1") == f
    assert poly_to_text(Poly.zero(F3)) == "0"
    assert poly_from_text(F3, "0").is_zero
    assert poly_from_text(F7, " 4 , 1 ") == Poly(F7, (4, 1))


def test_field_mismatch_everywhere():
    with pytest.raises(FieldMismatch):
        Poly.x(F3) * Poly.x(F7)
    with pytest.raises(FieldMismatch):
        Poly.x(F3) % Poly.x(F7)


def test_poly_hash_and_set_semantics():
    a = Poly(F7, (1, 1))
    b = Poly(F7, (1, 1, 0))
    assert a == b and len({a, b}) == 1
