import json
import random
import sys
import time
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_order, ref_ext_mul, ref_ext_pow
from shadowcodes.errors import (
    BadParameters,
    BudgetExceeded,
    DegreeMismatch,
    DivisionByZero,
    EvenCharacteristic,
    NotPrime,
    ReducibleModulus,
    ZeroArgument,
)
from shadowcodes.field import (
    TRIAL_DIVISION_MAX,
    Field,
    field_create,
    field_from_json,
    field_of_order,
    find_odd_prime_power,
    least_prime_factor,
    nearest_odd_prime_power,
    prime_power,
)
from shadowcodes.poly import Poly


def test_prime_field_basics():
    f7 = field_create(7)
    assert (f7.p, f7.m, f7.q) == (7, 1, 7)
    assert f7.mul(3, 5) == 1
    assert f7.add(5, 4) == 2
    assert f7.neg(3) == 4
    assert f7.add(2, f7.neg(5)) == 4
    assert f7.pow(3, 6) == 1
    for a in range(1, 7):
        assert f7.mul(a, f7.inv(a)) == 1


def test_digit_round_trip():
    f27 = field_create(3, 3)
    for a in range(27):
        assert f27.index(f27.digits(a)) == a
    assert f27.digits(5) == (2, 1, 0)  # 5 = 2 + 1*3


def test_identity_indices():
    for q in (7, 9, 8, 27):
        f = field_of_order(q)
        for a in range(q):
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0


# canonical moduli, independently verified by root scans where degree
# permits: x^2+1 over GF(3) and GF(11), x^2+2 over GF(5), x^3+x^2+1
# over GF(2) are the first monic irreducibles in lexicographic
# coefficient order (constant coefficient compared first)
@pytest.mark.parametrize(
    "p,m,expected",
    [
        (3, 2, (1, 0, 1)),
        (5, 2, (1, 1, 1)),
        (11, 2, (1, 0, 1)),
        (2, 3, (1, 0, 1, 1)),
        (2, 4, (1, 0, 0, 1, 1)),
    ],
)
def test_canonical_modulus(p, m, expected):
    assert field_create(p, m).modulus == expected


def test_canonical_modulus_is_lex_least_by_scan():
    # brute scan: no monic quadratic over GF(3) before (1,0,1) lacks roots
    f3 = field_create(3)
    found = None
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                found = (c0, c1, 1)
                break
        if found:
            break
    assert found == field_create(3, 2).modulus


def test_supplied_modulus():
    f = field_create(3, 2, [2, 2, 1])  # x^2 + 2x + 2, irreducible
    assert f.modulus == (2, 2, 1)
    with pytest.raises(ReducibleModulus):
        field_create(3, 2, [2, 0, 1])  # x^2 + 2 = (x-1)(x+1)
    with pytest.raises(DegreeMismatch):
        field_create(3, 2, [1, 1])  # degree 1, not 2
    with pytest.raises(DegreeMismatch):
        field_create(3, 2, [1, 1, 2])  # not monic
    with pytest.raises(DegreeMismatch):
        field_create(7, 1, [1, 1])  # prime field takes none
    with pytest.raises(DegreeMismatch):
        field_create(3, 0)


def test_not_prime():
    with pytest.raises(NotPrime):
        field_create(6)
    with pytest.raises(NotPrime):
        field_create(1)
    with pytest.raises(NotPrime):
        field_of_order(15)
    with pytest.raises(NotPrime):
        field_of_order(12)


def test_mul_matches_reference_everywhere():
    for p, m in [(3, 2), (2, 3), (3, 3)]:
        f = field_create(p, m)
        for a in range(f.q):
            for b in range(f.q):
                assert f.mul(a, b) == ref_ext_mul(p, m, f.modulus, a, b), (p, m, a, b)


def test_add_is_componentwise():
    f9 = field_create(3, 2)
    for a in range(9):
        for b in range(9):
            da, db = f9.digits(a), f9.digits(b)
            want = f9.index(tuple((x + y) % 3 for x, y in zip(da, db)))
            assert f9.add(a, b) == want


def test_axioms_sampled():
    rng = random.Random(5)
    for q in (25, 49, 128):
        f = field_of_order(q)
        for _ in range(200):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, b) == f.add(b, a)


def test_primitive_element_values():
    assert field_create(3).primitive_element() == 2
    assert field_create(7).primitive_element() == 3
    assert field_create(3, 2).primitive_element() == 4  # 1 + x
    assert field_create(2, 3).primitive_element() == 2  # x


def test_primitive_element_generates():
    for q in (7, 9, 25, 27, 49):
        f = field_of_order(q)
        alpha = f.primitive_element()
        seen = set()
        v = 1
        for _ in range(q - 1):
            seen.add(v)
            v = f.mul(v, alpha)
        assert len(seen) == q - 1
        # least: nothing smaller is primitive
        for c in range(1, alpha):
            assert not f.is_primitive(c)


def test_powers_of_nine_example():
    f9 = field_create(3, 2)
    alpha = f9.primitive_element()
    # alpha^2 = 2x (index 6), and its square is -1 (index 2)
    assert f9.pow(alpha, 2) == 6
    assert f9.pow(alpha, 4) == f9.neg(1) == 2
    assert f9.pow(alpha, 8) == 1


def test_squares_by_exhaustion():
    f7 = field_create(7)
    squares = {f7.mul(a, a) for a in range(1, 7)}
    assert squares == {1, 2, 4}
    assert f7.lg_parity(2) == 0 and f7.lg_parity(4) == 0
    assert f7.lg_parity(3) == 1 and f7.lg_parity(5) == 1
    assert f7.lg_parity(4) == 0
    assert f7.lg_parity(3) == 1


def test_square_counts_all_odd_orders_up_to_343():
    for q in range(3, 344, 2):
        if find_odd_prime_power(q) is None:
            continue
        f = field_of_order(q)
        squares = {f.mul(a, a) for a in range(1, q)}
        assert len(squares) == (q - 1) // 2
        for a in range(1, q):
            assert (f.lg_parity(a) == 0) == (a in squares), (q, a)


def test_lg_parity_is_homomorphism_exhaustive():
    for q in (7, 9, 25, 27, 49):
        f = field_of_order(q)
        for a in range(1, q):
            for b in range(1, q):
                assert f.lg_parity(f.mul(a, b)) == f.lg_parity(a) ^ f.lg_parity(b)


def test_lg_parity_homomorphism_sampled_larger():
    rng = random.Random(11)
    for q in (121, 343):
        f = field_of_order(q)
        for _ in range(300):
            a = rng.randrange(1, q)
            b = rng.randrange(1, q)
            assert f.lg_parity(f.mul(a, b)) == f.lg_parity(a) ^ f.lg_parity(b)


def _euler_chi(f, a) -> str:
    if a == 0:
        return "2"
    return "0" if f.pow(a, (f.q - 1) // 2) == 1 else "1"


def test_chi_matches_euler_on_every_element():
    orders = [q for q in range(3, 730, 2) if find_odd_prime_power(q)] + [65521]
    for q in orders:
        f = field_of_order(q)
        assert len(f.chi) == q
        assert f.chi == "".join(_euler_chi(f, a) for a in range(q)), q


def test_chi_on_untabled_fields_reads_squares_and_their_multiples():
    """Above TABLE_LIMIT chi is no string of length q until a gather
    builds one; on a sample it still gives '0' at every b*b and '1' at
    g*b*b for a primitive g.  The fields are fresh, so no earlier test's
    gather has built their strings."""
    rng = random.Random(17)
    for f in (Field(5, 7, field_create(5, 7).modulus), Field(131071, 1, None),
              Field(2**31 - 1, 1, None)):
        assert f._exp is None and not isinstance(f.chi, str)
        g = f.primitive_element()
        assert f.chi[0] == "2" and f.chi[1] == "0" and f.chi[g] == "1"
        for _ in range(100):
            b = rng.randrange(1, f.q)
            b2 = f.mul(b, b)
            assert f.chi[b2] == "0" and f.chi[f.mul(g, b2)] == "1", (f.q, b)


def test_chi_is_euler_past_the_table_limit_until_the_string_exists():
    """Over GF(65537), past TABLE_LIMIT, chi is Euler's criterion before
    any string exists and that string once a gather has built it; over
    GF(3125), below the limit, chi is the string from the start."""
    f = Field(65537, 1, None)  # not the cached field, whose string may exist
    sample = [0, 1, f.q - 1, *random.Random(29).sample(range(f.q), 200)]
    assert not isinstance(f.chi, str)
    assert [f.chi[a] for a in sample] == [_euler_chi(f, a) for a in sample]
    s = f.chi_string()
    assert f.chi is s
    f3125 = field_of_order(3125)
    assert f3125.chi is f3125.chi_string()


def test_only_extension_fields_keep_log_tables():
    for f in (*map(field_create, (3, 7, 251, 65521)), field_create(5, 7)):
        assert f._exp is None and f._log is None, f
    for p, m in ((2, 4), (3, 2), (5, 3), (3, 6)):
        f = field_create(p, m)
        assert len(f._exp) == 2 * (f.q - 1) and len(f._log) == f.q, f


def _letters(q: int) -> str:
    # 251 distinct latin-1 letters, a prime period no roll by c_i p^i
    # can match, so a wrong roll cannot hide behind chi's symmetries
    return "".join([chr(a % 251) for a in range(q)])


def _digit_sums(p: int, m: int, c: int) -> list[int]:
    """[a + c for a in range(p^m)], added digit by digit."""
    sums = [0]
    for i in range(m):
        c, ci = divmod(c, p)
        sums = [x + (d + ci) % p * p**i for d in range(p) for x in sums]
    return sums


def test_translate_reads_s_at_a_plus_c():
    """t = translate(s, c) has t[a] = s[a + c] at every a: for every c
    over the small fields and GF(31), and over GF(2187), GF(3125) and
    the untabled GF(5^7) for each c with one nonzero digit, q - 1 and
    seeded random c."""
    rng = random.Random(28)
    for q in (9, 25, 27, 49, 81, 121, 125, 729, 31):
        f = field_of_order(q)
        s = _letters(q)
        for c in range(q):
            t = f.translate(s, c)
            assert t == "".join([s[f.add(a, c)] for a in range(q)]), (q, c)
    for f in (field_of_order(2187), field_of_order(3125), field_create(5, 7)):
        s = _letters(f.q)
        single_digit = [d * f.p**i for i in range(f.m) for d in range(1, f.p)]
        for c in [*single_digit, f.q - 1, *rng.sample(range(f.q), 4)]:
            sums = _digit_sums(f.p, f.m, c)
            for a in (0, 1, f.q - 1, *rng.sample(range(f.q), 3)):
                assert sums[a] == f.add(a, c), (f.q, a, c)
            assert f.translate(s, c) == "".join([s[x] for x in sums]), (f.q, c)


def test_translate_makes_no_field_operation(monkeypatch):
    strings = {f: _letters(f.q) for f in map(field_of_order, (31, 729, 2187, 3125, 5**7))}

    def refuse(*args):
        raise AssertionError("translate called a field operation")

    monkeypatch.setattr(Field, "add", refuse)
    monkeypatch.setattr(Field, "mul", refuse)
    for f, s in strings.items():
        assert f.translate(s, 0) == s
        assert len(f.translate(s, f.q - 1)) == f.q


def test_translate_refuses_c_outside_the_field():
    """A c past q - 1 or below 0 is no element: once an IndexError from
    the tables, a silent identity on a prime field, or a loop that never
    ended on a negative c."""
    for f in map(field_of_order, (31, 9, 3125, 5**7)):
        s = _letters(f.q)
        for c in (f.q, f.q + 9, -1, -f.q):
            with pytest.raises(BadParameters):
                f.translate(s, c)


def test_translate_steps_grow_with_sqrt_q():
    """A digit of period run rolls in min(q/run, run) Python steps: two
    slices per run when 2q <= run^2, else one strided copy per offset,
    so a translation by q - 1, every digit nonzero, takes O(m sqrt(2q))
    traced lines where the other choice takes about q."""
    for f in map(field_of_order, (729, 2187, 3125, 5**7)):
        s, lines = _letters(f.q), 0

        def trace(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return trace

        sys.settrace(trace)
        try:
            f.translate(s, f.q - 1)
        finally:
            sys.settrace(None)
        assert lines <= 3 * f.m * (isqrt(2 * f.q) + 4), (f.q, lines)


@pytest.mark.parametrize("p, m", [(2, 8), (3, 5), (5, 3)])
def test_exp_table_steps_by_the_primitive_element(p, m):
    """exp[i] is g^i, each entry the reference product of the one before
    and g, and the table's second half repeats its first."""
    f = field_create(p, m)
    g, v = f.primitive_element(), 1
    for i in range(f.q - 1):
        assert f._exp[i] == f._exp[i + f.q - 1] == v, (p, m, i)
        assert f._log[v] == i
        v = ref_ext_mul(p, m, f.modulus, v, g)
    assert v == 1


def test_character_errors():
    f7 = field_create(7)
    with pytest.raises(ZeroArgument):
        f7.lg_parity(0)
    f8 = field_create(2, 3)
    with pytest.raises(EvenCharacteristic):
        f8.lg_parity(3)
    with pytest.raises(DivisionByZero):
        f7.inv(0)
    with pytest.raises(DivisionByZero):
        f7.pow(0, -2)
    assert f7.pow(0, 0) == 1
    assert f7.pow(0, 5) == 0


def test_negative_exponents():
    f9 = field_create(3, 2)
    for a in range(1, 9):
        assert f9.mul(f9.pow(a, -1), a) == 1
        assert f9.pow(a, -3) == f9.inv(f9.pow(a, 3))


def test_is_primitive_against_brute_order():
    for q in (7, 9, 25, 27, 49):
        f = field_of_order(q)
        assert not f.is_primitive(0)
        for c in range(1, q):
            assert f.is_primitive(c) == (brute_order(f, c) == q - 1), (q, c)


def test_find_odd_prime_power():
    assert find_odd_prime_power(121) == (11, 2)
    assert find_odd_prime_power(113) == (113, 1)
    assert find_odd_prime_power(9) == (3, 2)
    assert find_odd_prime_power(27) == (3, 3)
    assert find_odd_prime_power(1024) is None
    assert find_odd_prime_power(15) is None
    assert find_odd_prime_power(2) is None
    assert find_odd_prime_power(1) is None


def test_prime_power():
    for p in (2, 3, 5, 7, 11, 65537):
        for m in range(1, 12):
            assert prime_power(p**m) == (p, m)
            assert prime_power(p**m * 13) is None
    for q in (-4, 0, 1, 6, 12, 1000):
        assert prime_power(q) is None


def test_composite_characteristic_is_rejected_at_its_least_factor():
    """3 * (2**61 - 1) is refused once the factor 3 is divided out,
    with no trial division up to the square root of the large factor."""
    start = time.perf_counter()
    with pytest.raises(NotPrime):
        field_create(3 * (2**61 - 1))
    with pytest.raises(NotPrime):
        field_of_order(3 * (2**61 - 1))
    assert prime_power(3**5 * (2**61 - 1)) is None
    assert time.perf_counter() - start < 1.0


def test_trial_division_stops_at_its_bound():
    """A 61-bit prime has no factor up to TRIAL_DIVISION_MAX and a root
    past it, so it is refused within a second, and so is an extension
    field past the bound's square, before its modulus search; everything
    up to that square is still decided."""
    start = time.perf_counter()
    for make in (lambda: field_create(2**61 - 1, 3), lambda: field_of_order(2**61 - 1),
                 lambda: field_create(3, 40), lambda: field_create(3, 2000),
                 lambda: field_of_order(2**40)):
        with pytest.raises(BudgetExceeded):
            make()
    assert time.perf_counter() - start < 1.0
    top = TRIAL_DIVISION_MAX
    assert least_prime_factor(top * top) == 2
    assert least_prime_factor(999983 * 1000033) == 999983  # the largest prime below 10^6
    assert least_prime_factor(1000003) == 1000003
    with pytest.raises(BudgetExceeded):
        least_prime_factor(1000003 * 1000033)


def test_default_modulus_is_searched_once(monkeypatch):
    """A repeated field_of_order of an extension field runs no
    irreducibility test: the canonical modulus is found once per (p, m)."""
    from shadowcodes import poly

    first = field_of_order(2187)
    calls = []
    real = poly.is_irreducible
    monkeypatch.setattr(poly, "is_irreducible", lambda f: calls.append(f) or real(f))
    assert field_of_order(2187) is first
    assert calls == []


def test_nearest_odd_prime_power():
    assert nearest_odd_prime_power(108) == 107
    assert nearest_odd_prime_power(121) == 121
    assert nearest_odd_prime_power(4) == 3  # ties prefer the smaller order


def test_json_round_trip():
    # prime, tabled and untabled fields all come back as the cached instance
    for q in (7, 9, 128, 5**7):
        f = field_of_order(q)
        assert field_from_json(f.to_json()) is f
        assert field_from_json(json.loads(json.dumps(f.to_json()))) is f
    assert "modulus" not in field_create(7).to_json()
    assert field_create(3, 2).to_json()["modulus"] == [1, 0, 1]


@pytest.mark.parametrize(
    "modulus",
    [[1.7, 0.2, True], [1, 0, True], "abc", 5, [1, 0], [1, 0, 1, 0]],
    ids=["floats_and_bool", "bool", "string", "int", "short", "long"],
)
def test_json_modulus_must_be_m_plus_one_ints(modulus):
    # int() would read [1.7, 0.2, true] as the canonical GF(9) modulus (1, 0, 1)
    with pytest.raises(BadParameters):
        field_from_json({"p": 3, "m": 2, "modulus": modulus})


def test_large_prime_field_skips_tables():
    f = field_create(131071)  # above the table limit
    assert f._exp is None
    a = 123456
    assert f.mul(a, f.inv(a)) == 1
    assert f.pow(3, 131070) == 1
    assert f.lg_parity(f.mul(a, a)) == 0


def test_large_extension_field_direct_arithmetic():
    f = field_create(5, 7)  # q = 78125, no tables
    assert f._exp is None
    rng = random.Random(3)
    for _ in range(20):
        a = rng.randrange(1, f.q)
        assert f.mul(a, f.inv(a)) == 1
    alpha = f.primitive_element()
    assert f.pow(alpha, f.q - 1) == 1
    assert f.pow(alpha, (f.q - 1) // 2) != 1


def test_field_cache_identity():
    assert field_create(3, 2) is field_create(3, 2)
    assert field_create(3, 2, [2, 2, 1]) is not field_create(3, 2)


SMALL_FIELDS = [(p, m) for p in (2, 3, 5, 7) for m in range(1, 6) if p**m <= 49]


def _ref_add(p, m, a, b, sign=1):
    out, mult = 0, 1
    for _ in range(m):
        out += (a % p + sign * (b % p)) % p * mult
        a, b, mult = a // p, b // p, mult * p
    return out


# every tabled field up to q = 125, the characteristic-2 ones included;
# the test keeps its Zech name, and so its ids, though every one of
# these fields adds by the digit pass
PAIR_FIELDS = [(p, m) for p in (2, 3, 5, 7, 11) for m in range(2, 7) if p**m <= 125]


@pytest.mark.parametrize("p, m", PAIR_FIELDS, ids=[f"GF({p}^{m})" for p, m in PAIR_FIELDS])
def test_zech_addition_on_every_pair(p, m):
    """add, a - b as add(a, neg b), and neg against the digit reference
    on all q^2 pairs."""
    f = field_create(p, m)
    for a in range(f.q):
        assert f.neg(a) == _ref_add(p, m, 0, a, -1)
        for b in range(f.q):
            assert f.add(a, b) == _ref_add(p, m, a, b), (a, b)
            assert f.add(a, f.neg(b)) == _ref_add(p, m, a, b, -1), (a, b)
    # -1 has digits (p - 1, 0, .., 0), so it is index p - 1, and 1 in GF(2^m)
    assert f.neg(1) == p - 1


@pytest.mark.parametrize("q", [729, 2187, 3125])
def test_addition_past_the_byte_rows_on_seeded_pairs(q):
    """add, a - b and neg against the digit reference on the edges 0, 1,
    p - 1 and q - 1 and on 3000 seeded pairs, in the tabled fields the
    benchmark builds over, which are too large for byte rows."""
    f = field_of_order(q)
    p, m = f.p, f.m
    edges = (0, 1, p - 1, q - 1)
    rng = random.Random(q)
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    for a, b in pairs:
        assert f.add(a, b) == _ref_add(p, m, a, b) == f.add(b, a), (a, b)
        assert f.add(a, f.neg(b)) == _ref_add(p, m, a, b, -1), (a, b)
        assert f.neg(b) == _ref_add(p, m, 0, b, -1), b
        assert f.add(a, f.neg(a)) == 0, a


def _check_axioms(f, a, b, c, e):
    """Field laws on a, b, c, and every operation against the digit
    reference; e is an exponent in 0 .. 3q, so both e and -e run, many
    of them at or past q - 1."""
    p, m = f.p, f.m
    assert f.mul(a, b) == ref_ext_mul(p, m, f.modulus, a, b)
    assert f.add(a, b) == _ref_add(p, m, a, b) == f.add(b, a)
    assert f.add(a, f.neg(b)) == _ref_add(p, m, a, b, -1)
    assert f.neg(b) == _ref_add(p, m, 0, b, -1)
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0 and f.add(f.add(a, b), f.neg(b)) == a
    if a:
        assert f.mul(a, f.inv(a)) == 1 and f.mul(f.mul(a, b), f.inv(a)) == b
        assert ref_ext_mul(p, m, f.modulus, a, f.inv(a)) == 1
        power = ref_ext_pow(p, m, f.modulus, a, e)
        assert f.pow(a, e) == power
        assert ref_ext_mul(p, m, f.modulus, f.pow(a, -e), power) == 1


@settings(max_examples=150, deadline=None)
@given(pm=st.sampled_from(SMALL_FIELDS), data=st.data())
def test_field_axioms_against_reference(pm, data):
    f = field_create(*pm)
    a, b, c = data.draw(st.tuples(*[st.integers(0, f.q - 1)] * 3), label="a, b, c")
    _check_axioms(f, a, b, c, data.draw(st.integers(0, 3 * f.q), label="e"))


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 5**7 - 1)] * 3), st.integers(0, 3 * 5**7))
def test_untabled_field_axioms_against_reference(abc, e):
    f = field_create(5, 7)  # q = 78125, above the table limit
    assert f._exp is None
    _check_axioms(f, *abc, e)


def _ref_horner(f, coeffs, x):
    """coeffs at x by Horner's rule on ref_ext_mul and the digit add."""
    acc = 0
    for c in reversed(coeffs):
        acc = _ref_add(f.p, f.m, ref_ext_mul(f.p, f.m, f.modulus, acc, x), c)
    return acc


def _ref_chi_horner(f, coeffs, x):
    """chi of _ref_horner by Euler's criterion on ref_ext_pow."""
    v = _ref_horner(f, coeffs, x)
    return "2" if v == 0 else "01"[ref_ext_pow(f.p, f.m, f.modulus, v, (f.q - 1) // 2) != 1]


# a prime field, byte-row fields of degree 2, GF(2^7) at the edge
# of the byte rows, GF(3^5) and GF(2^8) just past it, GF(3^6) with exp
# and log tables, and the untabled GF(5^7)
HORNER_FIELDS = [(7, 1), (3, 2), (7, 2), (2, 7), (3, 5), (2, 8), (3, 6), (5, 7)]
HORNER_IDS = [f"GF({p}^{m})" for p, m in HORNER_FIELDS]
# the odd byte-row fields, where horner_chi steps every point at once:
# three of HORNER_FIELDS, and GF(11^2), GF(5^3) and GF(127) at the edge
# of the one-byte lanes
CHI_FIELDS = [(7, 1), (3, 2), (7, 2), (11, 2), (5, 3), (127, 1)]
CHI_IDS = [f"GF({p}^{m})" for p, m in CHI_FIELDS]


@settings(max_examples=200, deadline=None)
@given(pm=st.sampled_from(HORNER_FIELDS), data=st.data())
def test_horner_against_reference(pm, data):
    """Field.horner on drawn coefficient tuples, trailing zeros and the
    empty tuple included, at drawn points with 0 drawn often."""
    f = field_create(*pm)
    elem = st.integers(0, f.q - 1)
    coeffs = tuple(data.draw(st.lists(elem, max_size=8), label="coeffs"))
    points = data.draw(st.lists(st.one_of(st.just(0), elem), max_size=6), label="points")
    assert f.horner(coeffs, points) == [_ref_horner(f, coeffs, x) for x in points]


@settings(max_examples=200, deadline=None)
@given(pm=st.sampled_from(CHI_FIELDS), data=st.data())
def test_horner_chi_against_reference(pm, data):
    """Field.horner_chi on the bulk step, drawn as for horner."""
    f = field_create(*pm)
    elem = st.integers(0, f.q - 1)
    coeffs = tuple(data.draw(st.lists(elem, max_size=8), label="coeffs"))
    points = data.draw(st.lists(st.one_of(st.just(0), elem), max_size=6), label="points")
    assert f.horner_chi(coeffs, points) == "".join([_ref_chi_horner(f, coeffs, x) for x in points])


@pytest.mark.parametrize("p, m", HORNER_FIELDS, ids=HORNER_IDS)
def test_horner_edge_cases(p, m):
    """The zero polynomial, constants, the point 0, and sums that cancel
    to 0 midway (x - a, and x^2 - ax + 5, at x = a)."""
    f = field_create(p, m)
    points = [0, 1, 2, f.q - 1]
    assert f.horner((), points) == [0] * 4
    for c in (1, 2, f.q - 1):
        assert f.horner((c,), points) == [c] * 4
    for a in (1, 2, f.q - 1):
        assert f.horner((f.neg(a), 1), [a]) == [0]
        cs = (5, f.neg(a), 1)
        assert f.horner(cs, [0, a]) == [5, _ref_horner(f, cs, a)] == [5, 5]
    assert f.horner((3, 2, 0, 1), [0]) == [3]


@pytest.mark.parametrize("p, m", CHI_FIELDS, ids=CHI_IDS)
def test_horner_chi_edge_cases(p, m):
    """horner_chi's bulk step on the cases of test_horner_edge_cases,
    and on no points at all."""
    f = field_create(p, m)
    points, chi_5 = [0, 1, 2, f.q - 1], _ref_chi_horner(f, (5,), 0)
    assert f.horner_chi((), points) == "2222"
    for c in (1, 2, f.q - 1):
        assert f.horner_chi((c,), points) == _ref_chi_horner(f, (c,), 0) * 4
    for a in (1, 2, f.q - 1):
        assert f.horner_chi((f.neg(a), 1), [a]) == "2"
        cs = (5, f.neg(a), 1)
        assert f.horner_chi(cs, [0, a]) == chi_5 + _ref_chi_horner(f, cs, a) == chi_5 * 2
    assert f.horner_chi((3, 2, 0, 1), [0]) == _ref_chi_horner(f, (3,), 0)
    for coeffs in ((), (4,), (1, 2, 1)):
        assert f.horner_chi(coeffs, []) == ""


@pytest.mark.parametrize(
    "p, m, bad",
    [(13, 1, 16), (13, 1, -1), (3, 2, 9), (3, 2, -1), (5, 7, 5**7), (5, 7, -1)],
    ids=["prime_above", "prime_below", "byte_rows_above", "byte_rows_below",
         "untabled_above", "untabled_below"],
)
def test_horner_refuses_a_point_outside_the_field(p, m, bad):
    """A point outside 0..q - 1 is refused, not reduced mod p, read
    off the end of a row or taken as a digit pattern, wherever it sits
    among the points and for the zero polynomial too."""
    f = field_create(p, m)
    for coeffs in ((1, 2, 1), (4,), ()):
        with pytest.raises(BadParameters):
            f.horner(coeffs, [0, bad, 1])
    with pytest.raises(BadParameters):
        Poly(f, (1, 2, 1))(bad)
    assert f.horner((1, 2, 1), [0, f.q - 1]) == [Poly(f, (1, 2, 1))(x) for x in (0, f.q - 1)]


@pytest.mark.parametrize(
    "p, m, bad",
    [(3, 2, 9), (3, 2, -1), (3, 2, 256), (127, 1, 127), (127, 1, -1), (127, 1, 256)],
    ids=["above", "below", "past_a_byte", "lane_edge_above", "lane_edge_below",
         "lane_edge_past_a_byte"],
)
def test_horner_chi_refuses_a_point_outside_the_field(p, m, bad):
    """horner_chi's bulk step refuses a point outside 0..q - 1, one that
    is no byte included, for the zero polynomial and constants too."""
    f = field_create(p, m)
    for coeffs in ((1, 2, 1), (4,), ()):
        with pytest.raises(BadParameters):
            f.horner_chi(coeffs, [0, bad, 1])
    assert f.horner_chi((1, 2, 1), [0, f.q - 1]) == "".join(
        [_ref_chi_horner(f, (1, 2, 1), x) for x in (0, f.q - 1)]
    )


# byte-row fields whose largest lane sum 2q - 2 nears 255 in
# horner_chi's bulk step: GF(11^2), GF(5^3) and GF(127) at 240, 248 and
# 252; GF(2^7), whose 254 the bulk step no longer reaches, since only odd
# fields have chi; and GF(131), GF(3^5) and GF(2^8), just past the byte
# rows
LANE_FIELDS = [(11, 2), (5, 3), (127, 1), (2, 7), (131, 1), (3, 5), (2, 8)]
ODD_LANE_FIELDS = [(11, 2), (5, 3), (127, 1)]


def _whole_and_partial_cases(f):
    """Point sets (every point of f, a prefix, and sorted scattered
    subsets with and without 0) and polynomials: drawn ones,
    (x - a) x^k + r(x) with r's top two coefficients 0, whose partial sum
    at x = a is zero after two steps and stays zero for two more, and
    (x - a)(x - b) with a, b among the points, which ends at zero there;
    the last come as (coeffs, (a, b))."""
    q, rng = f.q, random.Random(f.q)
    scattered = sorted(rng.sample(range(1, q), q // 3))
    point_sets = [range(q), range(q // 2 + 1), [0, *scattered], scattered]
    polys = [tuple(rng.randrange(q) for _ in range(d)) for d in (2, 4, 4, 9)]
    polys.append((rng.randrange(1, q),) * 3)  # non-monic, no zero coefficient
    roots = []
    for a in (scattered[0], scattered[-1], 1):
        lead, b = rng.randrange(1, q), scattered[1]
        top = (f.neg(f.mul(lead, a)), lead)  # lead (x - a): zero at a
        assert _ref_horner(f, top, a) == 0
        polys.append((rng.randrange(q), rng.randrange(1, q), 0, 0) + top)
        roots.append(((f.mul(a, b), f.neg(f.add(a, b)), 1), (a, b)))
    return point_sets, polys, roots


@pytest.mark.parametrize("p, m", LANE_FIELDS, ids=[f"GF({p}^{m})" for p, m in LANE_FIELDS])
def test_horner_on_whole_and_partial_point_sets(p, m):
    """horner on _whole_and_partial_cases."""
    f = field_create(p, m)
    point_sets, polys, roots = _whole_and_partial_cases(f)
    for coeffs in polys + [cs for cs, _ in roots]:
        want = [_ref_horner(f, coeffs, x) for x in range(f.q)]
        for points in point_sets:
            assert f.horner(coeffs, points) == [want[x] for x in points], (coeffs, points)


@pytest.mark.parametrize("p, m", ODD_LANE_FIELDS, ids=[f"GF({p}^{m})" for p, m in ODD_LANE_FIELDS])
def test_horner_chi_on_whole_and_partial_point_sets(p, m):
    """horner_chi's bulk step on _whole_and_partial_cases; the zeros of
    (x - a)(x - b) read '2'."""
    f = field_create(p, m)
    point_sets, polys, roots = _whole_and_partial_cases(f)
    for coeffs in polys + [cs for cs, _ in roots]:
        want = [_ref_chi_horner(f, coeffs, x) for x in range(f.q)]
        for points in point_sets:
            got = f.horner_chi(coeffs, points)
            assert got == "".join([want[x] for x in points]), (coeffs, points)
    for coeffs, (a, b) in roots:
        row = f.horner_chi(coeffs, range(f.q))
        assert row[a] == row[b] == "2", coeffs


def _check_byte_rows(f, pairs):
    sums, prods = f.byte_rows()
    assert len(sums) == len(prods) == f.q
    assert all(type(r) is bytes and len(r) == f.q for r in sums + prods)
    for a, b in pairs:
        assert sums[a][b] == _ref_add(f.p, f.m, a, b), (f, a, b)
        assert prods[a][b] == ref_ext_mul(f.p, f.m, f.modulus, a, b), (f, a, b)


@pytest.mark.parametrize("p, m", SMALL_FIELDS, ids=[f"GF({p}^{m})" for p, m in SMALL_FIELDS])
def test_byte_rows_match_the_references_on_every_pair(p, m):
    f = field_create(p, m)
    _check_byte_rows(f, [(a, b) for a in range(f.q) for b in range(f.q)])


@pytest.mark.parametrize("q", [81, 121, 125, 127, 128])
def test_byte_rows_match_the_references_on_drawn_pairs(q):
    """Every row and every column is read at least 5 times, at 1 among
    them."""
    f = field_of_order(q)
    rng = random.Random(q)
    pairs = [(a, b) for a in range(q) for b in [1] + [rng.randrange(q) for _ in range(4)]]
    _check_byte_rows(f, pairs + [(b, a) for a, b in pairs])


def test_byte_rows_are_built_on_first_use_up_to_the_limit():
    """A new field, prime or not, holds no rows until asked, then keeps
    the ones it built; past 128 there are none."""
    for q in (2, 13, 49, 127, 128):
        pm = prime_power(q)
        f = Field(*pm, None if pm[1] == 1 else field_of_order(q).modulus)
        assert f._rows is None
        assert f.byte_rows() is f.byte_rows() is not None
    for q in (131, 243, 256, 257, 729, 5**7):
        assert field_of_order(q).byte_rows() is None
