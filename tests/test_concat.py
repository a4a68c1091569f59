from fractions import Fraction

import pytest

from helpers import naive_min_distance, ref_concat_rows
from shadowcodes import shadow
from shadowcodes.binary import exact_min_distance
from shadowcodes.concat import (
    _theta_inverse,
    concat_generator,
    concat_params,
    concat_spec,
    rm1_encode,
    theta_table,
)
from shadowcodes.errors import BadParameters, BudgetExceeded, LengthMismatch
from shadowcodes.field import field_create
from shadowcodes.verify import verify_theorem7


def test_theta_frozen_small_case():
    spec = concat_spec(2, 4, 2)
    assert spec.field.modulus == (1, 0, 1, 1)
    assert spec.field.primitive_element() == 2
    theta = theta_table(2)
    assert [theta[1 << i] for i in range(3)] == [1, 2, 4]  # the basis
    assert theta[0b110] == 6
    assert theta[0] == 0
    assert theta[1] == 1


def test_theta_is_a_bijection_and_linear():
    for m in (1, 2, 3, 4):
        field = field_create(2, m + 1)
        theta = theta_table(m)
        assert sorted(theta) == list(range(field.q))
        inverse = _theta_inverse(m)
        assert all(inverse[theta[v]] == v for v in range(field.q))
        for a in range(field.q):
            for b in range(field.q):
                assert theta[a ^ b] == field.add(theta[a], theta[b])


def test_theta_validation():
    # theta reads the (m+1)-bit ints only
    for m in (1, 2, 3):
        assert len(theta_table(m)) == 2 << m


def test_theorem7_builds_one_theta_table():
    theta_table.cache_clear()
    assert verify_theorem7(4)["ok"]
    assert theta_table.cache_info().misses == 1


def test_generator_length_budget(monkeypatch):
    """The budget reads N 2^m before any row is built: at a budget of 16,
    (m, N) = (2, 4) builds and (3, 3) is refused, as is verify theorem7
    at m = 12, whose K = 1 code is 2^24 long."""
    monkeypatch.setattr(shadow, "LENGTH_BUDGET", 16)
    assert concat_generator(concat_spec(2, 4, 2)).n == 16
    with pytest.raises(BudgetExceeded, match="length budget"):
        concat_generator(concat_spec(3, 3, 1))
    monkeypatch.undo()
    with pytest.raises(BudgetExceeded, match="length budget"):
        verify_theorem7(12)


def test_rs_minimum_symbol_weight_exhaustive():
    # an inner block is nonzero exactly when its outer symbol is
    spec = concat_spec(2, 4, 2)
    code = concat_generator(spec)
    mask = (1 << (1 << spec.m)) - 1
    best = min(
        sum(1 for j in range(spec.N) if word >> (j << spec.m) & mask)
        for word in map(code.encode, range(1, 1 << code.k))
    )
    assert best == spec.N - spec.K + 1 == 3


def test_rm1_weights():
    for m in (1, 2, 3, 4):
        n = 1 << m
        weights = set()
        for v in range(1, 2 << m):
            block = rm1_encode(m, v)
            assert 0 <= block < 1 << n
            weights.add(block.bit_count())
        assert weights == {n // 2, n}  # nonzero message -> nonzero block
        assert rm1_encode(m, 0) == 0


@pytest.mark.parametrize(
    "m,N,K",
    [(1, 3, 1), (1, 3, 2), (1, 2, 2), (1, 3, 3), (2, 4, 2), (2, 7, 3), (2, 7, 7), (3, 8, 2),
     (3, 15, 4), (4, 16, 2), (4, 31, 3), (5, 63, 3)],
)
def test_generator_matches_reference_encoder(m, N, K):
    spec = concat_spec(m, N, K)
    code = concat_generator(spec)
    got = [[(row >> t) & 1 for t in range(code.n)] for row in code.rows]
    assert got == ref_concat_rows(m, N, K, spec.field.modulus)


FROZEN = [
    # m, N, K, n, k, dmin_lb, exact dmin
    (2, 4, 1, 16, 3, 8, 8),
    (2, 4, 2, 16, 6, 6, 6),
    (2, 4, 3, 16, 9, 4, 4),
    (2, 4, 4, 16, 12, 2, 2),
    (3, 4, 2, 32, 8, 12, 12),
    (2, 7, 3, 28, 9, 10, 10),
]


@pytest.mark.parametrize("m,N,K,n,k,lb,dmin", FROZEN)
def test_concat_frozen_distances(m, N, K, n, k, lb, dmin):
    spec = concat_spec(m, N, K)
    params = concat_params(spec)
    assert (params.n, params.k, params.dmin_lb) == (n, k, lb)
    code = concat_generator(spec)
    assert code.k == k
    got = exact_min_distance(code)
    assert got == dmin >= lb
    if k <= 9:
        assert naive_min_distance(code.rows, n) == dmin


def test_params_exact_fractions():
    p = concat_params(concat_spec(2, 4, 2))
    assert p.rate == Fraction(3, 8)
    assert p.rs_rate == Fraction(1, 2)
    assert p.delta_lb == Fraction(3, 8)
    assert p.delta_formula_lb == Fraction(1, 4)
    big = concat_params(concat_spec(5, 32, 3))
    assert (big.n, big.k, big.dmin_lb) == (1024, 18, 480)
    assert big.rate == Fraction(9, 512)
    assert big.delta_lb == Fraction(15, 32)
    assert big.delta_formula_lb == Fraction(29, 64)
    # rate-one outer code drops the formula floor to zero but not the
    # concatenated one
    full = concat_params(concat_spec(2, 4, 4))
    assert full.delta_formula_lb == 0
    assert full.delta_lb == Fraction(1, 8)


def test_spec_validation():
    with pytest.raises(BadParameters):
        concat_spec(0, 2, 1)
    with pytest.raises(BadParameters):
        concat_spec(2, 4, 0)
    with pytest.raises(BadParameters):
        concat_spec(2, 4, 5)
    with pytest.raises(BadParameters):
        concat_spec(2, 8, 2)  # only 7 nonzero points in GF(8)
    concat_spec(2, 7, 2)  # the boundary itself is fine


def test_spec_stays_within_the_field_table_limit():
    # GF(2^17) would need a 2^17-entry theta table built without log tables
    with pytest.raises(BudgetExceeded):
        concat_spec(16, 3, 1)


def test_length_mismatches():
    for v in (-1, 8):
        with pytest.raises(LengthMismatch):
            rm1_encode(2, v)
