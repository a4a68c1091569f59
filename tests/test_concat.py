import random
from fractions import Fraction

import pytest

from helpers import naive_min_distance
from shadowcodes.binary import exact_min_distance
from shadowcodes.concat import (
    ThetaMap,
    concat_encode,
    concat_generator,
    concat_params,
    concat_spec,
    rm1_encode,
    rs_encode,
)
from shadowcodes.errors import BadParameters, BudgetExceeded, LengthMismatch
from shadowcodes.field import field_create


def test_theta_frozen_small_case():
    spec = concat_spec(2, 4, 2)
    assert spec.field.modulus == (1, 0, 1, 1)
    assert spec.field.primitive_element() == 2
    assert spec.theta.basis == (1, 2, 4)
    assert spec.theta.encode((0, 1, 1)) == 6
    assert spec.theta.encode((0, 0, 0)) == 0
    assert spec.theta.encode((1, 0, 0)) == 1


def test_theta_is_a_bijection_and_linear():
    for m in (1, 2, 3, 4):
        theta = ThetaMap(field_create(2, m + 1), m)
        width = m + 1
        images = set()
        for v in range(1 << width):
            bits = tuple((v >> i) & 1 for i in range(width))
            e = theta.encode(bits)
            assert theta.decode(e) == bits
            images.add(e)
        assert images == set(range(1 << width))
        rng = random.Random(m)
        for _ in range(20):
            a = [rng.randrange(2) for _ in range(width)]
            b = [rng.randrange(2) for _ in range(width)]
            s = [x ^ y for x, y in zip(a, b)]
            assert theta.encode(s) == theta.field.add(theta.encode(a), theta.encode(b))


def test_theta_validation():
    with pytest.raises(BadParameters):
        ThetaMap(field_create(2, 3), 1)  # order 8 is not 2^2
    theta = ThetaMap(field_create(2, 2), 1)
    with pytest.raises(LengthMismatch):
        theta.encode((1,))


def test_rs_minimum_symbol_weight_exhaustive():
    spec = concat_spec(2, 4, 2)
    q = spec.field.q
    best = spec.N + 1
    for a in range(q):
        for b in range(q):
            if a == b == 0:
                continue
            word = rs_encode(spec, [a, b])
            best = min(best, sum(1 for s in word if s))
    assert best == spec.N - spec.K + 1 == 3


def test_rm1_weights():
    for m in (2, 3):
        n = 1 << m
        weights = set()
        for v in range(1, 1 << (m + 1)):
            bits = [(v >> i) & 1 for i in range(m + 1)]
            w = sum(rm1_encode(m, bits))
            weights.add(w)
            assert w > 0  # nonzero message -> nonzero block
        assert weights == {n // 2, n}
        assert sum(rm1_encode(m, [0] * (m + 1))) == 0


def test_concat_encode_is_linear():
    spec = concat_spec(2, 4, 3)
    rng = random.Random(5)
    for _ in range(30):
        a = [rng.randrange(2) for _ in range(spec.k)]
        b = [rng.randrange(2) for _ in range(spec.k)]
        s = [x ^ y for x, y in zip(a, b)]
        ca, cb, cs = (concat_encode(spec, v) for v in (a, b, s))
        assert cs == [x ^ y for x, y in zip(ca, cb)]


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
    spec = concat_spec(2, 4, 2)
    with pytest.raises(LengthMismatch):
        rs_encode(spec, [1])
    with pytest.raises(LengthMismatch):
        rm1_encode(2, [1, 0])
    with pytest.raises(LengthMismatch):
        concat_encode(spec, [0] * 5)
