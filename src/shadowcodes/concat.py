"""Reed-Solomon / first-order Reed-Muller concatenation.

The outer code is an (N, K) Reed-Solomon code over GF(2^(m+1)),
evaluating message polynomials of degree < K at the first N nonzero
canonical elements.  Each symbol is carried back to m+1 bits through
the inverse of

    theta(v_1, .., v_{m+1}) = sum v_i alpha^(i-1),   alpha primitive,

and the bits feed the inner (2^m, m+1) first-order Reed-Muller encoder

    c_t = v_1 + v_2 t_1 + .. + v_{m+1} t_m   (t_1 .. t_m the bits of t),

whose nonzero codewords all have weight 2^(m-1) except the all-ones
word.  The result is a (N 2^m, K(m+1)) binary code with minimum
distance at least (N - K + 1) 2^(m-1): a nonzero Reed-Solomon word has
at least N - K + 1 nonzero symbols and every nonzero inner block
weighs at least 2^(m-1).

Bit vectors are ints, as in the binary module: bit i of an inner
message v is v_(i+1), bit j of t is t_(j+1), bits i(m+1) .. i(m+1) + m
of a message are outer symbol i, and inner block j of a codeword fills
bits j 2^m .. (j+1) 2^m - 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .binary import BinaryCode
from .errors import BadParameters, BudgetExceeded, LengthMismatch
from .field import TABLE_LIMIT, Field, field_create
from .poly import Poly


@functools.cache
def theta_table(m: int) -> tuple[int, ...]:
    """theta(v) in GF(2^(m+1)) for each (m+1)-bit int v."""
    field = field_create(2, m + 1)
    alpha = field.primitive_element()
    basis = [field.pow(alpha, i) for i in range(m + 1)]
    image = [0]
    for v in range(1, field.q):
        image.append(field.add(image[v & (v - 1)], basis[(v & -v).bit_length() - 1]))
    if len(set(image)) != field.q:
        raise AssertionError("theta basis is not a basis; construction bug")
    return tuple(image)


@functools.cache
def _theta_inverse(m: int) -> tuple[int, ...]:
    """The v with theta(v) = s, for each symbol s."""
    inverse = [0] * (2 << m)
    for v, s in enumerate(theta_table(m)):
        inverse[s] = v
    return tuple(inverse)


@dataclass(frozen=True)
class ConcatSpec:
    m: int
    N: int
    K: int
    field: Field

    @property
    def n(self) -> int:
        return self.N << self.m

    @property
    def k(self) -> int:
        return self.K * (self.m + 1)


def concat_spec(m: int, N: int, K: int) -> ConcatSpec:
    if m < 1:
        raise BadParameters(f"need m >= 1, got {m}")
    q = 1 << (m + 1)
    if q > TABLE_LIMIT:
        # theta_table tabulates all q symbols, and past the limit GF(q)
        # has no log tables, so every field operation is a digit loop
        raise BudgetExceeded(f"GF(2^{m + 1}) exceeds the field table limit {TABLE_LIMIT}")
    if not 1 <= K <= N:
        raise BadParameters(f"need 1 <= K <= N, got K={K}, N={N}")
    if N > q - 1:
        raise BadParameters(
            f"N={N} exceeds the {q - 1} distinct nonzero evaluation points of GF({q})"
        )
    return ConcatSpec(m, N, K, field_create(2, m + 1))


def rs_encode(spec: ConcatSpec, message) -> list[int]:
    """Evaluate the degree < K message polynomial at points 1..N."""
    message = list(message)
    if len(message) != spec.K:
        raise LengthMismatch(f"outer message needs {spec.K} symbols")
    poly = Poly(spec.field, message)
    return [poly(beta) for beta in range(1, spec.N + 1)]


def rm1_encode(m: int, v: int) -> int:
    """First-order Reed-Muller block of the (m+1)-bit message v: bit t
    is v_1 + popcount(t & (v >> 1)) mod 2.  Built by doubling: the t
    with bit i - 1 set repeat the block below them plus v_(i+1)."""
    if not 0 <= v < 2 << m:
        raise LengthMismatch(f"inner message needs {m + 1} bits")
    word, width = v & 1, 1
    for i in range(1, m + 1):
        flip = (1 << width) - 1 if v >> i & 1 else 0
        word |= (word ^ flip) << width
        width <<= 1
    return word


def concat_encode(spec: ConcatSpec, message: int) -> int:
    """K(m+1)-bit message to an N 2^m-bit codeword."""
    if not 0 <= message < 1 << spec.k:
        raise LengthMismatch(f"message needs {spec.k} bits")
    m, w = spec.m, spec.m + 1
    theta, inverse = theta_table(m), _theta_inverse(m)
    symbols = [theta[message >> (i * w) & ((1 << w) - 1)] for i in range(spec.K)]
    word = 0
    for j, s in enumerate(rs_encode(spec, symbols)):
        word |= rm1_encode(m, inverse[s]) << (j << m)
    return word


def concat_generator(spec: ConcatSpec) -> BinaryCode:
    """Generator matrix from the unit message vectors."""
    return BinaryCode([concat_encode(spec, 1 << j) for j in range(spec.k)], spec.n)


@dataclass(frozen=True)
class ConcatParams:
    n: int
    k: int
    dmin_lb: int
    rate: Fraction
    rs_rate: Fraction
    delta_lb: Fraction
    delta_formula_lb: Fraction


def concat_params(spec: ConcatSpec) -> ConcatParams:
    """Exact parameters and the two relative-distance floors.

    delta_lb comes from the concatenated distance bound; the weaker
    delta_formula_lb = (1 - K/N)/2 drops the inner contribution."""
    dmin_lb = (spec.N - spec.K + 1) << (spec.m - 1)
    rs_rate = Fraction(spec.K, spec.N)
    return ConcatParams(
        n=spec.n,
        k=spec.k,
        dmin_lb=dmin_lb,
        rate=Fraction(spec.k, spec.n),
        rs_rate=rs_rate,
        delta_lb=Fraction(dmin_lb, spec.n),
        delta_formula_lb=(1 - rs_rate) / 2,
    )
