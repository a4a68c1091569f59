"""Reed-Solomon / first-order Reed-Muller concatenation.

The outer code is an (N, K) Reed-Solomon code over GF(2^(m+1)): a
message polynomial of degree < K is evaluated at the first N nonzero
canonical elements beta = 1..N.  Each symbol goes back to m+1 bits
through the inverse of

    theta(v_1, .., v_{m+1}) = sum v_i alpha^(i-1),   alpha primitive,

and the bits feed the inner (2^m, m+1) first-order Reed-Muller encoder

    c_t = v_1 + v_2 t_1 + .. + v_{m+1} t_m   (t_1 .. t_m the bits of t).

Generator row i(m+1) + b is the outer polynomial theta(2^b) x^i, so its
block beta - 1 is the RM1 block of theta^-1(theta(2^b) beta^i).  Nonzero
RM1 blocks weigh at least 2^(m-1) and a nonzero Reed-Solomon word has at
least N - K + 1 nonzero symbols, so the (N 2^m, K(m+1)) binary code has
minimum distance at least (N - K + 1) 2^(m-1).

Bit vectors are ints, as in the binary module: bit i of an inner
message v is v_(i+1), bit j of t is t_(j+1), bits i(m+1) .. i(m+1) + m
of a message are outer symbol i, and inner block j of a codeword fills
bits j 2^m .. (j+1) 2^m - 1.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple

from .binary import BinaryCode
from .errors import BadParameters, BudgetExceeded, LengthMismatch
from .field import TABLE_LIMIT, Field, field_create
from .shadow import _within_budget


@functools.cache
def theta_table(m: int) -> tuple[int, ...]:
    """theta(v) in GF(2^(m+1)) for each (m+1)-bit int v."""
    field = field_create(2, m + 1)
    alpha = field.primitive_element()
    basis = [field.pow(alpha, i) for i in range(m + 1)]
    image = [0]
    # canonical indices are coefficient bit vectors, so adding is XOR
    for v in range(1, field.q):
        image.append(image[v & (v - 1)] ^ basis[(v & -v).bit_length() - 1])
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


class ConcatSpec(NamedTuple):
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


def concat_generator(spec: ConcatSpec) -> BinaryCode:
    """Generator matrix, one row per outer polynomial theta(2^b) x^i.
    Its length N 2^m is checked against the length budget first: at
    m = 15 a row would join 2^31 bit characters."""
    _within_budget("length N*2^m", spec.n)
    m, field = spec.m, spec.field
    theta, inverse = theta_table(m), _theta_inverse(m)
    block_bits = f"0{1 << m}b"
    rows = []
    for i in range(spec.K):
        powers = [field.pow(beta, i) for beta in range(1, spec.N + 1)]
        for b in range(m + 1):
            blocks = [rm1_encode(m, inverse[field.mul(theta[1 << b], power)]) for power in powers]
            # one bit-string join, block N - 1 first, so that block j fills bits j 2^m ..
            rows.append(int("".join(format(block, block_bits) for block in reversed(blocks)), 2))
    return BinaryCode(rows, spec.n)


class ConcatParams(NamedTuple):
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
