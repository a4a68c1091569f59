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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .binary import BinaryCode, row_from_bits
from .errors import BadParameters, BudgetExceeded, LengthMismatch
from .field import TABLE_LIMIT, Field, field_create
from .poly import Poly


class ThetaMap:
    """Bijection between bit tuples of length m+1 and GF(2^(m+1))."""

    __slots__ = ("field", "m", "basis", "_inverse")

    def __init__(self, field: Field, m: int):
        if field.q != 1 << (m + 1):
            raise BadParameters(f"field order {field.q} is not 2^{m + 1}")
        alpha = field.primitive_element()
        self.field = field
        self.m = m
        self.basis = tuple(field.pow(alpha, i) for i in range(m + 1))
        inverse: dict[int, tuple[int, ...]] = {}
        for v in range(1 << (m + 1)):
            bits = tuple((v >> i) & 1 for i in range(m + 1))
            inverse[self.encode(bits)] = bits
        if len(inverse) != field.q:
            raise AssertionError("theta basis is not a basis; construction bug")
        self._inverse = inverse

    def encode(self, bits) -> int:
        bits = tuple(bits)
        if len(bits) != self.m + 1:
            raise LengthMismatch(f"theta takes {self.m + 1} bits")
        out = 0
        for b, e in zip(bits, self.basis):
            if b:
                out = self.field.add(out, e)
        return out

    def decode(self, element: int) -> tuple[int, ...]:
        return self._inverse[element]


@dataclass(frozen=True)
class ConcatSpec:
    m: int
    N: int
    K: int
    field: Field
    theta: ThetaMap

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
        # ThetaMap tabulates all q symbols, and GF(q) has no log tables
        raise BudgetExceeded(f"GF(2^{m + 1}) exceeds the field table limit {TABLE_LIMIT}")
    if not 1 <= K <= N:
        raise BadParameters(f"need 1 <= K <= N, got K={K}, N={N}")
    if N > q - 1:
        raise BadParameters(
            f"N={N} exceeds the {q - 1} distinct nonzero evaluation points of GF({q})"
        )
    field = field_create(2, m + 1)
    return ConcatSpec(m, N, K, field, ThetaMap(field, m))


def rs_encode(spec: ConcatSpec, message) -> list[int]:
    """Evaluate the degree < K message polynomial at points 1..N."""
    message = list(message)
    if len(message) != spec.K:
        raise LengthMismatch(f"outer message needs {spec.K} symbols")
    poly = Poly(spec.field, message)
    return [poly(beta) for beta in range(1, spec.N + 1)]


def rm1_encode(m: int, bits) -> list[int]:
    """First-order Reed-Muller block for m+1 message bits."""
    bits = list(bits)
    if len(bits) != m + 1:
        raise LengthMismatch(f"inner message needs {m + 1} bits")
    mask = row_from_bits(bits[1:])
    return [bits[0] ^ ((t & mask).bit_count() & 1) for t in range(1 << m)]


def concat_encode(spec: ConcatSpec, bits) -> list[int]:
    """K(m+1) message bits to an N 2^m bit codeword."""
    bits = list(bits)
    if len(bits) != spec.k:
        raise LengthMismatch(f"message needs {spec.k} bits")
    w = spec.m + 1
    symbols = [spec.theta.encode(bits[i * w : (i + 1) * w]) for i in range(spec.K)]
    out: list[int] = []
    for s in rs_encode(spec, symbols):
        out.extend(rm1_encode(spec.m, spec.theta.decode(s)))
    return out


def concat_generator(spec: ConcatSpec) -> BinaryCode:
    """Generator matrix from the unit message vectors."""
    rows = []
    for j in range(spec.k):
        bits = [0] * spec.k
        bits[j] = 1
        rows.append(row_from_bits(concat_encode(spec, bits)))
    return BinaryCode(rows, spec.n)


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
