"""Arithmetic in GF(p^m) with a fixed canonical element enumeration.

Element k of GF(p^m) (0 <= k < q = p^m) stands for the polynomial over
GF(p) whose coefficients are the base-p digits of k, least significant
digit first, so index 0 is the additive identity and index 1 the
multiplicative identity.  For m > 1 arithmetic is done modulo the
canonical modulus, the lexicographically least monic irreducible of
degree m (coefficient tuples (c0, .., c_{m-1}) compared left to right);
no other modulus is taken, so a given (p, m) always produces the same
field, the same element order, and therefore byte-identical downstream
artifacts.

Extension fields (m > 1) with q <= 2**16 precompute exp/log tables
over the least primitive element g.  Prime fields need none, since they
compute mod p directly; larger extension fields fall back to direct
polynomial arithmetic, which is slower but keeps every operation
correct at any size.  Each of mul, pow (any integer exponent, reduced
mod q - 1) and inv as pow(a, -1) is one method holding all three cases.
add has two: a + b mod p in a prime field, else one pass over the
base-p digits.  neg is mul by -1, the index p - 1 in every field, and
a difference a - b is add(a, neg b).
Primitivity is one power per prime factor of q - 1.

horner evaluates a polynomial by Horner's rule one point at a time in
every field: mod p in a prime field, else by mul and add.  Up to q = 128
a field keeps byte rows of its sums and products, which Poly * reads
too, and there horner_chi, chi of a polynomial at many points, steps
every point at once: the logs of acc and of the points add as one-byte
lanes of one int, a 256-byte exp table reads the products back, and the
byte row of the next coefficient's sums adds it, with chi composed into
the last step's row, so a chi row takes no pass of its own.  Past the
byte rows horner_chi reads each horner value in chi.

Every odd field has one quadratic character chi, which the shadow rows
are read off: chi[a] is '0' for a nonzero square, '1' for a non-square
and '2' at a = 0.  It is one string, built once from the squares a*a,
except past q = 2**16, where Euler's criterion runs per element asked
for until a gather builds the string (chi_string).  Rows of low-degree
polynomials come from C-speed work over that string: translate(s, c)
reads s at a + c, one roll of s per nonzero base-p digit of c with no
field addition, and gather_squares(s) reads s at a*a.
"""

from __future__ import annotations

import functools
from itertools import chain
from math import isqrt
from operator import itemgetter

from .errors import (
    BadParameters,
    BudgetExceeded,
    DegreeMismatch,
    DivisionByZero,
    EvenCharacteristic,
    NotPrime,
    ZeroArgument,
)

TABLE_LIMIT = 1 << 16
# fields up to this order keep byte rows of their sums and products; two
# logs in 0..q - 1 sum to at most 2q - 2 <= 254, so a bulk Horner lane of
# one byte never carries and 255 stays free as the zero mark
BYTE_ROWS_LIMIT = 128
# a bulk Horner step's zero test: 0 goes to 255, the zero mark
_ZERO_LANES = b"\xff" + bytes(255)
# trial division stops here, a few hundredths of a second in: every
# integer up to its square, 10^12, is factored, and a larger one with
# no factor below it is refused
TRIAL_DIVISION_MAX = 10**6


def least_prime_factor(x: int) -> int:
    """Least prime factor of x >= 2, by trial division up to
    TRIAL_DIVISION_MAX; an x with no factor that far and a square root
    past it is refused rather than left to divide for minutes."""
    root = isqrt(x)
    top = min(root, TRIAL_DIVISION_MAX)
    f = next((f for f in chain((2,), range(3, top + 1, 2)) if x % f == 0), None)
    if f is None and root > TRIAL_DIVISION_MAX:
        raise BudgetExceeded(
            f"{x} has no factor up to {TRIAL_DIVISION_MAX}; trial division stops there"
        )
    return x if f is None else f


@functools.lru_cache(maxsize=None)
def prime_factors(x: int) -> tuple[int, ...]:
    """Distinct prime factors of x >= 1, ascending; cached per x."""
    out = []
    while x > 1:
        out.append(f := least_prime_factor(x))
        while x % f == 0:
            x //= f
    return tuple(out)


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with p prime and p**m == q, else None; a composite
    is refused as soon as its least prime factor is divided out."""
    if q < 2:
        return None
    p, m = least_prime_factor(q), 0
    while q % p == 0:
        q, m = q // p, m + 1
    return (p, m) if q == 1 else None


def find_odd_prime_power(target: int) -> tuple[int, int] | None:
    """Return (p, m) with p an odd prime and p**m == target, else None."""
    pm = prime_power(target)
    return pm if pm and pm[0] != 2 else None


def nearest_odd_prime_power(target: int, least: int = 3) -> int:
    """The admissible field order >= least closest to target; ties go down."""
    for off in range(max(target, 4)):
        for q in (target - off, target + off):
            if q >= least and find_odd_prime_power(q):
                return q
    return 3


class Field:
    """GF(p^m) on canonical integer indices 0 .. q-1.

    Construct through field_create(); instances are cached and
    immutable, so identical parameters share one object and its tables,
    and two fields are equal exactly when they are the same object.
    """

    __slots__ = (
        "p", "m", "q", "modulus", "_exp", "_log", "_primitive", "_chi_str", "_squares", "_rows",
        "_log_exp",
    )

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus  # length m+1, low degree first, monic; None iff m == 1
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._primitive: int | None = None
        self._chi_str: str | None = None
        self._squares: itemgetter | None = None
        self._rows: tuple[list[bytes], list[bytes]] | None = None
        self._log_exp: tuple[bytes, bytes] | None = None
        if self.m > 1 and self.q <= TABLE_LIMIT:
            self._build_tables()

    # -- canonical representation ------------------------------------

    def digits(self, a: int) -> tuple[int, ...]:
        """Base-p digits of index a, constant coefficient first."""
        out = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            out.append(r)
        return tuple(out)

    def index(self, digits) -> int:
        a = 0
        for d in reversed(tuple(digits)):
            a = a * self.p + d
        return a

    # -- additive structure --------------------------------------------

    def add(self, a: int, b: int) -> int:
        """a + b: mod p in a prime field, else digit by digit."""
        if self.m == 1:
            return (a + b) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.m):
            out += (a + b) % p * mult
            a, b, mult = a // p, b // p, mult * p
        return out

    def neg(self, a: int) -> int:
        """-a as (-1) a; -1 is the constant p - 1, index p - 1 in every field."""
        return self.mul(self.p - 1, a)

    # -- multiplicative structure ---------------------------------------

    def _mul_digits(self, da, db) -> list[int]:
        # schoolbook product of two digit sequences, then reduction by
        # the monic modulus
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        mod = self.modulus
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                base = i - m
                for j in range(m):
                    prod[base + j] = (prod[base + j] - c * mod[j]) % p
        return prod[:m]

    def _build_tables(self) -> None:
        q = self.q
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        da = self.digits(self.primitive_element())
        dv = self.digits(1)
        for i in range(q - 1):
            v = self.index(dv)
            exp[i] = v
            log[v] = i
            # the sparse primitive element runs the outer loop, which
            # skips its zero digits
            dv = self._mul_digits(da, dv)
        exp[q - 1 :] = exp[: q - 1]
        self._exp = exp
        self._log = log

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self.index(self._mul_digits(self.digits(a), self.digits(b)))

    def byte_rows(self) -> tuple[list[bytes], list[bytes]] | None:
        """(sums, prods), q rows of q bytes with sums[a][b] = a + b and
        prods[a][b] = a * b, built on the first call; None past
        BYTE_ROWS_LIMIT, q = 128.  Each row is one or two
        bytes.translate calls: the product row of a != 0 maps log b
        (0 takes the spare log q - 1) to g^(log a + log b), g the least
        primitive element, and the sum row of a != 0 is a(1 + b/a), the
        product row of 1/a = g^(-log a) read through the row of 1 + b,
        then that of a."""
        if self._rows is None and self.q <= BYTE_ROWS_LIMIT:
            q, p, g = self.q, self.p, self.primitive_element()
            powers = [self.pow(g, t) for t in range(q - 1)]
            logs = bytes([q - 1, *sorted(range(q - 1), key=powers.__getitem__)])
            cycle, pad = bytes(powers) * 2, bytes(256 - q)
            prods = [bytes(q)] + [logs.translate(cycle[t : t + q - 1] + bytes(257 - q))
                                  for t in logs[1:]]
            one_up = bytes(b - b % p + (b + 1) % p for b in range(q)) + pad
            sums = [bytes(range(q))] + [prods[powers[-t]].translate(one_up).translate(prods[a] + pad)
                                        for a, t in enumerate(logs[1:], 1)]
            self._rows = sums, prods
            # horner_chi's tables: the same logs, with 255 past q - 1 to
            # mark a point outside the field, and g^(t mod q - 1) for
            # t < 2q - 2 with 255, the zero mark, sent to 0
            self._log_exp = logs.ljust(256, b"\xff"), cycle.ljust(256, b"\0")
        return self._rows

    def horner(self, coeffs, points) -> list[int]:
        """The polynomial with coefficients coeffs (low degree first) at
        every point, by Horner's rule from the leading coefficient, one
        point at a time: (acc * x + c) % p in a prime field and
        add(mul(acc, x), c) in an extension field; a point outside
        0 .. q - 1 is refused."""
        q = self.q
        if points and not (0 <= min(points) and max(points) < q):
            raise BadParameters(_outside(q))
        top, rest = coeffs[-1] if coeffs else 0, coeffs[-2::-1]
        prime, p, mul, add = self.m == 1, self.p, self.mul, self.add
        out = []
        for x in points:
            acc = top
            for c in rest:
                acc = (acc * x + c) % p if prime else add(mul(acc, x), c)
            out.append(acc)
        return out

    def horner_chi(self, coeffs, points) -> str:
        """chi of the polynomial at every point, odd q only; a point
        outside 0 .. q - 1 is refused.  Past BYTE_ROWS_LIMIT, q = 128,
        each horner value is read in chi.  Up to it Horner's rule steps
        every point at once on the byte rows:
        acc * x adds the logs of acc and of the points (packed once, from
        the log table byte_rows builds, where 0 takes the spare q - 1) as
        one-byte lanes of one int, ORs 255 into each lane where acc or x
        is 0, and reads the lanes through exp, which sends 255 to 0;
        + c then reads the byte row sums[c], and the last step's row is
        read through chi, so the row takes no pass of its own.  A lane
        sum is at most 2q - 2 <= 254, so no lane carries."""
        chi = self.chi
        if self.byte_rows() is None:
            return "".join([chi[v] for v in self.horner(coeffs, points)])
        q, n = self.q, len(points)
        sums, (log, exp) = self._rows[0], self._log_exp
        try:
            xs = bytes(points)
        except ValueError:  # a point outside 0..255
            xs = None
        if xs is None or 255 in xs.translate(log):
            raise BadParameters(_outside(q))
        if len(coeffs) < 2:
            return chi[coeffs[-1] if coeffs else 0] * n
        pad = bytes(256 - q)
        acc = bytes([coeffs[-1]]) * n
        rows = [sums[c] + pad for c in coeffs[-2:0:-1]]
        rows.append(sums[coeffs[0]].translate(chi.encode("latin-1") + pad) + pad)
        x_logs = int.from_bytes(xs.translate(log), "little")
        x_zeros = int.from_bytes(xs.translate(_ZERO_LANES), "little")
        for row in rows:
            s = int.from_bytes(acc.translate(log), "little") + x_logs
            s |= int.from_bytes(acc.translate(_ZERO_LANES), "little") | x_zeros
            acc = s.to_bytes(n, "little").translate(exp).translate(row)
        return acc.decode("latin-1")

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        """a**e for any integer e; nonzero a has a**(q - 1) = 1, so e is
        first reduced mod q - 1, negative exponents included."""
        if a == 0:
            if e < 0:
                raise DivisionByZero(f"0**{e} undefined in GF({self.q})")
            return 1 if e == 0 else 0
        e %= self.q - 1
        if self.m == 1:
            return pow(a, e, self.p)
        if self._log is not None:
            return self._exp[self._log[a] * e % (self.q - 1)]
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def is_primitive(self, c: int) -> bool:
        """True iff c generates the multiplicative group: c**((q - 1)/f)
        differs from 1 for every prime f dividing q - 1."""
        t = self.q - 1
        return c != 0 and all(self.pow(c, t // f) != 1 for f in prime_factors(t))

    def primitive_element(self) -> int:
        """Least primitive index."""
        if self._primitive is None:
            self._primitive = next(filter(self.is_primitive, range(1, self.q)))
        return self._primitive

    # -- quadratic character --------------------------------------------

    @property
    def chi(self) -> str | _EulerCharacter:
        """chi[a] is '0' for a nonzero square, '1' for a non-square and
        '2' at a = 0; odd q only.  The string chi_string() up to
        TABLE_LIMIT or once a gather has built it, else Euler's criterion
        at each index read; an even q goes to chi_string, which refuses it."""
        if self._chi_str is None and self.q > TABLE_LIMIT and self.q % 2:
            return _EulerCharacter(self)
        return self.chi_string()

    def chi_string(self) -> str:
        """chi as a string of length q at any q, built once from the
        squares; a prime field needs only a*a for a <= (q - 1)/2."""
        if self._chi_str is None:
            if self.q % 2 == 0:
                raise EvenCharacteristic(f"GF({self.q}): every element is a square")
            marks = bytearray(b"1" * self.q)
            marks[0] = ord("2")
            if self.m == 1:
                squares = (a * a % self.p for a in range(1, (self.q + 1) // 2))
            else:
                squares = (self.mul(a, a) for a in range(1, self.q))
            for s in squares:
                marks[s] = ord("0")
            self._chi_str = marks.decode()
        return self._chi_str

    def translate(self, s: str, c: int) -> str:
        """The q-length string t with t[a] = s[add(a, c)], for a latin-1
        string s and an element index c in 0..q-1.

        A prime field rotates s.  Above, adding digit c_i of c changes
        digit i of a alone, so it rolls s left by c_i p^i inside every
        run of p^(i+1) characters.  Each nonzero digit is one roll of
        the latin-1 bytes: two slices per run when the runs are long
        (2q <= run^2), else one strided copy per offset within a run.
        No field addition is made."""
        q, p = self.q, self.p
        if not 0 <= c < q:
            raise BadParameters(f"translation {c} is not an element index of GF({q})")
        if self.m == 1:
            return s[c:] + s[:c]
        b = s.encode("latin-1")
        run = 1
        for _ in range(self.m):
            c, digit = divmod(c, p)
            shift, run = digit * run, run * p
            if not digit:
                continue
            if 2 * q <= run * run:
                b = b"".join([piece for lo in range(0, q, run)
                              for piece in (b[lo + shift : lo + run], b[lo : lo + shift])])
            else:
                out = bytearray(q)
                for j in range(run):
                    out[j::run] = b[(j + shift) % run :: run]
                b = out
        return b.decode("latin-1")

    def gather_squares(self, s: str) -> str:
        """The q-length string t with t[a] = s[mul(a, a)]; the itemgetter
        over the squares is built once per field."""
        if self._squares is None:
            self._squares = itemgetter(*[self.mul(a, a) for a in range(self.q)])
        return "".join(self._squares(s))

    def lg_parity(self, a: int) -> int:
        """0 for nonzero squares, 1 for non-squares; odd q only."""
        c = self.chi[a]
        if c == "2":
            raise ZeroArgument("square test is for nonzero elements")
        return int(c)

    # -- I/O -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def to_json(self) -> dict:
        obj = {"p": self.p, "m": self.m}
        if self.m > 1:
            obj["modulus"] = list(self.modulus)
        return obj


def _outside(q: int) -> str:
    return f"evaluation points must lie in 0..{q - 1} for GF({q})"


class _EulerCharacter:
    """chi of a field too large for a string: a ** ((q - 1) / 2) per read."""

    def __init__(self, field: Field):
        self.pow, self.half = field.pow, (field.q - 1) // 2

    def __getitem__(self, a: int) -> str:
        return "2" if a == 0 else "01"[self.pow(a, self.half) != 1]


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    from . import poly as _poly

    base = _field_cached(p, 1, None)
    first = _poly.enumerate_monic_irreducibles(base, m, 1)[0]
    return first.coeffs


@functools.lru_cache(maxsize=None)
def _field_cached(p: int, m: int, modulus: tuple[int, ...] | None) -> Field:
    return Field(p, m, modulus)


def field_create(p: int, m: int = 1) -> Field:
    """GF(p^m) over its canonical modulus, the one instance per (p, m)."""
    if prime_power(p) != (p, 1):
        raise NotPrime(f"characteristic {p} is not prime")
    if m < 1:
        raise DegreeMismatch(f"extension degree must be >= 1, got {m}")
    # primitivity factors q - 1, which trial division finishes up to
    # TRIAL_DIVISION_MAX^2; a larger order is refused before the modulus
    # search, whose cost grows with m, and 2^m bounds p^m from below
    top = TRIAL_DIVISION_MAX**2
    if m >= top.bit_length() or p**m > top:
        raise BudgetExceeded(f"GF({p}^{m}) has more than {top} elements, past which trial"
                             " division cannot factor q - 1")
    return _field_cached(p, m, _default_modulus(p, m) if m > 1 else None)


def field_of_order(q: int) -> Field:
    """GF(q) with the canonical modulus, for any prime power q >= 2."""
    pm = prime_power(q)
    if pm is None:
        raise NotPrime(f"{q} is not a prime power")
    return field_create(*pm)


def field_from_json(obj: dict) -> Field:
    """The field a descriptor names: ints p and m, and a modulus, when
    present, equal to the canonical one; a prime field takes none."""
    p, m = obj["p"], obj["m"]
    if type(p) is not int or type(m) is not int:
        raise BadParameters(f"field p and m must be ints, got {p!r} and {m!r}")
    modulus = obj.get("modulus")
    if modulus is not None and not (
        type(modulus) is list and len(modulus) == m + 1 and all(type(c) is int for c in modulus)
    ):
        raise BadParameters(f"field modulus must be a list of {m + 1} ints, got {modulus!r}")
    field = field_create(p, m)
    if modulus is not None and tuple(modulus) != field.modulus:
        want = f"only its canonical modulus {list(field.modulus)}" if m > 1 else "no modulus"
        raise BadParameters(f"{field} takes {want}, got {modulus}")
    return field
