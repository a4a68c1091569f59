"""Binary linear codes as integer bitsets.

A length-n vector is an int with bit j holding coordinate j; a code is
the row span of a tuple of such ints.  The exact minimum-distance scan
walks blocks of 2^b messages: block h adds the high rows that the bits
of h select to every message of the low b rows.  A Walsh transform
(MacWilliams & Sloane, ch. 5) weighs a group of 2^w consecutive blocks
at once: the columns are histogrammed by their pattern in the b + w
rows made of the low rows and the w lowest high rows, b + w <= 16,
signed by the group's codeword of the high rows above those, and the
2^(b + w) transform lanes give 2(n - |x|) for every codeword x of the
group.  A group's lanes are packed into 2^(b + w - p) ints of 2^p lanes
each, a piece filling PIECE_BYTES bytes or the whole block: the top
b + w - p butterfly stages pair whole pieces and need no shift.  Piece
i holds lanes i 2^p .. (i + 1) 2^p - 1, so the pieces joined in order
are the group as one int, and each run of 2^(b - p) of them is one
block.  Each butterfly inside a piece is one add, a + b on its low lane
and a + ~b = a - b - 1 on its high one; the -1s leave a fixed skew,
which the top stages gather on piece 0 of the group and one subtract
per group takes back.

Lanes count modulo 2^(bits - 1), below a guard bit, and a lane reads
exactly below that.  The scan never reads the zero message's lane, and
every other lane is 2(n - |x|) with |x| >= 1, at most 2n - 2, so the lanes
are the narrowest of 8, 16, 32 and 64 bits whose value bits hold 2n - 2:
8 bits up to n = 64 and 16 bits up to n = 16384.

When the all-ones word 1 lies in the code, c and c + 1 weigh |c| and
n - |c|, so the exact minimum-distance scan walks only the 2^(k-1)
messages of a complement of {0, 1} and reads both weights off each.
When the code also holds the reversal of each of its words, which the
reversed rows adding no rank decides exactly, reversing the coordinates
is a weight-preserving involution M of that quotient, and the scan
walks about one coset per orbit {x, Mx}: near half the quotient.  The
weight distribution walks all 2^k codewords in Gray-code order, taking
one popcount a codeword.
"""

from __future__ import annotations

import random
import sys
from array import array
from itertools import compress

from .errors import BadParameters, DimensionTooLarge, LengthMismatch

ENUM_BUDGET_LOG2 = 28
WEIGHT_DIST_BUDGET_LOG2 = 24
LOW_ROWS = 14  # rows per transform block: 2^14 lanes
PIECE_BYTES = 4096  # bytes per piece of a block, one packed int: 2^12 8-bit lanes
_BITS = bytes.maketrans(b"01", b"\0\1")


def _echelon(rows) -> dict[int, tuple[int, int]]:
    """Pivot -> (row, reduced) for each row outside the span of the rows
    before it, in order: reduced is row plus earlier reduced rows, and
    its top bit is its pivot, which no other reduced row has."""
    basis: dict[int, tuple[int, int]] = {}
    for row in rows:
        cur = row
        while cur:
            pivot = cur.bit_length() - 1
            if pivot not in basis:
                basis[pivot] = (row, cur)
                break
            cur ^= basis[pivot][1]
    return basis


def _independent_rows(rows) -> list[int]:
    """The rows outside the span of the rows before them, in order."""
    return [row for row, _ in _echelon(rows).values()]


def gf2_rank(rows) -> int:
    """Rank of the GF(2) row space."""
    return len(_independent_rows(rows))


class BinaryCode:
    """Generator rows (independent) plus the ambient length."""

    __slots__ = ("rows", "n")

    def __init__(self, rows, n: int):
        rows = tuple(rows)
        for row in rows:
            if not 0 <= row < (1 << n):
                raise LengthMismatch(f"row {row:#x} does not fit in {n} columns")
        if gf2_rank(rows) != len(rows):
            raise BadParameters("generator rows are dependent; use from_span")
        self.rows = rows
        self.n = n

    @classmethod
    def from_span(cls, rows, n: int) -> "BinaryCode":
        """Keep a maximal independent subset, in first-seen order."""
        return cls(_independent_rows(rows), n)

    @property
    def k(self) -> int:
        return len(self.rows)

    def encode(self, message: int) -> int:
        if not 0 <= message < (1 << self.k):
            raise LengthMismatch(f"message needs {self.k} bits")
        cw = 0
        m = message
        while m:
            low = m & -m
            cw ^= self.rows[low.bit_length() - 1]
            m ^= low
        return cw

    def __repr__(self) -> str:
        return f"BinaryCode(n={self.n}, k={self.k})"


def _lane_format(n: int, k: int) -> tuple[str, int, int, int, int]:
    """Array type code, width in bits and lane-wise 1 of a piece of the
    2^b lanes of a block over the low b = min(LOW_ROWS, k) of k length-n
    rows, b, and p = min(b, log2(PIECE_BYTES / itemsize)), a piece
    holding 2^p lanes.  Lanes count modulo 2^(bits - 1), below a spare
    top bit, their guard bit, and a lane reads exactly below that: the
    lane is the narrowest with 2n - 2 < 2^(bits - 1), 2n - 2 being the
    largest lane the scan reads."""
    b, top = min(LOW_ROWS, k), 2 * n - 2
    code = "B" if top < 1 << 7 else "H" if top < 1 << 15 else "I" if top < 1 << 31 else "Q"
    size = array(code).itemsize
    p = min(b, (PIECE_BYTES // size).bit_length() - 1)
    return code, 8 * size, int.from_bytes(b"\1".ljust(size, b"\0") * (1 << p), "little"), b, p


def _unpack(v: int, code: str, p: int) -> array:
    """The 2^p lanes of a packed piece, lane 0 first."""
    lanes = array(code, v.to_bytes(array(code).itemsize << p, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


def _column_bits(row: int, n: int) -> bytes:
    """Byte j is bit j of a length-n row, as 0 or 1."""
    return format(row, f"0{n}b").encode()[::-1].translate(_BITS)


def _stage_masks(bits: int, b: int, values: int) -> list[tuple[int, int, int]]:
    """(shift, mask, upper) of each butterfly stage s < b of 2^b packed
    lanes of the given width, s ascending: stage s pairs lane i with lane
    i + 2^s, shifting by 2^s lanes; its mask holds the value bits of the
    lanes i, and upper = mask << shift those of the lanes i + 2^s.  The
    top stage's mask is the low half, and each stage's mask XOR itself
    shifted by half its run of lanes gives the stage's below it."""
    stages = []
    mask = (1 << (bits << b >> 1)) - 1
    for s in reversed(range(b)):
        shift = bits << s
        low = mask & values
        stages.append((shift, low, low << shift))
        mask ^= mask << (shift >> 1)
    return stages[::-1]


def _butterflies(v: int, stages: list[tuple[int, int, int]]) -> int:
    """The stages of _stage_masks on one packed piece v, one add each:
    lane i takes a + b and lane i + 2^s takes a + ~b, ~b being b's value
    bits flipped, which is a - b - 1 modulo 2^(bits - 1).  Both addends
    have clear guard bits, so no carry leaves a lane, and each stage's
    masks drop the junk guard bits the stage before left."""
    for shift, mask, upper in stages:
        x = v & mask
        y = v & upper
        v = (x | x << shift) + (y >> shift | y ^ upper)
    return v


def _skew(stages: list[tuple[int, int, int]], values: int, top_stages: int) -> int:
    """What the -1s of _butterflies leave on piece 0 of a block after
    its in-piece stages and its top stages, lane-wise modulo
    2^(bits - 1): the stages run on a zero piece, and each top stage
    doubles it.  The -1s do not depend on the data, so lane u != 0 of
    every piece is off by -2^(p - 1 - hb(u)) after the p in-piece
    stages, hb(u) the top set bit of u, and lane 0 by 0; the top stages
    add that onto piece 0 and cancel it on every other piece, leaving
    -2^(b - 1 - hb(u)) on piece 0 alone."""
    skew = _butterflies(0, stages) & values
    for _ in range(top_stages):
        skew = skew << 1 & values
    return skew


def _signed_histogram(base: array, pats: array, cw: int, n: int) -> array:
    """base less 2 on the pattern lane of each column j with bit j of
    the codeword cw set: the signed histogram of one group."""
    lanes = base[:]
    hist = memoryview(lanes)
    for pat in compress(pats, _column_bits(cw, n)):
        hist[pat] -= 2
    return lanes


def _walsh_blocks(rows: tuple[int, ...], n: int, lo: int, hi: int):
    """The pieces of each block h in [lo, hi), one list a block, laid out
    as _lane_format(n, k) for the low b = min(LOW_ROWS, k) rows, some of
    them nonzero: 2^(b - p) ints of 2^p lanes, piece i holding lanes
    i 2^p .. (i + 1) 2^p - 1.  Lane u of block h holds 2(n - |x|)
    modulo 2^(bits - 1) for the codeword x of low message u plus the
    high rows that the bits of h select, exact for every lane but lane 0
    of piece 0 of block 0, the zero message's.  Each group of blocks
    builds its own high codeword, so any span of blocks can be walked on
    its own, and a block's pieces do not depend on the span.

    The blocks are transformed in groups of 2^w, w the largest with
    b + w <= 16, the rows a 16-bit pattern lane holds, w at most the
    count of high rows, and 2^w dividing lo and hi, so that the groups
    tile the span.  Group g folds the w lowest high rows into its
    transform: it transforms the signed histogram f(t) = sum (-1)^(c_j)
    over the columns j whose pattern in the b + w low and folded rows is
    t, c being the codeword of the high rows above the folded ones that
    the bits of g select, plus n at t = 0.  Lane U of the transform is
    then n + sum_j (-1)^(c_j + U.t_j) = 2(n - |x|), x the codeword of
    message U of the b + w rows plus c, so block h = g 2^w + v is lanes
    v 2^b .. (v + 1) 2^b - 1 of group g.  The lanes count modulo
    2^(bits - 1), so each butterfly inside a piece is one add over all
    lanes (_butterflies): a + b on the low lane and a + ~b = a - b - 1
    on the high one.  The guard bit absorbs the carry, and masking it
    off leaves the lane modulo 2^(bits - 1).  The -1s do not depend on
    the data, and the b + w - p top stages gather them on piece 0 of the
    group as one fixed skew (_skew), which a subtract per group takes
    back.

    Every lane of the histogram starts at 2^(bits - 1) + count(t), its
    guard bit set, and each column of c takes 2 off its pattern's lane,
    so no lane falls below 2^(bits - 1) - count(t) > 0 and none needs a
    modulo.  Lane 0 starts highest, at 2^(bits - 1) + count(0) + n, and
    a nonzero low row leaves count(0) <= n - 1, so count(0) + n is at
    most 2n - 1 < 2^(bits - 1).  At 8 bits and n = 64 that is
    128 + 63 + 64 = 255, one byte.  The p low stages run inside each
    piece, their masks holding value bits only, so a stage reads
    guard-free halves and leaves its junk guard bits to the next stage's
    masks; each piece is cleared once after them.  The top stages pair
    whole pieces, lane for lane with no shift, in an exact add and
    subtract, and clear the guard bits of each sum and difference; piece
    0 of the group then takes back the skew."""
    code, bits, ones, b, p = _lane_format(n, len(rows))
    # pats[j] is column j's pattern in the b + w low and folded rows, one
    # 16-bit lane per column, which holds at most 16 rows
    if b > 16:
        raise AssertionError(f"LOW_ROWS = {LOW_ROWS} passes the 16 low rows of a 16-bit lane")
    w = 0
    while b + w < 16 and w < len(rows) - b and not (lo | hi) >> w & 1:
        w += 1
    folded, high = rows[: b + w], rows[b + w :]
    wrap = 1 << (bits - 1)
    guards = ones << (bits - 1)
    values = guards - ones
    spread, packed = bytearray(2 * n), 0
    for i, row in enumerate(folded):
        spread[::2] = _column_bits(row, n)
        packed |= int.from_bytes(spread, "little") << i
    pats = array("H", packed.to_bytes(2 * n, "little"))
    if sys.byteorder == "big":
        pats.byteswap()
    base = array(code, [wrap]) * (1 << (b + w))
    for pat in pats:
        base[pat] += 1
    base[0] += n
    stages = _stage_masks(bits, p, values)
    skew = _skew(stages, values, b + w - p)
    size, per = 1 << p, 1 << (b - p)  # lanes a piece, pieces a block
    # top stage s pairs piece i with piece i + 2^s, s ascending like the low stages
    pieces = 1 << (b + w - p)
    tops = [(i, i | 1 << s) for s in range(b + w - p) for i in range(pieces) if not i >> s & 1]
    for g in range(lo >> w, hi >> w):
        cw = 0
        for row in compress(high, _column_bits(g, len(high))):
            cw ^= row
        lanes = _signed_histogram(base, pats, cw, n)
        if sys.byteorder == "big":
            lanes.byteswap()
        view = memoryview(lanes)
        vs = [
            _butterflies(int.from_bytes(view[at : at + size], "little"), stages) & values
            for at in range(0, len(lanes), size)
        ]
        for i, j in tops:
            x, y = vs[i], vs[j]
            vs[i], vs[j] = (x + y) & values, ((x | guards) - y) & values
        vs[0] = ((vs[0] | guards) - skew) & values
        for at in range(0, pieces, per):
            yield vs[at : at + per]


def _min_weight(
    rows: tuple[int, ...], n: int, lo: int, hi: int, fold: bool = False, best: int | None = None
) -> int:
    """Least weight over blocks [lo, hi), skipping the zero message, or
    best when no walked codeword is lighter (default: above every
    weight).  With fold the rows span a complement of {0, 1} in a
    length-n code holding 1, so each weight w also stands for n - w.

    Each block comes as the pieces of _walsh_blocks, and a piece is
    decoded only when some lane beats the best weight so far: adding
    2^(bits-1) - 1 - 2(n - best) to every lane sets its guard bit
    exactly when it holds more than 2(n - best), that is w < best, and
    the same test on 2n - lane finds n - w < best.  The zero message is
    lane 0 of piece 0 of block 0, and no other lane, and it is never
    read."""
    code, bits, ones, _, p = _lane_format(n, len(rows))
    guards = ones << (bits - 1)
    if best is None:
        best = n if fold else n + 1  # fold: the zero message's coset {0, 1}
    seen = None
    for h, pieces in enumerate(_walsh_blocks(rows, n, lo, hi), lo):
        for i, v in enumerate(pieces):
            if best != seen:
                seen = best
                thresh = guards - (1 + 2 * (n - best)) * ones
                flipped = 2 * n * ones + thresh
            zero = not (h or i)
            if zero or (v + thresh) & guards or fold and (flipped - v) & guards:
                lanes = _unpack(v, code, p)
                if zero:
                    del lanes[0]  # the zero message; a one-lane piece (p = 0) is then empty
                if lanes:
                    best = min(best, n - max(lanes) // 2)
                    if fold:
                        best = min(best, min(lanes) // 2)
    return best


def _reverse(row: int, n: int) -> int:
    """The length-n row with its coordinates in reverse order."""
    return int(format(row, f"0{n}b")[::-1], 2)


def _holds_reversal(rows: tuple[int, ...], n: int) -> bool:
    """Whether the span of 1 and rows, independent of 1 and each other,
    holds the reversal of each word: the reversed rows add no rank."""
    ones = (1 << n) - 1
    revs = (_reverse(row, n) for row in rows)
    return len(_independent_rows((ones, *rows, *revs))) == len(rows) + 1


def _walk_parts(rows: tuple[int, ...], n: int, fold: bool) -> list[tuple[tuple[int, ...], int, int]]:
    """The scan as (rows, lo, hi) parts for _min_weight: the plain
    walk of every block, or one walk per orbit of the coordinate reversal.

    When the code holds 1 and its reversal, M(x) = canon(rev(x)) is an
    involution on the quotient by 1, canon(c) clearing bit 0 by adding 1.
    N = M + I has N^2 = 0, so the quotient has a basis f, g, e with
    N(e_i) = f_i and N(g) = 0.  M fixes span(f, g), and the orbit
    {x, Mx} of an x whose highest e is e_j holds one member free of f_j.
    Part 0 walks span(f, g, e_1..e_j0) whole, within LOW_ROWS rows; part
    j > j0 walks the rows (f but f_j, g, e_1..e_j) with e_j the last high
    row, over the blocks [2^(L - 1), 2^L) whose index selects it, L
    being the part's count of high rows.  With no high row, the part
    walks its one block, meeting some orbits twice."""
    blocks = 1 << max(len(rows) - LOW_ROWS, 0)
    plain = [(rows, 0, blocks)]
    if not (fold and _holds_reversal(rows, n)):
        return plain
    ones = (1 << n) - 1

    def canon(c: int) -> int:
        return c ^ ones if c & 1 else c

    # eliminate the pairs (N(x), x) packed as N(x) << n | x: a reduced
    # row with its pivot at bit n or above holds N(e) = f, one below is
    # a kernel row
    packed = (canon(row ^ _reverse(row, n)) << n | canon(row) for row in rows)
    reduced = [v for _, v in _echelon(packed).values()]
    fs, es = [v >> n for v in reduced if v >> n], [v & ones for v in reduced if v >> n]
    kernel = [v for v in reduced if not v >> n]
    r = len(fs)
    gs = _independent_rows(fs + kernel)[r:]
    j0 = max(0, min(r, LOW_ROWS - len(rows) + r))
    parts = [(tuple(fs + gs + es[:j0]), 0, 1 << max(len(rows) - r + j0 - LOW_ROWS, 0))]
    for j in range(j0, r):
        part = tuple(fs[:j] + fs[j + 1 :] + gs + es[: j + 1])
        high = len(part) - LOW_ROWS
        parts.append((part, 1 << (high - 1), 1 << high) if high > 0 else (part, 0, 1))
    return parts if sum(hi - lo for _, lo, hi in parts) < blocks else plain


def exact_min_distance(code: BinaryCode) -> int:
    """Minimum nonzero codeword weight by full enumeration, of the
    quotient by 1 when the code holds 1, and of one coset per orbit of
    the coordinate reversal when the code holds that too.  The scan
    walks the parts of _walk_parts in turn, each starting from the best
    weight of the parts before it."""
    k, n = code.k, code.n
    if k == 0:
        raise BadParameters("the trivial code has no nonzero codeword")
    if k > ENUM_BUDGET_LOG2:
        raise DimensionTooLarge(
            f"2**{k} codewords exceed the enumeration budget 2**{ENUM_BUDGET_LOG2};"
            " use sampled_min_distance_upper"
        )
    # 1 is in the code exactly when it adds no rank; the rows kept after
    # it then span a complement of {0, 1}
    kept = _independent_rows(((1 << n) - 1,) + code.rows)
    if len(kept) == k:
        rows, fold = tuple(kept[1:]), True
        if not rows:
            return n  # the code is {0, 1}
    else:
        rows, fold = code.rows, False
    best = None
    for part, lo, hi in _walk_parts(rows, n, fold):
        best = _min_weight(part, n, lo, hi, fold, best)
    return best


def sampled_min_distance_upper(code: BinaryCode, trials: int, seed: int) -> int:
    """Upper bound on the minimum distance from random nonzero messages."""
    if code.k == 0:
        raise BadParameters("the trivial code has no nonzero codeword")
    if trials < 1:
        raise BadParameters(f"need at least one trial, got {trials}")
    # one 256-entry XOR table per 8 rows: entry u of table i encodes the
    # message byte u in rows 8i .. 8i + 7
    tables = []
    for i in range(0, code.k, 8):
        table = [0]
        for row in code.rows[i : i + 8]:
            table += [t ^ row for t in table]
        tables.append(table)
    # randrange(1, 2^k) on CPython 3.10-3.13 is 1 + _randbelow(2^k - 1),
    # whose _randbelow_with_getrandbits redraws getrandbits(k) while it
    # is 2^k - 1: the same draws, without its Python-level call chain
    getrandbits = random.Random(seed).getrandbits
    k, last = code.k, (1 << code.k) - 1
    best = code.n + 1
    for _ in range(trials):
        m = getrandbits(k)
        while m == last:
            m = getrandbits(k)
        m += 1
        cw = 0
        for table in tables:
            cw ^= table[m & 255]
            m >>= 8
        w = cw.bit_count()
        if w < best:
            best = w
    return best


def weight_distribution(code: BinaryCode) -> list[int]:
    """Histogram over weights 0..n of all 2^k codewords, one Gray step
    and one popcount a codeword.

    The walk is never folded by 1: a histogram with A[w] = A[n - w] for
    every w has A[n] = A[0] = 1, so 1 is in the code, and 1 in the code
    makes c -> c + 1 map weight w to n - w.  Symmetry is thus a real test
    of 1 in C only while both halves are counted."""
    if code.k > WEIGHT_DIST_BUDGET_LOG2:
        raise DimensionTooLarge(
            f"2**{code.k} codewords exceed the histogram budget"
            f" 2**{WEIGHT_DIST_BUDGET_LOG2}"
        )
    hist, cw = [1] + [0] * code.n, 0
    for h in range(1, 1 << code.k):
        cw ^= code.rows[(h & -h).bit_length() - 1]
        hist[cw.bit_count()] += 1
    return hist


def random_linear_code(n: int, k: int, seed: int) -> BinaryCode:
    """Uniform k x n generator, resampled in full until it has rank k."""
    if not 0 < k <= n:
        raise LengthMismatch(f"need 0 < k <= n, got k={k}, n={n}")
    rng = random.Random(seed)
    while True:
        rows = [rng.getrandbits(n) for _ in range(k)]
        if gf2_rank(rows) == k:
            return BinaryCode(rows, n)


def row_to_hex(row: int, n: int) -> str:
    """Fixed-width hex of a length-n row; bit j of the int is column j."""
    return format(row, f"0{max(1, (n + 3) // 4)}x")


def row_from_hex(text: str) -> int:
    return int(text, 16)
