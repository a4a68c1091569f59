"""Binary linear codes as integer bitsets.

A length-n vector is an int with bit j holding coordinate j; a code is
the row span of a tuple of such ints.  Exhaustive scans walk messages
in Gray-code order, one step per block of all low-row combinations.

When the all-ones word 1 lies in the code, c and c + 1 weigh w and
n - w, so the exact minimum-distance scan walks only the 2^(k-1)
messages of a complement of {0, 1} and reads both weights off each.
The weight distribution always walks all 2^k codewords.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from itertools import chain, repeat
from operator import xor

from .errors import BadParameters, DimensionTooLarge, LengthMismatch

ENUM_BUDGET_LOG2 = 28
WEIGHT_DIST_BUDGET_LOG2 = 24
LOW_ROWS = 10  # rows tabulated per Gray block: 2^10 entries of n bits each


def _independent_rows(rows) -> list[int]:
    """The rows outside the span of the rows before them, in order."""
    kept = []
    basis: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            pivot = cur.bit_length() - 1
            if pivot in basis:
                cur ^= basis[pivot]
            else:
                basis[pivot] = cur
                kept.append(row)
                break
    return kept


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


def _gray_blocks(rows: tuple[int, ...], lo: int = 0, hi: int | None = None):
    """Codeword weights, one block per Gray index h in [lo, hi) of the
    high rows (default: all of them).  Block h is the weights of a table
    of all 2^b combinations of the low b = min(LOW_ROWS, k) rows, XORed
    with the high rows that gray(h) selects; the first entry of block 0
    is the zero message."""
    b = min(LOW_ROWS, len(rows))
    low, high = rows[:b], rows[b:]
    table = [0]
    for i in range(1, 1 << b):
        table.append(table[-1] ^ low[(i & -i).bit_length() - 1])
    g = lo ^ (lo >> 1)
    cw = 0
    for j, row in enumerate(high):
        if (g >> j) & 1:
            cw ^= row
    for h in range(lo, 1 << len(high) if hi is None else hi):
        if h > lo:
            cw ^= high[(h & -h).bit_length() - 1]
        yield map(int.bit_count, map(xor, table, repeat(cw)))


def _min_weight(rows: tuple[int, ...], lo: int, hi: int, n: int = 0) -> int:
    """Least weight over blocks [lo, hi), skipping the zero message.
    With n > 0 the rows span a complement of {0, 1} in a length-n code
    holding 1, so each weight w also stands for n - w."""
    blocks = _gray_blocks(rows, lo, hi)
    if lo == 0:
        first = next(blocks)
        next(first)  # the zero message
        blocks = chain((first,), blocks)
    if not n:
        return min(chain.from_iterable(blocks))
    best = n  # the zero message's coset {0, 1}
    for ws in map(list, blocks):
        best = min(best, min(ws), n - max(ws))
    return best


def exact_min_distance(code: BinaryCode, workers: int = 1) -> int:
    """Minimum nonzero codeword weight by full enumeration, of the
    quotient by 1 when the code holds 1."""
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
        rows, fold = tuple(kept[1:]), n
        if not rows:
            return n  # the code is {0, 1}
    else:
        rows, fold = code.rows, 0
    blocks = 1 << max(len(rows) - LOW_ROWS, 0)
    # one span per CPU at most: the pool may fork all workers at once
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or len(rows) < 18:
        return _min_weight(rows, 0, blocks, fold)
    # imported here: the pool machinery is a large share of the package's import time
    from concurrent.futures import ProcessPoolExecutor

    chunk = -(-blocks // workers)
    spans = [(i, min(i + chunk, blocks)) for i in range(0, blocks, chunk)]
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        futs = [pool.submit(_min_weight, rows, lo, hi, fold) for lo, hi in spans]
        return min(f.result() for f in futs)


def sampled_min_distance_upper(code: BinaryCode, trials: int, seed: int) -> int:
    """Upper bound on the minimum distance from random nonzero messages."""
    if code.k == 0:
        raise BadParameters("the trivial code has no nonzero codeword")
    if trials < 1:
        raise BadParameters(f"need at least one trial, got {trials}")
    rng = random.Random(seed)
    top = 1 << code.k
    best = code.n + 1
    for _ in range(trials):
        w = code.encode(rng.randrange(1, top)).bit_count()
        if w < best:
            best = w
    return best


def weight_distribution(code: BinaryCode) -> list[int]:
    """Histogram over weights 0..n of all 2^k codewords.

    The walk is never folded by 1: a histogram with A[w] = A[n - w] for
    every w has A[n] = A[0] = 1, so 1 is in the code, and 1 in the code
    makes c -> c + 1 map weight w to n - w.  Symmetry is thus a real test
    of 1 in C only while both halves are counted."""
    if code.k > WEIGHT_DIST_BUDGET_LOG2:
        raise DimensionTooLarge(
            f"2**{code.k} codewords exceed the histogram budget"
            f" 2**{WEIGHT_DIST_BUDGET_LOG2}"
        )
    counts = Counter(chain.from_iterable(_gray_blocks(code.rows)))
    return [counts[w] for w in range(code.n + 1)]


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
