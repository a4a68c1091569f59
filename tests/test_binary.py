import concurrent.futures
import os
import random
from collections import Counter
from concurrent.futures import Future

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import naive_min_distance, naive_weight_hist
from shadowcodes import binary
from shadowcodes.binary import (
    LOW_ROWS,
    BinaryCode,
    _independent_rows,
    _lane_format,
    _min_weight,
    _unpack,
    _walsh_blocks,
    exact_min_distance,
    gf2_rank,
    random_linear_code,
    row_from_hex,
    row_to_hex,
    sampled_min_distance_upper,
    weight_distribution,
)
from shadowcodes.errors import BadParameters, DimensionTooLarge


def test_rank_hand_cases():
    assert gf2_rank([]) == 0
    assert gf2_rank([0]) == 0
    assert gf2_rank([0b11, 0b01]) == 2
    assert gf2_rank([0b11, 0b11]) == 1
    assert gf2_rank([0b110, 0b011, 0b101]) == 2  # third is sum of first two
    assert gf2_rank([1 << i for i in range(10)]) == 10


def test_init_rejects_dependent_rows():
    BinaryCode([0b11, 0b01], 2)
    with pytest.raises(BadParameters):
        BinaryCode([0b11, 0b11], 2)
    with pytest.raises(BadParameters):
        BinaryCode([0b110, 0b011, 0b101], 3)
    with pytest.raises(BadParameters):
        BinaryCode([0], 3)
    with pytest.raises(ValueError):
        BinaryCode([0b100], 2)  # bit outside length


def test_from_span_keeps_exactly_the_span():
    rows = [0b110, 0b011, 0b101, 0b000]
    code = BinaryCode.from_span(rows, 3)
    assert code.k == 2
    spanned = {code.encode(msg) for msg in range(1 << code.k)}
    naive = set()
    for msg in range(1 << len(rows)):
        cw = 0
        for j in range(len(rows)):
            if (msg >> j) & 1:
                cw ^= rows[j]
        naive.add(cw)
    assert spanned == naive


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=9))
def test_elimination_matches_span_enumeration(rows):
    # a row is kept exactly when it lies outside the span of the rows
    # before it; the span is grown by enumeration
    span, kept = {0}, []
    for row in rows:
        if row not in span:
            kept.append(row)
            span |= {s ^ row for s in span}
    assert gf2_rank(rows) == len(kept)
    code = BinaryCode.from_span(rows, 8)
    assert list(code.rows) == kept
    assert {code.encode(msg) for msg in range(1 << code.k)} == span


def _block_weights(rows, n, lo, hi):
    """Every weight the blocks [lo, hi) of _walsh_blocks hold, counted."""
    b = min(binary.LOW_ROWS, len(rows))
    code = _lane_format(n, b)[0]
    counts = Counter()
    for v in _walsh_blocks(rows, n, lo, hi):
        counts.update(n - lane // 2 for lane in _unpack(v, code, b))
    return counts


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 4),
    k=st.integers(1, 7),
    extra=st.integers(0, 30),
    seed=st.integers(0, 2**32),
)
def test_walsh_kernel_matches_naive_oracles(width, k, extra, seed):
    # a narrow low-row block puts k below, at and above its width, so
    # that codes small enough for the oracles still span many blocks
    code = random_linear_code(k + extra, k, seed)
    hist = naive_weight_hist(code.rows, code.n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binary, "LOW_ROWS", width)
        assert exact_min_distance(code) == naive_min_distance(code.rows, code.n)
        assert weight_distribution(code) == hist
        # two workers' spans, cut at any high Gray index, cover each message once
        blocks = 1 << max(k - width, 0)
        for cut in range(1, blocks):
            counts = _block_weights(code.rows, code.n, 0, cut)
            counts += _block_weights(code.rows, code.n, cut, blocks)
            assert [counts[w] for w in range(code.n + 1)] == hist


@settings(max_examples=2, deadline=None)
@given(n=st.integers(18, 40), seed=st.integers(0, 2**32))
def test_parallel_walk_matches_naive_oracle(n, seed):
    code = random_linear_code(n, 18, seed)
    assert exact_min_distance(code, workers=2) == naive_min_distance(code.rows, n)


def _ones_code(n: int, k: int, seed: int, ones: str) -> BinaryCode:
    """A random (n, k) code with the all-ones word as its first row, in
    its span with no row equal to it, or (for "absent") as drawn."""
    code = random_linear_code(n, k, seed)
    if ones == "absent":
        return code
    rows = _independent_rows(((1 << n) - 1,) + code.rows)[:k]
    if ones == "span" and k > 1:
        rows[0] ^= rows[1]
    return BinaryCode(rows, n)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 4),
    k=st.integers(1, 7),
    extra=st.integers(0, 20),
    seed=st.integers(0, 2**32),
    ones=st.sampled_from(["row", "span", "absent"]),
)
def test_quotient_walk_matches_naive_oracle(width, k, extra, seed, ones):
    # k - 1 walked rows fall below, at and above a narrow low-row block
    n = k + extra
    code = _ones_code(n, k, seed, ones)
    ones_word = (1 << n) - 1
    holds = ones_word in map(code.encode, range(1 << k))
    assume(holds == (ones != "absent"))
    assert (ones_word in code.rows) == (holds and (ones == "row" or k == 1))
    d = naive_min_distance(code.rows, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binary, "LOW_ROWS", width)
        assert exact_min_distance(code) == d
        # two folded spans, cut at any high Gray index, give the same minimum
        if holds and k > 1:
            rows = tuple(_independent_rows((ones_word,) + code.rows)[1:])
            blocks = 1 << max(k - 1 - width, 0)
            for cut in range(1, blocks):
                halves = _min_weight(rows, n, 0, cut, True), _min_weight(rows, n, cut, blocks, True)
                assert min(halves) == d


def test_minimum_found_after_block_zero(monkeypatch):
    """With two low rows, block 0 of this code weighs 6 at least, and its
    weight-1 word r0 + r2 lies in block 1, which only the lane threshold
    test can pick out."""
    n = 12
    rows = (0b0111_1111_1110, 0b1111_1100_0000, 0b0111_1111_1111)
    monkeypatch.setattr(binary, "LOW_ROWS", 2)
    assert _min_weight(rows, n, 0, 1) == 6
    assert exact_min_distance(BinaryCode(rows, n)) == naive_min_distance(rows, n) == 1


def test_folded_minimum_found_on_the_complement_side(monkeypatch):
    """With two low rows, block 0 of the walked rows gives 3 at least,
    folded or not.  Block 1 weighs 11, 8, 7 and 4, so no word there is
    lighter than 3, but r2 = 1 + e_0 of weight 11 stands for e_0 of
    weight 1, which only the threshold test on 2n - lane finds."""
    n, ones = 12, (1 << 12) - 1
    walked = (0b0000_0000_1110, 0b0000_1111_0000, ones ^ 1)
    monkeypatch.setattr(binary, "LOW_ROWS", 2)
    assert _min_weight(walked, n, 0, 1, True) == 3
    assert _min_weight(walked, n, 0, 2) == 3  # unfolded: e_0 is not in the span
    code = BinaryCode((ones,) + walked, n)
    assert exact_min_distance(code) == naive_min_distance(code.rows, n) == 1


@pytest.mark.parametrize("n, lane", [(16383, "H"), (16384, "I")])
def test_lane_width_edge(n, lane):
    """2n < 2^15 keeps 16-bit lanes with the guard bit free; n = 2^14 takes
    32-bit lanes.  Each code has words of weight 1 and n - 1, the zero
    message's lane 2n; the second holds 1, so its weight distribution
    reads lanes 0 and 2n in one block."""
    assert _lane_format(n, 3)[0] == lane
    ones = (1 << n) - 1
    for rows in [
        (1, ones ^ 1, random.Random(n).getrandbits(n)),
        (ones, ones ^ 1, ones ^ 0b110, random.Random(n + 1).getrandbits(n)),
    ]:
        code = BinaryCode.from_span(rows, n)
        assert exact_min_distance(code) == naive_min_distance(code.rows, n)
        assert weight_distribution(code) == naive_weight_hist(code.rows, n)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_the_code_of_zero_and_ones_has_distance_n(n):
    assert exact_min_distance(BinaryCode([(1 << n) - 1], n)) == n


def test_weight_distribution_is_not_folded():
    """A code without 1 has an asymmetric histogram, which a histogram
    folded by 1 could not show; with 1 added it turns symmetric."""
    assert weight_distribution(BinaryCode([0b011, 0b110], 3)) == [1, 0, 3, 0]
    assert weight_distribution(BinaryCode([0b011, 0b110, 0b111], 3)) == [1, 3, 3, 1]


def test_encode_is_xor_of_selected_rows():
    code = BinaryCode([0b0011, 0b0101, 0b1001], 4)
    assert code.encode(0) == 0
    assert code.encode(0b001) == 0b0011
    assert code.encode(0b110) == 0b0101 ^ 0b1001
    assert code.encode(0b111) == 0b0011 ^ 0b0101 ^ 0b1001


def test_first_order_reed_muller_m2_frozen():
    # Rows: all-ones plus the two coordinate parities on 4 points.
    rows = [0b1111, 0b1010, 0b1100]
    code = BinaryCode(rows, 4)
    assert exact_min_distance(code) == 2
    hist = weight_distribution(code)
    assert hist == [1, 0, 6, 0, 1]


def test_exact_min_distance_matches_naive_oracle():
    for seed in range(8):
        code = random_linear_code(14, 6, seed)
        assert exact_min_distance(code) == naive_min_distance(code.rows, 14)


def test_weight_distribution_matches_naive_oracle():
    assert weight_distribution(BinaryCode([], 5)) == [1, 0, 0, 0, 0, 0]
    for seed in (3, 11):
        code = random_linear_code(12, 5, seed)
        hist = weight_distribution(code)
        assert hist == naive_weight_hist(code.rows, 12)
        assert sum(hist) == 1 << code.k
        assert hist[0] == 1


def test_sampled_upper_bound_dominates_exact():
    code = random_linear_code(20, 3, 99)
    exact = exact_min_distance(code)
    sampled = sampled_min_distance_upper(code, trials=500, seed=1)
    assert sampled >= exact
    # 500 draws over 7 nonzero messages find the minimum with certainty
    # for practical purposes; frozen here as a determinism check.
    assert sampled == exact


def test_sampled_is_deterministic_in_seed():
    code = random_linear_code(24, 8, 5)
    a = sampled_min_distance_upper(code, trials=50, seed=7)
    b = sampled_min_distance_upper(code, trials=50, seed=7)
    c = sampled_min_distance_upper(code, trials=50, seed=8)
    assert a == b
    assert c >= exact_min_distance(code)


def test_sampled_needs_a_trial():
    code = random_linear_code(20, 3, 99)
    for trials in (0, -5):
        with pytest.raises(BadParameters):
            sampled_min_distance_upper(code, trials=trials, seed=1)
    trivial = BinaryCode([], 20)
    with pytest.raises(BadParameters):
        sampled_min_distance_upper(trivial, trials=1, seed=1)
    with pytest.raises(BadParameters):
        exact_min_distance(trivial)


def test_random_code_deterministic_and_full_rank():
    a = random_linear_code(16, 7, 42)
    b = random_linear_code(16, 7, 42)
    assert a.rows == b.rows
    assert a.k == 7
    assert gf2_rank(a.rows) == 7
    assert random_linear_code(16, 7, 43).rows != a.rows


def test_dimension_budget_enforced():
    rows = [1 << i for i in range(29)]
    code = BinaryCode(rows, 29)
    with pytest.raises(DimensionTooLarge):
        exact_min_distance(code)
    rows25 = [1 << i for i in range(25)]
    with pytest.raises(DimensionTooLarge):
        weight_distribution(BinaryCode(rows25, 25))


def test_parallel_walk_agrees_with_serial():
    code = random_linear_code(24, 18, 2)
    assert exact_min_distance(code, workers=2) == exact_min_distance(code)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: runs each task at submit."""

    sizes: list[int] = []
    submits: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submits.append(1)
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def _assert_pool_capped(monkeypatch, cpus, code):
    """code walks 18 rows, cut into spans of its 2^(18 - LOW_ROWS) blocks."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
    monkeypatch.setattr(_InlineExecutor, "sizes", [])
    monkeypatch.setattr(_InlineExecutor, "submits", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    blocks = 1 << (18 - LOW_ROWS)
    full = _min_weight(code.rows, code.n, 0, 1 << (code.k - LOW_ROWS))
    assert exact_min_distance(code, workers=10**6) == full
    if (cpus or 1) == 1:
        assert _InlineExecutor.sizes == [] and _InlineExecutor.submits == []
    else:
        assert _InlineExecutor.sizes == [min(blocks, cpus)]
        assert len(_InlineExecutor.submits) == min(blocks, cpus)


@pytest.mark.parametrize("cpus", [None, 1, 2, 10**4])
def test_worker_pool_is_capped_by_spans_and_cpus(monkeypatch, cpus):
    """workers=10**6 gets one span per CPU and one process per span;
    a host with one CPU (or an unknown count) takes the serial scan."""
    code = random_linear_code(40, 18, 5)
    assert gf2_rank(((1 << 40) - 1,) + code.rows) == 19  # 1 is not in the code
    _assert_pool_capped(monkeypatch, cpus, code)


@pytest.mark.parametrize("cpus", [None, 1, 2, 10**4])
def test_folded_worker_pool_splits_the_quotient(monkeypatch, cpus):
    """A dimension-19 code holding 1 walks 18 rows, so its spans are cut
    from 2^(18 - LOW_ROWS) blocks and still run in parallel.  Its rows 1
    and 1 + e_0 put the weight-1 word e_0 outside the walked complement,
    so only a span that folds finds it."""
    ones = (1 << 40) - 1
    code = BinaryCode((ones, ones ^ 1) + random_linear_code(40, 17, 5).rows, 40)
    _assert_pool_capped(monkeypatch, cpus, code)
    # at dimension 18 the 17 walked rows fall below the cut-off: serial
    code = BinaryCode((ones,) + random_linear_code(40, 17, 5).rows, 40)
    submits = len(_InlineExecutor.submits)
    full = _min_weight(code.rows, 40, 0, 1 << (18 - LOW_ROWS))
    assert exact_min_distance(code, workers=10**6) == full
    assert len(_InlineExecutor.submits) == submits


def test_hex_round_trip():
    rng = random.Random(0)
    for n in (1, 4, 5, 16, 37):
        for _ in range(20):
            row = rng.randrange(1 << n)
            text = row_to_hex(row, n)
            assert len(text) == (n + 3) // 4
            assert row_from_hex(text) == row
    assert row_to_hex(0, 8) == "00"
    assert row_from_hex("ff") == 255
