import random
from array import array
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import naive_min_distance, naive_span, naive_weight_hist, popcount_min_distance
from shadowcodes import binary
from shadowcodes.binary import (
    LOW_ROWS,
    PIECE_BYTES,
    BinaryCode,
    _echelon,
    _holds_reversal,
    _independent_rows,
    _lane_format,
    _min_weight,
    _reverse,
    _skew,
    _stage_masks,
    _unpack,
    _walk_parts,
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
from shadowcodes.field import field_of_order
from shadowcodes.shadow import construct_deg1, construct_deg1_nk


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


@st.composite
def _row_lists(draw):
    """Random rows plus zero rows, repeats and sums of earlier rows, shuffled."""
    rows = draw(st.lists(st.integers(1, 2**10 - 1), max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        rows.append(naive_span(rows)[draw(st.integers(0, 2 ** len(rows) - 1))])
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(_row_lists())
def test_elimination_matches_span_enumeration(rows):
    # a row is kept exactly when it lies outside the span of the rows
    # before it; the spans are enumerated
    span, kept = set(naive_span(rows)), []
    for row in rows:
        if row not in naive_span(kept):
            kept.append(row)
    assert gf2_rank(rows) == len(kept)
    code = BinaryCode.from_span(rows, 10)
    assert list(code.rows) == kept
    assert {code.encode(msg) for msg in range(1 << code.k)} == span
    # _echelon keeps the same rows; each pivot is its reduced row's top
    # bit, so no two reduced rows share one, and they span the rows
    basis = _echelon(rows)
    assert [row for row, _ in basis.values()] == kept
    reduced = [v for _, v in basis.values()]
    assert [v.bit_length() - 1 for v in reduced] == list(basis)
    assert set(naive_span(reduced)) == span


def _block_weights(rows, n, lo, hi):
    """Every weight the pieces of the blocks [lo, hi) of _walsh_blocks
    hold, counted, but for lane 0 of piece 0 of block 0: the zero
    message's lane, which the scan never reads."""
    code, _, _, _, p = _lane_format(n, len(rows))
    counts = Counter()
    for h, pieces in enumerate(_walsh_blocks(rows, n, lo, hi), lo):
        for i, v in enumerate(pieces):
            lanes = _unpack(v, code, p)
            if not (h or i):
                del lanes[0]
            counts.update(n - lane // 2 for lane in lanes)
    return counts


def _spy_histograms(monkeypatch) -> list[int]:
    """The lane count of each signed histogram _walsh_blocks builds, one
    per group, in order."""
    built, signed = [], binary._signed_histogram

    def spy(base, pats, cw, n):
        built.append(len(base))
        return signed(base, pats, cw, n)

    monkeypatch.setattr(binary, "_signed_histogram", spy)
    return built


def test_grouped_blocks_match_one_block_walks(monkeypatch):
    """The last orbit part of the scan workload's (1000, 20) code, 18
    rows at the module's LOW_ROWS and PIECE_BYTES, walks blocks [8, 16)
    in two groups of four: each folds the two lowest of the 4 high rows,
    b + w = 16, and takes the skew off its own piece 0.  Block by block,
    its pieces are those of the one-block walks [h, h + 1), which no
    group spans, each transforming a histogram of its own."""
    n = 1000
    part, lo, hi = _walk_parts(_quotient_rows(construct_deg1_nk(n, 20).generator()), n, True)[-1]
    assert (len(part), lo, hi) == (18, 8, 16)
    built = _spy_histograms(monkeypatch)
    grouped = list(_walsh_blocks(part, n, lo, hi))
    assert built == [1 << 16] * 2
    built.clear()
    alone = [pieces for h in range(lo, hi) for pieces in _walsh_blocks(part, n, h, h + 1)]
    assert built == [1 << LOW_ROWS] * 8
    assert [len(pieces) for pieces in grouped] == [8] * 8
    assert grouped == alone


@pytest.mark.parametrize("width, fold", [(15, 1), (16, 0)])
def test_groups_fold_high_rows_up_to_the_16_row_lane(monkeypatch, width, fold):
    """An unfolded walk of 18 rows at LOW_ROWS = 15 folds one of its 3
    high rows into each group, and at 16 none of its 2, though the span
    [0, 2^(18 - b)) would align more: b + w <= 16, each group 2^16
    lanes.  The distance matches a popcount walk."""
    code = random_linear_code(100, 18, 5)
    assert len(_independent_rows(((1 << 100) - 1,) + code.rows)) > code.k  # 1 is not in it
    monkeypatch.setattr(binary, "LOW_ROWS", width)
    built = _spy_histograms(monkeypatch)
    assert exact_min_distance(code) == popcount_min_distance(code.rows)
    assert built == [1 << 16] * (1 << (18 - width - fold))


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 4),
    piece=st.integers(0, 4),
    k=st.integers(1, 7),
    extra=st.integers(0, 63),
    seed=st.integers(0, 2**32),
)
def test_walsh_kernel_matches_naive_oracles(width, piece, k, extra, seed):
    # a narrow low-row block puts k below, at and above its width, so
    # that codes small enough for the oracles still span many blocks,
    # and pieces of 1 to 2^width lanes run 0 to width top stages; n up
    # to 70 crosses the 8-bit lane edge at n = 64 and 65
    _check_kernel(random_linear_code(k + extra, k, seed), width, piece)


def _piece_bytes(n: int, piece: int) -> int:
    """The PIECE_BYTES that makes pieces of 2^piece lanes at length n."""
    return (_lane_format(n, 0)[1] // 8) << piece


def _check_kernel(code: BinaryCode, width: int, piece: int) -> None:
    """exact_min_distance and the blocks of the whole walk and of every
    two-span cut against the naive oracles, at LOW_ROWS = width and
    pieces of 2^min(piece, width) lanes."""
    hist = naive_weight_hist(code.rows, code.n)
    hist[0] = 0  # the zero message's lane is never read
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binary, "LOW_ROWS", width)
        mp.setattr(binary, "PIECE_BYTES", _piece_bytes(code.n, piece))
        assert exact_min_distance(code) == naive_min_distance(code.rows, code.n)
        # the whole walk [0, blocks) at cut = 0, and two spans [0, cut)
        # and [cut, blocks), cut at any block, cover each message once,
        # as the orbit parts' ranges must
        blocks = 1 << max(code.k - width, 0)
        for cut in range(blocks):
            counts = _block_weights(code.rows, code.n, 0, cut)
            counts += _block_weights(code.rows, code.n, cut, blocks)
            assert [counts[w] for w in range(code.n + 1)] == hist


def _repeated_columns(k: int, copies: dict[int, int], seed: int) -> BinaryCode:
    """The code whose columns are the k unit columns, which give it rank
    k, and copies[p] copies of each column pattern p, shuffled."""
    columns = [1 << i for i in range(k)]
    for pattern, count in copies.items():
        columns += [pattern] * count
    random.Random(seed).shuffle(columns)
    rows = [sum((col >> i & 1) << j for j, col in enumerate(columns)) for i in range(k)]
    return BinaryCode(rows, len(columns))


@st.composite
def _heavy_column_codes(draw):
    """Codes whose low-row patterns repeat past 127 and 255 times: a few
    column patterns, the all-zero one among them, copied 130-300 times."""
    k = draw(st.integers(1, 7))
    patterns = draw(st.sets(st.integers(1, 2**k - 1), max_size=3)) | {0}
    copies = {p: draw(st.integers(130, 300)) for p in patterns}
    return _repeated_columns(k, copies, draw(st.integers(0, 2**32)))


# k = 3 with every pattern copied 2100 times: n >= 2^14, so 32-bit lanes
_WIDE_CODE = _repeated_columns(3, dict.fromkeys(range(8), 2100), 0)


@settings(max_examples=30, deadline=None)
@given(width=st.integers(1, 4), piece=st.integers(0, 4), code=_heavy_column_codes())
@example(width=2, piece=1, code=_WIDE_CODE)
def test_walsh_kernel_on_heavily_repeated_columns(width, piece, code):
    """A lane's count can pass the byte range and the guard bias must
    keep every lane positive; each hit takes 2 off a lane whose pattern
    the high codeword selects, as many times as its columns repeat."""
    _check_kernel(code, width, piece)


def test_wide_code_takes_32_bit_lanes():
    n = _WIDE_CODE.n
    assert n > 1 << 14 and _lane_format(n, 2)[0] == "I"


@settings(max_examples=2, deadline=None)
@given(n=st.integers(18, 40), seed=st.integers(0, 2**32))
def test_16_block_walk_matches_popcount_oracle(n, seed):
    """The module's own LOW_ROWS, not a narrow test width, with 18 rows
    walked in 16 blocks.  The popcount oracle weighs 2^18 messages in
    about 0.03 s, under hypothesis's line tracer too, which keeps a red
    run short."""
    assert 1 << (18 - LOW_ROWS) == 16
    code = random_linear_code(n, 18, seed)
    assert exact_min_distance(code) == popcount_min_distance(code.rows)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 10), extra=st.integers(0, 30), seed=st.integers(0, 2**32))
@example(k=1, extra=0, seed=0)
def test_popcount_oracle_matches_naive_oracle(k, extra, seed):
    """The two oracles stay independent: the Gray-walk popcount oracle
    against per-message encoding, on codes small enough for the latter."""
    code = random_linear_code(k + extra, k, seed)
    assert popcount_min_distance(code.rows) == naive_min_distance(code.rows, code.n)


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
    piece=st.integers(0, 4),
    k=st.integers(1, 7),
    extra=st.integers(0, 63),
    seed=st.integers(0, 2**32),
    ones=st.sampled_from(["row", "span", "absent"]),
)
def test_quotient_walk_matches_naive_oracle(width, piece, k, extra, seed, ones):
    # k - 1 walked rows fall below, at and above a narrow low-row block,
    # and n up to 70 crosses the scan's 8-bit lane edge at n = 64
    n = k + extra
    code = _ones_code(n, k, seed, ones)
    ones_word = (1 << n) - 1
    holds = ones_word in map(code.encode, range(1 << k))
    assume(holds == (ones != "absent"))
    assert (ones_word in code.rows) == (holds and (ones == "row" or k == 1))
    d = naive_min_distance(code.rows, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binary, "LOW_ROWS", width)
        mp.setattr(binary, "PIECE_BYTES", _piece_bytes(n, piece))
        assert exact_min_distance(code) == d
        # two folded spans [0, cut) and [cut, blocks), cut at any block,
        # give the same minimum
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


def test_min_weight_keeps_a_lower_starting_bound(monkeypatch):
    """A caller's best below every walked weight comes back unchanged, and
    one above the minimum is beaten by it, folded or not."""
    monkeypatch.setattr(binary, "LOW_ROWS", 2)
    code = random_linear_code(16, 6, 3)
    d = naive_min_distance(code.rows, 16)
    assert _min_weight(code.rows, 16, 0, 16) == d
    for best in range(d + 1):
        assert _min_weight(code.rows, 16, 0, 16, best=best) == best
    assert _min_weight(code.rows, 16, 0, 16, best=d + 3) == d
    folded = _ones_code(16, 6, 3, "row")
    rows = folded.rows[1:]
    d = naive_min_distance(folded.rows, 16)
    assert _min_weight(rows, 16, 0, 8, True) == d
    for best in range(d + 1):
        assert _min_weight(rows, 16, 0, 8, True, best) == best


def _canon(word: int, n: int) -> int:
    """The word of {word, word + 1} with bit 0 clear."""
    return word ^ ((1 << n) - 1) if word & 1 else word


def _quotient_rows(code: BinaryCode) -> tuple[int, ...]:
    """The rows exact_min_distance walks for a code holding 1."""
    kept = _independent_rows(((1 << code.n) - 1,) + code.rows)
    assert len(kept) == code.k
    return tuple(kept[1:])


def _covers_every_orbit(rows, n, parts) -> bool:
    """Each walked message is a nonzero coset of the quotient spanned by
    rows, and each nonzero coset is walked or is the reversal of one
    that is.  Block h of a part adds the high rows that the bits of h
    select to each low message; the zero message of block 0 is not
    walked."""
    walked = set()
    for part, lo, hi in parts:
        b = min(binary.LOW_ROWS, len(part))
        low, high = naive_span(part[:b]), naive_span(part[b:])
        for h in range(lo, hi):
            walked.update(_canon(high[h] ^ word, n) for word in low[h == 0 :])
    cosets = {_canon(word, n) for word in naive_span(rows)} - {0}
    return walked <= cosets and all(c in walked or _canon(_reverse(c, n), n) in walked for c in cosets)


def _mirrored_code(n: int, pairs: int, palindromes: int, seed: int) -> BinaryCode:
    """The span of 1, random words, their reversals and palindromes."""
    rng = random.Random(seed)
    xs = [rng.getrandbits(n) for _ in range(pairs)]
    pals = [x | _reverse(x, n) for x in (rng.getrandbits(n) for _ in range(palindromes))]
    return BinaryCode.from_span([(1 << n) - 1, *xs, *(_reverse(x, n) for x in xs), *pals], n)


# prime q with E = range(n): q = 5, 13, 17, 29, 37, 41 are 1 mod 4, the rest 3
_DEG1_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@st.composite
def _reversal_invariant_codes(draw):
    if draw(st.booleans()):
        q = draw(st.sampled_from(_DEG1_PRIMES))
        k = draw(st.integers(2, min(q, 8)))
        return construct_deg1_nk(q - k + 1, k).generator()
    return _mirrored_code(
        draw(st.integers(2, 18)), draw(st.integers(0, 4)), draw(st.integers(0, 3)),
        draw(st.integers(0, 2**32)),
    )


def _unpacked_pairs(rows, n: int) -> list[tuple[int, int]]:
    """The (f, e) that _walk_parts unpacks from its elimination of the
    packed words N(x) << n | x, read off a spy on _echelon: a reduced
    word with its pivot at bit n or above is a pair, one below it a
    kernel row e with f = 0."""
    calls = []

    def spy(words):
        words = list(words)
        calls.append((words, _echelon(words)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binary, "_echelon", spy)
        _walk_parts(rows, n, True)
    ones = (1 << n) - 1
    # the first elimination of words whose low n bits are the rows' cosets
    basis = next(b for w, b in calls if [v & ones for v in w] == [_canon(x, n) for x in rows])
    assert len(basis) == len(rows)
    return [(v >> n, v & ones) if pivot >= n else (0, v) for pivot, (_, v) in basis.items()]


@settings(max_examples=80, deadline=None)
@given(width=st.integers(1, 3), piece=st.integers(0, 3), code=_reversal_invariant_codes())
def test_orbit_walk_matches_naive_oracle(width, piece, code):
    # the code holds the reversal of each word: checked on its span
    span = set(naive_span(code.rows))
    assert {_reverse(word, code.n) for word in span} == span
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binary, "LOW_ROWS", width)
        mp.setattr(binary, "PIECE_BYTES", _piece_bytes(code.n, piece))
        assert exact_min_distance(code) == naive_min_distance(code.rows, code.n)
        if code.k > 1:
            rows = _quotient_rows(code)
            assert _holds_reversal(rows, code.n)
            assert _covers_every_orbit(rows, code.n, _walk_parts(rows, code.n, True))
            for f, e in _unpacked_pairs(rows, code.n):
                assert _canon(e ^ _reverse(e, code.n), code.n) == f


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), k=st.integers(2, 5), seed=st.integers(0, 2**32))
def test_reversal_test_matches_the_span(n, k, seed):
    code = _ones_code(n, min(k, n), seed, "row")
    span = set(naive_span(code.rows))
    closed = {_reverse(word, n) for word in span} == span
    assert _holds_reversal(_quotient_rows(code), n) == closed


def _rank_roster() -> list[BinaryCode]:
    """Codes holding 1 and their reversal, whose map N = M + I on the
    quotient by 1 has rank r = 0 to 4."""
    codes = [_mirrored_code(n, pairs, pals, seed)
             for n, pairs, pals, seed in [(12, 0, 3, 1), (12, 1, 1, 2), (14, 2, 0, 3),
                                          (16, 1, 3, 7), (16, 2, 2, 4), (18, 3, 1, 5),
                                          (18, 4, 0, 6)]]
    # q = 13, 17, 19, 23
    return codes + [construct_deg1_nk(n, k).generator() for n, k in [(9, 5), (12, 6), (13, 7), (16, 8)]]


def test_walk_parts_unpack_pairs_and_kernel_rows():
    """_walk_parts eliminates the packed words N(x) << n | x: each reduced
    word with its pivot at bit n or above unpacks to a pair with
    N(e) = f, and each one below it is a kernel row g with N(g) = 0."""
    pairs = 0
    for code in _rank_roster():
        n = code.n
        for f, e in _unpacked_pairs(_quotient_rows(code), n):
            assert _canon(e ^ _reverse(e, n), n) == f
            pairs += f != 0
    assert pairs


def test_orbit_parts_cover_the_quotient_and_each_is_needed(monkeypatch):
    """On the codes of _rank_roster the parts meet every orbit and walk
    fewer blocks than the plain walk, or are the plain walk, and each of
    r = 0 to 4 occurs.  Dropping any part, or walking the half of a
    part's blocks without its last high row, misses an orbit."""
    monkeypatch.setattr(binary, "LOW_ROWS", 2)
    ranks, taken, no_high = set(), set(), 0
    for code in _rank_roster():
        n, rows = code.n, _quotient_rows(code)
        r = gf2_rank([_canon(row ^ _reverse(row, n), n) for row in rows])
        ranks.add(r)
        parts = _walk_parts(rows, n, True)
        plain = [(rows, 0, 1 << max(len(rows) - 2, 0))]
        assert _covers_every_orbit(rows, n, parts)
        if parts == plain:  # r = 0, or too few blocks to save one
            continue
        taken.add(r)
        assert sum(hi - lo for _, lo, hi in parts) < plain[0][2]
        no_high += sum(lo == 0 for _, lo, _ in parts[1:])
        for i in range(len(parts)):
            assert not _covers_every_orbit(rows, n, parts[:i] + parts[i + 1 :])
            part, lo, hi = parts[i]
            if lo:
                assert not _covers_every_orbit(rows, n, [*parts[:i], (part, 0, lo), *parts[i + 1 :]])
    assert (ranks, taken) == ({0, 1, 2, 3, 4}, {1, 2, 3, 4})
    assert no_high  # a part whose rows all fit in its one block


@pytest.mark.parametrize("code", [
    construct_deg1(field_of_order(25), 21).generator(),
    construct_deg1(field_of_order(121), 113).generator(),
    BinaryCode.from_span([(1 << 12) - 1, 0b1, 0b110, 0b111000, 0b1011_0100_0000], 12),
], ids=["gf25_e21", "gf121_e113", "random"])
def test_code_without_its_reversal_keeps_the_folded_walk(monkeypatch, code):
    monkeypatch.setattr(binary, "LOW_ROWS", 2)
    span = set(naive_span(code.rows))
    assert {_reverse(word, code.n) for word in span} != span
    rows = _quotient_rows(code)
    assert not _holds_reversal(rows, code.n)
    assert _walk_parts(rows, code.n, True) == [(rows, 0, 1 << (len(rows) - 2))]
    assert exact_min_distance(code) == naive_min_distance(code.rows, code.n)


def test_lane_format_lays_out_the_low_rows_of_a_block():
    """b = min(LOW_ROWS, k) rows span a block of 2^b lanes, in pieces of
    2^p lanes, p = min(b, log2(PIECE_BYTES / itemsize)), one 1 each: a
    piece of 8-, 16- and 32-bit lanes holds at most 2^12, 2^11 and 2^10."""
    for n, lane, most in [(64, "B", 12), (65, "H", 11), ((1 << 14) + 1, "I", 10)]:
        for k in (1, most, most + 1, LOW_ROWS, LOW_ROWS + 3):
            code, bits, ones, b, p = _lane_format(n, k)
            assert code == lane and bits == 8 * array(lane).itemsize
            assert b == min(LOW_ROWS, k) and p == min(most, b)
            assert ones.bit_count() == 1 << p and bits << p <= 8 * PIECE_BYTES


def _joined_blocks(rows, n: int, lo: int = 0, hi: int | None = None) -> list[int]:
    """Each block of _walsh_blocks(rows, n, lo, hi) as one int: its pieces
    joined in order.  hi defaults to the end of the walk."""
    _, bits, _, b, p = _lane_format(n, len(rows))
    blocks = _walsh_blocks(rows, n, lo, 1 << (len(rows) - b) if hi is None else hi)
    return [sum(v << (i * bits << p) for i, v in enumerate(pieces)) for pieces in blocks]


def test_pieces_join_to_the_one_int_block(monkeypatch):
    """Piece i of a block holds lanes i 2^p .. (i + 1) 2^p - 1: the pieces
    joined in order are the transform a single piece of the whole block
    gives, at the module's constants on 8- and 16-bit lanes and at every
    narrower piece."""
    for n, count in [(64, 4), (90, 8)]:
        code = random_linear_code(n, LOW_ROWS + 1, 4)
        pieces = [len(p) for p in _walsh_blocks(code.rows, n, 0, 2)]
        assert pieces == [count] * 2
        joined = _joined_blocks(code.rows, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(binary, "PIECE_BYTES", 4 << LOW_ROWS)  # one piece a block
            assert _joined_blocks(code.rows, n) == joined
    monkeypatch.setattr(binary, "LOW_ROWS", 4)
    code = random_linear_code(40, 6, 9)
    whole = _joined_blocks(code.rows, code.n)
    for piece in range(4):
        monkeypatch.setattr(binary, "PIECE_BYTES", _piece_bytes(code.n, piece))
        assert _joined_blocks(code.rows, code.n) == whole


def _check_block_lanes(rows, n: int, lo: int, hi: int) -> None:
    """Lane u of each block h in [lo, hi), its pieces joined, holds
    2(n - w) modulo 2^(bits - 1), w the weight of low message u plus the
    high rows that the bits of h select, for every lane but the zero
    message's.  Both spans are subset sums, word u selecting by bit."""
    code, bits, _, b, _ = _lane_format(n, len(rows))
    low, high = naive_span(rows[:b]), naive_span(rows[b:])
    blocks = _joined_blocks(rows, n, lo, hi)
    assert len(blocks) == hi - lo
    for h, block in enumerate(blocks, lo):
        want = [2 * (n - (word ^ high[h]).bit_count()) % (1 << (bits - 1)) for word in low]
        assert _unpack(block, code, b).tolist()[h == 0 :] == want[h == 0 :], h


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 4),
    piece=st.integers(0, 4),
    k=st.integers(1, 8),
    extra=st.integers(0, 63),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_each_block_holds_the_high_rows_its_index_selects(width, piece, k, extra, seed, data):
    """Block h adds the high rows that the bits of h select, walked from
    any lo: a span [lo, hi) of the blocks, lo > 0 whenever there are two,
    at narrow low-row widths and pieces of 1 to 2^width lanes.  The
    kernel tests weigh the union of two spans [0, cut) and
    [cut, blocks), which any order of the blocks keeps, so they cannot
    see which block holds which high codeword."""
    code = random_linear_code(k + extra, k, seed)
    blocks = 1 << max(k - width, 0)
    lo = data.draw(st.integers(min(1, blocks - 1), blocks - 1), label="lo")
    hi = data.draw(st.integers(lo + 1, blocks), label="hi")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binary, "LOW_ROWS", width)
        mp.setattr(binary, "PIECE_BYTES", _piece_bytes(code.n, piece))
        _check_block_lanes(code.rows, code.n, lo, hi)


def test_blocks_hold_their_high_rows_at_every_piece_size():
    """The same without draws, on 8- and 16-bit lanes: blocks 1 to 7 of 8
    at every narrow width and piece size, and at the module's LOW_ROWS
    and PIECE_BYTES blocks 3 to 6 of 8, whose indices select two high
    rows or one, and the whole walk of a code with one high row."""
    for n, lane in [(40, "B"), (70, "H")]:
        for width in range(1, 5):
            code = random_linear_code(n, width + 3, width)
            for piece in range(width + 1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(binary, "LOW_ROWS", width)
                    mp.setattr(binary, "PIECE_BYTES", _piece_bytes(n, piece))
                    assert _lane_format(n, code.k)[0] == lane
                    _check_block_lanes(code.rows, n, 1, 8)
    for n, lane in [(64, "B"), (90, "H")]:
        code = random_linear_code(n, LOW_ROWS + 3, n)
        assert _lane_format(n, code.k)[0] == lane
        _check_block_lanes(code.rows, n, 3, 7)
        _check_block_lanes(code.rows[:-2], n, 0, 2)


@pytest.mark.parametrize("n, lane", [(64, "B"), (65, "H"), ((1 << 14) + 1, "I")])
def test_skew_is_the_closed_form(n, lane):
    """The a + ~b rule leaves -2^(b - 1 - hb(u)) modulo 2^(bits - 1) on
    lane u != 0 of piece 0, hb(u) the top set bit of u, and 0 on lane
    0: at each lane width, for blocks of 2^1 .. 2^5 lanes in pieces of
    every size, 0 to b top stages, and at the module's own constants,
    where 2^(b - 1 - hb(u)) passes the 8-bit lanes' 2^7."""
    shapes = [(width, piece) for width in range(1, 6) for piece in range(width + 1)]
    for width, piece in shapes + [(LOW_ROWS, None)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(binary, "LOW_ROWS", width)
            if piece is not None:
                mp.setattr(binary, "PIECE_BYTES", _piece_bytes(n, piece))
            code, bits, ones, b, p = _lane_format(n, width)
        assert code == lane and b == width
        values = (ones << (bits - 1)) - ones
        skew = _skew(_stage_masks(bits, p, values), values, b - p)
        want = [-(1 << (b - u.bit_length())) % (1 << (bits - 1)) for u in range(1, 1 << p)]
        assert list(_unpack(skew, code, p)) == [0] + want, (width, piece)


def test_scan_on_32_bit_lanes_at_the_module_constants():
    """The deg1 (16397, 15) code over GF(16411) folds to 14 rows on
    32-bit lanes: one block of 16 pieces of 2^10 lanes, joined by 4 top
    stages, the most doublings of the skew any lane width takes at the
    module's constants.  Its distance matches a popcount walk."""
    code = construct_deg1_nk(16397, 15).generator()
    n, rows = code.n, _quotient_rows(code)
    lane, _, _, b, p = _lane_format(n, len(rows))
    assert (lane, len(rows), b, p) == ("I", LOW_ROWS, LOW_ROWS, 10)
    assert [len(pieces) for pieces in _walsh_blocks(rows, n, 0, 1)] == [16]
    assert exact_min_distance(code) == popcount_min_distance(code.rows) == 7959


def test_lightest_word_on_lane_0_of_a_later_piece():
    """The last of p + 1 rows alone is message 2^p, lane 0 of piece 1 of
    block 0, and the one word of weight 1: the other rows have even
    weight off column 0, so every other nonzero word weighs 2 or more.
    A scan that skips lane 0 of every piece, not only of piece 0, misses
    it.  p is the scan's piece at n = 41, 2^12 8-bit lanes."""
    n, rng = 41, random.Random(3)
    p = _lane_format(n, LOW_ROWS)[4]
    assert p == 12
    rows = []
    while len(rows) < p:
        row = rng.getrandbits(n - 1) << 1
        row ^= (row.bit_count() & 1) << 1
        if gf2_rank(rows + [row]) > len(rows):
            rows.append(row)
    rows.append(1)
    assert _lane_format(n, len(rows))[3:] == (p + 1, p)
    assert _min_weight(tuple(rows), n, 0, 1) == 1
    assert _min_weight(tuple(rows[:-1]), n, 0, 1) == naive_min_distance(rows[:-1], n) >= 2
    assert exact_min_distance(BinaryCode(rows, n)) == 1


@pytest.mark.parametrize("n, scan, after", [
    (63, "B", "B"), (64, "B", "H"), (65, "H", "H"),
    (16383, "H", "H"), (16384, "H", "I"), (16385, "I", "I"),
])
def test_lane_width_edge(monkeypatch, n, scan, after):
    """The scan takes the narrowest lane whose value bits hold the
    largest lane it reads, 2n - 2, since it never reads the zero
    message's 2n; after is the lane at length n + 1, which 2n needs.
    Each code has words of weight 1 and n - 1, lanes 2n - 2 and 2; the
    second holds 1, so the scan walks it folded.  A spy on _lane_format
    sees the scan take its lane."""
    assert _lane_format(n, 3)[0] == scan and _lane_format(n + 1, 3)[0] == after
    taken = []

    def spy(n, k):
        fmt = _lane_format(n, k)
        taken.append(fmt[0])
        return fmt

    monkeypatch.setattr(binary, "_lane_format", spy)
    ones = (1 << n) - 1
    for rows in [
        (1, ones ^ 1, random.Random(n).getrandbits(n)),
        (ones, ones ^ 1, ones ^ 0b110, random.Random(n + 1).getrandbits(n)),
    ]:
        code = BinaryCode.from_span(rows, n)
        taken.clear()
        assert exact_min_distance(code) == naive_min_distance(code.rows, n)
        assert set(taken) == {scan}


def test_base_histogram_fills_a_byte_lane():
    """Histogram lane 0 starts highest, at 2^7 + count(0) + n on 8-bit
    lanes, count(0) counting the columns of low-row pattern 0.  A lone
    row of weight 1 leaves count(0) = n - 1, so the scan at n = 64 starts
    it at 128 + 63 + 64 = 255, which fits the byte.  The scan and the
    weight distributions at n = 63 and 64 match their oracles."""
    assert _lane_format(64, 1)[0] == "B"
    code = BinaryCode([1], 64)
    assert exact_min_distance(code) == naive_min_distance(code.rows, 64) == 1
    for n in (63, 64):
        for code in (BinaryCode([1], n), BinaryCode([], n)):
            assert weight_distribution(code) == naive_weight_hist(code.rows, n)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_the_code_of_zero_and_ones_has_distance_n(n):
    assert exact_min_distance(BinaryCode([(1 << n) - 1], n)) == n


def test_weight_distribution_is_not_folded():
    """A code without 1 has an asymmetric histogram, which a histogram
    folded by 1 could not show; with 1 added it turns symmetric."""
    assert weight_distribution(BinaryCode([0b011, 0b110], 3)) == [1, 0, 3, 0]
    assert weight_distribution(BinaryCode([0b011, 0b110, 0b111], 3)) == [1, 3, 3, 1]


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 8),
    extra=st.integers(0, 20),
    seed=st.integers(0, 2**32),
    holds=st.booleans(),
)
def test_histogram_is_symmetric_exactly_when_the_code_holds_ones(k, extra, seed, holds):
    """The premise of verify theorem4's complement_symmetry check: the
    histogram reads the same backwards exactly when the all-ones word
    adds no rank to the rows.  About half the drawn codes hold 1."""
    n = k + extra
    code = _ones_code(n, k, seed, "span" if holds else "absent")
    hist = weight_distribution(code)
    assert (hist == hist[::-1]) == (gf2_rank((*code.rows, (1 << n) - 1)) == k)


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


def test_sampled_bound_encodes_the_same_draws():
    """The byte tables give each drawn message its codeword: the bound is
    the least weight over the same randrange draws, encoded row by row,
    with k below, at and past a multiple of 8, at several seeds.  At
    k = 1 half of the getrandbits draws are redrawn, so a sampler that
    skips the redraw falls out of step with randrange."""
    for k in (1, 2, 3, 8, 9, 17, 22, 28):
        code = random_linear_code(40, k, k)
        for seed in (5, 6, 1729):
            rng = random.Random(seed)
            want = min(code.encode(rng.randrange(1, 1 << k)).bit_count() for _ in range(300))
            assert sampled_min_distance_upper(code, trials=300, seed=seed) == want, (k, seed)


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


# the scan workload's deg1 codes at the module's own LOW_ROWS and
# PIECE_BYTES, with their distance, orbit parts and walked blocks:
# 16-bit lanes in several pieces a block, and 6 to 8 parts, each past
# the first two walking the half of its blocks whose index selects its
# top high row
SCALE_CODES = [(482, 22, 181, 8, 65), (1000, 20, 421, 6, 17), (2048, 22, 906, 8, 65)]


def _rebased(code: BinaryCode, seed: int) -> BinaryCode:
    """The same code on another basis: seeded row additions, then a
    shuffle, so rows move between the low and the high set."""
    rng = random.Random(seed)
    rows = list(code.rows)
    for _ in range(4 * len(rows)):
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    return BinaryCode(rows, code.n)


def _permuted(code: BinaryCode, seed: int) -> BinaryCode:
    """The code with its coordinates in a seeded order: column i of the
    result is column perm[i] of code."""
    n = code.n
    perm = random.Random(seed).sample(range(n), n)
    return BinaryCode([sum((row >> j & 1) << i for i, j in enumerate(perm)) for row in code.rows], n)


@pytest.mark.parametrize("n, k, d, parts, blocks", SCALE_CODES,
                         ids=[f"{n}-{k}" for n, k, *_ in SCALE_CODES])
def test_scan_at_workload_scale_keeps_its_distance(n, k, d, parts, blocks):
    """The pinned distance comes back from the orbit walk, from the
    orbit walk on another basis, and from the one folded part of the
    same code with its columns permuted, which breaks the reversal."""
    code = construct_deg1_nk(n, k).generator()
    rebased, permuted = _rebased(code, n), _permuted(code, n)
    for variant in (code, rebased):
        plan = _walk_parts(_quotient_rows(variant), n, True)
        assert (len(plan), sum(hi - lo for _, lo, hi in plan)) == (parts, blocks)
        assert exact_min_distance(variant) == d
    rows = _quotient_rows(permuted)
    assert _walk_parts(rows, n, True) == [(rows, 0, 1 << (k - 1 - LOW_ROWS))]
    assert exact_min_distance(permuted) == d


def test_more_than_16_low_rows_are_refused(monkeypatch):
    """A 16-bit lane holds a column's pattern in the b + w low and
    folded rows of a group only while b + w <= 16; 17 low rows alone
    pass that bound, and a seventeenth row would be dropped and the scan
    would read a wrong distance."""
    monkeypatch.setattr(binary, "LOW_ROWS", 17)
    with pytest.raises(AssertionError, match="16 low rows"):
        exact_min_distance(construct_deg1_nk(1000, 20).generator())
