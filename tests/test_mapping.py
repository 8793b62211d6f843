"""Packing, hashing, and placement arithmetic."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimgasm.encoding import EncodedSeq, clean_segments, extract_kmers
from pimgasm.errors import CapacityError, ConfigError, ShapeError, SizeError
from pimgasm.mapping import (
    PLAN_SIGMAS,
    bucket_directory,
    capacity_plan,
    layout_hash,
    pack_buckets,
    planned_rows,
    stable_hash,
    subarrays_needed,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=40)


# ---- 2-bit packing -------------------------------------------------------


@given(dna)
def test_encode_round_trip(s):
    assert EncodedSeq.from_str(s).to_str() == s


def test_encoding_bit_positions():
    # base i occupies bits 2i and 2i+1, low code bit first
    assert EncodedSeq.from_str("CA").bits == 0b01
    assert EncodedSeq.from_str("AG").bits == 0b1000
    assert EncodedSeq.from_str("T").bits == 0b11
    assert EncodedSeq.from_str("ACGT").bits == 0b11100100


def test_encoded_seq_validation():
    with pytest.raises(ShapeError):
        EncodedSeq.from_str("ACGN")
    with pytest.raises(SizeError):
        EncodedSeq(0, -1)
    with pytest.raises(ShapeError):
        EncodedSeq(4, 1)  # two bases packed, one declared


def test_window_prefix_suffix_concat():
    s = EncodedSeq.from_str("CGTGTGCA")
    assert s.window(2, 3).to_str() == "TGT"
    assert s.prefix(4).to_str() == "CGTG"
    assert s.suffix(4).to_str() == "TGCA"
    assert s.prefix(3).concat(s.suffix(2)).to_str() == "CGTCA"
    assert len(s) == 8 and s.bit_length == 16
    with pytest.raises(SizeError):
        s.window(6, 3)


@given(dna, dna)
def test_concat_matches_string_concat(a, b):
    ea, eb = EncodedSeq.from_str(a), EncodedSeq.from_str(b)
    assert ea.concat(eb).to_str() == a + b


def test_clean_segments():
    assert clean_segments("acgTNgg") == (["ACGT", "GG"], 1)
    assert clean_segments("NN..NN") == ([], 6)
    assert clean_segments("") == ([], 0)
    assert clean_segments("GATTACA") == (["GATTACA"], 0)


def test_extract_kmers_examples():
    s = EncodedSeq.from_str("CGTGTGCA")
    assert [m.to_str() for m in extract_kmers(s, 5)] == [
        "CGTGT",
        "GTGTG",
        "TGTGC",
        "GTGCA",
    ]
    assert [m.to_str() for m in extract_kmers(EncodedSeq.from_str("AAAA"), 4)] == ["AAAA"]
    assert extract_kmers(EncodedSeq.from_str("ACG"), 4) == []
    with pytest.raises(SizeError):
        extract_kmers(s, 0)


@given(dna, st.integers(min_value=1, max_value=8))
def test_extract_kmers_matches_slicing(s, k):
    got = [m.to_str() for m in extract_kmers(EncodedSeq.from_str(s), k)]
    assert got == [s[i : i + k] for i in range(len(s) - k + 1)]


# ---- hashing -------------------------------------------------------------


def test_stable_hash_is_deterministic_and_seeded():
    a = stable_hash(0b1101, 2, seed=7)
    assert a == stable_hash(0b1101, 2, seed=7)
    assert a != stable_hash(0b1101, 2, seed=8)
    assert a != stable_hash(0b1101, 3, seed=7)  # length is part of the key
    assert 0 <= a < 1 << 64


@given(st.integers(min_value=0), st.integers(min_value=0, max_value=200))
def test_stable_hash_range(bits, length):
    assert 0 <= stable_hash(bits, length) < 1 << 64


# ---- hash-table layout ---------------------------------------------------


def test_layout_hash_default_geometry():
    # 50-bit keys at a 64-column pitch: 4 slots per 256-bit row. 1012
    # non-special rows; 15 stripes leave 892 key rows = 3568 keys, which
    # fit 15 * 256 = 3840 counters (14 stripes would leave 3600 > 3584)
    lay = layout_hash((1024, 256), 25)
    assert lay.pitch == 64
    assert lay.slots == 4
    assert lay.capacity == 3568
    assert lay.stripes == 15
    assert lay.value_width == 8
    assert lay.kmer_rows == range(0, 892)
    assert lay.value_rows == range(892, 1012)
    # every row is claimed exactly once (enforced again by the constructor)
    claimed = (
        list(lay.kmer_rows)
        + list(lay.value_rows)
        + list(lay.row_layout.special_rows())
    )
    assert sorted(claimed) == list(range(1024))


def test_counter_location_is_injective():
    lay = layout_hash((1024, 256), 25)
    locs = {lay.counter_location(j) for j in range(lay.capacity)}
    assert len(locs) == lay.capacity
    assert lay.counter_location(0) == (892, 0)
    assert lay.counter_location(256) == (900, 0)
    assert lay.counter_location(257) == (900, 1)
    with pytest.raises(SizeError):
        lay.counter_location(3568)


def test_key_slots_share_a_row():
    lay = layout_hash((1024, 256), 25)
    assert [lay.key_address(j) for j in (0, 1, 3, 4)] == [(0, 0), (0, 64), (0, 192), (1, 0)]
    assert lay.key_span == 3 * 64 + 50
    key = (1 << 50) - 1
    assert lay.replicate(key) == sum(key << (64 * s) for s in range(4))
    with pytest.raises(SizeError):
        lay.key_address(lay.capacity)
    # a query of 0 against a zeroed row matches in every slot; only the
    # occupied leading slots may report it
    all_match = (1 << lay.key_span) - 1
    assert lay.matched_slot(all_match, 4) == 0
    assert lay.matched_slot(all_match, 0) is None
    slot2 = ((1 << 50) - 1) << 128
    assert lay.matched_slot(slot2, 2) is None
    assert lay.matched_slot(slot2, 3) == 2


def test_key_pitch_is_a_power_of_two():
    # k=22..32 all get 64-bit slots, so the slot count never rises with k
    assert [layout_hash((1024, 256), k).slots for k in (16, 22, 25, 27, 32)] == [8, 4, 4, 4, 4]
    assert layout_hash((1024, 64), 20).slots == 1  # 40-bit key, 64-bit pitch


def test_layout_hash_rejects_bad_requests():
    with pytest.raises(CapacityError):
        layout_hash((1024, 64), 40)  # 80 key bits, 64-bit rows
    with pytest.raises(ConfigError):
        layout_hash((1024, 256), 1)
    with pytest.raises(CapacityError):
        layout_hash((16, 64), 5)  # too few rows for keys after reserving


@given(
    rows=st.sampled_from([128, 256, 512, 1024]),
    cols=st.sampled_from([64, 128, 256]),
    k=st.integers(min_value=2, max_value=32),
)
@settings(max_examples=40, deadline=None)
def test_layout_hash_counter_slots_cover_keys(rows, cols, k):
    lay = layout_hash((rows, cols), k)
    assert lay.capacity <= lay.stripes * cols
    assert lay.capacity >= 1
    locs = {lay.counter_location(j) for j in range(lay.capacity)}
    assert len(locs) == lay.capacity


# ---- bucket directory ----------------------------------------------------

# 64 x 64 at k=5: 28 key rows of 4 slots (112 keys) and 3 counter stripes,
# so the counts are 27 (the largest multiple of 3 that is at most 28
# rows), 24, 21, ..., 6 and 3 buckets per group. The power-of-two ladder
# tried only 24 (3 * 4 * 2), 12, 6 and 3, and these rungs are tried above
# the planned count.
SMALL = layout_hash((64, 64), 5)


@pytest.mark.parametrize(
    "hashes, directory",
    [
        # 48 consecutive hashes, one group. Planned rows at 27 buckets:
        # 23.5 + 2 * 1.5 = 26.4 of 28, so 27 is planned. 2 keys fall in 21
        # of the 27 buckets and 1 in the other 6, one row each: 27 rows
        (list(range(48)), (1, 27)),
        # 91 keys, 0..55 and 75..109. At one group the plan needs 35.9 rows
        # at 27, 33.1 at 21, 29.2 at 12 and 27.8 at 9, so 9 is planned.
        # Above it only the rungs 24 and 12 are tried: 24 takes 29 rows (5
        # buckets of 5 keys), 12 takes 24. This draw would also fit 21 (28
        # rows), a count neither planned nor a rung
        (list(range(56)) + list(range(75, 110)), (1, 12)),
        # 120 keys, 2 groups: 48 * i + b for 12 offsets b and 10 values of
        # i. Planned rows at 2 groups: 56.3 of 56 at 27, 53.1 at 24, so 24
        # is planned. At 24 every key falls in buckets 0..11 of group 0
        # (10 keys, 3 rows each: 36 rows) when bucket b goes to group
        # b // 24, so the buckets are packed largest first: six 3-row
        # buckets to each group, 18 rows each
        ([48 * i + b for b in range(12) for i in range(10)], (2, 24)),
        # 112 consecutive hashes: one group plans no count (even 3 buckets
        # need 29.1 + 2 * 0.48 = 30.1 rows of 28), so every count is
        # tried; 4 or 5 keys in each bucket of 27 take 31 rows, and so on
        # down to 37 or 38 in each of 3 (30 rows): none fits. Two groups
        # plan 27 (54.6 of 56 rows) and spread the keys 2 or 3 to a
        # bucket, one row each, 27 rows per group
        (list(range(112)), (2, 27)),
        # 104 keys, 0..39 and 46..109: one group plans no count (28.1
        # rows at 3), so every count is tried: 29 rows at 27 (2 buckets
        # of 5), 38 at 24, 40 at 21, 36 at 18, 30 at 15 and at 12. At 9, 5
        # buckets of 11 keys, 3 of 12 and 1 of 13 take 3 rows each except
        # the last, which takes 4: 28 rows, which fits. The power-of-two
        # ladder went down to 3 (27 rows)
        (list(range(40)) + list(range(46, 110)), (1, 9)),
    ],
)
def test_bucket_directory_takes_the_finest_rung_that_fits(hashes, directory):
    assert bucket_directory(SMALL, hashes)[:2] == directory
    assert _packing_fits(SMALL, hashes, bucket_directory(SMALL, hashes))


def test_bucket_directory_of_one_slot_rows_doubles_the_stripes():
    # a 40-bit key fills its 64-bit pitch, so a row holds one key, a
    # bucket takes one row per key whatever the draw, and every count is
    # planned. The counts are 15 * j: 885 (the largest multiple of 15 up to
    # 892 key rows) down to 15. Ten keys fit the finest. 893 multiples of
    # 960 need 2 groups; over 2 * 885 = 1,770 buckets they fall in the 59
    # multiples of gcd(960, 1770) = 30, 15 or 16 keys to a bucket and one
    # row per key: 454 rows in group 0 and 439 in group 1. The power-of-two
    # ladder, whose counts are 15 * 2^j (480 down to 15), found no fit at 2
    # groups: every multiple of 960 fell in bucket 0 of group 0, which then
    # held all 893. At 3 groups of 480 they took buckets 0, 480 and 960 in
    # turn
    lay = layout_hash((1024, 64), 20)
    assert lay.slots == 1 and lay.stripes == 15 and len(lay.kmer_rows) == 892
    assert planned_rows(893, 1770, 1) == (893, 0)
    assert bucket_directory(lay, list(range(10)))[:2] == (1, 885)
    crowded = [960 * i for i in range(893)]
    assert bucket_directory(lay, crowded)[:2] == (2, 885)
    assert power_of_two_directory(lay, crowded) == (3, 480)


def test_bucket_directory_rejects_more_colliding_hashes_than_a_sub_array_holds():
    # equal hashes share one bucket at every group count and count: 112 of
    # them fill the 28 key rows exactly (so no count is planned and every
    # count is tried), 113 fit no directory
    assert bucket_directory(SMALL, [7] * 112)[:2] == (1, 27)
    with pytest.raises(CapacityError, match="113 key hashes fit no bucket directory"):
        bucket_directory(SMALL, [7] * 113)


@pytest.mark.parametrize("keys, buckets, slots", [(3, 2, 2), (5, 3, 2), (4, 2, 3), (6, 3, 4)])
def test_planned_rows_mean_is_exact(keys, buckets, slots):
    # every way to hash the keys into the buckets, equally likely
    total = 0
    for draw in range(buckets**keys):
        fill = Counter((draw // buckets**i) % buckets for i in range(keys))
        total += sum(math.ceil(n / slots) for n in fill.values())
    mean, sd = planned_rows(keys, buckets, slots)
    assert mean == pytest.approx(total / buckets**keys)
    assert sd > 0


def test_equal_key_counts_take_one_directory():
    # 9,956 uniform hashes (hub-euler's key count) at 1024 x 256 and k=25:
    # 3 groups plan 150 buckets each, and every draw fits them. Whether a
    # draw also fits 165 is luck: taking the finest count a draw fits
    # would move the directory, and every bucket scan, from draw to draw
    lay = layout_hash((1024, 256), 25)
    draws = [[rng.getrandbits(64) for _ in range(9956)] for rng in map(random.Random, range(6))]
    assert {bucket_directory(lay, hashes)[:2] for hashes in draws} == {(3, 150)}
    mean, sd = planned_rows(9956, 3 * 165, lay.slots)
    assert mean + PLAN_SIGMAS * sd > 3 * len(lay.kmer_rows)
    assert {pack_buckets(lay, hashes, 3, 165) is not None for hashes in draws} == {True, False}


def _fits(lay, hashes, groups, per_group):
    """Whether every group's buckets fit one sub-array's key rows when
    bucket b lies in group b // per_group."""
    fill = Counter(h % (groups * per_group) for h in hashes)
    rows = [0] * groups
    for bucket, keys in fill.items():
        rows[bucket // per_group] += math.ceil(keys / lay.slots)
    return max(rows) <= len(lay.kmer_rows)


def _packing_fits(lay, hashes, directory):
    """Whether each group holds per_group buckets whose keys fit its key rows."""
    groups, per_group, group_of = directory
    if len(group_of) != groups * per_group:
        return False
    if Counter(group_of) != {g: per_group for g in range(groups)}:
        return False
    rows = [0] * groups
    for bucket, keys in Counter(h % len(group_of) for h in hashes).items():
        rows[group_of[bucket]] += math.ceil(keys / lay.slots)
    return max(rows) <= len(lay.kmer_rows)


def power_of_two_directory(lay, hashes):
    """The power-of-two ladder, the oracle: stripes * slots * 2^j down from
    the largest that is at most the key rows, then stripes * slots and its
    halvings down to the stripes; the fewest groups from ceil(keys /
    capacity) up to four times that at which a rung fits with bucket b in
    group b // per_group, and the finest rung there. Raises CapacityError
    where none fits."""
    least = math.ceil(len(hashes) / lay.capacity)
    base = lay.stripes * lay.slots
    up = (len(lay.kmer_rows) // base).bit_length() - 1
    rungs = [base << j for j in range(up, 0, -1)]
    rungs += [lay.stripes * (lay.slots >> s) for s in range(lay.slots.bit_length())]
    for groups in range(least, 4 * least + 1):
        for per_group in rungs:
            if _fits(lay, hashes, groups, per_group):
                return groups, per_group
    raise CapacityError("no power-of-two directory fits")


GEOMETRIES = [(24, 64), (32, 64), (48, 64), (64, 64), (128, 64), (256, 128), (1024, 64)]


@given(
    dims=st.sampled_from(GEOMETRIES),
    k=st.integers(min_value=2, max_value=32),
    # spread hashes, and multiples of 960 that pile into few buckets
    hashes=st.lists(
        st.integers(0, (1 << 64) - 1) | st.integers(0, 40).map(lambda i: 960 * i),
        min_size=1,
        max_size=400,
    ),
)
@settings(max_examples=60, deadline=None)
def test_bucket_directory_is_never_coarser_than_the_power_of_two_one(dims, k, hashes):
    # Every rung of the power-of-two ladder is tried at every group count,
    # and a rung that fits with bucket b in group b // per_group is taken
    # so, so the directory needs no more groups than the ladder did, and
    # at the ladder's group count takes a count at least as fine. Every
    # group holds per_group buckets that fit its key rows.
    lay = layout_hash(dims, k)
    try:
        old_groups, old_per_group = power_of_two_directory(lay, hashes)
    except CapacityError:
        old_groups = None
    try:
        directory = bucket_directory(lay, hashes)
    except CapacityError:
        # only hashes that pile up: no group count up to four times the
        # fewest fits any multiple of the stripes, so the ladder found none
        assert old_groups is None
        least = math.ceil(len(hashes) / lay.capacity)
        top = max(len(lay.kmer_rows), lay.stripes * lay.slots)
        assert not any(
            pack_buckets(lay, hashes, g, p)
            for g in range(least, 4 * least + 1)
            for p in range(lay.stripes, top + 1, lay.stripes)
        )
        return
    groups, per_group, _ = directory
    assert _packing_fits(lay, hashes, directory)
    assert per_group % lay.stripes == 0
    assert per_group <= max(len(lay.kmer_rows), lay.stripes * lay.slots)
    if old_groups is not None:
        assert groups <= old_groups
        if groups == old_groups:
            assert per_group >= old_per_group


# ---- capacity ------------------------------------------------------------


def test_capacity_plan_human_genome():
    plan = capacity_plan(3_000_000_000, 32)
    assert plan.hash_bits == 2 * 3_000_000_000 * 33
    assert plan.table_bytes == math.ceil(plan.hash_bits / 8)
    assert abs(plan.gibibytes - 23.05) < 0.01
    assert plan.subarrays == math.ceil(plan.hash_bits / (1024 * 256))
    with pytest.raises(SizeError):
        capacity_plan(0, 32)


def test_subarrays_needed():
    assert subarrays_needed(519_771, 256) == 2031
    assert subarrays_needed(0, 256) == 0
    assert subarrays_needed(1, 256) == 1
    assert subarrays_needed(256, 256) == 1
    assert subarrays_needed(257, 256) == 2
    with pytest.raises(SizeError):
        subarrays_needed(-1, 256)
    with pytest.raises(SizeError):
        subarrays_needed(1, 0)
