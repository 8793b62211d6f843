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
    bucket_directory,
    capacity_plan,
    layout_hash,
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
    assert lay.image(key, 0b1111) == sum(key << (64 * s) for s in range(4))
    assert lay.image(key, 0b0101) == key | key << 128
    with pytest.raises(SizeError):
        lay.key_address(lay.capacity)
    # a query of 0 against a zeroed row matches in every slot; only the
    # slots of the column mask may report it
    all_match = (1 << lay.key_span) - 1
    assert lay.matched_slot(all_match, 0b1111) == 0
    assert lay.matched_slot(all_match, 0b1000) == 3
    assert lay.matched_slot(all_match, 0) is None
    slot2 = ((1 << 50) - 1) << 128
    assert lay.matched_slot(slot2, 0b1011) is None
    assert lay.matched_slot(slot2, 0b0110) == 2


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

# 64 x 64 at k=5: 28 key rows of 4 slots, so 112 keys and 112 buckets per
# group, one per key slot; bucket b lies in group b // 112.
SMALL = layout_hash((64, 64), 5)


def group_keys(lay, hashes, groups):
    """Keys hashed to each of `groups` groups."""
    n = groups * lay.capacity
    return Counter(h % n // lay.capacity for h in hashes)


@pytest.mark.parametrize(
    "hashes, groups",
    [
        # 48 keys fit one group of 112
        (list(range(48)), 1),
        # 112 consecutive hashes fill one group exactly
        (list(range(112)), 1),
        # 113 need two groups (of 224 buckets): hashes 0..111 fall in
        # group 0, and 112 in group 1
        (list(range(113)), 2),
        # 150 keys need 2 groups at least, but there the multiples of 224
        # all fall in bucket 0 of group 0. At 3 groups (336 buckets) they
        # fall in buckets 0, 224, 112, 0, ...: 50 keys in each group
        ([224 * i for i in range(150)], 3),
    ],
)
def test_bucket_directory_takes_the_fewest_groups_the_hashes_fit(hashes, groups):
    assert SMALL.capacity == 112
    assert bucket_directory(SMALL, hashes) == groups
    assert max(group_keys(SMALL, hashes, groups).values()) <= SMALL.capacity


def test_bucket_directory_of_one_slot_rows_doubles_the_stripes():
    # a 40-bit key fills its 64-bit pitch, so a row holds one key and a
    # group of 892 keys has 892 buckets, one per key slot and so one per
    # key row. Ten keys fit
    # one group. 893 multiples of 960 need 2 groups; over 1,784 buckets
    # they fall in the 223 multiples of gcd(960, 1784) = 8, 4 keys to a
    # bucket (5 in bucket 0): 449 keys in group 0 and 444 in group 1, so
    # the second group doubles the 15 counter stripes. The power-of-two
    # ladder, whose counts were 15 * 2^j, put every one of them in bucket 0
    # at 2 groups and took 3
    lay = layout_hash((1024, 64), 20)
    assert lay.slots == 1 and lay.stripes == 15 and len(lay.kmer_rows) == 892
    assert lay.capacity == 892
    assert bucket_directory(lay, list(range(10))) == 1
    crowded = [960 * i for i in range(893)]
    assert bucket_directory(lay, crowded) == 2
    assert group_keys(lay, crowded, 2) == {0: 449, 1: 444}


def test_bucket_directory_rejects_more_colliding_hashes_than_a_sub_array_holds():
    # equal hashes share one bucket at every group count: 112 of them fill
    # one group's 112 key slots exactly, 113 fit no directory
    assert bucket_directory(SMALL, [7] * 112) == 1
    with pytest.raises(CapacityError, match="113 key hashes fit no bucket directory"):
        bucket_directory(SMALL, [7] * 113)


def test_hashes_that_no_group_count_separates_raise():
    # hashes 0 and 1, 112 keys each: no hash is shared by more keys than a
    # sub-array holds, so the first check passes, and the 224 keys need 2
    # groups at least. But both hashes lie below 112, so at every group
    # count they fall in buckets 0 and 1 of group 0: 224 keys hashed to one
    # group of 112. The search's bound on primes, one pair of 1-bit
    # hashes, ends it after the primes 2 and 3
    hashes = [0] * 112 + [1] * 112
    assert [group_keys(SMALL, hashes, groups) for groups in (2, 3)] == [{0: 224}] * 2
    with pytest.raises(CapacityError, match="224 key hashes fit no bucket directory of 2 to 3"):
        bucket_directory(SMALL, hashes)


def test_distinct_hashes_find_a_directory_past_four_times_the_fewest():
    # 21 x 16 at k=6: a 12-bit key per 16-column row and one key row beside
    # one counter stripe, so a sub-array holds one key and a group is one
    # bucket. Ten multiples of lcm(1..40) agree modulo every group count up
    # to 40, four times the fewest, so there they all share one bucket; 41
    # is prime and divides no difference of two of them, so at 41 groups
    # each has a bucket of its own
    lay = layout_hash((21, 16), 6)
    assert lay.capacity == 1
    step = math.lcm(*range(1, 41))
    assert bucket_directory(lay, [i * step for i in range(1, 11)]) == 41


def test_equal_key_counts_take_one_directory():
    # 9,956 uniform hashes (hub-euler's key count) at 1024 x 256 and k=25:
    # 3 groups of 3,568 keys hold them with 748 slots to spare, and every
    # draw fits them, 3,319 keys to a group on average
    lay = layout_hash((1024, 256), 25)
    assert lay.capacity == 3568
    draws = [[rng.getrandbits(64) for _ in range(9956)] for rng in map(random.Random, range(6))]
    assert {bucket_directory(lay, hashes) for hashes in draws} == {3}


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
def test_bucket_directory_takes_the_fewest_groups_that_fit(dims, k, hashes):
    # The directory takes the first group count, counting up from the
    # fewest that could hold the keys, at which no group is hashed more
    # keys than a sub-array holds. More equal hashes than a sub-array
    # holds share a bucket at every count and raise; these hashes repeat
    # only multiples of 960, which some count separates, so every other
    # draw finds a directory
    lay = layout_hash(dims, k)
    if max(Counter(hashes).values()) > lay.capacity:
        with pytest.raises(CapacityError, match="share one hash"):
            bucket_directory(lay, hashes)
        return
    groups = bucket_directory(lay, hashes)
    least = math.ceil(len(hashes) / lay.capacity)
    fits = [
        g
        for g in range(least, groups + 1)
        if max(group_keys(lay, hashes, g).values()) <= lay.capacity
    ]
    assert fits[0] == groups


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
