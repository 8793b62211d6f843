"""Packing, hashing, and placement arithmetic."""

import math
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
# so the rungs are 24 (3 * 4 * 2; 48 would exceed 28 rows), 12, 6 and 3
# buckets per group
SMALL = layout_hash((64, 64), 5)


@pytest.mark.parametrize(
    "hashes, directory",
    [
        # 48 keys, 2 in each bucket of 24: 24 rows
        (list(range(48)), (1, 24)),
        # 96 keys, 16 in each bucket of 6 (4 rows, 24 in all); at 12 each of
        # those buckets splits 9 + 7 (3 + 2 rows, 30 in all), and at 24 into
        # 5 + 4 and 4 + 3 (2 + 1 + 1 + 1 rows, 30 in all): both overfill
        ([b + 12 * i for b in range(6) for i in range(9)]
         + [b + 6 + 12 * i for b in range(6) for i in range(7)], (1, 6)),
        # 120 keys, 2 groups: at 24 and 12 every key hashes into group 0's
        # buckets 0..11 (10 keys, 3 rows each: 36); at 6 buckets 0..5 of 12
        # are group 0's and 6..11 group 1's, 18 rows each
        ([48 * i + b for b in range(12) for i in range(10)], (2, 6)),
        # 112 consecutive hashes, one group: 4 or 5 keys in each bucket of
        # 24 (40 rows), 9 or 10 in each of 12 (3 rows, 36 in all), 18 or 19
        # in each of 6 (5 rows, 30 in all), 38, 37, 37 in each of 3 (10 rows,
        # 30 in all): no rung fits. Two groups of 24 buckets spread them 3
        # or 2 to a bucket, one row each, 24 rows per group
        (list(range(112)), (2, 24)),
        # 96 keys, 8 in each bucket of 12 (2 rows, 24 in all); at 24 each of
        # those buckets splits 5 + 3 (2 + 1 rows, 36 in all), which overfills
        ([b + 24 * i for b in range(12) for i in range(5)]
         + [b + 12 + 24 * i for b in range(12) for i in range(3)], (1, 12)),
    ],
)
def test_bucket_directory_takes_the_finest_rung_that_fits(hashes, directory):
    assert bucket_directory(SMALL, hashes) == directory


def test_bucket_directory_of_one_slot_rows_doubles_the_stripes():
    # a 40-bit key fills its 64-bit pitch, so a row holds one key and the
    # rungs are 15 * 2^j: 480 (960 would exceed 892 key rows) down to 15.
    # Ten keys fit the finest. At 2 groups, 893 multiples of 960 all fall in
    # bucket 0, which overfills group 0's 892 rows at every rung; at 3
    # groups of 480 they take buckets 0, 480 and 960 in turn, 298, 298 and
    # 297 rows, one bucket in each group
    lay = layout_hash((1024, 64), 20)
    assert lay.slots == 1 and lay.stripes == 15 and len(lay.kmer_rows) == 892
    assert bucket_directory(lay, list(range(10))) == (1, 480)
    assert bucket_directory(lay, [960 * i for i in range(893)]) == (3, 480)


def test_bucket_directory_rejects_more_colliding_hashes_than_a_sub_array_holds():
    # equal hashes share one bucket at every group count and rung: 112 of
    # them fill the 28 key rows exactly, 113 fit no directory
    assert bucket_directory(SMALL, [7] * 112) == (1, 24)
    with pytest.raises(CapacityError, match="113 key hashes fit no bucket directory"):
        bucket_directory(SMALL, [7] * 113)


def _fits(lay, hashes, groups, per_group):
    """Whether every group's buckets fit one sub-array's key rows."""
    fill = Counter(h % (groups * per_group) for h in hashes)
    rows = [0] * groups
    for bucket, keys in fill.items():
        rows[bucket // per_group] += math.ceil(keys / lay.slots)
    return max(rows) <= len(lay.kmer_rows)


def _stripes_tied_directory(lay, hashes):
    """The ladder from when a key's counter followed its key slot, the
    oracle: stripes * slots and its halvings, else the stripes."""
    groups = math.ceil(len(hashes) / lay.capacity)
    for shift in range(lay.slots.bit_length() - 1):
        per_group = lay.stripes * (lay.slots >> shift)
        if _fits(lay, hashes, groups, per_group):
            return groups, per_group
    return groups, lay.stripes


@given(
    dims=st.sampled_from([(48, 64), (64, 64), (128, 64), (256, 128), (1024, 64)]),
    k=st.integers(min_value=2, max_value=32),
    # spread hashes, and multiples of 960 that pile into few buckets
    hashes=st.lists(
        st.integers(0, (1 << 64) - 1) | st.integers(0, 40).map(lambda i: 960 * i),
        min_size=1,
        max_size=400,
    ),
)
@settings(max_examples=60, deadline=None)
def test_bucket_directory_is_never_coarser_than_the_stripes_tied_one(dims, k, hashes):
    # at the oracle's group count the directory takes a rung at least as
    # fine; it adds groups only when even the stripes rung overfills one
    lay = layout_hash(dims, k)
    old_groups, old_per_group = _stripes_tied_directory(lay, hashes)
    try:
        groups, per_group = bucket_directory(lay, hashes)
    except CapacityError:
        # only hashes that pile up: no group count up to four times the
        # fewest fits any rung
        ladder = {lay.stripes * (lay.slots >> i) for i in range(lay.slots.bit_length())}
        ladder |= {
            lay.stripes * lay.slots << j
            for j in range(1, len(lay.kmer_rows).bit_length())
            if lay.stripes * lay.slots << j <= len(lay.kmer_rows)
        }
        assert not any(
            _fits(lay, hashes, g, p) for g in range(old_groups, 4 * old_groups + 1) for p in ladder
        )
        return
    assert _fits(lay, hashes, groups, per_group)
    assert old_groups <= groups <= 4 * old_groups
    if groups == old_groups:
        assert per_group >= old_per_group
    else:
        assert not _fits(lay, hashes, old_groups, lay.stripes)
    if per_group > lay.stripes * lay.slots:  # a rung above the old ladder
        assert per_group <= len(lay.kmer_rows)


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
