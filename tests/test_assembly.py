"""Counting, graph building, chain merging, and Euler walks on the fabric.

Every fabric-side structure keeps a host mirror, so most tests check three
things at once: the returned values, the mirror/fabric consistency hooks
(which raise instead of silently diverging), and the pinned cost events.
"""

import functools
import importlib.util
import itertools
import logging
import operator
import random
import re
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pimgasm import assembly, mapping
from pimgasm import trace as tr
from pimgasm.assembly import (
    Assembler,
    SparseGraph,
    contig_from_path,
    unitig_index,
    weakly_connected_components,
)
from pimgasm.encoding import EncodedSeq, extract_kmers
from pimgasm.errors import CapacityError, ConsistencyError, SizeError
from pimgasm.fabric import SubArray
from pimgasm.isa import Machine
from pimgasm.seqio import distinct_window_genome, random_genome, tile_reads
from test_mapping import group_keys

E = EncodedSeq.from_str


class BucketRecorder(Assembler):
    """Keeps the hash stage's groups and buckets for inspection, each
    probed batch's members as (key bits, image columns, miss key index or
    None), and each row write of new keys as (sub-array, key row, the key
    indices it writes). Before each probe it checks that the members' image
    columns are disjoint and that each member's image covers every column
    its bucket's written keys sit in, so the probe's own column check never
    fires and every slot a member reads holds its query. After it, it
    checks the row that holds the batch's image: a key row there must lie
    at or above every column's fill, so no image is written over a key,
    and no compare takes a row that holds a key as its image."""

    def build_kmer_table(self, reads, k):
        self.probed = []
        self.written = []
        self.buckets = None
        return super().build_kmer_table(reads, k)

    def _write_keys(self, table, group, row, keys):
        self.written.append((group.sid, row, [query.key_i for query in keys]))
        super()._write_keys(table, group, row, keys)

    def _observe(self, table, buckets, kmer):
        if buckets is not self.buckets:  # the stage's first query
            self.buckets = buckets
            self.groups = list(dict.fromkeys(bucket.group for bucket in buckets))
        super()._observe(table, buckets, kmer)

    def _probe(self, group, batch, lay):
        filled = 0
        for query in batch:
            assert not filled & query.cols
            filled |= query.cols
            assert not any(own & ~query.cols for own in query.bucket.rows.values())
        self.probed.append([(query.bits, query.cols, query.key_i) for query in batch])
        out = super()._probe(group, batch, lay)
        image_row = next(reversed(group.held.values())).row  # this batch's image
        if image_row in lay.kmer_rows:
            assert image_row - lay.kmer_rows.start >= max(group.fill)
        return out


def make_asm(rows=128, cols=64, **kw):
    return Assembler(rows=rows, cols=cols, **kw)


def bucket_of(table, key):
    """Hash bucket of a key in the table's bucket directory."""
    return mapping.stable_hash(key.bits, 2 * table.k) % table.buckets


def hashmap_totals(trace):
    return {
        kind: trace.total(kind, stage=tr.STAGE_HASHMAP)
        for kind in (tr.R, tr.W, tr.C_ADD, tr.DPU)
    }


# ---- k-mer counting --------------------------------------------------------


reads_strategy = st.lists(
    st.text(alphabet="ACGT", min_size=1, max_size=20), min_size=1, max_size=8
)


@given(reads=reads_strategy, k=st.integers(min_value=2, max_value=5))
@settings(max_examples=25, deadline=None)
def test_kmer_counts_match_a_host_counter(reads, k):
    enc = [E(s) for s in reads]
    expected = Counter(
        s[i : i + k] for s in reads for i in range(len(s) - k + 1)
    )
    asm = make_asm()
    if not expected:
        with pytest.raises(SizeError):
            asm.build_kmer_table(enc, k)
        return
    table = asm.build_kmer_table(enc, k)
    got = {key.to_str(): n for key, n in table.items()}
    assert got == dict(expected)
    assert table.total_kmers == sum(expected.values())
    assert table.distinct() == len(expected)


def test_insert_cost_oracle_single_read():
    # CGTGTGCA, k=5: four distinct k-mers in one sub-array of 5 counter
    # stripes. 10-bit keys at a 16-column pitch give 4 slots per 64-bit
    # row and 76 key rows, 304 keys and so 304 buckets, one per key slot,
    # in the one group. CGTGT hashes to bucket 212, GTGTG to 221, TGTGC to
    # 8 and GTGCA to 270:
    # every key finds its bucket empty and takes the least-filled column,
    # so the four fill key row 0 in first-seen order. A key into an empty
    # bucket has no older key to be checked against, so it joins no batch
    # and waits, with no check due: no image, no compare. Every column has
    # passed row 0 at the read's end, so the four new keys go in together
    # from their query bits, one masked write of row 0 (1 W, no read; one
    # write per key took 4 W). The stage ends with one masked
    # write of counter plane 0 that starts all four counters, which share
    # stripe 0, at one:
    #   W = 1 row write + 1 seed = 2,  R = 0,  C_ADD = DPU = 0.
    asm = BucketRecorder(rows=128, cols=64)
    table = asm.build_kmer_table([E("CGTGTGCA")], 5)
    assert table.buckets == table.layout.capacity == 304
    assert [bucket_of(table, key) for key in table.keys] == [212, 221, 8, 270]
    assert table.slots == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert table.batches == table.compares == 0 and asm.probed == []
    assert asm.written == [(0, 0, [0, 1, 2, 3])] and table.insert_writes == 1
    assert hashmap_totals(asm.trace) == {tr.R: 0, tr.W: 2, tr.C_ADD: 0, tr.DPU: 0}
    # A second read, ACGTCA, after it: ACGTC is a miss into GTGTG's bucket
    # 221, whose one key sits in column 1, and that column has room, so
    # ACGTC takes its next row: key row 1, key index 5. It joins no batch;
    # its key waits with its miss check due. CGTCA hashes to bucket 14,
    # empty, and takes the least-filled column, 0 (fills 1, 2, 1, 1), at
    # key row 1 too: key index 4, no check due. Columns 2 and 3 have not
    # passed row 1, so it waits until the stage's end, and one masked write
    # (1 W) puts both keys in. Then ACGTC's key row is compared with
    # bucket 221's one other row, 0, read at column 1 (1 C_ADD, 1 DPU),
    # which does not match. Imaging ACGTC first took one image write more:
    #   W = 2 row writes + 1 seed = 3,  R = 0,  C_ADD = DPU = 1.
    asm = BucketRecorder(rows=128, cols=64)
    table = asm.build_kmer_table([E("CGTGTGCA"), E("ACGTCA")], 5)
    assert [bucket_of(table, key) for key in table.keys[4:]] == [221, 14]
    assert table.slots[4:] == [(0, 5), (0, 4)]
    assert asm.probed == [] and table.batches == table.image_writes == 0
    assert (table.checked, table.compares) == (1, 1)
    assert asm.written == [(0, 0, [0, 1, 2, 3]), (0, 1, [5, 4])] and table.insert_writes == 2
    assert hashmap_totals(asm.trace) == {tr.R: 0, tr.W: 3, tr.C_ADD: 1, tr.DPU: 1}


def test_miss_cost_is_one_compare_per_occupied_row():
    # k=5 on 64 columns: 4 slots per row, 304 keys in 76 key rows and 304
    # buckets per sub-array, so every prefix below keeps one group. Each
    # k-mer is a read of its own. A bucket's keys share its column, one key
    # row each (these 90 keys fill no column), so the miss that inserts a
    # key joins no batch and writes no image: once its key row is written,
    # that row is compared against f rows, f the keys already in its
    # bucket, all written by then; into an empty bucket it compares
    # nothing. These 90 keys fill 66 buckets with one key, 9 with two and
    # 2 with three, so 9 * 1 + 2 * 2 = 13 misses find a non-empty bucket
    # and are checked at their row write, and they compare
    # 9 * 1 + 2 * (1 + 2) = 15 rows.
    seq = distinct_window_genome(94, 5, random.Random(0))
    kmers = [E(seq[i : i + 5]) for i in range(len(seq) - 4)]
    assert len({key.bits for key in kmers}) == len(kmers)
    prev = {tr.C_ADD: 0, tr.DPU: 0}
    scanned = []
    for j in range(len(kmers)):
        asm = make_asm()
        table = asm.build_kmer_table(kmers[: j + 1], 5)
        assert table.layout.slots == 4 and table.buckets == 304
        assert asm.machine.subarray_count == 1
        buckets = [bucket_of(table, key) for key in kmers[: j + 1]]
        f = buckets[:-1].count(buckets[-1])
        totals = hashmap_totals(asm.trace)
        scanned.append(f)
        assert totals[tr.C_ADD] - prev[tr.C_ADD] == f
        assert totals[tr.DPU] - prev[tr.DPU] == f
        prev = totals
    assert Counter(Counter(buckets).values()) == {1: 66, 2: 9, 3: 2}
    assert (table.batches, table.image_writes, table.checked, table.compares) == (0, 0, 13, 15)
    # empty, one-row and two-row buckets all occur
    assert set(scanned) == {0, 1, 2}


def test_an_all_miss_stage_costs_follow_its_bucket_loads():
    # Every k-mer read once, as on hub-euler: 6 reads of 20 bases at stride
    # 16 over a 100-base genome with distinct 5-mers, so the 96 k-mers are
    # 96 distinct keys and every query is a miss. On 128 x 64 at k=5 the
    # one group has 304 buckets, one per key slot, and the keys load 65 of
    # them with one key, 14 with two and 1 with three. No column fills, so
    # every key goes into its bucket's one column and joins no batch: no
    # image is written. A bucket's first key has nothing to be checked
    # against; each later key, 14 + 2 = 16 of them, is checked once its key
    # row is written, against the rows of its bucket's earlier keys, one
    # C_ADD and one DPU each (no two keys of one write share a row here):
    # 14 * 1 + 1 * (1 + 2) = 17 rows. A new key waits until a later miss
    # into its bucket, a read's end with every column past its key row, or
    # the stage's end; then its key row is written with every key waiting
    # in it, one masked write per row. The 96 keys fill key rows 0 to 23,
    # 4 keys each. The third read's keys reach rows 8 to 12 and it ends at
    # fills 13, 12, 12 and 11, so rows 11 and 12, which hold 3 and 1 of its
    # keys, wait; the fourth read's end writes each once, with the keys
    # that read added. In the third read, GGATT, new to bucket 246, finds
    # that bucket's ACGGG, placed earlier in the read, still waiting in key
    # row 9, which then holds 2 keys, so row 9 is written first, and again
    # once the read puts its other 2 keys in: 24 + 1 = 25 writes, where
    # writing each read's rows at its end took 4 * 4 + 2 * 5 + 1 = 27. The
    # keys take key indices 0..95, two counter stripes of 64, so the stage
    # ends with two seed writes, and with no hit adds nothing:
    #   W = 25 row writes + 2 seeds = 27,  C_ADD = DPU = 17,  R = 0.
    # Imaging each checked miss first took 11 image writes in 11 batches:
    # W = 38. One write per key took W = 96 + 11 + 2 = 109.
    genome = distinct_window_genome(100, 5, random.Random(0))
    raw = [genome[i : i + 20] for i in range(0, 96, 16)]
    asm = BucketRecorder(rows=128, cols=64)
    table = asm.build_kmer_table([E(s) for s in raw], 5)
    assert table.total_kmers == table.distinct() == 96 and table.buckets == 304
    loads = Counter(Counter(bucket_of(table, key) for key in table.keys).values())
    assert loads == {1: 65, 2: 14, 3: 1}
    assert table.compares == sum(n * (n - 1) // 2 * m for n, m in loads.items()) == 17
    assert table.checked == sum((n - 1) * m for n, m in loads.items()) == 16
    assert asm.probed == [] and table.batches == table.image_writes == 0
    assert max(key_i for _, key_i in table.slots) == 95
    assert [bucket_of(table, E(key)) for key in ("ACGGG", "GGATT")] == [246, 246]
    rows = Counter(row for _, row, _ in asm.written)
    assert sorted(rows) == list(range(24)) and rows[9] == 2
    assert table.insert_writes == len(asm.written) == 24 + 1
    assert hashmap_totals(asm.trace) == {tr.R: 0, tr.W: 27, tr.C_ADD: 17, tr.DPU: 17}


@pytest.mark.parametrize(
    "length, k, read_len, stride, rows",
    [
        pytest.param(100, 5, 20, 16, 128, id="100-5-20-16"),
        pytest.param(400, 8, 30, 24, 128, id="400-8-30-24"),
        pytest.param(100, 5, 20, 16, 24, id="100-5-20-16-24x64"),
        pytest.param(400, 8, 30, 24, 24, id="400-8-30-24-24x64"),
    ],
)
def test_an_all_miss_stage_logs_at_most_slots_queries_per_image_write(
    length, k, read_len, stride, rows, caplog
):
    # Every k-mer read once, so every query is a miss, and each miss into a
    # bucket that holds keys is checked once: at its key row write when its
    # key goes into its bucket's one column, else in a probed batch. At 128
    # x 64 no column fills, so no batch is probed and no image is written,
    # and the log line reads 0 imaged queries per image write, where
    # counting every query but each bucket's first over max(image writes,
    # 1) read 16 and 94, the misses checked at their row write. At 24 x
    # 64, 4 key rows of 4 slots, columns fill and a bucket spans two, so
    # some misses are imaged. A batch's members fill disjoint columns of its
    # image, so a batch images at most `slots` queries, and distinct misses
    # never repeat an image, so each probed batch writes one.
    genome = distinct_window_genome(length, k, random.Random(0))
    raw = [genome[i : i + read_len] for i in range(0, length - read_len + 1, stride)]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="pimgasm.assembly"):
        table = make_asm(rows=rows).build_kmer_table([E(s) for s in raw], k)
    assert table.total_kmers == table.distinct()
    filled = len({bucket_of(table, key) for key in table.keys})
    assert table.checked + table.imaged == table.distinct() - filled
    checked = int(re.search(r"(\d+) misses checked at their key row write", caplog.text).group(1))
    logged = float(re.search(r"([\d.]+) imaged queries per image write", caplog.text).group(1))
    assert checked == table.checked > 0
    assert table.image_writes == table.batches and bool(table.batches) == (rows == 24)
    if table.image_writes:
        assert 1 <= logged <= table.layout.slots
    else:
        assert logged == table.imaged == 0


class ShareRecorder(BucketRecorder):
    """Also counts, per row write of new keys, the older written rows of
    each key whose miss check is due (`older`), and how many of those a key
    shares with an earlier due key of the same write (`shared`)."""

    def build_kmer_table(self, reads, k):
        self.older = self.shared = 0
        return super().build_kmer_table(reads, k)

    def _write_keys(self, table, group, row, keys):
        rows = [set(query.bucket.rows) for query in keys if query.due]
        self.older += sum(map(len, rows))
        self.shared += sum(map(len, rows)) - len(set().union(*rows))
        super()._write_keys(table, group, row, keys)


def test_an_all_miss_stage_compares_each_checked_key_row_against_its_older_rows():
    # The 400-base genome with distinct 8-mers above, at 128 x 64: 368
    # keys, all misses, in 2 groups, and no column fills. No miss joins a
    # batch, so no image is written. Each of the 94 misses into a bucket
    # that held keys is checked at its key row write, one compare per
    # older written row of its bucket, 114 in all, but a row that two due
    # keys of one write both need is compared once: twice here, so 112.
    genome = distinct_window_genome(400, 8, random.Random(0))
    raw = [genome[i : i + 30] for i in range(0, 371, 24)]
    asm = ShareRecorder(rows=128, cols=64)
    with patch.object(asm.machine, "mem_insert", wraps=asm.machine.mem_insert) as insert:
        table = asm.build_kmer_table([E(s) for s in raw], 8)
    assert table.total_kmers == table.distinct() == 368 and len(asm.groups) == 2
    assert asm.probed == [] and table.batches == table.image_writes == 0
    assert insert.call_count == table.insert_writes
    assert table.checked == 94 and (asm.older, asm.shared) == (114, 2)
    assert table.compares == asm.older - asm.shared == 112
    assert hashmap_totals(asm.trace)[tr.C_ADD] == 112


def test_a_bucket_that_spans_two_columns_images_its_misses():
    # 24 x 64 at k=5: 4 slots and 4 key rows, so a column fills after 4
    # keys and a group holds 16. The all-miss reads above take 7 groups
    # here. A miss whose key must leave its bucket's full column, or whose
    # bucket already spans two columns, cannot serve as its own image: it
    # joins a batch, imaged in its bucket's columns, and its key waits
    # only once that batch has compared. Every other miss into a bucket
    # that held keys is checked at its key row write. 5 misses take the
    # batched path and 24 the row check, and the counts equal a host
    # Counter.
    genome = distinct_window_genome(100, 5, random.Random(0))
    asm, table = _count([genome[i : i + 20] for i in range(0, 81, 16)], 5, **PACKED)
    lay = table.layout
    assert (lay.slots, len(lay.kmer_rows), len(asm.groups)) == (4, 4, 7)
    spanning = [bucket for bucket in asm.buckets if bucket.cols.bit_count() > 1]
    assert spanning and all(len(bucket.rows) > 1 for bucket in spanning)
    misses = [
        (cols, key_i) for batch in asm.probed for _, cols, key_i in batch if key_i is not None
    ]
    assert len(misses) == table.batches == table.image_writes == 5
    assert all(cols | 1 << key_i % lay.slots != 1 << key_i % lay.slots for cols, key_i in misses)
    filled = sum(1 for bucket in asm.buckets if bucket.cols)
    assert table.checked == table.distinct() - filled - len(misses) == 24


def test_a_hit_compares_its_bucket_rows_newest_first():
    # The 90 keys above, one read each, on 128 x 64 at k=5: two buckets hold
    # three keys, one key row each, in first-seen order; the first of them
    # is bucket 69, with TATCA, TGGAG and CGGAT in rows 4, 12 and 16. One
    # more read of one of the three is a hit alone in its batch, one image
    # write, and it compares the bucket's rows from the newest down to its
    # key's: one row for the newest key, all three for the oldest.
    seq = distinct_window_genome(94, 5, random.Random(0))
    kmers = [E(seq[i : i + 5]) for i in range(len(seq) - 4)]
    asm = BucketRecorder(rows=128, cols=64)
    base = asm.build_kmer_table(kmers, 5)
    buckets = [bucket_of(base, key) for key in kmers]
    three = [key for key, b in zip(kmers, buckets) if b == 69]
    assert [key.to_str() for key in three] == ["TATCA", "TGGAG", "CGGAT"]
    assert list(asm.buckets[69].rows) == [4, 12, 16]
    for key, rows in zip(three, (3, 2, 1)):
        table = make_asm().build_kmer_table(kmers + [key], 5)
        assert table.batches - base.batches == 1
        assert table.compares - base.compares == rows


def test_repeat_cost_oracle():
    # AAA observed three times in one read: its key goes into its empty
    # bucket at key row 0 and fills no column, so it joins the read's first
    # batch, which is not probed: no image, no compare. The key is written
    # from the query bits (1 W) when that batch would have compared. Two
    # hits follow, each keyed by its bucket's newest placed key row, 0.
    # Each must come after its bucket's last batch, so the first opens a
    # second batch for row 0 and the second a third, which run in order
    # after the key's write, each comparing the key's one row (1 C_ADD, 1
    # DPU). The first writes its image into a temp row (1 W); the second's
    # image is the same, AAA in the same column, so it compares against
    # that row and writes none (first-fit batches with one temp row wrote
    # both: W 6).
    # A k-mer repeated in one read is inserted once. The stage ends with
    # one seed write of counter plane 0 (1 W), then adds the pending +2.
    # 2 has one set bit, so it is one +1 at plane 1 of the key's 8-bit
    # counter: plane 1 of 1 holds 0, so the add carries
    # nowhere and stops there after one DPU reduce of its carry plane (2 W,
    # 1 C_ADD, 1 DPU; the whole +2 took 4 W and 2 C_ADD, the full ripple 16
    # W and 8 C_ADD):
    #   W = 1 + 1 + 1 + 2 = 5,  R = 0,  C_ADD = 2 + 1 = 3,  DPU = 2 + 1 = 3.
    asm = BucketRecorder(rows=128, cols=64)
    table = asm.build_kmer_table([E("AAAAA")], 3)
    assert asm.written == [(0, 0, [0])] and table.distinct() == 1
    assert (table.batches, table.image_writes, table.compares) == (2, 1, 2)
    assert hashmap_totals(asm.trace) == {tr.R: 0, tr.W: 5, tr.C_ADD: 3, tr.DPU: 3}
    assert table.frequencies()[E("AAA")] == 3


def test_a_hit_on_a_key_placed_in_its_read_follows_the_batch_that_placed_it():
    # ACGTACGT at k=4: every bucket starts empty, so the first four k-mers
    # are new keys that fill no column, and all join the read's first
    # batch, which is not probed; ACGT comes back as the read's last k-mer.
    # The hit is keyed by its bucket's newest placed key row, 0, and must
    # come after its bucket's last batch, the first, so it opens a second
    # batch, alone. That batch probes after the first batch's row write: it
    # finds the key, and ACGT counts 2. Had it probed before the write,
    # its compare would find no key and raise.
    asm = BucketRecorder(rows=128, cols=64)
    table = asm.build_kmer_table([E("ACGTACGT")], 4)
    assert [key.to_str() for key in table.keys] == ["ACGT", "CGTA", "GTAC", "TACG"]
    assert asm.written == [(0, 0, [0, 1, 2, 3])]
    assert asm.probed == [[(E("ACGT").bits, 0b0001, None)]]
    assert table.batches == table.compares == 1
    assert table.frequencies()[E("ACGT")] == 2


def test_a_key_row_takes_the_keys_of_two_batches_in_one_write():
    # Only a miss whose key must leave its bucket's column joins a batch, so
    # take the read of the mid-read column test below: 24 x 64 at k=5, 4
    # slots and 4 key rows, 16 buckets in the one group. CCGCA (bucket 9)
    # and GCAAC (bucket 12) find their buckets' column 0 full, AACCC
    # (bucket 6) its column 1, and bucket 9's CAACC then finds CCGCA's
    # column 2 full, so these four misses are imaged. CCGCA and AACCC
    # share batch 0, GCAAC's
    # image column clashes with CCGCA's and opens batch 1, and CAACC must
    # follow its bucket's last batch, 0, and clashes with batch 1, so it
    # opens batch 2. CCGCA (key index 10) and GCAAC (11) sit in key row 2,
    # and AACCC (15) and CAACC (13) in row 3. A miss's key joins the
    # waiting keys only once its batch has compared, so before batch 2
    # probes, bucket 9's row 2 is written with the keys of batches 0 and 1
    # in one write; before the hits' batches, row 3 takes those of batches
    # 0 and 2. Writing each batch's keys after it compared took 4 writes.
    asm = WaitRecorder(**PACKED)
    table = asm.build_kmer_table([E("CACGGGCCCACCCGCAACCCGCAA")], 5)
    keys = ("CCGCA", "AACCC", "GCAAC", "CAACC")
    assert [bucket_of(table, E(key)) for key in keys] == [9, 6, 12, 9]
    key_of = {key.to_str(): key_i for key, (_, key_i) in zip(table.keys, table.slots)}
    assert [key_of[key] for key in keys] == [10, 15, 11, 13]
    probes = [event for event in asm.events if event[0] == "probe"]
    assert probes[:3] == [("probe", [10, 15]), ("probe", [11]), ("probe", [13])]
    at = asm.events.index(("probe", [11]))
    assert asm.events[at + 1 : at + 5] == [
        ("write", 2, [10, 11]),
        ("probe", [13]),
        ("write", 3, [15, 13]),
        ("probe", [None]),
    ]
    check_each_key_written_once(asm, table)
    assert {key.to_str(): n for key, n in table.items()} == dict(
        Counter(s[i : i + 5] for s in ["CACGGGCCCACCCGCAACCCGCAA"] for i in range(20))
    )


class WaitRecorder(BucketRecorder):
    """Also logs, in order, each row write of new keys as ("write", key
    row, key indices), each probe as ("probe", its members' miss key
    indices, None for a hit) and, after each group's flush, the key rows
    still waiting as ("end", {key row: key indices})."""

    def build_kmer_table(self, reads, k):
        self.events = []
        return super().build_kmer_table(reads, k)

    def _write_keys(self, table, group, row, keys):
        self.events.append(("write", row, [query.key_i for query in keys]))
        super()._write_keys(table, group, row, keys)

    def _probe(self, group, batch, lay):
        self.events.append(("probe", [query.key_i for query in batch]))
        return super()._probe(group, batch, lay)

    def _flush(self, table, group, pending):
        super()._flush(table, group, pending)
        waiting = {row: [query.key_i for query in keys] for row, keys in group.waiting.items()}
        self.events.append(("end", waiting))


def test_distinct_keys_over_many_reads_write_each_key_row_once():
    # The 77 keys that come first in their bucket of the 304 at 128 x 64,
    # k=5, each read on its own: each goes into its empty bucket, at the
    # least-filled column, so they fill key rows 0 to 18 and put one key in
    # row 19, and no batch is probed. A key row waits until every column has
    # passed it, and is then written at that read's end, with its 4 keys:
    # one write per key row that holds keys, 20, where writing each read's
    # row at its end took 77. Row 19's one key waits until the stage's end.
    keys = bucket_firsts(304)
    asm, table = _count([key.to_str() for key in keys], 5, rows=128, cols=64)
    assert table.batches == 0 and table.distinct() == 77
    rows = [row for _, row, _ in asm.written]
    assert rows == list(range(20)) and table.insert_writes == 20
    assert [len(ids) for _, _, ids in asm.written] == [4] * 19 + [1]
    assert table.waiting_rows_held == 1


def test_a_key_hit_in_a_later_read_is_written_before_that_read_probes():
    # 128 x 64 at k=5. CGTAC, the first read, goes into its empty bucket
    # 125 at key row 0, column 0 (key index 0); the row waits, since three
    # columns have not reached it. The second read, TTCGTAC, puts TTCGT and
    # TCGTA into empty buckets at row 0, columns 1 and 2 (key indices 1 and
    # 2), in its first batch, which is not probed; then CGTAC is a hit in
    # the read's second batch. Before it probes, row 0 is written with the
    # three keys waiting in it, those of both reads, in one write (writing
    # each read's rows at its end took two), and the hit finds CGTAC.
    asm = WaitRecorder(rows=128, cols=64)
    table = asm.build_kmer_table([E("CGTAC"), E("TTCGTAC")], 5)
    assert [bucket_of(table, key) for key in table.keys] == [125, 3, 55]
    assert asm.events == [
        ("end", {0: [0]}),
        ("write", 0, [0, 1, 2]),
        ("probe", [None]),
        ("end", {}),
    ]
    assert table.insert_writes == 1 and table.waiting_rows_held == 1
    assert {key.to_str(): n for key, n in table.items()} == {"CGTAC": 2, "TTCGT": 1, "TCGTA": 1}


def test_a_partial_key_row_left_by_the_last_read_is_written_at_the_stage_end():
    # The insert oracle's two reads: CGTGTGCA fills key row 0, which every
    # column has then passed, so the read's end writes it. ACGTCA puts
    # keys 5 and 4 in row 1 with no probe, but columns 2 and 3 stay at row
    # 1 (fills 2, 2, 1 and 1), so the last read ends with row 1 waiting.
    # The stage's end writes it, and checks key 5's miss there, before any
    # counter, and build_graph finds every label in place and every count
    # exact.
    asm = WaitRecorder(rows=128, cols=64)
    table = asm.build_kmer_table([E("CGTGTGCA"), E("ACGTCA")], 5)
    assert asm.events == [
        ("write", 0, [0, 1, 2, 3]),
        ("end", {}),
        ("end", {1: [5, 4]}),
        ("write", 1, [5, 4]),
    ]
    g = asm.build_graph(table)
    assert g.edge_count == table.distinct() == 6
    assert {key.to_str(): n for key, n in table.frequencies().items()} == dict.fromkeys(
        ["CGTGT", "GTGTG", "TGTGC", "GTGCA", "ACGTC", "CGTCA"], 1
    )


def test_a_miss_whose_bucket_key_waits_writes_and_checks_that_row_first():
    # TATCA, TGGAG and CGGAT share bucket 69 of the 304 at 128 x 64, k=5,
    # each read on its own. TATCA goes into the empty bucket at the
    # least-filled column, 0, key row 0, with no check due, and waits:
    # columns 1 to 3 have not passed row 0. TGGAG goes into column 0 at row
    # 1, with its check due; its bucket's key waits, so row 0 is written
    # first. CGGAT, into column 0 at row 2, finds TGGAG waiting: row 1 is
    # written and compared with row 0, TGGAG's check, before CGGAT's own
    # row write at the stage's end compares row 2 with rows 0 and 1.
    keys = [E(key) for key in ("TATCA", "TGGAG", "CGGAT")]
    asm = WaitRecorder(rows=128, cols=64)
    cmp = asm.machine.cmp
    start = mapping.layout_hash((128, 64), 5).kmer_rows.start

    def record(a, b):
        asm.events.append(("cmp", a.row - start, b.row - start))
        return cmp(a, b)

    with patch.object(asm.machine, "cmp", record):
        table = asm.build_kmer_table(keys, 5)
    assert {bucket_of(table, key) for key in keys} == {69}
    assert [key_i for _, key_i in table.slots] == [0, 4, 8]
    assert asm.events == [
        ("end", {0: [0]}),
        ("write", 0, [0]),
        ("end", {1: [4]}),
        ("write", 1, [4]),
        ("cmp", 1, 0),
        ("end", {2: [8]}),
        ("write", 2, [8]),
        ("cmp", 2, 0),
        ("cmp", 2, 1),
    ]
    assert (table.batches, table.checked, table.compares) == (0, 2, 3)


class OneBatchPerRead(Assembler):
    """Breaks the batching rule: merges a group's open batches into one
    before they run, so two queries of one bucket may share it."""

    def _flush(self, table, group, pending):
        if group.batches:
            group.batches = [[query for batch in group.batches for query in batch]]
            group.busy = [functools.reduce(operator.or_, group.busy)]
        super()._flush(table, group, pending)


def test_a_batch_whose_members_share_an_image_column_raises():
    # AAAAA at k=3 (the repeat oracle): AAA's key goes into column 0, and
    # its two hits each image it there, in batches of their own. Merged
    # into one batch, the two hits overwrite each other's column of the
    # image, and the probe raises before it writes its image: the stage's
    # one W is the write of AAA's key row, which the batch needs first.
    asm = OneBatchPerRead(rows=128, cols=64)
    with pytest.raises(ConsistencyError, match="two members of a batch share an image column"):
        asm.build_kmer_table([E("AAAAA")], 3)
    assert asm.trace.total(tr.W, stage=tr.STAGE_HASHMAP) == 1


def test_a_corrupted_key_in_a_row_write_raises():
    # CGTGTGCA at k=5 writes its four keys with one masked write of key
    # row 0, slots of 16 columns. A write that flips one bit of the third
    # key in that row, and only there, must fail the insert check.
    write = SubArray.write_masked

    def flip_third_key(self, row, value, mask):
        if mask.bit_count() > 2 * 5:  # a row write of several keys
            value ^= 1 << (2 * 16)
        write(self, row, value, mask)

    asm = make_asm()
    with patch.object(SubArray, "write_masked", flip_third_key):
        with pytest.raises(ConsistencyError, match="inserted key bits corrupted"):
            asm.build_kmer_table([E("CGTGTGCA")], 5)


def probed_rows(reads, k, cls=Assembler, rows=128, cols=64):
    """Build the table, returning it with the temp rows and the row each
    compare took its image from, in order."""
    asm = cls(rows=rows, cols=cols)
    with patch.object(asm.machine, "cmp", wraps=asm.machine.cmp) as cmp:
        table = asm.build_kmer_table(reads, k)
    temp = table.layout.row_layout.temp_rows
    return table, temp, [call.args[0].row for call in cmp.call_args_list]


def test_a_repeated_image_skips_its_write_and_compares_against_its_row():
    # AAAAA at k=3, as in the oracle above: the two hits on AAA image the
    # same key in the same column. The first batch writes the image into the
    # first temp row; the second finds it there, writes nothing, and
    # compares the key's row against that temp row.
    table, temp, rows = probed_rows([E("AAAAA")], 3)
    assert len(temp) == 8
    assert (table.batches, table.image_writes) == (2, 1)
    assert rows == [temp[0], temp[0]]


def bucket_firsts(buckets):
    """Those of the 90 distinct 5-mers of the 94-base genome above that
    come first in their bucket, out of `buckets`, in read order."""
    seq = distinct_window_genome(94, 5, random.Random(0))
    first: dict[int, EncodedSeq] = {}  # bucket -> its first key
    for key in (E(seq[i : i + 5]) for i in range(len(seq) - 4)):
        first.setdefault(mapping.stable_hash(key.bits, 10) % buckets, key)
    return list(first.values())


def test_a_ninth_distinct_image_takes_the_top_free_key_row():
    # Nine keys in nine buckets of the one group at 128 x 64, k=5, each read
    # on its own, so each goes in with no image, into the least-filled
    # column: the columns hold 3, 2, 2 and 2 keys. Read again one by one,
    # each is a hit alone in its batch, imaging its own key. The first
    # eight fill the eight temp rows in order, and the ninth takes the top
    # key row, 75, which no column reaches. A hit on the second key then
    # reuses its temp row, and one on the first key its own: nothing is
    # evicted, so 9 image writes, where the 8 temp rows alone took 10.
    nine = bucket_firsts(304)[:9]
    table, temp, rows = probed_rows(nine + nine + nine[1:2] + nine[:1], 5)
    assert (table.buckets, table.batches, table.image_writes) == (304, 11, 9)
    assert table.layout.kmer_rows[-1] == 75
    assert rows == [*temp, 75, temp[1], temp[0]]
    assert table.image_rows_held == 9


def test_images_fill_every_free_row_before_the_least_recently_used_is_evicted():
    # The 77 keys that come first in their bucket of the 304 at 128 x 64,
    # k=5, each read on its own: they go in with no image, and the columns
    # hold 20, 19, 19 and 19 keys, so key rows 20 to 75 hold no key. Read
    # again one by one, each key is a hit alone in its batch
    # with an image of its own. The group's 8 temp rows and its 56 free key
    # rows, 75 down to 20, take the first 64 images in that order; from
    # then on every row holds an image, and each of the last 13 evicts the
    # least recently used, which is the oldest: temp rows 0 to 7, then key
    # rows 75 to 71.
    keys = bucket_firsts(304)
    table, temp, rows = probed_rows(keys + keys, 5, cls=BucketRecorder)
    assert len(keys) == table.distinct() == 77
    per_column = Counter(key_i % table.layout.slots for _, key_i in table.slots)
    assert [per_column[col] for col in range(4)] == [20, 19, 19, 19]
    pool = [*temp, *range(75, 19, -1)]
    assert len(pool) == 64
    assert (table.batches, table.image_writes) == (77, 77)
    assert rows == pool + pool[:13]
    assert table.image_rows_held == 64


def test_a_key_placed_in_a_row_that_holds_an_image_drops_the_image():
    # 24 x 64 at k=5: 4 slots and 4 key rows, 16 buckets in the one group.
    # Thirteen keys, each first in its bucket, read on their own: the first
    # nine go in with no image, column by column, so the columns hold 3, 2,
    # 2 and 2 keys (the ninth at row 2 of column 0), and key row 3 holds
    # none. Read again one by one, the nine hits image their own keys: the
    # first eight into the 8 temp rows, the ninth into key row 3. The next
    # three keys fill row 2 of columns 1 to 3, and the thirteenth goes into
    # column 0 at row 3: the row's image is dropped, and the key's masked
    # write puts it there. Its hit finds it in row 3; no key row is free
    # now, so the hit's image evicts the least recently used, in temp row
    # 0. The ninth key's image went with row 3, so its next hit writes it
    # again, over temp row 1. Every count is exact.
    keys = bucket_firsts(16)[:13]
    reads = keys[:9] + keys[:9] + keys[9:] + keys[12:] + keys[8:9]
    table, temp, rows = probed_rows(reads, 5, cls=BucketRecorder, rows=24)
    lay = table.layout
    assert (lay.slots, len(lay.kmer_rows), table.buckets) == (4, 4, 16)
    assert table.slots[8] == (0, 8) and table.slots[12] == (0, 12)  # rows 2 and 3
    assert rows == [*temp, 3, temp[0], temp[1]]
    assert (table.batches, table.image_writes) == (11, 11)
    assert table.machine.subarray(0).cells[3] & (1 << 10) - 1 == keys[12].bits
    expected = Counter(key.to_str() for key in reads)
    assert {key.to_str(): n for key, n in table.items()} == dict(expected)


def test_two_hits_in_one_key_row_share_one_batch_and_one_compare():
    # CGTGTGCA at k=5 puts its four keys, in four buckets, in key row 0,
    # columns 0 to 3 (see the insert oracle above). Read again, its four
    # hits join the batch for row 0, whose image holds each in its own
    # column: one batch, one image write and one compare of row 0.
    table, temp, rows = probed_rows([E("CGTGTGCA")] * 2, 5)
    assert table.slots == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert (table.batches, table.image_writes, table.compares) == (1, 1, 1)
    assert rows == [temp[0]]
    assert {key.to_str(): n for key, n in table.items()} == dict.fromkeys(
        ["CGTGT", "GTGTG", "TGTGC", "GTGCA"], 2
    )


class NoImageReuse(Assembler):
    """Forgets the images its temp rows and free key rows hold before every
    probe, so every batch writes its image."""

    def _probe(self, group, batch, lay):
        group.held.clear()
        return super()._probe(group, batch, lay)


def test_image_reuse_cuts_hashmap_w_by_exactly_the_images_reused():
    # 46 reads of 20 bases at stride 4 over a 200-base genome, at 128 x 64
    # and k=5: a batch that finds its image in a temp row or a free key row
    # writes nothing and compares the same rows, so the hashmap W row falls
    # by exactly the batches that reused an image, 76 of 232, and nothing
    # else moves. The 52 misses checked at their key row write join no
    # batch; imaging them too made 239 batches, 67 of which reused an
    # image (62 when only the 8 temp rows held images).
    reads = [E(r) for r in tile_reads(random_genome(200, random.Random(1)), 20, 4)]
    runs = []
    for cls in (Assembler, NoImageReuse):
        asm = cls(rows=128, cols=64)
        runs.append((asm.build_kmer_table(reads, 5), hashmap_totals(asm.trace)))
    (reused, a), (written, b) = runs
    assert (reused.batches, reused.image_writes, reused.checked) == (232, 156, 52)
    assert (written.batches, written.image_writes) == (232, 232)
    assert b[tr.W] - a[tr.W] == reused.batches - reused.image_writes == 76
    assert (a[tr.R], a[tr.C_ADD], a[tr.DPU]) == (b[tr.R], b[tr.C_ADD], b[tr.DPU])
    assert reused.compares == written.compares
    assert dict(reused.items()) == dict(written.items())


def test_every_hashmap_write_is_a_machine_instruction():
    # The reads of the image reuse test above, at 128 x 64 and k=5, have
    # hits, batches that reuse a held image and misses checked at their key
    # row write, in fabric but with no W. Every W the hash stage emits comes from
    # mem_insert (key rows and images), write_vwords (counter seeds) or
    # add_const_cols (counter adds), and mem_insert runs once per key row
    # write and image write.
    reads = [E(r) for r in tile_reads(random_genome(200, random.Random(1)), 20, 4)]
    asm = Assembler(rows=128, cols=64)
    m = asm.machine
    emitted, calls = Counter(), Counter()

    def hashmap_w():
        return m.trace.total(tr.W, stage=tr.STAGE_HASHMAP)

    def record(name):
        op = getattr(m, name)

        def recorded(*args, **kwargs):
            before = hashmap_w()
            out = op(*args, **kwargs)
            emitted[name] += hashmap_w() - before
            calls[name] += 1
            return out

        return recorded

    ops = ("mem_insert", "write_vwords", "add_const_cols")
    with patch.multiple(m, **{name: record(name) for name in ops}):
        table = asm.build_kmer_table(reads, 5)
    assert table.total_kmers > table.distinct() > 0
    assert table.image_writes < table.batches and table.checked > 0
    assert sum(emitted.values()) == hashmap_w() > 0
    assert calls["mem_insert"] == emitted["mem_insert"] == table.insert_writes + table.image_writes


def _count_seeding(asm, reads, k, caplog):
    """Build the table, recording each write_vwords call (sid, lsb, width,
    columns) and the counter-seed writes the table's log line reports."""
    calls = []
    write = asm.machine.write_vwords

    def record(sid, lsb, width, words):
        calls.append((sid, lsb, width, sorted(words)))
        write(sid, lsb, width, words)

    caplog.clear()
    with patch.object(asm.machine, "write_vwords", record), caplog.at_level(
        logging.INFO, logger="pimgasm.assembly"
    ):
        table = asm.build_kmer_table([E(s) for s in reads], k)
    seeds = int(re.search(r"(\d+) counter-seed writes", caplog.text).group(1))
    return table, calls, seeds


def test_a_read_seeds_its_new_counters_once_per_sub_array_stripe(caplog):
    # A new key's counter word is zero, so one masked write of counter
    # plane 0 (a 1-bit write_vwords, 1 W) starts every new counter of a
    # (sub-array, stripe) at one, whatever their number. The writes run
    # once, after the last read, for every key. A key's counter sits at
    # its key index's counter location, so the write's columns are its
    # keys' key indices modulo cols.
    # CGTGTGCA at k=5 on 128 x 64: four new keys in key row 0, key indices
    # 0..3, so counters 0..3 of stripe 0 of one sub-array, one seed write.
    asm = make_asm()
    table, calls, seeds = _count_seeding(asm, ["CGTGTGCA"], 5, caplog)
    lsb0 = table.layout.value_rows.start
    assert calls == [(0, lsb0, 1, [0, 1, 2, 3])] and seeds == 1
    # 64 x 16 at k=5: one key per row and 16-column stripes, so a read of
    # 20 distinct keys fills stripe 0 and starts stripe 1: two writes.
    genome = distinct_window_genome(24, 5, random.Random(5))
    asm = make_asm(rows=64, cols=16)
    table, calls, seeds = _count_seeding(asm, [genome], 5, caplog)
    assert table.distinct() == 20 and asm.machine.subarray_count == 1
    lsb0 = table.layout.value_rows.start
    lsb1 = lsb0 + table.layout.value_width
    assert calls == [(0, lsb0, 1, list(range(16))), (0, lsb1, 1, list(range(4)))]
    assert seeds == 2
    # 24 x 64 at k=5: 16 keys and one counter stripe per sub-array, so 26
    # distinct keys take two groups, and the read seeds each sub-array's
    # stripe once, in the columns of its keys' key indices: the first
    # group's 13 keys fill key rows 0 to 2 and column 2 of row 3 (key
    # index 14), the second group's 13 rows 0 to 2 and column 0 of row 3
    genome = distinct_window_genome(30, 5, random.Random(5))
    asm = make_asm(**PACKED)
    table, calls, seeds = _count_seeding(asm, [genome], 5, caplog)
    assert table.distinct() == 26 and asm.machine.subarray_count == 2
    lsb0 = table.layout.value_rows.start
    assert sorted(calls) == [
        (0, lsb0, 1, [*range(12), 14]),
        (1, lsb0, 1, list(range(13))),
    ]
    assert seeds == 2
    check_counters_at_key_indices(asm, table)
    # a second read with no new key adds nothing to the stage's seeds, and
    # a second read with new keys in the same stripes shares their writes
    table, calls, seeds = _count_seeding(make_asm(**PACKED), [genome, genome], 5, caplog)
    assert len(calls) == seeds == 2
    halves = [genome[:15], genome[11:]]
    table, calls, seeds = _count_seeding(make_asm(**PACKED), halves, 5, caplog)
    assert table.distinct() == 26 and len(calls) == seeds == 2


@pytest.mark.parametrize("raw", [["ACGTACGTTT"], ["AAAAAAA", "CACACAC"], ["GATTGATTGATTGA"]])
def test_a_key_inserted_and_hit_in_one_read_reads_back_its_exact_count(raw):
    # Each read here holds k-mers that are new and then repeat 2 to 4 times
    # within it. The seed write sets only plane 0, so it must land before
    # the stage's adds: after them, a +1 on a zero word would read back 1,
    # not 2, and a +3 would read 3, not 4.
    k = 4
    expected = Counter(s[i : i + k] for s in raw for i in range(len(s) - k + 1))
    assert max(expected.values()) >= 2
    table = make_asm(**PACKED).build_kmer_table([E(s) for s in raw], k)
    assert {key.to_str(): n for key, n in table.frequencies().items()} == dict(expected)


def test_overlapping_reads_count_like_a_host_counter():
    # shared k-mers within and across reads are hits, found by the fabric
    # compare of their buckets' rows; keys stay in first-seen order
    raw = ["CGTGTGCAACGT", "TTACGTGTGC", "CGTGTGCA"]
    table = make_asm().build_kmer_table([E(s) for s in raw], 4)
    kmers = [s[i : i + 4] for s in raw for i in range(len(s) - 3)]
    assert [key.to_str() for key in table.keys] == list(dict.fromkeys(kmers))
    assert {key.to_str(): n for key, n in table.items()} == dict(Counter(kmers))


def check_counters_at_key_indices(asm, table):
    """A key's counter index is its key index: each key's counter word,
    read from the cells (untraced) at counter_location(its key index) in
    its own sub-array, holds its count, and no other counter bit of a hash
    sub-array is set. Call it before any stage after the hash stage."""
    lay = table.layout
    ones = Counter()
    for key, (sid, key_i) in zip(table.keys, table.slots):
        lsb, col = lay.counter_location(key_i)
        cells = asm.machine.subarray(sid).cells
        word = sum((cells[lsb + p] >> col & 1) << p for p in range(lay.value_width))
        assert word == table.host_counts[key.bits]
        ones[sid] += word.bit_count()
    for sid in range(asm.machine.subarray_count):
        cells = asm.machine.subarray(sid).cells
        assert sum(cells[row].bit_count() for row in lay.value_rows) == ones[sid]


def check_one_sub_array_per_group(asm, table):
    """Every hash group is one sub-array of its own, holding
    one bucket per key slot, and the hash stage takes nothing else. Every
    key sits in its group's sub-array, in a slot of the bucket its hash
    names, no slot in two buckets; no group holds more than its capacity,
    and every column fills its key rows from the top, in first-seen order.
    Every key counts at its own key index (check_counters_at_key_indices).
    """
    lay = table.layout
    groups, buckets = asm.groups, asm.buckets
    assert len(buckets) == table.buckets == len(groups) * lay.capacity
    assert sorted(group.sid for group in groups) == list(range(asm.machine.subarray_count))
    for group in groups:
        assert sum(bucket.group is group for bucket in buckets) == lay.capacity
        assert max(group.fill) <= len(lay.kmer_rows)
        assert sum(group.fill) == [sid for sid, _ in table.slots].count(group.sid)
        assert sum(group.fill) <= lay.capacity
    check_counters_at_key_indices(asm, table)
    slots = {}
    for bucket in buckets:
        for row, own in bucket.rows.items():
            for col in range(lay.slots):
                if own >> col & 1:
                    assert (bucket.group.sid, row, col) not in slots
                    slots[bucket.group.sid, row, col] = bucket
    assert len(slots) == table.distinct()
    per_column = {}
    for key, (sid, key_i) in zip(table.keys, table.slots):
        row, col = divmod(key_i, lay.slots)
        assert slots[sid, row, col] is buckets[bucket_of(table, key)]
        per_column.setdefault((sid, col), []).append(row)
    assert all(rows == list(range(len(rows))) for rows in per_column.values())


def check_each_key_written_once(asm, table):
    """Every key went into the fabric in exactly one row write, the one of
    its own sub-array and key row, and each row write carries its keys
    once (BucketRecorder.written)."""
    written = Counter(
        (sid, row, key_i) for sid, row, ids in asm.written for key_i in ids
    )
    slots = table.layout.slots
    assert written == Counter((sid, key_i // slots, key_i) for sid, key_i in table.slots)
    assert len(asm.written) == table.insert_writes


def _count(raw, k, **kw):
    """Count the reads' k-mers; check the counts against a host Counter,
    that each key was written once, in its own key row, and that every
    group kept to its one sub-array."""
    enc = [E(s) for s in raw]
    expected = Counter(s[i : i + k] for s in raw for i in range(len(s) - k + 1))
    asm = BucketRecorder(**kw)
    table = asm.build_kmer_table(enc, k)
    # a k-mer repeated in one read, or in several, is inserted once
    assert table.distinct() == len(expected)
    check_each_key_written_once(asm, table)
    assert {key.to_str(): n for key, n in table.items()} == dict(expected)
    check_one_sub_array_per_group(asm, table)
    return asm, table


# 24 x 64 sub-arrays hold 4 key rows of 4 to 16 slots for k = 2..8, so
# larger read sets take many groups, and hash collisions can overfill one
PACKED = dict(rows=24, cols=64)


@given(
    reads=st.lists(st.text(alphabet="ACGT", min_size=1, max_size=40), min_size=1, max_size=10),
    poly_a=st.integers(min_value=0, max_value=12),
    at=st.integers(min_value=0, max_value=10),
    k=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_packed_rows_count_like_a_host_counter(reads, poly_a, at, k):
    # the all-A key packs to 0, like an empty slot
    raw = list(reads)
    raw.insert(min(at, len(raw)), "A" * (k + poly_a))
    _count(raw, k, **PACKED)


def test_a_key_placed_in_a_new_column_mid_read_is_found_by_its_next_hit():
    # 24 x 64 at k=5: 4 slots and 4 key rows, so 16 keys and 16 buckets in
    # the one group, and a column holds 4 keys. Bucket 9's first key ACCCG
    # takes column 0, the least filled, at row 2, and CCCGC fills column 0
    # at row 3. So CCGCA, new to bucket 9 later in the same read, takes the
    # least-filled column 2, at row 2 (key index 10), and bucket 9 reserves
    # column 2 from then on; CAACC, its next new key, finds column 2 full
    # too and takes column 1. The read then holds CCGCA again: that hit
    # joins a batch after the miss's, imaged in columns 0, 1 and 2, and
    # finds the key the miss wrote in column 2. Were a column reserved only
    # when its key is written, the hit's image would leave out column 2,
    # and its compare would find no key.
    asm, table = _count(["CACGGGCCCACCCGCAACCCGCAA"], 5, **PACKED)
    lay = table.layout
    assert (lay.slots, len(lay.kmer_rows), table.buckets) == (4, 4, 16)
    keys = ("ACCCG", "CCCGC", "CCGCA")
    assert [bucket_of(table, E(key)) for key in keys] == [9, 9, 9]
    where = {key.to_str(): divmod(key_i, lay.slots) for key, (_, key_i) in zip(table.keys, table.slots)}
    assert [where[key] for key in keys] == [(2, 0), (3, 0), (2, 2)]
    ccgca = E("CCGCA").bits
    probes = [(cols, key_i) for batch in asm.probed for bits, cols, key_i in batch if bits == ccgca]
    assert probes == [(0b0001, 10), (0b0111, None)]


# reads that repeat a stretch of themselves, so that keys new in a read are
# often hit again in that read
self_repeating_reads = st.lists(
    st.tuples(st.text(alphabet="ACGT", min_size=1, max_size=30), st.integers(0, 30), st.integers(0, 12)),
    min_size=1,
    max_size=6,
).map(lambda reads: [s + s[i : i + n] for s, i, n in reads])


@given(
    reads=self_repeating_reads,
    rows=st.integers(min_value=21, max_value=40),
    cols=st.sampled_from([16, 32, 64]),
    k=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=60, deadline=None)
@example(reads=["AAAACGACA"], rows=21, cols=16, k=2)
@example(reads=["ACGTACGT"], rows=21, cols=16, k=4)
@example(reads=["GTCATAGCCAT", "AAGGGTCAAGGTAGGTCAAG", "TT"], rows=34, cols=16, k=2)
def test_packed_newest_first_probes_count_like_a_host_counter(reads, rows, cols, k):
    # 21 to 40 rows of 16 to 64 columns: 1 to 16 slots per key row and 1 to
    # 20 key rows, so columns fill inside a read and keys move to new ones.
    # Each read's hits join the batch for their bucket's newest placed key
    # row, its misses pack first-fit, and a hit scans
    # newest first; the counts match a host Counter, every key is written
    # once, and no batch images two members into one column, leaves a
    # column a member reads out of its image or holds its image in a key
    # row that holds a key (BucketRecorder._probe). The
    # first example is a read in which a miss would first-fit into a batch
    # before its bucket's row-keyed hit, had a query not to join a batch
    # after its bucket's last one: the hit's image would then leave out the
    # new key's column. The second holds ACGT twice, its first copy a new
    # key into an empty bucket, so its second copy is a hit probed after
    # the batch that writes that key. In the third, at 34 x 16 and k=2 (4 slots, 6
    # key rows), the first two reads fill no column past key row 2 and
    # leave images in the 8 temp rows and in key rows 5 to 3; TT, new to a
    # bucket of column 0, then goes into row 3, which drops that row's
    # image, and BucketRecorder checks that no later image takes it.
    raw = [s for s in reads if len(s) >= k]
    assume(raw and not (k == 2 and 25 <= rows <= 28))
    _count(raw, k, rows=rows, cols=cols)


def test_one_key_sub_arrays_take_groups_past_four_times_the_fewest():
    # A draw of the test above: 21 x 16 at k=6 holds one key per
    # sub-array (a 12-bit key per 16-column row, one key row beside one
    # counter stripe), so a group is one bucket, and the reads' 10 distinct
    # 6-mers need 10 hashes in distinct groups. They first are at 53
    # groups, past four times the fewest, where the directory's search once
    # stopped and raised CapacityError.
    asm, table = _count(["ACCCCCTCCCCC", "GCCATCCC"], 6, rows=21, cols=16)
    assert (table.layout.capacity, table.distinct()) == (1, 10)
    assert asm.machine.subarray_count == len(asm.groups) == table.buckets == 53


def test_packed_rows_take_more_groups_than_the_fewest():
    # 151 distinct 6-mers, 16 keys per sub-array (4 key rows of 4 slots,
    # one counter stripe) and 16 buckets per group. The fewest groups, 10,
    # would hold them, but a group's share of so few hashes varies as much
    # as its capacity: the fullest group is hashed 20 keys at 10 groups, 21
    # at 11, 17 at 12, 19 at 13, 17 at 14 and 18 at 15, so the directory
    # goes on up to 16 groups, whose fullest is hashed 14. (At 8 buckets
    # per group it took 14, and the directory that packed padded buckets
    # into groups took 12.)
    rng = random.Random(3)
    genome = "".join(rng.choice("ACGT") for _ in range(160))
    raw = [genome[i : i + 40] for i in range(0, 121, 20)] + ["A" * 9, genome[:30]]
    asm, table = _count(raw, 6, **PACKED)
    assert (table.layout.slots, table.layout.capacity, table.distinct()) == (4, 16, 151)
    assert asm.machine.subarray_count == len(asm.groups) == 16
    assert max(sum(group.fill) for group in asm.groups) == 14


@given(
    reads=st.lists(st.text(alphabet="ACGT", min_size=1, max_size=60), min_size=1, max_size=12),
    rows=st.integers(min_value=24, max_value=64),
    k=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 12, 20]),
)
@settings(max_examples=40, deadline=None)
def test_the_bucket_directory_never_costs_sub_arrays(reads, rows, k):
    # 24 to 64 rows of 64 columns give 1 to 16 slots per key row (16 at
    # k=2, 1 at k=20), 1 to 44 key rows and 1 to 5 counter stripes (at 16
    # slots, 25 to 28 rows leave no key row beside two stripes). Keys
    # are placed by column, so a group holds any keys up to its capacity
    # however its buckets share them: the store takes the fewest groups at
    # which no group is hashed more, and each group is one sub-array. These
    # read sets take one group or several, from the fewest up
    raw = [s for s in reads if len(s) >= k]
    assume(raw and not (k == 2 and 25 <= rows <= 28))
    asm, table = _count(raw, k, rows=rows, cols=64)
    lay = table.layout
    hashes = [mapping.stable_hash(key.bits, 2 * k) for key in table.keys]
    least = -(-table.distinct() // lay.capacity)
    fits = [
        groups
        for groups in range(least, len(asm.groups) + 1)
        if max(group_keys(lay, hashes, groups).values()) <= lay.capacity
    ]
    assert fits[0] == len(asm.groups)


# 64 x 64 at k=5: 28 key rows of 4 slots, so 112 keys and 112 buckets per
# group, and 3 counter stripes. Each read set but one takes the fewest
# groups, ceil(keys / 112), and the keys each group is hashed fit it:
#   150: 140 keys, 2 groups of 73 and 67
#   220: 196 keys, 2 groups of 99 and 97
#   230: 207 keys, 2 groups of 100 and 107 (the second fills column 0,
#        so its later buckets spill into other columns)
#   250: 220 keys; 2 groups would be hashed 120 and 100, more than 112,
#        so it takes 3, of 63, 75 and 82
#   300: 257 keys, 3 groups of 85, 88 and 84
#   420: 354 keys, 4 groups of 84, 88, 85 and 97
# A bucket's first key takes the least-filled column and its later keys
# stay there while it has room, so each group's columns fill evenly, as
# pinned here (keys per column, group by group). At 56 buckets per group
# 250 took the fewest, 2 groups of 108 and 112; the directory of padded
# bucket rows took 3.
DIRECTORY_TAKEN = {
    150: ((19, 18, 18, 18), (17, 17, 17, 16)),
    220: ((25, 26, 24, 24), (25, 24, 24, 24)),
    230: ((24, 24, 24, 28), (28, 27, 26, 26)),
    250: ((16, 16, 15, 16), (19, 19, 19, 18), (21, 21, 20, 20)),
    300: ((22, 21, 21, 21), (22, 22, 22, 22), (23, 20, 20, 21)),
    420: ((22, 21, 20, 21), (22, 23, 22, 21), (22, 21, 21, 21), (24, 24, 25, 24)),
}


def tiled_reads(length):
    """30-base windows every 10 bases of a random genome of this length."""
    genome = random_genome(length, random.Random(length))
    return [genome[i : i + 30] for i in range(0, length - 29, 10)]


@pytest.mark.parametrize("length", list(DIRECTORY_TAKEN))
def test_buckets_stay_inside_their_group(length):
    asm, table = _count(tiled_reads(length), 5, rows=64, cols=64)
    assert tuple(tuple(group.fill) for group in asm.groups) == DIRECTORY_TAKEN[length]
    fewest = -(-table.distinct() // table.layout.capacity)
    assert len(asm.groups) == fewest + (length == 250)
    assert asm.machine.subarray_count == len(asm.groups)


def test_colliding_hashes_beyond_a_sub_array_raise():
    # forged hashes: every key in bucket 0, and 196 distinct keys (length
    # 220) are more than the 112 one sub-array holds
    asm = make_asm(rows=64, cols=64)
    with patch.object(mapping, "stable_hash", lambda bits, length=0, seed=0: 0):
        with pytest.raises(CapacityError, match="196 key hashes fit no bucket directory"):
            asm.build_kmer_table([E(s) for s in tiled_reads(220)], 5)
    assert asm.machine.subarray_count == 0


def test_each_key_counts_at_its_own_key_index():
    # A key's counter index is its key index, row * slots + slot, whatever
    # its bucket. At length 300 the three groups hold 85, 88 and 84 keys in
    # columns filled unevenly (22, 21, 21, 21 keys; 22 each; 23, 20, 20,
    # 21), so their highest key indices are 84, 87 and 88 (keys reach the
    # third sub-array first, then the second). frequencies reads each
    # counter stripe that holds a key once, value_width R each. Every key
    # row up to a group's fullest column's holds a key, so those are its
    # stripes up to its highest key index: 88 // 64 + 1 = 2, 2 and 2 here.
    raw = tiled_reads(300)
    asm = BucketRecorder(rows=64, cols=64)
    table = asm.build_kmer_table([E(s) for s in raw], 5)
    lay = table.layout
    assert len(asm.groups) == 3
    check_counters_at_key_indices(asm, table)
    per_sid = {}
    for sid, key_i in table.slots:
        per_sid.setdefault(sid, []).append(key_i)
    assert {sid: (len(ids), max(ids)) for sid, ids in per_sid.items()} == {
        0: (85, 84),
        1: (88, 87),
        2: (84, 88),
    }
    assert list(per_sid) == [2, 1, 0]
    before = asm.trace.total(tr.R)
    freqs = table.frequencies()
    assert asm.trace.total(tr.R) - before == (2 + 2 + 2) * lay.value_width
    expected = Counter(s[i : i + 5] for s in raw for i in range(len(s) - 4))
    assert {key.to_str(): n for key, n in freqs.items()} == dict(expected)


def test_a_count_past_255_widens_the_counters():
    # A 302-base poly-A read at k = 3 holds AAA 300 times. The pre-scan's
    # largest count is 300, 9 bits, so the counters take 9 bits, and AAA
    # reads back in full: the graph is one 300-unit self-loop on AA, walked
    # into one contig as long as the read.
    result = make_asm().assemble([E("A" * 302)], 3)
    assert result.table.layout.value_width == 9
    assert result.table.frequencies() == {E("AAA"): 300}
    assert [c.to_str() for c in result.contigs] == ["A" * 302]
    assert result.warnings == []


def test_deep_tiling_counts_every_k_mer_exactly():
    # 300-base reads at stride 1 over a 600-base genome of distinct
    # 24-mers: a 25-mer in the middle is read 276 times, so the counters
    # take 9 bits, and every counter reads back the exact host count. The
    # multiplicities ramp up to 276 and down again, an outgoing surplus of
    # 276, so the walk retries with unit multiplicities, which spell the
    # genome.
    genome = distinct_window_genome(600, 24, random.Random(3))
    reads = [E(s) for s in tile_reads(genome, 300, 1)]
    result = Assembler().assemble(reads, 25)
    table = result.table
    assert max(table.host_counts.values()) == 276
    assert table.layout.value_width == 9
    assert {key.bits: n for key, n in table.frequencies().items()} == table.host_counts
    assert [c.to_str() for c in result.contigs] == [genome]
    assert result.warnings == [_UNIT_RUNG.format(276)]


def test_a_count_too_wide_for_the_geometry_raises():
    # 64 x 16 at k = 2: 4 key slots a row, and 52 rows beside the 12
    # reserved. 4,096 A's hold AA 4,095 times, 12 bits: 4 stripes of 12
    # rows leave 4 key rows. 4,097 A's hold it 4,096 times, 13 bits: 4
    # stripes of 13 rows take all 52, so no key row is left, and the stage
    # raises before it takes a sub-array.
    asm = make_asm(rows=64, cols=16)
    table = asm.build_kmer_table([E("A" * 4096)], 2)
    assert table.layout.value_width == 12
    assert table.frequencies() == {E("AA"): 4095}
    asm = make_asm(rows=64, cols=16)
    with pytest.raises(CapacityError, match=r"too small for a hash sub-array of 13-bit counters"):
        asm.build_kmer_table([E("A" * 4097)], 2)
    assert asm.machine.subarray_count == 0


def test_a_read_seen_twice_adds_once_per_stripe_and_set_bit(caplog):
    # Seen again, every k-mer of the read is a hit on a written key. Its
    # probes run in batches of up to 4 queries whose buckets use different
    # columns, each hit joining the read's batch for its bucket's newest
    # key row if its columns are free there, or else opening a new batch
    # for that row: each batch writes its image unless a temp row or a
    # free key row holds it already, and compares the union of its
    # members' rows, newest first down to each key's, one C_ADD plus one
    # DPU per row, so the probes' C_ADD equals their DPU. The 108 hits take
    # 40 batches, 32 of them writing an image, and compare 53 rows. The
    # read's 97 keys reach key row 24, so the group's 8 temp rows and its
    # 51 free key rows (75 down to 25) hold every image the two copies
    # write (38 at most), and none is evicted: 8 of the second copy's
    # batches find their image held, each one of the first copy's 6. The
    # first copy's 11 misses into buckets that held keys are checked at
    # their key row writes and image nothing; its 6 batches are its hits',
    # where imaging those misses too took 11. (While the first copy's
    # hits on its own keys into empty buckets packed first-fit, it wrote 8
    # images, and the second copy found 4 of its images held; the 8 temp
    # rows alone kept 1.) Every key goes in during the first copy, so the
    # copies' W differ by the image writes and the adds alone. First-fit
    # batches, whose members' keys sat in different rows, took 28, one
    # more than 108 / 4, and compared 52 rows: at this small geometry a key
    # row's hits often need a column its batch already fills, so row-keyed
    # batches compare more rows here and fewer on large runs. The stage's
    # increments are added after its seed write. A k-mer that occurs n times
    # in the read is seeded at 1 and has 2n - 1 pending after two copies
    # (n - 1 after one), and each set bit i of that amount is one +1 at
    # plane i, shared by every counter of its (sub-array, counter stripe)
    # with bit i set. The read holds 86 k-mers once and 11 twice: amounts
    # 1 and 3 after two copies, and 0 and 1 after one. A counter sits at
    # its key's key index: the read's 97 distinct k-mers take key indices
    # up to 98, so stripe 0 of 64 columns holds indices 0..63 and stripe 1
    # the rest, and both hold k-mers seen once and twice (GGATC at index 0,
    # AGGAT at 79). So two copies add at planes 0 and 1 of both stripes,
    # four adds, and one copy at plane 0 of both, two adds. Each stops at
    # its last carry plane: plane 0 of counters at 1 carries into plane 1,
    # which holds 0, and plane 1 of counters at 2 carries into plane 2,
    # which holds 0, so every add takes 2 C_ADD, 4 W and a DPU reduce at
    # both planes.
    genome = random_genome(100, random.Random(5))
    read, k = genome + genome[:12], 5
    occurrences = Counter(read[i : i + k] for i in range(len(read) - k + 1))
    assert Counter(occurrences.values()) == {1: 86, 2: 11}
    asms, tables = [], []
    for copies in (1, 2):
        asm = make_asm()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="pimgasm.assembly"):
            table = asm.build_kmer_table([E(read)] * copies, k)
        hits, adds = map(int, re.search(r"(\d+) hits, (\d+) counter adds", caplog.text).groups())
        assert hits == table.total_kmers - table.distinct()
        asms.append((asm, adds))
        tables.append(table)
    (once, adds_once), (twice, adds_twice) = asms
    assert twice.machine.subarray_count == 1
    check_counters_at_key_indices(twice, table)
    lay = table.layout
    assert max(key_i for _, key_i in table.slots) == 98

    def planes(copies):
        """(sub-array, stripe lsb, plane) of every set bit of the pending
        amounts after this many copies of the read."""
        out = set()
        for key, (sid, key_i) in zip(table.keys, table.slots):
            amount = copies * occurrences[key.to_str()] - 1
            lsb = lay.counter_location(key_i)[0]
            out |= {(sid, lsb, i) for i in range(amount.bit_length()) if amount >> i & 1}
        return out

    assert len({lsb for _, lsb, _ in planes(2)}) == 2
    assert {i for _, _, i in planes(2)} == {0, 1} and {i for _, _, i in planes(1)} == {0}
    assert (adds_once, adds_twice) == (len(planes(1)), len(planes(2))) == (2, 4)
    a, b = hashmap_totals(once.trace), hashmap_totals(twice.trace)
    batches = tables[1].batches - tables[0].batches
    images = tables[1].image_writes - tables[0].image_writes
    assert sum(occurrences.values()) == 108
    assert (batches, images) == (40, 32)
    assert tables[0].image_writes == tables[0].batches == 6 and tables[0].checked == 11
    assert tables[1].image_rows_held == 38
    probe_dpu = b[tr.DPU] - a[tr.DPU] - 2 * 2
    assert probe_dpu == tables[1].compares - tables[0].compares == 53
    assert b[tr.R] == a[tr.R]
    assert b[tr.C_ADD] - a[tr.C_ADD] == probe_dpu + 2 * 2
    assert b[tr.W] - a[tr.W] == images + 2 * 4


class AddRecorder(Assembler):
    """Keeps the counter adds the stage issued and the (sub-array, counter
    stripe) pairs they touched."""

    def _add_counts(self, lay, pending):
        adds = super()._add_counts(lay, pending)
        self.added = (adds, {(sid, lsb) for sid, lsb, _ in pending})
        return adds


def test_a_tiled_read_adds_to_at_most_three_counter_stripes():
    # A 600-base genome with distinct 8-mers, read at stride 1: 571 reads of
    # 30 bases, 23 k-mers each, 593 distinct keys. A new key takes the
    # least-filled column's next row, so key indices follow first-seen
    # order to within a few rows, and the highest is 598: the counters span
    # three stripes of 256 columns, wherever the 1,216 buckets put their
    # keys. The stage adds once, after its last read, one +1 per (stripe,
    # set bit of an amount). A key is in at most 23 reads and is new in the
    # first, so its amount is at most 22, below 32, five bits. The 549 keys
    # read 23 times have amount 22 = 0b10110, bits 1, 2 and 4; the 44 keys
    # within 22 bases of a genome end are read 1 to 22 times, amounts 0 to
    # 21, and they are first and last seen, in stripes 0 and 2. So stripe 1
    # takes 3 adds, stripes 0 and 2 take 5 each: 13, at most 3 * 5.
    genome = distinct_window_genome(600, 8, random.Random(11))
    asm = AddRecorder(rows=128, cols=256)
    table = asm.build_kmer_table([E(s) for s in tile_reads(genome, 30, 1)], 8)
    assert table.distinct() == 593 and table.buckets == 1216
    assert asm.machine.subarray_count == 1
    assert max(key_i for _, key_i in table.slots) == 598
    assert Counter(table.host_counts.values())[23] == 549
    adds, stripes = asm.added
    assert len(stripes) == 3 and adds == 13 <= 5 * len(stripes)


class CorruptCounters(Assembler):
    """Sets each counter a read is about to add to to its top value."""

    def _add_counts(self, lay, pending):
        for sid, lsb, col in pending:
            self.machine.write_vwords(sid, lsb, lay.value_width, {col: (1 << lay.value_width) - 1})
        return super()._add_counts(lay, pending)


def test_a_counter_add_that_overflows_raises():
    asm = CorruptCounters(rows=128, cols=64)
    with pytest.raises(ConsistencyError, match="counter add overflowed"):
        asm.build_kmer_table([E("CGTAC"), E("CGTAC")], 5)


@given(data=st.data(), width=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_bit_sliced_counter_adds_equal_whole_amount_adds(data, width):
    # The stage's counter adds are one +1 at plane i per (sub-array, stripe,
    # set bit i of an amount), and +1 at plane i of a width-bit word adds
    # 2**i mod 2**width. So on twin machines, with any start words in two
    # counter stripes and any amounts on any columns, they leave the cells
    # that one add of the whole amount per column leaves. A start word plus
    # an amount is below 2**(width + 1), so a column wraps at most once: it
    # carries out of its top plane in one of its bit-sliced adds exactly when
    # the whole add carries out, and the counter check raises then, once
    # every add has run.
    lay = mapping.layout_hash((64, 16), 2, width)
    top = (1 << width) - 1
    lsbs = [lay.counter_location(0)[0], lay.counter_location(lay.cols)[0]]
    asm = Assembler(rows=64, cols=16)
    twin = Machine(rows=64, cols=16)
    sid = asm.machine.new_subarray(lay.row_layout)
    assert twin.new_subarray(lay.row_layout) == sid
    words = st.dictionaries(st.integers(0, lay.cols - 1), st.integers(0, top), min_size=1)
    pending = {}
    for lsb in lsbs:
        start = data.draw(st.lists(st.integers(0, top), min_size=lay.cols, max_size=lay.cols))
        for m in (asm.machine, twin):
            m.write_vwords(sid, lsb, width, dict(enumerate(start)))
        amounts = data.draw(words.map(lambda d: {col: a for col, a in d.items() if a}))
        pending |= {(sid, lsb, col): amount for col, amount in amounts.items()}
    assume(pending)

    sliced_carry = Counter()
    add = asm.machine.add_const_cols

    def record(sid, lsb, w, cols, constant):
        stripe = lsb + w - width  # each add runs to its stripe's top plane
        assert constant == 1 and stripe in lsbs
        carry = add(sid, lsb, w, cols, constant)
        sliced_carry.update({(sid, stripe, col): cy for col, cy in carry.items()})
        return carry

    whole_carry = Counter()
    for (sid, lsb, col), amount in pending.items():
        whole_carry[sid, lsb, col] += twin.add_const_cols(sid, lsb, width, [col], amount)[col]
    with patch.object(asm.machine, "add_const_cols", record):
        if any(whole_carry.values()):
            with pytest.raises(ConsistencyError, match="counter add overflowed"):
                asm._add_counts(lay, pending)
        else:
            adds = asm._add_counts(lay, pending)
            assert adds == len(
                {(lsb, i) for (_, lsb, _), a in pending.items() for i in range(width) if a >> i & 1}
            )
    assert +sliced_carry == +whole_carry
    assert asm.machine.subarray(sid).cells == twin.subarray(sid).cells


def _counter_events(asm, reads, k):
    """Build the table, logging each counter write in order as (reads ended,
    "seed" or "add", (sub-array, stripe lsb, column)): one entry per counter
    a seed write starts or a counter add touches. A read ends with one
    _flush per hash group, and the hash stage's sub-arrays are its groups."""
    events = []
    flushes = []  # one entry per group flush
    flush = asm._flush
    write, add = asm.machine.write_vwords, asm.machine.add_const_cols

    def on_flush(table, group, pending):
        flushes.append(group.sid)
        flush(table, group, pending)

    def on_write(sid, lsb, w, words):
        assert w == 1
        events.extend((len(flushes), "seed", (sid, lsb, col)) for col in words)
        write(sid, lsb, w, words)

    def on_add(sid, lsb, w, cols, constant):
        # an add at plane i runs from lsb = stripe + i to the stripe's top
        events.extend((len(flushes), "add", (sid, lsb + w, col)) for col in cols)
        return add(sid, lsb, w, cols, constant)

    with patch.object(asm, "_flush", on_flush), patch.object(
        asm.machine, "write_vwords", on_write
    ), patch.object(asm.machine, "add_const_cols", on_add):
        table = asm.build_kmer_table([E(s) for s in reads], k)
    groups = asm.machine.subarray_count
    assert len(flushes) == groups * len(reads)
    width = table.layout.value_width
    for i, (n, kind, (sid, lsb, col)) in enumerate(events):
        if kind == "add":  # the stripe's top, less its width
            events[i] = (n, kind, (sid, lsb - width, col))
    return table, [(n // groups, kind, counter) for n, kind, counter in events]


def check_counter_order(table, events, n):
    """Counter writes run only after the last of the n reads' flushes; every
    seed write comes before the first add, and seeds every key's counter
    once; every counter an add touches was seeded, and is touched once per
    set bit of its key's count less the seeded one."""
    seeded = set()
    added = Counter()
    for ended, kind, counter in events:
        assert ended == n
        if kind == "seed":
            assert not added and counter not in seeded
            seeded.add(counter)
        else:
            assert counter in seeded
            added[counter] += 1
    lay = table.layout
    counters = {
        (sid, *lay.counter_location(key_i)): table.host_counts[key.bits] - 1
        for key, (sid, key_i) in zip(table.keys, table.slots)
    }
    assert seeded == set(counters)
    assert +added == +Counter({c: amount.bit_count() for c, amount in counters.items()})


@pytest.mark.parametrize("width", [8, 9])
@pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
def test_counters_are_written_once_after_the_last_read(n, width):
    # Reads of 12 bases every 3 bases of a random genome, with two reads put
    # in at positions 16 and 17: GATTGATTGA holds GATTG and ATTGA twice, and
    # CGATTGATT holds them again. For 9-bit counters the first read starts
    # with 260 A's, which hold AAAAA 256 times. Whatever the number of
    # reads, the seed writes and the adds run only after the last read's
    # flushes, every seed first, so each counter is seeded before any add
    # touches it, and the counters read back the host's counts.
    genome = random_genome(120, random.Random(0))
    base = tile_reads(genome, 12, 3)
    raw = (base[:15] + ["GATTGATTGA", "CGATTGATT"] + base[15:])[:n]
    if width == 9:
        raw[0] = "A" * 260 + raw[0]
    k = 5
    assert not {"GATTG", "ATTGA"} & {s[i : i + k] for s in raw[:15] for i in range(8)}
    expected = Counter(s[i : i + k] for s in raw for i in range(len(s) - k + 1))
    asm = make_asm(**PACKED)
    table, events = _counter_events(asm, raw, k)
    assert table.layout.value_width == width
    assert {key.to_str(): c for key, c in table.frequencies().items()} == dict(expected)
    check_counter_order(table, events, n)
    assert any(kind == "add" for _, kind, _ in events) == (max(expected.values()) > 1)


def test_every_counter_is_seeded_before_its_windows_first_add():
    # 514 reads: 512 of 12 bases at every base of a 523-base genome on 128 x
    # 64 (304 keys per group), with GATTGATTGA put in as read 256 and
    # CGATTGATT as read 257: GATTG and ATTGA are new in read 256 and hit
    # once more there, then hit again in read 257. Their counters are
    # seeded with every other one after read 514, the last, before the
    # stage's first add. ATTGA is read 3 times, so its +2 is one add, at
    # plane 1; GATTG is read 11 times (8 more in the tiled reads of genome
    # base 354), so its +10 is two, at planes 1 and 3.
    genome = random_genome(523, random.Random(1))
    base = tile_reads(genome, 12, 1)
    raw = base[:255] + ["GATTGATTGA", "CGATTGATT"] + base[255:]
    k = 5
    assert len(raw) == 514
    assert not {"GATTG", "ATTGA"} & {s[i : i + k] for s in raw[:255] for i in range(8)}
    expected = Counter(s[i : i + k] for s in raw for i in range(len(s) - k + 1))
    assert (expected["ATTGA"], expected["GATTG"]) == (3, 11)
    asm = make_asm()
    table, events = _counter_events(asm, raw, k)
    assert {key.to_str(): c for key, c in table.frequencies().items()} == dict(expected)
    check_counter_order(table, events, len(raw))
    names = [key.to_str() for key in table.keys]
    for name, adds in (("ATTGA", 1), ("GATTG", 2)):
        sid, key_i = table.slots[names.index(name)]
        counter = (sid, *table.layout.counter_location(key_i))
        assert [kind for _, kind, c in events if c == counter] == ["seed"] + ["add"] * adds


def test_a_stage_with_no_hits_adds_nothing():
    # 33 reads that share no k-mer, and hold none twice: nothing is ever
    # pending, so the stage issues no counter add. Its 198 keys fill 18
    # sub-arrays at 24 x 64 (16 keys and one counter stripe each), so the
    # seed writes after the last read start the 198 counters with one
    # write per sub-array, 18.
    genome = distinct_window_genome(396, 7, random.Random(2))
    raw = [genome[i : i + 12] for i in range(0, 396, 12)]
    asm = make_asm(**PACKED)
    table, events = _counter_events(asm, raw, 7)
    assert table.total_kmers == table.distinct() == 33 * 6
    assert {kind for _, kind, _ in events} == {"seed"}
    check_counter_order(table, events, len(raw))
    assert len(events) == 198 and asm.machine.subarray_count == 18
    assert len({(sid, lsb) for _, _, (sid, lsb, _) in events}) == 18


class CorruptKey(Assembler):
    """XORs `flip` into the key `target` places into the table (bit 0 of
    the first key unless a test sets them) once the row write that takes
    it has checked it. The first key waits in its incomplete row after
    its read, so the write comes when the second read needs it: just
    before a batch of its bucket probes, or when a miss into its bucket
    finds it waiting."""

    flip = 1
    target = 0
    corrupted = False

    def _write_keys(self, table, group, row, keys):
        super()._write_keys(table, group, row, keys)
        if not self.corrupted and self.target < len(table.slots):
            sid, key_i = table.slots[self.target]
            if sid == group.sid and any(query.key_i == key_i for query in keys):
                self.corrupted = True
                row, col = table.layout.key_address(key_i)
                self.machine.subarray(sid).cells[row] ^= self.flip << col


def test_a_corrupted_key_fails_the_fabric_scan():
    # CGTAC is inserted by the first read and written when the second
    # read's batch needs it, and its stored bits are then corrupted. The
    # second read holds it again, so its host count makes it
    # a hit, and its batch's physical compare of its bucket's rows must
    # find it: the flipped bit leaves no slot matching.
    asm = CorruptKey(rows=128, cols=64)
    with pytest.raises(ConsistencyError, match="fabric scan finds no key for a hit"):
        asm.build_kmer_table([E("CGTAC"), E("CGTAC")], 5)


def test_a_key_corrupted_into_a_new_k_mer_fails_the_fabric_scan():
    # AAAAT and AGCTT hash to one bucket (124 of the group's 304). AAAAT is
    # inserted by the first read at key index 0, in column 0, and waits.
    # The second read's AGCTT is new to the host counts, so it is a miss
    # into that column, at key row 1; its bucket's one key still waits, so
    # AAAAT's row is written first, and its stored bits are then turned
    # into AGCTT's. AGCTT's key row is written at the stage's end, and its
    # compare against row 0, read at column 0, must find nothing, yet slot
    # 0 matches.
    old, new = E("AAAAT"), E("AGCTT")
    table = make_asm().build_kmer_table([old, new], 5)
    assert bucket_of(table, old) == bucket_of(table, new) == 124
    asm = CorruptKey(rows=128, cols=64)
    asm.flip = old.bits ^ new.bits
    with pytest.raises(ConsistencyError, match="fabric scan finds key index 0 for a miss"):
        asm.build_kmer_table([old, new], 5)


def test_a_key_corrupted_into_an_imaged_miss_fails_its_batch_scan():
    # The read of the mid-read column test below, at 24 x 64 and k=5:
    # bucket 9's ACCCG and CCCGC fill column 0 at rows 2 and 3 (key indices
    # 8 and 12), so CCGCA, new to bucket 9, must leave that column and is
    # imaged in batch 0. CCCGC's row is written before any batch probes,
    # and its stored bits are then turned into CCGCA's. Batch 0 compares
    # bucket 9's rows newest first, and the miss must find nothing, yet
    # column 0 of row 3 matches.
    read = "CACGGGCCCACCCGCAACCCGCAA"
    old, new = E("CCCGC"), E("CCGCA")
    table = make_asm(**PACKED).build_kmer_table([E(read)], 5)
    assert table.slots[table.keys.index(old)] == (0, 12)
    asm = CorruptKey(**PACKED)
    asm.target, asm.flip = table.keys.index(old), old.bits ^ new.bits
    with pytest.raises(ConsistencyError, match="fabric scan finds key index 12 for a miss"):
        asm.build_kmer_table([E(read)], 5)
    assert asm.corrupted


@given(
    reads=st.lists(st.text(alphabet="ACGT", min_size=1, max_size=60), min_size=1, max_size=12),
    rows=st.integers(min_value=24, max_value=64),
    k=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_every_counter_sits_at_its_key_index(reads, rows, k):
    # A key's counter index is its key index, so its counter word reads back
    # from counter_location(key index) in its own sub-array, and no other
    # counter bit is set. The graph stage's only reads are the counter
    # read-back, which takes each hash sub-array's stripes up to the one
    # holding its highest key index: value_width R per stripe, summed over
    # the sub-arrays that hold keys. A geometry that leaves no key row
    # beside the stripes the largest count needs raises instead (at k=2, 16
    # slots a row, 25 to 28 rows do for 8-bit stripes).
    raw = [s for s in reads if len(s) >= k]
    assume(raw)
    asm = make_asm(rows=rows, cols=64)
    largest = max(Counter(s[i : i + k] for s in raw for i in range(len(s) - k + 1)).values())
    try:
        mapping.layout_hash((rows, 64), k, mapping.counter_width(largest))
    except CapacityError:
        with pytest.raises(CapacityError, match="-bit counters"):
            asm.build_kmer_table([E(s) for s in raw], k)
        return
    table = asm.build_kmer_table([E(s) for s in raw], k)
    check_counters_at_key_indices(asm, table)
    top = {}
    for sid, key_i in table.slots:
        top[sid] = max(top.get(sid, 0), key_i)
    asm.build_graph(table)
    stripes = sum(key_i // table.layout.cols + 1 for key_i in top.values())
    assert asm.trace.total(tr.R, stage=tr.STAGE_GRAPH) == table.layout.value_width * stripes


def test_kmer_table_dump(tmp_path):
    asm = make_asm()
    table = asm.build_kmer_table([E("CGTGC")], 4)
    path = tmp_path / "kmers.tsv"
    table.dump_tsv(path)
    assert path.read_text() == "kmer\tfrequency\nCGTG\t1\nGTGC\t1\n"


# ---- graph construction ----------------------------------------------------


def build_graph(reads, k, **kw):
    asm = make_asm(**kw)
    table = asm.build_kmer_table([E(s) for s in reads], k)
    return asm, asm.build_graph(table)


def test_graph_edges_follow_kmer_order():
    _, g = build_graph(["CGTGC"], 4)
    assert [g.nodes[i].to_str() for i in g.edge_src] == ["CGT", "GTG"]
    assert [g.nodes[i].to_str() for i in g.edge_dst] == ["GTG", "TGC"]
    assert g.mult == [1, 1]


def test_repeated_kmer_becomes_one_weighted_edge():
    _, g = build_graph(["AAAAA"], 3)
    assert len(g.nodes) == 1
    assert g.edge_count == 1
    assert g.mult == [3]
    assert g.edge_src == g.edge_dst == [0]


def test_graph_example_eight_base_read():
    _, g = build_graph(["CGTGTGCA"], 5)
    assert len(g.nodes) == 5
    assert g.edge_count == 4
    assert [n.to_str() for n in g.nodes] == ["CGTG", "GTGT", "TGTG", "GTGC", "TGCA"]


@pytest.mark.parametrize("bit, label", [(0, "CGTG"), (5, "CGTG"), (9, "GTGT")])
def test_a_corrupted_key_fails_the_label_check(bit, label):
    # CGTGTGCA at k=5: the first key, CGTGT, is where the nodes CGTG (its
    # low 8 bits) and GTGT (its high 8 bits) first appear, so both labels
    # are checked in place in its slot, and nothing is copied. Flipping one
    # of its bits after counting leaves the counters intact and fails the
    # check of the label that bit falls in (bit 5 lies in both; CGTG is
    # checked first).
    asm = make_asm()
    table = asm.build_kmer_table([E("CGTGTGCA")], 5)
    assert table.keys[0].to_str() == "CGTGT"
    sid, key_i = table.slots[0]
    row, col = table.layout.key_address(key_i)
    asm.machine.subarray(sid).cells[row] ^= 1 << (col + bit)
    with pytest.raises(ConsistencyError, match=f"label of {label} "):
        asm.build_graph(table)


@pytest.mark.parametrize("plane, reads", [(0, 0), (3, 9), (7, 129)])
def test_a_corrupted_counter_fails_the_read_back(plane, reads):
    # CGTGTGCA at k=5: every key counts once. Flipping one bit of CGTGT's
    # counter word, at the counter location of its key index, makes
    # the graph stage's read-back disagree with the host count.
    asm = make_asm()
    table = asm.build_kmer_table([E("CGTGTGCA")], 5)
    sid, key_i = table.slots[0]
    lsb, col = table.layout.counter_location(key_i)
    asm.machine.subarray(sid).cells[lsb + plane] ^= 1 << col
    with pytest.raises(ConsistencyError, match=f"counter for CGTGT reads {reads}, expected 1$"):
        asm.build_graph(table)


def test_multiplicity_words_cost_one_write_per_stripe_plane():
    # 17 distinct 5-mers on 64 x 16: 17 edges take two multiplicity stripes
    # (16 + 1 words). Every k-mer occurs once, so every word holds 1 and is
    # 1.bit_length() = 1 bit wide, where the counters' 8 bits cost 8 planes.
    # The 17 edges form one path over 18 distinct 4-mer nodes, whose labels
    # are read in place in their key rows. Each stripe costs one W per bit
    # plane however many words it holds: 2 * 1 graph W, where writing each
    # word on its own would cost 17 * 1, and 8-bit stripes 2 * 8.
    genome = distinct_window_genome(21, 5, random.Random(5))
    asm, g = build_graph([genome], 5, rows=64, cols=16)
    assert g.edge_count == 17
    assert len(g.nodes) == 18
    assert len(g.store.stripes) == 2
    assert g.store.width == 1
    assert asm.trace.total(tr.W, stage=tr.STAGE_GRAPH) == 2 * 1
    assert g.store.read() == g.mult


def test_the_graph_stage_writes_only_multiplicity_planes():
    # 24 x 64 at k=5: 4 slots of 16 columns per key row, 4 key rows, one
    # 8-bit counter stripe, and 16 buckets, so the 9 keys of TTGGTGCATAGAG
    # share rows. A key takes its bucket's column, or the least-filled one
    # if its bucket is empty. Key row 0 holds TTGGT, TGGTG, GGTGC and GTGCA,
    # where the 5 nodes TTGG, TGGT, GGTG, GTGC and TGCA first appear; row 1
    # holds TGCAT, GCATA and ATAGA, bringing GCAT, CATA and TAGA; row 2
    # holds CATAG (in its bucket's column 0, under TTGGT), bringing ATAG,
    # and row 3 TAGAG (in column 0, under TGCAT, its bucket's first key),
    # bringing AGAG. Each of the 10 labels is checked in place, at its own
    # columns of its key row, and no row is copied. The graph stage reads
    # the counter stripe back and writes the 1-bit multiplicity stripe,
    # nothing else:
    #   R = 8 (the counter stripe's planes),  W = 1 (one multiplicity plane)
    asm = make_asm(**PACKED)
    table = asm.build_kmer_table([E("TTGGTGCATAGAG")], 5)
    rows = [key_i // table.layout.slots for _, key_i in table.slots]
    assert rows == [0, 0, 0, 0, 1, 1, 2, 1, 3]
    g = asm.build_graph(table)
    assert len(g.nodes) == 10
    assert g.store.width == 1
    assert [(kind, n) for stage, kind, n in asm.trace.records() if stage == tr.STAGE_GRAPH] == [
        (tr.R, 8),
        (tr.W, g.store.width),
    ]
    # a hash sub-array, and one row bank sub-array that holds only the
    # multiplicity stripe
    assert asm.machine.subarray_count == 2
    assert g.store.stripes == [(1, 0)]


def test_simplify_reads_each_label_row_of_a_merged_node_once():
    # The same 10 nodes, whose labels sit in 4 key rows, now with
    # simplify on. The graph is one path, so all 10 nodes merge into one
    # node with no edge: the merge reads the 4 key rows once each, not one
    # row per node, and no multiplicity word is placed. Graph stage:
    #   R   = 8 (counter stripe) + 4 merge reads = 12
    #   DPU = 10 nodes + 9 edges of the controller pass
    asm = make_asm(**PACKED, simplify=True)
    g = asm.build_graph(asm.build_kmer_table([E("TTGGTGCATAGAG")], 5))
    assert [n.to_str() for n in g.nodes] == ["TTGGTGCATAGAG"]
    assert g.edge_count == 0 and g.store.stripes == []
    assert [(kind, n) for stage, kind, n in asm.trace.records() if stage == tr.STAGE_GRAPH] == [
        (tr.R, 8 + 4),
        (tr.DPU, 10 + 9),
    ]
    # a synthetic graph has no label rows to read
    other = make_asm()
    other.simplify_graph(path_graph("AC", "CG", "GT"))
    assert other.trace.total(tr.R) == 0


@given(reads=reads_strategy, k=st.integers(min_value=2, max_value=5))
@settings(max_examples=20, deadline=None)
def test_degree_conservation(reads, k):
    expected = Counter(
        s[i : i + k] for s in reads for i in range(len(s) - k + 1)
    )
    if not expected:
        return
    _, g = build_graph(reads, k)
    out_d, in_d = g.degrees()
    assert sum(out_d) == sum(in_d) == g.total_multiplicity() == sum(expected.values())
    assert g.edge_count == len(expected)
    labels = {n.to_str() for n in g.nodes}
    assert labels == {s[:-1] for s in expected} | {s[1:] for s in expected}


def test_graph_dump(tmp_path):
    _, g = build_graph(["AAAAA"], 3)
    path = tmp_path / "graph.tsv"
    g.dump_tsv(path)
    assert path.read_text() == "node1\tnode2\tmult\nAA\tAA\t3\n"


# ---- chain merging ---------------------------------------------------------


def test_simplify_merges_a_path_to_one_node():
    asm, g = build_graph(["ACGT"], 3)
    merged = asm.simplify_graph(g)
    assert [n.to_str() for n in merged.nodes] == ["ACGT"]
    assert merged.edge_count == 0


def test_simplify_keeps_branches():
    g = SparseGraph(k=3)
    g.add_edge(E("TA"), E("AC"))
    g.add_edge(E("AC"), E("CG"))
    g.add_edge(E("AC"), E("CT"))
    merged = make_asm().simplify_graph(g)
    # TA->AC merges; AC's two outgoing edges survive on the merged node
    assert {n.to_str() for n in merged.nodes} == {"TAC", "CG", "CT"}
    pairs = {
        (merged.nodes[u].to_str(), merged.nodes[v].to_str())
        for u, v in zip(merged.edge_src, merged.edge_dst)
    }
    assert pairs == {("TAC", "CG"), ("TAC", "CT")}


def test_simplify_turns_a_cycle_into_a_self_loop():
    g = SparseGraph(k=3)
    g.add_edge(E("AC"), E("CG"))
    g.add_edge(E("CG"), E("GA"))
    g.add_edge(E("GA"), E("AC"))
    merged = make_asm().simplify_graph(g)
    assert [n.to_str() for n in merged.nodes] == ["ACGA"]
    assert merged.edge_count == 1
    assert merged.edge_src == merged.edge_dst == [0]


def test_simplify_treats_a_multi_edge_as_one_adjacency():
    g = SparseGraph(k=3)
    g.add_edge(E("AC"), E("CG"), mult=5)
    merged = make_asm().simplify_graph(g)
    assert [n.to_str() for n in merged.nodes] == ["ACG"]
    assert merged.edge_count == 0


def test_simplify_leaves_self_loops_alone():
    g = SparseGraph(k=3)
    g.add_edge(E("AA"), E("AA"), mult=4)
    merged = make_asm().simplify_graph(g)
    assert merged.edge_count == 1
    assert merged.mult == [4]


def test_simplify_checks_label_overlap():
    g = SparseGraph(k=3)
    g.add_edge(E("AC"), E("GG"))  # C vs G: no overlap
    with pytest.raises(ConsistencyError):
        make_asm().simplify_graph(g)


def test_the_unitig_index_lists_every_node_once():
    # 0 -> 1 -> 2 with 2 -> 0 and 2 -> 3: node 2 has two out-edges, so
    # neither joins a chain and 3 is a chain of one; 4 -> 5 -> 6 -> 4 is a
    # contractible cycle, cut before the edge back to its lowest node
    g = SparseGraph()
    labels = ["".join(p) for p in itertools.product("ACGT", repeat=2)]
    for u, v in [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 4)]:
        g.add_edge(E(labels[u]), E(labels[v]))
    index = unitig_index(g)
    assert index.nodes == [[0, 1, 2], [3], [4, 5, 6]]
    assert index.links == [[0, 1], [], [4, 5]]
    assert index.chain_of_edge == [0, 0, -1, -1, 2, 2, -1]


# ---- degree table and walk start -------------------------------------------


def path_graph(*labels):
    g = SparseGraph(k=3)
    for a, b in zip(labels, labels[1:]):
        g.add_edge(E(a), E(b))
    return g


def degree_words(asm, g):
    """The stored pass's out- and in-degrees, read back from fabric. The
    start probe leaves in + 1 in each node's in words."""
    d = g.store.degree
    out, inn = [], []
    for sid, base in d.stripes:
        out += asm.machine.read_vwords(sid, base, d.w_deg)
        inn += asm.machine.read_vwords(sid, base + d.w_deg, d.w_deg)
    return out[: len(g.nodes)], [word - 1 for word in inn[: len(g.nodes)]]


def test_find_start_on_a_path():
    asm = make_asm(rows=64, cols=16)
    g = path_graph("AC", "CG", "GT")
    assert asm.find_start(g) == [0]
    assert g.store.degree.starts == [0]
    out, inn = degree_words(asm, g)
    assert (out, inn) == g.degrees()
    assert out == [1, 1, 0] and inn == [0, 1, 1]
    assert sum(out) == 2


def test_find_start_on_a_cycle_defaults_to_node_zero():
    asm = make_asm(rows=64, cols=16)
    g = path_graph("AC", "CG", "GA", "AC")
    assert asm.find_start(g) == []
    assert sum(degree_words(asm, g)[0]) == 3
    # no surplus: the one trail starts at the lowest node holding units
    [path] = asm.fleury(g)
    assert path.node_ids == [0, 1, 2, 0]


def test_find_start_lists_a_surplus_of_two_twice():
    asm = make_asm(rows=64, cols=16)
    g = SparseGraph(k=3)
    g.add_edge(E("AC"), E("CG"))
    g.add_edge(E("AC"), E("CT"))
    assert asm.find_start(g) == [0, 0]


def test_find_start_lists_every_surplus_node():
    asm = make_asm(rows=64, cols=16)
    g = SparseGraph(k=3)
    g.add_edge(E("AC"), E("CG"))
    g.add_edge(E("TT"), E("TA"))
    assert asm.find_start(g) == [0, 2]


def test_find_start_degrees_weight_multiplicity():
    asm = make_asm(rows=64, cols=16)
    g = SparseGraph(k=3)
    g.add_edge(E("AA"), E("AA"), mult=3)
    assert asm.find_start(g) == []
    out, inn = degree_words(asm, g)
    assert (out, inn) == g.degrees()
    assert out == inn == [3]


def test_a_repeat_find_start_takes_fresh_stripes_after_the_first():
    # 18 nodes on 16 columns: two degree stripes. The largest degree is 2,
    # so the start probe's in + 1 needs 3.bit_length() = 2-bit degree
    # words, and a stripe 2 * 2 rows (out and in words; the probe forms
    # in + 1 in the in words). The row bank's one sub-array
    # holds the two 1-bit multiplicity stripes (rows 0, 1); the first pass
    # stacks its stripes at rows 2 and 2 + 4 = 6, and a repeat pass takes
    # fresh ones after them, at 10 and 14, in the same sub-array. Fresh
    # rows hold zeros, so nothing is cleared: the repeat re-adds every node
    # at exactly the first pass's cost, and the first pass's out words stay
    # where they were.
    asm, g = build_graph(["ACGTTGCATGTCGACCATGGAT"], 5, rows=64, cols=16)
    count = asm.machine.subarray_count
    sid = g.store.stripes[0][0]
    costs = []
    for _ in range(2):
        before = traverse_totals(asm.trace)
        assert asm.find_start(g) == [0]
        after = traverse_totals(asm.trace)
        costs.append({kind: after[kind] - before[kind] for kind in after})
        assert degree_words(asm, g) == g.degrees()
    assert asm.machine.subarray_count == count
    assert g.store.stripes == [(sid, 0), (sid, 1)]
    assert g.store.degree.w_deg == 2
    assert g.store.degree.stripes == [(sid, 10), (sid, 14)]
    assert costs[1] == costs[0]
    kept = asm.machine.read_vwords(sid, 2, 2) + asm.machine.read_vwords(sid, 6, 2)
    assert kept[: len(g.nodes)] == g.degrees()[0]
    # the walk spends every word the repeat pass counted to zero
    [path] = asm.fleury(g)
    assert len(path.node_ids) == g.edge_count + 1
    assert g.store.read() == [0] * g.edge_count


def test_a_repeat_pass_on_a_new_word_width_redoes_every_node():
    # a 200-unit self-loop takes 8-bit multiplicity words and, for the
    # probe's in + 1 = 201, 8-bit degree words. Rewritten to one unit, the
    # largest word is CC's 2, so the store narrows to 2 bits and the degree
    # words to 3.bit_length() = 2 bits; the repeat pass re-accumulates
    # every node, CC's untouched loop too, on its fresh narrow stripe
    asm = make_asm(rows=64, cols=16)
    g = SparseGraph(k=3)
    g.add_edge(E("AA"), E("AA"), mult=200)
    g.add_edge(E("CC"), E("CC"), mult=2)
    assert asm.find_start(g) == []
    assert (g.store.width, g.store.degree.w_deg) == (8, 8)
    g.store.write({0: 1})
    assert g.store.width == 2
    assert asm.find_start(g) == []
    assert g.store.degree.w_deg == 2
    assert degree_words(asm, g) == g.degrees(g.store.mult) == ([1, 2], [1, 2])


def test_a_pass_of_first_waves_only_runs_no_degree_add():
    # A 40-node path with multiplicities 1 to 7 and a 6-node cycle of
    # multiplicity 5, on 64 x 16: 46 nodes in 3 degree stripes, and
    # (7 + 1).bit_length() = 4-bit degree words. No node has two out-edges
    # or two in-edges, so every wave is a stripe's rank-0 wave, written
    # straight into the zeroed out or in words: the only add_const_cols
    # calls are the start probe's, one + 1 per stripe on its in words, and
    # all the pass's C_ADD comes from the probe (those adds and the plane
    # compares). The degree words still read back as the host degrees.
    labels = ["".join(p) for p in itertools.product("ACGT", repeat=3)]
    g = SparseGraph()
    for i in range(39):
        g.add_edge(E(labels[i]), E(labels[i + 1]), mult=i % 7 + 1)
    ring = labels[40:46]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        g.add_edge(E(a), E(b), mult=5)
    asm = make_asm(rows=64, cols=16)
    m = asm.machine
    adds = []
    probe_c_add = 0

    def counted(op, calls=None):
        def call(*args):
            nonlocal probe_c_add
            if calls is not None:
                calls.append(args[:3])
            before = m.trace.total(tr.C_ADD)
            out = op(*args)
            probe_c_add += m.trace.total(tr.C_ADD) - before
            return out

        return call

    with patch.object(m, "add_const_cols", counted(m.add_const_cols, adds)), patch.object(
        m, "cmp", counted(m.cmp)
    ):
        asm.find_start(g)
    d = g.store.degree
    assert (len(g.nodes), len(d.stripes), d.w_deg) == (46, 3, 4)
    assert adds == [(sid, base + d.w_deg, d.w_deg) for sid, base in d.stripes]
    assert traverse_totals(asm.trace)[tr.C_ADD] == probe_c_add > 0
    assert degree_words(asm, g) == g.degrees()


def test_degree_wave_cost_oracle_on_mixed_words():
    # AA, AC and AG each have two out-edges, the second of multiplicity 1,
    # 2 and 3, into six nodes of one in-edge each; 9 nodes in one stripe
    # on 64 x 16. The largest degree is AG's 1 + 3 = 4, so the start
    # probe's in + 1 needs 5.bit_length() = 3-bit degree words (d = 3),
    # and the 6 words, at most 3, are 2 bits wide (w = 2).
    g = SparseGraph(k=3)
    for src, dsts, second in (
        ("AA", ("CA", "CC"), 1),
        ("AC", ("CG", "CT"), 2),
        ("AG", ("GA", "GC"), 3),
    ):
        g.add_edge(E(src), E(dsts[0]))
        g.add_edge(E(src), E(dsts[1]), mult=second)
    asm = make_asm(rows=64, cols=16)
    m = asm.machine
    waves = []
    add = m.add_const_cols

    def recorded(sid, lsb, width, cols, constant):
        before = traverse_totals(asm.trace)
        carry = add(sid, lsb, width, cols, constant)
        after = traverse_totals(asm.trace)
        waves.append((lsb, width, sorted(cols), {k: after[k] - before[k] for k in after}))
        return carry

    with patch.object(m, "add_const_cols", recorded):
        asm.find_start(g)
    d = g.store.degree
    [(_, base)] = d.stripes
    assert d.w_deg == 3
    # placement of the multiplicity words, one 2-bit stripe: 2 W; its read
    #   back, 2 R
    # rank-0 waves, written into the zeroed words at their largest word's
    #   bit length: out {AA, AC, AG: 1}, 1 W; in {CA, CC, CG, GA: 1,
    #   CT: 2, GC: 3}, 2 W                            -> 3 W
    # the one rank-1 wave, out {AA: 1, AC: 2, AG: 3}, one +1 per set bit in
    #   ascending order (top = 0, so every plane but a word's last is
    #   followed by a DPU reduce of its carry):
    #   bit 0, AA and AG at plane 0 of 3: both words are 1, so plane 0
    #     carries and plane 1 does not: 2 C_ADD, 4 W, 2 DPU
    #   bit 1, AC and AG at plane 1 of 2: AC's 1 takes no carry, AG's 2
    #     carries into plane 2, the word's last: 2 C_ADD, 4 W, 1 DPU
    #                                    -> 8 W, 4 C_ADD, 3 DPU
    # read-back of the out and in planes             -> 6 R
    # start probe: +1 on the in words, GC's 3 carries out of planes 0 and
    #   1, so it runs all 3 (3 C_ADD, 6 W, 2 DPU); 3 plane compares
    #   (3 C_ADD, 3 DPU); 1 DPU                     -> 6 W, 6 C_ADD, 6 DPU
    assert [wave[:3] for wave in waves] == [
        (base, 3, [0, 6]),    # AA, AG
        (base + 1, 2, [3, 6]),  # AC, AG
        (base + 3, 3, list(range(9))),
    ]
    assert [wave[3] for wave in waves[:2]] == [
        {tr.R: 0, tr.W: 4, tr.C_ADD: 2, tr.DPU: 2},
        {tr.R: 0, tr.W: 4, tr.C_ADD: 2, tr.DPU: 1},
    ]
    assert traverse_totals(asm.trace) == {tr.R: 8, tr.W: 19, tr.C_ADD: 10, tr.DPU: 9}
    # nodes AA, CA, CC, AC, CG, CT, AG, GA, GC
    assert degree_words(asm, g) == g.degrees()
    assert g.degrees() == ([2, 0, 0, 3, 0, 0, 4, 0, 0], [0, 1, 1, 0, 1, 2, 0, 1, 3])


def test_a_degree_add_that_overflows_raises(monkeypatch):
    # AC's second out-edge is a rank-1 wave, a +1 at plane 0 of its 2-bit
    # out word. Every plane of that word is set all-ones just before the
    # add, so the +1 carries out of the word.
    asm = make_asm(rows=64, cols=16)
    g = SparseGraph(k=3)
    g.add_edge(E("AC"), E("CG"))
    g.add_edge(E("AC"), E("CT"))
    m = asm.machine
    add = m.add_const_cols

    def saturate_then_add(sid, lsb, width, cols, constant):
        for row in range(lsb, lsb + width):
            m.subarray(sid).cells[row] = (1 << m.cols) - 1
        return add(sid, lsb, width, cols, constant)

    monkeypatch.setattr(m, "add_const_cols", saturate_then_add)
    with pytest.raises(ConsistencyError, match="degree counter overflow"):
        asm.find_start(g)


def test_degree_planes_that_disagree_with_the_edge_lists_raise(monkeypatch):
    # every rank-0 wave write flips plane 0 of its first column's word, so
    # that node's degree reads back one off the host's edge lists
    asm, g = build_graph(["CGTGTGCA"], 5, rows=64, cols=16)
    m = asm.machine
    write = m.write_vwords

    def write_then_flip(sid, lsb, width, words):
        write(sid, lsb, width, words)
        m.subarray(sid).cells[lsb] ^= 1 << min(words)

    monkeypatch.setattr(m, "write_vwords", write_then_flip)
    with pytest.raises(ConsistencyError, match="degree planes disagree with the edge lists"):
        asm.find_start(g)


def test_a_start_probe_that_disagrees_with_the_mirror_raises(monkeypatch):
    # CGTG (node 0) has out 1 and in 0, so its in + 1 equals its out and it
    # is the one start. The probe's + 1, the pass's only add, then has
    # plane 0 of that in word flipped, after the planes were read back and
    # checked, so the plane compare misses node 0.
    asm, g = build_graph(["CGTGTGCA"], 5, rows=64, cols=16)
    m = asm.machine
    add = m.add_const_cols

    def add_then_flip(sid, lsb, width, cols, constant):
        carry = add(sid, lsb, width, cols, constant)
        m.subarray(sid).cells[lsb] ^= 1
        return carry

    monkeypatch.setattr(m, "add_const_cols", add_then_flip)
    with pytest.raises(ConsistencyError, match="start probe disagrees with the degree mirror"):
        asm.find_start(g)


# ---- Euler walks -----------------------------------------------------------


def test_fleury_prefers_non_bridge_edges():
    # node 0's surplus and node 1's deficit give one virtual edge 1 -> 0.
    # The circuit from 0 takes 0 -> 1 (its lowest edge id), the virtual edge
    # back, then the 0<->2 loop; rotated to begin just after the virtual
    # edge, the splice puts the loop before the bridge 0 -> 1, so the one
    # trail strands nothing
    asm = make_asm(rows=64, cols=16)
    g = SparseGraph()
    la, lb, lc = E("A"), E("C"), E("G")
    g.add_edge(la, lb)        # 0 -> 1, the bridge
    g.add_edge(la, lc)        # 0 -> 2
    g.add_edge(lc, la)        # 2 -> 0
    [path] = asm.fleury(g)
    assert path.node_ids == [0, 2, 0, 1]


def test_fleury_consumes_multiplicity():
    asm = make_asm(rows=64, cols=16)
    g = SparseGraph(k=3)
    g.add_edge(E("AA"), E("AA"), mult=3)
    [path] = asm.fleury(g)
    assert path.node_ids == [0, 0, 0, 0]


def two_cycles():
    g = SparseGraph()
    g.add_edge(E("A"), E("C"))
    g.add_edge(E("C"), E("A"))
    g.add_edge(E("G"), E("T"))
    g.add_edge(E("T"), E("G"))
    return g


def test_fleury_walks_two_cycles_as_two_trails():
    g = two_cycles()
    paths = make_asm(rows=64, cols=16).fleury(g)
    assert [p.node_ids for p in paths] == [[0, 1, 0], [2, 3, 2]]
    # the same graph on a second machine: its walk must place its own words
    # and leave the sub-arrays that machine already owns untouched
    other = make_asm(rows=64, cols=16)
    owned = [other.machine.new_subarray() for _ in range(3)]
    before = [list(other.machine.subarray(sid).cells) for sid in owned]
    paths = other.fleury(g)
    assert [p.node_ids for p in paths] == [[0, 1, 0], [2, 3, 2]]
    assert [other.machine.subarray(sid).cells for sid in owned] == before


def test_fleury_takes_degrees_from_another_assembler():
    g = path_graph("AC", "CG", "GT")
    make_asm(rows=64, cols=16).find_start(g)
    [path] = make_asm(rows=64, cols=16).fleury(g)
    assert path.node_ids == [0, 1, 2]


def traverse_totals(trace):
    return {
        kind: trace.total(kind, stage=tr.STAGE_TRAVERSE)
        for kind in (tr.R, tr.W, tr.C_ADD, tr.DPU)
    }


def test_walk_cost_oracle_on_a_path():
    # AC -> CG -> GT on 64 x 16: 3 nodes in one degree sub-array. The unit
    # multiplicity words are 1 bit wide (w = 1); the largest degree is 1,
    # so the probe's in + 1 needs 2-bit degree words (d = 2).
    asm = make_asm(rows=64, cols=16)
    g = path_graph("AC", "CG", "GT")
    asm.find_start(g)
    # placement of the multiplicity words only (a synthetic graph has no
    # labels in fabric): one 2-word stripe, w = 1 W   -> 1 W
    # one read of that stripe, 1 R, checked against the mirror
    # out and in passes, rank 0 only: each wave is written straight into
    #   the zeroed out or in words, and added nowhere. Its largest word is
    #   1, so it writes 1.bit_length() = 1 plane; plane 1 of the fresh
    #   rows already holds zeros                      -> 2 W
    # read-back of the out and in planes             -> 4 R
    # start probe: +1 on the in words, dead once read back (2 C_ADD + 4 W,
    #   and one DPU reduce of plane 0's carry, which CG's and GT's in = 1
    #   set), 2 plane compares of out against them (2 C_ADD + 2 DPU), 1 DPU
    #                                                 -> 4 W, 4 C_ADD, 4 DPU
    assert traverse_totals(asm.trace) == {tr.R: 5, tr.W: 7, tr.C_ADD: 4, tr.DPU: 4}
    [path] = asm.fleury(g)
    assert path.node_ids == [0, 1, 2]
    # 2 units on 2 edges of one stripe, spent in one pass at the walk's
    #   end: one 1-bit add of -1 on both columns (1 C_ADD + 2 W, where a
    #   decrement per unit took 2 C_ADD + 4 W), one DPU per unit and one for
    #   the trail (3), and the end-of-walk read of the 1 plane of the stripe
    assert traverse_totals(asm.trace) == {tr.R: 6, tr.W: 9, tr.C_ADD: 5, tr.DPU: 7}


@pytest.mark.parametrize("edge, word", [(0, 2), (1, 3), (16, 3), (18, 3)])
def test_walk_end_check_reads_every_multiplicity_word(edge, word):
    # 18 unit edges AAA -> AAC -> ... on 16 columns, then edge 18, a 2-unit
    # self-loop on AAA: two multiplicity stripes of 2-bit words, which hold
    # 0 to 3. The corrupted word is set after find_start checked it, so the
    # walk spends the mirror's units (1, or 2 on the loop) and leaves the
    # fabric word at word - units > 0, which the end check must find in
    # whichever stripe it sits.
    asm = make_asm(rows=64, cols=16)
    labels = ["".join(p) for p in itertools.product("ACGT", repeat=3)][:19]
    g = path_graph(*labels)
    g.add_edge(E("AAA"), E("AAA"), mult=2)
    asm.find_start(g)
    assert g.store.width == 2
    sid, lsb = g.store.stripes[edge // 16]
    asm.machine.write_vwords(sid, lsb, g.store.width, {edge % 16: word})
    left = word - g.mult[edge]
    with pytest.raises(ConsistencyError, match=f"edge {edge} reads {left} after the walk"):
        asm.fleury(g)


def test_a_walked_graph_cannot_be_walked_again():
    asm = make_asm(rows=64, cols=16)
    g = SparseGraph(k=3)
    g.add_edge(E("AA"), E("AA"), mult=3)
    [path] = asm.fleury(g)
    assert path.node_ids == [0, 0, 0, 0]
    assert g.store.read() == [0]
    with pytest.raises(ConsistencyError, match="multiplicity word"):
        asm.fleury(g)
    with pytest.raises(ConsistencyError, match="multiplicity word"):
        asm.find_start(g)
    assert g.store.read() == [0]


@pytest.mark.parametrize("edge", [1, 17], ids=["first-stripe", "second-stripe"])
def test_spending_a_zero_word_raises_at_the_flush(edge):
    # 18 unit edges on 16 columns: two stripes of 1-bit words. The walk
    # spends every unit in one pass at its end by adding -units, which
    # carries out of every word that holds them; a word zeroed behind the
    # mirror's back gives no carry. The spend comes just before the end
    # check, which it keeps from ever seeing the wrapped word: the walk
    # reads no stripe back.
    asm = make_asm(rows=64, cols=16)
    labels = ["".join(p) for p in itertools.product("ACGT", repeat=3)][:19]
    g = path_graph(*labels)
    asm.find_start(g)
    sid, lsb = g.store.stripes[edge // 16]
    asm.machine.write_vwords(sid, lsb, g.store.width, {edge % 16: 0})
    reads = asm.trace.total(tr.R)
    with pytest.raises(ConsistencyError, match=f"spent 1 of edge {edge}'s units, more than"):
        asm.fleury(g)
    assert asm.trace.total(tr.R) == reads


def test_a_start_probe_that_overflows_raises(monkeypatch):
    # every in-degree plane is set all-ones after its read-back, as the
    # probe adds 1 to it, so in + 1 carries out of the exact-width degree
    # words. Unchecked, the wrapped sums would only show up as a start list
    # that disagrees with the mirror.
    asm, g = build_graph(["CGTGTGCA"], 5, rows=64, cols=16)
    m = asm.machine
    add = m.add_const_cols

    def saturate_then_add(sid, lsb, width, cols, constant):
        for row in range(lsb, lsb + width):
            m.subarray(sid).cells[row] = (1 << m.cols) - 1
        return add(sid, lsb, width, cols, constant)

    monkeypatch.setattr(m, "add_const_cols", saturate_then_add)
    with pytest.raises(ConsistencyError, match="in \\+ 1 overflowed"):
        asm.find_start(g)


def random_eulerian_graph(rng, n_nodes, n_steps):
    """Closed random walk, aggregated to weighted edges: Eulerian by build."""
    labels = ["".join(p) for p in itertools.product("ACGT", repeat=3)]
    walk = [rng.randrange(n_nodes) for _ in range(n_steps)]
    walk.append(walk[0])
    pairs = Counter(zip(walk, walk[1:]))
    g = SparseGraph()
    for (u, v), mult in pairs.items():
        g.add_edge(E(labels[u]), E(labels[v]), mult=mult)
    return g


def random_connected_graph(rng, n_nodes, n_walks):
    """Open random walks, each leaving a node an earlier one visited,
    aggregated to weighted edges: weakly connected, any degree sequence."""
    labels = ["".join(p) for p in itertools.product("ACGT", repeat=3)]
    visited = [rng.randrange(n_nodes)]
    pairs = Counter()
    for _ in range(n_walks):
        walk = [rng.choice(visited)]
        walk += [rng.randrange(n_nodes) for _ in range(rng.randint(1, 6))]
        visited += walk[1:]
        pairs.update(zip(walk, walk[1:]))
    g = SparseGraph()
    for (u, v), mult in pairs.items():
        g.add_edge(E(labels[u]), E(labels[v]), mult=mult)
    return g


def total_surplus(g):
    out_d, in_d = g.degrees()
    return sum(max(0, o - i) for o, i in zip(out_d, in_d))


def walked_steps(paths):
    """Units walked per (tail, head) pair, over every trail."""
    return Counter(step for p in paths for step in zip(p.node_ids, p.node_ids[1:]))


def units_per_pair(g, mult):
    """Units per (tail, head) pair under the per-edge multiplicities `mult`."""
    units = Counter()
    for u, v, m in zip(g.edge_src, g.edge_dst, mult):
        units[(u, v)] += m
    return units


def test_fleury_covers_random_eulerian_multigraphs():
    for seed in range(10):
        rng = random.Random(seed)
        g = random_eulerian_graph(rng, rng.randint(2, 8), rng.randint(4, 14))
        asm = make_asm(rows=64, cols=16)
        [path] = asm.fleury(g)
        assert len(path.node_ids) == g.total_multiplicity() + 1
        assert path.node_ids[0] == path.node_ids[-1]
        assert walked_steps([path]) == units_per_pair(g, g.mult)
    # any weakly connected graph: every unit walked once, in the fewest trails
    for seed in range(60):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(1, 8), rng.randint(1, 5))
        paths = make_asm(rows=64, cols=16).fleury(g)
        assert walked_steps(paths) == units_per_pair(g, g.mult)
        assert len(paths) == max(1, total_surplus(g))


def check_trails_per_component(g, mult, paths):
    """Each weak component with edges walks max(1, its outgoing surplus)
    trails under `mult`, and an edge-less node walks none. Returns each
    component's surplus."""
    comp_of = weakly_connected_components(g)
    out_d, in_d = g.degrees(mult)
    surplus, has_edges = Counter(), set()
    for x, ci in enumerate(comp_of):
        surplus[ci] += max(0, out_d[x] - in_d[x])
        if out_d[x] or in_d[x]:
            has_edges.add(ci)
    trails = Counter(comp_of[p.node_ids[0]] for p in paths)
    assert trails == {ci: max(1, surplus[ci]) for ci in has_edges}
    return surplus


# 1 and every 2^j - 1 and 2^j up to 255: the values whose bit length a
# width rule that is off by one would get wrong
BOUNDARY = [1] + [v for j in range(1, 8) for v in (2**j - 1, 2**j)] + [255]


@st.composite
def boundary_multigraphs(draw):
    """A multigraph on up to 5 nodes with boundary multiplicities, one node
    raised by a self-loop to a boundary degree, and the edges a retry
    would rewrite to one unit."""
    labels = ["".join(p) for p in itertools.product("ACGT", repeat=3)]
    n = draw(st.integers(1, 5))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.sampled_from(BOUNDARY)), max_size=4))
    x, degree = draw(node), draw(st.sampled_from(BOUNDARY))
    out_x = sum(m for u, _, m in edges if u == x)
    in_x = sum(m for _, v, m in edges if v == x)
    if degree > max(out_x, in_x):
        edges.append((x, x, degree - max(out_x, in_x)))
    g = SparseGraph()
    for u, v, m in edges:
        g.add_edge(E(labels[u]), E(labels[v]), mult=m)
    rewrite = draw(st.sets(st.integers(0, len(edges) - 1)))
    return g, rewrite


@given(case=boundary_multigraphs())
@settings(max_examples=50, deadline=None)
def test_word_widths_and_the_walk_at_boundary_values(case):
    g, rewrite = case
    assume(max(max(d) for d in g.degrees()) <= 255)
    asm = make_asm(rows=64, cols=4)  # several multiplicity and degree stripes

    def degree_pass():
        asm.find_start(g)
        out_d, in_d = g.degrees(g.store.mult)
        assert degree_words(asm, g) == (out_d, in_d)
        assert g.store.width == max(g.store.mult).bit_length()
        assert g.store.degree.w_deg == (max(out_d + in_d) + 1).bit_length()

    degree_pass()
    if rewrite:
        g.store.write({e: 1 for e in rewrite})
        degree_pass()
    mult = list(g.store.mult)
    paths = asm.fleury(g)
    assert walked_steps(paths) == units_per_pair(g, mult)
    assert g.store.read() == [0] * g.edge_count
    check_trails_per_component(g, mult, paths)


@st.composite
def hub_and_chain_multigraphs(draw):
    """2 to 6 hubs joined by chains of 2 to 30 nodes, each edge of 1 to 3
    units and some self-loops. A chain takes one multiplicity, but some of
    its edges take another, so trails end inside chains and leave them
    partly spent."""
    labels = ["".join(p) for p in itertools.product("ACGT", repeat=5)]
    hubs = draw(st.integers(2, 6))
    hub = st.integers(0, hubs - 1)
    units = st.integers(1, 3)
    edges = []
    nodes = hubs
    for a, b, length, mult in draw(
        st.lists(st.tuples(hub, hub, st.integers(2, 30), units), min_size=1, max_size=8)
    ):
        chain = [a, *range(nodes, nodes + length), b]
        nodes += length
        odd = draw(st.dictionaries(st.integers(0, length), units, max_size=3))
        edges += [(x, y, odd.get(i, mult)) for i, (x, y) in enumerate(zip(chain, chain[1:]))]
    loops = draw(st.lists(st.tuples(st.integers(0, nodes - 1), units), max_size=3))
    edges += [(x, x, m) for x, m in loops]
    g = SparseGraph()
    for u, v, m in edges:
        g.add_edge(E(labels[u]), E(labels[v]), mult=m)
    return g


@pytest.mark.parametrize("cols", [4, 16])
@given(g=hub_and_chain_multigraphs())
@settings(max_examples=30, deadline=None)
def test_the_walk_pays_one_op_per_unit_and_per_trail(cols, g):
    # the walk's controller ops are one per edge unit walked and one per
    # trail, however many hubs and chains it passes, and its one spend at
    # the end leaves every word at zero
    asm = make_asm(rows=64, cols=cols)  # segments cross stripes
    asm.find_start(g)
    before = asm.trace.total(tr.DPU, stage=tr.STAGE_TRAVERSE)
    paths = asm.fleury(g)
    walk_ops = asm.trace.total(tr.DPU, stage=tr.STAGE_TRAVERSE) - before
    assert walk_ops == g.total_multiplicity() + len(paths)
    assert g.store.read() == [0] * g.edge_count
    assert walked_steps(paths) == units_per_pair(g, g.mult)


def disjoint_union(parts, rng):
    """One graph holding each part on labels of its own, its edges added in
    shuffled order, so the parts' node ids interleave."""
    labels = ["".join(p) for p in itertools.product("ACGT", repeat=4)]
    edges, offset = [], 0
    for part in parts:
        for u, v, m in zip(part.edge_src, part.edge_dst, part.mult):
            edges.append((labels[offset + u], labels[offset + v], m))
        offset += len(part.nodes)
    rng.shuffle(edges)
    g = SparseGraph()
    for u, v, m in edges:
        g.add_edge(E(u), E(v), mult=m)
    return g


def test_the_walk_covers_several_components_with_the_fewest_trails():
    # The virtual edges pair the deficit units with the surplus units in
    # ascending node order, so they join components to each other; cut at
    # them, each circuit still yields trails of real edges, max(1, surplus)
    # per component, each from a surplus node to a deficit node.
    crossed = 0  # virtual edges whose ends lie in two components
    for seed in range(40):
        rng = random.Random(seed)
        parts = [
            random_connected_graph(rng, rng.randint(1, 8), rng.randint(1, 5))
            for _ in range(rng.randint(2, 4))
        ]
        g = disjoint_union(parts, rng)
        comp_of = weakly_connected_components(g)
        out_d, in_d = g.degrees()
        deficits = [x for x in range(len(g.nodes)) for _ in range(in_d[x] - out_d[x])]
        starts = [x for x in range(len(g.nodes)) for _ in range(out_d[x] - in_d[x])]
        crossed += sum(comp_of[d] != comp_of[s] for d, s in zip(deficits, starts))
        paths = make_asm(rows=64, cols=16).fleury(g)
        surplus = check_trails_per_component(g, g.mult, paths)
        real = set(zip(g.edge_src, g.edge_dst))
        for p in paths:
            head, tail = p.node_ids[0], p.node_ids[-1]
            if head == tail:  # a circuit, only where the component has no surplus
                assert not surplus[comp_of[head]]
            else:
                assert out_d[head] > in_d[head] and in_d[tail] > out_d[tail]
            assert set(zip(p.node_ids, p.node_ids[1:])) <= real
        assert walked_steps(paths) == units_per_pair(g, g.mult)
    assert crossed > 0


# ---- path merging and components -------------------------------------------


def test_contig_from_path_examples():
    labs = [E(s) for s in ("CGTG", "GTGT", "TGTG", "GTGC", "TGCA")]
    assert contig_from_path(labs, 5).to_str() == "CGTGTGCA"
    assert contig_from_path([E("AC")], 3).to_str() == "AC"
    assert contig_from_path([E("A"), E("C")], 2).to_str() == "AC"  # no overlap
    with pytest.raises(ConsistencyError):
        contig_from_path([E("AC"), E("GG")], 3)
    # k = 5 labels overlap by 3 bases, which 2-base labels cannot hold
    with pytest.raises(ConsistencyError, match="path label shorter than the overlap"):
        contig_from_path([E("AC"), E("CG")], 5)
    with pytest.raises(SizeError):
        contig_from_path([], 3)


def test_weak_components():
    g = SparseGraph()
    g.add_edge(E("A"), E("C"))
    g.add_edge(E("G"), E("T"))
    g.add_edge(E("C"), E("A"))
    assert weakly_connected_components(g) == [0, 0, 1, 1]
    assert weakly_connected_components(SparseGraph()) == []


def members(comp_of):
    """Component index per node -> each component's node ids, ascending,
    in component order."""
    comps = {}
    for nid, ci in enumerate(comp_of):
        comps.setdefault(ci, []).append(nid)
    assert list(comps) == list(range(len(comps)))
    return list(comps.values())


def dfs_components(g):
    """The weak components by depth-first search over an undirected
    adjacency list, each sorted, in order of their smallest member."""
    und = {i: [] for i in range(len(g.nodes))}
    for u, v in zip(g.edge_src, g.edge_dst):
        und[u].append(v)
        und[v].append(u)
    seen = set()
    comps = []
    for start in range(len(g.nodes)):
        if start in seen:
            continue
        comp, stack = [start], [start]
        seen.add(start)
        while stack:
            for v in und[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


@st.composite
def multigraphs(draw):
    """Up to 30 nodes, some touched by no edge, and up to 40 edges between
    them, self-loops and parallel edges included."""
    n = draw(st.integers(min_value=0, max_value=30))
    node = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=40 if n else 0))
    labels = [E("".join("ACGT"[i >> 2 * j & 3] for j in range(3))) for i in range(n)]
    g = SparseGraph()
    for label in labels:
        g.node_id(label)
    for u, v in pairs:
        g.add_edge(labels[u], labels[v])
    return g


@given(g=multigraphs())
@settings(max_examples=200, deadline=None)
def test_union_find_components_equal_a_depth_first_search(g):
    assert members(weakly_connected_components(g)) == dfs_components(g)


# ---- whole pipeline --------------------------------------------------------


def test_assemble_single_read_round_trip():
    asm = make_asm()
    result = asm.assemble([E("CGTGTGCA")], 5)
    assert [c.to_str() for c in result.contigs] == ["CGTGTGCA"]
    assert result.warnings == []
    assert len(result.paths) == 1


def test_assemble_two_components():
    asm = make_asm()
    result = asm.assemble([E("ACGTT"), E("GAAAG")], 3)
    assert [c.to_str() for c in result.contigs] == ["ACGTT", "GAAAG"]
    # path node ids index the returned graph, whose nodes give the labels
    g = result.graph
    assert [p.node_ids for p in result.paths] == [[0, 1, 2, 3], [4, 5, 5, 6]]
    assert [[g.nodes[i].to_str() for i in p.node_ids] for p in result.paths] == [
        ["AC", "CG", "GT", "TT"],
        ["GA", "AA", "AA", "AG"],
    ]


@pytest.mark.parametrize("lost", [0, 1])
def test_a_lost_trail_fails_the_coverage_check(monkeypatch, lost):
    # a walk that drops a trail leaves its component to a single-node path,
    # whose (k-1)-base label holds no k-mer; the self-check finds the 3
    # k-mers of that read missing and raises before the contigs go out:
    # the only transfer is the two 5-base reads in, 2 bytes each
    walk = Assembler.fleury

    def drop_one(self, g):
        paths = walk(self, g)
        del paths[lost]
        return paths

    monkeypatch.setattr(Assembler, "fleury", drop_one)
    asm = make_asm()
    with pytest.raises(ConsistencyError, match="contigs miss 3 of the reads' 6 distinct k-mers"):
        asm.assemble([E("ACGTT"), E("GAAAG")], 3)
    assert asm.trace.total(tr.XFER) == 4


def test_only_the_retried_component_walks_unit_words():
    # GA->AA, AA->AA x2, AA->AG is an Euler path under multiplicities;
    # CG->GT x3 has an outgoing surplus of 3 and is retried on a unit word
    asm = make_asm()
    walked_words = []
    pass_costs = []
    walk = asm.fleury
    degree_pass = asm.find_start

    def snapshot_then_walk(g):
        walked_words.extend(g.store.read())
        assert degree_words(asm, g) == g.degrees(g.store.mult)
        return walk(g)

    def costed_pass(g):
        before = traverse_totals(asm.trace)
        starts = degree_pass(g)
        after = traverse_totals(asm.trace)
        pass_costs.append({kind: after[kind] - before[kind] for kind in after})
        return starts

    asm.fleury = snapshot_then_walk
    asm.find_start = costed_pass
    result = asm.assemble([E("GAAAAG")] + [E("CGT")] * 3, 3)
    assert walked_words == [1, 2, 1, 1]
    # 5 nodes in one degree stripe, 4 edges in one stripe. The words hold
    # 1, 2, 1, 3: 2 bits wide, narrowed to 2.bit_length() = 2 by the retry.
    # AA's in- and out-degree is 3 in both passes, so the probe's in + 1
    # needs 4.bit_length() = 3-bit degree words (d = 3) both times.
    # Every pass reads the stripe (2 R) and the out and in planes (6 R),
    # and runs the start probe on all columns: + 1 on the in words, then
    # dead, and 3 plane compares (6 W, 6 C_ADD, 4 DPU).
    # AA has two out- and two in-edges, so each end runs a rank-0 and a
    # rank-1 wave. A rank-0 wave is written straight into the zeroed out
    # or in words, one plane per bit of its largest word, since the fresh
    # planes above hold zeros. A rank-1 wave adds AA's one word as one +1
    # per set bit: the out end adds AA -> AG's 1 at plane 0 of AA's out =
    # 2, and the in end AA -> AA's 2 at plane 1 of AA's in = 1. Neither
    # carries, so each +1 stops at the first plane it tests: 1 C_ADD, 2 W
    # and 1 DPU.
    #   pass 1, words 1, 2, 1, 3: rank-0 waves {GA: 1, AA: 2, CG: 3} out
    #   and {AA: 1, AG: 1, GT: 3} in, 2 planes each:
    #   W 2 + 2 + 2 * 2 + 6 = 14, C_ADD 2 + 6 = 8
    #   pass 2, words 1, 2, 1, 1: the in wave {AA: 1, AG: 1, GT: 1} writes
    #   1 plane: W 2 + 1 + 2 * 2 + 6 = 13, C_ADD 8
    # The second pass is the same full pass on fresh rows, which hold
    # zeros, so it clears nothing and writes its rank-0 waves as well, and
    # it counts the passing component's edges again.
    # The probe's + 1 reduces the carry of every plane below the last: AA's
    # in = 3 carries out of planes 0 and 1 in both passes, so it tests 2
    # planes and stops none early: with the rank-1 adds' 2, 4 + 2 + 2 = 8
    # DPU per pass.
    assert pass_costs == [
        {tr.R: 8, tr.W: 14, tr.C_ADD: 8, tr.DPU: 8},
        {tr.R: 8, tr.W: 13, tr.C_ADD: 8, tr.DPU: 8},
    ]
    assert result.graph.store.mult == [1, 2, 1, 1]
    assert result.graph.mult == [1, 2, 1, 3]  # the graph keeps its counts
    assert [p.node_ids for p in result.paths] == [[0, 1, 1, 1, 2], [3, 4]]
    assert [c.to_str() for c in result.contigs] == ["GAAAAG", "CGT"]
    assert result.warnings == [_UNIT_RUNG.format(3)]


def test_assemble_overlapping_reads_reconstruct_the_genome():
    genome = "TTAGGCATCGCCGGAATCCGAT"
    reads = [E(genome[i : i + 8]) for i in range(0, len(genome) - 7, 1)]
    asm = make_asm()
    result = asm.assemble(reads, 6)
    assert [c.to_str() for c in result.contigs] == [genome]


def test_assemble_simplify_gives_the_same_contigs():
    genome = "TTAGGCATCGCCGGAATCCGAT"
    reads = [E(genome[i : i + 8]) for i in range(0, len(genome) - 7, 1)]
    plain = make_asm().assemble(reads, 6)
    merged = make_asm(simplify=True).assemble(reads, 6)
    assert [c.to_str() for c in plain.contigs] == [c.to_str() for c in merged.contigs]
    assert merged.graph.edge_count <= plain.graph.edge_count


def test_assemble_empty_input_gives_empty_output():
    result = make_asm().assemble([], 5)
    assert result.contigs == []
    assert result.warnings == []
    assert result.table.distinct() == 0


def test_assemble_skips_short_reads_with_a_warning():
    asm = make_asm()
    result = asm.assemble([E("ACG"), E("CGTGTGCA")], 5)
    assert [c.to_str() for c in result.contigs] == ["CGTGTGCA"]
    assert any("skipped 1 reads" in w for w in result.warnings)
    only_short = make_asm().assemble([E("ACG")], 5)
    assert only_short.contigs == []
    assert len(only_short.warnings) == 1


def test_assemble_degrades_on_uneven_coverage():
    # stride-1 tiling ramps coverage at the ends, so multiplicity-weighted
    # degrees are not Eulerian; the walk retries with unit multiplicities
    genome = "TTAGGCATCGCCGGAATCCGATAGGCTT"
    reads = [E(genome[i : i + 10]) for i in range(len(genome) - 9)]
    result = make_asm().assemble(reads, 6)
    assert any("unit multiplicities" in w for w in result.warnings)
    assert [c.to_str() for c in result.contigs] == [genome]


@st.composite
def repeat_workloads(draw):
    """(genome, reads, k): a genome with a planted repeat twice and a tandem
    repeat, read as tiled windows or as coverage-sampled reads with a gap;
    or a genome whose (k-1)-windows are all distinct, tiled end to end."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    k = draw(st.integers(min_value=6, max_value=9))
    read_len = draw(st.integers(min_value=k, max_value=2 * k + 4))
    if draw(st.booleans()):
        genome = distinct_window_genome(
            draw(st.integers(min_value=read_len, max_value=60)), k - 1, rng
        )
        stride = draw(st.integers(min_value=1, max_value=read_len - k + 1))
        reads = [genome[i : i + read_len] for i in range(0, len(genome) - read_len + 1, stride)]
        return genome, reads + [genome[-read_len:]], k, True
    flank = [random_genome(draw(st.integers(min_value=1, max_value=30)), rng) for _ in range(4)]
    rep = random_genome(draw(st.integers(min_value=k, max_value=3 * k)), rng)
    unit = random_genome(draw(st.integers(min_value=1, max_value=4)), rng)
    tandem = unit * draw(st.integers(min_value=2, max_value=8))
    genome = flank[0] + rep + flank[1] + tandem + flank[2] + rep + flank[3]
    if draw(st.booleans()):
        stride = draw(st.integers(min_value=1, max_value=read_len - k + 1))
        starts = range(0, len(genome) - read_len + 1, stride)
    else:
        hi = len(genome) - read_len
        coverage = draw(st.integers(min_value=1, max_value=6))
        starts = [rng.randint(0, hi) for _ in range(coverage * len(genome) // read_len)]
        gap = rng.randint(0, hi)
        starts = [p for p in starts if not gap <= p + read_len // 2 < gap + read_len]
    return genome, [genome[p : p + read_len] for p in starts], k, False


def kmer_set(seqs, k):
    return {s[i : i + k] for s in seqs for i in range(len(s) - k + 1)}


def component_trails(g, comp):
    """Trails a component needs: one Euler path when its multiplicities
    allow it, else the minimum trail cover of its unit-multiplicity graph."""

    def surplus(out_d, in_d):
        return sum(max(0, out_d[nid] - in_d[nid]) for nid in comp)

    if surplus(*g.degrees()) <= 1:
        return 1
    return max(1, surplus(*g.degrees([1] * g.edge_count)))


@given(workload=repeat_workloads())
@settings(max_examples=40, deadline=None)
def test_contigs_hold_exactly_the_read_kmers(workload):
    genome, reads, k, unique = workload
    result = Assembler(rows=64, cols=32).assemble([E(r) for r in reads], k)
    contigs = [c.to_str() for c in result.contigs]
    assert kmer_set(contigs, k) == kmer_set(reads, k)
    g = result.graph
    comp_of = weakly_connected_components(g)
    walked = Counter(comp_of[p.node_ids[0]] for p in result.paths)
    comps = members(comp_of)
    assert walked == {ci: component_trails(g, comp) for ci, comp in enumerate(comps)}
    if unique:
        assert contigs == [genome]


def ladder_reads():
    """Two chromosomes flank(40) + R(30) + mid(20) + R + flank(40), each with
    its own repeat R, read as 30-base windows every 5 bases. The last window
    of the 160 bases starts at 130, on the stride, so both ends are read."""
    rng = random.Random(3)
    reads = []
    for _ in range(2):
        flank, rep, mid, tail = (random_genome(n, rng) for n in (40, 30, 20, 40))
        chrom = flank + rep + mid + rep + tail
        reads += [E(chrom[i : i + 30]) for i in range(0, len(chrom) - 29, 5)]
    return reads


_UNIT_RUNG = (
    "component is not Eulerian under multiplicities (outgoing surplus sums "
    "to {}); retrying with unit multiplicities"
)

# The fallback ladder: ladder_reads at k=11 on 64 x 32, simplify off and
# on. 54 reads of 30 bases make 1,080 queries of 259 distinct keys.
#   io XFER      54 reads * 8 bytes, plus the contigs: off 39, 110, 40 and
#                110 bases (10 + 28 + 10 + 28 bytes), on 160 and 160 (40 + 40)
#                                                       off 508, on 512
#   hashmap      the same both ways. A 22-bit key takes a 32-column pitch,
#                so a key row holds one key: 36 key rows and 36 buckets per
#                sub-array, and the fewest groups whose hashed key counts
#                fit are 10. The 360 buckets hold the keys in 183. A
#                bucket's keys all sit in column 0, the one slot, so no
#                miss joins a batch: the 183 first keys have no older key
#                to be checked against, and the other 76 are each
#                compared once their key row is written, against their
#                bucket's older rows: 98 compares. Each of the 821 hits
#                fills column 0, so it probes alone in its batch. A
#                group's 8 temp rows and the free key rows above its
#                fullest column (31 of 36 at the end) hold its recent
#                images: 574 batches find theirs held, 247 write one. A
#                hit compares its bucket's rows newest first, down to its
#                key's: 851 compares. That is 5 more than when the misses
#                were imaged, since a miss placed after a hit of its
#                bucket in one read now waits from its placement, so the
#                hit's batch writes its row first and compares it too.
#                Each key takes one row write. No group holds more than 31
#                keys, so each keeps its counters in one stripe: 10 seed
#                writes, and 30 adds, a +1 at planes 0, 1 and 2 of each
#                stripe, each stopping one plane up: 60 planes.
#     W      247 images + 259 key rows + 10 seeds + 2 * 60  =   636
#     C_ADD  98 + 851 compares + 60                          = 1,009
#     DPU    98 + 851 + 60                                   = 1,009
#   graph        259 nodes and 259 edges, largest multiplicity 8; each
#                label is checked in its key row, and none is copied.
#     R      10 counter stripes * 8 planes                   =    80
#            simplify on: + the 257 key rows that hold the 259 labels,
#            which the merge reads once each                 =   337
#     W      off: 259 edges in 9 stripes of 4-bit words * 4  =    36
#            on: the merged graph's 8 edges of multiplicity 4 in one
#            3-bit stripe, written after the merge           =     3
#     DPU    on: the merge's 259 nodes + 259 edges           =   518
#   traverse, simplify off: two components of 129 and 130 nodes, each with
#     an outgoing surplus of 4 at multiplicities, so both retry at unit
#     words and split into two trails (29 + 100 and 30 + 100 units). 9
#     degree stripes of 32 nodes; pass 1 has 4-bit words (largest degree
#     8), pass 2 on fresh rows 2-bit ones (largest 2), and each pass runs
#     22 waves of (stripe, rank): 18 of rank 0, one per stripe and end,
#     and 4 later ones. Each pass reads the 9 multiplicity stripes once,
#     at 4 bits and then, after the rewrite, at 1. Per degree stripe and
#     pass of d-bit words: the read-back 2d R, the probe's + 1 on the in
#     words, d plane compares (C_ADD + DPU) and one controller op. A
#     rank-0 wave is written straight into the zeroed out or in words, one
#     plane per bit of its largest word, since the fresh planes above hold
#     zeros: in pass 1, 4 waves reach 8 (4 planes), 12 reach 4 (3 planes)
#     and the last stripe's 2 hold only 1s (1 plane); in pass 2 all 18
#     hold 1s. Each later wave holds one word and adds it as a +1 at its
#     set bit: 4 at plane 2 of a 4 in pass 1, 1 at plane 0 of a 1 in pass
#     2. Each carries out of its first plane and runs to the word's last:
#     2 C_ADD, 4 W and 1 DPU. The probe's
#     + 1 runs 18 planes in pass 1 (plane 0, 1 or 2 is its last) and 2 per
#     stripe in pass 2, one DPU per plane tested (18, then 9). The walk
#     spends its 259 units at its end, with one one-bit add of -1 per
#     multiplicity stripe: 9 adds.
#     DPU    components 259 + 259; per stripe and pass 9 * 5 + 9 * 3; the
#            probe's 18 + 9; the later waves' 4 + 4; the walk's 259
#            units + 4 trails                                =   888
#     R      pass 1: 9 * 4 stripe + 9 * 2 * 4 = 108; pass 2: 9 * 1 +
#            9 * 2 * 2 = 45; end check 9 * 1                 =   162
#     W      pass 1: the probe's 2 * 18 + 4 * 4 + 12 * 3 + 2 * 1 + 4 * 4
#            = 106; retry rewrite at 4 bits 9 * 4 = 36; pass 2: 2 * 18 +
#            18 * 1 + 4 * 4 = 70; the walk's adds 9 * 2      =   230
#     C_ADD  pass 1: 9 * 4 + 18 + 4 * 2 = 62; pass 2: 9 * 2 + 18 + 4 * 2
#            = 44; the walk's 9 adds                         =   115
#   traverse, simplify on: two 4-node components of 4 edges of
#     multiplicity 4, each retried at unit words and walked in one trail.
#     One degree stripe, d = 4 then 2, 4 waves a pass. The 2 rank-0 waves
#     are written, not added: 4s in pass 1 (3 planes each), 1s in pass 2
#     (1 plane each). Each of the 2 later waves adds its two columns'
#     words as a +1 at their set bit, which carries out of its first plane
#     and runs to the word's last (2 C_ADD, 4 W, 1 DPU): at plane 2 of 4s
#     in pass 1, at plane 0 of 1s in pass 2. The probe's + 1
#     runs 1 plane in pass 1 and 2 in pass 2, one DPU each pass; the walk
#     spends its 8 units at its end in one add.
#     DPU    components 8 + 8; the stripe 5 + 3; the probe's 1 + 1; the
#            later waves' 2 + 2; the walk's 8 units + 2 trails =  40
#     R      pass 1: 3 + 2 * 4 = 11; pass 2: 1 + 2 * 2 = 5; end check 1
#                                                            =    17
#     W      pass 1: 2 + 2 * 3 + 2 * 4 = 16; rewrite at 3 bits 3;
#            pass 2: 4 + 2 * 1 + 2 * 4 = 14; the walk's add 2
#                                                            =    35
#     C_ADD  pass 1: 4 + 1 + 2 * 2 = 9; pass 2: 2 + 2 + 2 * 2 = 8; the
#            walk's add                                      =    18
#   sub-arrays   10 hash groups, then the row bank's 58-row data regions.
#                Off: the 9 4-row multiplicity stripes and 2 of pass 1's
#                8-row stripes (out and in words) fill the first, to row
#                52, the other 7 the second, to row 56, and pass 2's 4-row
#                stripes all go in a third: 13. On: the 3-bit stripe and
#                both degree stripes (3 + 8 + 4 = 15 rows) fit one: 11.
LADDER = {
    False: (
        [
            ("io", "XFER", 508),
            ("hashmap", "W", 636),
            ("hashmap", "C_ADD", 1009),
            ("hashmap", "DPU", 1009),
            ("graph", "R", 80),
            ("graph", "W", 36),
            ("traverse", "DPU", 888),
            ("traverse", "R", 162),
            ("traverse", "W", 230),
            ("traverse", "C_ADD", 115),
        ],
        13,
        [
            "TCAGTTAAATGGCAGAAAACTGGCAGGGCTTGTCGAGCG",
            "CCGTAATGCCTTTCCCTAACAGAGTTTTTCGAACTCGTGTTGTCGAGCGACGGAATTAGA"
            "TCAGTTAAATTTTAGTCGTGGGATGATCAGTGGGTAAAGGTGGCGCGGGG",
            "AACTAATACGCATAAGCGTAGCCAACCGCAGTTATCCATT",
            "TAACGCGCGCTAAGGCTCAGCTGCAACGCGGAGCTGGTGTGTTATCCATTCATGGCAGAC"
            "AACTAATACGTTAGCGTATGAACAAAATAATGCGAGTTGGGCGTACATAC",
        ],
        [_UNIT_RUNG.format(4), "component splits into 2 contigs"] * 2,
    ),
    True: (
        [
            ("io", "XFER", 512),
            ("hashmap", "W", 636),
            ("hashmap", "C_ADD", 1009),
            ("hashmap", "DPU", 1009),
            ("graph", "R", 337),
            ("graph", "DPU", 518),
            ("graph", "W", 3),
            ("traverse", "DPU", 40),
            ("traverse", "R", 17),
            ("traverse", "W", 35),
            ("traverse", "C_ADD", 18),
        ],
        11,
        [
            "CCGTAATGCCTTTCCCTAACAGAGTTTTTCGAACTCGTGTTGTCGAGCGACGGAATTAGA"
            "TCAGTTAAATGGCAGAAAACTGGCAGGGCTTGTCGAGCGACGGAATTAGATCAGTTAAAT"
            "TTTAGTCGTGGGATGATCAGTGGGTAAAGGTGGCGCGGGG",
            "TAACGCGCGCTAAGGCTCAGCTGCAACGCGGAGCTGGTGTGTTATCCATTCATGGCAGAC"
            "AACTAATACGCATAAGCGTAGCCAACCGCAGTTATCCATTCATGGCAGACAACTAATACG"
            "TTAGCGTATGAACAAAATAATGCGAGTTGGGCGTACATAC",
        ],
        [_UNIT_RUNG.format(4)] * 2,
    ),
}


@pytest.mark.parametrize("simplify", [False, True])
def test_fallback_ladder_trace_is_pinned(simplify):
    records, subarrays, contigs, warnings = LADDER[simplify]
    asm = Assembler(rows=64, cols=32, simplify=simplify)
    result = asm.assemble(ladder_reads(), 11)
    assert asm.trace.records() == records
    assert asm.machine.subarray_count == subarrays
    assert [c.to_str() for c in result.contigs] == contigs
    assert result.warnings == warnings


# The canonical run (tests/conftest.py: 9,901 reads of 100 bases tiled
# at stride 1 over a 10,000-base genome with distinct 24-mers, k=25,
# 1024 x 256, simplify off):
#   io XFER        9,901 reads * 25 bytes + one 10,000-base contig's
#                  2,500 bytes                               =   250,025
#   hashmap        752,476 queries, 9,976 distinct keys in 3 groups of
#                  3,568 buckets, one per key slot (fill 3,250, 3,379,
#                  3,347; 0.93 keys per bucket), 3 sub-arrays.
#     No column fills, so every miss puts its key in its bucket's one
#     column, joins no batch and waits from its placement. The 6,503 first
#     misses into an empty bucket have nothing to be checked against; the
#     other 3,473 are checked when their key row is written, against their
#     bucket's older rows: 4,697 compares. The 742,500 hits fill image
#     columns, up to 4 per batch (3.24 per batch), in 228,953 batches: a
#     hit joins its read's batch for its bucket's newest placed key row. It
#     compares its bucket's rows newest first, down to its key's: 231,970
#     rows (1.01 per batch), so 236,667 compares in all (0.31 per query).
#     A new key waits until a later batch of any read probes its bucket, a
#     later miss into its bucket finds it waiting, a read ends with every
#     column past its key row, or the stage ends, and then its key row is
#     written with every key waiting in it. In each group the first read's
#     keys, 76 in all, complete 19 rows by its end: 19 writes. After each
#     group's first read, every read brings one new key, its last k-mer
#     (9,976 - 76 = 9,900 keys in the 9,900 later reads), and the next read
#     holds it again, as its second-to-last k-mer. A key whose read ends
#     with every column past its row is written then, alone: 2,023 writes.
#     Any other key waits for the next read's hit on it, whose batch writes
#     its row first: 6,518 writes, 1,357 of which also take the next
#     read's own key, placed in the same row when that read was observed.
#     One key is written when a later miss into its bucket finds it
#     waiting, and the last read's key waits until the stage's end: 2
#     writes. So 2,023 + 5,161 + 2 * 1,357 + 2 = 9,900 keys take 8,543
#     writes, where writing each read's key row at its end took 9,900, and
#     imaging each checked miss in its read's batches took 8,678. Each
#     group keeps its images in its 8 temp rows and in the key rows above
#     its fullest column, up to 783 in one group at once, so 211,515
#     batches find their image held and only 17,438 write one. Each key's
#     counter sits
#     at its key index, and the groups' highest key indices are 3,251,
#     3,382 and 3,348, so the counters fill 13 + 14 + 14 = 41 stripes of
#     256. After the last read
#     one seed write per (sub-array, counter stripe) starts them all, 41
#     in all. No k-mer is read more than 76 times, so a pending amount is
#     at most 75 = 0b1001011, seven bits, and the adds are one +1 per
#     (sub-array, counter stripe, set bit). Bits 2, 4 and 5 are set only
#     by the keys within 75 bases of a genome end, read fewer times, which
#     sit in 7 stripes: 7 adds at each of those planes. 40 stripes hold a
#     key read 76 times; the third group's last stripe holds only 19 end
#     keys, read at most 59 times, which set bits 0, 1 and 3 but not 6. So
#     41 adds run at each of planes 0, 1 and 3, and 40 at plane 6: 184
#     adds. No counter passes 76, so each add stops at its last carry
#     plane: 41 at plane 1, 42 at 2, 42 at 3, 9 at 4, 8 at 5 and 42 at 6,
#     282 planes of 1 C_ADD + 2 W + 1 DPU each.
#     W  17,438 image writes, 19 + 2,023 + 6,518 + 2 = 8,562 key
#        row writes, 41 counter-seed writes, and the adds' 2 * 282
#                                                            =    26,605
#     DPU one per compared row (236,667) + 282               =   236,949
#     C_ADD the compares (236,667) + 282                     =   236,949
#   graph          9,977 nodes, 9,976 edges, largest multiplicity 76.
#     Each node's label is checked in place in its key row; nothing is
#     copied.
#     R  each counter stripe that holds a key, once: 13 + 14 + 14
#        = 41 stripes * 8                                    =       328
#     W  39 stripes of 7-bit words * 7                       =       273
#   traverse       one path; its 76 surplus units at multiplicities make
#                  it retry at unit words. 39 degree stripes, d = 7
#                  then 2 (degrees up to 76, then 1); every node has one
#                  out- and one in-edge, so one wave each way per
#                  stripe and pass, each of rank 0: it is written
#                  straight into the fresh rows' zeroed out or in words,
#                  one plane per bit of its largest word, and no wave is
#                  added. Every pass-1 wave holds a 76 (7 planes), and
#                  every pass-2 wave only 1s (1 plane).
#     The probe's + 1: in pass 1 the 37 middle stripes hold in-degree 76
#     only, which is even, so their adds stop at plane 0 (1 C_ADD, 2 W,
#     1 DPU); the first and last stripes hold the ramp 0..76, whose 63
#     carries to plane 6, the last (7 C_ADD, 14 W, 6 DPU). In pass 2 every
#     in-degree is 1 (node 0's is 0): each add tests plane 0 and runs to
#     plane 1, the last (2 C_ADD, 4 W, 1 DPU).
#     DPU components 9,977 + 9,976; per stripe and pass d + 1:
#        39 * 8 + 39 * 3; the probe adds' reduces 37 + 2 * 6 + 39;
#        the walk's one per edge unit and per trail,
#        9,976 + 1                                           =    30,447
#     The probe adds its 1 to the in words themselves, once they are read
#     back, and compares out against them, so it copies no plane.
#     R  pass 1: 39 * 7 stripe + 39 * 2 * 7 read-back = 819; pass 2:
#        39 * 1 + 39 * 2 * 2 = 195; end check 39 * 1        =     1,053
#     W  pass 1: 37 * 2 + 2 * 14 probe adds + 78 waves * 7 = 648; retry
#        rewrite 39 * 7 = 273; pass 2, on fresh rows: 39 * 4 + 78 * 1 =
#        234; the walk's one spend, before the end check: one 1-bit add
#        of -1 per stripe, 39 * 2                            =     1,233
#     C_ADD pass 1: 39 * 7 compares + 37 + 2 * 7 probe adds = 324;
#        pass 2: 39 * 4 = 156; the spend's 39 adds           =       519
#   sub-arrays     3 + 1: one row bank of 1,018-row data regions takes,
#                  in turn, the 39 multiplicity stripes of 7 rows (273
#                  rows), pass 1's 39 stripes of 2 * 7 rows (out and in
#                  words, to row 819) and pass 2's 39 of 2 * 2 rows (to
#                  row 975), all in one                      =         4
CANONICAL_TRACE = [
    ("io", "XFER", 250_025),
    ("hashmap", "W", 26_605),
    ("hashmap", "C_ADD", 236_949),
    ("hashmap", "DPU", 236_949),
    ("graph", "R", 328),
    ("graph", "W", 273),
    ("traverse", "DPU", 30_447),
    ("traverse", "R", 1_053),
    ("traverse", "W", 1_233),
    ("traverse", "C_ADD", 519),
]


def test_the_canonical_trace_is_pinned(canonical_run):
    asm = canonical_run["asm"]
    assert asm.trace.records() == CANONICAL_TRACE
    assert asm.machine.subarray_count == 4


def _benchmark_workloads():
    """perfbench/workloads.py, loaded from its file and left unregistered."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The benchmark's three workloads at seed 1, simplify off, on the default
# 1024 x 256 geometry: (trace records, sub-arrays, contigs). hub-euler's
# 9,956 keys take 3 hash groups and its walk covers them in one trail
# through its 80 hubs; sampled-repeats' 8 components retry at unit words
# and split into 16 contigs. These records are what the benchmark's trace
# digest hashes.
#   hashmap W      the key row writes plus the image writes and the
#                  counter seeds and adds (1,689, 40 and 3,153). No
#                  column fills, so no miss joins a batch, and hub-euler,
#                  all misses, writes no image. A new key waits, across
#                  reads, until a batch probes its bucket, a later miss
#                  into its bucket finds it waiting, a read ends with
#                  every column past its key row, or the stage ends, and
#                  its key row then takes every key waiting in it. So each
#                  key row that holds keys is written once, 244, 2,492 and
#                  1,452 rows (the sums of the groups' fullest columns),
#                  plus once more each time a batch or a miss needed the
#                  row before all of its keys were ready, 293, 4 and 73:
#                  537, 2,496 and 1,525 writes (9,956 keys on hub-euler,
#                  where a row holds 4). tiled-deep's stride-1 reads hit
#                  each new key in the next read, so most of its rows are
#                  needed before they fill. Writing every row a read
#                  touched at the read's end took 919, 3,072 and 1,989
#                  writes, and imaging the misses into buckets that held
#                  keys in their reads' batches took 538, 2,499 and 1,586.
#   hashmap C_ADD  one per compared row, and the DPU the same: the 108,
#                  3,491 and 1,849 misses into buckets that held keys are
#                  each checked when their key row is written, 123, 4,638
#                  and 2,378 compares, and the hits' batches compare
#                  19,225, none and 5,721 rows; with the counter adds'
#                  38, none and 134.
#   traverse       degree passes on 4 stripes at d = 7 then 2
#                  (tiled-deep, retried), 38 at d = 3 (hub-euler) and 23
#                  at d = 4 then 2 (sampled-repeats, retried), every
#                  stripe with edges at both ends, over 4 multiplicity
#                  stripes of 7 bits, 39 of 1 and 23 of 4. Each stripe's
#                  rank-0 wave per end is written straight into the zeroed
#                  out or in words, one plane per bit of its largest word;
#                  a later wave adds its words as one +1 per set bit, which
#                  stops at its last carry plane. The start probe adds 1
#                  to the in words in place, once they are read back, and
#                  copies no plane.
#     R            each pass reads the multiplicity stripes at the store's
#                  width and each degree stripe's out and in words, 2d R,
#                  and the end check reads the multiplicity stripes at 1
#                  bit: 4 * 7 + 4 * 14 + 4 + 4 * 4 + 4 = 108 (tiled-deep),
#                  39 + 38 * 6 + 39 = 306 (hub-euler) and 23 * 4 + 23 * 8 +
#                  23 + 23 * 4 + 23 = 414 (sampled-repeats).
#     W            tiled-deep runs no later wave: 8 rank-0 waves of 7
#                  planes and the probe's 2 * 14 + 2 * 2 in pass 1, the
#                  rewrite's 4 * 7, 8 waves of 1 plane and the probe's
#                  4 * 4 in pass 2, the spend's 4 * 2: 148. hub-euler's 76
#                  rank-0 waves hold unit words, 1 plane each; its 48
#                  (stripe, end) pairs with hubs run 3 later waves each,
#                  a +1 at plane 0 taking each hub's 1 to 2 (4 W, 2 C_ADD,
#                  2 DPU), 2 to 3 (2 W, 1 C_ADD, 1 DPU) and 3 to 4 (6 W, 3
#                  C_ADD, 2 DPU); with the probe's 38 * 4 and the spend's
#                  39 * 2: 76 + 48 * 12 + 152 + 78 = 882. sampled-repeats'
#                  pass 1 writes 28 waves of 3 planes and 18 of 4, adds its
#                  16 later words as 30 +1s (110 W, 55 C_ADD) and probes
#                  with 170 W; the rewrite takes 23 * 4; pass 2 writes 46
#                  waves of 1 plane, adds 16 unit words as one +1 each
#                  (4 W, 2 C_ADD) and probes with 23 * 4; the spend takes
#                  23 * 2: 156 + 110 + 170 + 92 + 46 + 64 + 92 + 46 = 776.
#     walk         one DPU per edge unit walked and one per trail: 976 + 1
#                  (tiled-deep), 9,956 + 1 (hub-euler) and 5,797 + 16
#                  (sampled-repeats). Every unit is spent at the walk's end
#                  with one 1-bit add of -1 per multiplicity stripe, 1 C_ADD
#                  + 2 W each: 4, 39 and 23 adds.
#   io XFER        the reads' bytes plus each contig's, rounded up to a
#                  whole byte: sampled-repeats' 16 contigs hold 6,181 bases
#                  in all, and their lengths round up to 9,149 bytes with
#                  the reads'.
WORKLOAD_TRACES = {
    "tiled-deep": (
        [
            ("io", "XFER", 22_775),
            ("hashmap", "W", 2_226),
            ("hashmap", "C_ADD", 19_386),
            ("hashmap", "DPU", 19_386),
            ("graph", "R", 32),
            ("graph", "W", 28),
            ("traverse", "DPU", 2_992),
            ("traverse", "R", 108),
            ("traverse", "W", 148),
            ("traverse", "C_ADD", 64),
        ],
        2,
        1,
    ),
    "hub-euler": (
        [
            ("io", "XFER", 5_770),
            ("hashmap", "W", 2_536),
            ("hashmap", "C_ADD", 4_638),
            ("hashmap", "DPU", 4_638),
            ("graph", "R", 320),
            ("graph", "W", 39),
            ("traverse", "DPU", 30_098),
            ("traverse", "R", 306),
            ("traverse", "W", 882),
            ("traverse", "C_ADD", 517),
        ],
        4,
        1,
    ),
    "sampled-repeats": (
        [
            ("io", "XFER", 9_149),
            ("hashmap", "W", 4_678),
            ("hashmap", "C_ADD", 8_233),
            ("hashmap", "DPU", 8_233),
            ("graph", "R", 192),
            ("graph", "W", 92),
            ("traverse", "DPU", 17_754),
            ("traverse", "R", 414),
            ("traverse", "W", 776),
            ("traverse", "C_ADD", 379),
        ],
        3,
        16,
    ),
}


@pytest.mark.parametrize("name", list(WORKLOAD_TRACES))
def test_the_benchmark_workload_traces_are_pinned(name):
    records, subarrays, contigs = WORKLOAD_TRACES[name]
    workloads = _benchmark_workloads()
    _, raw = workloads.WORKLOADS[name](random.Random(1))
    asm = Assembler()
    result = asm.assemble([E(r) for r in raw], workloads.K)
    assert asm.trace.records() == records
    assert asm.machine.subarray_count == subarrays
    assert len(result.contigs) == contigs


def test_subarray_budget_holds_in_every_stage():
    # CGTGTGCA read 16 times at k=5 on 24 x 64 takes one hash sub-array,
    # and every k-mer's count is 16. The graph stage checks the labels in
    # their key rows and opens the row bank's first sub-array (18 data
    # rows) for the 5-bit multiplicity stripe (rows 0-4). In the traverse
    # stage the first degree pass's 2 * 5 rows (5-14, out and in words; the
    # probe's in + 1 reaches 17) still fit there; CGTG's surplus of 16
    # sends the path to the unit retry, whose fresh 2 * 2 rows do not, and
    # open a second bank sub-array. (Read eight times, the 4-bit words'
    # stripes, 4 + 2 * 4 + 2 * 2 = 16 rows, would all fit the first.)
    reads = [E("CGTGTGCA")] * 16
    stages = {0: "hashmap", 1: "graph", 2: "traverse"}
    for budget, stage in stages.items():
        asm = make_asm(**PACKED, max_subarrays=budget)
        with pytest.raises(CapacityError, match=f"{stage} stage exceeds the {budget} "):
            asm.assemble(reads, 5)
        assert asm.machine.subarray_count == budget
    result = make_asm(**PACKED, max_subarrays=3).assemble(reads, 5)
    assert [c.to_str() for c in result.contigs] == ["CGTGTGCA"]


def test_a_degree_stripe_taller_than_a_data_region_raises():
    # 24-row sub-arrays have 18 data rows. A 510-unit self-loop needs
    # 511.bit_length() = 9-bit degree words, a stripe of 2 * 9 = 18 rows
    # (out and in words), which fits; a 511-unit one needs
    # 512.bit_length() = 10-bit words, and 2 * 10 = 20 rows fit in no
    # sub-array.
    def self_loop(mult):
        g = SparseGraph(k=3)
        g.add_edge(E("AA"), E("AA"), mult=mult)
        return g

    g = self_loop(510)
    assert make_asm(**PACKED).find_start(g) == []
    assert g.store.degree.w_deg == 9
    with pytest.raises(CapacityError, match="entry taller than a sub-array data region"):
        make_asm(**PACKED).find_start(self_loop(511))


def test_assemble_is_deterministic():
    reads = [E("CGTGTGCAACGT"), E("TTACGTGTGC")]
    a = make_asm().assemble(reads, 4)
    b = make_asm().assemble(reads, 4)
    assert [c.to_str() for c in a.contigs] == [c.to_str() for c in b.contigs]


def test_assemble_traces_are_reproducible():
    reads = [E("CGTGTGCAACGT"), E("TTACGTGTGC")]
    a, b = make_asm(), make_asm()
    a.assemble(reads, 4)
    b.assemble(reads, 4)
    assert a.trace.records() == b.trace.records()
    stages = {stage for stage, _, _ in a.trace.records()}
    assert tr.STAGE_OTHER not in stages
    assert tr.STAGE_IO in stages
