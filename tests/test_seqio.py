"""Sequence file parsing, FASTA export, and synthetic workload generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimgasm.encoding import EncodedSeq
from pimgasm.errors import ParseError, SizeError
from pimgasm.seqio import (
    _parse_fasta,
    distinct_window_genome,
    encode_records,
    random_genome,
    read_sequences,
    sample_reads,
    tile_reads,
    write_fasta,
)


def test_fasta_parsing(tmp_path):
    p = tmp_path / "in.fasta"
    p.write_text(">read_1 extra words\nACGT\nACGT\n\n>read_2\nTTTT\n")
    assert read_sequences(p) == [("read_1", "ACGTACGT"), ("read_2", "TTTT")]


def test_fasta_errors(tmp_path):
    p = tmp_path / "in.fasta"
    p.write_text("ACGT\n>late\nACGT\n")
    with pytest.raises(ParseError):
        read_sequences(p)
    p.write_text("XACGT\n")
    with pytest.raises(ParseError):
        read_sequences(p)


def test_fasta_data_before_the_first_header_is_a_parse_error(tmp_path):
    # read_sequences only hands the FASTA parser text whose first non-blank
    # line is a header (see test_cli for the exit code), so the parser's
    # own check is tripped directly
    p = tmp_path / "in.fasta"
    with pytest.raises(ParseError, match=":2: sequence data before any header"):
        _parse_fasta("\nACGT\n>late\nACGT\n", p)


def test_empty_file_yields_no_records(tmp_path):
    p = tmp_path / "empty.fasta"
    p.write_text("\n  \n")
    assert read_sequences(p) == []


def test_fastq_parsing(tmp_path):
    p = tmp_path / "in.fastq"
    p.write_text("@r1\nACGT\n+\n!!!!\n@r2 desc\nTT\n+r2\nAB\n")
    assert read_sequences(p) == [("r1", "ACGT"), ("r2", "TT")]


def test_fastq_errors(tmp_path):
    p = tmp_path / "in.fastq"
    p.write_text("@r1\nACGT\n+\n!!!!\n@r2\nTT\n")  # truncated record
    with pytest.raises(ParseError):
        read_sequences(p)
    p.write_text("@r1\nACGT\nplus\n!!!!\n")
    with pytest.raises(ParseError):
        read_sequences(p)
    p.write_text("@r1\nACGT\n+\n!!!\n")  # quality too short
    with pytest.raises(ParseError):
        read_sequences(p)
    p.write_text("@r1\nACGT\n+\n!!!!\nr2\nTT\n+\n!!\n")  # second header lacks '@'
    with pytest.raises(ParseError, match=":5: expected '@' header"):
        read_sequences(p)


def test_encode_records_splits_at_unknown_symbols():
    reads, dropped = encode_records([("r", "ACGTNNGG"), ("s", "tt")])
    assert [r.to_str() for r in reads] == ["ACGT", "GG", "TT"]
    assert dropped == 2
    assert all(isinstance(r, EncodedSeq) for r in reads)


def test_write_fasta_wraps_and_round_trips(tmp_path):
    p = tmp_path / "out.fasta"
    write_fasta(p, [("a", "ACGTACGT"), ("b", "")], width=4)
    assert p.read_text() == ">a\nACGT\nACGT\n>b\n\n"
    back = read_sequences(p)
    assert back[0] == ("a", "ACGTACGT")


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=99))
@settings(max_examples=20, deadline=None)
def test_random_genome_is_seed_deterministic(length, seed):
    a = random_genome(length, random.Random(seed))
    b = random_genome(length, random.Random(seed))
    assert a == b
    assert len(a) == length
    assert set(a) <= set("ACGT")


def test_distinct_window_genome():
    g = distinct_window_genome(200, 8, random.Random(1))
    windows = [g[i : i + 8] for i in range(len(g) - 7)]
    assert len(set(windows)) == len(windows)
    with pytest.raises(SizeError):
        distinct_window_genome(5, 6, random.Random(0))
    # five distinct single-base windows cannot exist over a 4-letter alphabet
    with pytest.raises(SizeError):
        distinct_window_genome(5, 1, random.Random(0), max_tries=5)


def test_tile_reads_counts():
    genome = random_genome(1000, random.Random(0))
    assert len(tile_reads(genome, 100, 1)) == 901
    assert len(tile_reads(genome, 100, 50)) == 19
    tiles = tile_reads(genome, 10, 10)
    assert "".join(tiles) == genome
    with pytest.raises(SizeError):
        tile_reads(genome, 0, 1)
    with pytest.raises(SizeError):
        tile_reads(genome, 1001, 1)
    with pytest.raises(SizeError):
        tile_reads(genome, 100, 0)


def test_sample_reads_counts_and_bounds():
    genome = random_genome(1000, random.Random(0))
    reads = sample_reads(genome, 100, 3.0, random.Random(1))
    assert len(reads) == 30
    assert all(len(r) == 100 for r in reads)
    assert all(r in genome for r in reads)
    assert len(sample_reads(genome, 400, 0.01, random.Random(1))) == 1
    with pytest.raises(SizeError):
        sample_reads(genome, 100, 0.0, random.Random(1))
