"""FASTA/FASTQ ingestion, contig export, and synthetic read generation."""

from __future__ import annotations

import random

from .encoding import EncodedSeq, clean_segments
from .errors import ParseError, SizeError

_BASES = "ACGT"


def read_sequences(path) -> list[tuple[str, str]]:
    """Parse (name, raw sequence) records, sniffing FASTA vs FASTQ.

    FASTQ quality lines are length-checked and discarded. An empty file
    yields no records; a file that cannot be read (missing, a directory),
    is not UTF-8 text, or does not start with '>' or '@' is a parse error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror})") from None
    stripped = text.lstrip()
    if not stripped:
        return []
    if stripped[0] == ">":
        return _parse_fasta(text, path)
    if stripped[0] == "@":
        return _parse_fastq(text, path)
    raise ParseError(f"{path}: not FASTA or FASTQ (leading {stripped[0]!r})")


def _parse_fasta(text: str, path) -> list[tuple[str, str]]:
    records: list[tuple[str, str]] = []
    name = None
    chunks: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                records.append((name, "".join(chunks)))
            name = line[1:].split()[0] if len(line) > 1 else f"seq{len(records)}"
            chunks = []
        elif name is None:
            raise ParseError(f"{path}:{lineno}: sequence data before any header")
        else:
            chunks.append(line)
    if name is not None:
        records.append((name, "".join(chunks)))
    return records


def _parse_fastq(text: str, path) -> list[tuple[str, str]]:
    lines = [ln for ln in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) % 4:
        raise ParseError(f"{path}: truncated FASTQ record (line count not a multiple of 4)")
    records = []
    for i in range(0, len(lines), 4):
        head, seq, plus, qual = (lines[i + j].strip() for j in range(4))
        if not head.startswith("@"):
            raise ParseError(f"{path}:{i + 1}: expected '@' header")
        if not plus.startswith("+"):
            raise ParseError(f"{path}:{i + 3}: expected '+' separator")
        if len(qual) != len(seq):
            raise ParseError(f"{path}:{i + 4}: quality length differs from sequence length")
        name = head[1:].split()[0] if len(head) > 1 else f"seq{len(records)}"
        records.append((name, seq))
    return records


def encode_records(records: list[tuple[str, str]]) -> tuple[list[EncodedSeq], int]:
    """Pack raw records to 2-bit reads, splitting at non-ACGT symbols.

    Returns the packed reads and the count of separator symbols dropped
    (callers warn when it is nonzero).
    """
    reads: list[EncodedSeq] = []
    dropped = 0
    for _, raw in records:
        segs, bad = clean_segments(raw)
        dropped += bad
        reads.extend(EncodedSeq.from_str(s) for s in segs)
    return reads, dropped


def write_fasta(path, records: list[tuple[str, str]], width: int = 70) -> None:
    """Deterministic FASTA writer with fixed-width line wrapping."""
    with open(path, "w") as fh:
        for name, seq in records:
            fh.write(f">{name}\n")
            for i in range(0, len(seq), width):
                fh.write(seq[i:i + width] + "\n")
            if not seq:
                fh.write("\n")


# ---------------------------------------------------------------------------
# synthetic workloads


def random_genome(length: int, rng: random.Random) -> str:
    if length < 1:
        raise SizeError("genome length must be positive")
    return "".join(rng.choice(_BASES) for _ in range(length))


def distinct_window_genome(length: int, window: int, rng: random.Random,
                           max_tries: int = 100) -> str:
    """Random genome whose length-`window` substrings are all distinct.

    Collisions are vanishingly rare for realistic sizes, so rejection
    sampling converges almost always on the first draw.
    """
    if window < 1 or window > length:
        raise SizeError("window must lie in [1, length]")
    for _ in range(max_tries):
        g = random_genome(length, rng)
        n = length - window + 1
        if len({g[i:i + window] for i in range(n)}) == n:
            return g
    raise SizeError(
        f"could not draw a genome of length {length} with distinct {window}-windows"
    )


def tile_reads(genome: str, read_len: int, stride: int = 1) -> list[str]:
    """Every window of the genome at the given stride, in order."""
    if read_len < 1 or read_len > len(genome):
        raise SizeError("read length must lie in [1, genome length]")
    if stride < 1:
        raise SizeError("stride must be positive")
    return [genome[i:i + read_len]
            for i in range(0, len(genome) - read_len + 1, stride)]


def sample_reads(genome: str, read_len: int, coverage: float,
                 rng: random.Random) -> list[str]:
    """Uniform random reads totalling roughly coverage x genome length."""
    if read_len < 1 or read_len > len(genome):
        raise SizeError("read length must lie in [1, genome length]")
    if coverage <= 0:
        raise SizeError("coverage must be positive")
    n = max(1, round(coverage * len(genome) / read_len))
    hi = len(genome) - read_len
    return [genome[p:p + read_len]
            for p in (rng.randint(0, hi) for _ in range(n))]
