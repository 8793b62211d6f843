"""Seeded input generators for the benchmark workloads.

Each generator takes a `random.Random` and returns the genome plus the raw
read strings. The same seed always yields the same genome and reads. Each
workload is shaped so that one assembler layer dominates its host time:

  tiled-deep       every 25-mer is read up to 76 times, so the k-mer table
                   spends its time on the hit path (compare + counter add).
  hub-euler        every 25-mer is read exactly once around 80 four-way hub
                   nodes, so the table only inserts and the Euler walk spends
                   its time in Fleury's bridge test.
  sampled-repeats  8 chromosomes, each holding one repeat twice, read at
                   about 4x from random positions: every component fails both
                   Euler screens, so the walk falls back through all its rungs
                   (discarded degree passes, collapsed stores, partial walks)
                   and loses k-mers.
"""

from __future__ import annotations

import random

from pimgasm import seqio

K = 25
READ_LEN = 100
_BASES = "ACGT"


def tiled_deep(rng: random.Random) -> tuple[str, list[str]]:
    genome = seqio.distinct_window_genome(1000, K - 1, rng)
    return genome, seqio.tile_reads(genome, READ_LEN, 1)


HUBS = 80
HUB_VISITS = 4
HUB_MAX_DRAWS = 100
# 100 + 76 * 130 bases: reads at stride 76 then hold each 25-mer exactly once
HUB_GENOME_LEN = READ_LEN + (READ_LEN - K + 1) * 130


def _random_seq(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(_BASES) for _ in range(n))


def _hub_genome(rng: random.Random) -> str:
    """One draw: 80 hub (k-1)-mers, each entered and left by all four bases."""
    hub_len = K - 1
    hubs = [_random_seq(rng, hub_len) for _ in range(HUBS)]
    visits = [h for h in range(HUBS) for _ in range(HUB_VISITS)]
    rng.shuffle(visits)
    before = {h: rng.sample(_BASES, 4) for h in range(HUBS)}
    after = {h: rng.sample(_BASES, 4) for h in range(HUBS)}
    seen = [0] * HUBS
    pre, post = [], []
    for h in visits:
        pre.append(before[h][seen[h]])
        post.append(after[h][seen[h]])
        seen[h] += 1
    # gaps[i] precedes visit i; gaps[-1] trails the last visit. Inner gaps
    # carry the previous hub's exit base and the next hub's entry base.
    n_gaps = len(visits) + 1
    gaps = [1] + [2] * (len(visits) - 1) + [1]
    spare = HUB_GENOME_LEN - len(visits) * hub_len - sum(gaps)
    for i in rng.choices(range(n_gaps), k=spare):
        gaps[i] += 1
    parts = []
    for i, h in enumerate(visits):
        lead = post[i - 1] if i else ""
        parts.append(lead + _random_seq(rng, gaps[i] - len(lead) - 1) + pre[i])
        parts.append(hubs[h])
    parts.append(post[-1] + _random_seq(rng, gaps[-1] - 1))
    return "".join(parts)


def _hub_genome_ok(genome: str) -> bool:
    """Every 25-mer unique; exactly 80 repeated 24-mers, each in=out=4."""
    n = len(genome)
    if len({genome[i:i + K] for i in range(n - K + 1)}) != n - K + 1:
        return False
    where: dict[str, list[int]] = {}
    for i in range(n - K + 2):
        where.setdefault(genome[i:i + K - 1], []).append(i)
    repeated = [pos for pos in where.values() if len(pos) > 1]
    if len(repeated) != HUBS:
        return False
    for pos in repeated:
        if len(pos) != HUB_VISITS or pos[0] == 0 or pos[-1] + K - 1 == n:
            return False
        if len({genome[p - 1] for p in pos}) != 4:
            return False
        if len({genome[p + K - 1] for p in pos}) != 4:
            return False
    return True


def hub_euler(rng: random.Random) -> tuple[str, list[str]]:
    for _ in range(HUB_MAX_DRAWS):
        genome = _hub_genome(rng)
        if _hub_genome_ok(genome):
            return genome, seqio.tile_reads(genome, READ_LEN, READ_LEN - K + 1)
    raise RuntimeError(f"no valid hub genome in {HUB_MAX_DRAWS} draws")


CHROMOSOMES = 8
REPEAT_LEN = 300
FLANK = 150
# A best-effort walk of flank + R + middle + R + flank strands either one
# flank (FLANK k-mers lost) or the middle with its two junctions
# (MIDDLE + K - 1 lost). Equal losses keep k-mer recall from jumping
# between seeds on which of the two the walk happens to drop.
MIDDLE = FLANK - (K - 1)
READ_STEP = 25       # one read start per 25 bases: about 4x coverage


def _repeat_chromosome(rng: random.Random) -> str:
    """flank + R + middle + R + flank, with the 300-base repeat R copied exactly."""
    rep = _random_seq(rng, REPEAT_LEN)
    return (_random_seq(rng, FLANK) + rep + _random_seq(rng, MIDDLE) + rep
            + _random_seq(rng, FLANK))


def _jittered_reads(chrom: str, rng: random.Random) -> list[str]:
    """One read start drawn uniformly in each 25-base step; ends pinned.

    Pinning both ends and bounding every gap between starts by 2 steps keeps
    the chromosome covered end to end, so the graph's shape, and with it the
    share of k-mers a best-effort walk can lose, does not hinge on where a
    coverage gap fell.
    """
    last = len(chrom) - READ_LEN
    starts = [0] + [min(last, j * READ_STEP + rng.randrange(READ_STEP))
                    for j in range(1, last // READ_STEP)] + [last]
    return [chrom[p:p + READ_LEN] for p in starts]


def sampled_repeats(rng: random.Random) -> tuple[str, list[str]]:
    chroms = [_repeat_chromosome(rng) for _ in range(CHROMOSOMES)]
    # reads stay in position order: shuffled, the order of inserts and hits
    # alone moved the modeled hashmap cost by up to 8% between seeds
    reads = [r for c in chroms for r in _jittered_reads(c, rng)]
    return "".join(chroms), reads


WORKLOADS = {
    "tiled-deep": tiled_deep,
    "hub-euler": hub_euler,
    "sampled-repeats": sampled_repeats,
}
# one contig holding every read k-mer is the only correct output for these
EULERIAN = {"tiled-deep", "hub-euler"}
