"""Placement planning: where keys, counters, and vertical words live.

Everything here is stateless arithmetic. The hash-table layout packs
`slots` keys per row, one every `pitch` columns, and keeps a vertical
counter per key; counters sit in stripes of `value_width` rows, at least
8 and as many as the largest count needs (counter_width), and key index j
owns the counter at stripe j // cols, column j % cols, which is injective
because j = stripe*cols+col. The assembler fills each slot position
(column) of a sub-array's key rows in first-seen order, so keys first
seen together share key rows and counter stripes. Bucket hashes are seedable and
multiplicative, never Python's randomized hash(), so runs reproduce byte
for byte. The bucket directory takes the fewest groups that the keys'
hashes fit, and capacity planning sizes a whole-genome table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import CapacityError, ConfigError, SizeError
from .fabric import RowLayout

_M64 = (1 << 64) - 1


def _mix(x: int) -> int:
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def stable_hash(bits: int, length: int = 0, seed: int = 0) -> int:
    """Deterministic 64-bit hash of a packed bit string of known length."""
    h = _mix(seed ^ 0x9E3779B97F4A7C15)
    v = bits
    while True:
        h = _mix(h ^ (v & _M64))
        v >>= 64
        if not v:
            break
    return _mix(h ^ (length * 0xD6E8FEB86659FD93))


@dataclass(frozen=True)
class HashLayout:
    """Row map of one hash-table sub-array.

    Key rows hold `slots` keys each; slot s of a row starts at column
    s * pitch. Keys are numbered row-major: key index j sits in key row
    j // slots, slot j % slots. The slots at one position down the key rows
    form a column of `len(kmer_rows)` keys.
    """

    rows: int
    cols: int
    k: int
    kmer_rows: range
    value_rows: range
    stripes: int
    value_width: int
    row_layout: RowLayout
    pitch: int
    slots: int

    def __post_init__(self) -> None:
        regions = list(self.kmer_rows) + list(self.value_rows) + list(
            self.row_layout.special_rows()
        )
        if len(regions) != len(set(regions)):
            raise ConfigError("hash layout regions overlap")
        if len(regions) != self.rows:
            raise ConfigError("hash layout does not cover the sub-array")
        if self.slots < 1 or self.pitch < 2 * self.k or self.key_span > self.cols:
            raise ConfigError("key slots do not fit the row")
        if self.capacity > self.stripes * self.cols:
            raise ConfigError("more keys than counter slots")

    @property
    def capacity(self) -> int:
        """Keys storable in this sub-array (`slots` per key row)."""
        return len(self.kmer_rows) * self.slots

    @property
    def key_span(self) -> int:
        """Columns from 0 through the last bit of the last slot's key."""
        return (self.slots - 1) * self.pitch + 2 * self.k

    def key_address(self, key_index: int) -> tuple[int, int]:
        """(key row, first column) of a key index."""
        if not 0 <= key_index < self.capacity:
            raise SizeError(f"key index {key_index} outside [0, {self.capacity})")
        row, slot = divmod(key_index, self.slots)
        return self.kmer_rows.start + row, slot * self.pitch

    def image(self, bits: int, cols: int) -> int:
        """Row image holding the key `bits` in the slots of column mask `cols`
        (bit s set for slot s)."""
        out = shift = 0
        while cols:
            if cols & 1:
                out |= bits << shift
            cols >>= 1
            shift += self.pitch
        return out

    def matched_slot(self, mask: int, cols: int) -> int | None:
        """First slot of column mask `cols` whose key bits all matched.

        `mask` is a compare mask over the row's key span. Only the listed
        slots count, so a key that packs to 0 never matches an empty slot
        that is not listed.
        """
        full = (1 << (2 * self.k)) - 1
        s = 0
        while cols:
            if cols & 1 and (mask >> (s * self.pitch)) & full == full:
                return s
            cols >>= 1
            s += 1
        return None

    def counter_location(self, key_index: int) -> tuple[int, int]:
        """(lsb value row, column) of the counter of a key index.

        Key index j owns the counter in column j % cols of stripe j // cols,
        so a sub-array whose highest key index is j uses its first
        j // cols + 1 stripes.
        """
        if not 0 <= key_index < self.capacity:
            raise SizeError(f"key index {key_index} outside [0, {self.capacity})")
        stripe, col = divmod(key_index, self.cols)
        return self.value_rows.start + stripe * self.value_width, col


def counter_width(largest_count: int) -> int:
    """Bits per hash counter when no key is counted more than
    `largest_count` times: the count's bit length, and never fewer than 8.

    Counters so sized never overflow. The 8-bit floor keeps every count up
    to 255 on the one layout, so only a deeper count widens the stripes.
    """
    return max(8, largest_count.bit_length())


def layout_hash(
    dims: tuple[int, int], k: int, value_width: int = counter_width(0)
) -> HashLayout:
    """Plan a hash-table sub-array for length-k keys at 2 bits per base.

    Keys sit at a pitch of the smallest power of two >= 2k columns, so a
    row holds max(1, cols // pitch) of them and one row compare checks
    them all. The power-of-two pitch gives every k between two powers the
    same slot count (4 for k = 17..32 on 256 columns), so fewer, longer
    k-mers never cost more to scan; the densest packing, cols // 2k, would
    give 5 slots at k=25 but 4 at k=27. Twelve rows are reserved (8 temp, 2
    init, 2 carry): the temp rows, and the key rows no key has reached yet,
    hold the group's recent probe images; the fewest counter stripes that
    give every key a slot are taken, and the rest of the rows hold keys.
    Counters take `value_width` rows each, 8 unless counter_width says
    more. For the default 1024 x 256 geometry at k=25 that is 892 key rows
    of 4 slots (3,568 keys) and 15 stripes of 8 value rows. Keys wider than
    one row, and a geometry with no key row left beside its counters, are
    rejected.
    """
    rows, cols = dims
    if k < 2:
        raise ConfigError("k must be at least 2")
    if 2 * k > cols:
        raise CapacityError(
            f"k={k} needs {2 * k} columns but the row has {cols}; "
            "multi-row keys are not supported"
        )
    pitch = 1 << (2 * k - 1).bit_length()
    slots = max(1, cols // pitch)
    special = 12
    # fewest stripes s with (free - s*value_width) * slots <= s * cols
    free = max(rows - special, 0)
    stripes = math.ceil(free * slots / (cols + value_width * slots))
    n_keys = free - stripes * value_width
    if stripes < 1 or n_keys < 1:
        raise CapacityError(
            f"geometry {dims} too small for a hash sub-array of {value_width}-bit counters"
        )
    kmer_rows = range(0, n_keys)
    value_rows = range(n_keys, n_keys + stripes * value_width)
    base = value_rows.stop
    row_layout = RowLayout(
        init0_row=base + 8,
        init1_row=base + 9,
        carry_rows=(base + 10, base + 11),
        temp_rows=tuple(range(base, base + 8)),
        data_region=range(0, base),
    )
    return HashLayout(
        rows=rows,
        cols=cols,
        k=k,
        kmer_rows=kmer_rows,
        value_rows=value_rows,
        stripes=stripes,
        value_width=value_width,
        row_layout=row_layout,
        pitch=pitch,
        slots=slots,
    )


def bucket_directory(lay: HashLayout, hashes: list[int]) -> int:
    """The number of hash groups for keys with these hashes.

    Every group is one sub-array of lay.capacity buckets, one per key slot:
    a key with hash h sits in bucket h % (groups * capacity), which lies in
    group bucket // capacity. Keys are placed by column, so a group holds
    any keys up to its capacity, however its buckets share them. The
    directory takes the fewest groups, counting up from
    ceil(keys / capacity), at which no group is hashed more keys than it
    holds. Distinct hashes always fit: at a prime group count that divides
    no difference of two of them, each has a bucket of its own, so a
    group's capacity buckets hold at most capacity keys. A difference below
    2**b has fewer than b prime factors, so such a prime lies among the
    first b * pairs + 1 primes the search passes, and the search ends there.
    More keys on one hash than a sub-array holds fit no directory, and
    they, or equal hashes that no group count tried separates, raise
    CapacityError. stable_hash is injective on keys of up to 32 bases.
    """
    cap = lay.capacity
    least = math.ceil(len(hashes) / cap)
    counts = Counter(hashes)
    shared = max(counts.values())
    if shared > cap:
        raise CapacityError(
            f"{len(hashes)} key hashes fit no bucket directory: {shared} share one "
            f"hash, and a sub-array holds {cap} keys"
        )
    primes_left = max(counts).bit_length() * math.comb(len(counts), 2) + 1
    groups = least
    while primes_left:
        n = groups * cap
        if max(Counter(h % n // cap for h in hashes).values()) <= cap:
            return groups
        primes_left -= _is_prime(groups)
        groups += 1
    raise CapacityError(
        f"{len(hashes)} key hashes fit no bucket directory of {least} to {groups - 1} groups"
    )


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def subarrays_needed(n_items: int, f: int) -> int:
    """Sub-arrays holding n_items at f vertical words per sub-array."""
    if n_items < 0 or f < 1:
        raise SizeError("need n_items >= 0 and f >= 1")
    return math.ceil(n_items / f)


@dataclass(frozen=True)
class CapacityPlan:
    """Whole-genome hash-table sizing at a given geometry."""

    genome_size: int
    k: int
    hash_bits: int
    table_bytes: int
    subarrays: int
    dims: tuple[int, int] = (1024, 256)

    @property
    def gibibytes(self) -> float:
        return self.table_bytes / 2**30


def capacity_plan(
    genome_size: int, k: int, dims: tuple[int, int] = (1024, 256)
) -> CapacityPlan:
    """Hash-table footprint for a genome: key plus counter per distinct k-mer.

    Each of ~G distinct keys needs 2k bits of key and 2 bits-per-base worth
    of counter (one base-equivalent), i.e. 2 * G * (k + 1) bits in total.
    """
    if genome_size < 1 or k < 1:
        raise SizeError("genome size and k must be positive")
    bits = 2 * genome_size * (k + 1)
    rows, cols = dims
    return CapacityPlan(
        genome_size=genome_size,
        k=k,
        hash_bits=bits,
        table_bytes=math.ceil(bits / 8),
        subarrays=math.ceil(bits / (rows * cols)),
        dims=dims,
    )
