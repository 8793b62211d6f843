"""De Bruijn graph assembly driven by the memory-side instruction set.

Stage 1 counts k-mers in an associative hash store whose key rows hold
several keys each, one per slot at a power-of-two column pitch. The store
is cut into groups of one sub-array each, and every group into one hash
bucket per key slot (mapping.HashLayout.capacity buckets), so a full
group holds about one key per bucket. A host pre-scan of the distinct
keys takes the fewest groups whose hashed key counts fit them
(mapping.bucket_directory). Keys are placed by column (slot position),
and each column fills its key rows in first-seen order, so keys first
seen together share a row, and a bucket is the list of rows that hold its
keys. Every query hashes to its bucket. A hit joins one of its group's
open batches for the read, which run in the order they opened when the
read ends. A miss whose key goes into its bucket's one column (the
bucket is empty, or all its keys sit in that column) joins none: its key
row, once written, serves as its image. Assembler._observe states where
a key is placed, which batch a query joins and when a new key goes in. A
new key waits in its group, across reads, until a batch needs its key
row, a later miss into its bucket finds it waiting, every column has
passed that row, or the stage ends, so a key row is written once unless
it is needed before all its keys are ready. A batch's image holds each
member's query in its bucket's columns, and each member compares its
bucket's rows newest first, down to the first row where one of its own
slots matches: a hit finds its key there. A miss into a bucket that held
keys must find none. When its key row is written, that row is compared
with every other written row of its bucket, read at the key's column. A
miss whose bucket spans several columns, or whose key must leave a full
column, joins a batch instead, and compares every row of its bucket
against the image. A row is compared once per batch or key row write,
one XNOR-compare cycle plus one AND-reduce, and a query reads only its
own slots, so an all-A key (packed to 0) never matches an empty slot. Keys first seen together share
a row, so a batch compares about one. Each group keeps its recent images
in its sub-array's 8 temp rows and in the key rows above its fullest
column, which hold no key yet, least recently used first, and the
controller keeps a copy of each: a batch whose image such a row holds
compares against that row and writes nothing, and any other batch writes
its image into the next free row, or over the least recently used image
once every such row holds one. A key row's image is dropped when the
first key is placed in that row. A key's counter index is its key index,
so its vertical counter sits at mapping.counter_location of its slot, and
keys first seen together share a counter stripe. A hit records one increment for the key it found. Counters
are written once, after the last read: one masked write of counter plane 0
per sub-array counter stripe starts every counter at one (their words are
still zero), and then the stage's increments are added in place one bit
plane at a time: one column-parallel +1 at plane i per sub-array counter
stripe and set bit i of an amount, which adds 2**i. A write or an add
costs the same for one column or all of them, so the stage pays per stripe
and bit it touches, not per key or per hit. Stage 2 walks the table and
emits one edge per distinct k-mer (prefix node, suffix node, multiplicity
= frequency) into an edge store. Stage 3 accumulates vertical degree
counters column-parallel: each stripe's first wave of edge words is
written into its zeroed counters, only the planes its largest word fills,
and each later wave is added in place as one +1 per set bit of its words,
the words find_start has just read back and checked. It probes the start
vertex with a bit-plane compare of out against in+1, formed in the in
words once they are read back, and
covers each weak component with the fewest trails its degrees allow,
max(1, sum of outgoing surpluses): one trail per surplus unit, or one
Euler circuit when there is none. It walks by Hierholzer's splice: one
virtual edge from each deficit unit to a surplus unit balances every node,
each circuit of the balanced graph is cut at its virtual edges, and no step
tests for a bridge. The walked units come off their multiplicity words in
memory, and only those words: the multiplicity words hold the edge units
left, and per node they sum to its out-degree. The walk spends them all
at its end, with one column-parallel add per (stripe, units). So the walk
must leave every word at zero, and at the end the contigs' k-mers must be
exactly the reads' distinct ones.

A bit-serial add costs one cycle and two writes per bit plane it passes
(an increment stops at its last carry plane; see isa), so every
vertical word is as wide as the values it holds, and no wider. A counter
takes the bit length of the pre-scan's largest count, but at least 8 bits
(mapping.counter_width), so every count fits. A multiplicity word takes
the bit length of the largest multiplicity, and the store narrows when a
rewrite lowers it; a degree word takes the bit length of the largest
degree plus one, the largest value the start probe forms. Each add's
carry-out is checked: a counter add or an in + 1 that carries overflowed
its word, and a decrement that does not carry spent more than the word
held.

Each Assembler keeps one row allocator, `_RowBank`: the multiplicity
stripes and every degree pass take their rows from it, in order, and it
takes a new sub-array when an entry no longer fits.
Vertical words cross the instruction layer a stripe at a time:
Machine.write_vwords and read_vwords cost one row per bit plane for any
number of columns, so the multiplicity words are placed, read and
rewritten one stripe per call.

build_graph reads each node's label in place, in the key slot where the
node first appears, and copies nothing. With `simplify` on, it then
merges unbranched chains on the host. A graph holds at most one fabric
placement, `SparseGraph.store`, bound to the machine that wrote it: one
vertical multiplicity word per edge, one word-high stripe per `cols`
edges, plus the last find_start pass (its degree stripes and trail starts)
until a walk consumes it. It is written once, for the graph the walk
reads: by build_graph, or by find_start for a graph with no placement on
the walking machine (a synthetic graph, or one another Assembler built).
The traverse stage runs once over the whole graph: a component whose
multiplicities admit no Euler path has its words rewritten to one in
place, and a second degree pass, the same full pass on fresh rows,
re-accumulates every node.

The host keeps mirror bookkeeping (exact k-mer counts, the edge lists,
remaining-multiplicity maps, the unitig index) so the simulation runs in
sensible time, but every datum also lives in fabric bits: keys and
counters are physically written, every key row a probe prices is
compared in fabric, counters are incremented by real add cycles, and the
mirrors are cross-checked against fabric contents at every stage
boundary, raising ConsistencyError on any divergence.
"""

from __future__ import annotations

import functools
import itertools
import logging
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import mapping
from . import trace as tr
from .encoding import EncodedSeq, extract_kmers
from .errors import CapacityError, ConsistencyError, SizeError
from .fabric import RowLayout, ones
from .isa import Machine, MemAddress

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# result types


@dataclass
class EulerPath:
    node_ids: list[int]


@dataclass
class AssemblyResult:
    contigs: list[EncodedSeq]
    table: "KmerTable"
    graph: "SparseGraph"
    paths: list[EulerPath]
    warnings: list[str]


class SparseGraph:
    """Directed multigraph as three aligned edge lists plus a node index.

    Nodes are interned packed labels with dense ids in first-appearance
    order; edges keep insertion order. `k` records the k-mer size the node
    labels came from (labels are (k-1)-mers then); synthetic graphs leave
    it None and label overlap checks degrade gracefully.
    """

    def __init__(self, k: int | None = None):
        self.k = k
        self.nodes: list[EncodedSeq] = []
        self._ids: dict[EncodedSeq, int] = {}
        self.edge_src: list[int] = []
        self.edge_dst: list[int] = []
        self.mult: list[int] = []
        # multiplicity words on the one machine that placed this graph
        self.store: _GraphStore | None = None

    # -- construction --

    def node_id(self, label: EncodedSeq) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = len(self.nodes)
            self._ids[label] = nid
            self.nodes.append(label)
        return nid

    def add_edge(self, u: EncodedSeq, v: EncodedSeq, mult: int = 1) -> int:
        if mult < 1:
            raise SizeError("edge multiplicity must be >= 1")
        self.edge_src.append(self.node_id(u))
        self.edge_dst.append(self.node_id(v))
        self.mult.append(mult)
        return len(self.mult) - 1

    # -- views --

    @property
    def edge_count(self) -> int:
        return len(self.mult)

    def total_multiplicity(self) -> int:
        return sum(self.mult)

    def degrees(self, mult: list[int] | None = None) -> tuple[list[int], list[int]]:
        """Host-side (out, in) degree lists, weighted by `mult` per edge
        (the graph's own multiplicities by default)."""
        out = [0] * len(self.nodes)
        inn = [0] * len(self.nodes)
        for u, v, m in zip(self.edge_src, self.edge_dst, self.mult if mult is None else mult):
            out[u] += m
            inn[v] += m
        return out, inn

    def dump_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("node1\tnode2\tmult\n")
            for u, v, m in zip(self.edge_src, self.edge_dst, self.mult):
                fh.write(f"{self.nodes[u].to_str()}\t{self.nodes[v].to_str()}\t{m}\n")


def weakly_connected_components(g: SparseGraph) -> list[int]:
    """Each node's weak component index, the components numbered in order
    of their lowest node: a union-find over the edges."""
    parent = list(range(len(g.nodes)))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for u, v in zip(g.edge_src, g.edge_dst):
        parent[root(u)] = root(v)
    index: dict[int, int] = {}  # root -> its component's index
    return [index.setdefault(root(x), len(index)) for x in range(len(parent))]


@dataclass
class Unitigs:
    """A graph's maximal unbranched chains (unitigs).

    Every node lies in exactly one chain, a lone node being a chain of one.
    `nodes[i]` lists chain i's nodes in order, `links[i]` the edges between
    consecutive ones, and `chain_of_edge[e]` is the chain whose link e is,
    or -1 for an edge that joins chains.
    """

    nodes: list[list[int]]
    links: list[list[int]]
    chain_of_edge: list[int]


def unitig_index(g: SparseGraph) -> Unitigs:
    """g's maximal unbranched chains, found on the host.

    An edge u->v is contractible when it is u's only outgoing edge entry
    and v's only incoming one, and u != v; a multi-edge counts as a single
    entry, so coverage depth never splits a chain. Contractible edges form
    disjoint paths and cycles. Chains start at nodes with no contractible
    in-edge, in ascending id; the nodes left over form contractible cycles,
    each cut before the edge back to its lowest node.
    """
    n = len(g.nodes)
    out_slots = [0] * n
    in_slots = [0] * n
    for u, v in zip(g.edge_src, g.edge_dst):
        out_slots[u] += 1
        in_slots[v] += 1
    succ = [-1] * n  # node -> its contractible out-edge
    has_prev = [False] * n
    for e, (u, v) in enumerate(zip(g.edge_src, g.edge_dst)):
        if u != v and out_slots[u] == 1 and in_slots[v] == 1:
            succ[u] = e
            has_prev[v] = True
    index = Unitigs([], [], [-1] * g.edge_count)
    visited = [False] * n
    heads = (u for u in range(n) if not has_prev[u])
    for u in itertools.chain(heads, range(n)):
        if visited[u]:
            continue
        chain, links = [u], []
        visited[u] = True
        e = succ[u]
        while e >= 0 and not visited[g.edge_dst[e]]:
            v = g.edge_dst[e]
            chain.append(v)
            visited[v] = True
            links.append(e)
            index.chain_of_edge[e] = len(index.nodes)
            e = succ[v]
        index.nodes.append(chain)
        index.links.append(links)
    return index


def _edges_by_node(n: int, ends: list[int]) -> tuple[list[int], list[int]]:
    """Edge ids grouped by the end node `ends` gives them, ascending within
    a node: node x's are ids[at[x] : at[x + 1]]. Two flat lists, with no
    list object per node."""
    at = [0] * (n + 1)
    for x in ends:
        at[x + 1] += 1
    for x in range(n):
        at[x + 1] += at[x]
    ids = [0] * len(ends)
    nxt = at[:n]
    for e, x in enumerate(ends):
        ids[nxt[x]] = e
        nxt[x] += 1
    return at, ids


def contig_from_path(vertices: list[EncodedSeq], k: int) -> EncodedSeq:
    """Merge consecutive path labels that overlap by k-2 bases.

    The first label is taken whole; each subsequent label contributes
    everything past the overlap. Raises ConsistencyError when neighbours
    do not actually overlap.
    """
    if not vertices:
        raise SizeError("empty path")
    ov = max(k - 2, 0)
    out = vertices[0]
    prev = vertices[0]
    for lab in vertices[1:]:
        if len(prev) < ov or len(lab) < ov:
            raise ConsistencyError("path label shorter than the overlap")
        if prev.suffix(ov).bits != lab.prefix(ov).bits:
            raise ConsistencyError(
                f"adjacent path labels lack the {ov}-base overlap"
            )
        out = out.concat(lab.window(ov, len(lab) - ov))
        prev = lab
    return out


def _check_coverage(contigs: list[EncodedSeq], table: "KmerTable") -> None:
    """Require the contigs' k-mers to be exactly the reads' distinct ones,
    the keys of the hash stage's exact host counts: host work, no fabric
    op."""
    held = {w.bits for c in contigs for w in extract_kmers(c, table.k)}
    read = table.host_counts.keys()
    if held != read:
        raise ConsistencyError(
            f"contigs miss {len(read - held)} of the reads' {len(read)} distinct "
            f"k-mers and hold {len(held - read)} that no read does"
        )


# ---------------------------------------------------------------------------
# fabric-side stores


class KmerTable:
    """Hash-store handle: ordered keys, where they sit, and counter access.

    Key i sits at `slots[i]` (sub-array id, key index) and owns the counter
    at `layout.counter_location(key index)` in that sub-array.
    `buckets` is the size of the bucket directory the keys were hashed
    into; `batches`, `imaged` and `image_writes` count the probe batches,
    the queries in them and the images they wrote (a batch whose image a
    temp row or a free key row already holds writes none), and
    `image_rows_held` is the most rows one group held images in at once.
    `checked` counts the misses checked at their key row write, and
    `compares` the key rows compared, by the batches and by those checks.
    `insert_writes` counts the masked row writes that put the keys in: a
    key row is written, with every key waiting in it then, when a batch of
    any read needs one of them, when a later miss into the bucket of one
    of them finds it waiting, when a read ends with every column past the
    row, or when the stage ends. `waiting_rows_held` is the most key rows
    one group held unwritten keys in at a read's end.
    """

    def __init__(self, k: int, layout: mapping.HashLayout, machine: Machine):
        self.k = k
        self.layout = layout
        self.machine = machine
        self.keys: list[EncodedSeq] = []
        self.slots: list[tuple[int, int]] = []  # (sub-array id, key index)
        self.host_counts: dict[int, int] = {}   # packed key -> exact count
        self.total_kmers = 0
        self.buckets = 0
        self.batches = 0
        self.imaged = 0
        self.image_writes = 0
        self.checked = 0
        self.compares = 0
        self.insert_writes = 0
        self.image_rows_held = 0
        self.waiting_rows_held = 0

    def distinct(self) -> int:
        return len(self.keys)

    def frequencies(self) -> dict[EncodedSeq, int]:
        """Counter values decoded from fabric bits, in key order.

        Each counter stripe is read once, the first time one of its keys
        needs it.
        """
        lay = self.layout
        words: dict[tuple[int, int], list[int]] = {}  # (sid, stripe lsb) -> words
        out: dict[EncodedSeq, int] = {}
        for key, (sid, key_i) in zip(self.keys, self.slots):
            lsb, col = lay.counter_location(key_i)
            if (sid, lsb) not in words:
                words[sid, lsb] = self.machine.read_vwords(sid, lsb, lay.value_width)
            out[key] = words[sid, lsb][col]
        return out

    def items(self):
        return self.frequencies().items()

    def dump_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("kmer\tfrequency\n")
            for key, freq in self.frequencies().items():
                fh.write(f"{key.to_str()}\t{freq}\n")


class _Group:
    """One hash group: its sub-array, the keys each column (slot position)
    holds, which is also the next free key row of that column, and the
    read's open batches of queries, each with the column mask its image
    fills. `by_row` maps a key row to the read's batch of hits keyed by it,
    and `last` a bucket to its last batch in the read. `key_rows` addresses
    each key row over the key span, and `image_rows` the rows an image may
    take, in the order it takes them: the temp rows, then the key rows
    from the top down, of which only those above the fullest column, which
    hold no key, are free. `held` is the controller's copy of the images
    those rows hold, image -> row, least recently used first. The rows it
    holds are always the first len(held) of `image_rows`: a new image takes
    the next one while a free row is left, and a row leaves the free ones
    from the bottom, when a key first goes in it. `waiting` maps a key row
    to its placed keys not written yet, in the order they joined: a miss
    that joins no batch when it is placed, with its miss check due if its
    bucket held keys, and a batch's miss once its batch has compared.
    `row_of` maps a bucket to the row of its one unwritten key. Both last
    across reads (see Assembler._flush), and their rows lie in
    [min(fill), max(fill)) at a read's end.
    """

    __slots__ = (
        "sid", "fill", "batches", "busy", "by_row", "last", "image_rows", "held", "key_rows",
        "waiting", "row_of",
    )

    def __init__(self, sid: int, lay: mapping.HashLayout):
        self.sid = sid
        self.fill = [0] * lay.slots
        self.batches: list[list[_Query]] = []
        self.busy: list[int] = []  # per open batch: the columns its image fills
        self.by_row: dict[int, int] = {}
        self.last: dict[_Bucket, int] = {}
        span = lay.key_span
        self.key_rows = [MemAddress(sid, row, 0, span) for row in lay.kmer_rows]
        temp_rows = [MemAddress(sid, row, 0, span) for row in lay.row_layout.temp_rows]
        self.image_rows = temp_rows + self.key_rows[::-1]
        self.held: dict[int, MemAddress] = {}
        self.waiting: dict[int, list[_Query]] = {}  # key row -> its keys not written yet
        self.row_of: dict[_Bucket, int] = {}  # bucket -> the row of its key not written yet


class _Bucket:
    """One directory entry's keys in its `group`'s sub-array.

    `col` is the column its next key goes to while that column has room,
    `row` the key row of its newest placed key, `cols` the mask of every
    column a key of it is placed in, and `rows` maps each key row that
    holds its written keys, oldest first, to the mask of that row's
    columns that hold them. A key's column joins `cols` and its row becomes
    `row` when the key is first seen, and its column joins `rows` once the
    key is written, so `cols` may name a column whose key is not written
    yet. Rows are shared: the other columns of a row hold other buckets'
    keys, and a bucket of several columns can write two keys to one row.
    """

    __slots__ = ("group", "col", "row", "cols", "rows")

    def __init__(self, group: _Group):
        self.group = group
        self.col = 0
        self.row = -1
        self.cols = 0
        self.rows: dict[int, int] = {}  # key row -> its columns holding our keys


class _Query(NamedTuple):
    """One query: its bucket, its key bits and `cols`, the columns of its
    bucket's keys placed before it, which its image fills when it joins a
    batch. A miss carries the key index its key is written at; a hit
    carries None and finds its key index in its bucket's rows. `due` marks
    a miss that joined no batch into a bucket that held keys: its miss
    check runs when its key row is written (see Assembler._write_keys)."""

    bucket: _Bucket
    bits: int
    cols: int
    key_i: int | None
    due: bool = False


class _RowBank:
    """An assembler's one row allocator, for multiplicity stripes and
    degree passes alike.

    Rows come from the data region of the last sub-array in `sids`, in
    order, and are never handed out twice, so a fresh entry holds zeros;
    an entry that does not fit takes a new sub-array.
    """

    def __init__(self, asm: "Assembler"):
        self.asm = asm
        self.sids: list[int] = []
        self._layout = RowLayout.default(asm.machine.rows)
        self._region = self._layout.data_region
        self._next = 0

    def alloc(self, nrows: int) -> tuple[int, int]:
        if nrows > len(self._region):
            raise CapacityError("entry taller than a sub-array data region")
        if not self.sids or self._next + nrows > len(self._region):
            self.sids.append(self.asm._new_subarray(self._layout))
            self._next = 0
        row = self._region.start + self._next
        self._next += nrows
        return self.sids[-1], row


@dataclass
class _DegreePass:
    """One find_start pass: its degree stripes and the trail starts it found.

    `starts` lists each node id once per unit of outgoing surplus
    (out - in), in ascending order.
    """

    stripes: list[tuple[int, int]]  # per `cols` nodes: (sub-array, out words' LSB)
    w_deg: int
    starts: list[int]


class _GraphStore:
    """Fabric placement of one graph on one machine, written when made.

    One width-bit multiplicity word per edge: edge e sits in column
    e % cols of stripe e // cols, where `stripes` lists each stripe's
    (sub-array id, LSB row), taken from the row bank when the store is
    made and written with one write_vwords each. `width` is the bit length
    of the largest value in `mult`, which mirrors the values the words hold
    until a walk spends them; every read, write and decrement moves that
    many planes. The store also keeps the last find_start pass until a walk
    consumes it.
    """

    def __init__(self, bank: _RowBank, mult: list[int]):
        self.machine = bank.asm.machine
        self.width = max(mult, default=1).bit_length()
        cols = self.machine.cols
        self.stripes = [bank.alloc(self.width) for _ in range(0, len(mult), cols)]
        self.mult = list(mult)
        self.degree: _DegreePass | None = None
        self.write(dict(enumerate(mult)))

    def read(self) -> list[int]:
        """Every edge's word from fabric: one read_vwords per stripe."""
        m = self.machine
        words: list[int] = []
        for sid, lsb in self.stripes:
            words += m.read_vwords(sid, lsb, self.width)
        return words[: len(self.mult)]

    def write(self, values: dict[int, int]) -> None:
        """Set the listed edges' words and their mirror, {edge: value}: one
        write_vwords per stripe the edges touch, at the current width.

        The store then narrows to the bit length of its largest value. Every
        word written here filled the old width, and every other word already
        fits the new one, so the planes it drops hold zeros.
        """
        per: dict[int, dict[int, int]] = {}
        for e, value in values.items():
            stripe, col = divmod(e, self.machine.cols)
            per.setdefault(stripe, {})[col] = value
            self.mult[e] = value
        for stripe, words in per.items():
            sid, lsb = self.stripes[stripe]
            self.machine.write_vwords(sid, lsb, self.width, words)
        self.width = max(self.mult, default=0).bit_length()

    def spend(self, units: dict[int, int]) -> None:
        """Take the walked units off the listed edges' words in place,
        {edge: units}, leaving the mirror alone: one column-parallel add of
        -units per (stripe, units), which costs what a one-column add does.

        Adding -a carries out of exactly the words that hold a or more, so
        a column with no carry held fewer units than the walk spent.
        """
        cols = self.machine.cols
        batches: dict[tuple[int, int], list[int]] = {}
        for e, amount in units.items():
            stripe, col = divmod(e, cols)
            batches.setdefault((stripe, amount), []).append(col)
        for (stripe, amount), batch in batches.items():
            sid, lsb = self.stripes[stripe]
            carry = self.machine.add_const_cols(sid, lsb, self.width, batch, -amount)
            for col in batch:
                if not carry[col]:
                    raise ConsistencyError(
                        f"the walk spent {amount} of edge {stripe * cols + col}'s units, "
                        "more than its multiplicity word holds"
                    )


# ---------------------------------------------------------------------------
# assembler


class Assembler:
    """Runs the counting, graph build, and walk stages on its own machine.

    The hash store packs `slots` keys into each key row (see
    mapping.layout_hash), so one compare checks a row of keys. Each group
    is one sub-array of one bucket per key slot, whose keys are
    placed by column, so a probe scans a few rows, and up to `slots`
    queries share one image and the rows they scan; a group's 8 temp rows
    and the key rows above its fullest column keep its recent images, so a
    repeated image is not written again while a row still holds it. A
    miss whose key goes into its bucket's one column writes no image: its
    key row, once written, is compared with its bucket's other rows. New
    keys wait, across reads, until a batch needs their row, a later miss
    into their bucket finds them waiting, a read ends with every column
    past their row, or the stage ends, and then take one masked write per
    key row (see _observe and _flush).
    Counter writes wait for the last read: then one seed write per
    (sub-array, counter stripe) starts every counter at one, and the
    stage's increments go in as one column-parallel +1 per (sub-array,
    counter stripe, set bit of an amount), the amounts decided by the host
    mirror. Counters are as wide as the largest count needs, and at least 8
    bits (mapping.counter_width).
    max_subarrays caps the sub-arrays on the machine: any stage that would
    allocate past it (a hash group, or the row bank that holds the
    multiplicity stripes and degree passes) raises CapacityError.
    """

    def __init__(
        self,
        *,
        rows: int = 1024,
        cols: int = 256,
        simplify: bool = False,
        seed: int = 0,
        max_subarrays: int = 200_000,
    ):
        self.machine = Machine(rows=rows, cols=cols)
        self.simplify = simplify
        self.seed = seed
        self.max_subarrays = max_subarrays
        self._bank = _RowBank(self)

    @property
    def trace(self) -> tr.OpTrace:
        return self.machine.trace

    def _new_subarray(self, layout: RowLayout) -> int:
        """Allocate one sub-array; CapacityError once max_subarrays exist."""
        m = self.machine
        if m.subarray_count >= self.max_subarrays:
            raise CapacityError(
                f"{m.trace.stage} stage exceeds the {self.max_subarrays} sub-array budget"
            )
        return m.new_subarray(layout)

    # -- stage 1: k-mer counting --

    def build_kmer_table(self, reads: list[EncodedSeq], k: int) -> KmerTable:
        """Count the reads' k-mers in a fabric hash store.

        A host pre-scan counts each distinct key, and its largest count sets
        the counters' width (mapping.counter_width), so no counter
        overflows; a count too wide for the geometry raises CapacityError.
        It hashes each distinct key once, with the probes' hash, and
        mapping.bucket_directory takes the fewest groups whose hashed key
        counts fit their sub-arrays, each of one bucket per key slot (at
        1024 x 256 and k=25, 3,568 buckets per group of 3,568 keys; 9,956
        keys take 3 groups). The pre-scan's counts live only while the
        layout and the directory are planned; `host_counts` gathers the same
        counts as the stage runs. Each k-mer is then observed in read order,
        a new key taking its slot's counter, and each hit, and each miss
        whose key leaves its bucket's one column, joins one of its group's
        open batches; any other miss joins none and its key waits at once
        (see _observe). At the read's end each group probes its batches in
        order, writing each key row of new keys when a batch needs it or
        every column has passed it (see _flush). Hits' increments collect
        in `pending` until the last read's batches have run. Then each
        group writes the key rows still waiting, every counter is seeded,
        one write per (sub-array, stripe), and the increments are added, so
        every counter is seeded before it is added to and holds its count
        before build_graph reads it. The log line reports the directory's
        load (distinct keys per bucket), the batches, the image writes, the
        images reused and the most rows a group held images in at once, the
        most key rows a group held unwritten keys in at a read's end, the
        keys inserted and their row writes, the misses checked at their key
        row write, the queries in probed batches per image write, compares
        per query and the fullest column next to the counter work, where a
        counter add is one +1 at one bit plane.
        """
        m = self.machine
        with m.stage_scope(tr.STAGE_HASHMAP):
            counts = Counter(w.bits for r in reads for w in extract_kmers(r, k))
            if not counts:
                raise SizeError(f"no k-mers: every read is shorter than k={k}")
            width = mapping.counter_width(max(counts.values()))
            layout = mapping.layout_hash((m.rows, m.cols), k, width)
            table = KmerTable(k, layout, m)
            n_groups = mapping.bucket_directory(
                layout, [mapping.stable_hash(bits, 2 * k, self.seed) for bits in counts]
            )
            del counts
            groups = [
                _Group(self._new_subarray(layout.row_layout), layout) for _ in range(n_groups)
            ]
            table.buckets = n_groups * layout.capacity
            buckets = [_Bucket(groups[b // layout.capacity]) for b in range(table.buckets)]
            # (sub-array, stripe lsb, column) -> the stage's increment
            pending: dict[tuple[int, int, int], int] = {}
            for read in reads:
                for kmer in extract_kmers(read, k):
                    self._observe(table, buckets, kmer)
                for group in groups:
                    self._flush(table, group, pending)
            for group in groups:
                for row in list(group.waiting):
                    self._write_waiting(table, group, row)
            seeds = self._seed_counts(table)
            adds = self._add_counts(layout, pending)
        log.info(
            "k-mer table: %d queries, %d hits, %d counter adds (one +1 at a bit plane each), "
            "%d counter-seed writes, %d distinct, %d groups (one sub-array each), "
            "%d buckets (%.2f keys each), "
            "%d batches, %d image writes, %d images reused, "
            "at most %d image rows held in a group, "
            "at most %d key rows waiting in a group, "
            "%d keys inserted in %d row writes, "
            "%d misses checked at their key row write, "
            "%.2f imaged queries per image write, "
            "%.2f compares per query, fullest column %d of %d key rows",
            table.total_kmers, table.total_kmers - table.distinct(), adds, seeds,
            table.distinct(), len(groups), table.buckets, table.distinct() / table.buckets,
            table.batches, table.image_writes, table.batches - table.image_writes,
            table.image_rows_held,
            table.waiting_rows_held,
            table.distinct(), table.insert_writes,
            table.checked,
            table.imaged / max(table.image_writes, 1),
            table.compares / table.total_kmers,
            max(max(g.fill) for g in groups),
            len(layout.kmer_rows),
        )
        return table

    def _seed_counts(self, table: KmerTable) -> int:
        """Start every key's counter at one; returns the writes issued.

        A counter, at its key index's counter location, is still zero when
        the last read's batches have run, so setting bit plane 0 sets it to
        one: one masked write per (sub-array, counter stripe) covers every
        counter of that stripe. The stage's increments are added after it,
        so a key inserted and hit again ends at its exact count.
        """
        lay = table.layout
        planes: dict[tuple[int, int], dict[int, int]] = {}  # (sid, stripe lsb) -> {col: 1}
        for sid, key_i in table.slots:
            lsb, col = lay.counter_location(key_i)
            planes.setdefault((sid, lsb), {})[col] = 1
        for (sid, lsb), words in planes.items():
            self.machine.write_vwords(sid, lsb, 1, words)
        return len(planes)

    def _add_counts(
        self, lay: mapping.HashLayout, pending: dict[tuple[int, int, int], int]
    ) -> int:
        """Add the stage's counter increments one bit plane at a time;
        returns the adds issued.

        Each sub-array counter stripe takes its increments through one
        _add_words, in ascending (sub-array, stripe) order. Every counter is
        wide enough for its key's count, so any overflow bit means fabric
        and mirror diverged; the check runs once every add has, so the
        cells hold the full sums.
        """
        stripes: dict[tuple[int, int], dict[int, int]] = {}
        for (sid, lsb, col), amount in pending.items():
            stripes.setdefault((sid, lsb), {})[col] = amount
        overflowed = []
        for sid, lsb in sorted(stripes):
            if self._add_words(sid, lsb, lay.value_width, stripes[sid, lsb]):
                overflowed.append((sid, lsb))
        if overflowed:
            sid, lsb = overflowed[0]
            raise ConsistencyError(f"counter add overflowed in sub-array {sid}, stripe row {lsb}")
        # one add per stripe and bit that some amount sets
        return sum(
            functools.reduce(operator.or_, words.values()).bit_count()
            for words in stripes.values()
        )

    def _add_words(self, sid: int, lsb: int, width: int, words: dict[int, int]) -> bool:
        """Add {col: amount} into the width-bit vertical words at lsb;
        returns whether any add carried out of its word.

        Adding 1 to a word's planes i and up adds 2**i, so the columns whose
        amount has bit i set share one column-parallel +1 at plane i, which
        costs what a single-column add does and stops at its last carry
        plane (see isa). The adds run in ascending plane order, one per bit
        that some amount sets, so each amount enters its word through its
        set bits alone.
        """
        over = False
        for i in range(max(words.values()).bit_length()):
            cols = [col for col, amount in words.items() if amount >> i & 1]
            if cols:
                carry = self.machine.add_const_cols(sid, lsb + i, width - i, cols, 1)
                over |= any(carry.values())
        return over

    def _observe(self, table, buckets, kmer: EncodedSeq) -> None:
        """Observe one k-mer: the hash stage's one rule for inserting keys
        and batching queries.

        Every query hashes to its bucket, and the query's exact count in
        `host_counts` decides hit or miss. A miss places its key at once:
        in the bucket's column while that has room, else in the group's
        least-filled column, at that column's next key row, whose counter
        _seed_counts starts at one at the stage's end. The column joins
        the bucket's at once, so the bucket's later queries image it, and
        the row becomes the bucket's newest placed row. A key row that
        holds an image holds no key yet, so its first key drops the image
        from `group.held`: the key's write covers its slot, and no later
        batch may take the row for an image.

        A miss whose key goes into its bucket's one column (the bucket was
        empty, or all its keys sit in that column) joins no batch: once
        written, its key row holds its query in that column, so the row
        serves as its image. Its key joins `group.waiting` and
        `group.row_of` at once, with its miss check due when its bucket held
        keys (see _write_keys). A bucket keeps at most one unwritten key:
        when its previous key still waits, that key's row is written first,
        with every key waiting in it, so every older key of the bucket is
        written, and checked, before the new key is checked against it.

        Every other query joins one of the group's open batches for the
        read, after its bucket's last one, so two batched queries of one
        bucket are probed in the order they arrive. Its image fills the
        columns of its bucket's keys placed before it. A hit joins the
        read's batch for its bucket's newest placed key row, or opens a new
        batch for that row when that batch fills one of the query's columns
        or is not after the bucket's last one. A miss whose bucket spans
        several columns, or whose key must leave its bucket's full column,
        cannot use its own row as its image: it joins the first batch after
        that one whose image fills none of its columns, or opens a new one,
        and its key waits once its batch has compared. A waiting key goes
        in from the query bits the controller holds, one masked write per
        key row: before the first later batch of any read that probes its
        bucket, when a later miss into its bucket is placed, at the end of
        the first read after which every column has passed its row, or at
        the stage's end (see _flush). So a hit on a key placed earlier is
        probed after the key is written, and imaged in its column, and a
        key row takes every key that is ready by the time it is needed. A
        hit adds one increment for the key its
        batch finds to `pending`.
        """
        lay = table.layout
        bits = kmer.bits
        table.total_kmers += 1
        bucket = buckets[mapping.stable_hash(bits, 2 * table.k, self.seed) % len(buckets)]
        group = bucket.group
        cols = bucket.cols
        floor = group.last.get(bucket, -1)  # the bucket's last batch in the read
        count = table.host_counts.get(bits)
        if count is not None:
            table.host_counts[bits] = count + 1
            query = _Query(bucket, bits, cols, None)
            i = group.by_row.get(bucket.row, -1)
            if i <= floor or group.busy[i] & cols:
                i = group.by_row[bucket.row] = len(group.batches)
        else:
            col = bucket.col
            if not cols or group.fill[col] == len(lay.kmer_rows):
                col = group.fill.index(min(group.fill))
            row = group.fill[col]
            if len(group.image_rows) - row <= len(group.held):  # the row holds an image
                at = group.key_rows[row]
                del group.held[next(image for image, addr in group.held.items() if addr is at)]
            key_i = row * lay.slots + col
            group.fill[col] += 1
            table.host_counts[bits] = 1
            table.keys.append(kmer)
            table.slots.append((group.sid, key_i))
            bucket.col, bucket.row = col, row
            bucket.cols |= 1 << col
            if bucket.cols == 1 << col:  # its key row can serve as its image
                older = group.row_of.get(bucket)
                if older is not None:
                    self._write_waiting(table, group, older)
                query = _Query(bucket, bits, cols, key_i, due=bool(cols))
                group.waiting.setdefault(row, []).append(query)
                group.row_of[bucket] = row
                return
            query = _Query(bucket, bits, cols, key_i)
            i = floor + 1
            while i < len(group.busy) and group.busy[i] & cols:
                i += 1
        if i == len(group.batches):
            group.batches.append([])
            group.busy.append(0)
        group.batches[i].append(query)
        group.busy[i] |= cols
        group.last[bucket] = i

    def _flush(self, table: KmerTable, group: _Group, pending) -> None:
        """Probe a group's open batches in the order they opened, and write
        each key row that holds new keys once they are needed or the row is
        complete.

        After each probe, each hit's increment goes to `pending`, at the
        counter of the key it found, and each miss's key waits in
        `group.waiting`, a map from key row to its unwritten keys that lasts
        across reads; the misses that joined no batch wait there from their
        placement (see _observe). Before a batch probes, each row that holds
        an unwritten key of a member's bucket is written, with every key
        waiting in it, one masked write per row, so the batch finds those
        keys; the write runs the miss checks due in that row (see
        _write_keys). A batch's miss joins the map only once its own batch
        has compared, so a row write never takes a key of the batch about to
        probe, whose miss check would find it. At the read's end, each
        waiting row below every column's fill is written: no later key can
        go in it. The other rows wait for a later read's batch or miss, a
        later read's end or the stage's end (build_kmer_table).
        `group.row_of` names the row of each bucket's unwritten key. A
        bucket has at most one: a later miss into it that joins no batch
        writes that row when it is placed, and any later batched query of
        it, in this read or a later one, is in a later batch, which writes
        that row before it probes. Every member of a batch images at least
        one column, since its bucket holds a key. A hit that finds no key,
        or a batch's miss that finds one, means fabric and host counts
        diverged."""
        lay, sid = table.layout, group.sid
        waiting, row_of = group.waiting, group.row_of
        for batch in group.batches:
            for query in batch:
                row = row_of.get(query.bucket)
                if row is not None:
                    self._write_waiting(table, group, row)
            table.batches += 1
            table.imaged += len(batch)
            found, compared, written = self._probe(group, batch, lay)
            table.compares += compared
            table.image_writes += written
            table.image_rows_held = max(table.image_rows_held, len(group.held))
            for query, key_i in zip(batch, found):
                if query.key_i is not None:  # a miss
                    if key_i is not None:
                        raise ConsistencyError(f"fabric scan finds key index {key_i} for a miss")
                    row = row_of[query.bucket] = query.key_i // lay.slots
                    waiting.setdefault(row, []).append(query)
                elif key_i is None:
                    raise ConsistencyError(f"fabric scan finds no key for a hit in sub-array {sid}")
                else:
                    slot = (sid, *lay.counter_location(key_i))
                    pending[slot] = pending.get(slot, 0) + 1
        done = min(group.fill)  # every column has passed the rows below it
        for row in [row for row in waiting if row < done]:
            self._write_waiting(table, group, row)
        table.waiting_rows_held = max(table.waiting_rows_held, len(waiting))
        group.batches = []
        group.busy = []
        group.by_row.clear()
        group.last.clear()

    def _write_waiting(self, table: KmerTable, group: _Group, row: int) -> None:
        """Write one key row that holds unwritten keys, with every key
        waiting in it, and forget them."""
        keys = group.waiting.pop(row)
        for key in keys:
            del group.row_of[key.bucket]
        self._write_keys(table, group, row, keys)

    def _write_keys(self, table: KmerTable, group: _Group, row: int, keys: list[_Query]) -> None:
        """Write new keys of one key row into their slots from their query
        bits: one masked `mem_insert`, no read. Then check every key's bits,
        and run the miss check of each key that has one due: the key row is
        compared with every other written row of the key's bucket, one
        `Machine.cmp` each, read only at the key's own column
        (lay.matched_slot). The key row holds the query in that column, as a
        batch's image would, and the bucket's other keys sit in that column
        too, so a match means fabric and host counts diverged. A row that
        several keys of the write need is compared once."""
        lay = table.layout
        full = (1 << 2 * table.k) - 1
        starts = [query.key_i % lay.slots * lay.pitch for query in keys]
        value = mask = 0
        for query, start in zip(keys, starts):
            value |= query.bits << start
            mask |= full << start
        key_row = group.key_rows[row]
        self.machine.mem_insert(key_row, value, mask)
        table.insert_writes += 1
        cells = self.machine.subarray(group.sid).cells[key_row.row]
        masks: dict[int, int] = {}  # another key row -> its compare with this one
        for query, start in zip(keys, starts):
            if cells >> start & full != query.bits:
                raise ConsistencyError("inserted key bits corrupted")
            own = 1 << start // lay.pitch
            rows = query.bucket.rows
            if query.due:
                for other in rows:
                    if other not in masks:
                        masks[other] = self.machine.cmp(key_row, group.key_rows[other]).mask
                    if lay.matched_slot(masks[other], own) is not None:
                        key_i = other * lay.slots + start // lay.pitch
                        raise ConsistencyError(f"fabric scan finds key index {key_i} for a miss")
            rows[row] = rows.get(row, 0) | own
        table.checked += sum(query.due for query in keys)
        table.compares += len(masks)

    def _probe(
        self, group: _Group, batch: list[_Query], lay: mapping.HashLayout
    ) -> tuple[list[int | None], int, bool]:
        """Compare a batch against its members' bucket rows in fabric.

        The batch's image holds each member's query in its `cols`; two
        members that share a column would overwrite each other there, which
        raises. A row that holds the image already serves as it, with no
        write; otherwise the image is written into the group's next free
        row, a temp row first and then the key rows above its fullest column
        from the top down, or, when every such row holds an image, over the
        one used least recently. A key row keeps its image's bits in every
        slot but the ones a key is later written to, and those stale bits
        are never read: a member reads only its own bucket's slots of a
        compare (lay.matched_slot), a key row's miss check only its key's
        slot (see _write_keys), and a label or counter read touches only
        key bits or counter rows. Each member then compares its bucket's
        rows against it newest first, down to the first row where one of
        the member's own columns matches: a hit stops at its key's row, and
        a miss compares every row. A row another member already
        compared is not compared again. So the batch costs at most one
        write, and one compare cycle plus one AND-reduce per distinct row.
        Returns the key index each member found (None when none matched),
        the rows compared and whether the image was written.
        """
        m = self.machine
        image = filled = 0
        for query in batch:
            if filled & query.cols:
                raise ConsistencyError(
                    f"two members of a batch share an image column in sub-array {group.sid}"
                )
            filled |= query.cols
            image |= lay.image(query.bits, query.cols)
        held = group.held
        temp = held.pop(image, None)
        written = temp is None
        if written:
            if len(held) < len(group.image_rows) - max(group.fill):
                temp = group.image_rows[len(held)]
            else:
                temp = held.pop(next(iter(held)))
            m.mem_insert(temp, image, ones(temp.bit_len))
        held[image] = temp
        masks: dict[int, int] = {}  # row -> its compare mask
        found: list[int | None] = []
        for query in batch:
            key_i = None
            bucket = query.bucket
            for row, own in reversed(bucket.rows.items()):
                mask = masks.get(row)
                if mask is None:
                    mask = masks[row] = m.cmp(temp, group.key_rows[row]).mask
                slot = lay.matched_slot(mask, own)
                if slot is not None:
                    key_i = row * lay.slots + slot
                    break
            found.append(key_i)
        return found, len(masks), written

    # -- stage 2: graph construction --

    def build_graph(self, table: KmerTable) -> SparseGraph:
        """One edge per distinct k-mer, from prefix to suffix node, chains
        merged when `simplify` is on, placed on this machine.

        Every counter is read back from fabric once and must equal the host
        count; it becomes the edge's multiplicity. Nodes are numbered in
        first-appearance order, and each node's label is read in place, in
        the key slot where it first appears: the key's low 2(k-1) bits for
        a prefix, the high ones for a suffix. Those bits
        must hold the label; nothing is copied. Only then does
        simplify_graph merge chains, and only the graph the walk reads is
        placed.
        """
        k = table.k
        width = 2 * (k - 1)
        m = self.machine
        with m.stage_scope(tr.STAGE_GRAPH):
            g = SparseGraph(k=k)
            label_rows: list[tuple[int, int]] = []  # node id -> its label's key row
            fab_freq = table.frequencies()
            for key, (sid, key_i) in zip(table.keys, table.slots):
                expect = table.host_counts[key.bits]
                if fab_freq[key] != expect:
                    raise ConsistencyError(
                        f"counter for {key.to_str()} reads {fab_freq[key]}, expected {expect}"
                    )
                row, col = table.layout.key_address(key_i)
                prefix, suffix = key.prefix(k - 1), key.suffix(k - 1)
                for label, offset in ((prefix, 0), (suffix, 2)):
                    if g.node_id(label) < len(label_rows):
                        continue
                    stored = m.subarray(sid).cells[row] >> (col + offset)
                    if stored & ((1 << width) - 1) != label.bits:
                        raise ConsistencyError(f"label of {label.to_str()} stored corrupted")
                    label_rows.append((sid, row))
                g.add_edge(prefix, suffix, expect)
            log.info("graph: %d nodes, %d edges", len(g.nodes), g.edge_count)
            if self.simplify:
                g = self.simplify_graph(g, label_rows)
            g.store = _GraphStore(self._bank, g.mult)
        return g

    # -- optional stage 2.5: chain merging --

    def simplify_graph(
        self, g: SparseGraph, label_rows: list[tuple[int, int]] | None = None
    ) -> SparseGraph:
        """Merge unbranched chains into single nodes.

        Each chain of unitig_index becomes one node with the overlap-merged
        label, and its links go; a contractible cycle's closing edge
        survives as the merged node's self-loop. Each distinct key row
        that holds a merged node's label (`label_rows`, from build_graph)
        is read once, through one Machine.read_row, and the controller pays
        one op per node and per edge.
        """
        m = self.machine
        with m.stage_scope(tr.STAGE_GRAPH):
            n = len(g.nodes)
            index = unitig_index(g)
            new = SparseGraph(k=g.k)
            node_map: dict[int, int] = {}
            read: set[tuple[int, int]] = set()  # label rows of merged nodes
            for chain in index.nodes:
                label = contig_from_path([g.nodes[nid] for nid in chain], g.k or 2)
                if len(chain) > 1 and label_rows is not None:
                    read.update(label_rows[nid] for nid in chain)
                mid = new.node_id(label)
                for nid in chain:
                    node_map[nid] = mid
            for e, (u, v) in enumerate(zip(g.edge_src, g.edge_dst)):
                if index.chain_of_edge[e] >= 0:
                    continue
                new.add_edge(new.nodes[node_map[u]], new.nodes[node_map[v]], g.mult[e])
            # merge scan: merged members' label rows, controller pass
            for sid, row in sorted(read):
                m.read_row(sid, row)
            m.dpu_charge(n + g.edge_count)
        log.info(
            "simplify: %d -> %d nodes, %d -> %d edges",
            n, len(new.nodes), g.edge_count, new.edge_count,
        )
        return new

    # -- stage 3: degree accumulation and start pick --

    def find_start(self, g: SparseGraph) -> list[int]:
        """Accumulate degrees column-parallel and return the trail starts.

        A graph with no placement on this machine is placed first: this is
        the one place the walk places a graph. Each node owns one column.
        The pass reads every multiplicity stripe once and checks it against
        the mirror. One pass over each end list groups the edges into waves
        by (stripe, rank), the rank being how many edges of the same node
        came before. Each stripe of `cols` nodes takes 2 * w_deg fresh rows
        from the assembler's row bank (its out and in words), rows never
        handed out before and so still zero. So a stripe's rank-0 wave is
        written straight into the out or in words, one W per plane its
        largest word fills, which leaves the cells an add into zeros would:
        the planes above, like the columns the wave does not list, already
        hold zeros. Every later wave is added in place through _add_words:
        its words are the read-back ones, so the controller holds them, and
        the columns whose word sets bit i share one +1 at plane i, in
        ascending bit order, so a whole sub-array row of nodes advances per
        add, each edge's word enters its node's word only through its own
        wave's adds, and every add's carry-out is checked. The degree words
        are (largest degree + 1).bit_length() bits wide, just enough for the
        start probe's in + 1, formed in the in words themselves once they
        are read back. Every pass is the same full pass: a repeat one (after
        some words were rewritten, say) takes new stripes after the last
        pass's and accumulates every node again. The read-back and the start
        test cover every column: the test compares out against in+1 with one
        compare cycle per bit plane, and an in + 1 that carries out raises
        ConsistencyError. The edge-unit total needs no word of its own: it
        is the sum of the out-degree words. Any degree sequence is accepted:
        the starts list every node once per unit of outgoing surplus, in
        ascending order, from the host degree lists the fabric planes were
        just checked against, so an Euler path is the case of one start or
        none. The pass (its degree stripes and starts) is stored as
        `g.store.degree`, where the next fleury call walks it.
        """
        m = self.machine
        with m.stage_scope(tr.STAGE_TRAVERSE):
            if g.store is None or g.store.machine is not m:
                g.store = _GraphStore(self._bank, g.mult)
            store = g.store
            words = store.read()
            for e, (val, want) in enumerate(zip(words, store.mult)):
                if val != want:
                    raise ConsistencyError(
                        f"multiplicity word of edge {e} reads {val}, expected {want}"
                    )
            n = len(g.nodes)
            host_out, host_in = g.degrees(store.mult)
            maxdeg = max(max(host_out, default=0), max(host_in, default=0))
            w_deg = (maxdeg + 1).bit_length()  # the probe's in + 1 fits
            store.degree = None  # void from here on, even on failure
            stripes = [self._bank.alloc(2 * w_deg) for _ in range(0, n, m.cols)]

            # per stripe: out words at base, then in words
            for ends, offset in ((g.edge_src, 0), (g.edge_dst, w_deg)):
                rank = [0] * n  # per node: the edges of it seen so far
                # (stripe, rank) -> {col: the edge's multiplicity word}
                waves: dict[tuple[int, int], dict[int, int]] = {}
                for e, nid in enumerate(ends):
                    stripe, col = divmod(nid, m.cols)
                    waves.setdefault((stripe, rank[nid]), {})[col] = words[e]
                    rank[nid] += 1
                for (stripe, r), wave in sorted(waves.items()):
                    sid, base = stripes[stripe]
                    if not r:  # fresh rows: the planes above the wave hold zeros
                        m.write_vwords(sid, base + offset, max(wave.values()).bit_length(), wave)
                    elif self._add_words(sid, base + offset, w_deg, wave):
                        raise ConsistencyError("degree counter overflow")

            # read the counter planes back; the mirror must agree exactly
            fab_out: list[int] = []
            fab_in: list[int] = []
            candidates: list[int] = []
            for stripe, (sid, base) in enumerate(stripes):
                lo = stripe * m.cols
                hi = min(n, lo + m.cols)
                in_base = base + w_deg
                fab_out += m.read_vwords(sid, base, w_deg)[: hi - lo]
                fab_in += m.read_vwords(sid, in_base, w_deg)[: hi - lo]
                # start probe: the in words, dead once read, take in + 1, and
                # out is plane-compared against them
                node_cols = list(range(hi - lo))
                if any(m.add_const_cols(sid, in_base, w_deg, node_cols, 1).values()):
                    raise ConsistencyError("start probe's in + 1 overflowed its degree word")
                agree = ~0
                for i in range(w_deg):
                    res = m.cmp(
                        MemAddress(sid, base + i, 0, m.cols),
                        MemAddress(sid, in_base + i, 0, m.cols),
                    )
                    agree &= res.mask
                m.dpu_charge(1)
                for nid in range(lo, hi):
                    if (agree >> (nid - lo)) & 1:
                        candidates.append(nid)

            if fab_out != host_out or fab_in != host_in:
                raise ConsistencyError("degree planes disagree with the edge lists")
            if candidates != [i for i in range(n) if host_out[i] == host_in[i] + 1]:
                raise ConsistencyError("start probe disagrees with the degree mirror")

            starts = [i for i in range(n) for _ in range(host_out[i] - host_in[i])]
            store.degree = _DegreePass(stripes, w_deg, starts)
        return starts

    # -- stage 4: Euler walk --

    def fleury(self, g: SparseGraph) -> list[EulerPath]:
        """Cover every edge unit with the fewest trails, by Hierholzer's splice.

        The walk takes the degree pass stored on g's placement on this
        machine, and runs find_start first whenever g has no pass there. The
        pass's starts list each node once per unit of outgoing surplus, and
        the nodes with a deficit (in > out) are listed the same way, both in
        ascending order: the i-th deficit unit gets one virtual edge to the
        i-th start, so every node balances. One circuit then runs from each
        start in turn, skipping a start with no units left, and then from the
        lowest node still holding units, until every unit is walked. Each is
        Hierholzer's circuit: it follows each node's out-edges in edge-id
        order (the virtual ones last) until it stands at a node with none
        left, and splices in the sub-circuits it meets on the way back. A
        circuit with virtual edges is rotated to begin just after its first
        one and cut at every one, so each piece is a trail of real edges from
        a start to a deficit node. A component thus yields one trail per unit
        of surplus, or one circuit when it has none: max(1, surplus) trails,
        the fewest its degrees allow. The units are the values of the
        multiplicity words, so one call walks every component of g.

        The controller keeps `rem`, the units left per edge, each node's
        pointer into its out-edge ids (one offsets list and one edge-id list
        for all nodes), the circuit's stack and the virtual edges. It pays
        one op per edge unit walked and one per trail. The walked units are
        then spent in fabric in one pass, one add per (stripe, units) (see
        _GraphStore.spend), which raises ConsistencyError on a word that held
        fewer; per node the multiplicity words sum to the out-degree, so
        nothing else is spent. The walk then reads every multiplicity stripe
        back and requires every word to be zero. It consumes the degree
        pass, so walking g again re-runs find_start, which raises
        ConsistencyError on the spent words.
        """
        store = g.store
        if store is None or store.machine is not self.machine or store.degree is None:
            self.find_start(g)
            store = g.store
        starts, store.degree = store.degree.starts, None
        m = self.machine
        with m.stage_scope(tr.STAGE_TRAVERSE):
            n, real = len(g.nodes), g.edge_count
            out_d, in_d = g.degrees(store.mult)
            deficits = [x for x in range(n) for _ in range(in_d[x] - out_d[x])]
            src = g.edge_src + deficits  # virtual edges get ids from `real` on
            dst = g.edge_dst + starts
            rem = store.mult + [1] * len(starts)
            out_at, out_e = _edges_by_node(n, src)
            ptr = out_at[:n]  # per node: its first out-edge that may hold units

            def next_edge(x: int) -> int:
                """x's first out-edge holding units, or -1."""
                p, end = ptr[x], out_at[x + 1]
                while p < end and not rem[out_e[p]]:
                    p += 1
                ptr[x] = p
                return out_e[p] if p < end else -1

            def circuit(x: int) -> list[int]:
                """The edge ids of Hierholzer's circuit from x, over the units left."""
                stack = [(x, -1)]  # (node, the edge that entered it)
                back: list[int] = []  # the circuit's edges, last first
                while stack:
                    y, entered = stack[-1]
                    e = next_edge(y)
                    if e < 0:
                        stack.pop()
                        back.append(entered)
                    else:
                        rem[e] -= 1
                        stack.append((dst[e], e))
                back.pop()  # x's own entry
                back.reverse()
                return back

            heads = itertools.chain(starts, range(n))
            circuits = [circuit(u) for u in heads if next_edge(u) >= 0]
            paths: list[EulerPath] = []
            walked: Counter[int] = Counter()  # edge -> units walked
            for edges in circuits:
                # rotate to just after the first virtual edge; each run of
                # real edges between virtual ones is then one trail
                cut = next((i + 1 for i, e in enumerate(edges) if e >= real), 0)
                rotated = edges[cut:] + edges[:cut]
                for is_real, run in itertools.groupby(rotated, lambda e: e < real):
                    if is_real:
                        trail = list(run)
                        paths.append(EulerPath([src[trail[0]]] + [dst[e] for e in trail]))
                        walked.update(trail)
            m.dpu_charge(sum(walked.values()) + len(paths))
            store.spend(walked)
            # one read per multiplicity plane: the walk spends every word
            left = store.read()
            if any(left):
                e = next(e for e, val in enumerate(left) if val)
                raise ConsistencyError(
                    f"multiplicity word of edge {e} reads {left[e]} after the walk"
                )
        return paths

    # -- full pipeline --

    def assemble(self, reads: list[EncodedSeq], k: int) -> AssemblyResult:
        """Reads to contigs: count, build, optionally simplify, walk, merge.

        The traverse stage runs once over the whole graph. A component whose
        multiplicity-weighted outgoing surplus sums to more than one admits
        no Euler path, so its multiplicity words are rewritten to one in
        place (the store then narrows to its largest remaining word) and a
        second, plain find_start runs over the whole graph; components that
        pass keep their words. One fleury call then covers every component
        with trails, one contig each, so every distinct k-mer of the reads
        lands in some contig; an edge-less component (a chain that simplify
        merged into one node) is a single-node path. Paths come out grouped
        by component, in component order, and their node ids index the
        returned graph, whose `nodes` give their labels. Each retried
        component, then each component that splits into several contigs,
        appends a warning; the warnings are returned, not logged, so the
        caller reports each once. Before the contigs go out, the host checks
        that their k-mers are exactly the reads' distinct ones, the keys of
        the hash stage's exact counts (`KmerTable.host_counts`), and raises
        ConsistencyError otherwise; the check costs no fabric op.
        """
        m = self.machine
        warnings: list[str] = []
        usable = [r for r in reads if len(r) >= k]
        if len(usable) < len(reads):
            warnings.append(
                f"skipped {len(reads) - len(usable)} reads shorter than k={k}"
            )
        if not usable:
            layout = mapping.layout_hash((m.rows, m.cols), k)
            empty = KmerTable(k, layout, m)
            return AssemblyResult([], empty, SparseGraph(k=k), [], warnings)
        with m.stage_scope(tr.STAGE_IO):
            m.xfer(sum((r.bit_length + 7) // 8 for r in usable))
        table = self.build_kmer_table(usable, k)
        work = self.build_graph(table)
        with m.stage_scope(tr.STAGE_TRAVERSE):
            m.dpu_charge(len(work.nodes) + work.edge_count)
            comp_of = weakly_connected_components(work)
        heads: list[int] = []  # each component's lowest node
        for nid, ci in enumerate(comp_of):
            if ci == len(heads):
                heads.append(nid)
        surplus: Counter[int] = Counter()
        paths: list[EulerPath] = []
        if work.edge_count:  # an edge-less graph has nothing to place or walk
            starts = self.find_start(work)
            surplus.update(comp_of[u] for u in starts)
            retried = {ci for ci, s in surplus.items() if s > 1}
            if retried:
                with m.stage_scope(tr.STAGE_TRAVERSE):
                    work.store.write(
                        {e: 1 for e, u in enumerate(work.edge_src) if comp_of[u] in retried}
                    )
                self.find_start(work)
            paths = self.fleury(work)
        trails = Counter(comp_of[p.node_ids[0]] for p in paths)
        for ci, head in enumerate(heads):
            if not trails[ci]:
                paths.append(EulerPath([head]))
            if surplus[ci] > 1:
                warnings.append(
                    f"component is not Eulerian under multiplicities (outgoing surplus "
                    f"sums to {surplus[ci]}); retrying with unit multiplicities"
                )
            if trails[ci] > 1:
                warnings.append(f"component splits into {trails[ci]} contigs")
        # a circuit's trails may lie in several components: regroup
        paths.sort(key=lambda p: comp_of[p.node_ids[0]])
        contigs = [contig_from_path([work.nodes[i] for i in p.node_ids], work.k) for p in paths]
        _check_coverage(contigs, table)
        with m.stage_scope(tr.STAGE_IO):
            m.xfer(sum((c.bit_length + 7) // 8 for c in contigs))
        return AssemblyResult(contigs, table, work, paths, warnings)
