"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; without -s pytest still enforces every assertion.
"""

import itertools
import random
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from pimgasm.assembly import Assembler, SparseGraph
from pimgasm.cli import main
from pimgasm.encoding import EncodedSeq
from pimgasm.fabric import AND3_CFG, LOGIC2, MAJ_CFG, OR3_CFG, XOR3_CFG, RowLayout, SubArray
from pimgasm.isa import Machine
from pimgasm.mapping import capacity_plan, subarrays_needed
from pimgasm.perf import CostConfig, account, calibrated_config, sweep_pd
from pimgasm.seqio import distinct_window_genome, random_genome, tile_reads
from pimgasm.trace import OpTrace, STAGE_GRAPH, STAGE_HASHMAP, STAGE_IO


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {n:02d}] FAIL: {desc}")
        raise
    print(f"[criterion {n:02d}] PASS: {desc}")


def fresh_sub(rows=16, cols=8):
    return SubArray(rows=rows, cols=cols, layout=RowLayout.default(rows),
                    op_trace=OpTrace(), subarray_id=0)


# -- 1: three-row sense logic ------------------------------------------------


def test_criterion_01_sense_logic_exact():
    start = time.perf_counter()
    with criterion(1, "all taps match the cell-count oracle; parity identity holds"):
        for cfg in (AND3_CFG, MAJ_CFG, OR3_CFG, XOR3_CFG):
            for pattern in range(8):
                a, b, c = (pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1
                sub = fresh_sub()
                sub.write_cell(0, 0, a)
                sub.write_cell(1, 0, b)
                sub.write_cell(2, 0, c)
                out = sub.activate((0, 1, 2), cfg)
                s = a + b + c
                assert out.bit("or3", 0) == int(s >= 1)
                assert out.bit("maj", 0) == int(s >= 2)
                assert out.bit("and3", 0) == int(s == 3)
                assert out.bit("xor3", 0) == s % 2
                assert out.bit("nor3", 0) == int(s < 1)
                assert out.bit("min3", 0) == int(s < 2)
                assert out.bit("nand3", 0) == int(s != 3)
                maj, or3, and3 = (out.bit(f, 0) for f in ("maj", "or3", "and3"))
                assert out.bit("xor3", 0) == ((1 - maj) & or3) | (maj & and3)
        assert time.perf_counter() - start < 1.0


# -- 2: two-input emulation ----------------------------------------------------


def test_criterion_02_two_input_tables():
    oracles = {
        "and2": lambda a, b: a & b,
        "nand2": lambda a, b: 1 - (a & b),
        "or2": lambda a, b: a | b,
        "nor2": lambda a, b: 1 - (a | b),
        "xor2": lambda a, b: a ^ b,
        "xnor2": lambda a, b: 1 - (a ^ b),
    }
    assert set(oracles) == set(LOGIC2)
    with criterion(2, "all six 2-input gates match their 4-entry truth tables"):
        for op, fn in oracles.items():
            for a in (0, 1):
                for b in (0, 1):
                    sub = fresh_sub()
                    sub.write_cell(0, 0, a)
                    sub.write_cell(1, 0, b)
                    assert sub.logic2(0, 1, op) & 1 == fn(a, b)


# -- 3: bit-serial adder -------------------------------------------------------


def _planes(values, width):
    return [
        sum(((v >> i) & 1) << c for c, v in enumerate(values))
        for i in range(width)
    ]


def _decode(planes, ncols, width):
    return [
        sum(((planes[i] >> c) & 1) << i for i in range(width))
        for c in range(ncols)
    ]


def _batched_add(m, sid, a_vals, b_vals, width, a_lsb=0):
    sub = m.subarray(sid)
    b_lsb, out_lsb = a_lsb + width, a_lsb + 2 * width
    for i, plane in enumerate(_planes(a_vals, width)):
        sub.write_row(a_lsb + i, plane)
    for i, plane in enumerate(_planes(b_vals, width)):
        sub.write_row(b_lsb + i, plane)
    cols = list(range(len(a_vals)))
    over = m.add_cols(sid, a_lsb, b_lsb, out_lsb, width, cols)
    sums = _decode([sub.read_row(out_lsb + i) for i in range(width)], len(cols), width)
    return sums, over


def test_criterion_03_adder_exhaustive_and_random():
    start = time.perf_counter()
    with criterion(3, "8-bit addition exhaustive and 32-bit randomized match ints"):
        m = Machine(rows=128, cols=256)
        sid = m.new_subarray()
        for a in range(256):
            sums, over = _batched_add(m, sid, [a] * 256, list(range(256)), 8)
            for b in range(256):
                assert sums[b] == (a + b) & 0xFF
                assert over[b] == (a + b) >> 8

        rng = random.Random(3)
        for _ in range(40):
            a_vals = [rng.getrandbits(32) for _ in range(250)]
            b_vals = [rng.getrandbits(32) for _ in range(250)]
            sums, over = _batched_add(m, sid, a_vals, b_vals, 32)
            for c, (a, b) in enumerate(zip(a_vals, b_vals)):
                assert sums[c] == (a + b) & 0xFFFFFFFF
                assert over[c] == (a + b) >> 32
        assert time.perf_counter() - start < 10.0


# -- 4: k-mer counting ---------------------------------------------------------


def test_criterion_04_kmer_counts_match_host_oracle():
    rng = random.Random(4)
    raw = [random_genome(100, rng) for _ in range(1000)]
    reads = [EncodedSeq.from_str(s) for s in raw]
    with criterion(4, "fabric k-mer counts equal the host oracle for four k values"):
        for k in (22, 25, 27, 32):
            expected = Counter(
                s[i : i + k] for s in raw for i in range(len(s) - k + 1)
            )
            table = Assembler().build_kmer_table(reads, k)
            got = {key.to_str(): n for key, n in table.items()}
            assert got == dict(expected)


# -- 5: graph conservation and Euler walks --------------------------------------


def _host_hierholzer(edges):
    """Euler circuit via the stack algorithm; edges is Counter[(u, v)]."""
    adj = defaultdict(Counter)
    for (u, v), mult in edges.items():
        adj[u][v] += mult
    start = min(u for u, _ in edges)
    stack, path = [start], []
    while stack:
        u = stack[-1]
        v = next((w for w, c in adj[u].items() if c), None)
        if v is None:
            path.append(stack.pop())
        else:
            adj[u][v] -= 1
            stack.append(v)
    path.reverse()
    return path


def test_criterion_05_graph_conservation_and_euler_coverage():
    with criterion(5, "multiplicity conservation holds; walks cover like the host oracle"):
        rng = random.Random(5)
        raw = [random_genome(60, rng) for _ in range(40)]
        asm = Assembler()
        table = asm.build_kmer_table([EncodedSeq.from_str(s) for s in raw], 8)
        g = asm.build_graph(table)
        freqs = table.frequencies()
        assert g.total_multiplicity() == sum(freqs.values())
        out_d, in_d = g.degrees()
        assert sum(out_d) == sum(in_d) == g.total_multiplicity()

        labels = ["".join(p) for p in itertools.product("ACGT", repeat=3)]
        for trial in range(100):
            n = rng.randint(2, 50)
            walk = [rng.randrange(n) for _ in range(rng.randint(3, 70))]
            walk.append(walk[0])
            edges = Counter(zip(walk, walk[1:]))
            g = SparseGraph()
            for (u, v), mult in edges.items():
                g.add_edge(EncodedSeq.from_str(labels[u]),
                           EncodedSeq.from_str(labels[v]), mult=mult)
            dense_edges = Counter()
            for u, v, mult in zip(g.edge_src, g.edge_dst, g.mult):
                dense_edges[(u, v)] += mult
            [path] = Assembler(rows=128, cols=64).fleury(g)
            oracle = _host_hierholzer(dense_edges)
            assert len(path.node_ids) == len(oracle)
            assert Counter(zip(path.node_ids, path.node_ids[1:])) == dense_edges
            assert Counter(zip(oracle, oracle[1:])) == dense_edges


# -- 6: end-to-end round trip ----------------------------------------------------


def test_criterion_06_round_trip(canonical_genome, canonical_reads, canonical_run):
    with criterion(6, "10,000-base genome reassembles byte-for-byte, simplify on and off"):
        plain = canonical_run["result"]
        assert [c.to_str() for c in plain.contigs] == [canonical_genome]

        t0 = time.perf_counter()
        merged = Assembler(simplify=True).assemble(canonical_reads, 25)
        on_elapsed = time.perf_counter() - t0
        assert [c.to_str() for c in merged.contigs] == [canonical_genome]
        assert merged.warnings == []
        assert canonical_run["elapsed_s"] + on_elapsed < 300.0


# -- 7: stage breakdown ------------------------------------------------------------


def test_criterion_07_hashmap_dominates(canonical_run):
    with criterion(7, "hashmap stage holds at least 40% of modeled runtime"):
        rep = account(canonical_run["asm"].trace, CostConfig())
        assert rep.stage_fraction(STAGE_HASHMAP) >= 0.40


# -- 8: k-length trend --------------------------------------------------------------


def test_criterion_08_runtime_falls_as_k_grows():
    genome = distinct_window_genome(1500, 21, random.Random(8))
    reads = [EncodedSeq.from_str(s) for s in tile_reads(genome, 100, 1)]
    with criterion(8, "modeled runtime strictly decreases over k = 22, 25, 27, 32"):
        runtimes = []
        for k in (22, 25, 27, 32):
            asm = Assembler()
            asm.assemble(reads, k)
            runtimes.append(account(asm.trace, CostConfig()).total_latency_ns)
        assert all(a > b for a, b in zip(runtimes, runtimes[1:])), runtimes


# -- 9: parallelism sweep calibration --------------------------------------------------


def test_criterion_09_pd_sweep_calibration(canonical_run):
    trace = canonical_run["asm"].trace
    with criterion(9, "committed calibration yields 2.5-3.5x time and 5-9x power at pd 8"):
        cfg = calibrated_config()
        pts = {p.pd: p for p in sweep_pd(trace, cfg, [1, 8]).points}
        time_ratio = pts[1].runtime_ns / pts[8].runtime_ns
        power_ratio = pts[8].avg_power_w / pts[1].avg_power_w
        assert 2.5 <= time_ratio <= 3.5, time_ratio
        assert 5.0 <= power_ratio <= 9.0, power_ratio

        # monotone for any nonnegative knob combination
        for frac in (0.0, 0.3, 16.0 / 21.0, 1.0):
            for per_group in (0.0, 1000.0, 5412.0):
                for base in (0.0, 586.0):
                    grid_cfg = CostConfig(
                        parallel_fraction=frac,
                        leakage_per_group_mw=per_group,
                        leakage_base_mw=base,
                    )
                    pts = sweep_pd(trace, grid_cfg, list(range(1, 9))).points
                    for a, b in zip(pts, pts[1:]):
                        assert b.runtime_ns <= a.runtime_ns + 1e-9
                        assert b.avg_power_w >= a.avg_power_w - 1e-9


# -- 10: memory-wall metrics -------------------------------------------------------------


def test_criterion_10_memory_wall_metrics(canonical_run):
    with criterion(10, "MBR at most 0.17 and RUR at least 0.60; MBR + RUR never above 1"):
        rep = account(canonical_run["asm"].trace, calibrated_config())
        assert rep.mbr <= 0.17, rep.mbr
        assert rep.rur >= 0.60, rep.rur
        assert rep.mbr + rep.rur <= 1.0

        cfg = CostConfig()
        for spec in (
            [(STAGE_IO, "XFER", 1000)],
            [(STAGE_GRAPH, "C_ADD", 1000)],
            [(STAGE_IO, "XFER", 500), (STAGE_GRAPH, "R", 300), (STAGE_GRAPH, "DPU", 200)],
        ):
            t = OpTrace()
            for stage, kind, n in spec:
                with t.stage_scope(stage):
                    t.emit(kind, n)
            r = account(t, cfg)
            assert r.mbr + r.rur <= 1.0 + 1e-12


# -- 11: capacity formulas ----------------------------------------------------------------


def test_criterion_11_capacity_formulas():
    with criterion(11, "whole-genome table is ~23 GiB and 519,771 words need 2,031 sub-arrays"):
        plan = capacity_plan(3_000_000_000, 32)
        assert abs(plan.gibibytes - 23.0) / 23.0 <= 0.10, plan.gibibytes
        assert subarrays_needed(519_771, 256) == 2031


# -- 12: reproducibility -------------------------------------------------------------------


def test_criterion_12_byte_identical_reruns(tmp_path, monkeypatch):
    genome = distinct_window_genome(600, 24, random.Random(12))
    reads_file = tmp_path / "reads.fasta"
    reads_file.write_text(
        "".join(
            f">r{i}\n{seq}\n"
            for i, seq in enumerate(tile_reads(genome, 100, 2))
        )
    )
    argv = ["assemble", str(reads_file), "--k", "25", "--rows", "256",
            "--cols", "128", "--out", "run"]
    with criterion(12, "identical run specs produce byte-identical outputs"):
        outputs = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            assert main(argv) == 0
            outputs.append({
                name: (d / name).read_bytes()
                for name in ("run.contigs.fasta", "run.report.json", "run.trace.csv")
            })
        assert outputs[0] == outputs[1]
