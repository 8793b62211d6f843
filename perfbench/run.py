"""Benchmark: seeded reads through the fabric assembler and the cost model.

    python3 perfbench/run.py --workload tiled-deep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports pimgasm from that checkout's
`src/` and nowhere else, and exits non-zero without a result when the
sources are missing. One process, one thread, a closed loop with a single
caller: each repetition assembles the same encoded reads with a fresh
`Assembler` at k = 25 and prices the trace with the calibrated cost model.
Repetitions run until `--seconds` is used up (at least MIN_REPS of them)
and every one is checked; a failed check counts as a failed operation.

`--trace 0` prints the end-to-end metrics named in BENCHMARK.json: the
modeled cost, fabric footprint and k-mer recall, which repeat exactly for
a seed, plus peak memory and set-up time. `--trace 1` alternates untraced
and traced repetitions and prints the per-layer metrics: host wall time,
spans recorded around the public `Assembler` and `Machine` methods (see
spans.py), counts from the operation trace, and each layer's share of the
traced wall time.

Host times are the fastest of their samples, as timeit reports them: on a
shared host other tenants only ever add time. Set-up is sampled
SETUPS_PER_REP times before every repetition, so its samples spread over
the whole run and the minimum catches the host's quiet moments. The last
stdout line is the JSON result; the line before it records the
environment, the trace digest, the input sizes and every timing sample.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import logging
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPS = 3
SETUPS_PER_REP = 4

_clock = time.perf_counter


def _use_checkout_sources() -> None:
    """Put this checkout's src/ first on the path; fail without it."""
    if not (SRC / "pimgasm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pimgasm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pimgasm

    if not Path(pimgasm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: pimgasm resolved outside {SRC}: {pimgasm.__file__}")
    # the assembler logs one warning per fallback rung; results carry them
    logging.getLogger("pimgasm").setLevel(logging.ERROR)


def _fresh_import(name: str):
    """Import `name` anew, with every pimgasm and benchmark module it pulls in."""
    for mod in [m for m in sys.modules if m.split(".")[0] in ("pimgasm", "workloads")]:
        del sys.modules[mod]
    return importlib.import_module(name)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _kmers(seqs, k: int) -> set[str]:
    return {s[i:i + k] for s in seqs for i in range(len(s) - k + 1)}


class Bench:
    """One workload's inputs plus the measurements taken on them."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.import_s, self.gen_s, self.enc_s = [], [], []
        self.inputs = None
        workloads, self.perf, self.Assembler = self.set_up()
        self.k = workloads.K
        self.eulerian = workload in workloads.EULERIAN
        self.genome, self.raw, self.reads = self.inputs
        self.read_kmers = _kmers(self.raw, self.k)
        self.digest = None
        self.failures: list[str] = []
        self.wall_samples: list[float] = []

    def set_up(self):
        """Time one import, input draw and encoding; check the draw repeats.

        run_once calls this before every assembly, so the set-up samples
        spread over the whole run.
        """
        t0 = _clock()
        workloads = _fresh_import("workloads")
        from pimgasm import perf
        from pimgasm.assembly import Assembler
        from pimgasm.encoding import EncodedSeq

        t1 = _clock()
        genome, raw = workloads.WORKLOADS[self.workload](random.Random(self.seed))
        t2 = _clock()
        reads = [EncodedSeq.from_str(r) for r in raw]
        t3 = _clock()
        self.import_s.append(t1 - t0)
        self.gen_s.append(t2 - t1)
        self.enc_s.append(t3 - t2)
        if self.inputs is None:
            self.inputs = (genome, raw, reads)
        elif (genome, raw) != self.inputs[:2]:
            raise RuntimeError(f"workload {self.workload} is not deterministic "
                               f"for seed {self.seed}")
        return workloads, perf, Assembler

    @property
    def setup_s(self) -> list[float]:
        return [sum(t) for t in zip(self.import_s, self.gen_s, self.enc_s)]

    def run_once(self, tracer: Tracer | None = None) -> dict | None:
        """Set-up samples, then one timed, checked assembly.

        Returns the repetition's figures, or None when it failed. Only plain
        numbers leave this method, so each repetition's fabric is freed
        before the next one starts and peak memory is one repetition's peak.
        """
        for _ in range(SETUPS_PER_REP):
            self.set_up()
        asm = self.Assembler()
        if tracer is not None:
            _instrument(tracer, asm)
        t0 = _clock()
        try:
            result = asm.assemble(self.reads, self.k)
            t1 = _clock()
            report = self.perf.account(asm.trace, self.perf.calibrated_config())
        except Exception:
            self.failures.append(traceback.format_exc())
            return None
        t2 = _clock()
        problem, recall = self._check(result, asm.trace)
        if problem:
            self.failures.append(problem)
            return None
        rep = {
            "wall_s": t2 - t0,
            "modeled_latency_ns": report.total_latency_ns,
            "modeled_energy_nj": report.total_energy_nj,
            "modeled_subarrays": asm.machine.subarray_count,
            "kmer_recall": recall,
        }
        if tracer is not None:
            rep |= _layer_metrics(tracer, rep["wall_s"], t2 - t1, result, asm.trace, report)
        return rep

    def _check(self, result, trace) -> tuple[str, float]:
        """(problem or "", k-mer recall) for one assembly of these reads."""
        contigs = [c.to_str() for c in result.contigs]
        found = _kmers(contigs, self.k)
        extra = found - self.read_kmers
        if extra:
            return f"{len(extra)} contig {self.k}-mers are not in the reads", 0.0
        recall = len(found) / len(self.read_kmers)
        if self.eulerian and (recall != 1.0 or len(contigs) != 1):
            return (f"Eulerian workload gave {len(contigs)} contigs "
                    f"with k-mer recall {recall}"), recall
        digest = hashlib.sha256("\n".join(trace.export_lines()).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return "operation trace differs between repetitions of the same input", recall
        return "", recall


def _instrument(tracer: Tracer, asm) -> None:
    """Wrap the stage entry points and ISA calls of one assembler instance."""
    for method in ("build_kmer_table", "build_graph", "find_start", "fleury"):
        tracer.wrap(asm, method, f"assembly.{method}")
    m = asm.machine
    for method, name in (("add_cols", "isa.add"), ("add_const_cols", "isa.add"),
                         ("cmp", "isa.cmp"), ("mem_insert", "isa.mem_insert")):
        tracer.wrap(m, method, name)
    tracer.wrap(m, "new_subarray", lambda: f"isa.subarrays.{m.trace.stage}")


def _layer_metrics(tracer: Tracer, wall: float, account_s: float,
                   result, trace, report) -> dict:
    spans = tracer.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for name in ("assembly.build_kmer_table", "assembly.build_graph",
                 "assembly.find_start", "assembly.fleury",
                 "isa.add", "isa.cmp", "isa.mem_insert"):
        agg = spans.get(name, zero)
        out[f"{name}.calls"] = agg["calls"]
        out[f"{name}.s"] = agg["s"]
        out[f"{name}.self_s"] = agg["self_s"]
        out[f"{name}.share"] = agg["s"] / wall
    out["assembly.find_start.rejected"] = sum(
        s.name == "assembly.find_start" and s.error == "NonEulerianError"
        for s in tracer.spans)
    out["assembly.traverse.share"] = tracer.outer_s(
        {"assembly.find_start", "assembly.fleury"}) / wall
    for stage in ("hashmap", "graph", "traverse"):
        out[f"isa.subarrays.{stage}"] = spans.get(f"isa.subarrays.{stage}", zero)["calls"]

    queries, distinct = result.table.total_kmers, result.table.distinct()
    out["assembly.hashmap.queries"] = queries
    out["assembly.hashmap.hit_ratio"] = (queries - distinct) / queries
    out["assembly.hashmap.us_per_query"] = 1e6 * out["assembly.build_kmer_table.s"] / queries
    out["assembly.graph.nodes"] = len(result.graph.nodes)
    out["assembly.graph.edges"] = result.graph.edge_count
    units = sum(len(p.node_ids) - 1 for p in result.paths)
    out["assembly.fleury.edge_units"] = units
    out["assembly.fleury.us_per_edge"] = 1e6 * out["assembly.fleury.s"] / max(units, 1)
    for stage, kind, count in trace.records():
        out[f"trace.{stage}.{kind}"] = count
    for row in report.rows:
        out[f"perf.{row.stage}.modeled_ns"] = row.latency_ns
    out["perf.account.s"] = account_s
    out["sim.events"] = trace.total()
    return out


def _repeat(seconds: float, run_one, min_reps: int) -> int:
    """Call run_one(i) until the next call would overrun `seconds`."""
    deadline = _clock() + seconds
    n = 0
    while True:
        t0 = _clock()
        run_one(n)
        n += 1
        now = _clock()
        if n >= min_reps and now + (now - t0) > deadline:
            return n


def end_to_end(bench: Bench, seconds: float) -> tuple[int, dict]:
    reps = []
    attempted = _repeat(seconds, lambda i: reps.append(bench.run_once()), MIN_REPS)
    reps = [r for r in reps if r is not None]
    if not reps:
        return attempted, {}
    bench.wall_samples = [r["wall_s"] for r in reps]
    # modeled figures repeat exactly (the trace digest check enforces it);
    # set-up takes the fastest sample, see the module docstring
    return attempted, reps[0] | {
        "setup_s": min(bench.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(bench: Bench, seconds: float) -> tuple[int, dict]:
    pairs = []

    def run_pair(i: int) -> None:
        # alternate which side runs first, so neither gets the warmer host
        if i % 2:
            traced = bench.run_once(Tracer())
            pairs.append((bench.run_once(), traced))
        else:
            pairs.append((bench.run_once(), bench.run_once(Tracer())))

    attempted = 2 * _repeat(seconds, run_pair, MIN_REPS - 1)
    pairs = [(p, t) for p, t in pairs if p is not None and t is not None]
    if not pairs:
        return attempted, {}
    traced = [t for _, t in pairs]
    # shares and per-call figures are medians over the traced repetitions,
    # whole-run times the fastest repetition, and the overhead the median
    # difference within a pair, which shares the host's state
    out = {name: statistics.median(t.get(name, 0) for t in traced) for name in traced[0]}
    out["wall_s"] = min(p["wall_s"] for p, _ in pairs)
    out["bench.traced_wall_s"] = min(t["wall_s"] for t in traced)
    out["bench.tracing_overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in pairs)
    out["seqio.generate_s"] = min(bench.gen_s)
    out["encoding.encode_s"] = min(bench.enc_s)
    out["sim.events_per_s"] = out["sim.events"] / out["wall_s"]
    bench.wall_samples = [p["wall_s"] for p, _ in pairs]
    return attempted, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    _use_checkout_sources()
    bench = Bench(args.workload, args.seed)

    measure = per_layer if args.trace else end_to_end
    attempted, values = measure(bench, args.seconds)
    failed = len(bench.failures)
    for text in bench.failures:
        print(text, file=sys.stderr)

    metrics = {}
    if values:
        for m in declared:
            name = m["name"]
            # trace pairs a workload never emits are legitimately zero
            if name not in values and not name.startswith("trace."):
                raise KeyError(f"benchmark computed no value for metric {name}")
            metrics[name] = {"value": values.get(name, 0), "unit": m["unit"]}

    print(json.dumps({"info": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "trace_sha256": bench.digest,
        "genome_len": len(bench.genome),
        "reads": len(bench.raw),
        "distinct_read_kmers": len(bench.read_kmers),
        "queries": sum(max(len(r) - bench.k + 1, 0) for r in bench.raw),
        "wall_s_samples": bench.wall_samples,
        "setup_s_samples": bench.setup_s,
    }}))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
