"""Command-line surface: assemble reads, generate workloads, sweep, verify.

Exit codes: 0 success, 1 self-check failure, 2 input parse error (a read
file that is missing, unreadable or malformed), 3 capacity error,
4 configuration error (a cost config that is missing, unreadable or
invalid among them), 5 output error (an output path that cannot be written;
assemble and sweep check their output directories before assembling),
6 internal error (any other exception: a bug, reported with its
traceback). Only code 6 prints a traceback.
"""

from __future__ import annotations

import argparse
import errno
import logging
import os
import random
import sys
import traceback

from . import perf, seqio
from .assembly import Assembler
from .encoding import EncodedSeq
from .errors import (
    CapacityError,
    ConfigError,
    ParseError,
    ShapeError,
    SimError,
    SizeError,
)
from .fabric import AND3_CFG, MAJ_CFG, OR3_CFG, XOR3_CFG, RowLayout, SubArray
from .trace import OpTrace

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_CONFIG = 4
EXIT_OUTPUT = 5
EXIT_INTERNAL = 6

# First match wins. Input readers turn their OSErrors into ParseError or
# ConfigError, so an OSError that reaches main failed to write an output.
EXIT_CODES = [
    (ParseError, EXIT_PARSE),
    (CapacityError, EXIT_CAPACITY),
    ((ConfigError, SizeError, ShapeError), EXIT_CONFIG),
    (SimError, EXIT_SELFCHECK),
    (OSError, EXIT_OUTPUT),
]


def _check_run(args, k_list: list[int]) -> None:
    """Reject run settings that no assembly can use (exit code 4)."""
    for k in k_list:
        if not 2 <= k <= 128:
            raise ConfigError(f"k must lie in [2, 128], got {k}")
    if args.rows < 16 or args.cols < 8:
        raise ConfigError("sub-array geometry too small to be useful")


def _check_outputs(*paths: str | None) -> None:
    """Raise OSError (exit code 5) unless the directory of every given
    output path exists and is writable, so that a bad path fails before
    the assembly rather than after it."""
    for path in paths:
        if path is None:
            continue
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise FileNotFoundError(errno.ENOENT, "no output directory", directory)
        if not os.access(directory, os.W_OK):
            raise PermissionError(errno.EACCES, "output directory not writable", directory)


def _load_cost_config(args) -> perf.CostConfig:
    if args.cost_config:
        return perf.CostConfig.from_json(args.cost_config)
    return perf.calibrated_config()


def _add_seed_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG / hash seed")
    p.add_argument("--out", default="pimgasm", help="output path prefix")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cost-config", default=None, help="JSON cost table (default: packaged calibration)")
    p.add_argument("--rows", type=int, default=1024, help="sub-array rows")
    p.add_argument("--cols", type=int, default=256, help="sub-array bit-line columns")
    p.add_argument("--k", type=int, default=25, help="k-mer length")
    p.add_argument("--simplify", action="store_true", help="merge unbranched graph chains")
    _add_seed_out(p)


def _read_reads(path: str) -> list[EncodedSeq]:
    """The encoded reads of a read file. Reads are split at each non-ACGT
    symbol; the symbols dropped are reported once, as a `warning:` line."""
    reads, dropped = seqio.encode_records(seqio.read_sequences(path))
    if dropped:
        print(
            f"warning: dropped {dropped} non-ACGT symbols (reads split at each)", file=sys.stderr
        )
    return reads


def cmd_assemble(args) -> int:
    _check_run(args, [args.k])
    cfg = _load_cost_config(args)
    reads = _read_reads(args.input)
    _check_outputs(args.out, args.dump_kmers, args.dump_graph)
    asm = Assembler(
        rows=args.rows, cols=args.cols, seed=args.seed, simplify=args.simplify
    )
    result = asm.assemble(reads, args.k)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    contigs = [(f"contig_{i}", c.to_str()) for i, c in enumerate(result.contigs)]
    seqio.write_fasta(f"{args.out}.contigs.fasta", contigs)
    report = perf.account(asm.trace, cfg)
    report.to_json(f"{args.out}.report.json")
    asm.trace.write_csv(f"{args.out}.trace.csv")
    if args.dump_kmers:
        result.table.dump_tsv(args.dump_kmers)
    if args.dump_graph:
        result.graph.dump_tsv(args.dump_graph)
    print(
        f"{len(contigs)} contig(s), {sum(len(c) for _, c in contigs)} bases, "
        f"modeled {report.total_latency_ns:.0f} ns"
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.length < args.read_len:
        raise ConfigError("genome length must be >= read length")
    rng = random.Random(args.seed)
    if args.distinct_window:
        genome = seqio.distinct_window_genome(args.length, args.distinct_window, rng)
    else:
        genome = seqio.random_genome(args.length, rng)
    if args.coverage is not None:
        reads = seqio.sample_reads(genome, args.read_len, args.coverage, rng)
    else:
        reads = seqio.tile_reads(genome, args.read_len, args.stride)
    seqio.write_fasta(f"{args.out}.genome.fasta", [("genome", genome)])
    seqio.write_fasta(
        f"{args.out}.reads.fasta",
        [(f"read_{i}", r) for i, r in enumerate(reads)],
    )
    print(f"{len(reads)} reads of {args.read_len} bases over a {args.length}-base genome")
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        vals = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc
    if not vals:
        raise ConfigError("empty list")
    return vals


def cmd_sweep(args) -> int:
    k_list = _int_list(args.k_list) if args.k_list else [args.k]
    _check_run(args, k_list)
    cfg = _load_cost_config(args)
    pd_list = _int_list(args.pd_list)
    reads = _read_reads(args.input)
    _check_outputs(args.out)
    lines = ["k,pd,runtime_ns,avg_power_w,energy_nj"]
    for k in k_list:
        asm = Assembler(
            rows=args.rows, cols=args.cols, seed=args.seed, simplify=args.simplify
        )
        for w in asm.assemble(reads, k).warnings:
            print(f"warning: {w}", file=sys.stderr)
        res = perf.sweep_pd(asm.trace, cfg, pd_list)
        for p in res.points:
            lines.append(f"{k},{p.pd},{p.runtime_ns!r},{p.avg_power_w!r},{p.energy_nj!r}")
    path = f"{args.out}.sweep.csv"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} sweep rows to {path}")
    return EXIT_OK


def cmd_truthtable(args) -> int:
    """Print every compute sense config against all 3-bit inputs.

    The printed outputs come from actual array activations; each row is
    checked against the arithmetic definition (cell-count thresholds and
    parity), and any disagreement fails the command.
    """
    layout = RowLayout.default(16)
    sub = SubArray(rows=16, cols=8, layout=layout, op_trace=OpTrace(), subarray_id=0)
    configs = [
        ("AND3", AND3_CFG),
        ("MAJ", MAJ_CFG),
        ("OR3", OR3_CFG),
        ("XOR3", XOR3_CFG),
    ]
    fields = ("or3", "maj", "and3", "xor3", "nor3", "min3", "nand3")
    print("config a b c " + " ".join(fields))
    bad = 0
    for name, cfg in configs:
        for pattern in range(8):
            a, b, c = (pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1
            sub.write_cell(0, 0, a)
            sub.write_cell(1, 0, b)
            sub.write_cell(2, 0, c)
            out = sub.activate((0, 1, 2), cfg)
            got = {f: out.bit(f, 0) for f in fields}
            s = a + b + c
            want = {
                "or3": int(s >= 1), "maj": int(s >= 2), "and3": int(s == 3),
                "xor3": s & 1, "nor3": int(s < 1), "min3": int(s < 2),
                "nand3": int(s != 3),
            }
            mark = ""
            if got != want:
                bad += 1
                mark = "  MISMATCH"
            print(
                f"{name} {a} {b} {c} " + " ".join(str(got[f]) for f in fields) + mark
            )
    if bad:
        print(f"self-check: FAILED ({bad} mismatching rows)", file=sys.stderr)
        return EXIT_SELFCHECK
    print("self-check: OK (32 rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pimgasm",
        description="In-memory genome assembly simulator and cost model",
    )
    ap.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", help="assemble reads into contigs")
    p.add_argument("input", help="FASTA/FASTQ reads")
    _add_common(p)
    p.add_argument("--dump-kmers", default=None, help="write the k-mer table as TSV")
    p.add_argument("--dump-graph", default=None, help="write the edge list as TSV")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("gen", help="generate a synthetic genome and reads")
    _add_seed_out(p)
    p.add_argument("--length", type=int, default=10_000, help="genome length")
    p.add_argument("--read-len", type=int, default=100, help="read length")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--stride", type=int, default=1, help="tiling stride")
    mode.add_argument("--coverage", type=float, default=None, help="random coverage depth")
    p.add_argument(
        "--distinct-window", type=int, default=None,
        help="require all substrings of this length to be distinct",
    )
    p.set_defaults(func=cmd_gen)

    # no abbreviated flags, so a `--pd` is refused, not read as `--pd-list`
    p = sub.add_parser(
        "sweep", allow_abbrev=False, help="price a workload across k and parallelism degree"
    )
    p.add_argument("input", help="FASTA/FASTQ reads")
    _add_common(p)
    p.add_argument("--pd-list", default="1,2,3,4,5,6,7,8", help="comma-separated degrees")
    p.add_argument("--k-list", default=None, help="comma-separated k values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("truthtable", help="dump and self-check the sense logic")
    p.set_defaults(func=cmd_truthtable)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (SimError, OSError) as exc:
        code = next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))
        label = "self-check failure" if code == EXIT_SELFCHECK else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    except Exception as exc:  # a bug: keep its traceback for the report
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
