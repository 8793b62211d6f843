"""End-to-end command-line runs: files in, files out, exit codes."""

import dataclasses
import json
import logging
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pimgasm.assembly import Assembler
from pimgasm.cli import main
from pimgasm.fabric import SubArray
from pimgasm.seqio import encode_records, read_sequences

SMALL = ["--rows", "128", "--cols", "64"]


def run(argv):
    return main([str(a) for a in argv])


def test_gen_stride_mode(tmp_path, capsys):
    out = tmp_path / "g"
    assert run(["gen", "--length", 1000, "--read-len", 100, "--stride", 1,
                "--out", out]) == 0
    assert "901 reads" in capsys.readouterr().out
    genome = read_sequences(f"{out}.genome.fasta")
    assert len(genome) == 1 and len(genome[0][1]) == 1000
    reads = read_sequences(f"{out}.reads.fasta")
    assert len(reads) == 901
    assert all(len(seq) == 100 for _, seq in reads)
    assert reads[0][1] == genome[0][1][:100]


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gen", "--length", 400, "--read-len", 50, "--seed", 7,
                    "--out", out]) == 0
    assert (tmp_path / "a.reads.fasta").read_bytes() == (tmp_path / "b.reads.fasta").read_bytes()
    assert (tmp_path / "a.genome.fasta").read_bytes() == (tmp_path / "b.genome.fasta").read_bytes()


def test_gen_coverage_mode(tmp_path):
    out = tmp_path / "c"
    assert run(["gen", "--length", 1000, "--read-len", 100, "--coverage", 3,
                "--out", out]) == 0
    assert len(read_sequences(f"{out}.reads.fasta")) == 30


def test_gen_distinct_window(tmp_path):
    out = tmp_path / "d"
    assert run(["gen", "--length", 300, "--read-len", 50, "--distinct-window", 12,
                "--out", out]) == 0
    genome = read_sequences(f"{out}.genome.fasta")[0][1]
    windows = [genome[i : i + 12] for i in range(len(genome) - 11)]
    assert len(set(windows)) == len(windows)


def test_gen_rejects_short_genome(tmp_path):
    assert run(["gen", "--length", 10, "--read-len", 100,
                "--out", tmp_path / "x"]) == 4


def test_assemble_small_input(tmp_path, capsys):
    reads = tmp_path / "reads.fasta"
    reads.write_text(">r0\nCGTGTGCA\n")
    out = tmp_path / "asm"
    code = run(["assemble", reads, "--k", 5, *SMALL, "--out", out,
                "--dump-kmers", tmp_path / "k.tsv",
                "--dump-graph", tmp_path / "g.tsv"])
    assert code == 0
    assert "1 contig(s), 8 bases" in capsys.readouterr().out
    assert read_sequences(f"{out}.contigs.fasta") == [("contig_0", "CGTGTGCA")]
    report = json.loads((tmp_path / "asm.report.json").read_text())
    assert report["schema_version"] == 2
    assert "pd" not in report
    assert report["total_latency_ns"] > 0
    trace_lines = (tmp_path / "asm.trace.csv").read_text().splitlines()
    assert trace_lines[0] == "stage,kind,count"
    assert len(trace_lines) > 1
    assert (tmp_path / "k.tsv").read_text().startswith("kmer\tfrequency\n")
    assert (tmp_path / "g.tsv").read_text().startswith("node1\tnode2\tmult\n")


def test_assemble_dumps_a_count_past_255_in_full(tmp_path, capsys):
    # AAA occurs 300 times in a 302-base poly-A read: the counters widen to
    # 9 bits, so the dump holds the full count and the contig the whole
    # read, with no warning. 4,097 A's at 64 x 16 and k = 2 count AA 4,096
    # times, 13 bits, which leaves no key row: a capacity error, exit 3.
    reads = tmp_path / "reads.fasta"
    reads.write_text(">r\n" + "A" * 302 + "\n")
    out, dump = tmp_path / "asm", tmp_path / "k.tsv"
    assert run(["assemble", reads, "--k", 3, *SMALL, "--out", out, "--dump-kmers", dump]) == 0
    assert dump.read_text() == "kmer\tfrequency\nAAA\t300\n"
    assert read_sequences(f"{out}.contigs.fasta") == [("contig_0", "A" * 302)]
    assert "warning:" not in capsys.readouterr().err
    reads.write_text(">r\n" + "A" * 4097 + "\n")
    assert run(["assemble", reads, "--k", 2, "--rows", 64, "--cols", 16, "--out", out]) == 3
    assert "13-bit counters" in capsys.readouterr().err


def test_assemble_is_reproducible(tmp_path):
    reads = tmp_path / "reads.fasta"
    reads.write_text(">a\nTTAGGCATCGCCGGAATCCGAT\n>b\nGGAATCCGATTAGG\n")
    for out in ("one", "two"):
        assert run(["assemble", reads, "--k", 6, *SMALL,
                    "--out", tmp_path / out]) == 0
    for suffix in (".contigs.fasta", ".report.json", ".trace.csv"):
        assert (tmp_path / f"one{suffix}").read_bytes() == \
            (tmp_path / f"two{suffix}").read_bytes()


def test_assemble_empty_input(tmp_path, capsys):
    reads = tmp_path / "empty.fasta"
    reads.write_text("")
    out = tmp_path / "asm"
    assert run(["assemble", reads, "--k", 5, *SMALL, "--out", out]) == 0
    assert "0 contig(s)" in capsys.readouterr().out
    assert read_sequences(f"{out}.contigs.fasta") == []


def test_assemble_fastq_with_degrade_warning(tmp_path, capsys, caplog):
    genome = "TTAGGCATCGCCGGAATCCGATAGGCTT"
    rows = []
    for i in range(len(genome) - 9):
        seq = genome[i : i + 10]
        rows.append(f"@r{i}\n{seq}\n+\n{'I' * len(seq)}\n")
    reads = tmp_path / "reads.fastq"
    reads.write_text("".join(rows))
    out = tmp_path / "asm"
    assert run(["assemble", reads, "--k", 6, *SMALL, "--out", out]) == 0
    err = capsys.readouterr().err
    assert "warning:" in err and "unit multiplicities" in err
    assert read_sequences(f"{out}.contigs.fasta") == [("contig_0", genome)]
    # one stderr line per warning, from the command; the assembler returns
    # its warnings and logs none, so none is reported twice
    records, _ = encode_records(read_sequences(reads))
    warnings = Assembler(rows=128, cols=64).assemble(records, 6).warnings
    assert warnings
    assert err.splitlines() == [f"warning: {w}" for w in warnings]
    assert run(["sweep", reads, "--k-list", 6, *SMALL, "--out", out]) == 0
    assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in warnings]
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


@pytest.mark.parametrize("command", [["assemble", "--k", 5], ["sweep", "--k-list", 5]])
def test_dropped_symbols_are_reported_once(command, tmp_path, capsys, caplog):
    # the N splits the read in two and is dropped; both commands say so in
    # one `warning:` line before the assembly's own warnings, and log nothing
    reads = tmp_path / "reads.fasta"
    reads.write_text(">a\nTTAGGCATCGCCNGGAATCCGAT\n")
    records, dropped = encode_records(read_sequences(reads))
    assert dropped == 1
    warnings = Assembler(rows=128, cols=64).assemble(records, 5).warnings
    assert run([command[0], reads, *command[1:], *SMALL, "--out", tmp_path / "x"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: dropped 1 non-ACGT symbols (reads split at each)",
        *(f"warning: {w}" for w in warnings),
    ]
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_assemble_exit_codes(tmp_path):
    bad = tmp_path / "bad.fasta"
    bad.write_text("XYZZY\n")
    ok = tmp_path / "ok.fasta"
    ok.write_text(">r\n" + "ACGT" * 15 + "\n")

    assert run(["assemble", bad, "--out", tmp_path / "o", *SMALL]) == 2
    assert run(["assemble", tmp_path / "missing.fasta", "--out", tmp_path / "o",
                *SMALL]) == 2
    assert run(["assemble", ok, "--k", 1, "--out", tmp_path / "o", *SMALL]) == 4
    # 40-base keys need 80 columns
    assert run(["assemble", ok, "--k", 40, "--cols", 64, "--rows", 128,
                "--out", tmp_path / "o"]) == 3


@pytest.mark.parametrize("text, message", [
    ("ACGT\n>late\nACGT\n", "not FASTA or FASTQ (leading 'A')"),
    ("@r1\nACGT\n+\n!!!!\nr2\nTT\n+\n!!\n", ":5: expected '@' header"),
], ids=["fasta-data-before-any-header", "fastq-header-without-at"])
def test_malformed_reads_exit_2(text, message, tmp_path, capsys):
    # sequence data before the first FASTA header is caught by the format
    # sniff, as the text then starts with neither '>' nor '@'
    reads = tmp_path / "reads.txt"
    reads.write_text(text)
    assert run(["assemble", reads, "--k", 3, *SMALL, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("reads_bytes, cost_bytes, code", [
    (b">r\n\xff\xfeACGT\n", None, 2),           # parse error
    (b">r\nCGTGTGCA\n", b">r\nCGTGTGCA\n", 4),  # configuration error
], ids=["reads-not-utf8", "cost-config-not-json"])
def test_assemble_maps_undecodable_inputs_to_exit_codes(
    reads_bytes, cost_bytes, code, tmp_path, capsys
):
    reads = tmp_path / "reads.fasta"
    reads.write_bytes(reads_bytes)
    argv = ["assemble", reads, "--k", 5, *SMALL, "--out", tmp_path / "o"]
    if cost_bytes is not None:
        cfg = tmp_path / "cost.json"
        cfg.write_bytes(cost_bytes)
        argv += ["--cost-config", cfg]
    assert run(argv) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, late", [
    (["assemble", "{dir}", "--out", "{dir}/o"], 2, []),
    (["assemble", "{ok}", "--cost-config", "{dir}/none.json", "--out", "{dir}/o"], 4, []),
    (["assemble", "{ok}", "--out", "{dir}/o"], 4, ["--rows", "8"]),
    (["assemble", "{ok}", "--out", "{dir}/none/o"], 5, []),
    (["assemble", "{ok}", "--out", "{ok}/o"], 5, []),
    (["assemble", "{ok}", "--out", "{dir}/locked/o"], 5, []),
    (["assemble", "{ok}", "--out", "{dir}/o", "--dump-kmers", "{dir}/none/k.tsv"], 5, []),
    (["assemble", "{ok}", "--out", "{dir}/o", "--dump-graph", "{dir}/none/g.tsv"], 5, []),
    (["sweep", "{ok}", "--k-list", "5", "--out", "{dir}/none/o"], 5, []),
    (["sweep", "{ok}", "--k-list", "5,6", "--out", "{ok}/o"], 5, []),
    (["gen", "--length", "200", "--read-len", "50", "--out", "{dir}/none/o"], 5, []),
], ids=["input-is-a-directory", "cost-config-missing", "geometry-too-small",
        "assemble-out-dir-missing", "assemble-out-dir-is-a-file", "out-dir-not-writable",
        "dump-kmers-dir-missing", "dump-graph-dir-missing", "sweep-out-dir-missing",
        "sweep-out-dir-is-a-file", "gen-out-dir-missing"])
def test_file_failures_map_to_exit_codes(argv, code, late, tmp_path, capsys, monkeypatch):
    # every one of these fails before any assembly starts
    def assemble(self, reads, k):
        raise AssertionError("assembled before the failure")

    monkeypatch.setattr(Assembler, "assemble", assemble)
    # tests may run as root, which chmod cannot keep out, so `locked`
    # refuses writes through os.access instead
    locked = tmp_path / "locked"
    locked.mkdir()
    access = os.access
    monkeypatch.setattr(
        os, "access", lambda path, mode: access(path, mode) and Path(path) != locked
    )
    ok = tmp_path / "ok.fasta"
    ok.write_text(">r\nCGTGTGCA\n")
    argv = [a.format(dir=tmp_path, ok=ok) for a in argv]
    if argv[0] != "gen":
        argv += ["--k", "5", *SMALL]
    argv += late  # after SMALL: argparse keeps a flag's last value
    assert run(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_a_contig_set_that_loses_k_mers_exits_1(tmp_path, capsys, monkeypatch):
    # the walk drops the second read's trail: the coverage self-check fails
    walk = Assembler.fleury
    monkeypatch.setattr(Assembler, "fleury", lambda self, g: walk(self, g)[:1])
    reads = tmp_path / "r.fasta"
    reads.write_text(">a\nACGTT\n>b\nGAAAG\n")
    assert run(["assemble", reads, "--k", 3, *SMALL, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("self-check failure: ") and "contigs miss 3 of" in err


def test_a_bug_exits_6_with_its_traceback(tmp_path, capsys, monkeypatch):
    # an exception outside SimError and OSError is no self-check failure
    def assemble(self, reads, k):
        raise RuntimeError("stub bug")

    monkeypatch.setattr(Assembler, "assemble", assemble)
    ok = tmp_path / "ok.fasta"
    ok.write_text(">r\nCGTGTGCA\n")
    assert run(["assemble", ok, "--k", 5, *SMALL, "--out", tmp_path / "o"]) == 6
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: stub bug" in err
    assert err.rstrip().endswith("internal error: RuntimeError('stub bug')")


@given(head=st.sampled_from([b">", b"@", b""]), body=st.binary(max_size=120))
# capsys is drained by every example, so sharing it across examples is safe
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_assemble_takes_any_bytes_with_exit_0_or_2(head, body, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        reads = Path(tmp) / "reads.fa"
        reads.write_bytes(head + body)
        assert run(["assemble", reads, "--k", 3, *SMALL, "--out", Path(tmp) / "o"]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_assemble_custom_cost_config(tmp_path):
    from pimgasm.perf import CostConfig

    reads = tmp_path / "reads.fasta"
    reads.write_text(">r\nCGTGTGCA\n")
    cfg = tmp_path / "cost.json"
    with open(cfg, "w") as fh:
        json.dump(CostConfig().to_dict(), fh)
    out = tmp_path / "asm"
    assert run(["assemble", reads, "--k", 5, *SMALL, "--cost-config", cfg,
                "--out", out]) == 0

    cfg.write_text('{"bogus": 1}\n')
    assert run(["assemble", reads, "--k", 5, *SMALL, "--cost-config", cfg,
                "--out", out]) == 4


def test_sweep_csv(tmp_path):
    reads = tmp_path / "reads.fasta"
    reads.write_text(">a\nTTAGGCATCGCCGGAATCCGAT\n")
    out = tmp_path / "s"
    assert run(["sweep", reads, *SMALL, "--k-list", "5,6",
                "--pd-list", "1,2,4", "--out", out]) == 0
    lines = (tmp_path / "s.sweep.csv").read_text().splitlines()
    assert lines[0] == "k,pd,runtime_ns,avg_power_w,energy_nj"
    assert len(lines) == 7
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["5", "5", "5", "6", "6", "6"]
    for k_rows in (rows[:3], rows[3:]):
        runtimes = [float(r[2]) for r in k_rows]
        powers = [float(r[3]) for r in k_rows]
        assert runtimes == sorted(runtimes, reverse=True)
        assert powers == sorted(powers)


def test_sweep_rejects_bad_lists(tmp_path):
    reads = tmp_path / "reads.fasta"
    reads.write_text(">a\nCGTGTGCA\n")
    assert run(["sweep", reads, *SMALL, "--pd-list", "1,x",
                "--out", tmp_path / "s"]) == 4
    assert run(["sweep", reads, *SMALL, "--pd-list", ",",
                "--out", tmp_path / "s"]) == 4


def test_sweep_checks_every_k_like_assemble(tmp_path):
    reads = tmp_path / "reads.fasta"
    reads.write_text(">a\nCGTGTGCA\n")
    for k in (200, 129, 1):
        assert run(["assemble", reads, *SMALL, "--k", k, "--out", tmp_path / "a"]) == 4
        assert run(["sweep", reads, *SMALL, "--k-list", f"5,{k}",
                    "--out", tmp_path / "s"]) == 4


def test_sweep_takes_no_pd(tmp_path):
    # sweep prices every --pd-list value, so a --pd would be read by
    # nothing; nor is it taken as an abbreviation of --pd-list
    reads = tmp_path / "reads.fasta"
    reads.write_text(">a\nCGTGTGCA\n")
    argv = ["sweep", reads, *SMALL, "--k-list", 5, "--out", tmp_path / "s"]
    assert run(argv) == 0
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--pd", 1])
    assert exc.value.code == 2


def test_assemble_takes_no_pd(tmp_path):
    # the report prices the serial single-group run; only sweep prices pd
    reads = tmp_path / "reads.fasta"
    reads.write_text(">a\nCGTGTGCA\n")
    with pytest.raises(SystemExit) as exc:
        run(["assemble", reads, *SMALL, "--k", 5, "--pd", 1, "--out", tmp_path / "a"])
    assert exc.value.code == 2
    assert not (tmp_path / "a.report.json").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--k", "999"],
    ["gen", "--pd", "0"],
    ["gen", "--rows", "1"],
    ["gen", "--cost-config", "nope"],
    ["truthtable", "--pd", "0"],
    ["truthtable", "--seed", "1"],
    ["truthtable", "--out", "x"],
])
def test_gen_and_truthtable_reject_flags_they_never_read(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a gen that ran would write its outputs here
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_truthtable_self_check(capsys):
    assert main(["truthtable"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("config a b c ")
    assert len([ln for ln in lines if ln.startswith(("AND3", "MAJ", "OR3", "XOR3"))]) == 32
    assert lines[-1] == "self-check: OK (32 rows)"
    assert "MISMATCH" not in out


def test_truthtable_detects_injected_fault(capsys, monkeypatch):
    # a drifted threshold makes the majority amp trip at one 1-cell, not two
    sense = SubArray.activate

    def drifted(sub, rows, cfg):
        out = sense(sub, rows, cfg)
        return dataclasses.replace(out, maj=out.or3, min3=out.nor3)

    monkeypatch.setattr(SubArray, "activate", drifted)
    assert main(["truthtable"]) == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.err
    assert "MISMATCH" in captured.out
