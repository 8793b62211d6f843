"""Cost accounting, parallelism sweeps, and the committed calibration."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimgasm import trace as tr
from pimgasm.errors import ConfigError
from pimgasm.perf import (
    ClassCost,
    CostConfig,
    account,
    amdahl_runtime,
    calibrated_config,
    sweep_pd,
)
from pimgasm.trace import OpTrace


def make_trace(spec):
    t = OpTrace()
    for stage, kind, n in spec:
        with t.stage_scope(stage):
            t.emit(kind, n)
    return t


NO_LEAK = CostConfig(leakage_base_mw=0.0)


def test_account_prices_a_known_workload():
    t = make_trace([(tr.STAGE_HASHMAP, tr.C_ADD, 1000)])
    rep = account(t, NO_LEAK)
    assert rep.total_latency_ns == pytest.approx(3910.0)
    assert rep.dynamic_energy_nj == pytest.approx(1930.0)
    assert rep.leakage_energy_nj == 0.0
    assert rep.total_energy_nj == pytest.approx(1930.0)
    assert rep.rur == 1.0 and rep.mbr == 0.0


def test_account_single_read_event():
    rep = account(make_trace([(tr.STAGE_IO, tr.R, 1)]), NO_LEAK)
    assert rep.total_latency_ns == pytest.approx(3.91)
    assert rep.dynamic_energy_nj == pytest.approx(0.78)
    assert rep.rur == 0.0  # array access, not compute


def test_account_empty_trace():
    rep = account(OpTrace(), CostConfig())
    assert rep.total_latency_ns == 0.0
    assert rep.total_energy_nj == 0.0
    assert rep.avg_power_w == 0.0
    assert rep.mbr == 0.0 and rep.rur == 0.0
    assert rep.rows == []


def test_account_is_additive_over_traces():
    spec1 = [(tr.STAGE_HASHMAP, tr.W, 500), (tr.STAGE_GRAPH, tr.R, 20)]
    spec2 = [(tr.STAGE_HASHMAP, tr.W, 100), (tr.STAGE_IO, tr.XFER, 64)]
    cfg = CostConfig()
    merged = account(make_trace(spec1 + spec2), cfg)
    r1, r2 = account(make_trace(spec1), cfg), account(make_trace(spec2), cfg)
    assert merged.total_latency_ns == pytest.approx(r1.total_latency_ns + r2.total_latency_ns)
    assert merged.dynamic_energy_nj == pytest.approx(r1.dynamic_energy_nj + r2.dynamic_energy_nj)


def test_stage_rows_and_fractions():
    t = make_trace([
        (tr.STAGE_HASHMAP, tr.C_ADD, 300),
        (tr.STAGE_TRAVERSE, tr.C_ADD, 100),
    ])
    rep = account(t, CostConfig())
    assert [r.stage for r in rep.rows] == [tr.STAGE_HASHMAP, tr.STAGE_TRAVERSE]
    assert rep.stage_fraction(tr.STAGE_HASHMAP) == pytest.approx(0.75)
    assert rep.stage_fraction(tr.STAGE_TRAVERSE) == pytest.approx(0.25)
    assert rep.stage_fraction(tr.STAGE_IO) == 0.0
    assert rep.rows[0].cycles == {tr.C_ADD: 300}


def test_leakage_burns_power_for_the_whole_runtime():
    t = make_trace([(tr.STAGE_GRAPH, tr.W, 1000)])
    rep = account(t, CostConfig())
    assert rep.leakage_energy_nj == pytest.approx(0.586 * rep.total_latency_ns)
    assert rep.avg_power_w == pytest.approx(
        rep.dynamic_energy_nj / rep.total_latency_ns + 0.586
    )
    assert rep.rows[0].avg_power_w == pytest.approx(
        rep.rows[0].energy_nj / rep.rows[0].latency_ns + 0.586
    )


def test_memory_wall_metrics_extremes():
    cfg = CostConfig()
    all_xfer = account(make_trace([(tr.STAGE_IO, tr.XFER, 100)]), cfg)
    assert (all_xfer.mbr, all_xfer.rur) == (1.0, 0.0)
    compute = account(make_trace([(tr.STAGE_GRAPH, tr.C_AND3, 9)]), cfg)
    assert (compute.mbr, compute.rur) == (0.0, 1.0)
    mixed = account(
        make_trace([
            (tr.STAGE_IO, tr.XFER, 100),
            (tr.STAGE_GRAPH, tr.C_ADD, 50),
            (tr.STAGE_GRAPH, tr.W, 50),
        ]),
        cfg,
    )
    assert 0.0 < mixed.mbr and 0.0 < mixed.rur
    assert mixed.mbr + mixed.rur <= 1.0


def test_config_validation():
    cfg = CostConfig()
    with pytest.raises(ConfigError):
        cfg.cost("BOGUS")
    with pytest.raises(ConfigError):
        CostConfig(classes={})
    with pytest.raises(ConfigError):
        CostConfig(parallel_fraction=1.5)
    with pytest.raises(ConfigError):
        CostConfig(leakage_base_mw=-1.0)
    with pytest.raises(ConfigError):
        ClassCost(-1.0, 0.0)
    with pytest.raises(ConfigError):
        CostConfig.from_dict({"bogus_key": 1.0})
    with pytest.raises(ConfigError, match="unknown cost-config key 'penalty_factor'"):
        CostConfig.from_dict({"penalty_factor": 0.0})
    with pytest.raises(ConfigError):
        CostConfig.from_dict({"r_latency_ns": True})


def test_config_dict_round_trip():
    cfg = CostConfig.from_dict({"r_latency_ns": 5.0, "leakage_base_mw": 100.0})
    assert cfg.cost(tr.R).latency_ns == 5.0
    assert cfg.cost(tr.R).energy_nj == 0.78  # untouched default
    assert cfg.leakage_base_mw == 100.0
    assert CostConfig.from_dict(cfg.to_dict()) == cfg


def test_config_json_round_trip(tmp_path):
    cfg = CostConfig.from_dict({"w_energy_nj": 0.5, "parallel_fraction": 0.25})
    path = tmp_path / "cost.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    assert CostConfig.from_json(path) == cfg
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]\n")
    with pytest.raises(ConfigError):
        CostConfig.from_json(bad)
    bad.write_text(">r\nACGT\n")
    with pytest.raises(ConfigError, match="not valid JSON"):
        CostConfig.from_json(bad)


def test_amdahl_runtime():
    assert amdahl_runtime(100.0, 0.0, 8) == 100.0
    assert amdahl_runtime(100.0, 1.0, 8) == pytest.approx(12.5)
    assert amdahl_runtime(100.0, 0.5, 2) == pytest.approx(75.0)


WORK = make_trace([
    (tr.STAGE_HASHMAP, tr.C_ADD, 10_000),
    (tr.STAGE_GRAPH, tr.W, 2_000),
    (tr.STAGE_IO, tr.XFER, 4_096),
])


def test_sweep_pd_one_matches_the_serial_report():
    cfg = CostConfig()
    rep = account(WORK, cfg)
    point = sweep_pd(WORK, cfg, [1]).points[0]
    assert point.pd == 1
    assert point.runtime_ns == pytest.approx(rep.total_latency_ns)
    assert point.avg_power_w == pytest.approx(rep.avg_power_w)
    assert point.energy_nj == pytest.approx(rep.total_energy_nj)


def test_sweep_pd_validation():
    cfg = CostConfig()
    with pytest.raises(ConfigError):
        sweep_pd(WORK, cfg, [])
    with pytest.raises(ConfigError):
        sweep_pd(WORK, cfg, [0])
    with pytest.raises(ConfigError):
        sweep_pd(WORK, cfg, [1.5])


def test_sweep_zero_parallel_fraction_keeps_runtime_flat():
    cfg = CostConfig(parallel_fraction=0.0)
    pts = sweep_pd(WORK, cfg, [1, 2, 8]).points
    assert pts[0].runtime_ns == pts[1].runtime_ns == pts[2].runtime_ns


@given(
    frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    per_group=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
    base=st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_sweep_monotonicity_for_any_nonnegative_config(frac, per_group, base):
    cfg = CostConfig(
        parallel_fraction=frac,
        leakage_per_group_mw=per_group,
        leakage_base_mw=base,
    )
    pts = sweep_pd(WORK, cfg, list(range(1, 9))).points
    for a, b in zip(pts, pts[1:]):
        assert b.runtime_ns <= a.runtime_ns + 1e-9
        assert b.avg_power_w >= a.avg_power_w - 1e-9


def test_calibrated_config_is_loadable_and_sane():
    cfg = calibrated_config()
    assert isinstance(cfg, CostConfig)
    assert 0.0 < cfg.parallel_fraction <= 1.0
    assert cfg.leakage_per_group_mw >= 0.0


def test_report_serialization(tmp_path):
    rep = account(WORK, CostConfig())
    parsed = json.loads(rep.to_json(tmp_path / "r.json"))
    assert parsed["schema_version"] == 2
    assert "pd" not in parsed
    assert parsed["total_latency_ns"] == rep.total_latency_ns
    assert {row["stage"] for row in parsed["stages"]} == {
        tr.STAGE_HASHMAP, tr.STAGE_GRAPH, tr.STAGE_IO,
    }

