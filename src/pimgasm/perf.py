"""Latency, energy, and power accounting over operation traces.

Every trace event class carries a (latency ns, energy nJ) cost; a report
sums them per pipeline stage, adds leakage (power x time), and derives the
transfer-bound and compute-utilization ratios. Parallelism is modeled as
an Amdahl split: a configurable fraction of the single-group runtime
shrinks with the group count while leakage power grows linearly with it.
All math is plain float arithmetic on aggregated counts, so identical
traces and configs produce bit-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import trace as tr
from .errors import ConfigError

SCHEMA_VERSION = 2

# compute-busy classes for the utilization ratio; R/W are array accesses
# and XFER is host traffic, so the three pools never overlap
_COMPUTE_KINDS = (tr.C_AND3, tr.C_ADD, tr.DPU)


@dataclass(frozen=True)
class ClassCost:
    latency_ns: float
    energy_nj: float

    def __post_init__(self):
        if self.latency_ns < 0 or self.energy_nj < 0:
            raise ConfigError("event costs must be non-negative")


# flat key stem -> event class, as `<stem>_latency_ns` and `<stem>_energy_nj`
_CLASS_KEYS = {
    "r": tr.R,
    "w": tr.W,
    "c_and3": tr.C_AND3,
    "c_add": tr.C_ADD,
    "dpu": tr.DPU,
    "xfer": tr.XFER,
}


@dataclass(frozen=True)
class CostConfig:
    """Per-class costs plus leakage and parallelism.

    XFER costs are per byte; the stock values price a 64-byte burst at
    1 ns and 0.1 nJ. leakage_base_mw burns whenever the chip is on;
    leakage_per_group_mw is added per active sub-array group, and
    parallel_fraction is the Amdahl share that shrinks with the group
    count. Every field is read by account or sweep_pd; from_dict rejects
    any other key.
    """

    classes: dict[str, ClassCost] = field(default_factory=lambda: {
        tr.R: ClassCost(3.91, 0.78),
        tr.W: ClassCost(4.59, 0.69),
        tr.C_AND3: ClassCost(3.91, 0.85),
        tr.C_ADD: ClassCost(3.91, 1.93),
        tr.DPU: ClassCost(0.05, 0.01),
        tr.XFER: ClassCost(1.0 / 64.0, 0.1 / 64.0),
    })
    leakage_base_mw: float = 586.0
    leakage_per_group_mw: float = 0.0
    parallel_fraction: float = 16.0 / 21.0

    def __post_init__(self):
        missing = [k for k in tr.KINDS if k not in self.classes]
        if missing:
            raise ConfigError(f"missing cost classes: {missing}")
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise ConfigError("parallel_fraction must lie in [0, 1]")
        if self.leakage_base_mw < 0 or self.leakage_per_group_mw < 0:
            raise ConfigError("leakage must be non-negative")

    def cost(self, kind: str) -> ClassCost:
        try:
            return self.classes[kind]
        except KeyError:
            raise ConfigError(f"unknown event class {kind!r}") from None

    def leakage_w(self, groups: int = 1) -> float:
        return (self.leakage_base_mw + self.leakage_per_group_mw * groups) / 1000.0

    def to_dict(self) -> dict:
        d = {}
        for key, kind in _CLASS_KEYS.items():
            c = self.classes[kind]
            d[f"{key}_latency_ns"] = c.latency_ns
            d[f"{key}_energy_nj"] = c.energy_nj
        d["leakage_base_mw"] = self.leakage_base_mw
        d["leakage_per_group_mw"] = self.leakage_per_group_mw
        d["parallel_fraction"] = self.parallel_fraction
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CostConfig":
        """A config from to_dict's flat keys; a key left out keeps its default."""
        flat = cls().to_dict()
        for key, val in d.items():
            if key not in flat:
                raise ConfigError(f"unknown cost-config key {key!r}")
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ConfigError(f"{key} must be a number")
            flat[key] = float(val)
        classes = {
            kind: ClassCost(flat.pop(f"{key}_latency_ns"), flat.pop(f"{key}_energy_nj"))
            for key, kind in _CLASS_KEYS.items()
        }
        return cls(classes=classes, **flat)

    @classmethod
    def from_json(cls, path) -> "CostConfig":
        try:
            with open(path) as fh:
                d = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None
        if not isinstance(d, dict):
            raise ConfigError("cost config must be a JSON object")
        return cls.from_dict(d)


@dataclass(frozen=True)
class StageRow:
    stage: str
    cycles: dict[str, int]
    latency_ns: float
    energy_nj: float
    avg_power_w: float


@dataclass(frozen=True)
class StageReport:
    rows: list[StageRow]
    total_latency_ns: float
    dynamic_energy_nj: float
    leakage_energy_nj: float
    total_energy_nj: float
    avg_power_w: float
    mbr: float
    rur: float
    schema_version: int = SCHEMA_VERSION

    def stage_fraction(self, stage: str) -> float:
        if self.total_latency_ns == 0:
            return 0.0
        return sum(r.latency_ns for r in self.rows if r.stage == stage) / self.total_latency_ns

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "stages": [
                {
                    "stage": r.stage,
                    "cycles": dict(sorted(r.cycles.items())),
                    "latency_ns": r.latency_ns,
                    "energy_nj": r.energy_nj,
                    "avg_power_w": r.avg_power_w,
                }
                for r in self.rows
            ],
            "total_latency_ns": self.total_latency_ns,
            "dynamic_energy_nj": self.dynamic_energy_nj,
            "leakage_energy_nj": self.leakage_energy_nj,
            "total_energy_nj": self.total_energy_nj,
            "avg_power_w": self.avg_power_w,
            "mbr": self.mbr,
            "rur": self.rur,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def account(trace: tr.OpTrace, cfg: CostConfig) -> StageReport:
    """Serialized single-group pricing of a trace, stage by stage.

    Latency is the straight sum of event count x class latency; dynamic
    energy likewise; leakage is the single-group leakage power times the
    total latency. Unknown event classes raise ConfigError.
    """
    leak_w = cfg.leakage_w(1)
    per_stage: dict[str, dict[str, int]] = {}
    for stage, kind, count in trace.records():
        per_stage.setdefault(stage, {})[kind] = count
    rows = []
    total_ns = 0.0
    total_nj = 0.0
    xfer_ns = 0.0
    busy_ns = 0.0
    for stage, cycles in per_stage.items():
        ns = 0.0
        nj = 0.0
        for kind, count in cycles.items():
            c = cfg.cost(kind)
            k_ns = count * c.latency_ns
            ns += k_ns
            nj += count * c.energy_nj
            if kind == tr.XFER:
                xfer_ns += k_ns
            elif kind in _COMPUTE_KINDS:
                busy_ns += k_ns
        power = (nj / ns if ns else 0.0) + leak_w
        rows.append(StageRow(stage, dict(cycles), ns, nj, power))
        total_ns += ns
        total_nj += nj
    leak_nj = leak_w * total_ns
    total_energy = total_nj + leak_nj
    return StageReport(
        rows=rows,
        total_latency_ns=total_ns,
        dynamic_energy_nj=total_nj,
        leakage_energy_nj=leak_nj,
        total_energy_nj=total_energy,
        avg_power_w=(total_energy / total_ns if total_ns else 0.0),
        mbr=(xfer_ns / total_ns if total_ns else 0.0),
        rur=(busy_ns / total_ns if total_ns else 0.0),
    )


@dataclass(frozen=True)
class SweepPoint:
    pd: int
    runtime_ns: float
    avg_power_w: float
    energy_nj: float


@dataclass(frozen=True)
class SweepResult:
    points: list[SweepPoint]


def amdahl_runtime(total_ns: float, parallel_fraction: float, pd: int) -> float:
    par = parallel_fraction * total_ns
    return (total_ns - par) + par / pd


def sweep_pd(trace: tr.OpTrace, cfg: CostConfig, pd_list: list[int]) -> SweepResult:
    """Runtime/power/energy across group counts, from one serial pricing.

    The parallel fraction of the single-group runtime divides by the
    group count; dynamic energy is conserved; leakage power rises by one
    per-group increment per extra group.
    """
    if not pd_list:
        raise ConfigError("pd list must be nonempty")
    base = account(trace, cfg)
    points = []
    for pd in pd_list:
        if int(pd) != pd or pd < 1:
            raise ConfigError(f"parallelism degree must be an integer >= 1, got {pd}")
        pd = int(pd)
        rt = amdahl_runtime(base.total_latency_ns, cfg.parallel_fraction, pd)
        leak_w = cfg.leakage_w(pd)
        dyn_w = base.dynamic_energy_nj / rt if rt else 0.0
        power = dyn_w + leak_w
        energy = base.dynamic_energy_nj + leak_w * rt
        points.append(SweepPoint(pd, rt, power, energy))
    return SweepResult(points)


def calibrated_config() -> CostConfig:
    """Stock config with the committed parallelism calibration applied.

    The two knobs in data/pd_calibration.json were solved for target sweep
    ratios at pd 8. parallel_fraction = 16/21 = (1 - 1/3) / (1 - 1/8)
    gives runtime(1) / runtime(8) = 3.0 on any trace. leakage_per_group_mw
    was fitted to power(8) / power(1) = 7 on one workload's trace; the
    power ratio depends on the trace's dynamic power, so it moves as the
    trace does. Acceptance criterion 9 checks both ratios on the canonical
    run.
    """
    from importlib.resources import files

    d = json.loads(files("pimgasm.data").joinpath("pd_calibration.json").read_text())
    return CostConfig.from_dict(d)
