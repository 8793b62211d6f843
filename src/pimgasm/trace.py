"""Cycle/byte accounting for fabric operations.

Every primitive the fabric or the controller executes reports itself to an
OpTrace as (stage, kind, count). Traces aggregate counts per (stage, kind)
pair in first-seen order instead of logging one record per cycle: assembly
workloads issue tens of millions of cycles and every consumer downstream
(cost model, CSV export, metrics) only needs the aggregate counts. The
aggregation is a pure function of the call sequence, so identical runs
produce identical traces.
"""

from __future__ import annotations

from contextlib import contextmanager

from .errors import ConfigError

# Cost-event kinds. R/W are row reads/writes, C_AND3 covers single
# sense-amp logic cycles, C_ADD covers triple sense-amp cycles (parity and
# full-add), DPU is scalar controller work, XFER is host<->fabric traffic
# counted in bytes.
R = "R"
W = "W"
C_AND3 = "C_AND3"
C_ADD = "C_ADD"
DPU = "DPU"
XFER = "XFER"

KINDS = (R, W, C_AND3, C_ADD, DPU, XFER)
_KIND_SET = frozenset(KINDS)

STAGE_HASHMAP = "hashmap"
STAGE_GRAPH = "graph"
STAGE_TRAVERSE = "traverse"
STAGE_IO = "io"
STAGE_OTHER = "other"

STAGES = (STAGE_HASHMAP, STAGE_GRAPH, STAGE_TRAVERSE, STAGE_IO, STAGE_OTHER)
_STAGE_SET = frozenset(STAGES)


class OpTrace:
    """Append-only tally of fabric cost events, grouped by pipeline stage."""

    __slots__ = ("_counts", "_stage")

    def __init__(self) -> None:
        self._counts: dict[tuple[str, str], int] = {}
        self._stage = STAGE_OTHER

    @property
    def stage(self) -> str:
        return self._stage

    def set_stage(self, stage: str) -> None:
        if stage not in _STAGE_SET:
            raise ConfigError(f"unknown stage tag {stage!r}")
        self._stage = stage

    @contextmanager
    def stage_scope(self, stage: str):
        prev = self._stage
        self.set_stage(stage)
        try:
            yield self
        finally:
            self._stage = prev

    def emit(self, kind: str, count: int = 1) -> None:
        """Record `count` units of one event kind under the current stage."""
        if kind not in _KIND_SET:
            raise ConfigError(f"unknown event kind {kind!r}")
        if count < 0:
            raise ConfigError("event count must be non-negative")
        if count == 0:
            return
        key = (self._stage, kind)
        counts = self._counts
        counts[key] = counts.get(key, 0) + count

    def total(self, kind: str | None = None, stage: str | None = None) -> int:
        """Sum of counts, optionally filtered by kind and/or stage."""
        total = 0
        for (st, kd), n in self._counts.items():
            if kind is not None and kd != kind:
                continue
            if stage is not None and st != stage:
                continue
            total += n
        return total

    def records(self) -> list[tuple[str, str, int]]:
        """(stage, kind, count) rows in first-seen order."""
        return [(st, kd, n) for (st, kd), n in self._counts.items()]

    def export_lines(self) -> list[str]:
        """Line-delimited `stage,kind,count` records."""
        return [f"{st},{kd},{n}" for st, kd, n in self.records()]

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("stage,kind,count\n")
            for line in self.export_lines():
                fh.write(line + "\n")

    def __repr__(self) -> str:
        totals = {kd: self.total(kd) for kd in KINDS if self.total(kd)}
        return f"OpTrace({totals})"
