"""Bit-accurate simulator of an in-memory genome assembly fabric.

Multi-row activation logic, a three-instruction memory ISA, a de Bruijn
assembler running entirely on those instructions, and a trace-driven
latency/energy/power model.
"""

from .assembly import (
    Assembler,
    AssemblyResult,
    EulerPath,
    KmerTable,
    SparseGraph,
    contig_from_path,
    weakly_connected_components,
)
from .encoding import EncodedSeq, clean_segments, extract_kmers
from .errors import (
    AddressError,
    CapacityError,
    ConfigError,
    ConsistencyError,
    ParseError,
    PlacementError,
    ProtectionError,
    ShapeError,
    SimError,
    SizeError,
    StateError,
)
from .fabric import (
    AND3_CFG,
    MAJ_CFG,
    OR3_CFG,
    XOR3_CFG,
    RowLayout,
    SenseConfig,
    SenseOutput,
    SubArray,
)
from .isa import CmpResult, Machine, MemAddress
from .mapping import (
    CapacityPlan,
    HashLayout,
    capacity_plan,
    layout_hash,
    stable_hash,
    subarrays_needed,
)
from .perf import (
    ClassCost,
    CostConfig,
    StageReport,
    SweepResult,
    account,
    calibrated_config,
    sweep_pd,
)
from .trace import OpTrace

__version__ = "0.1.0"

__all__ = [
    "AND3_CFG",
    "AddressError",
    "Assembler",
    "AssemblyResult",
    "CapacityError",
    "CapacityPlan",
    "ClassCost",
    "CmpResult",
    "ConfigError",
    "ConsistencyError",
    "CostConfig",
    "EncodedSeq",
    "EulerPath",
    "HashLayout",
    "KmerTable",
    "MAJ_CFG",
    "Machine",
    "MemAddress",
    "OR3_CFG",
    "OpTrace",
    "ParseError",
    "PlacementError",
    "ProtectionError",
    "RowLayout",
    "SenseConfig",
    "SenseOutput",
    "ShapeError",
    "SimError",
    "SizeError",
    "SparseGraph",
    "StageReport",
    "StateError",
    "SubArray",
    "SweepResult",
    "XOR3_CFG",
    "account",
    "calibrated_config",
    "capacity_plan",
    "clean_segments",
    "contig_from_path",
    "extract_kmers",
    "layout_hash",
    "stable_hash",
    "subarrays_needed",
    "sweep_pd",
    "weakly_connected_components",
]
