"""Exception types shared across the simulator.

Every error raised on a contract violation derives from SimError so the
CLI can map failures onto its exit codes in one place.
"""


class SimError(Exception):
    """Base class for all simulator errors."""


class AddressError(SimError):
    """Row or column index out of bounds, or duplicate rows in one activation."""


class ProtectionError(SimError):
    """Write touched a reserved logic-init row."""


class ConfigError(SimError):
    """Illegal sense-amp configuration or invalid cost/run configuration."""


class SizeError(SimError):
    """Operand size does not fit the addressed region."""


class ShapeError(SimError):
    """Operand shapes disagree (width mismatch, empty reduction, bad column)."""


class StateError(SimError):
    """Required machine state not established (e.g. carry rows not zeroed)."""


class PlacementError(SimError):
    """Operands placed in incompatible locations (different sub-arrays)."""


class CapacityError(SimError):
    """Data does not fit the configured fabric geometry."""


class ParseError(SimError):
    """Malformed input file."""


class ConsistencyError(SimError):
    """Cross-check between fabric contents and host bookkeeping failed."""
