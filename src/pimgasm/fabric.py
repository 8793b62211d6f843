"""Bit-level model of a computational MRAM sub-array.

One sub-array is a grid of single-bit cells. A row is held as a Python int
whose bit c is the cell in column c, so a multi-row activation reduces to a
few bitwise operations that cover every column at once.

Sensing model: activating three rows puts the parallel combination of three
cells on each bit-line. The reconfigurable sense amp thresholds the result
against up to three references, which classifies the count s of 1-cells in
the column:

    or3  = 1 iff s >= 1        nor3  = not or3
    maj  = 1 iff s >= 2        min3  = not maj
    and3 = 1 iff s == 3        nand3 = not and3
    xor3 = 1 iff s is odd      (parity; from the three threshold taps)

The full adder falls out of one such activation: carry = maj and
sum = (not maj and or3) or (maj and and3), which equals the parity xor3.

Two-input gates are the same circuit with a constant third row: a pair of
reserved rows is pinned all-0 and all-1 at initialization, and e.g.
XNOR2(a, b) is the xor3 sense of (a, b, init1). Sensing is non-destructive
and never modifies cell contents.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import trace as tr
from .errors import AddressError, ConfigError, ProtectionError


def ones(n: int) -> int:
    """Bit mask with the low n bits set."""
    return (1 << n) - 1


@dataclass(frozen=True)
class SenseConfig:
    """Sense-amp enable bits (c_and3, c_maj, c_or3, c_m).

    Only the combinations from the control table are legal: read, the three
    single-amp logic modes, and the all-amps parity mode. c_m selects the
    plain memory read path and is exclusive with the compute enables.
    """

    c_and3: int
    c_maj: int
    c_or3: int
    c_m: int

    _LEGAL = {
        (0, 0, 0, 1): tr.R,       # plain read, one row on the bit-line
        (1, 0, 0, 0): tr.C_AND3,  # (N)AND3 and the 2-input variants
        (0, 1, 0, 0): tr.C_AND3,  # MAJ / MIN
        (0, 0, 1, 0): tr.C_AND3,  # (N)OR3 and the 2-input variants
        (1, 1, 1, 0): tr.C_ADD,   # XOR3 / X(N)OR2, all three sub-amps up
    }

    def __post_init__(self) -> None:
        bits = (self.c_and3, self.c_maj, self.c_or3, self.c_m)
        if any(b not in (0, 1) for b in bits):
            raise ConfigError("sense enable bits must be 0 or 1")
        if bits not in self._LEGAL:
            raise ConfigError(f"illegal sense configuration {bits}")

    @property
    def bits(self) -> tuple[int, int, int, int]:
        return (self.c_and3, self.c_maj, self.c_or3, self.c_m)

    @property
    def is_read(self) -> bool:
        return self.c_m == 1

    @property
    def cost_class(self) -> str:
        return self._LEGAL[self.bits]


AND3_CFG = SenseConfig(1, 0, 0, 0)
MAJ_CFG = SenseConfig(0, 1, 0, 0)
OR3_CFG = SenseConfig(0, 0, 1, 0)
XOR3_CFG = SenseConfig(1, 1, 1, 0)

# Two-input gate -> (config, which init row completes the triple, output tap).
LOGIC2 = {
    "and2": (AND3_CFG, 1, "and3"),
    "nand2": (AND3_CFG, 1, "nand3"),
    "or2": (OR3_CFG, 0, "or3"),
    "nor2": (OR3_CFG, 0, "nor3"),
    "xor2": (XOR3_CFG, 0, "xor3"),
    "xnor2": (XOR3_CFG, 1, "xor3"),
}


@dataclass(frozen=True)
class SenseOutput:
    """Per-column outputs of one activation, one int bit-plane per function.

    Complement taps come from the inverted side of the same amps, so they
    are available in the same cycle at no extra cost.
    """

    cols: int
    or3: int
    maj: int
    and3: int
    xor3: int
    nor3: int
    min3: int
    nand3: int

    def bit(self, field: str, col: int) -> int:
        return (getattr(self, field) >> col) & 1


@dataclass(frozen=True)
class RowLayout:
    """Which rows of a sub-array are reserved for what.

    init0/init1 are the pinned constant rows, carry rows back the bit-serial
    adder, temp rows stage operands for comparisons. data_region is the range
    callers may allocate; it excludes every special row.
    """

    init0_row: int
    init1_row: int
    carry_rows: tuple[int, ...]
    temp_rows: tuple[int, ...]
    data_region: range

    def __post_init__(self) -> None:
        special = self.special_rows()
        if len(special) != len(set(special)):
            raise ConfigError("row layout assigns one row to two roles")
        if len(self.carry_rows) < 2 or len(self.temp_rows) < 1:
            raise ConfigError("layout needs at least 2 carry rows and 1 temp row")
        for r in special:
            if r in self.data_region:
                raise ConfigError("data region overlaps a special row")

    def special_rows(self) -> tuple[int, ...]:
        return (self.init0_row, self.init1_row) + self.carry_rows + self.temp_rows

    @classmethod
    def default(cls, rows: int) -> "RowLayout":
        """Special rows packed at the top, everything below is data."""
        if rows < 8:
            raise ConfigError("sub-array needs at least 8 rows")
        return cls(
            init0_row=rows - 1,
            init1_row=rows - 2,
            carry_rows=(rows - 3, rows - 4),
            temp_rows=(rows - 5, rows - 6),
            data_region=range(0, rows - 6),
        )


class SubArray:
    """One rows x cols compute-capable memory mat.

    All mutation goes through _write so the init-row write protection and
    the one-W-per-touched-row cost rule hold everywhere. A sub-array used
    standalone gets its own OpTrace; a Machine passes a shared one in.
    """

    def __init__(
        self,
        rows: int = 1024,
        cols: int = 256,
        layout: RowLayout | None = None,
        op_trace: tr.OpTrace | None = None,
        subarray_id: int = 0,
    ) -> None:
        if rows < 8:
            raise ConfigError("sub-array needs at least 8 rows")
        if cols < 1:
            raise ConfigError("sub-array needs at least 1 column")
        self.rows = rows
        self.cols = cols
        self.subarray_id = subarray_id
        self.layout = layout if layout is not None else RowLayout.default(rows)
        for r in self.layout.special_rows():
            if not 0 <= r < rows:
                raise ConfigError("layout row outside sub-array")
        self.trace = op_trace if op_trace is not None else tr.OpTrace()
        self.col_mask = ones(cols)
        self.cells = [0] * rows
        self.cells[self.layout.init1_row] = self.col_mask

    # ---- addressing checks -------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside [0, {self.rows})")

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.cols:
            raise AddressError(f"column {col} outside [0, {self.cols})")

    # ---- writes ------------------------------------------------------

    def _write(self, row: int, value: int, mask: int) -> None:
        """Merge `value` into `row` under `mask`. One write cycle per call."""
        self._check_row(row)
        if row in (self.layout.init0_row, self.layout.init1_row):
            raise ProtectionError(f"row {row} is a protected init row")
        self.cells[row] = (self.cells[row] & ~mask) | (value & mask)
        self.trace.emit(tr.W, 1)

    def write_cell(self, row: int, col: int, bit: int) -> None:
        self._check_col(col)
        if bit not in (0, 1):
            raise ConfigError("cell value must be 0 or 1")
        self._write(row, bit << col, 1 << col)

    def write_row(self, row: int, value: int) -> None:
        if value < 0 or value >> self.cols:
            raise ConfigError("value does not fit the row")
        self._write(row, value, self.col_mask)

    def write_masked(self, row: int, value: int, mask: int) -> None:
        """Write an arbitrary column subset of one row in one cycle."""
        if mask < 0 or mask >> self.cols:
            raise AddressError("mask selects columns outside the row")
        self._write(row, value, mask)

    # ---- reads -------------------------------------------------------

    def read_row(self, row: int) -> int:
        """Single-row activation under the read configuration."""
        self._check_row(row)
        self.trace.emit(tr.R, 1)
        return self.cells[row]

    # ---- compute activations ----------------------------------------

    def _triple(self, rows) -> tuple[int, int, int]:
        if len(rows) != 3:
            raise AddressError(
                "activation senses exactly 3 rows; pair 2-input operands "
                "with the matching init row"
            )
        r0, r1, r2 = rows
        if r0 == r1 or r0 == r2 or r1 == r2:
            raise AddressError(f"duplicate rows in activation {tuple(rows)}")
        self._check_row(r0)
        self._check_row(r1)
        self._check_row(r2)
        cells = self.cells
        return cells[r0], cells[r1], cells[r2]

    def activate(self, rows, cfg: SenseConfig) -> SenseOutput:
        """Sense three rows at once and return every function tap.

        The configuration decides legality and the cost class (single-amp
        logic vs. all-amps parity); the positive and complement taps of all
        enabled comparisons are captured in one cycle.
        """
        if cfg.is_read:
            raise ConfigError("read configuration senses a single row; use read_row")
        a, b, c = self._triple(rows)
        mask = self.col_mask
        or3 = a | b | c
        and3 = a & b & c
        maj = (a & b) | (a & c) | (b & c)
        xor3 = a ^ b ^ c
        self.trace.emit(cfg.cost_class, 1)
        return SenseOutput(
            cols=self.cols,
            or3=or3,
            maj=maj,
            and3=and3,
            xor3=xor3,
            nor3=~or3 & mask,
            min3=~maj & mask,
            nand3=~and3 & mask,
        )

    def full_add_cycle(self, rows) -> tuple[int, int]:
        """One-cycle full add over three rows: returns (sum, carry) planes."""
        a, b, c = self._triple(rows)
        maj = (a & b) | (a & c) | (b & c)
        self.trace.emit(tr.C_ADD, 1)
        return a ^ b ^ c, maj

    def logic2(self, row_a: int, row_b: int, op: str) -> int:
        """Two-input gate emulated as a triple with the matching init row."""
        if op not in LOGIC2:
            raise ConfigError(f"unknown 2-input op {op!r}")
        cfg, init_bit, field = LOGIC2[op]
        init_row = self.layout.init1_row if init_bit else self.layout.init0_row
        out = self.activate((row_a, row_b, init_row), cfg)
        return getattr(out, field)
