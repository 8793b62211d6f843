"""Instruction layer over the sub-array fabric.

A Machine owns a set of sub-arrays (created on demand, shared trace) plus
the scalar digital unit of the controller. The memory-side instruction set
is deliberately tiny:

  mem_insert  masked write of controller-held bits into a bit region
  cmp         bulk equality: one XNOR triple plus an AND reduction
  add         bit-serial addition of vertical words, LSB at the lowest row

Vertical words put bit i of a value in row lsb_row + i of one column, so a
width-w add ripples through w full-add cycles. Because sensing covers every
column, the same w cycles add up to `cols` word pairs when callers batch by
column; cost is identical for 1 or cols columns. Writing and reading
vertical words batches the same way: one row per bit plane moves that bit
of every listed column's word.

Every bit region lies within one row, so an insert or a compare is one row
operation; a region that runs past its row raises SizeError.

The assembly pipeline adds only constants (add_const_cols): counter
increments, degree waves, the start probe's + 1 and the walk's spend, each
a constant the controller holds. add_cols, the add of two stored words,
stays for the adder's own acceptance check (criterion 3).

Cost contract (pinned by tests):
  mem_insert:   1 W
  cmp:          1 C_ADD + 1 DPU
  add:          w C_ADD + 2w W (w sum writes, w-1 carry writes, 1 zero
                write that restores the carry row)
  add const c:  c < 0 costs what add does. For c > 0, top = c.bit_length()
                - 1: every plane from top up to w-2 is followed by one DPU
                reduce of the carry plane just written, and the add stops
                at the first such plane p whose carry is zero in every
                batched column (p = w-1 when none is): (p+1) C_ADD +
                2(p+1) W + one DPU per plane tested, i.e. p - top + 1 when
                it stops early and max(0, w-1-top) when it does not
  write_vwords: w W, one masked write per bit plane, for any column count
  read_row:     1 R, the row's cells as one int
  read_vwords:  w R, one read_row per bit plane, every column's word decoded
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from . import trace as tr
from .errors import (
    AddressError,
    PlacementError,
    ShapeError,
    SizeError,
    StateError,
)
from .fabric import XOR3_CFG, RowLayout, SubArray, ones


@dataclass(frozen=True)
class MemAddress:
    """Bit region inside one row of one sub-array: row, starting column,
    bit length. A region that runs past its row is a SizeError where a
    Machine op takes it.
    """

    subarray_id: int
    row: int
    col_start: int
    bit_len: int

    def __post_init__(self) -> None:
        if self.bit_len < 1:
            raise SizeError("bit_len must be positive")
        if self.row < 0 or self.col_start < 0:
            raise AddressError("negative address")


class CmpResult(NamedTuple):
    equal: bool
    mask: int    # bit i set iff operand bits i matched
    width: int


class Machine:
    """Sub-array pool plus controller-side scalar unit, one shared trace."""

    def __init__(self, rows: int = 1024, cols: int = 256) -> None:
        self.rows = rows
        self.cols = cols
        self.trace = tr.OpTrace()
        self._subarrays: dict[int, SubArray] = {}
        self._next_id = 0

    # ---- sub-array pool ----------------------------------------------

    def new_subarray(self, layout: RowLayout | None = None) -> int:
        sid = self._next_id
        self._next_id += 1
        self._subarrays[sid] = SubArray(
            self.rows, self.cols, layout=layout, op_trace=self.trace, subarray_id=sid
        )
        return sid

    def subarray(self, sid: int) -> SubArray:
        try:
            return self._subarrays[sid]
        except KeyError:
            raise AddressError(f"sub-array {sid} was never allocated") from None

    @property
    def subarray_count(self) -> int:
        return self._next_id

    def stage_scope(self, stage: str):
        return self.trace.stage_scope(stage)

    # ---- mem_insert ----------------------------------------------------

    def _check_in_row(self, addr: MemAddress) -> None:
        """Every region lies in one row: SizeError if addr runs past it."""
        if addr.col_start + addr.bit_len > self.cols:
            raise SizeError(
                f"region of {addr.bit_len} bits from column {addr.col_start} "
                f"runs past its {self.cols}-column row"
            )

    def mem_insert(self, dst: MemAddress, value: int, mask: int) -> None:
        """Write bits the controller holds into the region dst under mask.

        value and mask count from dst's first column; the columns of dst
        outside mask keep their cells. One masked row write (W), no read.
        """
        self._check_in_row(dst)
        if value < 0 or mask < 0 or (value | mask) >> dst.bit_len:
            raise SizeError(f"value or mask runs past the {dst.bit_len}-bit region")
        self.subarray(dst.subarray_id).write_masked(
            dst.row, value << dst.col_start, mask << dst.col_start
        )

    # ---- cmp -----------------------------------------------------------

    def cmp(self, src1: MemAddress, src2: MemAddress) -> CmpResult:
        """Bulk equality of two regions of one length at the same columns
        of one sub-array.

        One XNOR triple (operand rows plus the all-ones init row under the
        parity configuration); the controller AND-reduces the match mask
        in one DPU step. Only the parity tap is sensed, straight from the
        three rows, so no other tap is formed.
        """
        if src1.subarray_id != src2.subarray_id:
            raise PlacementError("cmp operands must share a sub-array")
        if src1.col_start != src2.col_start:
            raise PlacementError("cmp operands must share a column span")
        if src1.bit_len != src2.bit_len:
            raise SizeError("cmp operands differ in length")
        self._check_in_row(src1)
        sub = self.subarray(src1.subarray_id)
        a, b, init1 = sub._triple((src1.row, src2.row, sub.layout.init1_row))
        self.trace.emit(XOR3_CFG.cost_class, 1)
        # xor3 with the constant-1 row is XNOR2: bit set iff cells match.
        width = src1.bit_len
        mask = ((a ^ b ^ init1) >> src1.col_start) & ones(width)
        return CmpResult(self.dpu_and_reduce(mask, width), mask, width)

    # ---- add -----------------------------------------------------------

    def _add_planes(
        self,
        sub: SubArray,
        a_rows: Sequence[int],
        b_rows: Sequence[int],
        out_lsb: int,
        width: int,
        colmask: int,
        exit_from: int,
    ) -> int:
        """Shared ripple core: returns the final carry plane (overflow bits).

        a_rows/b_rows give the operand row per bit (so constants can point
        bits at the init rows). Writes are masked to the batched columns;
        the final carry write stores zeros, which both hands the overflow
        to the controller and re-arms the carry row.

        Every plane from `exit_from` up to the second-to-last charges one
        DPU reduce of the carry plane it wrote, and the add stops at the
        first one that is zero in every batched column. That carry write
        stored zeros, so the carry row is re-armed. The caller passes a
        plane above which b holds only zero bits and out aliases a, so the
        planes left would rewrite each cell unchanged and carry nothing
        out; `width` never exits. A word of no bits has nothing to add, and
        raises ShapeError.
        """
        if width < 1:
            raise ShapeError("an add needs words of at least one bit")
        carry = sub.layout.carry_rows[0]
        if sub.cells[carry] & colmask:
            raise StateError("carry row not zeroed for the addressed columns")
        out_rows = range(out_lsb, out_lsb + width)
        for i in range(width):
            trip = (a_rows[i], b_rows[i], carry)
            if len(set(trip)) != 3:
                raise AddressError("operand bit rows collide within an activation")
        last = width - 1
        for i in range(width):
            s, cy = sub.full_add_cycle((a_rows[i], b_rows[i], carry))
            sub.write_masked(out_rows[i], s, colmask)
            if i == last:
                break
            sub.write_masked(carry, cy, colmask)
            if i >= exit_from:
                self.dpu_charge(1)
                if not cy & colmask:
                    return 0
        sub.write_masked(carry, 0, colmask)
        return cy & colmask

    def _batch(self, sid: int, cols: list[int]) -> tuple[SubArray, int]:
        """sid's sub-array and the mask of a column batch, which must be a
        non-empty set of distinct columns of its rows."""
        if not cols or len(set(cols)) != len(cols):
            raise ShapeError("batch needs a non-empty set of distinct columns")
        sub = self.subarray(sid)
        sub._check_col(min(cols))
        sub._check_col(max(cols))
        return sub, sum(map((1).__lshift__, cols))  # distinct columns: the sum is the OR

    @staticmethod
    def _check_word_overlap(out: range, a: range, b: range) -> None:
        """out must alias an operand exactly or stay clear of both."""
        for op in (a, b):
            if out == op:
                continue
            if out.start < op.stop and op.start < out.stop:
                raise AddressError("output rows partially overlap an operand")

    def add_cols(
        self,
        sid: int,
        a_lsb: int,
        b_lsb: int,
        out_lsb: int,
        width: int,
        cols: Iterable[int],
    ) -> dict[int, int]:
        """Column-batched vertical add: out = a + b in every listed column.

        All words share the row structure; returns {col: overflow bit}.
        """
        cols = list(cols)
        sub, colmask = self._batch(sid, cols)
        if a_lsb == b_lsb:
            raise AddressError("operands occupy the same rows")
        self._check_word_overlap(
            range(out_lsb, out_lsb + width),
            range(a_lsb, a_lsb + width),
            range(b_lsb, b_lsb + width),
        )
        a_rows = range(a_lsb, a_lsb + width)
        b_rows = range(b_lsb, b_lsb + width)
        cy = self._add_planes(sub, a_rows, b_rows, out_lsb, width, colmask, width)
        return {c: (cy >> c) & 1 for c in cols}

    def add_const_cols(
        self, sid: int, lsb: int, width: int, cols: Iterable[int], constant: int
    ) -> dict[int, int]:
        """In-place ctr += constant for every listed column.

        The constant operand is synthesized from the init rows: bit i of the
        constant selects the all-ones or all-zeros row, so the same value is
        present on every bit-line without a dedicated operand column.
        constant is taken mod 2**width (so -1 increments by the all-ones
        word, i.e. subtracts 1 in two's complement).

        A positive constant has no bit above its top one, so from that
        plane on the add stops at the first carry plane that is zero in
        every listed column (one DPU reduce per plane tested; see the cost
        contract). Cells and overflow bits equal the full ripple's. A
        negative constant ripples through every plane: its all-ones upper
        bits leave no plane that cannot change, and a decrement's caller
        needs the carry-out of every column.
        """
        cols = list(cols)
        sub, colmask = self._batch(sid, cols)
        const = constant & ones(width)
        layout = sub.layout
        b_rows = [
            layout.init1_row if (const >> i) & 1 else layout.init0_row
            for i in range(width)
        ]
        a_rows = range(lsb, lsb + width)
        top = constant.bit_length() - 1 if constant > 0 else width
        cy = self._add_planes(sub, a_rows, b_rows, lsb, width, colmask, top)
        return {c: (cy >> c) & 1 for c in cols}

    # ---- vertical words -----------------------------------------------

    def write_vwords(self, sid: int, lsb: int, width: int, words: dict[int, int]) -> None:
        """Write one width-bit vertical word per listed column, {col: value}.

        Bit i of every word goes into row lsb + i in one masked write, so
        the cost is width W however many columns are listed; unlisted
        columns keep their cells.
        """
        sub, colmask = self._batch(sid, list(words))
        planes = [0] * width
        for col, value in words.items():
            if value < 0 or value >> width:
                raise SizeError("value does not fit word width")
            for i in range(value.bit_length()):
                if (value >> i) & 1:
                    planes[i] |= 1 << col
        for i in range(width):
            sub.write_masked(lsb + i, planes[i], colmask)

    def read_row(self, sid: int, row: int) -> int:
        """One row of sid's sub-array, its cells as one int (bit c is
        column c): 1 R."""
        return self.subarray(sid).read_row(row)

    def read_vwords(self, sid: int, lsb: int, width: int) -> list[int]:
        """Every column's width-bit vertical word at lsb: width R, one
        read_row per bit plane."""
        words = [0] * self.subarray(sid).cols
        for i in range(width):
            plane = self.read_row(sid, lsb + i)
            while plane:
                low = plane & -plane
                words[low.bit_length() - 1] |= 1 << i
                plane ^= low
        return words

    # ---- controller scalar unit ----------------------------------------

    def dpu_and_reduce(self, mask: int, width: int) -> bool:
        """True iff every one of `width` mask bits is set. One DPU step."""
        if width < 1:
            raise ShapeError("empty reduction")
        if mask < 0 or mask >> width:
            raise ShapeError("mask wider than declared width")
        self.trace.emit(tr.DPU, 1)
        return mask == ones(width)

    def dpu_charge(self, n: int) -> None:
        """Account n controller steps for host-assisted work (e.g. DFS)."""
        self.trace.emit(tr.DPU, n)

    # ---- host transfers --------------------------------------------------

    def xfer(self, nbytes: int) -> None:
        """Host<->fabric movement of nbytes over the external link."""
        if nbytes < 0:
            raise SizeError("negative transfer")
        self.trace.emit(tr.XFER, nbytes)
