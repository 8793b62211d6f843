"""Instruction-layer behavior: masked inserts, bulk compares, bit-serial adds."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimgasm.errors import (
    AddressError,
    PlacementError,
    ShapeError,
    SizeError,
    StateError,
)
from pimgasm.isa import Machine, MemAddress
from pimgasm.trace import C_ADD, DPU, R, W, XFER


def make_machine(rows=64, cols=16):
    m = Machine(rows=rows, cols=cols)
    sid = m.new_subarray()
    return m, sid


def deltas(trace, kinds):
    return {k: trace.total(k) for k in kinds}


def test_mem_insert_writes_held_bits_under_its_mask():
    # value and mask count from the region's first column, here column 4;
    # the masked columns take the value's bits, the rest keep their cells.
    # One masked row write: 1 W, and no read.
    m, sid = make_machine(cols=16)
    sub = m.subarray(sid)
    sub.write_row(8, 0xFFFF)
    before = deltas(m.trace, (R, W))
    m.mem_insert(MemAddress(sid, 8, 4, 8), 0b1010_0000, 0b1111_0011)
    after = deltas(m.trace, (R, W))
    assert (after[R] - before[R], after[W] - before[W]) == (0, 1)
    # columns 4, 5 and 8 to 11 take 0, 0 and 0, 1, 0, 1
    assert sub.read_row(8) == 0b1111_1010_1100_1111


def test_mem_insert_rejects_bad_shapes():
    # a value or mask past its 8-bit region, or a negative one, raises
    # before anything is written or charged
    m, sid = make_machine(cols=16)
    region = MemAddress(sid, 0, 4, 8)
    for value, mask in ((1 << 8, 0xFF), (0, 1 << 8), (-1, 0xFF), (0, -1)):
        with pytest.raises(SizeError, match="runs past the 8-bit region"):
            m.mem_insert(region, value, mask)
    assert m.trace.total() == 0
    assert m.subarray(sid).cells[0] == 0


def test_a_region_past_its_row_raises_size_error():
    # 16 columns: 12 bits from column 5 would need columns 16 to 20 of the
    # next row. No op takes such a region, and none is charged for it.
    m, sid = make_machine(cols=16)
    past = MemAddress(sid, 0, 5, 12)
    inside = MemAddress(sid, 1, 4, 12)
    with pytest.raises(SizeError, match="runs past its 16-column row"):
        m.mem_insert(past, 0, 1)
    with pytest.raises(SizeError, match="runs past"):
        m.cmp(past, MemAddress(sid, 1, 5, 12))
    with pytest.raises(SizeError, match="runs past"):
        m.mem_insert(MemAddress(sid, 0, 0, 17), 0, 1)
    assert m.trace.total() == 0
    # a region that ends at the row's last column is whole
    m.mem_insert(inside, 0xFFF, 0xFFF)
    assert m.subarray(sid).read_row(1) == 0xFFF << 4


def test_cmp_reports_equality_and_mask():
    m, sid = make_machine(cols=32)
    value = 0b10101100111100010101  # 20 bits from column 6
    m.subarray(sid).write_masked(0, value << 6, ((1 << 20) - 1) << 6)
    m.subarray(sid).write_masked(4, value << 6, ((1 << 20) - 1) << 6)
    res = m.cmp(MemAddress(sid, 0, 6, 20), MemAddress(sid, 4, 6, 20))
    assert res.equal
    assert res.mask == (1 << 20) - 1
    assert res.width == 20

    # flip bit 10 of the second copy: column 16
    m.subarray(sid).write_cell(4, 16, ((value >> 10) & 1) ^ 1)
    res = m.cmp(MemAddress(sid, 0, 6, 20), MemAddress(sid, 4, 6, 20))
    assert not res.equal
    assert res.mask == ((1 << 20) - 1) ^ (1 << 10)
    # the columns outside the region do not count
    m.subarray(sid).write_cell(4, 2, 1)
    assert m.cmp(MemAddress(sid, 0, 0, 6), MemAddress(sid, 4, 0, 6)).mask == 0b111011


def test_cmp_cost_is_one_cycle_per_chunk_plus_one_dpu():
    m, sid = make_machine(cols=8)
    before = deltas(m.trace, (C_ADD, DPU))
    m.cmp(MemAddress(sid, 0, 0, 8), MemAddress(sid, 4, 0, 8))
    m.cmp(MemAddress(sid, 0, 3, 2), MemAddress(sid, 4, 3, 2))
    assert m.trace.total(C_ADD) - before[C_ADD] == 2
    assert m.trace.total(DPU) - before[DPU] == 2


@given(data=st.data(), cols=st.integers(min_value=1, max_value=80))
@settings(max_examples=80, deadline=None)
def test_cmp_equals_a_sensed_xnor2_masked_to_its_span(data, cols):
    # cmp senses only the parity tap; the full activation of an XNOR2
    # through logic2, then one AND-reduce, is its oracle.
    m, sid = make_machine(rows=16, cols=cols)
    sub = m.subarray(sid)
    row_a, row_b = data.draw(st.lists(st.integers(0, 9), min_size=2, max_size=2, unique=True))
    for row in (row_a, row_b):
        sub.cells[row] = data.draw(st.integers(0, (1 << cols) - 1))
    start = data.draw(st.integers(0, cols - 1))
    width = data.draw(st.integers(1, cols - start))
    before = deltas(m.trace, (C_ADD, DPU))
    res = m.cmp(MemAddress(sid, row_a, start, width), MemAddress(sid, row_b, start, width))
    mid = deltas(m.trace, (C_ADD, DPU))
    mask = (sub.logic2(row_a, row_b, "xnor2") >> start) & ((1 << width) - 1)
    equal = m.dpu_and_reduce(mask, width)
    after = deltas(m.trace, (C_ADD, DPU))
    assert (res.mask, res.equal, res.width) == (mask, equal, width)
    assert {k: mid[k] - before[k] for k in mid} == {k: after[k] - mid[k] for k in mid}
    assert mid[C_ADD] - before[C_ADD] == mid[DPU] - before[DPU] == 1


def test_cmp_placement_rules():
    m, sid = make_machine()
    other = m.new_subarray()
    with pytest.raises(PlacementError):
        m.cmp(MemAddress(sid, 0, 0, 8), MemAddress(other, 0, 0, 8))
    with pytest.raises(PlacementError):
        m.cmp(MemAddress(sid, 0, 0, 8), MemAddress(sid, 1, 1, 8))
    with pytest.raises(SizeError):
        m.cmp(MemAddress(sid, 0, 0, 8), MemAddress(sid, 1, 0, 9))


def put(m, sid, col, lsb, width, value):
    """Write one column's word through the stripe codec."""
    m.write_vwords(sid, lsb, width, {col: value})


def get(m, sid, col, lsb, width):
    """Read one column's word through the stripe codec."""
    return m.read_vwords(sid, lsb, width)[col]


def add1(m, sid, col, a_lsb, b_lsb, out_lsb, width):
    """One-column vertical add, out = a + b; returns the overflow bit."""
    return m.add_cols(sid, a_lsb, b_lsb, out_lsb, width, [col])[col]


def add_const1(m, sid, col, lsb, width, constant):
    """One-column in-place ctr += constant; returns the overflow bit."""
    return m.add_const_cols(sid, lsb, width, [col], constant)[col]


def test_vertical_words_cost_one_row_per_plane_for_any_columns():
    for cols in ([5], [0, 3, 15], list(range(16))):
        m, sid = make_machine()
        before = deltas(m.trace, (R, W))
        m.write_vwords(sid, 4, 6, {c: 37 + c for c in cols})
        assert m.trace.total(W) - before[W] == 6
        words = m.read_vwords(sid, 4, 6)
        assert m.trace.total(R) - before[R] == 6
        assert words == [37 + c if c in cols else 0 for c in range(16)]


def test_vertical_words_leave_unlisted_columns_untouched():
    m, sid = make_machine()
    m.write_vwords(sid, 2, 5, {c: c for c in range(16)})
    m.write_vwords(sid, 2, 5, {1: 31, 7: 0})
    assert m.read_vwords(sid, 2, 5) == [31 if c == 1 else 0 if c == 7 else c for c in range(16)]
    # one column costs the same 5 W as sixteen
    assert m.read_vwords(sid, 2, 5)[9] == 9
    before = m.trace.total(W)
    m.write_vwords(sid, 2, 5, {9: 22})
    assert m.trace.total(W) - before == 5
    assert m.read_vwords(sid, 2, 5)[9] == 22


def test_vertical_words_reject_bad_values_and_columns():
    m, sid = make_machine()
    for value in (-1, 1 << 5):
        with pytest.raises(SizeError):
            m.write_vwords(sid, 0, 5, {3: value})
    for col in (-1, 16):
        with pytest.raises(AddressError):
            m.write_vwords(sid, 0, 5, {col: 1})
    with pytest.raises(ShapeError):
        m.write_vwords(sid, 0, 5, {})
    assert m.trace.total(W) == 0


def test_vertical_word_round_trip():
    m, sid = make_machine()
    put(m, sid, 3, 5, 9, 0b101110011)
    assert get(m, sid, 3, 5, 9) == 0b101110011
    with pytest.raises(SizeError):
        put(m, sid, 3, 5, 9, 1 << 9)


@given(
    w=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_add_matches_integer_addition(w, data):
    a = data.draw(st.integers(min_value=0, max_value=(1 << w) - 1))
    b = data.draw(st.integers(min_value=0, max_value=(1 << w) - 1))
    m, sid = make_machine(rows=32, cols=4)
    put(m, sid, 1, 0, w, a)
    put(m, sid, 1, 8, w, b)
    overflow = add1(m, sid, 1, 0, 8, 16, w)
    assert get(m, sid, 1, 16, w) == (a + b) & ((1 << w) - 1)
    assert overflow == (a + b) >> w


def test_add_exhaustive_width_3():
    for a in range(8):
        for b in range(8):
            m, sid = make_machine(rows=32, cols=2)
            put(m, sid, 0, 0, 3, a)
            put(m, sid, 0, 4, 3, b)
            ov = add1(m, sid, 0, 0, 4, 8, 3)
            assert ov * 8 + get(m, sid, 0, 8, 3) == a + b


def test_add_cost_is_w_cycles_and_2w_writes():
    m, sid = make_machine(rows=64, cols=4)
    put(m, sid, 0, 0, 5, 19)
    put(m, sid, 0, 8, 5, 7)
    before = deltas(m.trace, (C_ADD, W))
    add1(m, sid, 0, 0, 8, 16, 5)
    assert m.trace.total(C_ADD) - before[C_ADD] == 5
    assert m.trace.total(W) - before[W] == 10  # 5 sums, 4 carries, 1 restore


def test_add_restores_carry_row_to_zero():
    m, sid = make_machine(rows=32, cols=4)
    put(m, sid, 2, 0, 4, 15)
    put(m, sid, 2, 8, 4, 15)
    assert add1(m, sid, 2, 0, 8, 16, 4) == 1
    carry = m.subarray(sid).layout.carry_rows[0]
    assert m.subarray(sid).cells[carry] & (1 << 2) == 0
    # a second add through the same column must not trip the dirty check
    assert add1(m, sid, 2, 0, 8, 16, 4) == 1


def test_dirty_carry_row_is_rejected():
    m, sid = make_machine(rows=32, cols=4)
    sub = m.subarray(sid)
    sub.write_cell(sub.layout.carry_rows[0], 1, 1)
    with pytest.raises(StateError):
        add1(m, sid, 1, 0, 8, 16, 4)


def test_add_cols_batches_many_words_for_one_word_cost():
    m, sid = make_machine(rows=64, cols=8)
    words = {0: (5, 9), 3: (12, 12), 7: (1, 0)}
    for col, (a, b) in words.items():
        put(m, sid, col, 0, 4, a)
        put(m, sid, col, 8, 4, b)
    before = deltas(m.trace, (C_ADD, W))
    ov = m.add_cols(sid, 0, 8, 16, 4, words)
    assert m.trace.total(C_ADD) - before[C_ADD] == 4
    assert m.trace.total(W) - before[W] == 8
    for col, (a, b) in words.items():
        assert get(m, sid, col, 16, 4) == (a + b) % 16
        assert ov[col] == (a + b) // 16


def test_add_aliasing_rules():
    m, sid = make_machine(rows=32, cols=4)
    put(m, sid, 1, 0, 4, 6)
    put(m, sid, 1, 8, 4, 5)
    add1(m, sid, 1, 0, 8, 0, 4)  # exact alias is in-place accumulate
    assert get(m, sid, 1, 0, 4) == 11
    with pytest.raises(AddressError):
        m.add_cols(sid, 0, 8, 1, 4, [1])  # partial overlap with operand a
    with pytest.raises(AddressError):
        m.add_cols(sid, 0, 0, 16, 4, [1])  # both operands on the same rows
    with pytest.raises(ShapeError):
        m.add_cols(sid, 0, 8, 16, 4, [])
    with pytest.raises(ShapeError):
        m.add_cols(sid, 0, 8, 16, 4, [1, 1])


def test_an_add_of_words_with_no_bits_raises():
    # A 0-bit word holds nothing to add to, so both adds reject it before
    # any cycle, and the trace stays empty.
    m, sid = make_machine(rows=32, cols=4)
    with pytest.raises(ShapeError, match="at least one bit"):
        m.add_cols(sid, 0, 8, 16, 0, [1])
    for constant in (1, -1):
        with pytest.raises(ShapeError, match="at least one bit"):
            m.add_const_cols(sid, 0, 0, [1], constant)
    assert m.trace.records() == []


def test_add_const_and_counter_helpers():
    m, sid = make_machine(rows=32, cols=4)
    put(m, sid, 2, 0, 4, 7)
    assert add_const1(m, sid, 2, 0, 4, 3) == 0
    assert get(m, sid, 2, 0, 4) == 10
    assert add_const1(m, sid, 2, 0, 4, -1) == 1  # adding 0b1111 carries out
    assert get(m, sid, 2, 0, 4) == 9
    put(m, sid, 2, 0, 4, 15)
    assert add_const1(m, sid, 2, 0, 4, 1) == 1
    assert get(m, sid, 2, 0, 4) == 0
    assert add_const1(m, sid, 2, 0, 4, -1) == 0
    assert get(m, sid, 2, 0, 4) == 15


def test_an_increment_stops_at_its_last_carry_plane():
    # the constant comes from the init rows, so no operand writes happen.
    # 200 + 55 = 0b11001000 + 0b00110111 carries nowhere: from the
    # constant's top plane, 5, the first carry plane tested is zero, so the
    # add stops there: 6 C_ADD, 12 W, 1 DPU, where the full ripple took
    # 8 C_ADD and 16 W
    m, sid = make_machine(rows=32, cols=4)
    put(m, sid, 0, 0, 8, 200)
    before = deltas(m.trace, (C_ADD, W, R, DPU))
    assert add_const1(m, sid, 0, 0, 8, 55) == 0
    after = deltas(m.trace, (C_ADD, W, R, DPU))
    assert {k: after[k] - before[k] for k in after} == {C_ADD: 6, W: 12, R: 0, DPU: 1}
    assert get(m, sid, 0, 0, 8) == 255
    assert m.subarray(sid).cells[m.subarray(sid).layout.carry_rows[0]] == 0


@pytest.mark.parametrize("constant, total, dpu", [(56, 0, 2), (-1, 199, 0)])
def test_a_carry_to_the_top_or_a_decrement_ripples_through_every_plane(constant, total, dpu):
    # 200 + 56 = 256 carries from plane 3 to the top: the DPU reduces at
    # planes 5 and 6 both see a carry, and plane 7 is the last. A negative
    # constant tests no plane.
    m, sid = make_machine(rows=32, cols=4)
    put(m, sid, 0, 0, 8, 200)
    before = deltas(m.trace, (C_ADD, W, R, DPU))
    assert add_const1(m, sid, 0, 0, 8, constant) == 1
    after = deltas(m.trace, (C_ADD, W, R, DPU))
    assert {k: after[k] - before[k] for k in after} == {C_ADD: 8, W: 16, R: 0, DPU: dpu}
    assert get(m, sid, 0, 0, 8) == total


def full_ripple_const(sub, lsb, width, colmask, constant):
    """Oracle: in-place ctr += constant through every bit plane, no early
    exit; returns the overflow plane."""
    lay = sub.layout
    carry = lay.carry_rows[0]
    cy = 0
    for i in range(width):
        b_row = lay.init1_row if (constant >> i) & 1 else lay.init0_row
        s, cy = sub.full_add_cycle((lsb + i, b_row, carry))
        sub.write_masked(lsb + i, s, colmask)
        sub.write_masked(carry, cy if i + 1 < width else 0, colmask)
    return cy & colmask


def check_against_full_ripple(w, values, batch, constant):
    """add_const_cols on `batch` against the oracle on a twin machine: equal
    cells everywhere (unbatched columns, a zero carry row), equal overflow
    bits, and the early-exit cost with p taken from the column values."""
    lsb = 3
    (m, sid), (om, osid) = make_machine(cols=len(values)), make_machine(cols=len(values))
    m.write_vwords(sid, lsb, w, dict(enumerate(values)))
    om.write_vwords(osid, lsb, w, dict(enumerate(values)))
    before = deltas(m.trace, (C_ADD, W, R, DPU))
    over = m.add_const_cols(sid, lsb, w, batch, constant)
    colmask = sum(1 << c for c in batch)
    want = full_ripple_const(om.subarray(osid), lsb, w, colmask, constant)
    sub = m.subarray(sid)
    assert sub.cells == om.subarray(osid).cells
    assert sub.cells[sub.layout.carry_rows[0]] == 0
    assert over == {c: (want >> c) & 1 for c in batch}

    top = constant.bit_length() - 1 if constant > 0 else w
    p = w - 1
    for i in range(top, w - 1):
        low = (1 << (i + 1)) - 1
        if not any(((values[c] & low) + (constant & low)) >> (i + 1) for c in batch):
            p = i
            break
    after = deltas(m.trace, (C_ADD, W, R, DPU))
    assert {k: after[k] - before[k] for k in after} == {
        C_ADD: p + 1,
        W: 2 * (p + 1),
        R: 0,
        DPU: max(0, min(p, w - 2) - top + 1),
    }


@given(w=st.integers(min_value=1, max_value=8), data=st.data())
@settings(max_examples=200, deadline=None)
def test_add_const_equals_the_full_ripple_oracle(w, data):
    values = data.draw(st.lists(st.integers(0, (1 << w) - 1), min_size=5, max_size=5))
    batch = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True))
    constant = data.draw(
        st.integers(min_value=1, max_value=1 << (w + 1))
        | st.integers(min_value=-(1 << w), max_value=-1)
    )
    check_against_full_ripple(w, values, batch, constant)


def test_add_const_equals_the_full_ripple_oracle_at_every_small_case():
    # every width up to 3, every constant 1..2**w (2**w has no bit in the
    # word), every value pair in a two-column batch, beside an unbatched
    # column that must keep its cells
    for w in (1, 2, 3):
        for constant in range(1, (1 << w) + 1):
            for v0, v1 in itertools.product(range(1 << w), repeat=2):
                check_against_full_ripple(w, [v0, (1 << w) - 1 - v0, v1], [0, 2], constant)


@given(
    w=st.integers(min_value=1, max_value=6),
    start=st.integers(min_value=0, max_value=63),
    c=st.integers(min_value=-64, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_add_const_is_modular(w, start, c):
    m, sid = make_machine(rows=32, cols=2)
    put(m, sid, 1, 0, w, start % (1 << w))
    add_const1(m, sid, 1, 0, w, c)
    assert get(m, sid, 1, 0, w) == (start % (1 << w) + c) % (1 << w)


def test_dpu_and_reduce():
    m, _ = make_machine()
    before = m.trace.total(DPU)
    assert m.dpu_and_reduce(0b1111, 4)
    assert not m.dpu_and_reduce(0b1011, 4)
    assert m.trace.total(DPU) - before == 2
    with pytest.raises(ShapeError):
        m.dpu_and_reduce(0b10000, 4)
    with pytest.raises(ShapeError):
        m.dpu_and_reduce(0, 0)


def test_dpu_charge_and_xfer_accumulate():
    m, _ = make_machine()
    m.dpu_charge(17)
    m.xfer(5)
    m.xfer(0)
    assert m.trace.total(DPU) == 17
    assert m.trace.total(XFER) == 5
    with pytest.raises(SizeError):
        m.xfer(-1)


def test_subarray_pool():
    m = Machine(rows=16, cols=8)
    assert m.new_subarray() == 0
    assert m.new_subarray() == 1
    assert m.subarray_count == 2
    with pytest.raises(AddressError):
        m.subarray(2)


def test_address_validation():
    with pytest.raises(SizeError):
        MemAddress(0, 0, 0, 0)
    with pytest.raises(AddressError):
        MemAddress(0, -1, 0, 4)
