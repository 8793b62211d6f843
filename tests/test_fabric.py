"""Sense logic, row layout, and sub-array write/read/activate behavior."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimgasm.errors import AddressError, ConfigError, ProtectionError
from pimgasm.fabric import (
    AND3_CFG,
    LOGIC2,
    MAJ_CFG,
    OR3_CFG,
    XOR3_CFG,
    RowLayout,
    SenseConfig,
    SenseOutput,
    SubArray,
    ones,
)
from pimgasm.trace import C_ADD, C_AND3, R, W, OpTrace


def make_sub(rows=16, cols=8):
    return SubArray(rows=rows, cols=cols, layout=RowLayout.default(rows), op_trace=OpTrace())


def set_triple(sub, a, b, c, col=0):
    sub.write_cell(0, col, a)
    sub.write_cell(1, col, b)
    sub.write_cell(2, col, c)


# three-row truth tables, all 8 patterns, every tap


@pytest.mark.parametrize("pattern", range(8))
def test_all_taps_match_threshold_oracle(pattern):
    sub = make_sub()
    a, b, c = (pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1
    set_triple(sub, a, b, c)
    out = sub.activate((0, 1, 2), XOR3_CFG)
    s = a + b + c
    assert out.bit("or3", 0) == int(s >= 1)
    assert out.bit("maj", 0) == int(s >= 2)
    assert out.bit("and3", 0) == int(s == 3)
    assert out.bit("xor3", 0) == s % 2
    assert out.bit("nor3", 0) == int(s < 1)
    assert out.bit("min3", 0) == int(s < 2)
    assert out.bit("nand3", 0) == int(s != 3)


@pytest.mark.parametrize("pattern", range(8))
def test_parity_from_majority_identity(pattern):
    # parity == (NOT maj AND or3) OR (maj AND and3) on every pattern
    sub = make_sub()
    a, b, c = (pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1
    set_triple(sub, a, b, c)
    out = sub.activate((0, 1, 2), XOR3_CFG)
    maj, or3, and3 = out.bit("maj", 0), out.bit("or3", 0), out.bit("and3", 0)
    assert out.bit("xor3", 0) == ((1 - maj) & or3) | (maj & and3)


def test_full_adder_in_one_activation():
    sub = make_sub()
    for pattern in range(8):
        a, b, c = (pattern >> 2) & 1, (pattern >> 1) & 1, pattern & 1
        set_triple(sub, a, b, c)
        total = a + b + c
        s, carry = sub.full_add_cycle((0, 1, 2))
        assert (s & 1, carry & 1) == (total % 2, total // 2)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=60)
def test_activation_is_columnwise(ra, rb, rc):
    sub = make_sub(cols=8)
    sub.write_row(0, ra)
    sub.write_row(1, rb)
    sub.write_row(2, rc)
    out = sub.activate((0, 1, 2), XOR3_CFG)
    for col in range(8):
        s = ((ra >> col) & 1) + ((rb >> col) & 1) + ((rc >> col) & 1)
        assert out.bit("maj", col) == int(s >= 2)
        assert out.bit("xor3", col) == s % 2
        assert out.bit("and3", col) == int(s == 3)


# config legality and cost classes


def test_only_five_configs_are_legal():
    legal = {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1)}
    for bits in range(16):
        tup = ((bits >> 3) & 1, (bits >> 2) & 1, (bits >> 1) & 1, bits & 1)
        if tup in legal:
            SenseConfig(*tup)
        else:
            with pytest.raises(ConfigError):
                SenseConfig(*tup)


def test_cost_classes():
    assert AND3_CFG.cost_class == C_AND3
    assert MAJ_CFG.cost_class == C_AND3
    assert OR3_CFG.cost_class == C_AND3
    assert XOR3_CFG.cost_class == C_ADD
    assert SenseConfig(0, 0, 0, 1).is_read


def test_activate_rejects_read_config():
    sub = make_sub()
    with pytest.raises(ConfigError):
        sub.activate((0, 1, 2), SenseConfig(0, 0, 0, 1))


def test_activate_requires_three_distinct_rows():
    sub = make_sub()
    with pytest.raises(AddressError):
        sub.activate((0, 1), MAJ_CFG)
    with pytest.raises(AddressError):
        sub.activate((0, 1, 1), MAJ_CFG)
    with pytest.raises(AddressError):
        sub.activate((0, 1, 99), MAJ_CFG)


def test_activate_charges_one_cycle_of_its_class():
    sub = make_sub()
    sub.activate((0, 1, 2), MAJ_CFG)
    assert sub.trace.total(C_AND3) == 1
    sub.activate((0, 1, 2), XOR3_CFG)
    assert sub.trace.total(C_ADD) == 1


# two-input emulation through init rows


@pytest.mark.parametrize("op", sorted(LOGIC2))
def test_two_input_ops_via_init_rows(op):
    oracle = {
        "and2": lambda a, b: a & b,
        "nand2": lambda a, b: 1 - (a & b),
        "or2": lambda a, b: a | b,
        "nor2": lambda a, b: 1 - (a | b),
        "xor2": lambda a, b: a ^ b,
        "xnor2": lambda a, b: 1 - (a ^ b),
    }[op]
    sub = make_sub()
    for a in (0, 1):
        for b in (0, 1):
            sub.write_cell(0, 0, a)
            sub.write_cell(1, 0, b)
            got = sub.logic2(0, 1, op)
            assert got & 1 == oracle(a, b), op


# row layout and write protection


def test_default_layout_geometry():
    lay = RowLayout.default(1024)
    assert lay.init0_row == 1023
    assert lay.init1_row == 1022
    assert len(lay.carry_rows) == 2
    assert len(lay.temp_rows) == 2
    assert lay.data_region == range(0, 1018)
    assert len(set(lay.special_rows())) == 6


def test_layout_rejects_overlap():
    with pytest.raises(ConfigError):
        RowLayout(
            init0_row=0, init1_row=0, carry_rows=(1, 2), temp_rows=(3, 4),
            data_region=range(5, 10),
        )


def test_init_rows_hold_constants_and_reject_writes():
    sub = make_sub(cols=8)
    lay = sub.layout
    assert sub.read_row(lay.init0_row) == 0
    assert sub.read_row(lay.init1_row) == ones(8)
    for row in (lay.init0_row, lay.init1_row):
        with pytest.raises(ProtectionError):
            sub.write_cell(row, 0, 1)


def test_write_and_read_cost_one_event_each():
    sub = make_sub()
    t = sub.trace
    sub.write_row(0, 0b1010)
    assert t.total(W) == 1
    sub.write_masked(1, 0b101 << 2, 0b111 << 2)
    assert t.total(W) == 2
    sub.write_cell(2, 0, 1)
    assert t.total(W) == 3
    sub.read_row(0)
    assert t.total(R) == 1
    assert sub.read_row(1) == 0b10100
    assert t.total(R) == 2


def test_write_masked_keeps_unmasked_columns():
    sub = make_sub(cols=8)
    sub.write_row(0, 0b11111111)
    sub.write_masked(0, 0b000 << 2, 0b111 << 2)
    assert sub.read_row(0) == 0b11100011


def test_out_of_range_addresses():
    sub = make_sub(rows=16, cols=8)
    with pytest.raises(AddressError):
        sub.write_cell(16, 0, 1)
    with pytest.raises(AddressError):
        sub.write_cell(0, 8, 1)
    with pytest.raises(AddressError):
        sub.read_row(-1)


def test_oversized_row_value_rejected():
    sub = make_sub(cols=8)
    with pytest.raises(ConfigError):
        sub.write_row(0, 1 << 9)
    with pytest.raises(AddressError):
        sub.write_masked(0, 0, 1 << 8)
