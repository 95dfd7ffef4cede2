"""Unit tests for register naming and conventions."""

import pytest

from repro.isa import (
    ARG_REGISTERS,
    NUM_REGISTERS,
    REG_FP,
    REG_RA,
    REG_SP,
    REG_RV,
    REG_ZERO,
    SAVED_REGISTERS,
    TEMP_REGISTERS,
    IsaError,
    register_name,
)

from assembler import parse_register


def test_register_name_round_trips():
    for index in range(NUM_REGISTERS):
        assert parse_register(register_name(index)) == index


def test_raw_names_accepted():
    for index in range(NUM_REGISTERS):
        assert parse_register("r%d" % index) == index


def test_special_register_names():
    assert parse_register("zero") == REG_ZERO
    assert parse_register("ra") == REG_RA
    assert parse_register("sp") == REG_SP
    assert parse_register("fp") == REG_FP
    assert parse_register("rv") == REG_RV


def test_case_and_whitespace_insensitive():
    assert parse_register("  T3 ") == TEMP_REGISTERS[3]


def test_conventions_disjoint():
    special = {REG_ZERO, REG_RA, REG_SP, REG_FP}
    groups = [set(ARG_REGISTERS), set(TEMP_REGISTERS), set(SAVED_REGISTERS),
              special]
    seen = set()
    for group in groups:
        assert not (group & seen)
        seen |= group


def test_unknown_register_rejected():
    with pytest.raises(IsaError):
        parse_register("r99")
    with pytest.raises(IsaError):
        register_name(64)
