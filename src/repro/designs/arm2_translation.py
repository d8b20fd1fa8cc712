"""Chip-level translation of transformed-module tests for the ARM-2 design.

The paper: "internal registers which can be accessed from the chip level
using the load/store instructions are identified [...]  The patterns
obtained are later translated back to the chip level."

For the ARM-2 substitute this module performs that translation concretely:

- a transformed-module test may pre-load PIER register-file cells
  (``u_core.u_dp.u_rb.u_rf.u_rN.r``); the translator synthesises a MOVI /
  SHL / OR instruction prologue that writes those 16-bit values through the
  normal write port,
- the test body frames already drive chip pins (``inst``, ``mem_rdata``,
  peripherals), so they are replayed as-is after the prologue,
- an ST-instruction epilogue stores the touched registers back to the data
  pins so fault effects captured in the register file become observable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.atpg.vectors import Test, TestSet

_RF_CELL_RE = re.compile(
    r"^u_core\.u_dp\.u_rb\.u_rf\.u_r(?P<idx>[0-7])\.r\[(?P<bit>\d+)\]$"
)

# Opcodes (see designs/arm2.py).
_OP_SHL = 0x5
_OP_OR = 0x3
_OP_MOVI = 0x7
_OP_ST = 0x9

# Scratch registers used by the prologue.  r6/r7 are reserved by convention
# for translated tests (the compiler-style "assembler temporaries").
_TMP = 6
_SHIFT_AMOUNT_REG = 7


def _movi(rd: int, imm8: int) -> int:
    return (_OP_MOVI << 12) | (rd << 9) | (imm8 & 0xFF)


def _shl(rd: int, ra: int, rb: int) -> int:
    return (_OP_SHL << 12) | (rd << 9) | (ra << 6) | (rb << 3)


def _or(rd: int, ra: int, rb: int) -> int:
    return (_OP_OR << 12) | (rd << 9) | (ra << 6) | (rb << 3)


def _st(rb: int) -> int:
    return (_OP_ST << 12) | (rb << 3)


@dataclass
class TranslatedTest:
    """A chip-level test: a reset cycle, then one instruction per frame."""

    prologue: List[int]        # register-load instructions
    body: List[Dict[str, int]]  # original pin assignments per frame
    epilogue: List[int]        # store instructions for observation
    loaded_registers: Dict[int, int] = field(default_factory=dict)
    untranslated_state: Dict[str, int] = field(default_factory=dict)


def load_register_program(index: int, value: int) -> List[int]:
    """Instruction sequence writing a full 16-bit value into r<index>."""
    hi = (value >> 8) & 0xFF
    lo = value & 0xFF
    if hi == 0:
        return [_movi(index, lo)]
    return [
        _movi(_SHIFT_AMOUNT_REG, 8),
        _movi(index, hi),
        _shl(index, index, _SHIFT_AMOUNT_REG),
        _movi(_TMP, lo),
        _or(index, index, _TMP),
    ]


def translate_test(test: Test) -> TranslatedTest:
    """Translate one transformed-module test to the chip level."""
    registers: Dict[int, List[Optional[int]]] = {}
    untranslated: Dict[str, int] = {}
    for name, bit in test.initial_state.items():
        match = _RF_CELL_RE.match(name)
        if match is None:
            untranslated[name] = bit
            continue
        idx = int(match.group("idx"))
        pos = int(match.group("bit"))
        registers.setdefault(idx, [None] * 16)[pos] = bit

    prologue: List[int] = []
    loaded: Dict[int, int] = {}
    for idx in sorted(registers):
        bits = registers[idx]
        value = sum((b or 0) << i for i, b in enumerate(bits))
        loaded[idx] = value
        prologue.extend(load_register_program(idx, value))

    epilogue = [_st(idx) for idx in sorted(loaded)]
    return TranslatedTest(
        prologue=prologue,
        body=[dict(vec) for vec in test.vectors],
        epilogue=epilogue,
        loaded_registers=loaded,
        untranslated_state=untranslated,
    )


def to_chip_vectors(translated: TranslatedTest,
                    pi_names: Sequence[str]) -> List[Dict[str, int]]:
    """Flatten a translated test into chip-level pin vectors.

    The first cycle asserts reset; prologue/epilogue instructions drive the
    ``inst`` pins with zeros elsewhere; body frames pass through verbatim
    (they already name chip pins).
    """
    inst_bits = [n for n in pi_names if n.startswith("inst[")]
    width = len(inst_bits)

    def inst_vector(word: int) -> Dict[str, int]:
        vec = {n: 0 for n in pi_names}
        for i in range(width):
            vec[f"inst[{i}]"] = (word >> i) & 1
        return vec

    vectors: List[Dict[str, int]] = []
    reset = {n: 0 for n in pi_names}
    reset["rst"] = 1
    vectors.append(reset)
    for word in translated.prologue:
        vectors.append(inst_vector(word))
    for frame in translated.body:
        vec = {n: 0 for n in pi_names}
        vec.update({k: v for k, v in frame.items() if k in vec})
        vec["rst"] = 0
        vectors.append(vec)
    for word in translated.epilogue:
        vectors.append(inst_vector(word))
    # One drain cycle so the last writeback/store lands.
    vectors.append({n: 0 for n in pi_names})
    return vectors


def translate_test_set(testset: TestSet,
                       chip_pi_names: Sequence[str]) -> TestSet:
    """Translate a whole transformed-module test set to chip level."""
    out = TestSet(testset.name + "@chip")
    for test in testset.tests:
        translated = translate_test(test)
        out.add(Test(
            vectors=to_chip_vectors(translated, chip_pi_names),
            initial_state={},
        ))
    return out
