"""Five-valued D-algebra for test generation.

Values are encoded as ``(good, faulty)`` machine bit pairs where each
component is 0, 1 or X::

    V0    = (0, 0)
    V1    = (1, 1)
    VD    = (1, 0)   # "D"  — good machine 1, faulty machine 0
    VDBAR = (0, 1)   # "D'" — good machine 0, faulty machine 1
    VX    = (X, X)

Operation tables for AND/OR/XOR/NOT are precomputed over the five values by
evaluating the three-valued operation on each machine component.
"""

from __future__ import annotations

from typing import List

V0 = 0
V1 = 1
VD = 2
VDBAR = 3
VX = 4

ALL_VALUES = (V0, V1, VD, VDBAR, VX)

_NAMES = {V0: "0", V1: "1", VD: "D", VDBAR: "D'", VX: "X"}

# Per-machine components: 0, 1 or None (= X).
_COMPONENTS = {
    V0: (0, 0),
    V1: (1, 1),
    VD: (1, 0),
    VDBAR: (0, 1),
    VX: (None, None),
}


def value_name(value: int) -> str:
    return _NAMES[value]


def good_bit(value: int):
    """Good-machine component: 0, 1 or None for unknown."""
    return _COMPONENTS[value][0]


def faulty_bit(value: int):
    """Faulty-machine component: 0, 1 or None for unknown."""
    return _COMPONENTS[value][1]


def from_components(good, faulty) -> int:
    """Build a five-valued value from machine components (None = X).

    Pairs with exactly one unknown component collapse to X (the five-valued
    algebra cannot represent them).
    """
    if good is None or faulty is None:
        return VX
    if good == 1 and faulty == 1:
        return V1
    if good == 0 and faulty == 0:
        return V0
    if good == 1 and faulty == 0:
        return VD
    return VDBAR


def _and3(a, b):
    if a == 0 or b == 0:
        return 0
    if a is None or b is None:
        return None
    return 1


def _or3(a, b):
    if a == 1 or b == 1:
        return 1
    if a is None or b is None:
        return None
    return 0


def _xor3(a, b):
    if a is None or b is None:
        return None
    return a ^ b


def _not3(a):
    if a is None:
        return None
    return 1 - a


def _build_table(op3) -> List[List[int]]:
    table = [[VX] * 5 for _ in range(5)]
    for a in ALL_VALUES:
        for b in ALL_VALUES:
            ag, af = _COMPONENTS[a]
            bg, bf = _COMPONENTS[b]
            table[a][b] = from_components(op3(ag, bg), op3(af, bf))
    return table


AND_TABLE = _build_table(_and3)
OR_TABLE = _build_table(_or3)
XOR_TABLE = _build_table(_xor3)
NOT_TABLE = [
    from_components(_not3(_COMPONENTS[v][0]), _not3(_COMPONENTS[v][1]))
    for v in ALL_VALUES
]


def v_and(a: int, b: int) -> int:
    return AND_TABLE[a][b]


def v_or(a: int, b: int) -> int:
    return OR_TABLE[a][b]


def v_xor(a: int, b: int) -> int:
    return XOR_TABLE[a][b]


def v_not(a: int) -> int:
    return NOT_TABLE[a]


def is_d_value(value: int) -> bool:
    """True for D or D' — a fault effect."""
    return value == VD or value == VDBAR
