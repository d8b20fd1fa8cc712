"""Shared test helpers: tiny simulation harness over synthesized netlists."""

from typing import Dict, Optional

import pytest


@pytest.fixture(autouse=True)
def _isolated_artifact_store(tmp_path, monkeypatch):
    """Point the persistent artifact store at a per-test temp dir.

    Tests must never read (or pollute) the developer's ~/.cache/repro,
    and a store warmed by an earlier test would make results order
    dependent (and mask recomputation bugs).  Tests that exercise warm
    behavior run the pipeline twice themselves.  For the same reason no
    test starts with the serve worker's warm Factor of an earlier one.
    """
    from repro.serve.worker import drop_warm_factor

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifact-store"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    drop_warm_factor()

from repro.atpg.simulator import LogicSimulator
from repro.hierarchy import Design
from repro.synth import synthesize
from repro.verilog.parser import parse_source


class CircuitHarness:
    """Synthesize a Verilog module and evaluate it like a Python function."""

    def __init__(self, source: str, top: Optional[str] = None,
                 optimize: bool = True):
        self.design = Design(parse_source(source), top=top)
        self.netlist = synthesize(self.design, do_optimize=optimize)
        self.sim = LogicSimulator(self.netlist)
        self._pi_widths: Dict[str, int] = {}
        self._po_widths: Dict[str, int] = {}
        for pi in self.netlist.pis:
            base, _ = _split(self.netlist.net_name(pi))
            self._pi_widths[base] = self._pi_widths.get(base, 0) + 1
        for po in self.netlist.pos:
            base, _ = _split(self.netlist.po_name(po))
            self._po_widths[base] = self._po_widths.get(base, 0) + 1

    def eval(self, **inputs: int) -> Dict[str, Optional[int]]:
        """One combinational evaluation (single cycle, word-level I/O).

        Returns PO word values; an output containing any X bit maps to None.
        """
        bit_inputs: Dict[str, int] = {}
        for name, value in inputs.items():
            width = self._pi_widths[name]
            value &= (1 << width) - 1
            if width == 1:
                bit_inputs[name] = value & 1
            else:
                for i in range(width):
                    bit_inputs[f"{name}[{i}]"] = (value >> i) & 1
        out_bits = self.sim.step_scalar(bit_inputs)
        return self._assemble(out_bits)

    def clock(self, **inputs: int) -> Dict[str, Optional[int]]:
        """One clock cycle (state advances); same I/O convention as eval."""
        return self.eval(**inputs)

    def reset_state(self) -> None:
        self.sim.reset_state()

    def _assemble(self, out_bits) -> Dict[str, Optional[int]]:
        words: Dict[str, Optional[int]] = {}
        for name, bit in out_bits.items():
            base, index = _split(name)
            if self._po_widths[base] == 1 and index is None:
                words[base] = bit
                continue
            current = words.get(base, 0)
            if bit is None or current is None:
                words[base] = None
            else:
                words[base] = current | (bit << (index or 0))
        return words


def _split(name):
    if name.endswith("]") and "[" in name:
        base, idx = name[:-1].rsplit("[", 1)
        return base, int(idx)
    return name, None


@pytest.fixture
def harness():
    return CircuitHarness
