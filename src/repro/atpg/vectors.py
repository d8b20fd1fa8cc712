"""Test-set containers and replay.

The ATPG engine produces tests as per-frame PI assignments plus an optional
PIER pre-load state.  This module gives them a stable, name-keyed form that
survives netlist rebuilds, and a replay helper that re-measures fault
coverage on any structurally compatible netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.synth.netlist import Netlist


@dataclass
class Test:
    """One test: a vector sequence plus an optional register pre-load."""

    __test__ = False  # not a pytest class

    vectors: List[Dict[str, int]]            # PI name -> bit, per frame
    initial_state: Dict[str, int] = field(default_factory=dict)

    @property
    def length(self) -> int:
        return len(self.vectors)


class TestSet:
    """A named collection of tests."""

    __test__ = False  # not a pytest class

    def __init__(self, name: str):
        self.name = name
        self.tests: List[Test] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def from_engine(cls, engine, netlist: Netlist,
                    name: Optional[str] = None) -> "TestSet":
        """Capture the tests recorded by an :class:`AtpgEngine` run."""
        out = cls(name or netlist.name)
        for vectors, init in engine.tests:
            named_vectors = [
                {netlist.net_name(pi): bit for pi, bit in vec.items()}
                for vec in vectors
            ]
            named_init = {
                netlist.net_name(q): bit for q, bit in init.items()
            }
            out.tests.append(Test(vectors=named_vectors,
                                  initial_state=named_init))
        return out

    def add(self, test: Test) -> None:
        self.tests.append(test)

    @property
    def num_vectors(self) -> int:
        return sum(t.length for t in self.tests)

    # -- replay ------------------------------------------------------------------

    def measure_coverage(self, netlist: Netlist,
                         region: Optional[str] = None,
                         extra_observables: Optional[Sequence[int]] = None
                         ) -> float:
        """Fault-simulate every test against ``netlist``; returns coverage %
        over the (region-filtered) collapsed fault list."""
        from repro.atpg.fault_sim import FaultSimulator
        from repro.atpg.faults import build_fault_list

        pi_by_name = {netlist.net_name(pi): pi for pi in netlist.pis}
        q_by_name = {netlist.net_name(d.output): d.output
                     for d in netlist.dffs()}
        faults = build_fault_list(netlist, region=region)
        if not faults:
            return 100.0
        fsim = FaultSimulator(netlist)
        remaining = set(faults)
        for test in self.tests:
            if not remaining:
                break
            vectors = [
                {pi_by_name[n]: bit for n, bit in vec.items()
                 if n in pi_by_name}
                for vec in test.vectors
            ]
            init = {
                q_by_name[n]: bit
                for n, bit in test.initial_state.items() if n in q_by_name
            }
            remaining -= fsim.detected_faults(
                vectors, sorted(remaining), initial_state=init or None,
                extra_observables=extra_observables,
            )
        return 100.0 * (len(faults) - len(remaining)) / len(faults)
