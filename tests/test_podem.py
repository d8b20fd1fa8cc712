"""PODEM tests.

The central soundness property: when PODEM reports "detected", fault
simulation of the extracted vector sequence must actually detect the fault;
when it reports "untestable" after an exhaustive search, no input may detect
it (checked over every assignment on small single-frame netlists).
"""

import pytest

from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import Fault, build_fault_list
from repro.atpg.podem import Podem
from repro.atpg.sequential import OP_DFF, OP_SOURCE, UnrolledModel
from repro.atpg.simulator import eval_gate
from repro.atpg.values import VX
from repro.designs import adder_source, counter_source, fsm_source
from repro.hierarchy import Design
from repro.synth import synthesize
from repro.synth.netlist import CONST0, CONST1, GateType, Netlist
from repro.verilog.parser import parse_source

from tests.sim_helpers import random_netlist


def netlist_of(src, top=None):
    return synthesize(Design(parse_source(src), top=top))


def run_podem(netlist, fault, frames=1, piers=None, backtrack_limit=2000):
    model = UnrolledModel(netlist, frames, pier_qs=piers)
    return Podem(model, fault, backtrack_limit=backtrack_limit).run()


class TestCombinational:
    def test_all_adder_faults_handled(self):
        nl = netlist_of(adder_source())
        fsim = FaultSimulator(nl)
        for fault in build_fault_list(nl):
            result = run_podem(nl, fault)
            assert result.status in ("detected", "untestable")
            if result.detected:
                assert fsim.detected_faults(result.vectors, [fault]) == {
                    fault
                }, fault.describe(nl)

    def test_redundant_fault_proven_untestable(self):
        # y = a & ~a  is constant 0: the AND output s-a-0 is undetectable.
        nl = Netlist()
        a = nl.add_pi("a")
        na = nl.add_gate(GateType.NOT, (a,))
        y = nl.add_gate(GateType.AND, (a, na))
        nl.add_po(y, "y")
        result = run_podem(nl, Fault(y, 0))
        assert result.status == "untestable"
        # The s-a-1 on the same net IS testable.
        result1 = run_podem(nl, Fault(y, 1))
        assert result1.detected

    def test_fault_on_pi(self):
        nl = Netlist()
        a = nl.add_pi("a")
        b = nl.add_pi("b")
        y = nl.add_gate(GateType.AND, (a, b))
        nl.add_po(y, "y")
        result = run_podem(nl, Fault(a, 0))
        assert result.detected
        # Test must set a=1, b=1.
        assert result.vectors[0] == {a: 1, b: 1}

    def test_unobservable_fault_untestable(self):
        nl = Netlist()
        a = nl.add_pi("a")
        nl.add_gate(GateType.NOT, (a,))  # dangling
        y = nl.add_gate(GateType.BUF, (a,))
        nl.add_po(y, "y")
        dangling = nl.gates[0].output
        result = run_podem(nl, Fault(dangling, 0))
        assert result.status == "untestable"

    def test_fault_effects_that_cancel_during_injection(self):
        # s = BUF(1) stuck-at-0 reaches y = XOR(s', s'') along paths of
        # length 1 and 2.  Injection first sees y = XOR(D, 1) = D', then
        # y = XOR(D, D) = 0: the D' must not outlive the second change.
        nl = Netlist()
        nl.add_pi("a")
        s = nl.add_gate(GateType.BUF, (CONST1,))
        short = nl.add_gate(GateType.BUF, (s,))
        mid = nl.add_gate(GateType.BUF, (s,))
        long = nl.add_gate(GateType.BUF, (mid,))
        y = nl.add_gate(GateType.XOR, (short, long))
        nl.add_po(y, "y")
        result = run_podem(nl, Fault(s, 0))
        assert result.status == "untestable"
        assert result.implications == 5  # short, mid, y, long, y again

    def test_backtrack_limit_aborts(self):
        # An 18-bit comparator against a constant forces a deep search for
        # the equality cone with a tiny backtrack budget.
        src = """
        module m(input [17:0] a, output y);
          assign y = a == 18'h2a5a5;
        endmodule
        """
        nl = netlist_of(src)
        y_net = nl.pos[0]
        result = run_podem(nl, Fault(y_net, 0), backtrack_limit=0)
        assert result.status in ("aborted", "detected")
        # With budget it must be found.
        good = run_podem(nl, Fault(y_net, 0), backtrack_limit=5000)
        assert good.detected


class TestSequential:
    def test_fsm_fault_needs_multiple_frames(self):
        nl = netlist_of(fsm_source())
        done_net = next(po for po, name in nl.po_pairs if name == "done")
        fault = Fault(done_net, 1)
        # 'done' s-a-1: need state != 11 with a justified (reset) state:
        # two frames suffice (reset, observe).
        shallow = run_podem(nl, fault, frames=1)
        assert not shallow.detected
        deep = run_podem(nl, fault, frames=3)
        assert deep.detected
        fsim = FaultSimulator(nl)
        assert fsim.detected_faults(deep.vectors, [fault]) == {fault}

    def test_detected_vectors_replay_in_fault_simulator(self):
        nl = netlist_of(counter_source())
        fsim = FaultSimulator(nl)
        checked = 0
        for fault in build_fault_list(nl):
            result = run_podem(nl, fault, frames=6)
            if result.detected:
                assert fsim.detected_faults(result.vectors, [fault]) == {
                    fault
                }, fault.describe(nl)
                checked += 1
        assert checked > 10  # most counter faults are testable

    def test_frame0_state_is_unassignable(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        n = model.num_nets
        for dff in nl.dffs():
            q = dff.output
            # Frame 0: an X source nothing can set.
            assert model.key_op[q] == OP_SOURCE
            assert model.base_plane[q] == VX
            assert not model.key_assignable[q]
            assert not model.key_controllable[q]
            # Frame 1: the copy of frame 0's D.
            assert model.key_op[n + q] == OP_DFF
            assert not model.key_assignable[n + q]

    def test_pier_makes_state_assignable(self):
        nl = netlist_of(counter_source())
        q0 = nl.dffs()[0].output
        model = UnrolledModel(nl, 2, pier_qs={q0})
        n = model.num_nets
        assert model.key_assignable[q0]
        assert model.key_controllable[q0]
        assert not model.key_assignable[n + q0]
        # The D input of a PIER flop is observable in the last frame.
        assert n + nl.dffs()[0].inputs[0] in model.observable_keys

    def test_pier_enables_detection(self):
        # wrap = &cnt requires cnt == 15, reachable only through 15 counts
        # ... or one PIER load.
        nl = netlist_of(counter_source())
        wrap_net = next(po for po, name in nl.po_pairs if name == "wrap")
        fault = Fault(wrap_net, 0)
        piers = {dff.output for dff in nl.dffs()}
        without = run_podem(nl, fault, frames=2)
        with_pier = run_podem(nl, fault, frames=2, piers=piers)
        assert with_pier.detected
        assert not without.detected
        assert with_pier.initial_state  # the loaded register values

    def test_result_accounting(self):
        nl = netlist_of(counter_source())
        fault = build_fault_list(nl)[0]
        result = run_podem(nl, fault, frames=4)
        assert result.frames == 4
        assert result.cpu_seconds >= 0.0
        assert result.backtracks >= 0
        assert result.decisions >= 0


class TestVectorShape:
    def test_vectors_cover_every_frame_and_pi(self):
        nl = netlist_of(counter_source())
        fault = build_fault_list(nl)[3]
        result = run_podem(nl, fault, frames=5)
        if result.detected:
            assert len(result.vectors) == result.frames
            for vec in result.vectors:
                assert set(vec) == set(nl.pis)
                assert all(bit in (0, 1) for bit in vec.values())


class TestCanonicalFrontierOrder:
    """The objective visits D-frontier gates deepest first, ties by net,
    whatever the net ids are."""

    def _two_way_fanout(self, pad, extra_level=False):
        # a fans out to g1 = AND(a, b) and g2 = AND(a, c), or with
        # ``extra_level`` g2 = AND(BUF(a), c).  The POs are declared g2
        # first, so the topological (fanout) order lists g2 before g1
        # while g1 has the smaller net id.  ``pad`` unused PIs shift
        # every net id.
        nl = Netlist()
        for k in range(pad):
            nl.add_pi(f"pad{k}")
        a, b, c = (nl.add_pi(name) for name in "abc")
        g1 = nl.add_gate(GateType.AND, (a, b))
        src = nl.add_gate(GateType.BUF, (a,)) if extra_level else a
        g2 = nl.add_gate(GateType.AND, (src, c))
        nl.add_po(g2, "y2")
        nl.add_po(g1, "y1")
        assert g1 < g2
        return nl, a, b, c

    @pytest.mark.parametrize("pad", range(4))
    def test_equal_levels_break_ties_by_net_id(self, pad):
        nl, a, b, c = self._two_way_fanout(pad)
        result = run_podem(nl, Fault(a, 0))
        # Both AND gates sit at level 1 with D on input a: g1 wins.
        assert result.detected
        assert (result.vectors[0][a], result.vectors[0][b],
                result.vectors[0][c]) == (1, 1, 0)
        assert result.decisions == 2

    @pytest.mark.parametrize("pad", range(4))
    def test_deeper_gate_first(self, pad):
        nl, a, b, c = self._two_way_fanout(pad, extra_level=True)
        result = run_podem(nl, Fault(a, 0))
        # g2 now reads a through a buffer (level 2): it beats g1.
        assert result.detected
        assert (result.vectors[0][a], result.vectors[0][b],
                result.vectors[0][c]) == (1, 0, 1)


def _exhaustive_detections(nl, fault, sources):
    """Lane mask of the assignments of ``sources`` (PIs and flop Qs, lane
    ``i`` gives source ``k`` bit ``k`` of ``i``) on which one frame of
    ``nl`` shows ``fault`` at a PO or a flop D input, by interpreted
    simulation of the good and the faulty machine."""
    width = 1 << len(sources)
    full = (1 << width) - 1

    def simulate(stuck):
        values = {CONST0: (0, full), CONST1: (full, 0)}
        for k, net in enumerate(sources):
            ones = sum(1 << i for i in range(width) if i >> k & 1)
            values[net] = (ones, full & ~ones)
        if stuck is not None:
            values[stuck.net] = (full, 0) if stuck.value else (0, full)
        for gate in nl.topological_order():
            if stuck is not None and gate.output == stuck.net:
                continue
            values[gate.output] = eval_gate(
                gate.type, [values[i] for i in gate.inputs], full)
        return values

    good, bad = simulate(None), simulate(fault)
    detected = 0
    for net in list(nl.pos) + [dff.inputs[0] for dff in nl.dffs()]:
        detected |= good[net][0] ^ bad[net][0]  # every value is binary
    return detected


class TestVerdictsAgainstExhaustiveSimulation:
    """At one frame with every flop a PIER there is no X source, so
    five-valued PODEM is exact: each verdict can be checked on its own."""

    def test_random_netlists(self):
        verdicts = {"detected": 0, "untestable": 0}
        for seed in range(60):
            nl = random_netlist(seed, num_pis=5, num_dffs=3, num_gates=30)
            piers = {dff.output for dff in nl.dffs()}
            model = UnrolledModel(nl, 1, pier_qs=piers)
            fsim = FaultSimulator(nl, backend="interpreted")
            pier_ds = [dff.inputs[0] for dff in nl.dffs()]
            sources = list(nl.pis) + sorted(piers)
            for fault in build_fault_list(nl):
                result = Podem(model, fault, backtrack_limit=10000).run()
                assert result.status in verdicts, (seed, fault)
                verdicts[result.status] += 1
                if result.detected:
                    assert fsim.detected_faults(
                        result.vectors, [fault],
                        initial_state=result.initial_state or None,
                        extra_observables=pier_ds) == {fault}, (seed, fault)
                else:
                    assert not _exhaustive_detections(nl, fault, sources), \
                        (seed, fault)
        assert verdicts == {"detected": 1666, "untestable": 2490}
