"""Fault simulator tests, including equivalence against a brute-force
serial reference implementation (stuck-at and SEU faults alike)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import (Fault, build_fault_list,
                               build_transient_fault_list)
from repro.designs import adder_source, counter_source, fsm_source
from repro.hierarchy import Design
from repro.obs import get_registry
from repro.synth import synthesize
from repro.synth.netlist import CONST0, CONST1, GateType, Netlist
from repro.verilog.parser import parse_source

from tests.sim_helpers import random_bit_vectors, random_netlist


def netlist_of(src, top=None):
    return synthesize(Design(parse_source(src), top=top))


def serial_reference(netlist, vectors, faults, initial_state=None,
                     extra_observables=()):
    """Brute force: one full two-valued-with-X simulation per fault.

    Shares no code with either backend.  A ``TransientFault`` is forced
    only in its flip cycle, a stuck-at fault in every cycle.
    """
    observe = list(netlist.pos) + list(extra_observables)

    def run(fault):
        state = {dff.output: (initial_state or {}).get(dff.output)
                 for dff in netlist.dffs()}
        good_state = dict(state)
        for cycle, vec in enumerate(vectors):
            good = _cycle(netlist, vec, good_state, None, cycle)
            bad = _cycle(netlist, vec, state, fault, cycle)
            good_state = {d.output: good.get(d.inputs[0])
                          for d in netlist.dffs()}
            state = {d.output: bad.get(d.inputs[0]) for d in netlist.dffs()}
            for po in observe:
                g, f = good.get(po), bad.get(po)
                if g is not None and f is not None and g != f:
                    return True
        return False

    return {fault for fault in faults if run(fault)}


def first_reference(netlist, sequences, faults, initial_state=None,
                    extra_observables=()):
    """Per sequence, the faults it detects first: the fault-dropping loop
    over :func:`serial_reference`."""
    remaining = list(faults)
    found = []
    for vectors in sequences:
        hit = serial_reference(netlist, vectors, remaining, initial_state,
                               extra_observables)
        found.append(hit)
        remaining = [f for f in remaining if f not in hit]
    return found


def _cycle(netlist, vec, state, fault, cycle):
    values = {CONST0: 0, CONST1: 1}
    live = fault is not None and getattr(fault, "cycle", cycle) == cycle

    def inject(net, val):
        if live and net == fault.net:
            return fault.value
        return val

    for pi in netlist.pis:
        values[pi] = inject(pi, vec.get(pi))
    for dff in netlist.dffs():
        values[dff.output] = inject(dff.output, state.get(dff.output))
    for gate in netlist.topological_order():
        ins = [values.get(i) for i in gate.inputs]
        values[gate.output] = inject(gate.output, _eval(gate.type, ins))
    return values


def _eval(gtype, ins):
    if gtype is GateType.BUF:
        return ins[0]
    if gtype is GateType.NOT:
        return None if ins[0] is None else 1 - ins[0]
    if gtype in (GateType.AND, GateType.NAND):
        if any(i == 0 for i in ins):
            val = 0
        elif any(i is None for i in ins):
            return None
        else:
            val = 1
        return (1 - val) if gtype is GateType.NAND else val
    if gtype in (GateType.OR, GateType.NOR):
        if any(i == 1 for i in ins):
            val = 1
        elif any(i is None for i in ins):
            return None
        else:
            val = 0
        return (1 - val) if gtype is GateType.NOR else val
    if any(i is None for i in ins):
        return None
    val = 0
    for i in ins:
        val ^= i
    return (1 - val) if gtype is GateType.XNOR else val


def random_vectors(netlist, cycles, seed, reset_name="rst"):
    rng = random.Random(seed)
    vectors = []
    for cycle in range(cycles):
        vec = {pi: rng.randint(0, 1) for pi in netlist.pis}
        if cycle == 0:
            for pi in netlist.pis:
                if netlist.net_name(pi) == reset_name:
                    vec[pi] = 1
        vectors.append(vec)
    return vectors


class TestAgainstSerialReference:
    @pytest.mark.parametrize("src,top", [
        (adder_source(), None),
        (counter_source(), None),
        (fsm_source(), None),
    ])
    def test_matches_reference(self, src, top):
        nl = netlist_of(src, top)
        faults = build_fault_list(nl)
        vectors = random_vectors(nl, 12, seed=3)
        fsim = FaultSimulator(nl, lanes=8)  # force multiple blocks
        fast = fsim.detected_faults(vectors, faults)
        slow = serial_reference(nl, vectors, faults)
        assert fast == slow

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_reference_random_seeds(self, seed):
        nl = netlist_of(fsm_source())
        faults = build_fault_list(nl)
        vectors = random_vectors(nl, 10, seed=seed)
        fast = FaultSimulator(nl, lanes=16).detected_faults(vectors, faults)
        slow = serial_reference(nl, vectors, faults)
        assert fast == slow

    @pytest.mark.parametrize("backend", ["interpreted", "arena"])
    @pytest.mark.parametrize("src", [adder_source(), counter_source(),
                                     fsm_source()],
                             ids=["adder", "counter", "fsm"])
    def test_transients_match_reference(self, src, backend):
        nl = netlist_of(src)
        vectors = random_vectors(nl, 12, seed=5)
        faults = build_transient_fault_list(nl, len(vectors), sample=240,
                                            seed=17)
        # Narrow lanes force many blocks, and blocks of upsets that start
        # at later flip cycles.
        fsim = FaultSimulator(nl, lanes=8, backend=backend)
        fast = fsim.detected_faults(vectors, faults)
        slow = serial_reference(nl, vectors, faults)
        assert slow  # the sample must exercise detection
        assert fast == slow

    @pytest.mark.parametrize("count", [1, 3, 17])
    @pytest.mark.parametrize("preset", [False, True],
                             ids=["x-state", "preset"])
    def test_batch_first_detections_match_reference(self, count, preset):
        """A batch of sequences (17 crosses a 16-bit sequence mask) with
        X inputs, stuck-at faults and upsets in one list, and optionally
        a preset initial state and an extra observe point, graded on
        both backends at several lane widths.  The last sequence has no
        X input, so it still detects faults the X-heavy ones missed."""
        nl = random_netlist(21, num_pis=5, num_dffs=4, num_gates=30)
        length = 6
        sequences = [random_bit_vectors(nl, cycles=length, seed=300 + k,
                                        x_rate=0.6 if k < count - 1
                                        else 0.0)
                     for k in range(count)]
        faults = build_fault_list(nl) + build_transient_fault_list(
            nl, length, sample=60, seed=9)
        initial_state = extra = None
        if preset:
            qs = [d.output for d in nl.dffs()]
            initial_state = {qs[0]: 1, qs[1]: 0, qs[2]: 1}
            extra = [g.output for g in nl.gates[:2]
                     if g.type is not GateType.DFF]
        slow = first_reference(nl, sequences, faults, initial_state,
                               extra or ())
        assert slow[-1]  # the batch must exercise its last sequence
        for backend in ("interpreted", "arena"):
            for lanes in (2, 5, 512):
                fsim = FaultSimulator(nl, lanes=lanes, backend=backend)
                fast = fsim.first_detections(sequences, faults,
                                             initial_state, extra)
                assert fast == slow, (backend, lanes)

    @pytest.mark.parametrize("backend", ["interpreted", "arena"])
    def test_fault_detected_twice_is_reported_first(self, backend):
        """Sequences 2 and 5 are equal, so every fault 2 detects, 5 does
        too: the batch reports it under 2 only."""
        nl = netlist_of(fsm_source())
        faults = build_fault_list(nl)
        sequences = [random_vectors(nl, 8, seed=40 + k) for k in range(7)]
        sequences[5] = [dict(vec) for vec in sequences[2]]
        fsim = FaultSimulator(nl, lanes=5, backend=backend)
        found = fsim.first_detections(sequences, faults)
        assert found == first_reference(nl, sequences, faults)
        assert found[2]
        assert fsim.detected_faults(sequences[5], sorted(found[2])) \
            == found[2]
        assert not found[5] & found[2]
        for k, hit in enumerate(found):
            assert all(not hit & other for other in found[k + 1:])

    def test_unequal_lengths_rejected(self):
        nl = netlist_of(counter_source())
        fsim = FaultSimulator(nl)
        with pytest.raises(ValueError):
            fsim.first_detections([random_vectors(nl, 3, seed=1),
                                   random_vectors(nl, 4, seed=2)],
                                  build_fault_list(nl))

    def test_lane_count_does_not_change_result(self):
        nl = netlist_of(counter_source())
        faults = build_fault_list(nl)
        vectors = random_vectors(nl, 10, seed=11)
        r2 = FaultSimulator(nl, lanes=2).detected_faults(vectors, faults)
        r64 = FaultSimulator(nl, lanes=64).detected_faults(vectors, faults)
        assert r2 == r64


class TestBasicDetection:
    def test_stuck_output_detected(self):
        # y = a; fault y-sa0 detected by a=1.
        nl = Netlist()
        a = nl.add_pi("a")
        y = nl.add_gate(GateType.BUF, (a,))
        nl.add_po(y, "y")
        fsim = FaultSimulator(nl, lanes=4)
        assert fsim.detected_faults([{a: 1}], [Fault(y, 0)]) == {Fault(y, 0)}
        assert fsim.detected_faults([{a: 0}], [Fault(y, 0)]) == set()

    def test_x_inputs_do_not_detect(self):
        nl = Netlist()
        a = nl.add_pi("a")
        y = nl.add_gate(GateType.BUF, (a,))
        nl.add_po(y, "y")
        fsim = FaultSimulator(nl, lanes=4)
        assert fsim.detected_faults([{}], [Fault(y, 0)]) == set()

    def test_uninitialised_flop_blocks_detection(self):
        nl = netlist_of(counter_source())
        faults = build_fault_list(nl)
        fsim = FaultSimulator(nl)
        # Without ever asserting reset, q is X: nothing can be detected
        # through the counter outputs.
        vectors = [{pi: 0 for pi in nl.pis} for _ in range(5)]
        for vec in vectors:
            for pi in nl.pis:
                if nl.net_name(pi) == "en":
                    vec[pi] = 1
        detected = fsim.detected_faults(vectors, faults)
        # Only faults observable through always-binary paths may show; the
        # counter bits themselves stay X, so detection is heavily limited.
        q_nets = {po for po, name in nl.po_pairs if name.startswith("q")}
        assert all(f.net not in q_nets for f in detected)

    def test_needs_at_least_two_lanes(self):
        nl = netlist_of(counter_source())
        with pytest.raises(ValueError):
            FaultSimulator(nl, lanes=1)


class TestPierExtensions:
    def test_initial_state_enables_detection(self):
        nl = netlist_of(counter_source())
        fsim = FaultSimulator(nl)
        wrap_net = next(po for po, name in nl.po_pairs if name == "wrap")
        fault = Fault(wrap_net, 0)
        vec = {pi: 0 for pi in nl.pis}
        # Without a known state the fault is undetectable in one cycle...
        assert fsim.detected_faults([vec], [fault]) == set()
        # ...but pre-loading the counter register to all-ones exposes it.
        init = {dff.output: 1 for dff in nl.dffs()}
        assert fsim.detected_faults([vec], [fault], initial_state=init) == {
            fault
        }

    def test_extra_observables(self):
        # Internal net observed via the PIER store path.
        nl = Netlist()
        a = nl.add_pi("a")
        hidden = nl.add_gate(GateType.NOT, (a,))
        q = nl.add_gate(GateType.DFF, (hidden,))
        unused = nl.add_gate(GateType.AND, (q, a))
        nl.add_po(unused, "y")
        fsim = FaultSimulator(nl, lanes=4)
        fault = Fault(hidden, 0)
        vec = {a: 0}  # hidden should be 1; fault forces 0
        assert fsim.detected_faults([vec], [fault]) == set()
        assert fsim.detected_faults(
            [vec], [fault], extra_observables=[hidden]
        ) == {fault}


class TestBatchCounters:
    COUNTERS = ("fault_sim.faults_simulated",
                "fault_sim.arena.filtered_undetectable",
                "fault_sim.seu_injections", "fault_sim.sequences")

    def _counts(self):
        snap = get_registry().snapshot("fault_sim.")
        return {name: snap[name]["value"] if name in snap else 0
                for name in self.COUNTERS}

    @pytest.mark.parametrize("backend", ["interpreted", "arena"])
    def test_batch_counts_pairs_like_single_calls(self, backend):
        """Workload counters count (fault, sequence) pairs: one batched
        call adds what the same sequences add graded one at a time
        without dropping, and ``fault_sim.calls`` counts the call once."""
        nl = netlist_of(fsm_source())
        sequences = [random_vectors(nl, 6, seed=60 + k) for k in range(5)]
        faults = build_fault_list(nl) + build_transient_fault_list(
            nl, 6, sample=40, seed=3)
        fsim = FaultSimulator(nl, lanes=8, backend=backend)
        registry = get_registry()
        registry.reset()
        for vectors in sequences:
            fsim.detected_faults(vectors, faults)
        single = self._counts()
        registry.reset()
        fsim.first_detections(sequences, faults)
        batch = self._counts()
        calls = registry.snapshot("fault_sim.calls")["fault_sim.calls"]
        registry.reset()
        assert batch == single
        assert batch["fault_sim.faults_simulated"] == 5 * len(faults)
        assert batch["fault_sim.sequences"] == 5
        assert calls["value"] == 1
