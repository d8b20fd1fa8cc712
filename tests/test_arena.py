"""Differential tests for the arena fault-simulation backend.

The arena backend (kernel rows built once per netlist, one batched
good-machine pass, exact undetectability filter, event-driven lane blocks)
must produce detected-fault sets bit-identical to the interpreted oracle on
every netlist — including X inputs, preset flip-flop state, Q-net primary
outputs and extra observe points — at any lane width, for one sequence or
a batch.  Hand-built netlists cover the event kernel's edge cases, and a
pinned gate-evaluation count on arm_alu guards its work.
"""

import gc
import random
import weakref

import pytest

from repro.atpg import arena
from repro.atpg.arena import ArenaFaultSim, get_arena_sim
from repro.atpg.engine import AtpgEngine, AtpgOptions
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import (Fault, TransientFault, build_fault_list,
                               build_transient_fault_list)
from repro.atpg.podem import Podem
from repro.atpg.sequential import UnrolledModel
from repro.core.factor import Factor
from repro.designs import arm2_source
from repro.obs import get_registry
from repro.synth.netlist import GateType, Netlist

from tests.sim_helpers import random_bit_vectors, random_netlist


def detect(nl, backend, vectors, faults, initial_state=None, extra=None,
           lanes=512):
    sim = FaultSimulator(nl, lanes=lanes, backend=backend)
    return sim.detected_faults(vectors, faults, initial_state=initial_state,
                               extra_observables=extra)


# The three simulator configurations every differential case compares: the
# interpreted oracle, the arena at the default lane width (one block on
# these netlists) and the arena cut into many narrow cone-packed blocks.
CONFIGS = (("interpreted", 512), ("arena", 512), ("arena", 5))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_three_backend_equality(seed):
    nl = random_netlist(seed, num_pis=6, num_dffs=4, num_gates=40)
    vectors = random_bit_vectors(nl, cycles=12, seed=seed + 100, x_rate=0.25)
    faults = build_fault_list(nl)
    interp, arena, narrow = (
        detect(nl, backend, vectors, faults, lanes=lanes)
        for backend, lanes in CONFIGS
    )
    assert interp == arena == narrow


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_backend_equality_with_state_and_observables(seed):
    nl = random_netlist(seed, num_pis=5, num_dffs=4, num_gates=30)
    rng = random.Random(seed + 7)
    vectors = random_bit_vectors(nl, cycles=10, seed=seed + 200, x_rate=0.3)
    faults = build_fault_list(nl)
    qs = [d.output for d in nl.dffs()]
    initial_state = {q: rng.randint(0, 1) for q in qs[:2]}
    extra = [g.output for g in nl.gates[:3] if g.type is not GateType.DFF]
    results = [
        detect(nl, backend, vectors, faults, initial_state, extra, lanes)
        for backend, lanes in CONFIGS
    ]
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_equality(seed):
    """17 sequences graded at once, stuck-at faults and upsets mixed, with
    a preset initial state and extra observe points: every configuration
    reports the same first detections, and the interpreted loop grades one
    sequence per call with fault dropping."""
    nl = random_netlist(seed + 30, num_pis=5, num_dffs=4, num_gates=30)
    rng = random.Random(seed)
    sequences = [random_bit_vectors(nl, cycles=8, seed=50 * seed + k,
                                    x_rate=0.3) for k in range(17)]
    faults = build_fault_list(nl) + build_transient_fault_list(
        nl, 8, sample=80, seed=seed)
    qs = [d.output for d in nl.dffs()]
    initial_state = {q: rng.randint(0, 1) for q in qs[:2]}
    extra = [g.output for g in nl.gates[:3] if g.type is not GateType.DFF]
    results = [
        FaultSimulator(nl, lanes=lanes, backend=backend).first_detections(
            sequences, faults, initial_state, extra)
        for backend, lanes in CONFIGS
    ]
    assert results[0] == results[1] == results[2]
    assert any(results[0])


# -- event-kernel edge cases --------------------------------------------------
#
# Small hand-built netlists, every stuck-at fault and every upset of every
# net, graded in batches: the event kernel at 2, 5 and 512 lanes must
# report the interpreted oracle's first detections, and each case asserts
# the detection its structure is about.


def edge_faults(nl, cycles):
    nets = sorted(set(nl.pis) | {g.output for g in nl.gates})
    return ([Fault(n, v) for n in nets for v in (0, 1)]
            + [TransientFault(n, v, c)
               for n in nets for v in (0, 1) for c in range(cycles)])


def edge_case(nl, sequences, faults=None, initial_state=None, extra=None):
    """First detections of the event kernel at 2, 5 and 512 lanes, checked
    against the interpreted oracle."""
    faults = faults or edge_faults(nl, len(sequences[0]))
    oracle = FaultSimulator(nl, backend="interpreted").first_detections(
        sequences, faults, initial_state, extra)
    for lanes in (2, 5, 512):
        assert FaultSimulator(nl, lanes=lanes, backend="arena") \
            .first_detections(sequences, faults, initial_state,
                              extra) == oracle, lanes
    return oracle


def test_edge_effect_cancels_then_reappears():
    """Reconvergent fanout: an effect on ``a`` cancels at ``y`` (two
    differing inputs, no differing output) and reaches ``out`` along a
    deeper path."""
    nl = Netlist("reconverge")
    a, b = nl.add_pi("a"), nl.add_pi("b")
    y = nl.add_gate(GateType.XOR, [nl.add_gate(GateType.BUF, [a]),
                                   nl.add_gate(GateType.NOT, [a])])
    deep = nl.add_gate(GateType.NOT, [nl.add_gate(GateType.NOT, [a])])
    nl.add_po(nl.add_gate(GateType.AND, [y, deep, b]), "out")
    found = edge_case(nl, [[{a: 0, b: 1}, {a: 0, b: 0}],
                           [{a: 1, b: 1}, {a: 0, b: 1}]])
    assert Fault(a, 1) in found[0] and Fault(a, 0) in found[1]


def test_edge_gate_reads_one_net_twice():
    nl = Netlist("twice")
    a, b = nl.add_pi("a"), nl.add_pi("b")
    x = nl.add_gate(GateType.XOR, [a, a])  # an effect on a cancels here
    nl.add_po(nl.add_gate(GateType.OR, [x, nl.add_gate(GateType.NAND,
                                                        [b, b])]), "o")
    found = edge_case(nl, [[{a: 1, b: 1}], [{a: 0, b: 0}], [{a: 1}]])
    assert Fault(b, 0) in found[0] and Fault(b, 1) in found[1]
    assert not any(Fault(a, v) in hit for hit in found for v in (0, 1))


def test_edge_stuck_flop_q_that_is_a_po():
    nl = Netlist("qpo")
    a = nl.add_pi("a")
    q = nl.new_net("q")
    nl.add_gate_to(GateType.DFF, q, [nl.add_gate(GateType.XOR, [a, q])])
    nl.add_po(q, "q")
    nl.add_po(nl.add_gate(GateType.AND, [q, a]), "o")
    found = edge_case(nl, [[{a: 1}, {a: 1}, {a: 0}],
                           [{a: 0}, {a: 0}, {a: 1}]], initial_state={q: 0})
    # Good q is 0 then 1 in the first sequence.
    assert Fault(q, 1) in found[0] and Fault(q, 0) in found[0]


def test_edge_effect_reaches_only_a_flop_d():
    """``g`` feeds nothing but a flop, so its effect is observed a cycle
    later; in the second sequence it is excited only in cycle 1, where
    no input of ``g`` differs and only the site's reseeding carries it."""
    nl = Netlist("donly")
    a, b = nl.add_pi("a"), nl.add_pi("b")
    g = nl.add_gate(GateType.AND, [a, b])
    q = nl.new_net("q")
    nl.add_gate_to(GateType.DFF, q, [g])
    nl.add_po(nl.add_gate(GateType.BUF, [q]), "o")
    found = edge_case(nl, [[{a: 0, b: 1}, {a: 0, b: 0}, {a: 0, b: 0}],
                           [{a: 0, b: 0}, {a: 1, b: 1}, {a: 0, b: 0}]])
    assert Fault(g, 1) in found[0] and TransientFault(g, 1, 0) in found[0]
    assert Fault(g, 0) in found[1] and TransientFault(g, 0, 1) in found[1]


def test_edge_upset_only_block_with_late_flip():
    nl = Netlist("late")
    a = nl.add_pi("a")
    q = nl.new_net("q")
    d = nl.add_gate(GateType.XOR, [a, q])
    nl.add_gate_to(GateType.DFF, q, [d])
    nl.add_po(q, "q")
    vectors = [{a: 1}, {a: 0}, {a: 1}, {a: 1}, {a: 0}]
    nets = (a, q, d)
    upsets = [TransientFault(n, v, c)
              for n in nets for v in (0, 1) for c in (3, 4)]
    found = edge_case(nl, [vectors, vectors[::-1]], upsets,
                      initial_state={q: 0})
    # Good q is 0, 1, 1, 0, 1 and good d 1, 1, 0, 1, 1: a flip of q is
    # seen at once, a flip of d one cycle later through the flop.
    assert TransientFault(q, 1, 3) in found[0]
    assert TransientFault(d, 0, 3) in found[0]
    assert TransientFault(d, 0, 4) not in found[0]


def test_edge_x_initial_state():
    nl = Netlist("xinit")
    a, b = nl.add_pi("a"), nl.add_pi("b")
    q = nl.new_net("q")
    nl.add_gate_to(GateType.DFF, q, [nl.add_gate(GateType.AND, [a, b])])
    nl.add_po(nl.add_gate(GateType.OR, [q, a]), "o")
    nl.add_po(nl.add_gate(GateType.AND, [q, b]), "p")
    found = edge_case(nl, [[{a: 0}, {a: 1, b: 1}, {a: 0, b: 1}],
                           [{b: 1}, {a: 0, b: 1}, {a: 1, b: 0}]])
    # q is X in cycle 0, so forcing it is seen only from cycle 1 on.
    assert Fault(q, 1) in found[0]


def test_edge_site_without_readers_is_an_extra_observable():
    nl = Netlist("noreader")
    a, b, c = nl.add_pi("a"), nl.add_pi("b"), nl.add_pi("c")
    g = nl.add_gate(GateType.NAND, [a, b])  # no readers, not a PO
    nl.add_po(nl.add_gate(GateType.OR, [a, b]), "o")
    found = edge_case(nl, [[{a: 1, b: 1, c: 1}], [{a: 0, b: 1, c: 0}]],
                      extra=[g, c])
    assert {Fault(g, 1), Fault(c, 0)} <= found[0]
    assert {Fault(g, 0), Fault(c, 1)} <= found[1]


def test_short_sequences_and_subsets():
    """ATPG-style calls: one or two vectors, shrinking fault subsets."""
    nl = random_netlist(4, num_pis=6, num_dffs=3, num_gates=30)
    faults = sorted(build_fault_list(nl))
    rng = random.Random(42)
    for cycles in (1, 2, 3):
        vectors = random_bit_vectors(nl, cycles=cycles, seed=cycles,
                                     x_rate=0.2)
        subset = [f for f in faults if rng.random() < 0.5]
        assert (detect(nl, "arena", vectors, subset)
                == detect(nl, "interpreted", vectors, subset))


def test_empty_inputs():
    nl = random_netlist(2)
    sim = FaultSimulator(nl, backend="arena")
    assert sim.detected_faults([], build_fault_list(nl)) == set()
    assert sim.detected_faults(
        random_bit_vectors(nl, cycles=3, seed=1), []) == set()


def test_arena_rebuilt_when_netlist_grows():
    nl = random_netlist(3)
    sim = get_arena_sim(nl)
    assert get_arena_sim(nl) is sim
    pi = nl.add_pi("late")
    nl.add_po(nl.add_gate(GateType.NOT, [pi], name="late_g"), "late_o")
    grown = get_arena_sim(nl)
    assert grown is not sim
    assert grown.num_nets == nl.num_nets


def test_refinement_filter_is_exact():
    """Faults pruned by the ever-binary filter are genuinely undetected:
    simulate every fault through the interpreted oracle and check that the
    filter never drops a detected fault."""
    for seed in (11, 12):
        nl = random_netlist(seed, num_pis=5, num_dffs=3, num_gates=30)
        vectors = random_bit_vectors(nl, cycles=6, seed=seed, x_rate=0.4)
        faults = build_fault_list(nl)
        assert (detect(nl, "arena", vectors, faults)
                == detect(nl, "interpreted", vectors, faults))


def test_codegen_store_hit_compiles_nothing(monkeypatch):
    """A warm ``codegen`` entry is keyed by the simulator's digest alone:
    a second simulator over the netlist loads its good machine from the
    store and compiles nothing."""
    nl = random_netlist(9, num_pis=5, num_dffs=3, num_gates=25)
    ArenaFaultSim(nl).chunks()  # cold: generate, compile, store

    def no_compile(rows, name):
        raise AssertionError("good machine compiled on a warm codegen store")

    monkeypatch.setattr(arena, "_codegen_code_objects", no_compile)
    warm = ArenaFaultSim(nl)
    assert warm.chunks()
    vectors = random_bit_vectors(nl, cycles=6, seed=9, x_rate=0.2)
    faults = build_fault_list(nl)
    (det,), _ = warm.first_detections([vectors], faults)
    monkeypatch.undo()
    assert det == detect(nl, "interpreted", vectors, faults)


def test_one_simulator_per_netlist_shares_the_good_machine():
    """Every fault simulator over a netlist reuses one ArenaFaultSim, so
    they all run the same chunk functions."""
    nl = random_netlist(10)
    sim = get_arena_sim(nl)
    assert FaultSimulator(nl, backend="arena")._arena_sim is sim
    assert FaultSimulator(nl)._arena_sim is sim


def test_simulator_freed_with_its_netlist():
    """The per-netlist simulator cache must not keep anything alive: once
    the netlist is garbage, so is its ArenaFaultSim."""
    nl = random_netlist(8)
    fsim = FaultSimulator(nl, backend="arena")
    fsim.detected_faults(random_bit_vectors(nl, cycles=4, seed=8),
                         build_fault_list(nl))
    sim_ref = weakref.ref(fsim._arena_sim)
    del nl, fsim
    gc.collect()
    assert sim_ref() is None


def test_views_of_one_netlist_share_one_simulator():
    """arm_alu and regfile_struct keep the same compose-mode S' + M: the
    second MUT gets a view of the first's netlist under its own name, and
    the view gets the netlist's simulator."""
    factor = Factor.from_verilog(arm2_source(), top="arm")
    base = factor.analyze("arm_alu").transformed.netlist
    view = factor.analyze("regfile_struct").transformed.netlist
    assert view is not base and view.view_of is base
    assert view.name == "regfile_struct_transformed"
    assert get_arena_sim(view) is get_arena_sim(base)


def test_multi_mut_atpg_builds_one_simulator_per_netlist(tmp_path, capsys,
                                                         monkeypatch):
    """forward's transformed module is arm_alu's, so ``repro atpg`` over
    arm_alu, forward and exc builds two simulators and compiles two good
    machines, and prints the reports one simulator per MUT printed."""
    from repro.cli import main

    monkeypatch.setenv("REPRO_NO_CACHE", "1")  # no codegen store hit
    built, compiled = [], []

    class CountingSim(ArenaFaultSim):
        def __init__(self, netlist):
            built.append(netlist.name)
            super().__init__(netlist)

    codegen = arena._codegen_code_objects
    monkeypatch.setattr(arena, "ArenaFaultSim", CountingSim)
    monkeypatch.setattr(arena, "_codegen_code_objects",
                        lambda rows, name: compiled.append(name)
                        or codegen(rows, name))
    design = tmp_path / "arm2.v"
    design.write_text(arm2_source())
    assert main(["atpg", str(design), "--top", "arm", "--mut", "arm_alu",
                 "--mut", "forward", "--mut", "exc", "--frames", "1",
                 "--backtrack-limit", "10", "--jobs", "1"]) == 0
    # name: faults, detected, cov%, eff%, then tests and vectors.
    rows = {cells[0]: cells[1:5] + cells[7:]
            for cells in map(str.split, capsys.readouterr().out.splitlines())
            if cells and cells[0].endswith("_transformed")}
    assert rows == {
        "arm_alu_transformed": ["1096", "723", "65.97", "66.42", "96", "344"],
        "forward_transformed": ["14", "9", "64.29", "64.29", "3", "96"],
        "exc_transformed": ["161", "99", "61.49", "91.30", "6", "192"],
    }
    assert built == compiled == ["arm_alu_transformed", "exc_transformed"]


def test_podem_builds_no_simulator():
    """PODEM reads opcodes and fanin from its own model: an unrolled
    model and a search leave the simulator cache untouched."""
    nl = random_netlist(5, num_pis=5, num_dffs=3, num_gates=25)
    model = UnrolledModel(nl, 2)
    Podem(model, sorted(build_fault_list(nl))[0], backtrack_limit=10).run()
    assert nl not in arena._SIMS


# ``fault_sim.arena.gate_evals``, ``.passes`` and ``.lanes_filled`` of one
# arm_alu ATPG run: a 16-sequence random phase, PODEM cross-fault
# simulation and SEU grading.  Sweeping each block's whole fanout cone
# evaluated 77,036 gate rows over the same blocks.
GATE_EVALS_PIN = (8087, 17, 455)


def test_gate_evals_pinned_on_arm_alu():
    factor = Factor.from_verilog(arm2_source(), top="arm")
    analysis = factor.analyze("arm_alu", path="u_core.u_dp.u_alu.")
    options = AtpgOptions(seed=2002, fault_model="both", max_frames=1,
                          backtrack_limit=5, fault_time_limit=10.0,
                          fault_sample=60, random_sequences=16,
                          random_sequence_length=8,
                          fault_sim_backend="arena")
    options.fault_region = analysis.transformed.mut_region
    options.pier_qs = frozenset(analysis.pier_nets)
    names = ("fault_sim.arena.gate_evals", "fault_sim.arena.passes",
             "fault_sim.arena.lanes_filled")

    def counts():
        snap = get_registry().snapshot("fault_sim.arena.")
        return [snap[name]["value"] if name in snap else 0
                for name in names]

    before = counts()
    AtpgEngine(analysis.transformed.netlist, options).run()
    assert tuple(after - start for start, after
                 in zip(before, counts())) == GATE_EVALS_PIN
