"""Differential tests for the arena fault-simulation backend.

The arena backend (struct-of-arrays netlist encoding, memoized good-machine
pass, exact undetectability filter, cone-partitioned lane blocks) must
produce detected-fault sets bit-identical to the interpreted oracle on
every netlist — including X inputs, preset flip-flop state, Q-net primary
outputs and extra observe points — at any lane width, for one sequence or
a batch, and the arena itself must survive a pickle round trip unchanged.
"""

import gc
import pickle
import random
import weakref

import pytest

from repro.atpg.arena import (ArenaFaultSim, NetlistArena, get_arena,
                              get_arena_sim)
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import build_fault_list, build_transient_fault_list
from repro.atpg.simulator import LogicSimulator
from repro.synth.netlist import GateType

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


def test_arena_pickle_round_trip_identity():
    nl = random_netlist(7, num_pis=5, num_dffs=3, num_gates=25)
    arena = get_arena(nl)
    clone = pickle.loads(pickle.dumps(arena))
    assert isinstance(clone, NetlistArena)
    assert clone.fingerprint == arena.fingerprint
    assert clone.digest == arena.digest
    for row in ("gate_op", "gate_out", "fanin_off", "fanin", "dff_q",
                "dff_d", "pis", "pos", "adj_off", "adj", "site_rank"):
        assert getattr(clone, row) == getattr(arena, row), row

    # A simulator over the unpickled arena detects the same faults.
    vectors = random_bit_vectors(nl, cycles=8, seed=70, x_rate=0.2)
    faults = build_fault_list(nl)
    (det_orig,), _ = ArenaFaultSim(arena).first_detections([vectors], faults)
    (det_clone,), _ = ArenaFaultSim(clone).first_detections([vectors], faults)
    assert det_orig == det_clone == detect(nl, "interpreted", vectors, faults)


def test_arena_rebuilt_when_netlist_grows():
    nl = random_netlist(3)
    arena = get_arena(nl)
    pi = nl.add_pi("late")
    nl.add_po(nl.add_gate(GateType.NOT, [pi], name="late_g"), "late_o")
    grown = get_arena(nl)
    assert grown is not arena
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


def test_gate_reconstruction_round_trips():
    nl = random_netlist(6)
    rebuilt = get_arena(nl).gates()
    original = nl.levelized_order()
    assert [(g.type, g.output, g.inputs) for g in rebuilt] \
        == [(g.type, g.output, g.inputs) for g in original]


def test_one_simulator_per_netlist_shares_the_good_machine():
    """Every facade over a netlist reuses one ArenaFaultSim, so the logic
    simulator and the fault simulator run the same chunk functions."""
    nl = random_netlist(10)
    sim = get_arena_sim(nl)
    assert FaultSimulator(nl, backend="arena")._arena_sim is sim
    assert LogicSimulator(nl, backend="arena")._chunks is sim.chunks()
    assert get_arena(nl) is sim.arena


def test_simulator_freed_with_its_netlist():
    """The per-netlist simulator cache must not keep anything alive: once
    the netlist is garbage, so are its ArenaFaultSim and arena."""
    nl = random_netlist(8)
    fsim = FaultSimulator(nl, backend="arena")
    fsim.detected_faults(random_bit_vectors(nl, cycles=4, seed=8),
                         build_fault_list(nl))
    sim_ref = weakref.ref(fsim._arena_sim)
    arena_ref = weakref.ref(fsim._arena_sim.arena)
    del nl, fsim
    gc.collect()
    assert sim_ref() is None
    assert arena_ref() is None
