"""Transient (SEU) fault model: semantics and backend equivalence.

A transient fault forces one net to one value for exactly one clock
cycle; it is detected only if the single-cycle disturbance propagates to
an observe point — possibly through flip-flop state, cycles later.  Both
backends grade upsets as an injection schedule over their one block
simulator (forced only in the flip cycle); the arena's (good-plane
pre-filter + cone blocks starting at the earliest flip) must produce
detected sets bit-identical to the interpreted oracle's, on every
netlist, at any lane width, including X inputs, preset state and blocks
mixing stuck-at with SEU lanes.  ``tests/test_fault_sim.py`` checks both
against a brute-force reference.
"""

import random

import pytest

from repro.atpg.engine import AtpgEngine, AtpgOptions
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import (FAULT_MODELS, Fault, TransientFault,
                               build_transient_fault_list)
from repro.hierarchy import Design
from repro.synth import synthesize
from repro.verilog.parser import parse_source

from tests.sim_helpers import random_bit_vectors, random_netlist


def detect(nl, backend, vectors, faults, initial_state=None, extra=None,
           lanes=512):
    sim = FaultSimulator(nl, lanes=lanes, backend=backend)
    return sim.detected_faults(vectors, faults, initial_state=initial_state,
                               extra_observables=extra)


# -- fault list construction -------------------------------------------------


def test_fault_models_enumerates_the_cli_choices():
    assert FAULT_MODELS == ("stuck", "transient", "both")


def test_transient_list_full_universe_and_ordering():
    nl = random_netlist(0, num_pis=3, num_dffs=1, num_gates=5)
    cycles = 3
    faults = build_transient_fault_list(nl, cycles)
    sites = set(nl.pis) | {g.output for g in nl.gates}
    assert len(faults) == len(sites) * 2 * cycles
    assert faults == sorted(faults)
    assert len(set(faults)) == len(faults)


def test_transient_list_sampling_is_seeded_and_in_universe():
    nl = random_netlist(1, num_pis=4, num_dffs=2, num_gates=12)
    a = build_transient_fault_list(nl, 6, sample=20, seed=11)
    b = build_transient_fault_list(nl, 6, sample=20, seed=11)
    c = build_transient_fault_list(nl, 6, sample=20, seed=12)
    assert a == b
    assert a != c
    assert len(a) == 20
    universe = set(build_transient_fault_list(nl, 6))
    assert set(a) <= universe


def test_transient_list_empty_window():
    nl = random_netlist(2)
    assert build_transient_fault_list(nl, 0) == []


# -- semantics ---------------------------------------------------------------

INV = "module t(input a, output y); assign y = ~a; endmodule\n"


def _netlist(src):
    return synthesize(Design(parse_source(src)))


def test_flip_visible_only_during_its_cycle():
    nl = _netlist(INV)
    a = nl.pis[0]
    y = nl.pos[0]
    vectors = [{a: 0}, {a: 0}, {a: 0}]  # good y == 1 every cycle
    flips = [TransientFault(y, 0, cycle) for cycle in range(3)]
    # Each upset lands on the PO during its own cycle: all detected.
    assert detect(nl, "interpreted", vectors, flips) == set(flips)
    # Forcing the value the good machine already has is a non-event.
    same = [TransientFault(y, 1, cycle) for cycle in range(3)]
    assert detect(nl, "interpreted", vectors, same) == set()
    # A flip after the applied window never happens.
    late = [TransientFault(y, 0, 5)]
    assert detect(nl, "interpreted", vectors, late) == set()


def test_flip_propagates_through_state():
    # y observes the flop one cycle after d captured it.
    src = ("module t(input clk, input d, output y);\n"
           "  reg q;\n"
           "  always @(posedge clk) q <= d;\n"
           "  assign y = q;\n"
           "endmodule\n")
    nl = _netlist(src)
    d = next(pi for pi in nl.pis if nl.net_name(pi) == "d")
    vectors = [{d: 0}, {d: 0}, {d: 0}]
    # Upsetting Q at cycle 0 flows straight to the PO at cycle 0; the
    # same upset at the last cycle is also PO-visible (Q drives y
    # combinationally).  An upset on d's value=1 at cycle 1 is captured
    # into state and observed at cycle 2.
    upset_d = TransientFault(d, 1, 1)
    detected = detect(nl, "interpreted", vectors, [upset_d])
    assert detected == {upset_d}
    # ...but not if the window ends before the observation cycle.
    assert detect(nl, "interpreted", vectors[:2], [upset_d]) == set()


@pytest.mark.parametrize("backend", ["interpreted", "arena"])
def test_mixed_block_runs_stuck_lanes_from_cycle_zero(backend):
    # y stuck-at-0 shows only in cycle 0 (good y == 1, then 0); the upset
    # sharing its block flips in cycle 1.  The stuck-at lane must still
    # be simulated from cycle 0.
    nl = _netlist(INV)
    a = nl.pis[0]
    y = nl.pos[0]
    faults = [Fault(y, 0), TransientFault(y, 1, 1)]
    assert detect(nl, backend, [{a: 0}, {a: 1}], faults) == set(faults)


# -- backend equivalence -----------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_transient_backend_equality(seed):
    nl = random_netlist(seed, num_pis=6, num_dffs=4, num_gates=40)
    cycles = 10
    vectors = random_bit_vectors(nl, cycles=cycles, seed=seed + 100,
                                 x_rate=0.0)
    faults = build_transient_fault_list(nl, cycles, sample=150,
                                        seed=seed + 1)
    interp = detect(nl, "interpreted", vectors, faults)
    arena = detect(nl, "arena", vectors, faults)
    # Narrow blocks start at later flip cycles, seeding their flip-flops
    # from the good plane of the preceding cycle.
    narrow = detect(nl, "arena", vectors, faults, lanes=5)
    assert interp == arena == narrow


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transient_backend_equality_with_x_and_state(seed):
    nl = random_netlist(seed, num_pis=5, num_dffs=4, num_gates=30)
    rng = random.Random(seed + 7)
    cycles = 8
    vectors = random_bit_vectors(nl, cycles=cycles, seed=seed + 200,
                                 x_rate=0.3)
    faults = build_transient_fault_list(nl, cycles, sample=120,
                                        seed=seed + 2)
    qs = [dff.output for dff in nl.dffs()]
    initial_state = {q: rng.randint(0, 1) for q in qs[:2]}
    results = [
        detect(nl, backend, vectors, faults, initial_state, lanes=lanes)
        for backend, lanes in (("interpreted", 512), ("arena", 512),
                               ("arena", 5))
    ]
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("lanes", [512, 5])
def test_mixed_stuck_and_transient_lists(lanes, seed):
    """A single detected_faults call grades both models at once, in lane
    blocks holding both stuck-at and SEU lanes."""
    from repro.atpg.faults import build_fault_list

    nl = random_netlist(seed, num_pis=5, num_dffs=3, num_gates=25)
    cycles = 6
    vectors = random_bit_vectors(nl, cycles=cycles, seed=seed + 50,
                                 x_rate=0.1)
    mixed = list(build_fault_list(nl)) + \
        build_transient_fault_list(nl, cycles, sample=60, seed=seed)
    interp = detect(nl, "interpreted", vectors, mixed, lanes=lanes)
    arena = detect(nl, "arena", vectors, mixed, lanes=lanes)
    assert interp == arena
    # The split is by type, not by position in the list.
    assert {f for f in interp if isinstance(f, TransientFault)} <= \
        set(mixed)


# -- engine integration ------------------------------------------------------


def _engine_report(nl, fault_model, seed=7):
    opts = AtpgOptions(max_frames=2, backtrack_limit=20,
                       random_sequences=2, random_sequence_length=6,
                       seed=seed, fault_model=fault_model,
                       transient_sample=40)
    return AtpgEngine(nl, opts).run()


def test_engine_fault_models():
    nl = random_netlist(3, num_pis=5, num_dffs=3, num_gates=25)
    stuck = _engine_report(nl, "stuck")
    assert stuck.transient_total == 0
    assert "seu" not in stuck.as_row()

    both = _engine_report(nl, "both")
    assert both.transient_total > 0
    assert 0 <= both.transient_detected <= both.transient_total
    row = both.as_row()
    assert row["seu"] == both.transient_total
    assert row["seu_cov%"] == round(both.transient_coverage_percent, 2)
    # The stuck-at phases are unchanged by the extra grading phase.
    assert both.detected == stuck.detected
    assert both.coverage_percent == stuck.coverage_percent

    transient = _engine_report(nl, "transient")
    assert transient.transient_total > 0
    # transient mode skips PODEM: random-phase vectors only.
    assert transient.aborted == 0


def test_engine_transient_runs_are_deterministic():
    nl = random_netlist(4, num_pis=5, num_dffs=3, num_gates=25)
    a = _engine_report(nl, "both")
    b = _engine_report(nl, "both")
    timing = ("tgen_s", "total_s")
    assert {k: v for k, v in a.as_row().items() if k not in timing} == \
        {k: v for k, v in b.as_row().items() if k not in timing}
    assert a.transient_detected == b.transient_detected
