"""Pinned ATPG engine outputs on arm2 transformed modules.

The random phase grades its sequences in one batched fault-simulation call
and replays the per-sequence loop; SEU grading batches runs of equal-length
tests that share an initial state.  These pins were recorded with the
per-sequence loops (one call per sequence and per test): the test list
(every vector and initial state, in order), the random-phase yield, the
detected stuck-at set, the SEU yield and the vector count must stay what
they were.  They guard the replay order, the stop-when-empty rule and the
append-a-test-only-if-it-detected rule.
"""

import hashlib

import pytest

from repro.atpg.engine import AtpgEngine, AtpgOptions
from repro.core.factor import Factor
from repro.designs import ARM2_MUTS, arm2_source

SEED = 2002

# ``transient`` is the campaign's SEU screening trial (random phase, then
# SEU grading).  ``both`` adds a short PODEM phase on a fault sample, so the
# SEU grading sees PODEM tests of lengths 1 and 2 with PIER initial states
# after the random tests.
OPTIONS = {
    "transient": dict(max_frames=1),
    "both": dict(max_frames=2, frame_schedule=(1, 2), backtrack_limit=5,
                 fault_time_limit=10.0, fault_sample=150),
}

# (mut, fault_model, random length) -> (tests digest, random_detected,
# detected-set digest, transient_detected, num_vectors)
PINS = {
    ("arm_alu", "transient", 8):
        ("4449e9191cd89a1c", 290, "d90320629b54731a", 72, 24),
    ("arm_alu", "transient", 16):
        ("b80bb805e25326fa", 336, "03a454404d897cff", 67, 96),
    ("arm_alu", "both", 8):
        ("d2da34e68ca589e4", 29, "1887314e5769218a", 76, 72),
    ("arm_alu", "both", 16):
        ("2ff5ab8404838be8", 50, "dc707d2e4afeb830", 83, 152),
    ("regfile_struct", "transient", 8):
        ("4c1b89243318b6de", 374, "7859590263a0ba3e", 25, 16),
    ("regfile_struct", "transient", 16):
        ("68b89092a5e7beea", 689, "2a7b33d5d673b1dc", 46, 112),
    ("regfile_struct", "both", 8):
        ("89215ca317e08a6b", 17, "cec1e4365c2ae179", 24, 122),
    ("regfile_struct", "both", 16):
        ("3504f96667d5cea7", 60, "34d79eb63b522641", 44, 169),
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def engine_pin(analysis, fault_model: str, length: int):
    options = AtpgOptions(seed=SEED, fault_model=fault_model,
                          random_sequence_length=length,
                          **OPTIONS[fault_model])
    options.fault_region = analysis.transformed.mut_region
    options.pier_qs = frozenset(analysis.pier_nets)
    engine = AtpgEngine(analysis.transformed.netlist, options)
    report = engine.run()
    tests = [([sorted(vec.items()) for vec in vectors],
              sorted(istate.items()))
             for vectors, istate in engine.tests]
    detected = sorted((f.net, f.value) for f in engine.detected_faults)
    return (_digest(tests), report.random_detected, _digest(detected),
            report.transient_detected, report.num_vectors)


@pytest.fixture(scope="module")
def analyses():
    factor = Factor.from_verilog(arm2_source(), top="arm")
    paths = {mut.name: mut.path for mut in ARM2_MUTS}
    return {name: factor.analyze(name, path=paths[name])
            for name in {mut for mut, _, _ in PINS}}


@pytest.mark.parametrize("mut, fault_model, length", sorted(PINS))
def test_engine_outputs_pinned(analyses, mut, fault_model, length):
    assert (engine_pin(analyses[mut], fault_model, length)
            == PINS[(mut, fault_model, length)])
