"""Differential suite: the flat-index PODEM engine against the reference.

``tests/podem_reference.py`` is the dict-keyed engine the flat-index one
replaced, with the same canonical D-frontier order.  Both must return the
same result for every fault: status, abort reason, every effort counter,
the vectors and the initial state.  Equal implication counts mean both
engines re-evaluated the same keys in the same order.
"""

import random

import pytest

from repro.atpg.faults import build_fault_list
from repro.atpg.podem import Podem
from repro.atpg.sequential import UnrolledModel
from repro.core.factor import Factor
from repro.designs import arm2_source, filterchip_source

from tests.podem_reference import Podem as ReferencePodem
from tests.sim_helpers import random_netlist

FIELDS = ("status", "abort_reason", "frames", "backtracks", "decisions",
          "implications", "vectors", "initial_state")


def assert_same_searches(model, faults, backtrack_limit):
    for fault in faults:
        flat = Podem(model, fault, backtrack_limit=backtrack_limit).run()
        ref = ReferencePodem(model, fault,
                             backtrack_limit=backtrack_limit).run()
        diff = {name: (getattr(flat, name), getattr(ref, name))
                for name in FIELDS
                if getattr(flat, name) != getattr(ref, name)}
        assert not diff, (model.frames, fault, diff)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("frames", (1, 2, 3))
def test_random_netlists(seed, frames):
    nl = random_netlist(seed, num_pis=5, num_dffs=3, num_gates=30)
    faults = build_fault_list(nl)
    some_piers = {dff.output for dff in nl.dffs()[:2]}
    # No PIERs: every frame-0 flop output is an X source.
    for piers in (set(), some_piers):
        model = UnrolledModel(nl, frames, pier_qs=piers)
        assert_same_searches(model, faults, backtrack_limit=20)


def test_searches_that_abort_agree():
    nl = random_netlist(11, num_pis=6, num_dffs=4, num_gates=60)
    model = UnrolledModel(nl, 3)
    faults = build_fault_list(nl)
    statuses = {Podem(model, f, backtrack_limit=1).run().status
                for f in faults}
    assert "aborted" in statuses
    assert_same_searches(model, faults, backtrack_limit=1)


def _design_sample(source, top, mut, path, frames, sample, seed):
    result = Factor.from_verilog(source, top=top).analyze(mut, path=path)
    netlist = result.transformed.netlist
    faults = build_fault_list(netlist, region=result.transformed.mut_region)
    faults = sorted(random.Random(seed).sample(faults, sample))
    model = UnrolledModel(netlist, frames, pier_qs=set(result.pier_nets))
    return model, faults


@pytest.mark.parametrize("frames", (1, 2))
def test_arm_alu_sample(frames):
    model, faults = _design_sample(arm2_source(), "arm", "arm_alu",
                                   "u_core.u_dp.u_alu.", frames,
                                   sample=16, seed=2002)
    assert_same_searches(model, faults, backtrack_limit=5)


def test_filterchip_sample():
    model, faults = _design_sample(filterchip_source(), "filterchip",
                                   "limiter", "u_dsp.u_lim.", 2,
                                   sample=24, seed=7)
    assert_same_searches(model, faults, backtrack_limit=10)
