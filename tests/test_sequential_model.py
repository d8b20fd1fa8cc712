"""Tests for the time-frame-expansion model."""

import pytest

from repro.atpg.sequential import UnrolledModel
from repro.atpg.values import V0, V1, VX
from repro.designs import counter_source, fsm_source
from repro.hierarchy import Design
from repro.synth import synthesize
from repro.synth.netlist import CONST0, CONST1, GateType, Netlist
from repro.verilog.parser import parse_source


def netlist_of(src, top=None):
    return synthesize(Design(parse_source(src), top=top))


class TestStructure:
    def test_assignable_inputs_cover_all_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 3)
        assert len(model.assignable) == 3 * len(nl.pis)
        for frame in range(3):
            for pi in nl.pis:
                assert model.is_assignable((frame, pi))

    def test_observable_covers_all_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 3)
        assert len(model.observable) == 3 * len(nl.pos)

    def test_needs_at_least_one_frame(self):
        nl = netlist_of(counter_source())
        with pytest.raises(ValueError):
            UnrolledModel(nl, 0)

    def test_excluded_pis_not_assignable(self):
        nl = netlist_of(counter_source())
        clk = next(pi for pi in nl.pis if nl.net_name(pi) == "clk")
        model = UnrolledModel(nl, 2, exclude_pis={clk})
        assert (0, clk) not in model.assignable

    def test_driver_of_cross_frame_edge(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        dff = nl.dffs()[0]
        drv = model.driver_of((1, dff.output))
        assert drv is not None
        kind, gate, inputs = drv
        assert kind == "dff"
        assert inputs == [(0, dff.inputs[0])]
        # Frame 0 Q has no driver: it is an X source.
        assert model.driver_of((0, dff.output)) is None

    def test_fanout_crosses_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        dff = nl.dffs()[0]
        d_key = (0, dff.inputs[0])
        assert (1, dff.output) in model.fanout_keys(d_key)
        # Last frame: no next-frame edge.
        d_last = (1, dff.inputs[0])
        assert all(key[0] == 1 for key in model.fanout_keys(d_last))

    def test_levels_monotone_across_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 3)
        pi = nl.pis[0]
        assert model.level((0, pi)) < model.level((1, pi)) \
            < model.level((2, pi))

    def test_controllability_of_constant_cone(self):
        nl = Netlist()
        a = nl.add_pi("a")
        const_gate = nl.add_gate(GateType.AND, (CONST1, CONST0))
        y = nl.add_gate(GateType.OR, (a, const_gate))
        nl.add_po(y, "y")
        model = UnrolledModel(nl, 1)
        assert model.is_controllable((0, y))
        assert not model.is_controllable((0, const_gate))


class TestBaseValues:
    def test_matches_fresh_evaluation(self):
        from tests.podem_reference import eval_gate_values

        nl = netlist_of(fsm_source())
        model = UnrolledModel(nl, 3)
        base = model.base_values()
        # Recompute independently.
        fresh = {}
        for frame in range(3):
            fresh[(frame, CONST0)] = V0
            fresh[(frame, CONST1)] = V1
            for gate in model.order:
                fresh[(frame, gate.output)] = eval_gate_values(
                    gate.type, [(frame, i) for i in gate.inputs], fresh
                )
            if frame + 1 < 3:
                for dff in model.dffs:
                    fresh[(frame + 1, dff.output)] = fresh.get(
                        (frame, dff.inputs[0]), VX
                    )
        assert base == fresh

    def test_cached(self):
        nl = netlist_of(fsm_source())
        model = UnrolledModel(nl, 2)
        assert model.base_values() is model.base_values()

    def test_unassigned_inputs_give_x_outputs(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        base = model.base_values()
        # With no PI assigned, POs derived from state are X.
        for po in nl.pos:
            assert base.get((1, po), VX) == VX

    def test_constant_cones_are_binary(self):
        nl = Netlist()
        a = nl.add_pi("a")
        tied = nl.add_gate(GateType.OR, (CONST1, a))
        nl.add_po(tied, "y")
        model = UnrolledModel(nl, 2)
        base = model.base_values()
        assert base[(0, tied)] == V1
        assert base[(1, tied)] == V1


class TestFlatLayout:
    """The flat key rows PODEM runs on describe the same unrolled circuit
    as the ``(frame, net)`` API."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_tuple_api(self, seed):
        from tests.sim_helpers import random_netlist

        nl = random_netlist(seed, num_pis=4, num_dffs=3, num_gates=25)
        model = UnrolledModel(nl, 3, pier_qs={nl.dffs()[0].output})
        n = model.num_nets

        def flat(key):
            return key[0] * n + key[1]

        for frame in range(3):
            for net in range(n):
                key = (frame, net)
                k = flat(key)
                drv = model.driver_of(key)
                assert model.key_fanin[k] == (
                    tuple(map(flat, drv[2])) if drv else ())
                # Duplicate readers (a gate reading a net twice) once.
                assert model.key_fanout[k] == tuple(
                    dict.fromkeys(map(flat, model.fanout_keys(key))))
                assert model.key_level[k] == model.level(key)
                assert model.key_controllable[k] == \
                    model.is_controllable(key)
                assert model.key_assignable[k] == model.is_assignable(key)
        assert model.observable_keys == set(map(flat, model.observable))
