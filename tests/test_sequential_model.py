"""Tests for the time-frame-expansion model."""

import pytest

from repro.atpg.faults import build_fault_list
from repro.atpg.podem import Podem
from repro.atpg.sequential import OP_DFF, OP_SOURCE, UnrolledModel
from repro.atpg.simulator import eval_gate
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
        n = model.num_nets
        assert sum(model.key_assignable) == 3 * len(nl.pis)
        for frame in range(3):
            for pi in nl.pis:
                assert model.key_assignable[frame * n + pi]

    def test_observable_covers_all_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 3)
        n = model.num_nets
        assert model.observable_keys == {
            frame * n + po for frame in range(3) for po in nl.pos}

    def test_needs_at_least_one_frame(self):
        nl = netlist_of(counter_source())
        with pytest.raises(ValueError):
            UnrolledModel(nl, 0)

    def test_excluded_pis_not_assignable(self):
        nl = netlist_of(counter_source())
        clk = next(pi for pi in nl.pis if nl.net_name(pi) == "clk")
        model = UnrolledModel(nl, 2, exclude_pis={clk})
        assert not model.key_assignable[clk]
        assert not model.key_assignable[model.num_nets + clk]

    def test_driver_of_cross_frame_edge(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        n = model.num_nets
        dff = nl.dffs()[0]
        q, d = dff.output, dff.inputs[0]
        # Frame 1 Q copies frame 0's D.
        assert model.key_op[n + q] == OP_DFF
        assert model.key_fanin[n + q] == (d,)
        # Frame 0 Q has no driver: it is an X source.
        assert model.key_op[q] == OP_SOURCE
        assert model.key_fanin[q] == ()

    def test_fanout_crosses_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        n = model.num_nets
        dff = nl.dffs()[0]
        d = dff.inputs[0]
        assert n + dff.output in model.key_fanout[d]
        # Last frame: no next-frame edge.
        assert all(n <= key < 2 * n for key in model.key_fanout[n + d])

    def test_levels_monotone_across_frames(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 3)
        n = model.num_nets
        pi = nl.pis[0]
        assert model.key_level[pi] < model.key_level[n + pi] \
            < model.key_level[2 * n + pi]

    def test_controllability_of_constant_cone(self):
        nl = Netlist()
        a = nl.add_pi("a")
        const_gate = nl.add_gate(GateType.AND, (CONST1, CONST0))
        y = nl.add_gate(GateType.OR, (a, const_gate))
        nl.add_po(y, "y")
        model = UnrolledModel(nl, 1)
        assert model.key_controllable[y]
        assert not model.key_controllable[const_gate]


class TestBaseValues:
    def test_matches_fresh_evaluation(self):
        nl = netlist_of(fsm_source())
        model = UnrolledModel(nl, 3)
        n = model.num_nets
        # Recompute independently: three-valued simulation from an all-X
        # state with no input assigned.
        value_of = {(1, 0): V1, (0, 1): V0, (0, 0): VX}
        state = {}
        for frame in range(3):
            masks = {CONST0: (0, 1), CONST1: (1, 0), **state}
            for gate in nl.topological_order():
                masks[gate.output] = eval_gate(
                    gate.type, [masks.get(i, (0, 0)) for i in gate.inputs], 1
                )
            for net in range(n):
                assert model.base_plane[frame * n + net] == \
                    value_of[masks.get(net, (0, 0))], (frame, net)
            state = {dff.output: masks.get(dff.inputs[0], (0, 0))
                     for dff in nl.dffs()}

    def test_cached(self):
        """The base plane is built once; searches copy it, never edit it."""
        nl = netlist_of(fsm_source())
        model = UnrolledModel(nl, 2)
        plane = model.base_plane
        before = bytes(plane)
        for fault in build_fault_list(nl)[:20]:
            Podem(model, fault, backtrack_limit=50).run()
        assert model.base_plane is plane
        assert bytes(plane) == before

    def test_unassigned_inputs_give_x_outputs(self):
        nl = netlist_of(counter_source())
        model = UnrolledModel(nl, 2)
        # With no PI assigned, POs derived from state are X.
        for po in nl.pos:
            assert model.base_plane[model.num_nets + po] == VX

    def test_constant_cones_are_binary(self):
        nl = Netlist()
        a = nl.add_pi("a")
        tied = nl.add_gate(GateType.OR, (CONST1, a))
        nl.add_po(tied, "y")
        model = UnrolledModel(nl, 2)
        assert model.base_plane[tied] == V1
        assert model.base_plane[model.num_nets + tied] == V1


class TestFlatLayout:
    """The flat key rows PODEM runs on describe the unrolled netlist."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_netlist(self, seed):
        from tests.sim_helpers import random_netlist

        nl = random_netlist(seed, num_pis=4, num_dffs=3, num_gates=25)
        pier = nl.dffs()[0]
        frames = 3
        model = UnrolledModel(nl, frames, pier_qs={pier.output})
        n = model.num_nets

        driver = {g.output: g for g in nl.gates}
        readers = {}  # net -> reading gates' outputs, topological order
        for gate in nl.topological_order():
            for inp in gate.inputs:
                readers.setdefault(inp, []).append(gate.output)
        qs_of_d = {}
        for dff in nl.dffs():
            qs_of_d.setdefault(dff.inputs[0], []).append(dff.output)
        # A later-frame Q counts as controllable through the previous frame.
        controllable = set(nl.pis) | {dff.output for dff in nl.dffs()}
        for gate in nl.topological_order():
            if any(i in controllable for i in gate.inputs):
                controllable.add(gate.output)

        for frame in range(frames):
            off = frame * n
            for net in range(n):
                k = off + net
                gate = driver.get(net)
                if gate is None or (gate.type is GateType.DFF and frame == 0):
                    fanin = ()
                    assert model.key_op[k] == OP_SOURCE
                elif gate.type is GateType.DFF:
                    fanin = (off - n + gate.inputs[0],)
                    assert model.key_op[k] == OP_DFF
                else:
                    fanin = tuple(off + i for i in gate.inputs)
                assert model.key_fanin[k] == fanin
                assert all(model.key_level[k] > model.key_level[i]
                           for i in fanin)
                fanout = [off + r for r in readers.get(net, ())]
                if frame + 1 < frames:
                    fanout += [off + n + q for q in qs_of_d.get(net, ())]
                # A gate reading a net twice is listed once.
                assert model.key_fanout[k] == tuple(dict.fromkeys(fanout))
                assignable = (frame == 0 if net == pier.output
                              else net in nl.pis)
                assert model.key_assignable[k] == assignable
                if model.key_op[k] == OP_SOURCE:
                    assert model.key_controllable[k] == assignable
                else:
                    assert model.key_controllable[k] == (net in controllable)
        assert model.observable_keys == {
            frame * n + po for frame in range(frames) for po in nl.pos
        } | {(frames - 1) * n + pier.inputs[0]}
