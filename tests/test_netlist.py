"""Unit tests for the gate-level netlist IR."""

import pytest

from repro.synth.netlist import CONST0, CONST1, GateType, Netlist, NetlistError


def build_simple():
    nl = Netlist("t")
    a = nl.add_pi("a")
    b = nl.add_pi("b")
    ab = nl.add_gate(GateType.AND, (a, b), name="ab")
    nl.add_po(ab, "y")
    return nl, a, b, ab


class TestConstruction:
    def test_constants_reserved(self):
        nl = Netlist()
        assert nl.net_name(CONST0) == "const0"
        assert nl.net_name(CONST1) == "const1"

    def test_add_gate_returns_fresh_net(self):
        nl, a, b, ab = build_simple()
        assert ab not in (a, b)
        assert nl.driver(ab).type is GateType.AND

    def test_multiple_drivers_rejected(self):
        nl, a, b, ab = build_simple()
        with pytest.raises(NetlistError):
            nl.add_gate_to(GateType.OR, ab, (a, b))

    def test_cannot_drive_constant(self):
        nl, a, b, _ = build_simple()
        with pytest.raises(NetlistError):
            nl.add_gate_to(GateType.AND, CONST0, (a, b))

    def test_unary_gate_arity_checked(self):
        nl, a, b, _ = build_simple()
        with pytest.raises(NetlistError):
            nl.add_gate(GateType.NOT, (a, b))

    def test_gate_needs_inputs(self):
        nl = Netlist()
        with pytest.raises(NetlistError):
            nl.add_gate(GateType.AND, ())

    def test_po_name_preserved(self):
        nl, *_ = build_simple()
        assert nl.po_pairs[0][1] == "y"

    def test_duplicate_po_net_keeps_both_names(self):
        nl, a, b, ab = build_simple()
        nl.add_po(ab, "y2")
        names = [name for _, name in nl.po_pairs]
        assert names == ["y", "y2"]


class TestQueries:
    def test_gate_count_excludes_buffers_and_dffs(self):
        nl = Netlist()
        a = nl.add_pi("a")
        buf = nl.add_gate(GateType.BUF, (a,))
        inv = nl.add_gate(GateType.NOT, (buf,))
        q = nl.add_gate(GateType.DFF, (inv,))
        nl.add_po(q, "q")
        assert nl.gate_count() == 1
        assert nl.gate_count(include_buffers=True) == 2
        assert len(nl.dffs()) == 1
        assert len(nl.combinational_gates()) == 2

    def test_clone_is_independent(self):
        nl, a, b, ab = build_simple()
        other = nl.clone()
        other.add_gate(GateType.NOT, (a,))
        assert len(other.gates) == len(nl.gates) + 1
        assert other.po_pairs == nl.po_pairs


class TestTopologicalOrder:
    def test_order_respects_dependencies(self):
        nl = Netlist()
        a = nl.add_pi("a")
        n1 = nl.add_gate(GateType.NOT, (a,))
        n2 = nl.add_gate(GateType.AND, (a, n1))
        nl.add_po(n2, "y")
        order = nl.topological_order()
        assert order.index(nl.driver(n1)) < order.index(nl.driver(n2))

    def test_dff_breaks_cycles(self):
        nl = Netlist()
        a = nl.add_pi("a")
        q = nl.new_net("q")
        d = nl.add_gate(GateType.AND, (a, q))
        nl.add_gate_to(GateType.DFF, q, (d,))
        nl.add_po(q, "q")
        order = nl.topological_order()
        assert [g.type for g in order] == [GateType.AND]

    def test_combinational_cycle_detected(self):
        nl = Netlist()
        a = nl.add_pi("a")
        x = nl.new_net("x")
        y = nl.add_gate(GateType.AND, (a, x))
        nl.add_gate_to(GateType.OR, x, (y, a))
        nl.add_po(x, "x")
        with pytest.raises(NetlistError):
            nl.topological_order()

    def test_gates_outside_po_cone_still_ordered(self):
        nl, a, b, ab = build_simple()
        orphan = nl.add_gate(GateType.XOR, (a, b))
        order = nl.topological_order()
        assert nl.driver(orphan) in order


class TestValidate:
    def test_valid_netlist(self):
        nl, *_ = build_simple()
        nl.validate()

    def test_floating_read_rejected(self):
        nl = Netlist()
        a = nl.add_pi("a")
        ghost = nl.new_net("ghost")
        y = nl.add_gate(GateType.AND, (a, ghost))
        nl.add_po(y, "y")
        with pytest.raises(NetlistError):
            nl.validate()

    def test_floating_po_rejected(self):
        nl = Netlist()
        nl.add_pi("a")
        ghost = nl.new_net("ghost")
        nl.add_po(ghost, "y")
        with pytest.raises(NetlistError):
            nl.validate()
