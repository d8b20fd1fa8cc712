"""Differential tests for the two simulation backends.

The arena backend (code-generated good-machine evaluation plus
cone-partitioned lane-block fault simulation) must be observationally
identical to the interpreted reference on every netlist: same three-valued
net values, same detected fault sets, same ATPG results.  These tests drive
both backends over seeded random netlists and the bundled library designs
and require exact equality.
"""

import pytest

from repro.atpg.arena import (
    BACKENDS,
    NetValues,
    default_backend,
    get_arena,
    resolve_backend,
)
from repro.atpg.engine import AtpgEngine, AtpgOptions
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import build_fault_list
from repro.atpg.simulator import LogicSimulator
from repro.cli import main
from repro.designs import counter_source, small_designs
from repro.serve.protocol import JobSpec, ProtocolError
from repro.synth.netlist import CONST0, CONST1, GateType, Netlist

from tests.sim_helpers import (netlist_of, random_bit_vectors,
                               random_mask_vectors, random_netlist)


# -- logic simulator ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_logic_sim_differential(seed):
    nl = random_netlist(seed)
    width = 6
    ref = LogicSimulator(nl, width=width, backend="interpreted")
    cmp_ = LogicSimulator(nl, width=width, backend="arena")
    for vec in random_mask_vectors(nl, 8, width, seed + 100):
        v_ref = ref.step(vec)
        v_cmp = cmp_.step(vec)
        for net in range(nl.num_nets):
            assert v_cmp.get(net, (0, 0)) == v_ref.get(net, (0, 0)), \
                f"net {net} ({nl.net_name(net)})"
        assert dict(cmp_.state) == dict(ref.state)


def test_logic_sim_constants_and_undriven():
    nl = Netlist("consts")
    a = nl.add_pi("a")
    floating = nl.new_net("floating")
    g = nl.add_gate(GateType.AND, [a, CONST1, floating])
    nl.add_po(g, "o")
    sim = LogicSimulator(nl, backend="arena")
    values = sim.step({a: (1, 0)})
    assert values[CONST0] == (0, 1)
    assert values[CONST1] == (1, 0)
    assert values[floating] == (0, 0)  # undriven reads X
    assert values[g] == (0, 0)  # AND with an X input and no 0 input


# -- fault simulator ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lanes", [4, 512])
def test_fault_sim_differential(seed, lanes):
    nl = random_netlist(seed)
    faults = build_fault_list(nl)
    vectors = random_bit_vectors(nl, 10, seed + 500)
    ref = FaultSimulator(nl, lanes=lanes, backend="interpreted")
    cmp_ = FaultSimulator(nl, lanes=lanes, backend="arena")
    assert cmp_.detected_faults(vectors, faults) == \
        ref.detected_faults(vectors, faults)


def test_fault_sim_initial_state_and_extra_observables():
    nl = netlist_of(counter_source())
    faults = build_fault_list(nl)
    vectors = random_bit_vectors(nl, 6, 42, x_rate=0.0)
    init = {dff.output: (i % 2) for i, dff in enumerate(nl.dffs())}
    extra = [nl.dffs()[0].inputs[0]]
    ref = FaultSimulator(nl, backend="interpreted")
    cmp_ = FaultSimulator(nl, backend="arena")
    assert cmp_.detected_faults(vectors, faults, initial_state=init,
                                extra_observables=extra) == \
        ref.detected_faults(vectors, faults, initial_state=init,
                            extra_observables=extra)


def test_engine_backend_equivalence():
    nl = netlist_of(small_designs()["fsm"])
    reports = {}
    for backend in BACKENDS:
        engine = AtpgEngine(nl, AtpgOptions(
            max_frames=2, frame_schedule=(1, 2), backtrack_limit=50,
            random_sequences=2, random_sequence_length=8, seed=11,
            fault_sim_backend=backend))
        reports[backend] = engine.run()
    a, b = reports["interpreted"], reports["arena"]
    assert a.coverage_percent == b.coverage_percent
    assert a.efficiency_percent == b.efficiency_percent
    assert a.detected == b.detected
    assert a.num_vectors == b.num_vectors


# -- netlist cone/level helpers ----------------------------------------------


def test_fanout_cone_and_levels():
    nl = Netlist("cone")
    a = nl.add_pi("a")
    b = nl.add_pi("b")
    g1 = nl.add_gate(GateType.AND, [a, b])
    g2 = nl.add_gate(GateType.NOT, [g1])
    q = nl.new_net("q")
    nl.add_gate_to(GateType.DFF, q, [g2])
    g3 = nl.add_gate(GateType.OR, [q, b])
    nl.add_po(g3, "o")

    arena = get_arena(nl)
    assert arena.cone_of([a]) == {a, g1, g2, q, g3}
    assert arena.cone_of([g2]) == {g2, q, g3}
    assert arena.cone_of([a, g3]) == {a, g1, g2, q, g3}

    levels = nl.levels()
    assert levels[a] == 0 and levels[q] == 0
    assert levels[g1] == 1 and levels[g2] == 2 and levels[g3] == 1

    order = nl.levelized_order()
    pos = {g.output: i for i, g in enumerate(order)}
    assert pos[g1] < pos[g2]
    assert len(order) == len(nl.topological_order())


def test_netvalues_mapping_behavior():
    nl = Netlist("nv")
    a = nl.add_pi("a")
    g = nl.add_gate(GateType.NOT, [a])
    nl.add_po(g, "o")
    sim = LogicSimulator(nl, backend="arena")
    values = sim.step({a: (1, 0)})
    assert isinstance(values, NetValues)
    assert len(values) == nl.num_nets
    assert set(values) == set(range(nl.num_nets))
    assert values[g] == (0, 1)
    assert values.get(nl.num_nets + 5) is None
    with pytest.raises(KeyError):
        values[nl.num_nets + 5]


# -- backend selection --------------------------------------------------------


def test_backend_env_default(monkeypatch):
    assert BACKENDS == ("arena", "interpreted")
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    assert default_backend() == "arena"
    assert resolve_backend(None) == "arena"
    monkeypatch.setenv("REPRO_SIM_BACKEND", "interpreted")
    assert default_backend() == "interpreted"
    assert resolve_backend(None) == "interpreted"
    assert resolve_backend("arena") == "arena"


@pytest.mark.parametrize("name", ["bogus", "compiled"])
def test_invalid_backend_rejected(name, tmp_path, capsys):
    with pytest.raises(ValueError):
        resolve_backend(name)
    nl = Netlist("x")
    nl.add_pi("a")
    with pytest.raises(ValueError):
        LogicSimulator(nl, backend=name)
    with pytest.raises(ValueError):
        FaultSimulator(nl, backend=name)
    with pytest.raises(ProtocolError):
        JobSpec(op="atpg", source="module m; endmodule", mut="m",
                backend=name).validate()
    design = tmp_path / "d.v"
    design.write_text("module m(input a, output y); assign y = a; "
                      "endmodule\n")
    for cmd in (["atpg", str(design), "--mut", "m"],
                ["profile", str(design), "--mut", "m"],
                ["submit", str(design), "--mut", "m"]):
        with pytest.raises(SystemExit) as exc:
            main(cmd + ["--backend", name])
        assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
