"""Differential tests for the arena simulator against the interpreted
oracle.

The arena (code-generated good-machine evaluation plus event-driven
lane-block fault simulation) must be observationally identical to the
interpreted reference on every netlist: same three-valued net values,
same detected fault sets, same ATPG results.  These tests drive both over
seeded random netlists and the bundled library designs and require exact
equality.  The oracle is selected only by its callers; nothing else
chooses a simulator.
"""

import pytest

from repro.atpg.arena import get_arena_sim
from repro.atpg.engine import AtpgEngine, AtpgOptions
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import build_fault_list
from repro.atpg.simulator import LogicSimulator
from repro.campaign.spec import CampaignSpec, CampaignSpecError
from repro.cli import main
from repro.designs import counter_source, small_designs
from repro.serve.protocol import JobSpec, ProtocolError
from repro.store import atpg_options_fingerprint
from repro.synth.netlist import CONST0, CONST1, GateType, Netlist

from tests.sim_helpers import netlist_of, random_bit_vectors, random_netlist


# -- good machine ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_logic_sim_differential(seed):
    """The arena's generated good-machine code, run on a batch of
    sequences with X inputs, gives every net in every cycle the value the
    interpreted logic simulator gives it on each sequence alone, from an
    all-X and from a preset flip-flop state."""
    nl = random_netlist(seed)
    sequences = [random_bit_vectors(nl, 8, seed * 10 + s, x_rate=0.3)
                 for s in range(4)]
    preset = {dff.output: k % 2 for k, dff in enumerate(nl.dffs())}
    for init in (None, preset):
        planes, _ever = get_arena_sim(nl)._good_pass(sequences, init)
        assert len(planes) == 8
        for s, vectors in enumerate(sequences):
            ref = LogicSimulator(nl)
            if init:
                ref.load_state({q: (1, 0) if bit else (0, 1)
                                for q, bit in init.items()})
            for cycle, vec in enumerate(vectors):
                values = ref.step({pi: (1, 0) if bit else (0, 1)
                                   for pi, bit in vec.items()})
                plane = planes[cycle]
                for net in range(nl.num_nets):
                    got = ((plane[2 * net] >> s) & 1,
                           (plane[2 * net + 1] >> s) & 1)
                    assert got == values.get(net, (0, 0)), \
                        (init is not None, s, cycle, nl.net_name(net))


def test_logic_sim_constants_and_undriven():
    nl = Netlist("consts")
    a = nl.add_pi("a")
    floating = nl.new_net("floating")
    g = nl.add_gate(GateType.AND, [a, CONST1, floating])
    nl.add_po(g, "o")
    values = LogicSimulator(nl).step({a: (1, 0)})
    assert values[CONST0] == (0, 1)
    assert values[CONST1] == (1, 0)
    assert floating not in values  # undriven: absent, reads X
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
    for backend in ("arena", "interpreted"):
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

    sim = get_arena_sim(nl)
    row = {r[1] // 2: gi for gi, r in enumerate(sim.rows)}  # net -> row

    def readers(net):
        rows = list(sim.readers[net])
        assert rows == sorted(set(rows))  # each row once, in row order
        return {sim.rows[gi][1] // 2 for gi in rows}

    # Combinational readers only: the flop reading g2 is a D->Q load.
    assert readers(a) == {g1}
    assert readers(b) == {g1, g3}
    assert readers(g1) == {g2}
    assert readers(g2) == set()
    assert readers(q) == {g3}
    assert sim.loads == {2 * g2: (2 * q,)}
    # A row's inputs and readers are its gate's, with doubled net ids.
    assert sim.rows[row[g3]][2] == (2 * q, 2 * b)
    assert sim.rows[row[g1]][3] == sim.readers[g1] == (row[g2],)
    assert [sim.level[row[n]] for n in (g1, g2, g3)] == [1, 2, 1]
    assert sim.level == sorted(sim.level)

    levels = nl.levels()
    assert levels[a] == 0 and levels[q] == 0
    assert levels[g1] == 1 and levels[g2] == 2 and levels[g3] == 1

    order = nl.levelized_order()
    pos = {g.output: i for i, g in enumerate(order)}
    assert pos[g1] < pos[g2]
    assert len(order) == len(nl.topological_order())


# -- the oracle switch ---------------------------------------------------------


def test_environment_selects_no_backend(monkeypatch):
    """Only the caller picks the oracle: the environment has no say."""
    nl = random_netlist(0)
    monkeypatch.setenv("REPRO_SIM_BACKEND", "interpreted")
    assert FaultSimulator(nl).backend == "arena"
    assert FaultSimulator(nl, backend="interpreted").backend == "interpreted"


def _cli_exit_with_backend(tmp_path, name):
    design = tmp_path / "d.v"
    design.write_text("module m(input a, output y); assign y = a; "
                      "endmodule\n")
    for cmd in ("atpg", "profile", "submit"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(design), "--mut", "m", "--backend", name])
        assert exc.value.code == 2, cmd


@pytest.mark.parametrize("name", ["bogus", "compiled"])
def test_invalid_backend_rejected(name, tmp_path, capsys):
    nl = Netlist("x")
    nl.add_pi("a")
    with pytest.raises(ValueError):
        FaultSimulator(nl, backend=name)
    with pytest.raises(ProtocolError):
        JobSpec(op="atpg", source="module m; endmodule", mut="m",
                backend=name).validate()
    _cli_exit_with_backend(tmp_path, name)
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_takes_no_backend(tmp_path, capsys):
    """No command-line flag picks a simulator, not even the default."""
    _cli_exit_with_backend(tmp_path, "arena")
    err = capsys.readouterr().err
    assert err.count("unrecognized arguments: --backend arena") == 3


def test_campaign_cannot_sweep_backend():
    with pytest.raises(CampaignSpecError, match="unknown factor 'backend'"):
        CampaignSpec.from_dict({
            "name": "sweep", "design": "arm2", "mut": "arm_alu",
            "factors": {"backend": ["arena", "interpreted"]}})


def test_default_backend_keys_like_the_arena():
    """``None`` runs the arena, so it shares the arena's store and request
    keys; the interpreted oracle keeps its own, so an oracle re-run never
    loads the arena run's stored report."""
    keys = {name: atpg_options_fingerprint(
        AtpgOptions(fault_sim_backend=name))
        for name in (None, "arena", "interpreted")}
    assert keys[None] == keys["arena"] != keys["interpreted"]
    specs = {name: JobSpec(op="atpg", source="module m; endmodule",
                           mut="m", backend=name).validate().fingerprint()
             for name in (None, "arena", "interpreted")}
    assert specs[None] == specs["arena"] != specs["interpreted"]
