"""Arena-encoded netlist, good-machine codegen and word-parallel fault
simulation.

The object-graph :class:`~repro.synth.netlist.Netlist` is the wrong shape for
the simulation hot path: every evaluation walks ``Gate`` dataclasses, tuples
and dicts.  This module flattens a netlist once into a
:class:`NetlistArena` — a frozen struct-of-arrays encoding (gate opcodes,
outputs and CSR fanin/fanout as ``array('i')`` rows, dense net ids, the
levelized evaluation order baked into the row order, a DFS site-rank map for
cone packing) — and runs fault simulation directly on it.

The arena is plain picklable data: it is cached in the artifact store (stage
``arena``) keyed by the netlist fingerprint, and fork/spawn workers can be
handed the pickled arena instead of re-deriving per-process state from the
netlist.

Backend selection: ``backend="arena"`` (default) runs this module;
``"interpreted"`` walks the gate list (:mod:`repro.atpg.fault_sim`,
:mod:`repro.atpg.simulator`) and is kept unchanged as the differential
oracle.  The environment variable ``REPRO_SIM_BACKEND`` overrides the
default.

Simulation model
----------------

Values are 3-valued (0/1/X), encoded as a (ones, zeros) pair of bit masks
packed into plain Python ints — one bit lane per *fault* (the workload is a
single dependent vector sequence, so the parallel axis is faults in wide
machine words, not independent patterns; see ``docs/performance.md`` for why
this differs from textbook PPSFP).  A call proceeds as:

1. **Good-machine pass** — the shared fault-free simulation, one plane per
   cycle, through code generated once per netlist: every net becomes a
   local variable (``o<net>``/``z<net>`` for the ones/zeros masks), gate
   operations are inlined in levelized order, and the results are flushed
   into a flat list ``V`` (``V[2n]`` = ones, ``V[2n+1]`` = zeros of net
   *n*).  The code is chunked into functions of bounded size so CPython's
   compiler stays fast; :class:`~repro.atpg.simulator.LogicSimulator`
   runs the same chunks.  While simulating, a per-net *ever-one* /
   *ever-zero* byte table is accumulated with O(nets) big-int shifts per
   cycle.
2. **Refinement filter** — a stuck-at-``v`` fault whose site never carries
   the binary value ``1-v`` in the good machine is provably undetectable by
   this sequence, so its lane is never simulated.  Proof sketch: by
   induction over levelized order and cycles, every faulty-machine net value
   *refines* the good value in the Kleene information order (injection
   forces ``v`` where the good machine has ``v`` or ``X``; all gate
   functions and the DFF latch are monotone in that order).  Detection
   requires a binary-vs-binary difference at an observe point, which a
   refinement cannot produce.
3. **Cone-partitioned lane blocks** — surviving faults are sorted in cone
   pack order and cut into fixed-width blocks; each block simulates only
   the union fanout cone of its sites, interpreted over a flat value list,
   with fault injection fused at the sites, X-masks preserved end to end,
   detection against the good planes, and early exit once every injected
   lane has detected.

Detected sets are bit-identical to the interpreted oracle;
``tests/test_arena.py`` holds the differential suite.
"""

from __future__ import annotations

import os
from array import array
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)
from weakref import WeakKeyDictionary

from repro.synth.netlist import Gate, GateType, Netlist
from repro.atpg.faults import Fault, TransientFault

Mask = Tuple[int, int]
Vector = Mapping[int, int]

BACKENDS = ("arena", "interpreted")

# Gates per generated function: bounds CPython compile time per chunk while
# keeping the per-call dispatch overhead negligible.
_CHUNK_GATES = 1500


def default_backend() -> str:
    """Session-wide default backend (``REPRO_SIM_BACKEND`` to override)."""
    return os.environ.get("REPRO_SIM_BACKEND", "arena")


def resolve_backend(backend: Optional[str]) -> str:
    resolved = backend or default_backend()
    if resolved not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {resolved!r}; expected one of "
            f"{', '.join(BACKENDS)}"
        )
    return resolved


# -- code generation ----------------------------------------------------------

def _gate_statements(gate: Gate) -> List[str]:
    """Python statements computing ``o<out>``/``z<out>`` from input locals.

    The expressions replicate :func:`repro.atpg.simulator.eval_gate` exactly,
    including the identity-element folds (``full`` trims the AND/XOR masks the
    same way the interpreted fold starting from ``(full, 0)`` / ``(0, full)``
    does), so both backends agree bit-for-bit on all three values.
    """
    t, out, ins = gate.type, gate.output, gate.inputs
    if t is GateType.BUF:
        a = ins[0]
        return [f" o{out} = o{a}; z{out} = z{a}"]
    if t is GateType.NOT:
        a = ins[0]
        return [f" o{out} = z{a}; z{out} = o{a}"]
    if t is GateType.AND or t is GateType.NAND:
        ones = " & ".join(["full"] + [f"o{i}" for i in ins])
        zeros = " | ".join(f"z{i}" for i in ins)
        if t is GateType.NAND:
            return [f" o{out} = {zeros}; z{out} = {ones}"]
        return [f" o{out} = {ones}; z{out} = {zeros}"]
    if t is GateType.OR or t is GateType.NOR:
        ones = " | ".join(f"o{i}" for i in ins)
        zeros = " & ".join(["full"] + [f"z{i}" for i in ins])
        if t is GateType.NOR:
            return [f" o{out} = {zeros}; z{out} = {ones}"]
        return [f" o{out} = {ones}; z{out} = {zeros}"]
    if t is GateType.XOR or t is GateType.XNOR:
        first = ins[0]
        stmts = [f" _to = full & o{first}; _tz = full & z{first}"]
        for i in ins[1:]:
            stmts.append(
                f" _to, _tz = (_to & z{i}) | (_tz & o{i}), "
                f"(_to & o{i}) | (_tz & z{i})"
            )
        if t is GateType.XNOR:
            stmts.append(f" o{out} = _tz; z{out} = _to")
        else:
            stmts.append(f" o{out} = _to; z{out} = _tz")
        return stmts
    raise ValueError(f"cannot compile gate type {t}")


def _codegen_code_objects(order: Sequence[Gate], name: str):
    """Generate and compile one code object per gate chunk."""
    codes = []
    for start in range(0, len(order), _CHUNK_GATES):
        gates = order[start:start + _CHUNK_GATES]
        lines = ["def _chunk(V, full):"]
        local: Set[int] = set()
        for gate in gates:
            for inp in gate.inputs:
                if inp not in local:
                    lines.append(
                        f" o{inp} = V[{2 * inp}]; z{inp} = V[{2 * inp + 1}]"
                    )
                    local.add(inp)
            lines.extend(_gate_statements(gate))
            local.add(gate.output)
            out = gate.output
            lines.append(f" V[{2 * out}] = o{out}; V[{2 * out + 1}] = z{out}")
        if len(lines) == 1:
            lines.append(" pass")
        source = "\n".join(lines)
        codes.append(compile(source, f"<compiled:{name}:{start}>", "exec"))
    return codes


def _chunks_from_codes(codes) -> List:
    chunks = []
    for code in codes:
        namespace: Dict[str, object] = {}
        exec(code, namespace)
        chunks.append(namespace["_chunk"])
    return chunks


def _codegen_chunks(order: Sequence[Gate], name: str,
                    num_nets: Optional[int] = None):
    """The ``fn(V, full)`` chunk functions for a levelized gate order.

    Codegen and CPython compilation dominate first-call latency on large
    netlists, so the compiled code objects are persisted in the artifact
    store as :mod:`marshal` blobs keyed by the gate-order fingerprint and
    the interpreter's bytecode magic; a warm process deserializes instead
    of re-generating and re-compiling.  Any failure to deserialize falls
    back to a fresh compile.
    """
    import importlib.util
    import marshal

    from repro.store import MISS, gates_fingerprint, get_store

    store = get_store()
    key = {
        "gates": gates_fingerprint(order,
                                   num_nets if num_nets is not None else 0),
        "chunk_gates": _CHUNK_GATES,
        "magic": importlib.util.MAGIC_NUMBER.hex(),
    }
    blobs = store.get("codegen", key)
    if blobs is not MISS:
        try:
            return _chunks_from_codes(marshal.loads(blob) for blob in blobs)
        except (ValueError, EOFError, TypeError, KeyError):
            pass  # foreign/damaged blob: fall through to a fresh compile
    codes = _codegen_code_objects(order, name)
    store.put("codegen", key, [marshal.dumps(code) for code in codes])
    return _chunks_from_codes(codes)


class NetValues(Mapping[int, Mask]):
    """Read-only mapping view of a flat simulation value list.

    Every net id in ``range(num_nets)`` is a key; undriven nets read as
    ``(0, 0)`` (X), matching the ``values.get(net, (0, 0))`` convention of
    the interpreted simulator.
    """

    __slots__ = ("_values", "_num_nets")

    def __init__(self, values: List[int], num_nets: int):
        self._values = values
        self._num_nets = num_nets

    def __getitem__(self, net: int) -> Mask:
        if not 0 <= net < self._num_nets:
            raise KeyError(net)
        i = 2 * net
        return (self._values[i], self._values[i + 1])

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._num_nets))

    def __len__(self) -> int:
        return self._num_nets


# Integer opcodes for the struct-of-arrays gate rows.  DFFs live in their
# own (dff_q, dff_d) rows, so only combinational types appear here.
OP_AND, OP_OR, OP_NAND, OP_NOR, OP_XOR, OP_XNOR, OP_NOT, OP_BUF = range(8)

_OP_OF = {
    GateType.AND: OP_AND, GateType.OR: OP_OR, GateType.NAND: OP_NAND,
    GateType.NOR: OP_NOR, GateType.XOR: OP_XOR, GateType.XNOR: OP_XNOR,
    GateType.NOT: OP_NOT, GateType.BUF: OP_BUF,
}
_GT_OF = {op: gt for gt, op in _OP_OF.items()}


class NetlistArena:
    """Frozen struct-of-arrays encoding of one netlist.

    All rows are ``array('i')`` (or plain ints/strs), so instances pickle
    compactly and cheaply — workers receive the arena instead of re-deriving
    topological orders, levels and adjacency from the object graph.

    Rows:

    - ``gate_op`` / ``gate_out`` — combinational gates in levelized
      topological order (evaluation order is the row order),
    - ``fanin_off`` / ``fanin`` — CSR fanin per gate row,
    - ``dff_q`` / ``dff_d`` — flip-flop Q and D nets,
    - ``pis`` / ``pos`` — primary input / output nets,
    - ``adj_off`` / ``adj`` — CSR *sequential* fanout per net (one step of
      gate fanout, plus every D->Q flip-flop edge),
    - ``site_rank`` — DFS-topological rank per net (-1 for nets that are
      not gate outputs); :meth:`cone_pack_order` sorts fault sites by it so
      neighbouring lanes share fanout cones.
    """

    def __init__(self, name: str, num_nets: int,
                 gate_op: array, gate_out: array,
                 fanin_off: array, fanin: array,
                 dff_q: array, dff_d: array,
                 pis: array, pos: array,
                 adj_off: array, adj: array,
                 site_rank: array,
                 fingerprint: Tuple[int, int, int, int],
                 digest: str):
        self.name = name
        self.num_nets = num_nets
        self.gate_op = gate_op
        self.gate_out = gate_out
        self.fanin_off = fanin_off
        self.fanin = fanin
        self.dff_q = dff_q
        self.dff_d = dff_d
        self.pis = pis
        self.pos = pos
        self.adj_off = adj_off
        self.adj = adj
        self.site_rank = site_rank
        self.fingerprint = fingerprint
        self.digest = digest

    @property
    def num_gates(self) -> int:
        return len(self.gate_out)

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "NetlistArena":
        from repro.store import gates_fingerprint

        order = netlist.levelized_order()
        num_nets = netlist.num_nets

        gate_op = array("i", (_OP_OF[g.type] for g in order))
        gate_out = array("i", (g.output for g in order))
        fanin_off = array("i", [0])
        fanin = array("i")
        for g in order:
            fanin.extend(g.inputs)
            fanin_off.append(len(fanin))

        dffs = netlist.dffs()
        dff_q = array("i", (d.output for d in dffs))
        dff_d = array("i", (d.inputs[0] for d in dffs))

        # CSR sequential fanout: two passes (count, fill) keep it allocation
        # free beyond the two arrays.
        counts = array("i", bytes(4 * (num_nets + 1)))
        for g in netlist.gates:
            for inp in g.inputs:
                counts[inp] += 1
        adj_off = array("i", bytes(4 * (num_nets + 1)))
        total = 0
        for n in range(num_nets):
            adj_off[n] = total
            total += counts[n]
        adj_off[num_nets] = total
        cursor = array("i", adj_off)
        adj = array("i", bytes(4 * total))
        for g in netlist.gates:
            out = g.output
            for inp in g.inputs:
                adj[cursor[inp]] = out
                cursor[inp] += 1

        site_rank = array("i", [-1]) * num_nets
        for i, g in enumerate(netlist.topological_order()):
            site_rank[g.output] = i

        fingerprint = (num_nets, len(netlist.gates), len(netlist.pis),
                       len(netlist.pos))
        digest = gates_fingerprint(order, num_nets)
        return cls(
            name=netlist.name, num_nets=num_nets,
            gate_op=gate_op, gate_out=gate_out,
            fanin_off=fanin_off, fanin=fanin,
            dff_q=dff_q, dff_d=dff_d,
            pis=array("i", netlist.pis), pos=array("i", netlist.pos),
            adj_off=adj_off, adj=adj, site_rank=site_rank,
            fingerprint=fingerprint, digest=digest,
        )

    # -- derived views ------------------------------------------------------

    def gate_inputs(self, gi: int) -> Tuple[int, ...]:
        return tuple(self.fanin[self.fanin_off[gi]:self.fanin_off[gi + 1]])

    def gates(self) -> List[Gate]:
        """The levelized combinational gate row as ``Gate`` objects.

        The reconstructed sequence is element-wise identical to
        :meth:`Netlist.levelized_order`, so the good-machine codegen (and
        its ``codegen`` store key) is the one the netlist itself yields.
        """
        return [
            Gate(type=_GT_OF[self.gate_op[gi]], output=self.gate_out[gi],
                 inputs=self.gate_inputs(gi))
            for gi in range(len(self.gate_out))
        ]

    def cone_of(self, sites: Iterable[int]) -> Set[int]:
        """Union sequential fanout cone of ``sites`` (multi-source BFS
        over the CSR adjacency), including the sites themselves."""
        adj, off = self.adj, self.adj_off
        seen: Set[int] = set(sites)
        stack = list(seen)
        while stack:
            net = stack.pop()
            for k in range(off[net], off[net + 1]):
                down = adj[k]
                if down not in seen:
                    seen.add(down)
                    stack.append(down)
        return seen

    def cone_pack_order(self, faults: Sequence[Fault]) -> List[Fault]:
        """Faults sorted so neighbouring lanes share fanout cones (PIs,
        which have no rank, sort first)."""
        rank = self.site_rank
        nn = self.num_nets
        return sorted(
            faults,
            key=lambda f: (rank[f.net] if f.net < nn else -1, f.net, f.value),
        )


# -- word-parallel fault simulation -------------------------------------------


class ArenaFaultSim:
    """Fault simulation over one :class:`NetlistArena`.

    Holds every reusable artifact of repeated simulation against the same
    arena: the good-machine chunk functions and the memoized good-plane
    pass.  Get instances through :func:`get_arena_sim` so every
    ``FaultSimulator`` and ``LogicSimulator`` over the same netlist shares
    them.
    """

    def __init__(self, arena: NetlistArena):
        self.arena = arena
        self._chunks = None  # good-machine codegen, built lazily
        # Good-plane memo: one entry, keyed both by object identity (the
        # common case: a bench/ATPG loop re-simulating the same vector list
        # object) and by value.  Strong refs are intentional — callers must
        # not mutate a vector list in place between calls (no caller does;
        # vectors are built fresh per sequence).
        self._good_vectors: Optional[Sequence[Vector]] = None
        self._good_istate: Optional[Mapping[int, int]] = None
        self._good_key = None
        self._good = None

    # -- good machine -------------------------------------------------------

    def chunks(self) -> List:
        """The good-machine ``fn(V, full)`` chunk functions (built once)."""
        if self._chunks is None:
            self._chunks = _codegen_chunks(self.arena.gates(),
                                           self.arena.name,
                                           num_nets=self.arena.num_nets)
        return self._chunks

    def _good_pass(self, vectors: Sequence[Vector],
                   initial_state: Optional[Mapping[int, int]]):
        """Simulate the fault-free machine; returns
        ``(planes, ever_one, ever_zero)``.

        ``planes`` holds one flat ``[o0, z0, o1, z1, ...]`` snapshot per
        cycle.  ``ever_one[n]`` / ``ever_zero[n]`` are truthy iff net ``n``
        ever carried binary 1 / 0 — accumulated as one byte per net with two
        big-int shift-ORs per cycle (cycle bits fill each byte in windows of
        8, so ORs never carry across byte boundaries).
        """
        from repro.obs import counter

        if vectors is self._good_vectors and initial_state is self._good_istate:
            counter("fault_sim.arena.good_plane_hits").inc()
            return self._good
        key = (
            tuple(tuple(sorted(vec.items())) for vec in vectors),
            tuple(sorted(initial_state.items())) if initial_state else (),
        )
        if key == self._good_key:
            counter("fault_sim.arena.good_plane_hits").inc()
            self._good_vectors = vectors
            self._good_istate = initial_state
            return self._good

        chunks = self.chunks()
        arena = self.arena
        nn = arena.num_nets
        pis, dff_q, dff_d = arena.pis, arena.dff_q, arena.dff_d
        state: Dict[int, Mask] = {q: (0, 0) for q in dff_q}
        if initial_state:
            for q, bit in initial_state.items():
                state[q] = (1, 0) if bit else (0, 1)
        values = [0] * (2 * nn)
        values[1] = 1  # const0 zeros plane
        values[2] = 1  # const1 ones plane
        planes: List[List[int]] = []
        ever_o = ever_z = acc_o = acc_z = 0
        window = 0
        for vec in vectors:
            for pi in pis:
                bit = vec.get(pi)
                i = 2 * pi
                if bit is None:
                    values[i] = values[i + 1] = 0
                elif bit:
                    values[i] = 1
                    values[i + 1] = 0
                else:
                    values[i] = 0
                    values[i + 1] = 1
            for k in range(len(dff_q)):
                o, z = state[dff_q[k]]
                i = 2 * dff_q[k]
                values[i] = o
                values[i + 1] = z
            for chunk in chunks:
                chunk(values, 1)
            planes.append(values[:])
            acc_o |= int.from_bytes(bytes(values[0::2]), "little") << window
            acc_z |= int.from_bytes(bytes(values[1::2]), "little") << window
            window += 1
            if window == 8:
                ever_o |= acc_o
                ever_z |= acc_z
                acc_o = acc_z = window = 0
            for k in range(len(dff_q)):
                i = 2 * dff_d[k]
                state[dff_q[k]] = (values[i], values[i + 1])
        ever_o |= acc_o
        ever_z |= acc_z
        self._good = (
            planes,
            ever_o.to_bytes(nn + 1, "little"),
            ever_z.to_bytes(nn + 1, "little"),
        )
        self._good_vectors = vectors
        self._good_istate = initial_state
        self._good_key = key
        return self._good

    # -- shared block shape --------------------------------------------------

    def _block_shape(self, blk: Sequence[Fault], cone: Set[int],
                     obs_set: frozenset):
        """Everything the block executors need about one lane block:
        injection-site lane masks, the cone's gate rows, flip-flops,
        boundary nets (read by the cone but produced outside it — they
        broadcast the shared good value) and observe points."""
        arena = self.arena
        gate_out, fanin, fanin_off = (arena.gate_out, arena.fanin,
                                      arena.fanin_off)
        site_lanes: Dict[int, Mask] = {}
        for li, f in enumerate(blk):
            m1, m0 = site_lanes.get(f.net, (0, 0))
            if f.value == 1:
                m1 |= 1 << li
            else:
                m0 |= 1 << li
            site_lanes[f.net] = (m1, m0)
        cone_gis = [gi for gi in range(len(gate_out)) if gate_out[gi] in cone]
        dff_q, dff_d = arena.dff_q, arena.dff_d
        cone_dks = [k for k in range(len(dff_q)) if dff_q[k] in cone]
        innets: Set[int] = set()
        for gi in cone_gis:
            innets.update(fanin[fanin_off[gi]:fanin_off[gi + 1]])
        for k in cone_dks:
            innets.add(dff_d[k])
        comb_out = {gate_out[gi] for gi in cone_gis}
        qs = [dff_q[k] for k in cone_dks]
        produced = comb_out | set(qs)
        bound = sorted((innets | cone) - produced)
        obs = sorted(obs_set & cone)
        site_order = sorted(site_lanes)
        return dict(
            lanes=len(blk), site_lanes=site_lanes, site_order=site_order,
            cone_gis=cone_gis, cone_dks=cone_dks, comb_out=comb_out,
            bound=bound, obs=obs,
        )

    # -- lane blocks ----------------------------------------------------------

    def _run_interp_block(self, blk: Sequence[Fault], planes,
                          initial_state: Optional[Mapping[int, int]],
                          obs_set: frozenset):
        """One lane block of stuck-at faults: the union fanout cone of the
        block's sites interpreted over a flat value list, with injection
        fused at the sites, detection against the good planes and early
        exit once every lane has detected."""
        arena = self.arena
        cone = arena.cone_of({f.net for f in blk})
        shape = self._block_shape(blk, cone, obs_set)
        lanes = shape["lanes"]
        full = (1 << lanes) - 1
        site_lanes = shape["site_lanes"]
        comb_out = shape["comb_out"]
        fanin, fanin_off = arena.fanin, arena.fanin_off
        gate_op, gate_out = arena.gate_op, arena.gate_out
        dff_q, dff_d = arena.dff_q, arena.dff_d

        fills = []
        for n in shape["site_order"]:
            if n in comb_out:
                continue
            m1, m0 = site_lanes[n]
            fills.append((2 * n, ~(m1 | m0), m1, m0))
        prog = []
        for gi in shape["cone_gis"]:
            out = gate_out[gi]
            ins2 = tuple(2 * i for i in
                         fanin[fanin_off[gi]:fanin_off[gi + 1]])
            m1, m0 = site_lanes.get(out, (0, 0))
            em = ~(m1 | m0) if (m1 or m0) else None
            prog.append((gate_op[gi], 2 * out, ins2, em, m1, m0))
        dffs = [(2 * dff_q[k], 2 * dff_d[k]) for k in shape["cone_dks"]]
        bound2 = [2 * n for n in shape["bound"]]
        obs2 = [2 * p for p in shape["obs"]]

        v = [0] * (2 * arena.num_nets)
        state: Dict[int, Mask] = {}
        for q2, _d2 in dffs:
            if initial_state and q2 // 2 in initial_state:
                state[q2] = (full, 0) if initial_state[q2 // 2] else (0, full)
            else:
                state[q2] = (0, 0)
        det = 0
        for plane in planes:
            for i in bound2:
                v[i] = full if plane[i] else 0
                v[i + 1] = full if plane[i + 1] else 0
            for q2, _d2 in dffs:
                o, z = state[q2]
                v[q2] = o
                v[q2 + 1] = z
            for i, em, m1, m0 in fills:
                v[i] = (v[i] & em) | m1
                v[i + 1] = (v[i + 1] & em) | m0
            for op, o2, ins2, em, m1, m0 in prog:
                if op == OP_AND or op == OP_NAND:
                    o, z = full, 0
                    for i in ins2:
                        o &= v[i]
                        z |= v[i + 1]
                    if op == OP_NAND:
                        o, z = z, o
                elif op == OP_OR or op == OP_NOR:
                    o, z = 0, full
                    for i in ins2:
                        o |= v[i]
                        z &= v[i + 1]
                    if op == OP_NOR:
                        o, z = z, o
                elif op == OP_NOT:
                    o = v[ins2[0] + 1]
                    z = v[ins2[0]]
                elif op == OP_BUF:
                    o = v[ins2[0]]
                    z = v[ins2[0] + 1]
                else:  # XOR / XNOR n-ary fold
                    o, z = 0, full
                    for i in ins2:
                        io, iz = v[i], v[i + 1]
                        o, z = (o & iz) | (z & io), (o & io) | (z & iz)
                    if op == OP_XNOR:
                        o, z = z, o
                if em is not None:
                    o = (o & em) | m1
                    z = (z & em) | m0
                v[o2] = o
                v[o2 + 1] = z
            for i in obs2:
                if plane[i]:
                    det |= v[i + 1]
                elif plane[i + 1]:
                    det |= v[i]
            state = {q2: (v[d2], v[d2 + 1]) for q2, d2 in dffs}
            if det == full:
                break
        return det, full

    # -- public entry --------------------------------------------------------

    def detected_faults(
        self,
        vectors: Sequence[Vector],
        faults: Sequence[Fault],
        initial_state: Optional[Mapping[int, int]] = None,
        extra_observables: Optional[Sequence[int]] = None,
        lanes: int = 512,
    ) -> Tuple[Set[Fault], int]:
        """Detected subset of ``faults`` plus the number of lane blocks run.

        Bit-identical to the interpreted oracle for any mix of X inputs,
        initial flip-flop state and extra observe points.
        """
        from repro.obs import counter

        if not faults:
            return set(), 0
        planes, ever_o, ever_z = self._good_pass(vectors, initial_state)
        arena = self.arena
        obs_points: Set[int] = set(arena.pos)
        if extra_observables:
            obs_points.update(extra_observables)
        obs_set = frozenset(obs_points)

        surv = [f for f in faults
                if (ever_z[f.net] if f.value == 1 else ever_o[f.net])]
        counter("fault_sim.arena.filtered_undetectable").inc(
            len(faults) - len(surv))
        detected: Set[Fault] = set()
        if not surv:
            return detected, 0
        ordered = arena.cone_pack_order(surv)
        blocks = 0
        filled = 0
        early = 0
        for start in range(0, len(ordered), lanes):
            blk = ordered[start:start + lanes]
            det, present = self._run_interp_block(blk, planes,
                                                  initial_state, obs_set)
            blocks += 1
            filled += bin(present).count("1")
            if det == present:
                early += 1
            while det:
                li = (det & -det).bit_length() - 1
                detected.add(blk[li])
                det &= det - 1
        counter("fault_sim.arena.passes").inc(blocks)
        counter("fault_sim.arena.lanes_filled").inc(filled)
        counter("fault_sim.arena.early_exits").inc(early)
        return detected, blocks

    # -- transient (SEU) faults ----------------------------------------------

    def detected_transients(
        self,
        vectors: Sequence[Vector],
        faults: Sequence[TransientFault],
        initial_state: Optional[Mapping[int, int]] = None,
        extra_observables: Optional[Sequence[int]] = None,
        lanes: int = 512,
    ) -> Tuple[Set[TransientFault], int]:
        """Detected subset of single-cycle upsets plus lane blocks run.

        Reuses the memoized good planes twice: as the undetectability
        pre-filter (an upset forcing ``v`` at a (site, cycle) where the
        good machine already carries ``v`` is the identity; where it
        carries X the forced binary value is a Kleene refinement — either
        way no binary-vs-binary difference can ever reach an observe
        point, by the same monotonicity argument as the stuck-at filter,
        so only sites whose good value is binary ``1-v`` at the flip
        cycle survive) and as the boundary broadcast inside each lane
        block.  Blocks are sorted flip-cycle first so each block starts
        simulating at its earliest flip, with cone flip-flops seeded from
        the good plane of the preceding cycle (faulty state equals good
        state before the first injection).  Bit-identical to the
        interpreted oracle.
        """
        from repro.obs import counter

        if not faults:
            return set(), 0
        planes, _ever_o, _ever_z = self._good_pass(vectors, initial_state)
        arena = self.arena
        obs_points: Set[int] = set(arena.pos)
        if extra_observables:
            obs_points.update(extra_observables)
        obs_set = frozenset(obs_points)

        ncyc = len(planes)
        surv: List[TransientFault] = []
        for f in faults:
            if f.cycle >= ncyc:
                continue
            plane = planes[f.cycle]
            i = 2 * f.net
            if plane[i + 1] if f.value == 1 else plane[i]:
                surv.append(f)
        counter("fault_sim.arena.filtered_undetectable").inc(
            len(faults) - len(surv))
        detected: Set[TransientFault] = set()
        if not surv:
            return detected, 0

        rank = arena.site_rank
        nn = arena.num_nets
        ordered = sorted(
            surv,
            key=lambda f: (f.cycle, rank[f.net] if f.net < nn else -1,
                           f.net, f.value),
        )
        blocks = 0
        filled = 0
        early = 0
        for start in range(0, len(ordered), lanes):
            blk = ordered[start:start + lanes]
            det, present = self._run_interp_transient_block(
                blk, planes, initial_state, obs_set)
            blocks += 1
            filled += bin(present).count("1")
            if det == present:
                early += 1
            while det:
                li = (det & -det).bit_length() - 1
                detected.add(blk[li])
                det &= det - 1
        counter("fault_sim.arena.passes").inc(blocks)
        counter("fault_sim.arena.lanes_filled").inc(filled)
        counter("fault_sim.arena.early_exits").inc(early)
        return detected, blocks

    def _run_interp_transient_block(
        self, blk: Sequence[TransientFault], planes,
        initial_state: Optional[Mapping[int, int]], obs_set: frozenset,
    ):
        """One interpreted lane block of single-cycle upsets.

        Mirrors :meth:`_run_interp_block` with the injection masks gated
        by flip cycle: fills and gate-output overrides are only live
        during a lane's own cycle, so the lane tracks the good machine
        before its flip and free-runs the disturbance afterwards.  Cycles
        before the block's earliest flip are skipped entirely — every
        lane still equals the good machine there, so nothing can detect
        and the state is exactly the good state.
        """
        arena = self.arena
        cone = arena.cone_of({f.net for f in blk})
        shape = self._block_shape(blk, cone, obs_set)
        lanes = shape["lanes"]
        full = (1 << lanes) - 1
        comb_out = shape["comb_out"]
        fanin, fanin_off = arena.fanin, arena.fanin_off
        gate_op, gate_out = arena.gate_op, arena.gate_out
        dff_q, dff_d = arena.dff_q, arena.dff_d

        # cycle -> 2*net -> (force1, force0) lane masks, split by whether
        # the site is produced by a cone gate (inline) or filled (PI, Q,
        # boundary broadcast).
        fill_at: Dict[int, Dict[int, Mask]] = {}
        inj_at: Dict[int, Dict[int, Mask]] = {}
        for li, f in enumerate(blk):
            per = (inj_at if f.net in comb_out else fill_at).setdefault(
                f.cycle, {})
            m1, m0 = per.get(2 * f.net, (0, 0))
            if f.value == 1:
                m1 |= 1 << li
            else:
                m0 |= 1 << li
            per[2 * f.net] = (m1, m0)

        prog = []
        for gi in shape["cone_gis"]:
            ins2 = tuple(2 * i for i in
                         fanin[fanin_off[gi]:fanin_off[gi + 1]])
            prog.append((gate_op[gi], 2 * gate_out[gi], ins2))
        dffs = [(2 * dff_q[k], 2 * dff_d[k]) for k in shape["cone_dks"]]
        bound2 = [2 * n for n in shape["bound"]]
        obs2 = [2 * p for p in shape["obs"]]

        cstart = blk[0].cycle  # blocks are flip-cycle sorted
        v = [0] * (2 * arena.num_nets)
        state: Dict[int, Mask] = {}
        if cstart > 0:
            prev = planes[cstart - 1]
            for q2, d2 in dffs:
                state[q2] = (full if prev[d2] else 0,
                             full if prev[d2 + 1] else 0)
        else:
            for q2, _d2 in dffs:
                if initial_state and q2 // 2 in initial_state:
                    state[q2] = ((full, 0) if initial_state[q2 // 2]
                                 else (0, full))
                else:
                    state[q2] = (0, 0)
        det = 0
        for cycle in range(cstart, len(planes)):
            plane = planes[cycle]
            fills = fill_at.get(cycle)
            injs = inj_at.get(cycle)
            for i in bound2:
                v[i] = full if plane[i] else 0
                v[i + 1] = full if plane[i + 1] else 0
            for q2, _d2 in dffs:
                o, z = state[q2]
                v[q2] = o
                v[q2 + 1] = z
            if fills:
                for i, (m1, m0) in fills.items():
                    em = ~(m1 | m0)
                    v[i] = (v[i] & em) | m1
                    v[i + 1] = (v[i + 1] & em) | m0
            for op, o2, ins2 in prog:
                if op == OP_AND or op == OP_NAND:
                    o, z = full, 0
                    for i in ins2:
                        o &= v[i]
                        z |= v[i + 1]
                    if op == OP_NAND:
                        o, z = z, o
                elif op == OP_OR or op == OP_NOR:
                    o, z = 0, full
                    for i in ins2:
                        o |= v[i]
                        z &= v[i + 1]
                    if op == OP_NOR:
                        o, z = z, o
                elif op == OP_NOT:
                    o = v[ins2[0] + 1]
                    z = v[ins2[0]]
                elif op == OP_BUF:
                    o = v[ins2[0]]
                    z = v[ins2[0] + 1]
                else:  # XOR / XNOR n-ary fold
                    o, z = 0, full
                    for i in ins2:
                        io, iz = v[i], v[i + 1]
                        o, z = (o & iz) | (z & io), (o & io) | (z & iz)
                    if op == OP_XNOR:
                        o, z = z, o
                if injs is not None:
                    m = injs.get(o2)
                    if m is not None:
                        m1, m0 = m
                        em = ~(m1 | m0)
                        o = (o & em) | m1
                        z = (z & em) | m0
                v[o2] = o
                v[o2 + 1] = z
            for i in obs2:
                if plane[i]:
                    det |= v[i + 1]
                elif plane[i + 1]:
                    det |= v[i]
            state = {q2: (v[d2], v[d2 + 1]) for q2, d2 in dffs}
            if det == full:
                break
        return det, full



_SIMS: "WeakKeyDictionary[Netlist, ArenaFaultSim]" = WeakKeyDictionary()


def get_arena_sim(netlist: Netlist) -> ArenaFaultSim:
    """The shared :class:`ArenaFaultSim` for ``netlist``.

    One simulator per netlist object, rebuilt when the netlist grew
    (append-only mutation is the only kind this codebase performs), so
    every simulator facade over it shares one set of good-machine chunks
    and one good-plane memo.  The simulator holds the arena, never the
    netlist: the cache entry dies with its netlist.  Across processes the
    pickled arena is memoized in the artifact store under the ``arena``
    stage, keyed by the netlist fingerprint.
    """
    sim = _SIMS.get(netlist)
    current = (netlist.num_nets, len(netlist.gates), len(netlist.pis),
               len(netlist.pos))
    if sim is not None and sim.arena.fingerprint == current:
        return sim

    from repro.store import get_store, netlist_fingerprint

    store = get_store()
    key = {"netlist": netlist_fingerprint(netlist)}
    arena = store.get("arena", key)
    if not (isinstance(arena, NetlistArena)
            and arena.fingerprint == current):
        arena = NetlistArena.from_netlist(netlist)
        store.put("arena", key, arena)
    sim = _SIMS[netlist] = ArenaFaultSim(arena)
    return sim


def get_arena(netlist: Netlist) -> NetlistArena:
    """The cached arena encoding of ``netlist`` (see :func:`get_arena_sim`)."""
    return get_arena_sim(netlist).arena
