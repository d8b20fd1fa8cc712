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
packed into plain Python ints.  A call grades a batch of equal-length
sequences that share one initial state — the random phase's independent
sequences, or a run of equal-length tests — and each bit lane of a fault
block carries one (fault, sequence) pair.  Within a sequence every vector
depends on the previous cycle's state, so cycles stay serial; faults and
independent sequences share the word (``docs/performance.md`` relates this
to textbook PPSFP).  A call proceeds as:

1. **Good-machine pass** — the fault-free simulation of every sequence of
   the batch at once, one plane per cycle in which bit ``s`` of each value
   is sequence ``s``, through code generated once per netlist: every net
   becomes a local variable (``o<net>``/``z<net>`` for the ones/zeros
   masks), gate operations are inlined in levelized order, and the
   results are flushed into a flat list ``V`` (``V[2n]`` = ones,
   ``V[2n+1]`` = zeros of net *n*).  The code is chunked into functions
   of bounded size so CPython's compiler stays fast;
   :class:`~repro.atpg.simulator.LogicSimulator` runs the same chunks.
   The planes OR-ed over all cycles give, per net, the sequences in which
   it ever carried binary 1 and binary 0.
2. **Refinement filter** — a stuck-at-``v`` fault whose site never carries
   the binary value ``1-v`` in a sequence's good machine is provably
   undetectable by that sequence, so that (fault, sequence) lane is never
   simulated.  Proof sketch: by induction over levelized order and cycles,
   every faulty-machine net value *refines* the good value in the Kleene
   information order (injection forces ``v`` where the good machine has
   ``v`` or ``X``; all gate functions and the DFF latch are monotone in
   that order).  Detection requires a binary-vs-binary difference at an
   observe point, which a refinement cannot produce.
3. **Cone-partitioned lane blocks** — surviving pairs are sorted in cone
   pack order of their fault, then by sequence, and cut into fixed-width
   blocks; each block simulates only the union fanout cone of its sites,
   interpreted over a flat value list, with fault injection fused at the
   sites, X-masks preserved end to end, each sequence's good value
   broadcast to that sequence's lanes at the cone boundary and the
   observe points, and early exit once every lane has detected.  One
   block simulator serves both fault models, each an injection schedule
   over the same gate program: a stuck-at lane is forced on every cycle,
   an SEU lane (:class:`TransientFault`) only in its flip cycle, which
   runs a copy of the program with that cycle's upsets patched in.

A call returns, per sequence, the faults that sequence detects *first*:
exactly what a fault-dropping loop over the sequences would find.  A
single sequence is the batch of one.  Results are bit-identical to the
interpreted oracle; ``tests/test_arena.py`` holds the differential suite.
"""

from __future__ import annotations

import operator
import os
from array import array
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)
from weakref import WeakKeyDictionary

from repro.synth.netlist import Gate, GateType, Netlist
from repro.atpg.faults import AnyFault, TransientFault

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

    def cone_pack_order(self, faults: Sequence[AnyFault]
                        ) -> List[AnyFault]:
        """Faults sorted so neighbouring lanes share fanout cones (PIs,
        which have no rank, sort first).  Upsets sort after every stuck-at
        fault, by flip cycle first, so a block of upsets starts
        simulating at its earliest flip."""
        rank = self.site_rank
        nn = self.num_nets
        return sorted(
            faults,
            key=lambda f: (getattr(f, "cycle", -1),
                           rank[f.net] if f.net < nn else -1, f.net, f.value),
        )


# -- word-parallel fault simulation -------------------------------------------


class _Spread(dict):
    """Good value -> lane mask for one lane block.

    Bit ``s`` of a batched good value is sequence ``s``; the mask holds
    the block's lanes of every sequence whose bit is set, so a boundary
    net, a flop seed or an observe-point comparison broadcasts each
    sequence's good value to that sequence's lanes only.  Entries are
    filled on first use from per-byte tables (eight sequences per
    lookup); with one sequence the map is ``{0: 0, 1: full}``.
    """

    __slots__ = ("tables",)

    def __init__(self, seq_lanes: Sequence[int]):
        super().__init__()
        self.tables = []
        for base in range(0, len(seq_lanes), 8):
            masks = seq_lanes[base:base + 8]
            table = [0] * (1 << len(masks))
            for good in range(1, len(table)):
                low = good & -good
                table[good] = (table[good ^ low]
                               | masks[low.bit_length() - 1])
            self.tables.append(table)

    def __missing__(self, good: int) -> int:
        lanes = 0
        shift = 0
        for table in self.tables:
            lanes |= table[(good >> shift) & 255]
            shift += 8
        self[good] = lanes
        return lanes


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
        # Good-plane memo: one entry, keyed by the identity of the vector
        # lists and the initial state (a bench loop repeating one call).
        # Strong refs are intentional — callers must not mutate a vector
        # list in place between calls (no caller does; vectors are built
        # fresh per sequence).
        self._good_seqs: Tuple[Sequence[Vector], ...] = ()
        self._good_istate: Optional[Mapping[int, int]] = None
        self._good = None

    # -- good machine -------------------------------------------------------

    def chunks(self) -> List:
        """The good-machine ``fn(V, full)`` chunk functions (built once)."""
        if self._chunks is None:
            self._chunks = _codegen_chunks(self.arena.gates(),
                                           self.arena.name,
                                           num_nets=self.arena.num_nets)
        return self._chunks

    def _good_pass(self, sequences: Sequence[Sequence[Vector]],
                   initial_state: Optional[Mapping[int, int]]):
        """Simulate the fault-free machine on every sequence at once;
        returns ``(planes, ever)``.

        The sequences have equal length and share ``initial_state``; bit
        ``s`` of every value is sequence ``s``.  ``planes`` holds one flat
        ``[o0, z0, o1, z1, ...]`` snapshot per cycle, and ``ever`` is the
        same layout OR-ed over all cycles: ``ever[2n]`` / ``ever[2n+1]``
        mark the sequences in which net ``n`` ever carried binary 1 / 0.
        """
        from repro.obs import counter

        seqs = tuple(sequences)
        if (initial_state is self._good_istate
                and len(seqs) == len(self._good_seqs)
                and all(map(operator.is_, seqs, self._good_seqs))):
            counter("fault_sim.arena.good_plane_hits").inc()
            return self._good

        chunks = self.chunks()
        arena = self.arena
        pis, dff_q, dff_d = arena.pis, arena.dff_q, arena.dff_d
        full = (1 << len(seqs)) - 1
        state: Dict[int, Mask] = {q: (0, 0) for q in dff_q}
        if initial_state:
            for q, bit in initial_state.items():
                state[q] = (full, 0) if bit else (0, full)
        values = [0] * (2 * arena.num_nets)
        values[1] = full  # const0 zeros plane
        values[2] = full  # const1 ones plane
        planes: List[List[int]] = []
        for cycle in range(len(seqs[0])):
            vecs = [vectors[cycle] for vectors in seqs]
            for pi in pis:
                ones = zeros = 0
                bit_s = 1
                for vec in vecs:
                    bit = vec.get(pi)
                    if bit is not None:
                        if bit:
                            ones |= bit_s
                        else:
                            zeros |= bit_s
                    bit_s <<= 1
                values[2 * pi] = ones
                values[2 * pi + 1] = zeros
            for k in range(len(dff_q)):
                o, z = state[dff_q[k]]
                i = 2 * dff_q[k]
                values[i] = o
                values[i + 1] = z
            for chunk in chunks:
                chunk(values, full)
            planes.append(values[:])
            for k in range(len(dff_q)):
                i = 2 * dff_d[k]
                state[dff_q[k]] = (values[i], values[i + 1])
        ever = planes[0] if planes else [0] * len(values)
        for plane in planes[1:]:
            ever = list(map(operator.or_, ever, plane))
        self._good = (planes, ever)
        self._good_seqs = seqs
        self._good_istate = initial_state
        return self._good

    # -- lane blocks ----------------------------------------------------------

    def _run_block(self, blk: Sequence[Tuple[AnyFault, int]],
                   num_seqs: int, planes,
                   initial_state: Optional[Mapping[int, int]],
                   obs_set: frozenset) -> Tuple[int, int]:
        """One lane block: the union fanout cone of the block's sites
        interpreted over a flat value list, with injection fused at the
        sites, detection against the good planes and early exit once
        every lane has detected.

        Lane ``li`` carries the pair ``blk[li] = (fault, sequence)``.
        Values the block reads from outside its cone — boundary nets,
        the flop seeds and the good values it compares against — come
        from the batched good planes through :class:`_Spread`, so each
        lane sees its own sequence's good machine.

        Each cycle runs one gate program.  Stuck-at lanes are forced on
        every cycle, so their masks live in the every-cycle program
        (``fills`` for sites no cone gate produces, the producing gate's
        entry otherwise).  An upset is forced only in its flip cycle,
        which runs a list copy of that program with the cycle's upsets
        patched in.  A block of upsets alone starts at its earliest flip,
        with the cone's flip-flops seeded from the good plane of the
        preceding cycle: before its first injection every lane equals the
        good machine, so nothing can detect there.
        """
        arena = self.arena
        fanin, fanin_off = arena.fanin, arena.fanin_off
        gate_op, gate_out = arena.gate_op, arena.gate_out
        dff_q, dff_d = arena.dff_q, arena.dff_d
        lanes = len(blk)
        full = (1 << lanes) - 1

        # net -> (force1, force0) lane masks: stuck-at lanes in ``every``,
        # upsets under their flip cycle in ``flips``.
        every: Dict[int, Mask] = {}
        flips: Dict[int, Dict[int, Mask]] = {}
        seq_lanes = [0] * num_seqs
        for li, (f, s) in enumerate(blk):
            seq_lanes[s] |= 1 << li
            per = (flips.setdefault(f.cycle, {})
                   if isinstance(f, TransientFault) else every)
            m1, m0 = per.get(f.net, (0, 0))
            if f.value == 1:
                m1 |= 1 << li
            else:
                m0 |= 1 << li
            per[f.net] = (m1, m0)
        spread = _Spread(seq_lanes)

        # The cone's gate rows and flip-flops, boundary nets (read by the
        # cone but produced outside it: they broadcast the good value)
        # and observe points.
        cone = arena.cone_of({f.net for f, _s in blk})
        cone_gis = [gi for gi in range(len(gate_out)) if gate_out[gi] in cone]
        cone_dks = [k for k in range(len(dff_q)) if dff_q[k] in cone]
        innets: Set[int] = set()
        for gi in cone_gis:
            innets.update(fanin[fanin_off[gi]:fanin_off[gi + 1]])
        for k in cone_dks:
            innets.add(dff_d[k])
        comb_out = {gate_out[gi] for gi in cone_gis}
        produced = comb_out | {dff_q[k] for k in cone_dks}
        bound2 = [2 * n for n in sorted((innets | cone) - produced)]
        obs2 = [2 * p for p in sorted(obs_set & cone)]
        dffs = [(2 * dff_q[k], 2 * dff_d[k]) for k in cone_dks]

        base_fills = [(2 * n, ~(m1 | m0), m1, m0)
                      for n, (m1, m0) in sorted(every.items())
                      if n not in comb_out]
        upset_nets = {n for per in flips.values() for n in per}
        base = []
        row_of: Dict[int, int] = {}  # upset site -> its program row
        for gi in cone_gis:
            out = gate_out[gi]
            ins2 = tuple(2 * i for i in
                         fanin[fanin_off[gi]:fanin_off[gi + 1]])
            m1, m0 = every.get(out, (0, 0))
            em = ~(m1 | m0) if (m1 or m0) else None
            if out in upset_nets:
                row_of[out] = len(base)
            base.append((gate_op[gi], 2 * out, ins2, em, m1, m0))

        def program(cycle: int):
            """The (gate program, fills) pair for ``cycle``."""
            upsets = flips.get(cycle)
            if not upsets:
                return base, base_fills
            prog, fills = list(base), list(base_fills)
            for n, (u1, u0) in upsets.items():
                if n in comb_out:
                    op, o2, ins2, _em, m1, m0 = prog[row_of[n]]
                    m1 |= u1
                    m0 |= u0
                    prog[row_of[n]] = (op, o2, ins2, ~(m1 | m0), m1, m0)
                else:
                    fills.append((2 * n, ~(u1 | u0), u1, u0))
            return prog, fills

        cstart = 0 if every else min(flips)
        v = [0] * (2 * arena.num_nets)
        state: Dict[int, Mask] = {}
        if cstart > 0:
            prev = planes[cstart - 1]
            for q2, d2 in dffs:
                state[q2] = (spread[prev[d2]], spread[prev[d2 + 1]])
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
            prog, fills = program(cycle)
            for i in bound2:
                v[i] = spread[plane[i]]
                v[i + 1] = spread[plane[i + 1]]
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
            # A lane detects where it holds the binary opposite of its
            # sequence's good value.
            for i in obs2:
                det |= (v[i + 1] & spread[plane[i]]) | \
                       (v[i] & spread[plane[i + 1]])
            state = {q2: (v[d2], v[d2 + 1]) for q2, d2 in dffs}
            if det == full:
                break
        return det, full

    # -- public entry --------------------------------------------------------

    def first_detections(
        self,
        sequences: Sequence[Sequence[Vector]],
        faults: Sequence[AnyFault],
        initial_state: Optional[Mapping[int, int]] = None,
        extra_observables: Optional[Sequence[int]] = None,
        lanes: int = 512,
    ) -> Tuple[List[Set[AnyFault]], int]:
        """For each sequence, the faults it detects first, plus the number
        of lane blocks run.

        The sequences have equal length and share ``initial_state``.  A
        fault appears under the first sequence that detects it and under
        no later one — what a fault-dropping loop over the sequences
        would find.  ``faults`` may mix stuck-at faults and single-cycle
        upsets (:class:`TransientFault`).

        A lane carries one (fault, sequence) pair.  Each model has an
        exact filter over the memoized good planes: a stuck-at-``v``
        fault keeps a sequence only if its site ever carries binary
        ``1-v`` in it, an upset forcing ``v`` only if its site carries
        binary ``1-v`` in the flip cycle.  Elsewhere the force is the
        identity or a Kleene refinement of the good value, which can
        never reach an observe point as a binary-vs-binary difference
        (module docstring, step 2).  Surviving pairs are sorted by
        :meth:`NetlistArena.cone_pack_order` of their fault, then by
        sequence, and cut into blocks of ``lanes``.  Bit-identical to the
        interpreted oracle for any mix of X inputs, initial flip-flop
        state and extra observe points.
        """
        from repro.obs import counter

        found: List[Set[AnyFault]] = [set() for _ in sequences]
        if not faults or not sequences:
            return found, 0
        planes, ever = self._good_pass(sequences, initial_state)
        arena = self.arena
        obs_points: Set[int] = set(arena.pos)
        if extra_observables:
            obs_points.update(extra_observables)
        obs_set = frozenset(obs_points)

        # Fault -> mask of the sequences that may detect it.  Index
        # ``2 * net + value`` is the plane of the value a stuck-at-value
        # fault (or an upset to value) must disturb: zeros for 1, ones
        # for 0.
        ncyc = len(planes)
        live: Dict[AnyFault, int] = {}
        for f in faults:
            if not isinstance(f, TransientFault):
                mask = ever[2 * f.net + f.value]
            elif f.cycle < ncyc:
                mask = planes[f.cycle][2 * f.net + f.value]
            else:
                mask = 0
            if mask:
                live[f] = mask
        pairs: List[Tuple[AnyFault, int]] = []
        for f in arena.cone_pack_order(list(live)):
            mask = live[f]
            while mask:
                low = mask & -mask
                pairs.append((f, low.bit_length() - 1))
                mask ^= low
        counter("fault_sim.arena.filtered_undetectable").inc(
            len(faults) * len(sequences) - len(pairs))
        # Pairs of one fault are adjacent and in sequence order, and
        # blocks run in pair order, so the first detection of a fault
        # seen is its earliest sequence.
        first: Dict[AnyFault, int] = {}
        blocks = filled = early = 0
        for start in range(0, len(pairs), lanes):
            blk = pairs[start:start + lanes]
            det, present = self._run_block(blk, len(sequences), planes,
                                           initial_state, obs_set)
            blocks += 1
            filled += len(blk)
            if det == present:
                early += 1
            while det:
                li = (det & -det).bit_length() - 1
                f, s = blk[li]
                first.setdefault(f, s)
                det &= det - 1
        for f, s in first.items():
            found[s].add(f)
        counter("fault_sim.arena.passes").inc(blocks)
        counter("fault_sim.arena.lanes_filled").inc(filled)
        counter("fault_sim.arena.early_exits").inc(early)
        return found, blocks


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
