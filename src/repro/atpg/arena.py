"""Kernel rows, good-machine codegen and word-parallel fault simulation.

The object-graph :class:`~repro.synth.netlist.Netlist` is the wrong shape for
the simulation hot path: every evaluation walks ``Gate`` dataclasses, tuples
and dicts.  :class:`ArenaFaultSim` encodes a netlist once, in its
constructor, as plain rows of ints, its kernel rows, and runs on nothing
else: the good machine is generated from the rows, and the lane blocks
evaluate them directly.  Rows are built once per gate list in process
(:func:`get_arena_sim`: the views that MUTs sharing one transformed module
get share one simulator); only the compiled good-machine code is
persisted, in the ``codegen`` store stage.

This module is the one optimised simulator.  Its differential oracle is
the interpreted gate-list code (:mod:`repro.atpg.fault_sim`,
:mod:`repro.atpg.simulator`), selected only by oracle callers with
``FaultSimulator(..., backend="interpreted")``.

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
   becomes a local variable (``o<2n>``/``z<2n>`` for the ones/zeros
   masks of net *n*), gate operations are inlined in levelized order, and
   the results are flushed into a flat list ``V`` (``V[2n]`` = ones,
   ``V[2n+1]`` = zeros of net *n*).  The code is chunked into functions
   of bounded size so CPython's compiler stays fast.  The planes OR-ed
   over all cycles give, per net, the sequences in which it ever carried
   binary 1 and binary 0.
2. **Refinement filter** — a stuck-at-``v`` fault whose site never carries
   the binary value ``1-v`` in a sequence's good machine is provably
   undetectable by that sequence, so that (fault, sequence) lane is never
   simulated.  Proof sketch: by induction over levelized order and cycles,
   every faulty-machine net value *refines* the good value in the Kleene
   information order (injection forces ``v`` where the good machine has
   ``v`` or ``X``; all gate functions and the DFF latch are monotone in
   that order).  Detection requires a binary-vs-binary difference at an
   observe point, which a refinement cannot produce.
3. **Event-driven lane blocks** — surviving pairs are sorted in cone
   pack order of their fault, then by sequence, and cut into blocks of
   :data:`DEFAULT_LANES` pairs, wide enough that the faults of a batch's
   shared cones share each gate evaluation.  A block stores only the nets
   whose value differs from their good value as broadcast to the block's
   lanes (each sequence's good value to that sequence's lanes), and each
   cycle evaluates, in level order, only the gate rows that read such a
   net; X-masks are preserved end to end, a lane that has detected
   returns to the good machine, and the block exits early once every
   lane has detected.
   This is exact: a sequence's lanes are disjoint from every other
   sequence's and together they cover the block, so the broadcast
   commutes with every gate's AND/OR fold, and a gate whose inputs all
   equal their broadcast good values outputs its own.  One block
   simulator serves both fault models, each an injection schedule over
   the same force map: a stuck-at site is forced on every cycle, an SEU
   (:class:`TransientFault`) only in its flip cycle.

A call returns, per sequence, the faults that sequence detects *first*:
exactly what a fault-dropping loop over the sequences would find.  A
single sequence is the batch of one.  Results are bit-identical to the
interpreted oracle; ``tests/test_arena.py`` holds the differential suite.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple
from weakref import WeakKeyDictionary

from repro.synth.netlist import GateType, Netlist
from repro.atpg.faults import AnyFault, TransientFault

Mask = Tuple[int, int]
Vector = Mapping[int, int]
# One kernel row: (opcode, 2 * output, 2 * inputs, readers of the output).
KernelRow = Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]

# Gates per generated function: bounds CPython compile time per chunk while
# keeping the per-call dispatch overhead negligible.
_CHUNK_GATES = 1500

#: (fault, sequence) pairs per lane block.  An event-driven block pays one
#: evaluation per (gate, cycle) in the union of its lanes' activity, so a
#: wider block shares evaluations across more faults, while each
#: evaluation works on wider ints and every differing net holds two of
#: them.  Of 512, 2048, 4096 and 8192, 4096 graded the dense batches
#: fastest (perfbench ``seu_campaign``'s, 16 x 32-vector sequences over
#: full-chip arm2); one block per call was slower and larger on a
#: full-chip sequence (``docs/performance.md``, "Lane-block width").
DEFAULT_LANES = 4096

# Integer opcodes of the kernel rows.  DFFs live in their own (dff_q,
# dff_d) rows, so only combinational types appear here.
OP_AND, OP_OR, OP_NAND, OP_NOR, OP_XOR, OP_XNOR, OP_NOT, OP_BUF = range(8)

OP_OF = {
    GateType.AND: OP_AND, GateType.OR: OP_OR, GateType.NAND: OP_NAND,
    GateType.NOR: OP_NOR, GateType.XOR: OP_XOR, GateType.XNOR: OP_XNOR,
    GateType.NOT: OP_NOT, GateType.BUF: OP_BUF,
}


# -- code generation ----------------------------------------------------------

def _gate_statements(op: int, out: int, ins: Tuple[int, ...]) -> List[str]:
    """Python statements computing ``o<out>``/``z<out>`` from input locals.

    ``out`` and ``ins`` are doubled net ids, as in a kernel row.  The
    expressions replicate :func:`repro.atpg.simulator.eval_gate` exactly,
    including the identity-element folds (``full`` trims the AND/XOR masks the
    same way the interpreted fold starting from ``(full, 0)`` / ``(0, full)``
    does), so both backends agree bit-for-bit on all three values.
    """
    if op == OP_BUF:
        a = ins[0]
        return [f" o{out} = o{a}; z{out} = z{a}"]
    if op == OP_NOT:
        a = ins[0]
        return [f" o{out} = z{a}; z{out} = o{a}"]
    if op == OP_AND or op == OP_NAND:
        ones = " & ".join(["full"] + [f"o{i}" for i in ins])
        zeros = " | ".join(f"z{i}" for i in ins)
        if op == OP_NAND:
            return [f" o{out} = {zeros}; z{out} = {ones}"]
        return [f" o{out} = {ones}; z{out} = {zeros}"]
    if op == OP_OR or op == OP_NOR:
        ones = " | ".join(f"o{i}" for i in ins)
        zeros = " & ".join(["full"] + [f"z{i}" for i in ins])
        if op == OP_NOR:
            return [f" o{out} = {zeros}; z{out} = {ones}"]
        return [f" o{out} = {ones}; z{out} = {zeros}"]
    first = ins[0]  # XOR / XNOR
    stmts = [f" _to = full & o{first}; _tz = full & z{first}"]
    for i in ins[1:]:
        stmts.append(
            f" _to, _tz = (_to & z{i}) | (_tz & o{i}), "
            f"(_to & o{i}) | (_tz & z{i})"
        )
    if op == OP_XNOR:
        stmts.append(f" o{out} = _tz; z{out} = _to")
    else:
        stmts.append(f" o{out} = _to; z{out} = _tz")
    return stmts


def _codegen_code_objects(rows: Sequence[KernelRow], name: str):
    """Generate and compile one code object per chunk of kernel rows."""
    codes = []
    for start in range(0, len(rows), _CHUNK_GATES):
        lines = ["def _chunk(V, full):"]
        local: Set[int] = set()
        for op, out, ins, _readers in rows[start:start + _CHUNK_GATES]:
            for i in ins:
                if i not in local:
                    lines.append(f" o{i} = V[{i}]; z{i} = V[{i + 1}]")
                    local.add(i)
            lines.extend(_gate_statements(op, out, ins))
            local.add(out)
            lines.append(f" V[{out}] = o{out}; V[{out + 1}] = z{out}")
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


def _codegen_chunks(sim: ArenaFaultSim):
    """The ``fn(V, full)`` chunk functions for a simulator's kernel rows.

    Codegen and CPython compilation dominate first-call latency on large
    netlists, so the compiled code objects are persisted in the artifact
    store as :mod:`marshal` blobs keyed by the levelized gate-order
    fingerprint (:attr:`ArenaFaultSim.digest`) and the interpreter's
    bytecode magic; a warm process deserializes instead of re-generating
    and re-compiling.  Any failure to deserialize falls back to a fresh
    compile.
    """
    import importlib.util
    import marshal

    from repro.store import MISS, get_store

    store = get_store()
    key = {
        "gates": sim.digest,
        "chunk_gates": _CHUNK_GATES,
        "magic": importlib.util.MAGIC_NUMBER.hex(),
    }
    blobs = store.get("codegen", key)
    if blobs is not MISS:
        try:
            return _chunks_from_codes(marshal.loads(blob) for blob in blobs)
        except (ValueError, EOFError, TypeError, KeyError):
            pass  # foreign/damaged blob: fall through to a fresh compile
    codes = _codegen_code_objects(sim.rows, sim.name)
    store.put("codegen", key, [marshal.dumps(code) for code in codes])
    return _chunks_from_codes(codes)


# -- word-parallel fault simulation -------------------------------------------


class _Spread(dict):
    """Good value -> lane mask for one lane block.

    Bit ``s`` of a batched good value is sequence ``s``; the mask holds
    the block's lanes of every sequence whose bit is set, so every good
    value a block reads or compares against broadcasts each sequence's
    good value to that sequence's lanes only.  Entries are
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
    """Fault simulation over one netlist's kernel rows.

    The constructor encodes the netlist and keeps no reference to it, so
    the :func:`get_arena_sim` cache entry dies with its netlist:

    - ``rows[gi]`` — ``(op, 2 * output, 2 * inputs, readers of the
      output)`` per combinational gate, in levelized order,
    - ``level[gi]`` — each row's combinational level (constants, PIs and
      flip-flop Qs are level 0, so gates start at 1),
    - ``readers[n]`` — the rows that read net ``n``, each row once, in
      row order,
    - ``loads`` — ``2 * D`` mapped to the ``2 * Q`` of the flip-flops that
      D net loads,
    - ``dff_q`` / ``dff_d`` — flip-flop Q and D nets, ``pis`` / ``pos`` —
      primary input / output nets,
    - ``site_rank`` — DFS-topological rank per net (-1 for nets that are
      not gate outputs); :meth:`cone_pack_order` sorts fault sites by it so
      neighbouring lanes share fanout cones,
    - ``shape`` — the netlist's ``(num_nets, gates, pis, pos)`` counts, by
      which :func:`get_arena_sim` tells a stale simulator, and ``digest``,
      the levelized gate-order fingerprint that keys the ``codegen`` store
      stage.

    The good-machine chunk functions are built on first use.  Get
    instances through :func:`get_arena_sim` so every ``FaultSimulator``
    over the same netlist shares them.
    """

    def __init__(self, netlist: Netlist):
        from repro.store import gates_fingerprint

        order = netlist.levelized_order()
        level = netlist.levels()
        self.name = netlist.name
        self.num_nets = n = netlist.num_nets
        twice = [2 * net for net in range(n)]  # shared ints
        readers: List[List[int]] = [[] for _ in range(n)]
        for gi, g in enumerate(order):
            for i in dict.fromkeys(g.inputs):
                readers[i].append(gi)
        self.readers = [tuple(gis) for gis in readers]
        self.rows: List[KernelRow] = [
            (OP_OF[g.type], twice[g.output],
             tuple(twice[i] for i in g.inputs), self.readers[g.output])
            for g in order
        ]
        self.level = [level[g.output] for g in order]

        dffs = netlist.dffs()
        self.dff_q = [d.output for d in dffs]
        self.dff_d = [d.inputs[0] for d in dffs]
        self.loads: Dict[int, Tuple[int, ...]] = {}
        for q, d in zip(self.dff_q, self.dff_d):
            self.loads[2 * d] = self.loads.get(2 * d, ()) + (2 * q,)
        self.pis = list(netlist.pis)
        self.pos = list(netlist.pos)

        self.site_rank = [-1] * n
        for i, g in enumerate(netlist.topological_order()):
            self.site_rank[g.output] = i
        self.shape = _shape(netlist)
        self.digest = gates_fingerprint(order, n)
        self._chunks = None  # good-machine codegen, built on first use

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

    # -- good machine -------------------------------------------------------

    def chunks(self) -> List:
        """The good-machine ``fn(V, full)`` chunk functions (built once)."""
        if self._chunks is None:
            self._chunks = _codegen_chunks(self)
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
        chunks = self.chunks()
        pis, dff_q, dff_d = self.pis, self.dff_q, self.dff_d
        full = (1 << len(sequences)) - 1
        state: Dict[int, Mask] = {q: (0, 0) for q in dff_q}
        if initial_state:
            for q, bit in initial_state.items():
                state[q] = (full, 0) if bit else (0, full)
        values = [0] * (2 * self.num_nets)
        values[1] = full  # const0 zeros plane
        values[2] = full  # const1 ones plane
        planes: List[List[int]] = []
        for cycle in range(len(sequences[0])):
            vecs = [vectors[cycle] for vectors in sequences]
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
        return planes, ever

    # -- lane blocks ----------------------------------------------------------

    def _run_block(self, blk: Sequence[Tuple[AnyFault, int]],
                   num_seqs: int, planes,
                   obs2: frozenset) -> Tuple[int, int, int]:
        """One lane block, event-driven; returns ``(detected lanes, all
        lanes, gate-row evaluations)``.

        Lane ``li`` carries the pair ``blk[li] = (fault, sequence)``, and
        ``obs2`` holds the observe points' doubled net ids.  A net's
        *broadcast good value* is its batched good-plane value spread
        through :class:`_Spread`, so each lane sees its own sequence's
        good machine.  Each cycle stores only the nets whose
        value differs from it (``diff``), and a gate row is evaluated only
        when one of its inputs differs, in level order from per-level
        buckets: a gate whose inputs all equal their broadcast good values
        outputs its own.

        A cycle starts from the differing D values the flip-flops carried
        out of the previous cycle, then seeds the cycle's force map: every
        stuck-at site, plus the upsets that flip in this cycle.  A site
        that is a gate output is seeded from its broadcast good value and
        forced again if its gate is evaluated.  A lane detects where a
        differing observe point holds the binary opposite of its
        sequence's good value; lanes never interact, so a lane that has
        detected leaves the force maps and the carried values and
        follows the good machine from the next cycle on.  Before a
        block's first injection every lane equals the good machine, so a
        block of upsets alone starts at its earliest flip.
        """
        rows, readers_of, level, loads = (self.rows, self.readers,
                                          self.level, self.loads)
        # One bucket of pending gate rows per level, emptied as it runs
        # (rows are in level order, so the last row has the top level).
        buckets: List[Set[int]] = [
            set() for _ in range(level[-1] + 1 if level else 1)]
        lanes = len(blk)
        full = (1 << lanes) - 1

        # 2 * net -> (force1, force0) lane masks: stuck-at lanes in
        # ``every``, upsets under their flip cycle in ``flips``, which
        # below also takes in ``every``.
        every: Dict[int, Mask] = {}
        flips: Dict[int, Dict[int, Mask]] = {}
        seq_lanes = [0] * num_seqs
        for li, (f, s) in enumerate(blk):
            seq_lanes[s] |= 1 << li
            per = (flips.setdefault(f.cycle, {})
                   if isinstance(f, TransientFault) else every)
            m1, m0 = per.get(2 * f.net, (0, 0))
            if f.value == 1:
                m1 |= 1 << li
            else:
                m0 |= 1 << li
            per[2 * f.net] = (m1, m0)
        spread = _Spread(seq_lanes)

        # A cycle's force map over the lanes still live, 2 * net ->
        # (force1, force0, keep mask): an upset joins the stuck-at sites
        # in its flip cycle.
        def force_map(masks: Mapping[int, Mask], live: int
                      ) -> Dict[int, Tuple[int, int, int]]:
            return {n2: (m1 & live, m0 & live, ~((m1 | m0) & live))
                    for n2, (m1, m0) in masks.items() if (m1 | m0) & live}

        for cycle, upsets in flips.items():
            merged = dict(every)
            for n2, (u1, u0) in upsets.items():
                m1, m0 = merged.get(n2, (0, 0))
                merged[n2] = (m1 | u1, m0 | u0)
            flips[cycle] = merged
        forces = force_map(every, full)

        carry: Dict[int, Mask] = {}  # 2 * Q net -> differing value
        det = evals = 0
        for cycle in range(0 if every else min(flips), len(planes)):
            plane = planes[cycle]
            force = (force_map(flips[cycle], ~det) if cycle in flips
                     else forces)
            diff = carry
            for q2 in carry:
                for r in readers_of[q2 >> 1]:
                    buckets[level[r]].add(r)
            for n2, (m1, m0, em) in force.items():
                g1 = spread[plane[n2]]
                g0 = spread[plane[n2 + 1]]
                o, z = diff.get(n2, (g1, g0))
                o = (o & em) | m1
                z = (z & em) | m0
                if o != g1 or z != g0:
                    diff[n2] = (o, z)
                    for r in readers_of[n2 >> 1]:
                        buckets[level[r]].add(r)
                else:
                    diff.pop(n2, None)

            get = diff.get
            for bucket in buckets:
                if not bucket:
                    continue
                evals += len(bucket)
                for gi in bucket:
                    op, out2, ins2, readers = rows[gi]
                    if op == OP_AND or op == OP_NAND:
                        o, z = full, 0
                        for i in ins2:
                            d = get(i)
                            if d is None:
                                o &= spread[plane[i]]
                                z |= spread[plane[i + 1]]
                            else:
                                o &= d[0]
                                z |= d[1]
                        if op == OP_NAND:
                            o, z = z, o
                    elif op == OP_OR or op == OP_NOR:
                        o, z = 0, full
                        for i in ins2:
                            d = get(i)
                            if d is None:
                                o |= spread[plane[i]]
                                z &= spread[plane[i + 1]]
                            else:
                                o |= d[0]
                                z &= d[1]
                        if op == OP_NOR:
                            o, z = z, o
                    elif op == OP_NOT or op == OP_BUF:
                        i = ins2[0]
                        d = get(i)
                        if d is None:
                            o = spread[plane[i]]
                            z = spread[plane[i + 1]]
                        else:
                            o, z = d
                        if op == OP_NOT:
                            o, z = z, o
                    else:  # XOR / XNOR n-ary fold
                        o, z = 0, full
                        for i in ins2:
                            d = get(i)
                            if d is None:
                                io = spread[plane[i]]
                                iz = spread[plane[i + 1]]
                            else:
                                io, iz = d
                            o, z = (o & iz) | (z & io), (o & io) | (z & iz)
                        if op == OP_XNOR:
                            o, z = z, o
                    forced = force.get(out2)
                    if forced is not None:
                        m1, m0, em = forced
                        o = (o & em) | m1
                        z = (z & em) | m0
                    if (o != spread[plane[out2]]
                            or z != spread[plane[out2 + 1]]):
                        diff[out2] = (o, z)
                        for r in readers:
                            buckets[level[r]].add(r)
                    elif forced is not None:
                        diff.pop(out2, None)  # its seed differed
                bucket.clear()

            seen = det
            for n2, (o, z) in diff.items():
                if n2 in obs2:
                    det |= ((z & spread[plane[n2]])
                            | (o & spread[plane[n2 + 1]]))
            if det == full or cycle + 1 == len(planes):
                break
            # Lanes never interact, and a lane that has detected is done:
            # it leaves the force maps and the carried values, so it
            # follows the good machine from the next cycle on.
            if det != seen:
                forces = force_map(every, ~det)
            carry = {}
            for n2, (o, z) in diff.items():
                qs = loads.get(n2)
                if qs is None:
                    continue
                if det:
                    g1 = spread[plane[n2]]
                    g0 = spread[plane[n2 + 1]]
                    o = (o & ~det) | (g1 & det)
                    z = (z & ~det) | (g0 & det)
                    if o == g1 and z == g0:
                        continue
                for q2 in qs:
                    carry[q2] = (o, z)
        return det, full, evals

    # -- public entry --------------------------------------------------------

    def first_detections(
        self,
        sequences: Sequence[Sequence[Vector]],
        faults: Sequence[AnyFault],
        initial_state: Optional[Mapping[int, int]] = None,
        extra_observables: Optional[Sequence[int]] = None,
        lanes: int = DEFAULT_LANES,
    ) -> Tuple[List[Set[AnyFault]], int]:
        """For each sequence, the faults it detects first, plus the number
        of lane blocks run.

        The sequences have equal length and share ``initial_state``.  A
        fault appears under the first sequence that detects it and under
        no later one — what a fault-dropping loop over the sequences
        would find.  ``faults`` may mix stuck-at faults and single-cycle
        upsets (:class:`TransientFault`).

        A lane carries one (fault, sequence) pair.  Each model has an
        exact filter over the batch's good planes: a stuck-at-``v``
        fault keeps a sequence only if its site ever carries binary
        ``1-v`` in it, an upset forcing ``v`` only if its site carries
        binary ``1-v`` in the flip cycle.  Elsewhere the force is the
        identity or a Kleene refinement of the good value, which can
        never reach an observe point as a binary-vs-binary difference
        (module docstring, step 2).  Surviving pairs are sorted by
        :meth:`cone_pack_order` of their fault, then by
        sequence, and cut into blocks of ``lanes``.  Bit-identical to the
        interpreted oracle for any mix of X inputs, initial flip-flop
        state and extra observe points.
        """
        from repro.obs import counter

        found: List[Set[AnyFault]] = [set() for _ in sequences]
        if not faults or not sequences:
            return found, 0
        planes, ever = self._good_pass(sequences, initial_state)
        obs_points: Set[int] = set(self.pos)
        if extra_observables:
            obs_points.update(extra_observables)
        obs2 = frozenset(2 * n for n in obs_points)

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
        for f in self.cone_pack_order(list(live)):
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
        blocks = filled = early = evals = 0
        for start in range(0, len(pairs), lanes):
            blk = pairs[start:start + lanes]
            det, present, block_evals = self._run_block(
                blk, len(sequences), planes, obs2)
            blocks += 1
            filled += len(blk)
            evals += block_evals
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
        counter("fault_sim.arena.gate_evals").inc(evals)
        return found, blocks


_SIMS: "WeakKeyDictionary[Netlist, ArenaFaultSim]" = WeakKeyDictionary()


def _shape(netlist: Netlist) -> Tuple[int, int, int, int]:
    return (netlist.num_nets, len(netlist.gates), len(netlist.pis),
            len(netlist.pos))


def get_arena_sim(netlist: Netlist) -> ArenaFaultSim:
    """The shared :class:`ArenaFaultSim` for ``netlist``.

    One simulator per gate list: a view that
    :func:`~repro.core.transform.build_transformed_module` makes of a
    netlist it already synthesized (its ``view_of``) shares the
    simulator of that netlist, so every MUT with the same transformed
    module, and every simulator facade over it, shares one set of kernel
    rows and good-machine chunks.  The simulator is rebuilt when the
    netlist grew (append-only mutation is the only kind this codebase
    performs).  It never references the netlist, so the cache entry dies
    with the netlist and its last view.
    """
    netlist = getattr(netlist, "view_of", netlist)
    sim = _SIMS.get(netlist)
    if sim is None or sim.shape != _shape(netlist):
        sim = _SIMS[netlist] = ArenaFaultSim(netlist)
    return sim
