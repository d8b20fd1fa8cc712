"""Build the transformed module M + S' (paper Fig. 1).

The extraction marks are turned back into a *pruned* Verilog design: every
module keeps only the marked statements (with their enclosing if/case
skeletons), only the needed ports, only the referenced nets and only the
marked child instances.  The pruned design is then emitted as synthesizable
Verilog — FACTOR "retains the original directory structure instead of
creating unique instances" — and synthesized to a flat gate netlist in which
the MUT's faults can be targeted by hierarchical region.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.extractor import (
    ExtractionResult,
    FunctionalConstraintExtractor,
    ModuleMarks,
    MutSpec,
    _proc_assign_order,
)
from repro.hierarchy.design import Design
from repro.obs import counter, span
from repro.store import fingerprint_text
from repro.synth.elaborate import Elaborator
from repro.synth.netlist import Netlist
from repro.synth.opt import optimize
from repro.verilog import ast
from repro.verilog.writer import write_source


@dataclass
class TransformedModule:
    """The MUT combined with its reduced environment S'."""

    mut: MutSpec
    mode: str
    source: ast.Source
    verilog: str
    netlist: Netlist
    mut_region: str
    num_pis: int
    num_pos: int
    total_gates: int
    mut_gates: int
    surrounding_gates: int
    synthesis_seconds: float
    extraction_seconds: float


# What synthesis reads (the emitted S' + M text's fingerprint, the top
# module, ``do_optimize``) -> the netlist it built, its synthesis seconds
# and the path of the MUT whose synthesis built it.
SynthMemo = Dict[Tuple[str, Optional[str], bool], Tuple[Netlist, float, str]]


def build_transformed_module(
    design: Design,
    extraction: ExtractionResult,
    extractor: FunctionalConstraintExtractor,
    do_optimize: bool = True,
    synthesized: Optional[SynthMemo] = None,
) -> TransformedModule:
    """Assemble, emit and synthesize the transformed module.

    With a ``synthesized`` memo, S' + M is elaborated and optimized only
    if no earlier call synthesized the same Verilog text for the same top
    and ``do_optimize``.  Otherwise the module gets a view of that netlist
    under its own ``<module>_transformed`` name, the memo entry's cold
    ``synthesis_seconds``, and the ``compose`` span names the MUT whose
    synthesis it reuses in ``synthesis_reused_from``.  The view's
    ``view_of`` is that netlist, so every view of it shares one fault
    simulator (:func:`~repro.atpg.arena.get_arena_sim`).
    """
    netlist_name = f"{extraction.mut.module}_transformed"
    with span("compose", mut=extraction.mut.path) as sp:
        pruned = prune_design(design, extraction, extractor)
        verilog = write_source(pruned)
        kept = extraction.total_statements()
        total_stmts = sum(
            len(design.module(name).assigns)
            + len(design.module(name).gates)
            + len(design.module(name).instances)
            + sum(len(_proc_assign_order(blk))
                  for blk in design.module(name).always_blocks)
            for name in design.module_names()
        )
        sp.set("modules_kept", len(pruned.modules))
        sp.set("statements_kept", kept)
        sp.set("statements_pruned", max(0, total_stmts - kept))
        counter("compose.statements_pruned").inc(max(0, total_stmts - kept))
        if synthesized is None:
            synthesized = {}
        key = (fingerprint_text(verilog), design.top, do_optimize)
        shared = synthesized.get(key)
        if shared is not None:
            sp.set("synthesis_reused_from", shared[2])

    if shared is None:
        with span("synth", mut=extraction.mut.path) as sp:
            pruned_design = Design(pruned, top=design.top)
            netlist = Elaborator(pruned_design).synthesize(
                design.top, name=netlist_name
            )
            if do_optimize:
                netlist = optimize(netlist)
            sp.set("gates", netlist.gate_count())
            synthesis_seconds = sp.cpu_seconds
        synthesized[key] = (netlist, synthesis_seconds, extraction.mut.path)
    else:
        # A view under this MUT's name that shares the gate list, net
        # names, PIs, POs and regions.  Finished transformed netlists are
        # never mutated: only synth/elaborate.py, synth/opt.py and
        # synth/equiv.py build netlists, each a new one.
        netlist = copy.copy(shared[0])
        netlist.name = netlist_name
        netlist.view_of = shared[0]  # type: ignore[attr-defined]
        synthesis_seconds = shared[1]

    region = extraction.mut.path
    regions = getattr(netlist, "regions", {})
    mut_gates = sum(
        1
        for gate in netlist.combinational_gates()
        if regions.get(gate.output, "").startswith(region)
        and gate.type.value != "buf"
    )
    total_gates = netlist.gate_count()
    return TransformedModule(
        mut=extraction.mut,
        mode=extraction.mode.value,
        source=pruned,
        verilog=verilog,
        netlist=netlist,
        mut_region=region,
        num_pis=len(netlist.pis),
        num_pos=len(netlist.pos),
        total_gates=total_gates,
        mut_gates=mut_gates,
        surrounding_gates=total_gates - mut_gates,
        synthesis_seconds=synthesis_seconds,
        extraction_seconds=extraction.extraction_seconds,
    )


def prune_design(design: Design, extraction: ExtractionResult,
                 extractor: FunctionalConstraintExtractor) -> ast.Source:
    """Produce the pruned AST Source for an extraction result.

    The kept modules come in the design's own order
    (``design.module_names()``), not in the order the extraction reached
    them, so two extractions that keep the same S' + M emit the same
    Verilog text.  Elaboration starts at the top and resolves instances
    by name, so the order does not change the netlist.
    """
    marks = {name: extraction.marks[name] for name in design.module_names()
             if name in extraction.marks}
    pruned_modules: List[ast.Module] = []
    pruned_ports: Dict[str, Set[str]] = {}

    # First pass: decide each module's surviving ports.
    for name, mm in marks.items():
        module = design.module(name)
        if mm.whole:
            pruned_ports[name] = set(module.port_names())
        else:
            keep: Set[str] = set()
            for port in module.ports:
                if port.direction == "input" and port.name in mm.needed_inputs:
                    keep.add(port.name)
                elif (port.direction == "output"
                      and port.name in mm.needed_outputs):
                    keep.add(port.name)
                elif port.direction == "inout" and (
                    port.name in mm.needed_inputs
                    or port.name in mm.needed_outputs
                ):
                    keep.add(port.name)
            pruned_ports[name] = keep

    for name, mm in marks.items():
        module = design.module(name)
        if mm.whole:
            pruned_modules.append(module)
            continue
        if mm.is_empty() and name != design.top:
            continue
        pruned_modules.append(
            _prune_module(module, mm, pruned_ports, extractor)
        )

    return ast.Source(modules=pruned_modules)


def _prune_module(module: ast.Module, mm: ModuleMarks,
                  pruned_ports: Dict[str, Set[str]],
                  extractor: FunctionalConstraintExtractor) -> ast.Module:
    kept_assigns = [module.assigns[i] for i in sorted(mm.assigns)]
    kept_gates = [module.gates[i] for i in sorted(mm.gates)]

    proc_ids = extractor.proc_assigns_of(module, mm.proc_assigns)
    kept_always: List[ast.Always] = []
    for idx in sorted(mm.always_blocks):
        always = module.always_blocks[idx]
        body = _prune_stmt(always.body, proc_ids)
        if body is not None:
            kept_always.append(
                ast.Always(sensitivity=always.sensitivity, body=body,
                           line=always.line)
            )

    kept_instances: List[ast.Instance] = []
    for inst in module.instances:
        if inst.inst_name not in mm.instances:
            continue
        child_keep = pruned_ports.get(inst.module_name, set())
        conns: List[ast.PortConn] = []
        for conn, port_name in _named_connections(inst, module, extractor):
            if port_name in child_keep:
                conns.append(ast.PortConn(name=port_name, expr=conn.expr,
                                          line=conn.line))
        kept_instances.append(
            ast.Instance(
                module_name=inst.module_name,
                inst_name=inst.inst_name,
                connections=conns,
                param_overrides=list(inst.param_overrides),
                line=inst.line,
            )
        )

    # Referenced signal names across all kept items.
    referenced: Set[str] = set()
    for assign in kept_assigns:
        referenced |= assign.defined() | assign.used()
    for gate in kept_gates:
        referenced |= gate.defined() | gate.used()
    for always in kept_always:
        referenced |= always.defined() | always.used()
        referenced |= {item.signal for item in always.sensitivity}
    for inst in kept_instances:
        for conn in inst.connections:
            if conn.expr is not None:
                referenced |= conn.expr.signals()
                try:
                    referenced |= ast.lhs_base_names(conn.expr)
                except TypeError:
                    pass

    port_keep = pruned_ports[module.name]
    ports = [p for p in module.ports if p.name in port_keep]
    port_order = [n for n in module.port_order if n in port_keep]
    nets = [n for n in module.nets
            if n.name in referenced and n.name not in port_keep]
    # A pruned-away port may still be referenced internally (e.g. an output
    # that also feeds local logic): redeclare it as a plain net.
    declared = {n.name for n in nets} | port_keep
    for port in module.ports:
        if port.name in referenced and port.name not in declared:
            nets.append(ast.NetDecl(
                kind="reg" if port.is_reg else "wire",
                name=port.name,
                range=port.range,
                line=port.line,
            ))
            declared.add(port.name)
    # Port range expressions may reference parameters: keep all params.
    params = list(module.params)

    return ast.Module(
        name=module.name,
        port_order=port_order,
        ports=ports,
        params=params,
        nets=nets,
        assigns=kept_assigns,
        always_blocks=kept_always,
        instances=kept_instances,
        gates=kept_gates,
        line=module.line,
    )


def _named_connections(inst: ast.Instance, parent: ast.Module,
                       extractor: FunctionalConstraintExtractor):
    """Yield ``(conn, port_name)`` pairs, resolving positional connections."""
    child = extractor.design.module(inst.module_name)
    positional = all(conn.name is None for conn in inst.connections)
    if positional and inst.connections:
        for idx, conn in enumerate(inst.connections):
            if idx < len(child.port_order):
                yield conn, child.port_order[idx]
    else:
        for conn in inst.connections:
            if conn.name is not None:
                yield conn, conn.name


def _prune_stmt(stmt: ast.Stmt, keep_ids: Set[int]) -> Optional[ast.Stmt]:
    """Keep only assignments in ``keep_ids``, preserving control skeletons."""
    if isinstance(stmt, ast.AssignStmt):
        return stmt if id(stmt) in keep_ids else None
    if isinstance(stmt, ast.Block):
        kept = [s for s in (_prune_stmt(x, keep_ids) for x in stmt.stmts)
                if s is not None]
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        return ast.Block(stmts=kept, line=stmt.line)
    if isinstance(stmt, ast.If):
        then_kept = _prune_stmt(stmt.then_stmt, keep_ids)
        else_kept = (_prune_stmt(stmt.else_stmt, keep_ids)
                     if stmt.else_stmt is not None else None)
        if then_kept is None and else_kept is None:
            return None
        return ast.If(
            cond=stmt.cond,
            then_stmt=then_kept if then_kept is not None
            else ast.Block(stmts=[], line=stmt.line),
            else_stmt=else_kept,
            line=stmt.line,
        )
    if isinstance(stmt, ast.Case):
        items: List[ast.CaseItem] = []
        for item in stmt.items:
            inner = _prune_stmt(item.stmt, keep_ids)
            if inner is not None:
                items.append(ast.CaseItem(labels=item.labels, stmt=inner,
                                          line=item.line))
        if not items:
            return None
        return ast.Case(selector=stmt.selector, items=items, kind=stmt.kind,
                        line=stmt.line)
    if isinstance(stmt, ast.For):
        body = _prune_stmt(stmt.body, keep_ids)
        if body is None:
            return None
        return ast.For(init=stmt.init, cond=stmt.cond, step=stmt.step,
                       body=body, line=stmt.line)
    raise TypeError(f"cannot prune statement {stmt!r}")
