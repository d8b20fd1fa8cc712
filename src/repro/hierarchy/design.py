"""Design database: the module hierarchy of a parsed Verilog source.

A :class:`Design` owns a :class:`repro.verilog.ast.Source` and answers
structural questions FACTOR needs constantly: which module is the top, how
deep is a module embedded, what are the instance paths reaching it, and which
modules does a given module instantiate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.verilog import ast


class DesignError(Exception):
    """Raised for structural problems: missing modules, cycles, bad ports."""


@dataclass(frozen=True)
class InstancePath:
    """A hierarchical path of instance names from the top module down.

    ``modules[i]`` is the module containing instance ``insts[i]``;
    ``modules[-1]`` is the module the path lands in (the innermost module).
    An empty path denotes the top module itself.
    """

    insts: Tuple[str, ...]
    modules: Tuple[str, ...]  # length = len(insts) + 1

    def __str__(self) -> str:
        if not self.insts:
            return self.modules[0]
        return self.modules[0] + "." + ".".join(self.insts)

    @property
    def leaf_module(self) -> str:
        return self.modules[-1]

    @property
    def depth(self) -> int:
        return len(self.insts)

    def parent(self) -> "InstancePath":
        if not self.insts:
            raise DesignError("top-level path has no parent")
        return InstancePath(insts=self.insts[:-1], modules=self.modules[:-1])


class Design:
    """Hierarchical design database over a parsed source."""

    def __init__(self, source: ast.Source, top: Optional[str] = None):
        self.source = source
        self._modules: Dict[str, ast.Module] = {}
        for module in source.modules:
            if module.name in self._modules:
                raise DesignError(f"duplicate module {module.name!r}")
            self._modules[module.name] = module
        self._check_references()
        self._top = top if top is not None else self._infer_top()
        if self._top not in self._modules:
            raise DesignError(f"top module {self._top!r} not found")
        self._check_acyclic()
        self._chaindb = None
        self._fingerprint: Optional[str] = None

    # -- basic lookups -----------------------------------------------------

    @property
    def top(self) -> str:
        return self._top

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the design (source text + top module).

        When the source was produced by
        :func:`repro.store.parse_verilog_cached` the stamped text hash is
        reused; otherwise (programmatically built ASTs) the canonical
        written-back Verilog is hashed.  Artifact-store keys for every
        per-design stage derive from this value.
        """
        if self._fingerprint is None:
            from repro.store.fingerprint import fingerprint_obj, \
                fingerprint_text

            source_fp = getattr(self.source, "fingerprint", None)
            if source_fp is None:
                from repro.verilog.writer import write_source

                source_fp = fingerprint_text(write_source(self.source))
            self._fingerprint = fingerprint_obj(
                {"source": source_fp, "top": self._top}
            )
        return self._fingerprint

    def chaindb(self):
        """The design-wide def-use/use-def chain database, built once.

        The extractor, the PIER analysis and the lint engine all need the
        same :class:`repro.hierarchy.chains.ChainDB`; memoizing it here
        means e.g. a ``--lint`` pre-flight gate and the extraction that
        follows share a single build instead of two.
        """
        if self._chaindb is None:
            from repro.hierarchy.chains import ChainDB

            self._chaindb = ChainDB(self)
        return self._chaindb

    def module(self, name: str) -> ast.Module:
        try:
            return self._modules[name]
        except KeyError:
            raise DesignError(f"no module named {name!r}") from None

    def module_names(self) -> List[str]:
        return list(self._modules)

    # -- hierarchy queries ---------------------------------------------------

    def children(self, name: str) -> List[Tuple[str, str]]:
        """``(inst_name, child_module_name)`` for each instance in ``name``."""
        return [
            (inst.inst_name, inst.module_name)
            for inst in self.module(name).instances
        ]

    def parents(self, name: str) -> List[Tuple[str, str]]:
        """``(parent_module_name, inst_name)`` pairs instantiating ``name``."""
        out = []
        for parent in self._modules.values():
            for inst in parent.instances:
                if inst.module_name == name:
                    out.append((parent.name, inst.inst_name))
        return out

    def instance_in(self, parent: str, inst_name: str) -> ast.Instance:
        for inst in self.module(parent).instances:
            if inst.inst_name == inst_name:
                return inst
        raise DesignError(f"module {parent!r} has no instance {inst_name!r}")

    def depth(self, name: str) -> int:
        """Minimum number of hierarchy levels between top and ``name``.

        The top module is at depth 0; a module instantiated directly in the
        top module is at depth 1, etc.  This is the "Hierarchy Level" column
        of the paper's Table 1.
        """
        paths = self.paths_to(name)
        if not paths:
            raise DesignError(f"module {name!r} is not reachable from top")
        return min(path.depth for path in paths)

    def paths_to(self, name: str) -> List[InstancePath]:
        """All instance paths from the top module to instances of ``name``."""
        results: List[InstancePath] = []

        def visit(current: str, insts: Tuple[str, ...],
                  modules: Tuple[str, ...]) -> None:
            if current == name:
                results.append(InstancePath(insts=insts, modules=modules))
            for inst_name, child in self.children(current):
                visit(child, insts + (inst_name,), modules + (child,))

        visit(self._top, (), (self._top,))
        return results

    def hierarchy_chain(self, name: str) -> List[str]:
        """Module names from top down to ``name`` along a shortest path."""
        paths = self.paths_to(name)
        if not paths:
            raise DesignError(f"module {name!r} is not reachable from top")
        best = min(paths, key=lambda p: p.depth)
        return list(best.modules)

    def modules_under(self, name: str) -> Set[str]:
        """Transitive closure of modules instantiated under ``name``."""
        seen: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for _, child in self.children(current):
                stack.append(child)
        return seen

    def subsource(self, root: str) -> ast.Source:
        """A new Source containing ``root`` and everything beneath it."""
        keep = self.modules_under(root)
        return ast.Source(
            modules=[m for m in self.source.modules if m.name in keep]
        )

    # -- validation ----------------------------------------------------------

    def _infer_top(self) -> str:
        instantiated: Set[str] = set()
        for module in self._modules.values():
            for inst in module.instances:
                instantiated.add(inst.module_name)
        roots = [name for name in self._modules if name not in instantiated]
        if not roots:
            raise DesignError("no top module: every module is instantiated")
        if len(roots) > 1:
            raise DesignError(
                f"ambiguous top module, candidates: {sorted(roots)}; "
                "pass top= explicitly"
            )
        return roots[0]

    def _check_references(self) -> None:
        for module in self._modules.values():
            for inst in module.instances:
                if inst.module_name not in self._modules:
                    raise DesignError(
                        f"module {module.name!r} instantiates unknown module "
                        f"{inst.module_name!r} (instance {inst.inst_name!r})"
                    )

    def _check_acyclic(self) -> None:
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(name: str, trail: Tuple[str, ...]) -> None:
            if state.get(name) == 1:
                return
            if state.get(name) == 0:
                raise DesignError(
                    "instantiation cycle: " + " -> ".join(trail + (name,))
                )
            state[name] = 0
            for _, child in self.children(name):
                visit(child, trail + (name,))
            state[name] = 1

        visit(self._top, ())
