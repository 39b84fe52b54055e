"""Symbol and call-graph index over the linted tree.

One pass per file builds a :class:`ModuleInfo` — imports (with aliases
resolved), functions by qualified name, module-level bindings classified
as mutable or immutable — and a best-effort static call graph across the
project.  Resolution is deliberately conservative: a call edge is only
recorded when the target can be tied to a definition through an explicit
import or a same-module name, so the concurrency rule's reachability
walk under-approximates rather than hallucinating edges.
"""

from __future__ import annotations

import ast
import threading
from dataclasses import dataclass, field
from pathlib import Path

#: Literal AST nodes that cannot be mutated through a module-level name.
_IMMUTABLE_NODES = (ast.Constant,)


def param_names(node: ast.AST) -> list[str]:
    """Positional-or-keyword parameter names in binding order."""
    args = node.args
    return [
        a.arg
        for a in (list(args.posonlyargs) + list(args.args)
                  + list(args.kwonlyargs))
    ]


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str               # module-qualified, e.g. "repro.cache.FileLock.acquire"
    module: str
    node: ast.AST               # FunctionDef | AsyncFunctionDef | Lambda
    lineno: int
    #: Names this function's body calls, resolved to project qualnames
    #: where possible (unresolvable calls are dropped, not guessed).
    calls: list[str] = field(default_factory=list)
    #: True for functions passed as ``initializer=`` to a dispatcher —
    #: per-process setup is *expected* to write module state once.
    is_initializer: bool = False

    @property
    def params(self) -> list[str]:
        return param_names(self.node)


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one parsed file."""

    path: str                   # as reported in findings (relative, "/" separators)
    module: str                 # dotted module name ("repro.logs.columnar")
    tree: ast.Module
    source: str
    #: local alias -> imported dotted target ("np" -> "numpy",
    #: "stream" -> "repro.core.rng.stream").
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level assigned names -> "mutable" | "immutable" | "unknown".
    module_state: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ProjectIndex:
    """All modules plus the cross-module call graph."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)   # by path
    by_module: dict[str, ModuleInfo] = field(default_factory=dict)  # by dotted name
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Worker-dispatch roots: qualnames of functions passed as the
    #: mapped ``fn`` to a dispatcher (plus lambdas, indexed under a
    #: synthetic qualname).
    worker_roots: list[str] = field(default_factory=list)

    def reachable_from_workers(self) -> set[str]:
        """Function qualnames transitively callable from a worker."""
        seen: set[str] = set()
        frontier = [root for root in self.worker_roots if root in self.functions]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for callee in self.functions[name].calls:
                if callee in self.functions and callee not in seen:
                    frontier.append(callee)
        return seen


# ---------------------------------------------------------------------------
# Per-module indexing
# ---------------------------------------------------------------------------


def module_name_for(path: Path) -> str:
    """Dotted module name, walking up while ``__init__.py`` exists."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Resolve ``from ..x import y`` against the importing module."""
    base = module.split(".")
    # level 1 strips the module's own name, each further level one package.
    base = base[: len(base) - level] if level <= len(base) else []
    if target:
        base.append(target)
    return ".".join(base)


#: ``compile(..., PyCF_ONLY_AST)`` is not thread-safe on CPython 3.11:
#: the AST-constructor recursion counter lives in per-interpreter (not
#: per-thread) state, so two pool workers parsing at once can race it
#: into ``SystemError: AST constructor recursion depth mismatch``.
#: Parsing holds the GIL anyway, so serializing it costs nothing.
_PARSE_LOCK = threading.Lock()


def index_module(path_label: str, module: str, source: str) -> ModuleInfo:
    """Parse and index one file (raises ``SyntaxError`` on bad source)."""
    with _PARSE_LOCK:
        tree = ast.parse(source, filename=path_label)
    info = ModuleInfo(path=path_label, module=module, tree=tree, source=source)
    _collect_imports(info)
    _collect_module_state(info)
    _collect_functions(info)
    return info


def _collect_imports(info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = (
                _resolve_relative(info.module, node.level, node.module)
                if node.level
                else (node.module or "")
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                info.imports[alias.asname or alias.name] = target


def _classify_binding(value: ast.expr) -> str:
    if isinstance(value, _IMMUTABLE_NODES):
        return "immutable"
    if isinstance(value, ast.Tuple) and all(
        isinstance(elt, _IMMUTABLE_NODES) for elt in value.elts
    ):
        return "immutable"
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return "mutable"
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name in ("dict", "list", "set", "defaultdict", "deque", "Counter",
                    "OrderedDict", "bytearray"):
            return "mutable"
    return "unknown"


def _collect_module_state(info: ModuleInfo) -> None:
    for node in info.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                info.module_state[target.id] = _classify_binding(value)


class _CallCollector(ast.NodeVisitor):
    """Record resolvable call targets inside one function body."""

    def __init__(self, info: ModuleInfo, out: list[str]):
        self.info = info
        self.out = out

    def visit_Call(self, node: ast.Call) -> None:
        target = resolve_call_target(node.func, self.info)
        if target is not None:
            self.out.append(target)
        self.generic_visit(node)

    # Nested defs get their own FunctionInfo; don't double-count their
    # calls as the parent's.  (Lambdas stay inline: they run when the
    # enclosing function runs often enough that attributing their calls
    # to the parent is the conservative choice.)
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass


def resolve_call_target(func: ast.expr, info: ModuleInfo) -> str | None:
    """Dotted project-level target of a call expression, if derivable.

    ``f(...)`` resolves through the import table or to a same-module
    definition; ``mod.f(...)`` resolves when ``mod`` is an imported
    module.  Anything else (attribute calls on objects, subscripts)
    returns ``None``.
    """
    if isinstance(func, ast.Name):
        imported = info.imports.get(func.id)
        if imported is not None:
            return imported
        return f"{info.module}.{func.id}"
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base = info.imports.get(func.value.id)
        if base is not None:
            return f"{base}.{func.attr}"
    return None


def _collect_functions(info: ModuleInfo) -> None:
    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{node.name}"
                fn = FunctionInfo(
                    qualname=qual, module=info.module, node=node,
                    lineno=node.lineno,
                )
                collector = _CallCollector(info, fn.calls)
                for stmt in node.body:
                    collector.visit(stmt)
                info.functions[qual] = fn
                visit(node.body, qual)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}.{node.name}")
            elif isinstance(node, (ast.If, ast.Try)):
                visit(node.body, prefix)
                for handler in getattr(node, "handlers", ()):
                    visit(handler.body, prefix)
                visit(node.orelse, prefix)
                visit(getattr(node, "finalbody", []), prefix)

    visit(info.tree.body, info.module)


# ---------------------------------------------------------------------------
# Project-level assembly
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Serializable graph facts + the resolve-time view over them
# ---------------------------------------------------------------------------


def module_graph_facts(
    info: ModuleInfo, dispatchers: tuple[str, ...]
) -> dict:
    """Call-graph facts of one module as plain JSON-able data.

    This is what the incremental cache stores: enough to rebuild the
    project call graph (and the worker-dispatch roots) without re-parsing
    unchanged files.
    """
    functions: dict[str, dict] = {}
    for qual, fn in info.functions.items():
        functions[qual] = {
            "params": param_names(fn.node),
            "calls": sorted(set(fn.calls)),
            "lineno": fn.lineno,
        }
    roots: list[str] = []
    initializers: list[str] = []
    lambda_count = 0
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name not in dispatchers:
            continue
        for kw in node.keywords:
            if kw.arg == "initializer":
                target = resolve_call_target(kw.value, info)
                if target is not None:
                    initializers.append(target)
        if not node.args:
            continue
        fn_arg = node.args[0]
        if isinstance(fn_arg, ast.Lambda):
            qual = f"{info.module}.<lambda:{fn_arg.lineno}:{lambda_count}>"
            lambda_count += 1
            calls: list[str] = []
            _CallCollector(info, calls).visit(fn_arg.body)
            functions[qual] = {
                "params": param_names(fn_arg),
                "calls": sorted(set(calls)),
                "lineno": fn_arg.lineno,
            }
            roots.append(qual)
        else:
            target = resolve_call_target(fn_arg, info)
            if target is not None:
                roots.append(target)
    return {
        "module": info.module,
        "path": info.path,
        "functions": functions,
        "worker_roots": sorted(set(roots)),
        "initializers": sorted(set(initializers)),
    }


class GraphView:
    """Project call graph reassembled from per-module graph facts.

    Built fresh each run from serialized facts (cached or just
    extracted) — never from ASTs — so a warm run pays only for the
    modules it actually re-analyzed.
    """

    def __init__(self, facts_by_module: dict[str, dict]):
        self.functions: dict[str, dict] = {}
        self.worker_roots: list[str] = []
        self.initializers: set[str] = set()
        for facts in facts_by_module.values():
            for qual, fn in facts["functions"].items():
                self.functions[qual] = {
                    **fn, "module": facts["module"], "path": facts["path"],
                }
            self.worker_roots.extend(facts["worker_roots"])
            self.initializers.update(facts["initializers"])
        self._callers: dict[str, list[str]] | None = None

    def params(self, qual: str) -> list[str]:
        fn = self.functions.get(qual)
        return fn["params"] if fn else []

    def path_of(self, qual: str) -> str | None:
        fn = self.functions.get(qual)
        return fn["path"] if fn else None

    def module_of(self, qual: str) -> str | None:
        fn = self.functions.get(qual)
        return fn["module"] if fn else None

    def line_of(self, qual: str) -> int:
        fn = self.functions.get(qual)
        return fn["lineno"] if fn else 1

    def callers_of(self, qual: str) -> list[str]:
        if self._callers is None:
            callers: dict[str, list[str]] = {}
            for caller, fn in self.functions.items():
                for callee in fn["calls"]:
                    callers.setdefault(callee, []).append(caller)
            self._callers = callers
        return self._callers.get(qual, [])

    def reachable_from(self, roots: list[str]) -> set[str]:
        seen: set[str] = set()
        frontier = [r for r in roots if r in self.functions]
        while frontier:
            qual = frontier.pop()
            if qual in seen:
                continue
            seen.add(qual)
            for callee in self.functions[qual]["calls"]:
                if callee in self.functions and callee not in seen:
                    frontier.append(callee)
        return seen

    def reverse_module_closure(self, changed: set[str]) -> set[str]:
        """Modules whose analysis may be stale when ``changed`` modules
        change: the changed set plus everything that calls into it,
        transitively (summaries flow callee -> caller)."""
        module_callers: dict[str, set[str]] = {}
        for caller, fn in self.functions.items():
            caller_mod = fn["module"]
            for callee in fn["calls"]:
                callee_fn = self.functions.get(callee)
                if callee_fn is None:
                    continue
                callee_mod = callee_fn["module"]
                if callee_mod != caller_mod:
                    module_callers.setdefault(callee_mod, set()).add(
                        caller_mod
                    )
        out = set(changed)
        frontier = list(changed)
        while frontier:
            mod = frontier.pop()
            for dep in module_callers.get(mod, ()):
                if dep not in out:
                    out.add(dep)
                    frontier.append(dep)
        return out


def build_index(
    modules: list[ModuleInfo], worker_dispatchers: tuple[str, ...]
) -> ProjectIndex:
    index = ProjectIndex()
    for info in modules:
        index.modules[info.path] = info
        index.by_module[info.module] = info
        index.functions.update(info.functions)
    for info in modules:
        _collect_worker_roots(info, index, worker_dispatchers)
    return index


def _collect_worker_roots(
    info: ModuleInfo, index: ProjectIndex, dispatchers: tuple[str, ...]
) -> None:
    lambda_count = 0
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name not in dispatchers:
            continue
        # Initializers are per-process setup: exempt from CON002, and
        # their callees are not traversed as worker code.
        for kw in node.keywords:
            if kw.arg == "initializer":
                target = resolve_call_target(kw.value, info)
                if target is not None and target in index.functions:
                    index.functions[target].is_initializer = True
        if not node.args:
            continue
        fn_arg = node.args[0]
        if isinstance(fn_arg, ast.Lambda):
            qual = f"{info.module}.<lambda:{fn_arg.lineno}:{lambda_count}>"
            lambda_count += 1
            lam = FunctionInfo(
                qualname=qual, module=info.module, node=fn_arg,
                lineno=fn_arg.lineno,
            )
            collector = _CallCollector(info, lam.calls)
            collector.visit(fn_arg.body)
            info.functions[qual] = lam
            index.functions[qual] = lam
            index.worker_roots.append(qual)
        else:
            target = resolve_call_target(fn_arg, info)
            if target is not None:
                index.worker_roots.append(target)
