"""Concurrency rules: lock scoping and worker-visible shared state.

CON001 is the classic leak: ``lock.acquire()`` with no lexical guarantee
of release.  CON002 is repo-specific — a static race detector over the
call graph: any function reachable from a ``supervised_map`` worker
argument must not write module-level mutable state, because on the
thread backend those writes interleave, and on the process backend they
silently *don't replicate* to the parent (the subtler bug: code that
"works" serially and loses data in parallel).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..config import LintConfig
from ..findings import Finding
from ..index import ModuleInfo, ProjectIndex
from . import Rule, SummaryRule, register

_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "appendleft", "extendleft",
    "sort", "reverse",
})


def _receiver_of(call: ast.Call) -> str | None:
    """``X`` of an ``X.acquire()`` / ``X.release()`` style call."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    dotted: list[str] = []
    node = func.value
    while isinstance(node, ast.Attribute):
        dotted.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        dotted.append(node.id)
        return ".".join(reversed(dotted))
    return None


def _calls_on(nodes: list[ast.stmt], receiver: str, method: str) -> bool:
    for stmt in nodes:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
                and _receiver_of(node) == receiver
            ):
                return True
    return False


@register
class BareAcquire(Rule):
    """CON001: ``.acquire()`` with no lexically-paired release."""

    rule_id = "CON001"
    title = "bare lock acquire"
    category = "concurrency"

    def check_module(
        self, module: ModuleInfo, index: ProjectIndex, config: LintConfig
    ) -> Iterator[Finding]:
        for parent_body in _bodies(module.tree):
            for pos, stmt in enumerate(parent_body):
                call = _bare_acquire_stmt(stmt)
                if call is None:
                    continue
                receiver = _receiver_of(call)
                if receiver is None:
                    continue
                if self._is_scoped(parent_body, pos, receiver, call, module):
                    continue
                yield self.finding(
                    module.path, call,
                    f"{receiver}.acquire() is not scoped: pair it with "
                    f"{receiver}.release() in a finally/except-reraise, "
                    f"follow it immediately with such a try, or use "
                    f"'with {receiver}:'",
                )

    def _is_scoped(
        self,
        body: list[ast.stmt],
        pos: int,
        receiver: str,
        call: ast.Call,
        module: ModuleInfo,
    ) -> bool:
        # Pattern A: acquire() immediately followed by a try whose
        # finally (or a re-raising except) releases the same receiver.
        if pos + 1 < len(body):
            nxt = body[pos + 1]
            if isinstance(nxt, ast.Try) and _try_releases(nxt, receiver):
                return True
        # Pattern B: acquire() itself inside a try that releases on the
        # failure path (finally, or except that releases).
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Try) and _contains(node.body, call):
                if _try_releases(node, receiver):
                    return True
        return False


def _bare_acquire_stmt(stmt: ast.stmt) -> ast.Call | None:
    if not isinstance(stmt, ast.Expr):
        return None
    node = stmt.value
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "acquire"
    ):
        return node
    return None


def _try_releases(node: ast.Try, receiver: str) -> bool:
    if _calls_on(node.finalbody, receiver, "release"):
        return True
    for handler in node.handlers:
        if _calls_on(handler.body, receiver, "release"):
            return True
    return False


def _contains(body: list[ast.stmt], target: ast.AST) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if node is target:
                return True
    return False


def _bodies(tree: ast.AST):
    """Every statement list in the tree (module, defs, loops, handlers)."""
    for node in ast.walk(tree):
        for attr in ("body", "orelse", "finalbody"):
            body = getattr(node, attr, None)
            if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                yield body
        for handler in getattr(node, "handlers", ()):
            yield handler.body


@register
class WorkerGlobalWrite(SummaryRule):
    """CON002: worker-reachable write to module-level mutable state.

    Split into cacheable per-module extraction (every function's writes
    to module-level mutable bindings, with *scope-correct* local-name
    masking — a comprehension target does not leak into function scope
    in Python 3, so ``[x for OUT in ...]`` no longer hides a later
    ``OUT.append``) and a resolve phase that walks worker reachability
    over the reassembled call graph.
    """

    rule_id = "CON002"
    title = "worker writes module state"
    category = "concurrency"
    fact_key = "worker_writes"

    def extract(self, module: ModuleInfo, config: LintConfig) -> dict:
        functions: dict[str, list] = {}
        for qual, fn in module.functions.items():
            writes = list(self._writes_of(fn.node, module))
            if writes:
                functions[qual] = writes
        # Worker lambdas are indexed under the same synthetic qualnames
        # module_graph_facts() assigns, so reachability finds them.
        lambda_count = 0
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if name not in config.worker_dispatchers or not node.args:
                continue
            fn_arg = node.args[0]
            if not isinstance(fn_arg, ast.Lambda):
                continue
            qual = f"{module.module}.<lambda:{fn_arg.lineno}:{lambda_count}>"
            lambda_count += 1
            writes = list(self._writes_of(fn_arg, module))
            if writes:
                functions[qual] = writes
        return {"functions": functions} if functions else {}

    def resolve(
        self, facts: dict[str, dict], graph, config: LintConfig
    ) -> Iterator[Finding]:
        by_fn: dict[str, list] = {}
        for module_facts in facts.values():
            by_fn.update(module_facts.get("functions", {}))
        reachable = graph.reachable_from(graph.worker_roots)
        for qual in sorted(reachable):
            if qual in graph.initializers:
                continue
            for write in by_fn.get(qual, ()):
                path = graph.path_of(qual) or ""
                where = f"(reachable from worker dispatch via {qual})"
                if write["kind"] == "global":
                    message = (
                        f"assignment to global {write['name']!r} from "
                        f"worker code {where}; workers must return "
                        f"results, not write shared state"
                    )
                elif write["kind"] == "subscript":
                    message = (
                        f"subscript write to module-level "
                        f"{write['name']!r} from worker code {where}"
                    )
                else:
                    message = (
                        f"{write['name']}.{write['attr']}(...) mutates "
                        f"module-level state from worker code {where}"
                    )
                yield self.finding_at(
                    path, write["line"], write["col"], message
                )

    # -- extraction helpers --------------------------------------------------

    def _writes_of(self, fn_node, module: ModuleInfo) -> Iterator[dict]:
        body = fn_node.body if not isinstance(fn_node, ast.Lambda) else [
            ast.Expr(value=fn_node.body)
        ]
        declared_global: set[str] = set()
        for node in _walk_same_scope(body):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        local_names = _scope_locals(fn_node, body)
        for node in _walk_same_scope(body):
            write = _write_in(node, module, declared_global, local_names)
            if write is not None:
                yield write


def _walk_same_scope(body: list):
    """All nodes in these statements, skipping nested def/class bodies
    (they are separate call-graph nodes) but descending into lambdas and
    comprehensions, which execute when the enclosing function runs."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                continue
            stack.append(child)


def _scope_locals(fn_node, body: list) -> set[str]:
    """Names bound in the *function's own scope* — parameters, plain
    assignment/loop targets, and walrus targets (PEP 572 binds them in
    the enclosing function even from inside a comprehension).
    Comprehension iteration targets bind only inside the comprehension
    and are deliberately excluded: counting them used to mask real
    module-state writes."""
    names: set[str] = set()
    args = fn_node.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)

    def walk(node, in_comp: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue  # separate scope; lambda params don't leak out
            if isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp,
                                  ast.GeneratorExp)):
                walk(child, True)
                continue
            if isinstance(child, ast.NamedExpr):
                if isinstance(child.target, ast.Name):
                    names.add(child.target.id)
                walk(child.value, in_comp)
                continue
            if (
                not in_comp
                and isinstance(child, ast.Name)
                and isinstance(child.ctx, ast.Store)
            ):
                names.add(child.id)
            walk(child, in_comp)

    for stmt in body:
        walk(stmt, False)
    return names


def _write_in(
    node: ast.AST,
    module: ModuleInfo,
    declared_global: set[str],
    local_names: set[str],
) -> dict | None:
    # global X; X = ... — rebinding module state from a worker.
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Name) and target.id in declared_global:
                return {
                    "kind": "global", "name": target.id,
                    "line": node.lineno, "col": node.col_offset + 1,
                }
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                name = target.value.id
                if module.module_state.get(name) == "mutable" and \
                        name not in local_names:
                    return {
                        "kind": "subscript", "name": name,
                        "line": node.lineno, "col": node.col_offset + 1,
                    }
    # X.append(...) etc. on a module-level mutable binding.
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATING_METHODS and isinstance(
            node.func.value, ast.Name
        ):
            name = node.func.value.id
            if module.module_state.get(name) == "mutable" and \
                    name not in local_names:
                return {
                    "kind": "method", "name": name,
                    "attr": node.func.attr,
                    "line": node.lineno, "col": node.col_offset + 1,
                }
    return None
