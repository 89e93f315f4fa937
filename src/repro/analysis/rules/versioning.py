"""Versioning rules: RPL012 and RPL014 — invalidation discipline.

The session layer (PR 4) invalidates memoized stage artifacts by
*versioning*, not by clearing, under a two-level scheme: every mutation
bumps ``UncertainGraph.version`` and the touched component's *epoch*,
and every cache key embeds one or the other, so stale artifacts simply
stop being reachable.  The contract dies quietly at two kinds of site:

* **RPL012** — a cache/memo insertion whose key carries neither the
  version nor a component epoch: the entry survives mutation and a
  later query replays an artifact computed against a graph that no
  longer exists.
* **RPL014** — the invalidation side of the same contract: a graph
  mutator that writes adjacency state without touching the component
  map/epoch bookkeeping (so component-scoped entries stay *reachable*
  though stale) or without updating or dropping the graph-held
  lowering (so the next compile copies stale rows), or a
  component-scoped cache key that carries the component id without its
  epoch (same effect from the key side).

RPL012 inspects every cache/memo insertion (subscript store,
``.setdefault``, or a ``self._store(key, value)`` call — the session's
accounted insertion helper) in the session module and in every module
the session layer imports.  A key passes when its expression — or the
local assignment that produced it — mentions a ``version`` or ``epoch``
attribute or name.  A key that is a bare function parameter is skipped:
the key was built by the caller, and the insertion site has no say in
its shape (the caller's construction site is where this rule looks
instead).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import ProjectContext
from repro.analysis.rules.base import ProjectRule, is_test_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import FileContext

__all__ = ["ComponentEpochDiscipline", "UnversionedCacheKey"]

#: Receiver-name fragments that mark a binding as a memoization table.
_CACHE_NAME_FRAGMENTS = ("cache", "memo")

#: The graph-held lowering slot every ``self._adj`` writer must keep.
_LOWERING = "_lowering"

#: Mutating-method names that count as writes when called on an
#: adjacency mapping.
_MUTATING_CALLS = frozenset({"setdefault", "pop", "popitem", "clear",
                             "update"})


def _is_cache_receiver(node: ast.expr) -> bool:
    """Whether ``node`` names a cache/memo container (``self._cache``,
    ``memo``, ``session.cache`` ...)."""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    lowered = name.lower()
    return any(fragment in lowered for fragment in _CACHE_NAME_FRAGMENTS)


def _mentions_version(node: ast.AST) -> bool:
    """Whether ``node`` carries an invalidation marker: a ``version``
    or ``epoch`` attribute or name (component epochs are the version
    vector's per-component counters — either scope invalidates)."""
    for current in ast.walk(node):
        if isinstance(current, ast.Attribute) and (
            "version" in current.attr or "epoch" in current.attr
        ):
            return True
        if isinstance(current, ast.Name) and (
            "version" in current.id or "epoch" in current.id
        ):
            return True
    return False


def _mentions_fragment(node: ast.AST, fragments: tuple[str, ...]) -> bool:
    """Whether any attribute or name in ``node`` contains a fragment."""
    for current in ast.walk(node):
        if isinstance(current, ast.Attribute) and any(
            f in current.attr for f in fragments
        ):
            return True
        if isinstance(current, ast.Name) and any(
            f in current.id for f in fragments
        ):
            return True
    return False


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = func.args
    return {
        arg.arg
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }


def _session_reachable_modules(project: ProjectContext) -> set[str]:
    """The session modules plus every project module they import."""
    reachable: set[str] = set()
    for table in project.modules.values():
        if not table.context.is_file("session.py"):
            continue
        reachable.add(table.module)
        imported = set(table.imports) | set(table.imported_symbols.values())
        for dotted in imported:
            stripped = dotted.lstrip(".")
            for name in project.modules:
                if name == stripped or name.endswith("." + stripped):
                    reachable.add(name)
    return reachable


class UnversionedCacheKey(ProjectRule):
    """RPL012 — a cache insertion whose key omits ``graph.version``.

    Scope is the session layer's reach: ``session.py`` itself and every
    module it imports.  Keys are resolved one local-assignment step
    (``key = (self._graph.version, ...)`` then ``self._cache[key] = v``
    passes); bare-parameter keys are the caller's responsibility and are
    skipped here.
    """

    rule_id: ClassVar[str] = "RPL012"
    title: ClassVar[str] = "cache key missing the graph version"

    def check_project(
        self, context: "FileContext", project: ProjectContext
    ) -> Iterator[Finding]:
        if is_test_path(context):
            return
        if project.module_of(context) not in _session_reachable_modules(
            project
        ):
            return
        for func_node in ast.walk(context.tree):
            if not isinstance(
                func_node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            yield from self._check_function(context, func_node)

    def _check_function(
        self,
        context: "FileContext",
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        params = _param_names(func)
        local_values: dict[str, ast.expr] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_values[target.id] = node.value
        for node in ast.walk(func):
            key = self._insertion_key(node)
            if key is None:
                continue
            if isinstance(key, ast.Name):
                if key.id in params:
                    continue
                key = local_values.get(key.id, key)
            if _mentions_version(key):
                continue
            yield self.finding(
                context,
                node,
                "cache insertion keyed without graph.version; stale "
                "entries will survive graph mutation and replay "
                "artifacts of a graph that no longer exists",
            )

    @staticmethod
    def _insertion_key(node: ast.AST) -> ast.expr | None:
        return _insertion_key(node)


def _insertion_key(node: ast.AST) -> ast.expr | None:
    """The key expression of a cache insertion, or ``None``.

    Three insertion shapes: a subscript store on a cache/memo receiver,
    ``.setdefault`` on one, and a ``._store(key, value)`` call — the
    session layer's accounted LRU insertion helper, whose call sites are
    where the keys are actually constructed.
    """
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and _is_cache_receiver(
                target.value
            ):
                return target.slice
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if (
            node.func.attr == "setdefault"
            and _is_cache_receiver(node.func.value)
            and node.args
        ):
            return node.args[0]
        if node.func.attr == "_store" and len(node.args) >= 2:
            return node.args[0]
    return None


def _adjacency_writes(node: ast.AST) -> list[ast.expr]:
    """The expressions ``node`` writes that name an ``_adj`` adjacency
    mapping (assignment into it, deletion from it, or a mutating method
    call on it) — empty when ``node`` writes none.  Exact-name match:
    ``t_adj`` and friends do not count."""
    written: list[ast.expr]
    if isinstance(node, (ast.Assign, ast.Delete)):
        written = node.targets
    elif isinstance(node, ast.AugAssign):
        written = [node.target]
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATING_CALLS
    ):
        written = [node.func.value]
    else:
        return []
    return [
        expr for expr in written
        if any(
            (isinstance(current, ast.Attribute) and current.attr == "_adj")
            or (isinstance(current, ast.Name) and current.id == "_adj")
            for current in ast.walk(expr)
        )
    ]


def _is_own_adjacency(expr: ast.expr) -> bool:
    """Whether ``expr`` reaches ``self._adj`` — the method's own graph,
    as opposed to a fresh graph under construction (``clone._adj``)."""
    return any(
        isinstance(current, ast.Attribute)
        and current.attr == "_adj"
        and isinstance(current.value, ast.Name)
        and current.value.id == "self"
        for current in ast.walk(expr)
    )


class ComponentEpochDiscipline(ProjectRule):
    """RPL014 — adjacency state changed without the component epoch.

    The two-level invalidation scheme holds only if (a) every mutator
    that touches adjacency state also maintains the component map /
    epoch bookkeeping, and (b) every component-scoped cache key pairs
    the component id with its epoch.  This rule checks both sides:

    * in the module defining ``UncertainGraph``, a function that writes
      ``_adj`` state must mention the component bookkeeping (an
      identifier containing ``comp`` or ``epoch``) somewhere in its
      body — a mutator that skips it leaves component-scoped cache
      entries reachable but stale;
    * in the same module, once the graph keeps a lowering (a
      ``_lowering`` slot or identifier), a function that writes its own
      ``self._adj`` must mention ``_lowering`` too — update the rows or
      drop them — or the next ``compile_graph`` copies rows of a graph
      that no longer exists.  Writes to another graph's ``_adj``
      (``clone._adj`` in ``copy``, ``sub._adj`` in
      ``induced_subgraph``) build a fresh graph, whose lowering starts
      empty;
    * in the session layer's reach (same scope as RPL012), a cache key
      that mentions a component id (``cid`` / ``comp``) without an
      ``epoch`` stays reachable across mutations of that component.
    """

    rule_id: ClassVar[str] = "RPL014"
    title: ClassVar[str] = "adjacency or cache write skips component epoch"

    def check_project(
        self, context: "FileContext", project: ProjectContext
    ) -> Iterator[Finding]:
        if is_test_path(context):
            return
        defines_graph = any(
            isinstance(node, ast.ClassDef) and node.name == "UncertainGraph"
            for node in ast.walk(context.tree)
        )
        if defines_graph:
            yield from self._check_graph_module(context)
        if project.module_of(context) in _session_reachable_modules(project):
            yield from self._check_cache_keys(context)

    def _check_graph_module(
        self, context: "FileContext"
    ) -> Iterator[Finding]:
        # A ``__slots__`` entry or any ``_lowering`` identifier.
        keeps_lowering = _mentions_fragment(
            context.tree, (_LOWERING,)
        ) or any(
            isinstance(node, ast.Constant) and node.value == _LOWERING
            for node in ast.walk(context.tree)
        )
        for func in ast.walk(context.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            writes = [
                node for node in ast.walk(func) if _adjacency_writes(node)
            ]
            if not writes:
                continue
            if not _mentions_fragment(func, ("comp", "epoch")):
                yield self.finding(
                    context,
                    writes[0],
                    "adjacency state written without touching the "
                    "component map/epoch; component-scoped cache entries "
                    "stay reachable but stale after this mutation",
                )
            if not keeps_lowering or _mentions_fragment(func, (_LOWERING,)):
                continue
            own = [
                node for node in writes
                if any(map(_is_own_adjacency, _adjacency_writes(node)))
            ]
            if own:
                yield self.finding(
                    context,
                    own[0],
                    "adjacency state written without updating or dropping "
                    "the graph-held lowering; the next compile_graph "
                    "copies stale rows",
                )

    def _check_cache_keys(self, context: "FileContext") -> Iterator[Finding]:
        for func in ast.walk(context.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _param_names(func)
            local_values: dict[str, ast.expr] = {}
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_values[target.id] = node.value
            for node in ast.walk(func):
                key = _insertion_key(node)
                if key is None:
                    continue
                if isinstance(key, ast.Name):
                    if key.id in params:
                        continue
                    key = local_values.get(key.id, key)
                if not _mentions_fragment(key, ("cid", "comp")):
                    continue
                if _mentions_fragment(key, ("epoch",)):
                    continue
                yield self.finding(
                    context,
                    node,
                    "component-scoped cache key carries a component id "
                    "without its epoch; the entry stays reachable after "
                    "the component mutates",
                )
