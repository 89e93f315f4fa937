"""Outside-in tracing for the traced run.

:func:`install` wraps the public functions of each layer at every module
attribute (and class attribute) that binds them, so a caller resolving
the name through its own module hits the wrapper.  Each call records a
:class:`Span` -- layer, function, start, end, parent span, operation id --
kept in memory and written out when the run ends.  Generator stages are
timed until they are exhausted: a generator span accumulates only the
time spent inside it between resumptions, so the consumer's work between
two yields is never billed to the producer.

Self time is a span's active time minus the time its child spans were
active.  Every operation runs under a root span (layer ``op``), so the
self times of all spans of one operation add up to its wall time, and the
root's own self time is the part no layer span covers (``unattributed_s``).

Nothing is patched unless :func:`install` runs, so an untraced run
measures the library exactly as shipped.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

Observer = Callable[["Tracer", dict[str, Any], Any], None]


@dataclass
class Span:
    sid: int
    layer: str
    func: str
    parent: int
    op: int
    start: float = 0.0
    end: float = 0.0
    active: float = 0.0
    self_time: float = 0.0


class Tracer:
    """A span stack plus the finished spans and the layer counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[list[Any]] = []  # [span, segment start, child time]
        self._root: Span | None = None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, layer: str, func: str) -> Span:
        parent = self._stack[-1][0].sid if self._stack else -1
        span = Span(len(self.spans), layer, func, parent, self.op)
        self.spans.append(span)
        return span

    def push(self, span: Span) -> None:
        now = perf_counter()
        if not span.start:
            span.start = now
        self._stack.append([span, now, 0.0])

    def pop(self) -> None:
        span, t0, child = self._stack.pop()
        now = perf_counter()
        segment = now - t0
        span.end = now
        span.active += segment
        span.self_time += segment - child
        if self._stack:
            self._stack[-1][2] += segment

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._root = self.open("op", "operation")
        self.push(self._root)

    def end_op(self) -> float:
        """Close the operation's root span; return its wall time."""
        self.pop()
        assert self._root is not None and not self._stack
        return self._root.active


def _plain(
    tracer: Tracer, fn: Callable[..., Any], layer: str,
    observe: Observer | None,
) -> Callable[..., Any]:
    sig = inspect.signature(fn)
    name = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.open(layer, name)
        tracer.push(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        if observe is not None:
            observe(tracer, sig.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


def _generator(
    tracer: Tracer, fn: Callable[..., Any], layer: str,
    observe: Observer | None,
) -> Callable[..., Any]:
    sig = inspect.signature(fn)
    name = fn.__qualname__

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        inner = fn(*args, **kwargs)
        span: Span | None = None
        try:
            while True:
                if span is None:
                    span = tracer.open(layer, name)
                    if observe is not None:
                        observe(
                            tracer, sig.bind(*args, **kwargs).arguments, None
                        )
                tracer.push(span)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.pop()
                yield item
        finally:
            inner.close()

    return wrapper


def _observe_prune(tracer: Tracer, args: dict[str, Any], result: Any) -> None:
    members = args.get("members")
    size = len(members) if members is not None else args["graph"].num_nodes
    tracer.count("prune.in", size)
    tracer.count("prune.out", len(result))


def _observe_cut(tracer: Tracer, args: dict[str, Any], result: Any) -> None:
    tracer.count("cut.components_out", len(result.components))
    tracer.count("cut.edges_removed", result.edges_removed)


def _observe_enum_search(
    tracer: Tracer, args: dict[str, Any], result: Any
) -> None:
    limit = args["component_limit"]
    tracer.count(
        "search.oversized_components",
        sum(1 for c in args["components"] if c.num_nodes > limit),
    )


class Installation:
    """The patches one :func:`install` made, undone by :meth:`remove`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every layer boundary the benchmark measures."""
    from repro.core import kernel, pipeline, prune_kernel
    from repro.core.maintenance import KTauCoreMaintainer
    from repro.core.session import PreparedGraph
    from repro.uncertain.graph import UncertainGraph

    patches = Installation()

    def wrap(fn: Callable[..., Any], layer: str,
             observe: Observer | None = None) -> Callable[..., Any]:
        make = _generator if inspect.isgeneratorfunction(fn) else _plain
        return make(tracer, fn, layer, observe)

    # Module-level functions: rebind every repro module attribute that
    # holds the original, aliases included (``compile_prune_graph`` is
    # ``compile_graph``), so each caller's own lookup finds the wrapper.
    functions = [
        (prune_kernel.compile_graph, "compile.full", None),
        (pipeline.prune_stage, "prune", _observe_prune),
        (pipeline.cut_stage, "cut", _observe_cut),
        (pipeline.compile_enumeration_stage, "views", None),
        (pipeline.compile_maximum_stage, "views", None),
        (kernel.derive_component_view, "views.derive", None),
        (pipeline.enumeration_search_stage, "search.enum",
         _observe_enum_search),
        (pipeline.maximum_search_stage, "search.max", None),
    ]
    modules = [
        m for n, m in list(sys.modules.items())
        if (n == "repro" or n.startswith("repro.")) and m is not None
    ]
    for original, layer, observe in functions:
        wrapper = wrap(original, layer, observe)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.replace(module, attr, wrapper)

    methods = [
        (UncertainGraph, ("add_edge", "remove_edge", "set_probability",
                          "add_node", "remove_node"), "graph.mutate"),
        (UncertainGraph, ("induced_subgraph",), "graph.induced_subgraph"),
        (UncertainGraph, ("copy",), "graph.copy"),
        (prune_kernel.CompiledGraph, ("apply_delta",), "compile.delta"),
        (PreparedGraph, ("maximal_cliques", "max_uc_plus"), "session"),
        (PreparedGraph, ("cliques_containing",), "anchored"),
        (KTauCoreMaintainer, ("add_edge", "remove_edge", "set_probability"),
         "maintain"),
    ]
    for cls, names, layer in methods:
        for attr in names:
            patches.replace(cls, attr, wrap(cls.__dict__[attr], layer))
    return patches
