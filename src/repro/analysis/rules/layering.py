"""Layering rules: RPL007/RPL008 — route hot-path work through the session.

The pipeline stages (:mod:`repro.core.pipeline`) are pure functions, and
nothing stops an algorithm module from calling one directly — but doing
so silently bypasses the :class:`~repro.core.session.PreparedGraph`
memoization layer: the artifact gets rebuilt from scratch on every call
and never lands in (or reads from) the version-keyed cache.  Inside
``repro/core`` the session is the only sanctioned caller; everything
else routes through it (RPL007).

The same layering applies one level down to the prune peels themselves:
every peel should replay over the session's shared CSR compile — a
direct ``dp_core*`` / ``topk_core`` call inside ``repro/core`` recompiles
the graph on every invocation (RPL008).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, ClassVar, Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, is_test_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import FileContext

__all__ = ["StageBypassesSession", "PruneBypassesSession"]

#: The pipeline stage functions the session layer memoizes.
STAGE_FUNCTIONS = frozenset(
    {
        "compile_stage",
        "prune_stage",
        "cut_stage",
        "compile_enumeration_stage",
        "compile_maximum_stage",
        "enumeration_search_stage",
        "maximum_search_stage",
    }
)

#: Files allowed to touch the stages: their definitions, and the session
#: layer that memoizes them.
_SANCTIONED_FILES = ("pipeline.py", "session.py")


class StageBypassesSession(Rule):
    """RPL007 — a pipeline stage function called outside the session layer.

    Flags calls to any :data:`STAGE_FUNCTIONS` name — bare
    (``prune_stage(...)``) or attribute-qualified
    (``pipeline.prune_stage(...)``) — in files under ``repro/core`` other
    than ``pipeline.py`` and ``session.py``.  Code outside ``repro/core``
    (tests, benchmarks, experiments) may compose stages by hand; the
    algorithm layer itself must go through
    :class:`~repro.core.session.PreparedGraph` so repeated queries hit
    the version-keyed artifact cache.
    """

    rule_id: ClassVar[str] = "RPL007"
    title: ClassVar[str] = "pipeline stage call bypassing the session layer"

    def check(self, context: "FileContext") -> Iterator[Finding]:
        if not context.in_directory("core") or is_test_path(context):
            return
        if any(context.is_file(name) for name in _SANCTIONED_FILES):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name in STAGE_FUNCTIONS:
                yield self.finding(
                    context,
                    node,
                    f"{name}(...) called directly; route through "
                    "PreparedGraph so the stage artifact is memoized "
                    "against the graph version",
                )


#: The prune peels the compiled session path serves.
PRUNE_FUNCTIONS = frozenset(
    {
        "dp_core",
        "dp_core_plus",
        "topk_core",
    }
)

#: Files allowed to call the peels directly: their definitions, the
#: kernel they delegate to, and the pipeline/session layer that memoizes
#: the results.  The cut optimization is not among them: its fringe peel
#: runs over the session's compile, never through ``topk_core``.
_PRUNE_SANCTIONED_FILES = (
    "ktau_core.py",
    "topk_core.py",
    "prune_kernel.py",
    "pipeline.py",
    "session.py",
)


class PruneBypassesSession(Rule):
    """RPL008 — a prune peel called outside the compiled session path.

    Flags calls to any :data:`PRUNE_FUNCTIONS` name — bare
    (``dp_core_plus(...)``) or attribute-qualified
    (``ktau_core.dp_core_plus(...)``) — in files under ``repro/core``
    other than the peel definitions and the pipeline/session layer.  A direct call recompiles the graph on every
    invocation instead of replaying over the session's version-keyed CSR
    compile; route the peel through
    :func:`repro.core.pipeline.prune_stage` via
    :class:`~repro.core.session.PreparedGraph`, or justify the bypass
    with ``# repro-lint: ignore[RPL008]`` (e.g. one-shot drivers with no
    session).
    """

    rule_id: ClassVar[str] = "RPL008"
    title: ClassVar[str] = "prune peel call bypassing the compiled session path"

    def check(self, context: "FileContext") -> Iterator[Finding]:
        if not context.in_directory("core") or is_test_path(context):
            return
        if any(context.is_file(name) for name in _PRUNE_SANCTIONED_FILES):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name in PRUNE_FUNCTIONS:
                yield self.finding(
                    context,
                    node,
                    f"{name}(...) called directly; route through "
                    "PreparedGraph's prune stage so the peel replays "
                    "over the session's shared compiled arrays",
                )
