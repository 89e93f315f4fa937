"""Cross-process determinism of the anchored session queries.

With string nodes, ``set`` iteration order depends on ``PYTHONHASHSEED``,
which only varies *across* processes — an in-process parity suite can
never catch a hash-order leak.  These tests re-run the anchored queries
in subprocesses pinned to different hash seeds and require bit-identical
output, guarding the fixes that build the anchored region from adjacency
order instead of a set (``PreparedGraph.cliques_containing`` /
``containing_clique_exists``) and start every cut sweep at a piece's
first member in graph order.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parents[1]

#: Runs in a fresh interpreter: anchored queries over a string-node
#: graph, emitting the clique *yield order* (not just the clique set).
_SCRIPT = """
import json
from repro import UncertainGraph
from repro.core.session import PreparedGraph

g = UncertainGraph()
edges = [
    ("alpha", "bravo", 0.9), ("alpha", "carol", 0.85),
    ("bravo", "carol", 0.8), ("alpha", "delta", 0.9),
    ("carol", "delta", 0.75), ("bravo", "delta", 0.7),
    ("alpha", "echo", 0.95), ("echo", "foxtrot", 0.9),
    ("alpha", "foxtrot", 0.8), ("delta", "golf", 0.85),
    ("alpha", "golf", 0.7), ("echo", "golf", 0.6),
]
for u, v, p in edges:
    g.add_edge(u, v, p)
session = PreparedGraph(g)
ordered = [
    sorted(clique)
    for clique in session.cliques_containing("alpha", 2, 0.05)
]
exists = session.containing_clique_exists(["alpha", "carol"], 2, 0.05)
print(json.dumps({"order": ordered, "exists": exists}))
"""


def _run(hashseed: str) -> str:
    return _run_script(_SCRIPT, hashseed)


#: The approximate miner's greedy growth breaks ties by neighbor order
#: of an anchor node; before the fix the anchor was ``list(frozenset)[0]``
#: — hash order — and this exact fixture returned {aa,bb,dd} under
#: PYTHONHASHSEED=0 but {aa,bb,cc} under other seeds.  The side-edge
#: probabilities and (samples, seed) pair are chosen so the sampler only
#: ever materializes the aa-bb edge, leaving the tie-break as the sole
#: source of variation.
_APPROX_SCRIPT = """
import json
from repro import UncertainGraph
from repro.core.approximate import approximate_maximal_cliques

g = UncertainGraph()
for u, v, p in [
    ("aa", "bb", 0.9),
    ("aa", "cc", 0.1),
    ("bb", "dd", 0.1),
    ("aa", "dd", 0.1),
    ("bb", "cc", 0.1),
]:
    g.add_edge(u, v, p)
result = approximate_maximal_cliques(g, 1, 0.008, samples=3, seed=0)
print(json.dumps(sorted(sorted(c) for c in result)))
"""


def _run_script(script: str, hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_approximate_growth_is_hash_seed_invariant() -> None:
    """Regression: the greedy-growth anchor must not follow frozenset
    hash order (RPL009 finding fixed in approximate._grow_to_maximal)."""
    outputs = {
        _run_script(_APPROX_SCRIPT, seed) for seed in ("0", "1", "4242")
    }
    assert len(outputs) == 1, (
        "approximate output varies with PYTHONHASHSEED:\n"
        + "\n".join(sorted(outputs))
    )
    assert json.loads(next(iter(outputs))) == [["aa", "bb", "cc"]]


#: The cut's sweep once started at ``next(iter(component))`` — a set —
#: so with string labels its cuts followed PYTHONHASHSEED: on this
#: relabelled askubuntu_like, (10, 0.3) found 5 cuts / 32 edges / 6
#: components under some seeds and 6 / 37 / 7 under others, and (4, 0.3)
#: found 0 cuts or 1 cut / 44 edges.  Emits the ordered pieces of the
#: public cut, the session's counters and its clique yield order.
_CUT_SCRIPT = """
import json
from repro import UncertainGraph, PreparedGraph, cut_optimize, topk_core
from repro.core.enumeration import EnumerationStats
from repro.datasets.registry import load_dataset

source = load_dataset("askubuntu_like")
graph = UncertainGraph(
    edges=[(f"n{u}", f"n{v}", p) for u, v, p in source.edges()]
)
out = []
for k, tau in [(10, 0.3), (4, 0.3)]:
    core = topk_core(graph, k, tau).nodes
    pruned = graph.induced_subgraph([u for u in graph if u in core])
    result = cut_optimize(pruned, k, tau)
    stats = EnumerationStats()
    cliques = list(PreparedGraph(graph).maximal_cliques(k, tau, stats=stats))
    out.append({
        "pieces": [c.nodes() for c in result.components],
        "cut": [result.cuts_found, result.edges_removed,
                result.fringe_nodes_peeled],
        "stats": [stats.cuts_found, stats.cut_edges_removed,
                  stats.components],
        "order": [sorted(c) for c in cliques],
    })
print(json.dumps(out))
"""


def test_cut_is_hash_seed_invariant() -> None:
    outputs = {_run_script(_CUT_SCRIPT, seed) for seed in ("1", "2")}
    assert len(outputs) == 1, (
        "cut output varies with PYTHONHASHSEED:\n"
        + "\n".join(sorted(outputs))
    )
    payload = json.loads(next(iter(outputs)))
    # Both points really cut (the deterministic start rule's results).
    assert [point["cut"][:2] for point in payload] == [[5, 32], [1, 44]]
    for point in payload:
        assert point["stats"][:2] == point["cut"][:2]
        assert point["stats"][2] == len(point["pieces"])


def test_anchored_queries_are_hash_seed_invariant() -> None:
    outputs = {_run(seed) for seed in ("0", "1", "4242")}
    assert len(outputs) == 1, (
        "anchored query output varies with PYTHONHASHSEED:\n"
        + "\n".join(sorted(outputs))
    )
    payload = json.loads(next(iter(outputs)))
    assert payload["exists"] is True
    assert payload["order"], "fixture must actually yield cliques"
    assert all(["alpha" in clique for clique in payload["order"]])
