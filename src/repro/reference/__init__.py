"""Reference oracle: obviously-correct implementations for the tests.

Nothing in the library imports this package; the test suite checks the
production pipeline against it (``tests/test_reference_boundary.py``
keeps it that way).  It holds:

* :mod:`~repro.reference.bruteforce` — exponential subset enumeration of
  maximal and maximum (k, tau)-cliques and of tau-degrees;
* :mod:`~repro.reference.peels` — the dict-based DPCore, DPCore+ and
  (Top_k, tau)-core peels;
* :mod:`~repro.reference.cut` — the dict-based cut optimization, which
  deletes the low-probability cut edges from a working copy;
* :mod:`~repro.reference.search` — the dict-based MUCE++ and MaxUC+
  drivers (Mukherjee et al.'s set-enumeration recursion on every
  component);
* :mod:`~repro.reference.compile` — from-scratch compiles: a whole-graph
  lowering, the oracle for the rows the graph keeps and the delta
  patches, and a component compile, the oracle for the views derived
  from the whole-graph artifact.
"""

from repro.reference.bruteforce import (
    brute_force_maximal_cliques,
    brute_force_maximum_clique,
    brute_force_tau_degree,
)
from repro.reference.compile import compile_component, lower_graph
from repro.reference.cut import cut_optimize
from repro.reference.peels import dp_core, dp_core_plus, topk_core
from repro.reference.search import max_uc_plus, maximal_cliques

__all__ = [
    "brute_force_maximal_cliques",
    "brute_force_maximum_clique",
    "brute_force_tau_degree",
    "compile_component",
    "lower_graph",
    "cut_optimize",
    "dp_core",
    "dp_core_plus",
    "topk_core",
    "maximal_cliques",
    "max_uc_plus",
]
