"""The reference oracle stays out of the library.

:mod:`repro.reference` holds the dict-based peels and searches and the
brute-force enumerators that the tests check the production pipeline
against.  An oracle the library itself calls is no longer independent,
so no module under ``src/repro`` outside ``repro/reference/`` may import
it — checked here on the source ASTs.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "repro"


def _imports_reference(tree: ast.AST) -> list[int]:
    """Line numbers of every import of ``repro.reference`` in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names = [module] + [
                f"{module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        if any(
            name == "repro.reference" or name.startswith("repro.reference.")
            for name in names
        ):
            lines.append(node.lineno)
    return lines


def test_library_never_imports_the_reference() -> None:
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if (SRC / "reference") in path.parents:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{path.relative_to(SRC)}:{line}"
            for line in _imports_reference(tree)
        )
    assert offenders == []


def test_boundary_check_sees_every_import_form() -> None:
    sources = (
        "import repro.reference",
        "import repro.reference.peels as peels",
        "from repro.reference import peels",
        "from repro.reference.search import maximal_cliques",
        "from repro import reference",
    )
    for source in sources:
        assert _imports_reference(ast.parse(source)) == [1], source
    assert _imports_reference(ast.parse("from repro import core")) == []
