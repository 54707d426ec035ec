"""Only ``pipelines/sidecars.py`` spells the sidecar directories.

The decoded, error and history side tables share one layout and one
implementation (``SidecarFamily``). A second module that joins its own
``"_decoded"``, ``"_errors"`` or ``"_history"`` path would start a second
copy of the listing, gate or fold, so this scan fails on any such string
literal (docstrings aside) outside the family's module.
"""

from __future__ import annotations

import ast
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "sonic_etl_ray"
OWNER = "sonic_etl_ray/pipelines/sidecars.py"
_SIDECAR_DIR = re.compile(r"(^|[/\\])_(decoded|errors|history)([/\\]|$)")


def _docstrings(tree: ast.Module) -> set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                ids.add(id(body[0].value))
    return ids


def _sidecar_literals(tree: ast.Module) -> list[int]:
    skip = _docstrings(tree)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in skip
        and _SIDECAR_DIR.search(node.value)
    )


def test_only_sidecars_module_builds_sidecar_paths():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(PACKAGE.parent))
        if rel == OWNER:
            continue
        tree = ast.parse(path.read_text(), filename=rel)
        found += [f"{rel}:{line}" for line in _sidecar_literals(tree)]
    assert not found, "sidecar path literal outside sidecars.py: " + ", ".join(found)


def test_scanner_flags_path_forms_and_skips_docstrings():
    src = '''
"""Module doc naming _history/epoch=E."""
import os

def f(lake, e):
    """Reads _decoded/ files."""
    a = os.path.join(lake, "_errors", "runs")
    b = f"{lake}/_history/compacted"
    c = "_decoded"
    d = "track_history"
    return a, b, c, d
'''
    assert _sidecar_literals(ast.parse(src)) == [7, 8, 9]
