"""Every Ray remote function is registered once, at module level.

``ray.remote(f)`` inside a function body builds (and, for closures,
re-exports) a new remote function on every call: per-call registration
measured 16–21 ms against 13–14 ms for a module-level handle on an
8-task point lookup. Captured state travels as task arguments instead.
"""

from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "sonic_etl_ray"

# (file, line) sites allowed to register inside a function body: none
ALLOWED: set[tuple[str, int]] = set()


def _is_ray_remote(node: ast.AST) -> bool:
    """``ray.remote`` itself, or a call of it (``ray.remote(num_cpus=1)``)."""
    if isinstance(node, ast.Call):
        node = node.func
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "remote"
        and isinstance(node.value, ast.Name)
        and node.value.id == "ray"
    )


def _nested_registrations(tree: ast.Module) -> list[int]:
    lines = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and _is_ray_remote(node.func):
                    lines.append(node.lineno)  # ray.remote(...)(f) / ray.remote(f)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    lines += [d.lineno for d in node.decorator_list if _is_ray_remote(d)]
    return sorted(set(lines))


def test_no_remote_registered_inside_a_function():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(PACKAGE.parent))
        tree = ast.parse(path.read_text(), filename=rel)
        found += [
            f"{rel}:{line}"
            for line in _nested_registrations(tree)
            if (rel, line) not in ALLOWED
        ]
    assert not found, "ray.remote inside a function body: " + ", ".join(found)


def test_scanner_flags_every_nested_form():
    src = '''
import ray

@ray.remote(num_cpus=1)
def top(x):
    return x

top_handle = ray.remote(num_cpus=1)(len)

def f():
    a = ray.remote(num_cpus=1)(len)
    b = ray.remote(len)

    @ray.remote
    def g():
        pass

    @ray.remote(num_cpus=0)
    class A:
        pass
'''
    assert _nested_registrations(ast.parse(src)) == [11, 12, 14, 18]
