"""Every `functools` cache the package defines states a finite bound.

A cache keyed by request data that never fills keeps every entry it makes,
so steady churn grows memory without end (see the comment above
`multilog._route`).  Each `lru_cache` in `src/switchlp/` must therefore be
called with a positive int `maxsize`, written out; a bare `@lru_cache`,
`maxsize=None` and `functools.cache` all fail.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "switchlp").glob("*.py"))
CACHES = {"lru_cache", "cache"}


def cache_uses(tree):
    """(functools name, node, parent) for each reference to a functools
    cache: a name imported from functools, or an attribute of the
    `functools` module."""
    local = {alias.asname or alias.name: alias.name
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in CACHES}
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.Name) and node.id in local:
                yield local[node.id], node, parent
            elif (isinstance(node, ast.Attribute) and node.attr in CACHES
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                yield node.attr, node, parent


def bound_of(name, node, parent):
    """The positive int maxsize written where `node` is called, or None."""
    if name != "lru_cache" or not (isinstance(parent, ast.Call)
                                   and parent.func is node):
        return None
    args = parent.args[:1] + [kw.value for kw in parent.keywords
                              if kw.arg == "maxsize"]
    if len(args) != 1 or not isinstance(args[0], ast.Constant):
        return None
    size = args[0].value
    return size if type(size) is int and size > 0 else None


def test_every_cache_is_bounded():
    checked, unbounded = 0, []
    for path in SRC:
        tree = ast.parse(path.read_text())
        for name, node, parent in cache_uses(tree):
            checked += 1
            if bound_of(name, node, parent) is None:
                unbounded.append("%s:%d" % (path.name, node.lineno))
    assert checked >= 7
    assert unbounded == []
