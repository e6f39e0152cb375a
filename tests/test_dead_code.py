"""Every function, class and method the package defines has a caller.

A definition in `src/switchlp/` must be named somewhere in the package
outside its own body, or under `bench/`, whose workloads call library names
and whose tracer patches methods by name.  Code that only tests call
belongs in the test oracles, not in the package.
"""

import ast
from collections import Counter
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "switchlp").glob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names(tree):
    """How often each identifier is named in `tree`: as a variable, an
    attribute, an imported name or a whole string constant."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and type(node.value) is str:
            found[node.value] += 1
    return found


def test_every_definition_is_named():
    trees = {path.name: ast.parse(path.read_text()) for path in SRC}
    in_src = sum(map(names, trees.values()), Counter())
    in_bench = sum((names(ast.parse(path.read_text())) for path in BENCH),
                   Counter())
    checked, unused = 0, []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if not isinstance(node, DEFS) or (
                    name.startswith("__") and name.endswith("__")):
                continue
            checked += 1
            if in_src[name] == names(node)[name] and not in_bench[name]:
                unused.append("%s: %s" % (module, name))
    assert checked > 100
    assert unused == []
