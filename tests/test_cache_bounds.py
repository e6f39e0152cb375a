"""Every `functools` cache the package defines states a finite bound, and
no cached value grows with the request.

A cache keyed by request data that never fills keeps every entry it makes,
so steady churn grows memory without end (see the comment above
`multilog._route`).  Each `lru_cache` in `src/switchlp/` must therefore be
called with a positive int `maxsize`, written out; a bare `@lru_cache`,
`maxsize=None` and `functools.cache` all fail.  A bound on entries bounds
memory only if no entry grows with k = |B|: the canonical sets keep B as a
range, so a certificate grid runs in memory that does not grow with d^t.
Nor may an entry grow with the fanout f: the route cache holds one route
per (input, output), never a window's outputs.
"""

import ast
import contextlib
import gc
import io
import pathlib
import sys
import tracemalloc

from switchlp import adversary, banyan, cli, dary, lpcert, multilog

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


def kept(call, module):
    """The bytes that `module`'s own lines allocated during `call` and are
    still allocated after it, as tracemalloc counts them."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, module.__file__)])
        return sum(stat.size for stat in snap.statistics("filename"))
    finally:
        tracemalloc.stop()


def canonical_sets_at(d, n, t, k):
    """The canonical sets at k, alone in a cleared cache, with the counts
    a certificate reads."""
    dary._canonical_sets.cache_clear()
    sets = dary.canonical_sets(d, n, t, k)
    sets.output_counts, sets.union_b_tail(n - t)


def first_point(d, n, t, k):
    """A certificate grid's first point at k: its instance, every class
    table the instance reads, and one certificate."""
    inst = lpcert.canonical_instance(d, n, t, d ** n, k)
    inst.classes_uw, inst.classes_uv, inst.profile
    lpcert.dual_family(inst, 0, n).check_feasible()


def test_no_cached_value_grows_with_k():
    d, n, t = 2, 13, 12
    # the canonical sets at k = 1 and at k = d^t = 4096 hold the same few
    # counts; a B held member by member would hold 4096 ints at the top
    small, large = (kept(lambda: canonical_sets_at(d, n, t, k), dary)
                    for k in (1, d ** t))
    # (a freed dict or list that CPython keeps for reuse still counts)
    assert large < small + 1024, (small, large)
    # the class tables are keyed without k, so a second k caches nothing
    # of the size a table of its 4096 members would take
    first_point(d, n, t, 1)
    assert kept(lambda: first_point(d, n, t, d ** t), lpcert) < 4096


def test_certificate_grid_memory_is_bounded():
    # 12,605 rows at d = 64, n = 3, up to k = 64^2; its peak was 619 MiB
    # when each cached request held B member by member
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(["certify", "--d", "64", "--n", "3",
                             "--mode", "link"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.getvalue().count("\n") == 12606
    assert peak < 16 * 2 ** 20, peak


def cached_bytes(*modules):
    """The bytes of the keys and values that the modules' caches hold, each
    object counted once: a C `lru_cache` hands the collector every key and
    value it holds."""
    seen, total = set(), 0
    todo = [ref for module in modules for fn in vars(module).values()
            if hasattr(fn, "cache_info") for ref in gc.get_referents(fn)
            if type(ref) is tuple]
    while todo:
        obj = todo.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            if type(obj) is tuple:
                todo += obj
    return total


def route_caches_after_churn(f, steps):
    """What the multilog and banyan caches hold after random churn at
    fanout f on one window of 256 outputs, the route cache cleared before
    and full after."""
    multilog._route.cache_clear()
    adversary.random_trial(
        multilog.MultilogConfig(d=2, n=8, m=4, t=8, f=f), steps, 5)
    info = multilog._route.cache_info()
    assert info.currsize == info.maxsize
    return cached_bytes(multilog, banyan)


def test_route_cache_does_not_grow_with_f():
    # a cache keyed on a window's outputs would hold requests of up to f
    # outputs and their trees
    small, large = (route_caches_after_churn(f, steps)
                    for f, steps in ((1, 600), (256, 300)))
    assert large < small + 1024, (small, large)
