"""No module states a size, range, weight, request or mode rule's message
by hand.

Each size and family parameter (d, n, t, f, k, p, q) has one rule and one
message, which `events.check_range` raises, and an edge weight or Clos rate
has `dwec.as_weight`'s.  A request's outputs have `dary.check_request`'s
rules (a collection, nonempty, in one window), a checked request is an
`AddressSets` by `dary.not_sets`'s message, and a mode has
`bounds.theta_of`'s.  Any other `raise` in `src/switchlp/` whose text
compares one of the parameter names, names the weight range, the rule's
"need integer", a mode, a span of windows, an empty or least count, a
collection or an `AddressSets` is a second statement of a rule, unless it
is one of the few other rules below.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "switchlp").glob("*.py"))
# a parameter name compared, assigned or ranged, as a rule's message
# writes it: "t < n", "f=9", "d must be", "k out of range"
PARAMETER = re.compile(
    r"(?<![\w.%])[dntfkpq](\s*(=|>=|<=|<|>)|\s+(must|out of))")
# a request or mode rule's wording: "unknown mode", "spans windows", "empty
# output set", "must be nonempty", "cannot hold", "at least one digit"
REQUEST = re.compile(
    r"\bmode\b|\bspans?\b|empty|cannot hold|at least|collection|AddressSets")

RULES = {
    ("events.py", "check_range", "%s=%r: need integer %s"),
    ("dwec.py", "as_weight", "weight %s out of (0, 1]"),
    ("dary.py", "check_request", "%r is not a collection of addresses"),
    ("dary.py", "check_request", "empty output set"),
    ("dary.py", "check_request", "outputs span windows %s"),
    ("dary.py", "not_sets", "%r is not a dary.AddressSets"),
    ("bounds.py", "theta_of", "unknown mode %r"),
    # the coloring audit's broken invariant, an AssertionError
    ("dwec.py", "audit", "weight %s out of (0, 1]"),
    # other rules that name a parameter: the tables' domain and an address
    ("bounds.py", "_check_table", "the tables take t < n, not t=%d = n"),
    ("dary.py", "check_address", "address %s out of range for d=%d, n=%d"),
}


def rule_texts(path):
    """(module, function, text) for each string in a function's `raise`
    that reads like a size, range, weight, request or mode rule."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            for c in ast.walk(node.exc):
                if isinstance(c, ast.Constant) and type(c.value) is str and (
                        PARAMETER.search(c.value) or "(0, 1]" in c.value
                        or "need integer" in c.value
                        or REQUEST.search(c.value)):
                    found.add((path.name, fn.name, c.value))
    return found


def test_one_message_per_rule():
    assert set().union(*map(rule_texts, SRC)) == RULES


def test_guard_sees_a_hand_written_rule(tmp_path):
    # the messages the shared rule replaced, written by hand again
    path = tmp_path / "bounds.py"
    path.write_text(
        "def ilog(d, f):\n"
        "    if d < 2:\n"
        "        raise ValueError('d must be >= 2')\n"
        "def canonical_sets(d, n, t, k):\n"
        "    raise ValueError('k=%d out of range for window size %d')\n"
        "def multirate_admit(rate):\n"
        "    raise ValueError('rate %s out of (0, 1]' % rate)\n")
    assert {text for _, _, text in rule_texts(path)} == {
        "d must be >= 2", "k=%d out of range for window size %d",
        "rate %s out of (0, 1]"}


def test_guard_sees_a_hand_written_request_or_mode_rule(tmp_path):
    # the request and mode messages that `check_request`, `not_sets` and
    # `theta_of` replaced, written by hand again
    path = tmp_path / "multilog.py"
    path.write_text(
        "def admit(B):\n"
        "    raise ValueError('empty output set')\n"
        "def __init__(B, mode):\n"
        "    raise ValueError('B must be nonempty')\n"
        "    raise ValueError('window cannot hold %d outputs' % len(B))\n"
        "    raise ValueError('B spans multiple windows: %s' % B)\n"
        "    raise ValueError('subrequest spans windows %s' % B)\n"
        "    raise ValueError('mode must be %r or %r' % mode)\n"
        "    raise ValueError('unknown mode %r' % (mode,))\n"
        "    raise ValueError('need at least one digit')\n"
        "    raise ValueError('sets must be a dary.AddressSets')\n"
        "    raise ValueError('%r is not a collection of addresses' % B)\n")
    assert {text for _, _, text in rule_texts(path)} == {
        "empty output set", "B must be nonempty",
        "window cannot hold %d outputs", "B spans multiple windows: %s",
        "subrequest spans windows %s", "mode must be %r or %r",
        "unknown mode %r", "need at least one digit",
        "sets must be a dary.AddressSets",
        "%r is not a collection of addresses"}
    # each is a second statement of a rule, in a module that has none
    assert not rule_texts(path) & RULES
