"""The trace reader and the errors every simulator shares.

A trace is text, one event per line: an arrival `A <id> <operand>...` or a
departure `D <id>`.  Blank lines and `#` comments are skipped.  A line given
as bytes is decoded as UTF-8 on its own, so one that does not decode is
reported by its number like any other malformed line.  Each network supplies
the grammar of its arrival operands and its own admit and release; this
module does the rest, so every network reads traces the same way.

Every error the package raises is one of four kinds.  A `SwitchError` is a
request the network refuses (a busy output, an unknown id, ...); trace
replay reports it as a row whose status is the exception's `status`, and
the network's state is unchanged.  A `ValueError` is malformed input; trace
replay raises it as a `TraceError` whose message starts with `line N:`, and
the command line exits 2.  An `lpcert.Infeasible` is a verdict: a solution
or scheme breaks a constraint of its LP.  An `AssertionError` is a broken
invariant, raised by `check` also under `python -O`.

A value is checked once, where it enters the package.  A size or family
parameter (d, n, m, t, f, k, r, p, q) must pass `check_integers`, an int
other than a bool, in the network configs, the `bounds` tables and Clos
counts, `dary.canonical_sets`, `lpcert.LpInstance` (f) and the dual family.
`dary.AddressSets` is the one boundary for a multilog request (d, n, t, a,
B): d, n and t pass `check_integers` and the configs' range rule, B becomes
a set by `dary.address_set` and its members pass `dary.check_addresses`,
and a passes `dary.check_address`.  `ConnState.admit` and
`ConnState.blocking_planes` check (x, outputs) by the same address rules and
`banyan.Route` its terminals by `check_address`; trace text becomes an
address through `dary.parse_address`.  A Clos terminal is checked by its
`ClosState`, and a rate or dual value becomes an exact number on entry
(`dwec.as_fraction`, `lpcert.DualSolution`).  An `AddressSets` is a checked
request: `LpInstance` refuses any other `sets`, then reads d, n, t, a and B
off it, and `ConnState.blocking_branches` matches it to its network, neither
checking its values again.  Internal helpers take values already checked
and check nothing; `bounds.c_cost` and `g_cost` range-check their inputs but
do not type-check them.
"""

from fractions import Fraction


class SwitchError(Exception):
    """A request the network refuses; `status` is its CSV status string."""

    status = "error"


class UnknownId(SwitchError):
    status = "unknown_id"


class DuplicateId(SwitchError):
    status = "duplicate_id"


def check_integers(names, *values):
    """Raise ValueError("need integer <names>") unless every value is an
    int other than a bool; an int subclass such as an address passes."""
    if set(map(type, values)) != {int}:
        for v in values:
            if type(v) is bool or not isinstance(v, int):
                raise ValueError("need integer " + names)


def check(cond, msg, *args):
    """Raise AssertionError(msg % args) unless cond, also under `python -O`;
    the state audits check their invariants with it."""
    if not cond:
        raise AssertionError(msg % args)


class TraceError(ValueError):
    """A malformed trace line."""

    def __init__(self, ln, msg):
        super().__init__("line %d: %s" % (ln, msg))


class Blocked:
    """Admission failure: no plane can carry a multilog window subrequest,
    or no middle crossbar a Clos request.  `BLOCKED` is its one instance."""


BLOCKED = Blocked()


def fraction(text):
    """Exact rational from text such as `3/5` or `0.5`; ValueError if bad."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None
    except (TypeError, OverflowError):
        raise ValueError("%r is not a finite rational" % (text,)) from None


def replay(lines, arity, operands, admit, release):
    """Apply a trace's events in order; yields (event, id, outcome).

    `lines` are str, or bytes holding UTF-8.  `arity` is the (least, most)
    number of arrival operands, most None for no limit.  An arrival calls
    `admit(id, *operands(tokens))` and a departure `release(id)`.  The
    outcome is what admit or release returned, or the SwitchError it
    raised.
    """
    least, most = arity
    for ln, raw in enumerate(lines, start=1):
        if type(raw) is bytes:
            try:
                raw = raw.decode()
            except UnicodeDecodeError:
                raise TraceError(ln, "not UTF-8: %r" % raw.strip()) from None
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        kind, args = parts[0], parts[1:]
        count = len(args) - 1
        if not ((kind == "A" and least <= count
                 and (most is None or count <= most))
                or (kind == "D" and count == 0)):
            raise TraceError(ln, "cannot parse %r" % raw.strip())
        try:
            if kind == "A":
                outcome = admit(args[0], *operands(args[1:]))
            else:
                outcome = release(args[0])
        except SwitchError as exc:
            outcome = exc
        except ValueError as exc:
            raise TraceError(ln, exc) from None
        yield kind, args[0], outcome
