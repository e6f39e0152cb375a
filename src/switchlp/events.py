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

A value is checked once, where it enters the package.  Each size and
family parameter has one rule, an int other than a bool in a range,

    d >= 2, n >= 1, 0 <= t <= n, 1 <= f <= d^n, 1 <= k <= min(f, d^t),
    0 <= p < N - t, n - t <= q <= n, N = n + theta,

where a crosstalk family (theta = 1) is the link family at N, and one
message, `check_range`'s "t=4: need integer 0 <= t <= 3".  Where
one enters, `check_sizes` (or `check_family` for p and q) applies them in
that order: the multilog config, `dary.AddressSets` (d, n, t),
`canonical_sets` (k), `lpcert.LpInstance` (f, k = |B|), the dual family,
the `bounds` counts, tables and costs, `banyan.route` (d, n) and the
`certify` grid.  A passing call is remembered.  The tables take only
t < n, a rule of their own.  A Clos n, m or r, a multilog m, the
saturating schedule's n >= 2, a search's depth ("depth=-1: need integer
depth >= 0", as `--depth` says) and a multilog sweep's trials and steps pass
`check_range`; `certify` refuses a grid of over 1000000 rows ("the grid
has more than 1000000 rows"); a weight or Clos rate is in (0, 1] by
`dwec.as_weight` ("weight 3/2 out of (0, 1]").  A request has one rule,
`dary.check_request`, in `AddressSets`, `ConnState.admit` and
`blocking_planes`: its outputs are a nonempty collection ("empty output
set", "5 is not a collection of addresses"), it holds addresses ("address
8 out of range for d=2, n=3") and, but in admit, one window ("outputs
span windows [0, 2]"); a range is refused as its list is.  `LpInstance`
and `blocking_branches` refuse all but an `AddressSets` ("None is not a
dary.AddressSets").  A mode has one rule, `bounds.theta_of` ("unknown
mode 'x'"), in the multilog config, `LpInstance`, `route` and
`multilog_planes`.  A Clos terminal is checked by its `ClosState`, and a
dual value becomes an exact number in `lpcert.DualSolution`.  Internal
helpers check nothing.
"""

from fractions import Fraction
from functools import lru_cache, wraps


class SwitchError(Exception):
    """A request the network refuses; `status` is its CSV status string."""

    status = "error"


class UnknownId(SwitchError):
    status = "unknown_id"


class DuplicateId(SwitchError):
    status = "duplicate_id"


_UNSET = object()  # a p not given, whose rule is not applied


def check_range(name, value, least, most=None):
    """Raise ValueError naming `name`, value and range unless value is an
    int other than a bool, an int subclass such as an address included, in
    [least, most], or at least `least` with no `most`."""
    if (type(value) is bool or not isinstance(value, int) or value < least
            or most is not None and value > most):
        raise ValueError("%s=%r: need integer %s" % (
            name, value, "%s >= %d" % (name, least) if most is None
            else "%d <= %s <= %d" % (least, name, most)))


def _remembered(rule):
    """The check `rule`, run once per tuple of argument values and types
    that passes it, and every time for an unhashable value."""
    passed = lru_cache(maxsize=1024, typed=True)(rule)

    @wraps(rule)
    def check(*args):
        try:
            return passed(*args)
        except TypeError:  # an unhashable value, which the rule then names
            return rule(*args)
    return check


@_remembered
def check_sizes(d, n, t=0, f=1, k=1):
    """Refuse d, n, t, f and k by the module's rules, the first broken one
    named; the defaults pass for any d, n and t that do."""
    check_range("d", d, 2)
    check_range("n", n, 1)
    check_range("t", t, 0, n)
    check_range("f", f, 1, d ** n)
    check_range("k", k, 1, min(f, d ** t))


@_remembered
def check_family(n, t, q, p=_UNSET, theta=0):
    """q at n, and p where given at N = n + theta, on a checked n and t."""
    if p is not _UNSET:
        check_range("p", p, 0, n + theta - t - 1)
    check_range("q", q, n - t, n)


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
