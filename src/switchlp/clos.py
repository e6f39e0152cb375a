"""Three-stage Clos network simulator.

Covers three admission disciplines on C(n, m, r): r input and r output
crossbars of n terminals each, joined through m middle crossbars.

- strict-sense unicast: any middle crossbar free toward both sides works,
  and at most 2(n-1) middles can ever be unavailable to a fresh request, so
  m >= 2n-1 never blocks;
- the r=2 reuse rule (`reuse_pick`): prefer a middle already carrying the
  diagonal traffic class, which brings the requirement down to floor(3n/2);
- multirate: a request is an edge of a dynamic weighted edge coloring from
  ("I", its input crossbar) to ("O", its output crossbar), and that edge
  alone holds its rate in (0,1] and its color, the middle it rides; a
  request blocks only when the coloring wants a middle index beyond m-1.

Space-division occupancy is one int mask per crossbar (`in_mids`,
`out_mids`), with bit `mid` set while middle `mid` carries a request there,
so a request's unusable middles are the OR of two masks.  Multirate terminal
loads are scaled by the coloring's `den` (`dwec`).

Terminals are (crossbar, port) pairs, written `<crossbar>:<port>` in traces,
both 0-based.
"""

from collections import namedtuple
from fractions import Fraction

from . import dwec
from .events import (BLOCKED, DuplicateId, SwitchError, UnknownId, check,
                     check_range, fraction, replay)

SPACE = "space"
MULTIRATE = "multirate"


class TerminalBusy(SwitchError):
    status = "terminalbusy"


class CapacityExceeded(SwitchError):
    status = "capacityexceeded"


class ClosConfig(namedtuple("ClosConfig", ["n", "m", "r", "traffic"],
                            defaults=[SPACE])):
    """A Clos network's shape: frozen, compared and hashed by value, and
    validated on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("n", "m", "r"):
            check_range(name, getattr(self, name), 1)
        if self.traffic not in (SPACE, MULTIRATE):
            raise ValueError("unknown traffic %r" % (self.traffic,))
        return self

    @classmethod
    def symmetric(cls, n, m, r, traffic=SPACE):
        return cls(n, m, r, traffic)


class ClosState:
    def __init__(self, config):
        self.config = config
        self.requests = {}
        self._auto = 0
        if config.traffic == SPACE:
            self.in_mids = [0] * config.r   # crossbar -> busy-middle mask
            self.out_mids = [0] * config.r
            self.busy_in = {}    # input terminal -> rid
            self.busy_out = {}   # output terminal -> rid
        else:
            self.coloring = dwec.ColoringState()
            self.load_in = {}    # input terminal -> total rate, scaled
            self.load_out = {}

    # -- shared helpers ---------------------------------------------------

    def _check_terminal(self, term):
        if type(term) is not tuple or len(term) != 2:
            raise ValueError("terminal %r out of range" % (term,))
        cb, port = term
        if not (type(cb) is int and type(port) is int
                and 0 <= cb < self.config.r and 0 <= port < self.config.n):
            raise ValueError("terminal %s:%s out of range" % (cb, port))

    def _next_rid(self, rid):
        if rid is None:
            self._auto += 1
            rid = "auto%d" % self._auto
        if rid in self.requests:
            raise DuplicateId(repr(rid))
        return rid

    # -- space-division admission ----------------------------------------

    def _space_pre(self, in_term, out_term, rid):
        """Validate a space-division request; returns its id."""
        if self.config.traffic != SPACE:
            raise ValueError("not a space-division network")
        self._check_terminal(in_term)
        self._check_terminal(out_term)
        if in_term in self.busy_in:
            raise TerminalBusy("input %s:%s" % in_term)
        if out_term in self.busy_out:
            raise TerminalBusy("output %s:%s" % out_term)
        return self._next_rid(rid)

    def _space_commit(self, rid, in_term, out_term, mid):
        self.in_mids[in_term[0]] |= 1 << mid
        self.out_mids[out_term[0]] |= 1 << mid
        self.busy_in[in_term] = rid
        self.busy_out[out_term] = rid
        self.requests[rid] = (in_term, out_term, mid)
        return mid

    def snb_admit(self, in_term, out_term, rid=None):
        """First-fit strict-sense admission; returns the middle or BLOCKED."""
        rid = self._space_pre(in_term, out_term, rid)
        bad = self.in_mids[in_term[0]] | self.out_mids[out_term[0]]
        # the middles busy at either crossbar: with both terminals idle, at
        # most n-1 are tied up by this input crossbar and n-1 by the output
        # crossbar
        if bad.bit_count() > 2 * (self.config.n - 1):
            raise AssertionError("%d middles unavailable" % bad.bit_count())
        mid = (bad ^ (bad + 1)).bit_length() - 1   # the lowest zero bit
        if mid >= self.config.m:
            return BLOCKED
        return self._space_commit(rid, in_term, out_term, mid)

    def benes_admit(self, in_term, out_term, rid=None):
        """Admission by the r = 2 reuse rule (`reuse_pick`); returns the
        middle or BLOCKED."""
        if self.config.r != 2:
            raise ValueError("the reuse rule needs r = 2")
        rid = self._space_pre(in_term, out_term, rid)
        mid = reuse_pick(self.config.m, self.in_mids, self.out_mids,
                         in_term[0], out_term[0])
        return BLOCKED if mid is None else self._space_commit(
            rid, in_term, out_term, mid)

    # -- multirate admission ----------------------------------------------

    def multirate_admit(self, in_term, out_term, rate, rid=None):
        """Color the demand edge; the color index is the middle crossbar.
        Returns the middle or BLOCKED (state untouched when blocked)."""
        if self.config.traffic != MULTIRATE:
            raise ValueError("not a multirate network")
        self._check_terminal(in_term)
        self._check_terminal(out_term)
        rate = dwec.as_weight(rate)   # before the capacity checks
        den = self.coloring.den
        scaled = dwec.scaled(rate, den)
        if self.load_in.get(in_term, 0) + scaled > den:
            raise CapacityExceeded("input %s:%s" % in_term)
        if self.load_out.get(out_term, 0) + scaled > den:
            raise CapacityExceeded("output %s:%s" % out_term)
        rid = self._next_rid(rid)
        edge = ("I", in_term[0]), ("O", out_term[0])
        plan = self.coloring.plan(*edge, rate)
        if plan.color >= self.config.m:
            return BLOCKED
        color = self.coloring.commit(rid, *edge, plan)
        if self.coloring.den != den:   # the coloring grew den
            dwec.rescale(self.coloring.den // den, self.load_in, self.load_out)
            scaled = dwec.scaled(rate, self.coloring.den)
        self.load_in[in_term] = self.load_in.get(in_term, 0) + scaled
        self.load_out[out_term] = self.load_out.get(out_term, 0) + scaled
        self.requests[rid] = (in_term, out_term)
        return color

    # -- release and audit -------------------------------------------------

    def release(self, rid):
        try:
            entry = self.requests.pop(rid)
        except KeyError:
            raise UnknownId(repr(rid))
        if self.config.traffic == SPACE:
            in_term, out_term, mid = entry
            i, o, bit = in_term[0], out_term[0], 1 << mid
            check(self.in_mids[i] & self.out_mids[o] & bit,
                  "request %r is off middle %d at a crossbar", rid, mid)
            del self.busy_in[in_term]
            del self.busy_out[out_term]
            self.in_mids[i] ^= bit
            self.out_mids[o] ^= bit
        else:
            in_term, out_term = entry
            rate = self.coloring.depart(rid)[2]
            scaled = dwec.scaled(rate, self.coloring.den)
            self.load_in[in_term] -= scaled
            self.load_out[out_term] -= scaled

    def audit(self):
        cfg = self.config
        if cfg.traffic == SPACE:
            in_mids, out_mids = [0] * cfg.r, [0] * cfg.r
            bi, bo = {}, {}
            # per-request checks are inline: a call each would slow audits
            for rid, (it, ot, mid) in self.requests.items():
                i, o, bit = it[0], ot[0], 1 << mid
                if (in_mids[i] | out_mids[o]) & bit or it in bi or ot in bo:
                    raise AssertionError("request %r reuses a middle link or "
                                         "a terminal" % (rid,))
                in_mids[i] |= bit
                out_mids[o] |= bit
                bi[it], bo[ot] = rid, rid
            check(in_mids == self.in_mids and out_mids == self.out_mids,
                  "middle occupancy differs from the registry")
            check(bi == self.busy_in and bo == self.busy_out,
                  "busy terminals differ from the registry")
            if cfg.r == 2:
                # middles of the classes (0,0)+(1,1) and (0,1)+(1,0)
                spread = [0, 0]
                for it, ot, mid in self.requests.values():
                    spread[it[0] != ot[0]] |= 1 << mid
                check(max(s.bit_count() for s in spread) <= cfg.n,
                      "a diagonal class spreads over too many middles")
        else:
            edges = self.coloring.edges
            self.coloring.audit()
            check(edges.keys() == self.requests.keys(),
                  "coloring edges differ from the requests")
            den = self.coloring.den
            li, lo = {}, {}
            for rid, (it, ot) in self.requests.items():
                u, v, rate, color = edges[rid]
                check(color < cfg.m, "request %r has color %r", rid, color)
                check(u == ("I", it[0]) and v == ("O", ot[0]),
                      "request %r is off its crossbars", rid)
                scaled = dwec.scaled(rate, den)
                li[it] = li.get(it, 0) + scaled
                lo[ot] = lo.get(ot, 0) + scaled
            check(all(w <= den for w in (*li.values(), *lo.values())),
                  "terminal overloaded")
            check(li == {k: v for k, v in self.load_in.items() if v}
                  and lo == {k: v for k, v in self.load_out.items() if v},
                  "terminal loads differ from the registry")


def reuse_pick(m, in_mids, out_mids, i, o):
    """The middle the r = 2 reuse rule gives a fresh I_i -> O_o request,
    from the busy-middle masks per input and output crossbar; None when none
    is free.  The rule prefers a free middle carrying the diagonal class
    (1-i, 1-o), then a busy one, then an idle one.  With r = 2 the first two
    coincide: a free middle that is busy is busy at input crossbar 1-i, and
    the one request it carries from there cannot go to output crossbar o.
    So the pick is the lowest set bit of in_mids[1-i] & ~bad, else the
    lowest zero bit of bad if it is below m."""
    bad = in_mids[i] | out_mids[o]
    reuse = in_mids[1 - i] & ~bad
    if reuse:
        return (reuse & -reuse).bit_length() - 1
    mid = (bad ^ (bad + 1)).bit_length() - 1
    return mid if mid < m else None


def parse_terminal(text):
    """(crossbar, port) from "<crossbar>:<port>", each in ASCII decimal."""
    cb, sep, port = text.partition(":")
    if not (sep and all(p.isascii() and p.isdigit() for p in (cb, port))):
        raise ValueError("cannot read terminal %r" % text)
    return int(cb), int(port)


def run_trace(state, lines, reuse=False):
    """Replay `A <id> <in> <out>` / `D <id>` lines into `state`, with an
    optional `<rate>` after `<out>` on a multirate network; yields CSV-row
    dicts event,id,middle,status.  Space-division arrivals are admitted
    first-fit, or with the r = 2 reuse rule when `reuse` is set."""
    multirate = state.config.traffic == MULTIRATE
    space_admit = state.benes_admit if reuse else state.snb_admit

    def operands(tokens):
        rate = fraction(tokens[2]) if len(tokens) == 3 else Fraction(1)
        return parse_terminal(tokens[0]), parse_terminal(tokens[1]), rate

    def admit(rid, it, ot, rate):
        if multirate:
            return state.multirate_admit(it, ot, rate, rid=rid)
        return space_admit(it, ot, rid=rid)

    arity = (2, 3 if multirate else 2)
    for event, rid, got in replay(lines, arity, operands, admit,
                                  state.release):
        if isinstance(got, SwitchError):
            middle, status = "", got.status
        elif got is BLOCKED:
            middle, status = "", "blocked"
        else:
            middle, status = "" if got is None else got, "ok"
        yield {"event": event, "id": rid, "middle": middle, "status": status}
