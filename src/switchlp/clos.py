"""Three-stage Clos network simulator.

Covers three admission disciplines on C(n1, r1, m, n2, r2):

- strict-sense unicast: any middle crossbar free toward both sides works,
  and at most (n1-1)+(n2-1) middles can ever be unavailable to a fresh
  request, so m >= n1+n2-1 never blocks;
- the two-crossbar (r=2) reuse rule: prefer a middle already carrying the
  diagonal traffic class, which brings the requirement down to floor(3n/2);
- multirate: requests carry a rate in (0,1], middles are colors of a dynamic
  weighted edge coloring on the crossbar-to-crossbar demand graph, and a
  request blocks only when the coloring wants a middle index beyond m-1.

Terminals are (crossbar, port) pairs, written `<crossbar>:<port>` in traces,
both 0-based.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import dwec
from .events import (Blocked, DuplicateId, SwitchError, UnknownId, fraction,
                     replay)

SPACE = "space"
MULTIRATE = "multirate"


class TerminalBusy(SwitchError):
    status = "terminalbusy"


class CapacityExceeded(SwitchError):
    status = "capacityexceeded"


BLOCKED = Blocked()


@dataclass(frozen=True)
class ClosConfig:
    n1: int
    r1: int
    m: int
    n2: int = None
    r2: int = None
    traffic: str = SPACE

    def __post_init__(self):
        if self.n2 is None:
            object.__setattr__(self, "n2", self.n1)
        if self.r2 is None:
            object.__setattr__(self, "r2", self.r1)
        if min(self.n1, self.r1, self.m, self.n2, self.r2) <= 0:
            raise ValueError("need n1, r1, m, n2, r2 > 0")
        if self.traffic not in (SPACE, MULTIRATE):
            raise ValueError("unknown traffic %r" % (self.traffic,))

    @classmethod
    def symmetric(cls, n, m, r, traffic=SPACE):
        return cls(n1=n, r1=r, m=m, n2=n, r2=r, traffic=traffic)


class ClosState:
    def __init__(self, config, scheme=None):
        self.config = config
        self.requests = {}
        self._auto = 0
        if config.traffic == SPACE:
            self.mid_in = [set() for _ in range(config.m)]
            self.mid_out = [set() for _ in range(config.m)]
            self.busy_in = {}    # input terminal -> rid
            self.busy_out = {}   # output terminal -> rid
        else:
            verts = ([("I", i) for i in range(config.r1)]
                     + [("O", j) for j in range(config.r2)])
            self.coloring = dwec.ColoringState(
                vertices=verts, scheme=scheme or dwec.FOUR_TYPE)
            self.load_in = {}    # input terminal -> total rate
            self.load_out = {}

    # -- shared helpers ---------------------------------------------------

    def _check_terminal(self, term, side):
        cb, port = term
        r = self.config.r1 if side == "in" else self.config.r2
        n = self.config.n1 if side == "in" else self.config.n2
        if not (0 <= cb < r and 0 <= port < n):
            raise ValueError("terminal %s:%s out of range" % (cb, port))

    def _next_rid(self, rid):
        if rid is None:
            self._auto += 1
            rid = "auto%d" % self._auto
        if rid in self.requests:
            raise DuplicateId(repr(rid))
        return rid

    # -- space-division admission ----------------------------------------

    def snb_unavailable(self, i_cb, o_cb):
        """Middles unusable for a fresh request I_i -> O_j."""
        return {mid for mid in range(self.config.m)
                if i_cb in self.mid_in[mid] or o_cb in self.mid_out[mid]}

    def _space_pre(self, in_term, out_term, rid):
        """Validate a space-division request; returns its id."""
        if self.config.traffic != SPACE:
            raise ValueError("not a space-division network")
        self._check_terminal(in_term, "in")
        self._check_terminal(out_term, "out")
        if in_term in self.busy_in:
            raise TerminalBusy("input %s:%s" % in_term)
        if out_term in self.busy_out:
            raise TerminalBusy("output %s:%s" % out_term)
        return self._next_rid(rid)

    def _space_commit(self, rid, in_term, out_term, mid):
        self.mid_in[mid].add(in_term[0])
        self.mid_out[mid].add(out_term[0])
        self.busy_in[in_term] = rid
        self.busy_out[out_term] = rid
        self.requests[rid] = (SPACE, in_term, out_term, mid)
        return mid

    def snb_admit(self, in_term, out_term, rid=None):
        """First-fit strict-sense admission; returns the middle or BLOCKED."""
        rid = self._space_pre(in_term, out_term, rid)
        bad = self.snb_unavailable(in_term[0], out_term[0])
        # with both terminals idle, at most n1-1 middles are tied up by this
        # input crossbar and n2-1 by the output crossbar
        assert len(bad) <= (self.config.n1 - 1) + (self.config.n2 - 1)
        free = [mid for mid in range(self.config.m) if mid not in bad]
        if not free:
            return BLOCKED
        return self._space_commit(rid, in_term, out_term, free[0])

    def class_set(self, i_cb, o_cb):
        """Middles currently carrying some I_i -> O_j request."""
        return {mid for _, (kind, it, ot, mid) in self.requests.items()
                if kind == SPACE and it[0] == i_cb and ot[0] == o_cb}

    def benes_admit(self, in_term, out_term, rid=None):
        """Reuse-first admission for r = 2: prefer a middle already serving
        the diagonal class, then any busy middle, then an idle one."""
        if not (self.config.r1 == 2 and self.config.r2 == 2):
            raise ValueError("the reuse rule needs r1 = r2 = 2")
        rid = self._space_pre(in_term, out_term, rid)
        i, o = in_term[0], out_term[0]
        bad = self.snb_unavailable(i, o)
        free = [mid for mid in range(self.config.m) if mid not in bad]
        if not free:
            return BLOCKED
        diagonal = self.class_set(1 - i, 1 - o)
        busy = {mid for mid in range(self.config.m)
                if self.mid_in[mid] or self.mid_out[mid]}
        for pool in (diagonal, busy):
            picks = [mid for mid in free if mid in pool]
            if picks:
                return self._space_commit(rid, in_term, out_term, picks[0])
        return self._space_commit(rid, in_term, out_term, free[0])

    # -- multirate admission ----------------------------------------------

    def multirate_admit(self, in_term, out_term, rate, rid=None):
        """Color the demand edge; the color index is the middle crossbar.
        Returns the middle or BLOCKED (state untouched when blocked)."""
        if self.config.traffic != MULTIRATE:
            raise ValueError("not a multirate network")
        self._check_terminal(in_term, "in")
        self._check_terminal(out_term, "out")
        rate = Fraction(rate)
        if not (0 < rate <= 1):
            raise ValueError("rate %s out of (0, 1]" % rate)
        if self.load_in.get(in_term, 0) + rate > 1:
            raise CapacityExceeded("input %s:%s" % in_term)
        if self.load_out.get(out_term, 0) + rate > 1:
            raise CapacityExceeded("output %s:%s" % out_term)
        rid = self._next_rid(rid)
        snap = self.coloring.snapshot()
        color = self.coloring.arrive(rid, ("I", in_term[0]),
                                     ("O", out_term[0]), rate)
        if color >= self.config.m:
            self.coloring.restore(snap)
            return BLOCKED
        self.load_in[in_term] = self.load_in.get(in_term, 0) + rate
        self.load_out[out_term] = self.load_out.get(out_term, 0) + rate
        self.requests[rid] = (MULTIRATE, in_term, out_term, color, rate)
        return color

    # -- release and audit -------------------------------------------------

    def release(self, rid):
        try:
            entry = self.requests.pop(rid)
        except KeyError:
            raise UnknownId(repr(rid))
        if entry[0] == SPACE:
            _, in_term, out_term, mid = entry
            del self.busy_in[in_term]
            del self.busy_out[out_term]
            self.mid_in[mid] = {it[0] for _, (k, it, ot, md)
                                in self.requests.items() if md == mid}
            self.mid_out[mid] = {ot[0] for _, (k, it, ot, md)
                                 in self.requests.items() if md == mid}
        else:
            _, in_term, out_term, _, rate = entry
            self.coloring.depart(rid)
            self.load_in[in_term] -= rate
            self.load_out[out_term] -= rate

    def audit(self):
        cfg = self.config
        if cfg.traffic == SPACE:
            mid_in = [set() for _ in range(cfg.m)]
            mid_out = [set() for _ in range(cfg.m)]
            bi, bo = {}, {}
            for rid, (kind, it, ot, mid) in self.requests.items():
                assert kind == SPACE
                assert it[0] not in mid_in[mid], "middle link reused"
                assert ot[0] not in mid_out[mid], "middle link reused"
                mid_in[mid].add(it[0])
                mid_out[mid].add(ot[0])
                assert it not in bi and ot not in bo
                bi[it], bo[ot] = rid, rid
            assert mid_in == self.mid_in and mid_out == self.mid_out
            assert bi == self.busy_in and bo == self.busy_out
            if cfg.r1 == 2 and cfg.r2 == 2:
                m11 = self.class_set(0, 0) | self.class_set(1, 1)
                m12 = self.class_set(0, 1) | self.class_set(1, 0)
                assert len(m11) <= max(cfg.n1, cfg.n2)
                assert len(m12) <= max(cfg.n1, cfg.n2)
        else:
            self.coloring.audit()
            li, lo = {}, {}
            for rid, (kind, it, ot, color, rate) in self.requests.items():
                assert kind == MULTIRATE
                assert color < cfg.m
                assert self.coloring.color_of(rid) == color
                li[it] = li.get(it, 0) + rate
                lo[ot] = lo.get(ot, 0) + rate
            for term, w in li.items():
                assert w <= 1
            for term, w in lo.items():
                assert w <= 1
            assert li == {k: v for k, v in self.load_in.items() if v}
            assert lo == {k: v for k, v in self.load_out.items() if v}


def parse_terminal(text):
    cb, _, port = text.partition(":")
    return (int(cb), int(port))


def run_trace(config, lines, scheme=None, reuse=False):
    """Replay `A <id> <in> <out>` / `D <id>` lines, with an optional
    `<rate>` after `<out>` on a multirate network; yields CSV-row dicts
    event,id,middle,status.  Space-division arrivals are admitted first-fit,
    or with the r = 2 reuse rule when `reuse` is set."""
    state = ClosState(config, scheme=scheme)
    multirate = config.traffic == MULTIRATE
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
