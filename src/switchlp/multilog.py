"""Stacked-plane network simulator with window-based plane assignment.

The network is m parallel d-ary inverse banyan planes over N = d^n terminals.
Outputs are partitioned into windows of size d^t by their leading digits, and
every piece of a multicast request that targets one window must ride a single
plane.  Admission checks route conflicts per plane: in link mode two routes
clash when they share a link, in crosstalk mode already sharing a switching
element is fatal.  Routes fanning out from the same input never conflict with
each other; the signal is replicated, not duplicated, so occupancy is owned
at input granularity.
"""

from dataclasses import dataclass, field
from functools import lru_cache
import random

from .dary import DaryString, window_index
from .banyan import route, shares_se, shares_link
from .bounds import LINK, CROSSTALK
from .events import Blocked, DuplicateId, SwitchError, UnknownId, replay

FIRST_FIT = "first"
BEST_FIT = "best"
RANDOM = "random"


class FanoutExceeded(SwitchError):
    status = "fanout_exceeded"


class OutputBusy(SwitchError):
    status = "output_busy"


@dataclass(frozen=True)
class MultilogConfig:
    d: int
    n: int
    m: int
    t: int = 0
    f: int = 1
    mode: str = LINK
    plane_policy: str = FIRST_FIT
    seed: int = 0

    def __post_init__(self):
        if not (self.d >= 2 and self.n >= 1 and self.m >= 1):
            raise ValueError("need d >= 2, n >= 1 and m >= 1")
        if not 0 <= self.t <= self.n:
            raise ValueError("need 0 <= t <= n")
        if not 1 <= self.f <= self.d ** self.n:
            raise ValueError("need 1 <= f <= d^n")
        if self.mode not in (LINK, CROSSTALK):
            raise ValueError("unknown mode %r" % (self.mode,))
        if self.plane_policy not in (FIRST_FIT, BEST_FIT, RANDOM):
            raise ValueError("unknown plane policy %r" % (self.plane_policy,))


@lru_cache(maxsize=1 << 16)
def _route(x, y):
    return route(x, y)


def _keys(cfg, rt):
    if cfg.mode == LINK:
        return rt.links
    return [se for se in rt.ses]


class ConnState:
    """Mutable occupancy of one simulated network."""

    def __init__(self, config):
        self.config = config
        # per plane: key -> (owner input, refcount); a key is a link in link
        # mode and a switching element in crosstalk mode
        self.occ = [dict() for _ in range(config.m)]
        self.requests = {}       # id -> (input, {window: (plane, [routes])})
        self.output_owner = {}   # output -> request id
        self.input_active = {}   # input -> live output count
        self.pins = {}           # (input, window) -> [plane, refcount]
        self.rng = random.Random(config.seed)
        self._auto = 0

    # -- occupancy helpers ------------------------------------------------

    def _conflicts(self, plane, x, routes):
        occ = self.occ[plane]
        for rt in routes:
            for key in _keys(self.config, rt):
                holder = occ.get(key)
                if holder is not None and holder[0] != x:
                    return True
        return False

    def _commit(self, rid, plane, x, window, routes):
        occ = self.occ[plane]
        for rt in routes:
            for key in _keys(self.config, rt):
                holder = occ.get(key)
                if holder is None:
                    occ[key] = (x, 1)
                else:
                    assert holder[0] == x
                    occ[key] = (x, holder[1] + 1)
        pin = self.pins.setdefault((x, window), [plane, 0])
        assert pin[0] == plane
        pin[1] += len(routes)
        for rt in routes:
            self.output_owner[rt.output] = rid
        self.input_active[x] = self.input_active.get(x, 0) + len(routes)

    def _feasible_planes(self, x, window, routes):
        pin = self.pins.get((x, window))
        candidates = [pin[0]] if pin else range(self.config.m)
        return [p for p in candidates if not self._conflicts(p, x, routes)]

    def _choose(self, feasible):
        policy = self.config.plane_policy
        if policy == FIRST_FIT:
            return feasible[0]
        if policy == BEST_FIT:
            return max(feasible, key=lambda p: (len(self.occ[p]), -p))
        return self.rng.choice(feasible)

    # -- operations -------------------------------------------------------

    def admit(self, x, outputs, rid=None):
        """Admit the request (x, outputs); returns {window: plane or Blocked}.

        Each window-subrequest commits atomically; a blocked window leaves
        the other windows' commitments in place.
        """
        cfg = self.config
        outputs = set(outputs)
        if not outputs:
            raise ValueError("empty output set")
        if rid is None:
            self._auto += 1
            rid = "auto%d" % self._auto
        if rid in self.requests:
            raise DuplicateId(repr(rid))
        if len(outputs) > cfg.f:
            raise FanoutExceeded("request fans out to %d > f=%d"
                                 % (len(outputs), cfg.f))
        if self.input_active.get(x, 0) + len(outputs) > cfg.f:
            raise FanoutExceeded("input %s would exceed fanout %d" % (x, cfg.f))
        for y in outputs:
            if y in self.output_owner:
                raise OutputBusy(str(y))

        by_window = {}
        for y in sorted(outputs):
            by_window.setdefault(window_index(y, cfg.t), []).append(y)

        result = {}
        admitted = {}
        for w in sorted(by_window):
            routes = [_route(x, y) for y in by_window[w]]
            feasible = self._feasible_planes(x, w, routes)
            if not feasible:
                result[w] = Blocked(w)
                continue
            plane = self._choose(feasible)
            self._commit(rid, plane, x, w, routes)
            admitted[w] = (plane, routes)
            result[w] = plane
        if admitted:
            self.requests[rid] = (x, admitted)
        return result

    def release(self, rid):
        try:
            x, admitted = self.requests.pop(rid)
        except KeyError:
            raise UnknownId(repr(rid))
        for w, (plane, routes) in admitted.items():
            occ = self.occ[plane]
            for rt in routes:
                for key in _keys(self.config, rt):
                    owner, count = occ[key]
                    assert owner == x
                    if count == 1:
                        del occ[key]
                    else:
                        occ[key] = (owner, count - 1)
                del self.output_owner[rt.output]
            pin = self.pins[x, w]
            pin[1] -= len(routes)
            if pin[1] == 0:
                del self.pins[x, w]
        self.input_active[x] -= sum(len(r) for _, r in admitted.values())
        if self.input_active[x] == 0:
            del self.input_active[x]

    def blocking_planes(self, x, outputs):
        """Planes on which some existing foreign route conflicts with some
        branch of the single-window subrequest (x, outputs)."""
        outputs = set(outputs)
        windows = {window_index(y, self.config.t) for y in outputs}
        if len(windows) != 1:
            raise ValueError("subrequest spans windows %s" % sorted(windows))
        routes = [_route(x, y) for y in outputs]
        return {p for p in range(self.config.m)
                if self._conflicts(p, x, routes)}

    def is_empty(self):
        return not self.requests and not any(self.occ)

    def audit(self):
        """Rebuild all derived state from the registry and compare."""
        cfg = self.config
        occ = [dict() for _ in range(cfg.m)]
        owners = {}
        active = {}
        pins = {}
        for rid, (x, admitted) in self.requests.items():
            for w, (plane, routes) in admitted.items():
                pin = pins.setdefault((x, w), [plane, 0])
                assert pin[0] == plane, "window split across planes"
                pin[1] += len(routes)
                for rt in routes:
                    assert rt.input == x
                    assert window_index(rt.output, cfg.t) == w
                    assert rt.output not in owners, "output double-owned"
                    owners[rt.output] = rid
                    active[x] = active.get(x, 0) + 1
                    for key in _keys(cfg, rt):
                        holder = occ[plane].get(key)
                        if holder is None:
                            occ[plane][key] = (x, 1)
                        else:
                            assert holder[0] == x, \
                                "key %r shared across inputs" % (key,)
                            occ[plane][key] = (x, holder[1] + 1)
        assert occ == self.occ
        assert owners == self.output_owner
        assert active == self.input_active
        assert pins == self.pins
        for x, count in active.items():
            assert count <= cfg.f

        # cross-check occupancy conflicts against the sharing predicates
        for plane in range(cfg.m):
            routes = [rt for rid, (x, adm) in self.requests.items()
                      for w, (p, rts) in adm.items() if p == plane
                      for rt in rts]
            pred = shares_link if cfg.mode == LINK else shares_se
            for i, r1 in enumerate(routes):
                for r2 in routes[i + 1:]:
                    if r1.input != r2.input:
                        assert not pred(r1.input, r1.output,
                                        r2.input, r2.output)


def parse_address(text, d, n):
    addr = DaryString.parse(text, d)
    if len(addr) != n:
        raise ValueError("address %r has %d digits, want %d"
                         % (text, len(addr), n))
    return addr


def run_trace(config, lines):
    """Replay a text trace; yields CSV-row dicts event,id,window,plane,status.

    Arrivals: `A <id> <input> <out1> [<out2> ...]`; departures: `D <id>`.
    """
    state = ConnState(config)

    def operands(tokens):
        x, *outs = [parse_address(p, config.d, config.n) for p in tokens]
        return x, outs

    def admit(rid, x, outs):
        return state.admit(x, outs, rid=rid)

    for event, rid, got in replay(lines, (2, None), operands, admit,
                                  state.release):
        if event == "D" or isinstance(got, SwitchError):
            status = got.status if got is not None else "ok"
            yield {"event": event, "id": rid, "window": "", "plane": "",
                   "status": status}
            continue
        for w in sorted(got):
            blocked = isinstance(got[w], Blocked)
            yield {"event": "A", "id": rid, "window": w,
                   "plane": "" if blocked else got[w],
                   "status": "blocked" if blocked else "ok"}
