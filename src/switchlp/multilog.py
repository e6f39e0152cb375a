"""Stacked-plane network simulator with window-based plane assignment.

The network is m parallel d-ary inverse banyan planes over N = d^n terminals.
Outputs are partitioned into windows of size d^t by their leading digits, and
every piece of a multicast request that targets one window must ride a single
plane.  Admission checks route conflicts per plane: in link mode two routes
clash when they share a link, in crosstalk mode already sharing a switching
element is fatal.  Routes fanning out from the same input never conflict with
each other; the signal is replicated, not duplicated, so occupancy is owned
at input granularity.  Addresses are the ints their digits denote; output y
lies in window y // d^t.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
import random

from . import dary
from .banyan import route, shares_se, shares_link
from .bounds import LINK, CROSSTALK
from .events import (BLOCKED, Blocked, DuplicateId, SwitchError, UnknownId,
                     check, replay)

FIRST_FIT = "first"
RANDOM = "random"
_NONE = {}   # the holders of a key no input holds


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
        if not all(isinstance(v, int)
                   for v in (self.d, self.n, self.m, self.t, self.f)):
            raise ValueError("need integer d, n, m, t and f")
        if not (self.d >= 2 and self.n >= 1 and self.m >= 1):
            raise ValueError("need d >= 2, n >= 1 and m >= 1")
        if not 0 <= self.t <= self.n:
            raise ValueError("need 0 <= t <= n")
        if not 1 <= self.f <= self.d ** self.n:
            raise ValueError("need 1 <= f <= d^n")
        if self.mode not in (LINK, CROSSTALK):
            raise ValueError("unknown mode %r" % (self.mode,))
        if self.plane_policy not in (FIRST_FIT, RANDOM):
            raise ValueError("unknown plane policy %r" % (self.plane_policy,))


# Nearly every route lookup repeats one of the last few: `admit` looks up
# the routes `blocking_planes` just built, and on the multilog-churn
# benchmark all but a handful of hits come within 8 lookups of the last.
# Routes at n <= 6 are cheap to rebuild when reuse is wider.  A cache that
# never fills keeps each route it builds on the collector's heap, so steady
# churn would trigger collections and grow memory without end; 256 bounds
# both and keeps the re-lookups.
@lru_cache(maxsize=256)
def _route(d, n, x, y, mode):
    return route(d, n, x, y, mode)


class ConnState:
    """Mutable occupancy of one simulated network."""

    def __init__(self, config):
        self.config = config
        # key -> {plane: owner input}; a key is a link id (link mode) or
        # an element id (crosstalk mode), indexed key-first.  The inner
        # dicts of occ and refs hold plain ints only, so the cyclic garbage
        # collector does not track them.
        self.occ = {}
        self.refs = {}               # (plane, input) -> {key: refcount}
        self.requests = {}       # id -> (input, {window: (plane, [routes])})
        self.output_owner = {}   # output -> request id
        self.input_active = {}   # input -> live output count
        self.pins = {}           # (input, window) -> [plane, refcount]
        self.rng = random.Random(config.seed)
        self._auto = 0

    # -- occupancy helpers ------------------------------------------------

    def _blocked(self, x, routes):
        """Planes on which an input other than x holds a key of `routes`."""
        occ, blocked = self.occ, set()
        for rt in routes:
            for key in rt.ids:
                holders = occ.get(key)
                if holders:
                    for plane, owner in holders.items():
                        if owner != x:
                            blocked.add(plane)
        return blocked

    def _commit(self, rid, plane, x, window, routes):
        """Hold `routes` on `plane` for input x: one reference to each of
        their keys, the window's pin and their outputs."""
        occ = self.occ
        refs = self.refs.setdefault((plane, x), {})
        for rt in routes:
            for key in rt.ids:
                count = refs.get(key, 0)
                if not count:
                    holders = occ.get(key)
                    if holders is None:
                        occ[key] = {plane: x}
                    elif holders.setdefault(plane, x) != x:
                        raise AssertionError("key %r shared across inputs"
                                             % key)
                refs[key] = count + 1
        pin = self.pins.setdefault((x, window), [plane, 0])
        check(pin[0] == plane, "window split across planes")
        pin[1] += len(routes)
        for rt in routes:
            self.output_owner[rt.output] = rid
        self.input_active[x] = self.input_active.get(x, 0) + len(routes)

    def _pick(self, x, window, routes):
        """The plane for the window subrequest (x, routes), or None.  RANDOM
        draws as `choice` of the free planes did, even for a pinned window."""
        cfg, busy = self.config, self._blocked(x, routes)
        pin = self.pins.get((x, window))
        free = int(pin[0] not in busy) if pin else cfg.m - len(busy)
        if not free:
            return None
        i = self.rng.randrange(free) if cfg.plane_policy == RANDOM else 0
        if pin:
            return pin[0]
        for plane in sorted(busy):   # on to the i-th free plane
            i += plane <= i
        return i

    # -- operations -------------------------------------------------------

    def admit(self, x, outputs, rid=None):
        """Admit the request (x, outputs); returns {window: plane or BLOCKED}.

        Each window-subrequest commits atomically; a blocked window leaves
        the other windows' commitments in place.
        """
        cfg = self.config
        outputs = set(outputs)
        if not outputs:
            raise ValueError("empty output set")
        x, ints = self._check_addresses(x, outputs)
        if rid is None:
            self._auto += 1
            rid = "auto%d" % self._auto
        if rid in self.requests:
            raise DuplicateId(repr(rid))
        if len(outputs) > cfg.f:
            raise FanoutExceeded("request fans out to %d > f=%d"
                                 % (len(outputs), cfg.f))
        if self.input_active.get(x, 0) + len(outputs) > cfg.f:
            raise FanoutExceeded("input %s would exceed fanout %d"
                                 % (x, cfg.f))
        for y in ints:
            if y in self.output_owner:
                raise OutputBusy(str(y))

        by_window = {}
        size = cfg.d ** cfg.t
        for y in sorted(ints):
            by_window.setdefault(y // size, []).append(y)

        result = {}
        admitted = {}
        for w in sorted(by_window):
            routes = [_route(cfg.d, cfg.n, x, y, cfg.mode)
                      for y in by_window[w]]
            plane = self._pick(x, w, routes)
            if plane is None:
                result[w] = BLOCKED
                continue
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
        occ = self.occ
        for w, (plane, routes) in admitted.items():
            refs = self.refs[plane, x]
            for rt in routes:
                for key in rt.ids:
                    count = refs[key]
                    if count > 1:
                        refs[key] = count - 1
                        continue
                    del refs[key]
                    holders = occ[key]
                    if holders.pop(plane) != x:
                        raise AssertionError("key %r owned elsewhere" % key)
                    if not holders:
                        del occ[key]
                del self.output_owner[rt.output]
            if not refs:
                del self.refs[plane, x]
            pin = self.pins[x, w]
            pin[1] -= len(routes)
            if pin[1] == 0:
                del self.pins[x, w]
        self.input_active[x] -= sum(len(r) for _, r in admitted.values())
        if self.input_active[x] == 0:
            del self.input_active[x]

    def _check_addresses(self, x, outputs):
        """x and the outputs as plain ints; raise ValueError unless each is
        an address."""
        d, n = self.config.d, self.config.n
        return (dary.check_address(d, n, x),
                [dary.check_address(d, n, y) for y in outputs])

    def _window_routes(self, x, outputs):
        """x and the routes of the single-window subrequest (x, outputs)."""
        cfg = self.config
        if not outputs:
            raise ValueError("empty output set")
        x, outputs = self._check_addresses(x, outputs)
        d, n = cfg.d, cfg.n
        size = d ** cfg.t
        if min(outputs) // size != max(outputs) // size:
            raise ValueError("subrequest spans windows %s"
                             % sorted({y // size for y in outputs}))
        return x, [_route(d, n, x, y, cfg.mode) for y in outputs]

    def blocking_planes(self, x, outputs):
        """Planes on which some existing foreign route conflicts with some
        branch of the single-window subrequest (x, outputs)."""
        return self._blocked(*self._window_routes(x, set(outputs)))

    def blocking_branches(self, x, outputs):
        """{plane: (u, v)}, ascending by plane, for each plane that blocks
        the single-window subrequest (x, outputs): the first live branch
        (u, v), in `requests` order, from an input u != x that holds a key
        of the subrequest on that plane.  Every output must be free."""
        outputs = set(outputs)
        x, routes = self._window_routes(x, outputs)
        owned = [y for y in outputs if y in self.output_owner]
        if owned:
            raise ValueError("request output %s already owned" % min(owned))
        # with the outputs free, a foreign branch can hold a key of the
        # subrequest only on an internal link or an element (input and
        # output links belong to their terminals), just where the sharing
        # predicates see a conflict.  One walk finds the keys each foreign
        # input u holds per plane.  A key has one owner per plane, so a
        # route of u there conflicts iff it holds one of them; another of
        # u's requests may hold them instead.
        occ, held = self.occ, {}
        for rt in routes:
            for key in rt.ids:
                holders = occ.get(key)
                if holders:
                    for plane, owner in holders.items():
                        if owner != x:
                            held.setdefault((plane, owner), set()).add(key)
        if not held:
            return {}
        planes = {plane for plane, _ in held}
        owners = {u for _, u in held}
        found = {}
        for u, admitted in self.requests.values():
            if u not in owners:
                continue
            for plane, rts in admitted.values():
                keys = held.get((plane, u))
                if keys and plane not in found:
                    for rt in rts:
                        if not keys.isdisjoint(rt.ids):
                            found[plane] = (u, rt.output)
                            break
            if len(found) == len(planes):
                break
        return dict(sorted(found.items()))

    def audit(self):
        """Check the derived maps in place, then route pairs by predicate."""
        cfg = self.config
        wsize = cfg.d ** cfg.t
        held, owners, active, pins = {}, {}, {}, {}  # held: (plane, x) -> keys
        by_plane = [[] for _ in range(cfg.m)]
        # per-route checks are inline: a call each would slow audits
        for rid, (x, admitted) in self.requests.items():
            for w, (plane, routes) in admitted.items():
                pin = pins.setdefault((x, w), [plane, 0])
                check(pin[0] == plane, "window split across planes")
                pin[1] += len(routes)
                acc = held.setdefault((plane, x), [])
                for rt in routes:
                    if rt.input != x or rt.output // wsize != w:
                        check(rt.input == x, "route %r under input %s", rt, x)
                        check(False, "route %r under window %d", rt, w)
                    owners[rt.output] = rid
                    acc += rt.ids
                active[x] = active.get(x, 0) + len(routes)
                by_plane[plane] += routes
        check(len(owners) == sum(active.values()), "output double-owned")
        occ, entries = self.occ, 0
        for (plane, x), acc in held.items():
            counts = Counter(acc)
            for key in counts:
                owner = occ.get(key, _NONE).get(plane)
                if owner != x:
                    check(key not in held.get((plane, owner), ()),
                          "key %r shared across inputs on plane %d",
                          key, plane)
                    raise AssertionError("occ differs from the registry")
            # Counter == dict compares as dicts: a stored zero count differs
            check(counts == self.refs.get((plane, x)),
                  "refs differs from the registry")
            entries += len(counts)
        check(len(held) == len(self.refs), "refs differs from the registry")
        # occ holds each counted (key, plane); it must hold nothing else
        check(all(occ.values()) and sum(map(len, occ.values())) == entries,
              "occ differs from the registry")
        for name, rebuilt in (("pins", pins), ("output_owner", owners),
                              ("input_active", active)):
            check(rebuilt == getattr(self, name), "%s differs from the "
                  "registry", name)
        for x, count in active.items():
            check(count <= cfg.f, "input %s over fanout", x)

        pred = shares_link if cfg.mode == LINK else shares_se
        d, n = cfg.d, cfg.n
        for plane, routes in enumerate(by_plane):
            for r1, r2 in combinations(routes, 2):
                if r1.input != r2.input and pred(
                        d, n, r1.input, r1.output, r2.input, r2.output):
                    raise AssertionError("routes %r and %r conflict on plane "
                                         "%d" % (r1, r2, plane))


def run_trace(state, lines):
    """Replay a trace into `state`; yields dicts event,id,window,plane,status.

    Arrivals: `A <id> <input> <out1> [<out2> ...]`; departures: `D <id>`.
    """
    d, n = state.config.d, state.config.n

    def operands(tokens):
        x, *outs = [dary.parse_address(p, d, n) for p in tokens]
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
            blocked = got[w] is BLOCKED
            yield {"event": "A", "id": rid, "window": w,
                   "plane": "" if blocked else got[w],
                   "status": "blocked" if blocked else "ok"}
