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

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import chain, combinations
import random

from . import dary
from .banyan import route, shares_se, shares_link
from .bounds import LINK, CROSSTALK, theta_of
from .events import (BLOCKED, Blocked, DuplicateId, SwitchError, UnknownId,
                     check, check_range, check_sizes, replay)

_SETS = dary.AddressSets  # the class itself, also where a tracer rebinds it
FIRST_FIT = "first"
RANDOM = "random"


class FanoutExceeded(SwitchError):
    status = "fanout_exceeded"


class OutputBusy(SwitchError):
    status = "output_busy"


class MultilogConfig(namedtuple(
        "MultilogConfig", ["d", "n", "m", "t", "f", "mode", "plane_policy",
                           "seed"], defaults=[0, 1, LINK, FIRST_FIT, 0])):
    """A multilog network's shape: frozen, compared and hashed by value,
    and validated on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_sizes(self.d, self.n, self.t, self.f)
        check_range("m", self.m, 1)
        theta_of(self.mode)
        if self.plane_policy not in (FIRST_FIT, RANDOM):
            raise ValueError("unknown plane policy %r" % (self.plane_policy,))
        return self


# Nearly every route lookup repeats one of the last few: `admit` looks up
# the routes `blocking_planes` just built, and on the multilog-churn
# benchmark all but a handful of hits come within 8 lookups of the last.
# Routes at n <= 6 are cheap to rebuild when reuse is wider.  A cache that
# never fills keeps each route it builds on the collector's heap, so steady
# churn would trigger collections and grow memory without end; 256 bounds
# both and keeps the re-lookups.  It is keyed per (x, y), not per window: an
# entry for a window's outputs would grow with f.
@lru_cache(maxsize=256)
def _route(d, n, x, y, mode):
    return route(d, n, x, y, mode)


def _planes(mask):
    """The planes whose bits `mask` sets, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ConnState:
    """Mutable occupancy of one simulated network."""

    def __init__(self, config):
        self.config = config
        # key -> bitmask of the planes on which some input holds it; a key
        # is a link id (link mode) or an element id (crosstalk mode).  Which
        # input holds it there is read from refs alone: a key has at most
        # one holder per plane.  occ and the inner dicts of refs hold plain
        # ints only, so the cyclic garbage collector does not track them.
        self.occ = {}
        self.refs = {}       # (plane, input) -> {key: subrequests holding it}
        self.requests = {}   # id -> (input, {window: (plane, outputs, keys)})
        self.output_owner = {}   # output -> request id
        self.input_active = {}   # input -> live output count
        self.pins = {}           # (input, window) -> [plane, output count]
        self.rng = random.Random(config.seed)
        self._auto = 0

    # -- occupancy helpers ------------------------------------------------

    def _keys(self, x, outputs):
        """The distinct keys of the routes from x to `outputs` on one plane:
        the trunk they share once, then each branch."""
        cfg = self.config
        routes = [_route(cfg.d, cfg.n, x, y, cfg.mode) for y in outputs]
        if len(routes) == 1:   # distinct already: share the cached tuple
            return routes[0]
        return tuple(dict.fromkeys(chain.from_iterable(routes)))

    def _blocked(self, x, keys):
        """Bitmask of the planes on which an input other than x holds one of
        `keys`."""
        occ, mask = self.occ, 0
        for held in map(occ.get, keys):
            if held:
                mask |= held
        if mask and x in self.input_active:
            # a plane where x holds every one of `keys` that is held there
            # blocks nothing: a key has one holder per plane
            for plane in _planes(mask):
                own, bit = self.refs.get((plane, x)), 1 << plane
                if own is not None and all(
                        key in own for key in keys if occ.get(key, 0) & bit):
                    mask ^= bit
        return mask

    def _commit(self, rid, x, window, sub):
        """Hold the window subrequest `sub`, (plane, outputs, keys), for
        input x: one reference to each key, the window's pin and the
        outputs.  No keys (a link route at n = 1) make no refs table."""
        plane, outputs, keys = sub
        occ, bit = self.occ, 1 << plane
        refs = self.refs.setdefault((plane, x), {}) if keys else {}
        for key in keys:
            count = refs.get(key, 0)
            if not count:
                # x does not hold the key here, so a set bit is another
                # input's.  A key held on one plane shares the int bit.
                mask = occ.get(key)
                if mask is None:
                    occ[key] = bit
                elif mask & bit:
                    raise AssertionError("key %r shared across inputs" % key)
                else:
                    occ[key] = mask | bit
            refs[key] = count + 1
        pin = self.pins.setdefault((x, window), [plane, 0])
        check(pin[0] == plane, "window split across planes")
        pin[1] += len(outputs)
        for y in outputs:
            self.output_owner[y] = rid
        self.input_active[x] = self.input_active.get(x, 0) + len(outputs)

    def _pick(self, x, window, keys):
        """The plane for the window subrequest of x that holds `keys`, or
        None.  RANDOM draws as `choice` of the free planes did, even for a
        pinned window."""
        cfg, busy = self.config, self._blocked(x, keys)
        pin = self.pins.get((x, window))
        free = 1 - (busy >> pin[0] & 1) if pin else cfg.m - busy.bit_count()
        if not free:
            return None
        i = self.rng.randrange(free) if cfg.plane_policy == RANDOM else 0
        if pin:
            return pin[0]
        for plane in _planes(busy):   # on to the i-th free plane
            if plane > i:
                break
            i += 1
        return i

    # -- operations -------------------------------------------------------

    def admit(self, x, outputs, rid=None):
        """Admit the request (x, outputs); returns {window: plane or BLOCKED}.

        Each window-subrequest commits atomically; a blocked window leaves
        the other windows' commitments in place.
        """
        cfg = self.config
        x, outputs, ints = dary.check_request(cfg.d, cfg.n, x, outputs)
        if rid is None:
            self._auto += 1
            rid = "auto%d" % self._auto
        if rid in self.requests:
            raise DuplicateId(repr(rid))
        if self.input_active.get(x, 0) + len(outputs) > cfg.f:
            raise FanoutExceeded("input %s would exceed fanout %d"
                                 % (x, cfg.f))
        for y in ints:
            if y in self.output_owner:
                raise OutputBusy(str(y))

        by_window = {}
        size = cfg.d ** cfg.t
        for y in ints:
            by_window.setdefault(y // size, []).append(y)

        result = {}
        admitted = {}
        for w in sorted(by_window):
            keys = self._keys(x, by_window[w])
            plane = self._pick(x, w, keys)
            if plane is None:
                result[w] = BLOCKED
                continue
            admitted[w] = sub = (plane, by_window[w], keys)
            self._commit(rid, x, w, sub)
            result[w] = plane
        if admitted:
            self.requests[rid] = (x, admitted)
        return result

    def release(self, rid):
        try:
            x, admitted = self.requests.pop(rid)
        except KeyError:
            raise UnknownId(repr(rid))
        occ, gone = self.occ, 0
        for w, (plane, outputs, keys) in admitted.items():
            refs, bit = self.refs.get((plane, x), {}), 1 << plane
            for key in keys:
                count = refs[key]
                if count > 1:
                    refs[key] = count - 1
                    continue
                del refs[key]
                mask = occ.get(key, 0)
                if mask == bit:
                    del occ[key]
                elif mask & bit:
                    occ[key] = mask ^ bit
                else:
                    raise AssertionError("key %r not held on plane %d"
                                         % (key, plane))
            if not refs:
                self.refs.pop((plane, x), None)
            for y in outputs:
                del self.output_owner[y]
            gone += len(outputs)
            pin = self.pins[x, w]
            pin[1] -= len(outputs)
            if pin[1] == 0:
                del self.pins[x, w]
        self.input_active[x] -= gone
        if self.input_active[x] == 0:
            del self.input_active[x]

    def blocking_planes(self, x, outputs):
        """Planes on which some existing foreign route conflicts with some
        branch of the single-window subrequest (x, outputs), and the plane
        of each output in it that an input other than x owns; the greedy
        sweep's scores count both."""
        cfg = self.config
        x, _, ys = dary.check_request(cfg.d, cfg.n, x, outputs, cfg.d ** cfg.t)
        mask = self._blocked(x, self._keys(x, ys))
        for y in self.output_owner.keys() & ys:   # u != x owns y: u's plane
            u = self.requests[self.output_owner[y]][0]
            mask |= (u != x) << self.pins[u, y // cfg.d ** cfg.t][0]
        return set(_planes(mask))

    def blocking_branches(self, request):
        """{plane: (u, v)}, ascending by plane, for each plane that blocks
        the single-window subrequest (a, B) that `request`, a checked
        `dary.AddressSets` for this network's d, n and t, holds: the first
        live branch (u, v), in `requests` order and then by ascending v,
        from an input u != a whose route on that plane shares a key with
        it.  B must be free."""
        cfg = self.config
        if not isinstance(request, _SETS):
            dary.not_sets(request)
        if (request.d, request.n, request.t) != (cfg.d, cfg.n, cfg.t):
            raise ValueError("request was built for another network shape")
        x, outputs = request.a, request.B
        owned = self.output_owner.keys() & outputs
        if owned:
            raise ValueError("request output %s already owned" % min(owned))
        keys = self._keys(x, outputs)
        # a key has one holder per plane, so on a blocking plane a
        # subrequest of an input u != x conflicts iff it holds one of `keys`
        mask = self._blocked(x, keys)
        if not mask:
            return {}
        keys = set(keys)
        found = {}
        for u, admitted in self.requests.values():
            if u == x:
                continue
            for plane, outs, held in admitted.values():
                if (mask >> plane & 1 and plane not in found
                        and not keys.isdisjoint(held)):
                    # held opens with outs[0]'s route; later ones are built
                    # uncached, so a probe evicts no route `admit` reuses
                    v = outs[0]
                    if keys.isdisjoint(held[:cfg.n - (cfg.mode == LINK)]):
                        v = next(v for v in outs[1:] if not keys.isdisjoint(
                            route(cfg.d, cfg.n, u, v, cfg.mode)))
                    found[plane] = u, v
            if len(found) == mask.bit_count():
                break
        return dict(sorted(found.items()))

    def audit(self):
        """Check the derived maps in place, then route pairs by predicate."""
        cfg = self.config
        wsize = cfg.d ** cfg.t
        held, owners, active, pins = {}, {}, {}, {}  # held: (plane, x) -> keys
        by_plane = [[] for _ in range(cfg.m)]        # (input, output) pairs
        for rid, (x, admitted) in self.requests.items():
            for w, (plane, outputs, keys) in admitted.items():
                pin = pins.setdefault((x, w), [plane, 0])
                check(pin[0] == plane, "window split across planes")
                pin[1] += len(outputs)
                if keys:   # a link route at n = 1 holds none
                    held.setdefault((plane, x), []).extend(keys)
                for y in outputs:
                    if y // wsize != w:
                        raise AssertionError("output %d under window %d"
                                             % (y, w))
                    owners[y] = rid
                    by_plane[plane].append((x, y))
                active[x] = active.get(x, 0) + len(outputs)
        check(len(owners) == sum(active.values()), "output double-owned")
        # before any compare with the live maps, the first key in held's
        # order that an earlier input holds on its plane, as the oracle
        # names it; one plane's keys are kept at a time
        tables, shared = {}, []
        for i, ((plane, _), acc) in enumerate(held.items()):
            tables.setdefault(plane, []).append((i, acc))
        for plane, accs in tables.items():
            seen = set()
            for i, acc in accs:
                if not seen.isdisjoint(acc):
                    key = next(key for key in acc if key in seen)
                    shared.append((i, key, plane))
                    break
                seen.update(acc)
        if shared:
            raise AssertionError("key %r shared across inputs on plane %d"
                                 % min(shared)[1:])
        occ, entries = self.occ, 0
        for (plane, x), acc in held.items():
            counts, bit = Counter(acc), 1 << plane
            for key in counts:
                if not occ.get(key, 0) & bit:
                    raise AssertionError("occ differs from the registry")
            # Counter == dict compares as dicts: a stored zero count differs
            check(counts == self.refs.get((plane, x)),
                  "refs differs from the registry")
            entries += len(counts)
        check(len(held) == len(self.refs), "refs differs from the registry")
        # occ sets a bit for each counted (key, plane) and no other bit
        check(all(occ.values()) and entries == sum(
            map(int.bit_count, occ.values())), "occ differs from the registry")
        for name, rebuilt in (("pins", pins), ("output_owner", owners),
                              ("input_active", active)):
            check(rebuilt == getattr(self, name), "%s differs from the "
                  "registry", name)
        for x, count in active.items():
            check(count <= cfg.f, "input %s over fanout", x)

        pred = shares_link if cfg.mode == LINK else shares_se
        d, n = cfg.d, cfg.n
        for plane, pairs in enumerate(by_plane):
            for (a, b), (u, v) in combinations(pairs, 2):
                if a != u and pred(d, n, a, b, u, v):
                    raise AssertionError(
                        "routes %d -> %d and %d -> %d conflict on plane %d"
                        % (a, b, u, v, plane))


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
