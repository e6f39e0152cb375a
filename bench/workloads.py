"""The benchmark's four workloads.

Each workload is built from a seed (set-up: input generation, bound-table
lookups, network construction and, for the two churn workloads, the fill
to steady load) and then runs one verified work unit per
`unit()` call.  A unit whose check fails raises `CheckFailed`; the harness
counts it against the units attempted and carries on.  Every simulated
outcome (planes, middles, colors, blocked windows, objectives) is fed into
`digest`, so a change that only alters speed can show identical results for
a fixed seed.

Workload           | unit                              | layers it isolates
certify-grid       | one dual-certificate point        | dary, lpcert, bounds
multilog-churn     | one departure plus one arrival    | banyan, multilog
duality-probe      | one churn step plus its probes    | adversary, lpcert
clos-churn         | one departure plus one arrival    | clos, dwec

NOTES.md in this directory gives the reasons and the layer map.
"""

from fractions import Fraction
import hashlib
import itertools
import random

from switchlp import adversary, bounds, clos, dary, dwec, lpcert, multilog


class CheckFailed(Exception):
    """A unit's output contradicts what the library guarantees."""


def _check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


class Workload:
    # units per second of the seed code on the reference machine (NOTES.md);
    # a run's unit count is fixed from it, so both sides of a comparison do
    # the same work.  Every workload sets its own.
    nominal_rate = None
    # constructor arguments for the smoke test's tiny size
    TINY = {}

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.digest = hashlib.sha256()
        # checked library operations run during set-up, and how many failed
        self.setup_ops = 0
        self.setup_failed = 0

    def units_for(self, seconds):
        """Unit count that takes about `seconds` at the nominal rate."""
        return max(1, round(seconds * self.nominal_rate))

    def note(self, *outcome):
        self.digest.update(repr(outcome).encode())

    def stats(self):
        """Simulated statistics that a speed-only change must not move."""
        return {}


# -- certify-grid -------------------------------------------------------------


STRATUM = 8


def certify_cells(dn):
    """(d, n, t, f, mode, k) cells of the `switchlp certify` grid."""
    cells = []
    for d, n in dn:
        for t in range(n):
            for f in sorted({1, 2, min(4, d ** n), d ** n}):
                for mode in (lpcert.LINK, lpcert.CROSSTALK):
                    for k in range(1, min(f, d ** t) + 1):
                        cells.append((d, n, t, f, mode, k))
    return cells


class CertifyGrid(Workload):
    """Criterion 4 / `switchlp certify`: check every family certificate of
    every canonical instance.  Cells come in rounds of nearly equal mix (see
    _rounds) and repeat; the instance build is charged to the first point
    of its cell."""

    nominal_rate = 450
    DN = [(d, n) for d in (2, 3) for n in (3, 4, 5)] + [(2, 6)]
    TINY = {"dn": [(2, 3)]}

    def __init__(self, seed, dn=None, corrupt_every=0):
        super().__init__(seed)
        self.rounds = _rounds(certify_cells(dn or self.DN), self.rng)
        self.cells = [cell for rnd in self.rounds for cell in rnd]
        self.corrupt_every = corrupt_every
        self.points = self._points()
        self.done = 0

    def units_for(self, seconds):
        """The points of whole rounds, at least `seconds` at the nominal
        rate.  A run's cells then do not depend on the seed; only their
        order does, so the few dearest builds that make up the p99 are the
        same on every run."""
        target = super().units_for(seconds)
        units = 0
        for rnd in itertools.cycle(self.rounds):
            units += sum((n - t) * (t + 1) for _, n, t, _, _, _ in rnd)
            if units >= target:
                return units

    def _points(self):
        while True:
            for d, n, t, f, mode, k in self.cells:
                inst = None
                for p in range(n - t):
                    for q in range(n - t, n + 1):
                        if inst is None:
                            inst = lpcert.canonical_instance(d, n, t, f, k,
                                                             mode)
                        yield inst, p, q

    def unit(self):
        inst, p, q = next(self.points)
        self.done += 1
        sol = lpcert.dual_family(inst, p, q)
        if self.corrupt_every and self.done % self.corrupt_every == 0:
            # what `certify --fuzz` does to a certificate
            sol.eps = {i: 0 for i in sol.eps}
            sol.gamma = {i: 0 for i in sol.gamma}
            sol.beta = {}
            sol.alpha = {j: 0 for j in sol.alpha}
        try:
            sol.check_feasible()
        except lpcert.Infeasible as exc:
            self.note("infeasible", str(exc))
            raise CheckFailed("certificate infeasible at %s: %s"
                              % (_where(inst, p, q), exc))
        cost = lpcert.family_cost(inst, p, q)
        full = sol.objective()
        bounded = full if q == inst.n - inst.t else \
            sol.objective_bounded_delta(q)
        self.note(bounded, full)
        _check(bounded == cost, "objective %s != family_cost %s at %s"
               % (bounded, cost, _where(inst, p, q)))
        _check(full <= cost, "exact objective %s above family_cost %s at %s"
               % (full, cost, _where(inst, p, q)))


def _rounds(cells, rng):
    """The grid in STRATUM rounds of nearly equal mix.

    Cells sorted by (d, n, t, mode, k) fall into strata of STRATUM
    neighbours of nearly equal cost.  Round r holds the r-th member of
    every stratum, so a run of whole rounds sees the same mix of cheap and
    expensive cells.  The seed only shuffles the order within each round.
    """
    ordered = sorted(cells, key=lambda c: (c[0], c[1], c[2], c[4], c[5],
                                           c[3]))
    strata = [ordered[i:i + STRATUM]
              for i in range(0, len(ordered), STRATUM)]
    rounds = [[stratum[r] for stratum in strata if r < len(stratum)]
              for r in range(STRATUM)]
    for rnd in rounds:
        rng.shuffle(rnd)
    return rounds


def _where(inst, p, q):
    return "d=%d n=%d t=%d f=%d k=%d %s p=%d q=%d" % (
        inst.d, inst.n, inst.t, inst.f, inst.k, inst.mode, p, q)


# -- multilog churn -----------------------------------------------------------


class _Terminals:
    """Benchmark-side bookkeeping of one multilog network, enough to offer
    only admissible requests: free outputs in one window, fanout room, and
    no (input, window) pair the input already has live branches in."""

    def __init__(self, cfg, addrs):
        self.cfg = cfg
        self.addrs = addrs
        size = cfg.d ** cfg.t
        self.free = [list(range(w * size, (w + 1) * size))
                     for w in range(cfg.d ** (cfg.n - cfg.t))]
        self.active = {}        # input -> live outputs
        self.pinned = set()     # (input, window) with live branches
        self.busy = 0
        self.live = []          # (rid, input, window, outputs)

    def offer(self, rng):
        cfg = self.cfg
        for _ in range(64):
            x = rng.randrange(len(self.addrs))
            room = cfg.f - self.active.get(x, 0)
            w = rng.randrange(len(self.free))
            if room and self.free[w] and (x, w) not in self.pinned:
                ys = rng.sample(self.free[w],
                                rng.randint(1, min(room, len(self.free[w]))))
                return x, w, ys
        return None

    def take(self, rid, x, w, ys):
        for y in ys:
            self.free[w].remove(y)
        self.active[x] = self.active.get(x, 0) + len(ys)
        self.pinned.add((x, w))
        self.busy += len(ys)
        self.live.append((rid, x, w, ys))

    def drop(self, rng):
        idx = rng.randrange(len(self.live))
        self.live[idx], self.live[-1] = self.live[-1], self.live[idx]
        rid, x, w, ys = self.live.pop()
        self.free[w].extend(ys)
        self.active[x] -= len(ys)
        self.pinned.discard((x, w))
        self.busy -= len(ys)
        return rid


class MultilogChurn(Workload):
    """Sustained random multicast traffic on large d=2 multilog networks at
    the table's sufficient m, so any block is a failure.  Set-up fills each
    network to LOAD; from then on every unit keeps it there.  Each arrival
    also asks for its blocking planes, as the `simulate` sweep does."""

    # the seed code runs nearer 300 units/s; 400 gives a run 1,000 units,
    # so that its p99 has 10 units above it
    nominal_rate = 400
    TINY = {"nets": [(2, 4, 2, 2, multilog.LINK),
                     (2, 4, 2, 2, multilog.CROSSTALK)], "turns": (0, 1)}
    # (d, n, t, f, mode): 1k-4k terminals, t = n/2, fanout above 1
    NETS = [(2, 10, 5, 2, multilog.LINK),
            (2, 12, 6, 4, multilog.LINK),
            (2, 10, 5, 4, multilog.CROSSTALK)]
    # Which network each unit goes to, in a fixed cycle.  A unit's cost
    # steps with the request's fanout, so the p50 must not fall on a step:
    # with equal turns it sits at the 25th percentile of the f=4 networks,
    # right where fanout-1 requests end.  Two turns each for the f=4
    # networks put it near their 37th percentile, inside the fanout-2 step.
    TURNS = (0, 1, 2, 1, 2)
    LOAD = 0.25          # share of outputs busy
    AUDIT_EVERY = 200    # units per network between audits

    def __init__(self, seed, nets=None, turns=None):
        super().__init__(seed)
        self.turns = turns or self.TURNS
        self.nets = []
        self.serial = 0
        self.turn = 0
        for d, n, t, f, mode in nets or self.NETS:
            table = bounds.C_bound if mode == multilog.LINK else bounds.G_bound
            m = table(d, n, t, f).m_sufficient
            cfg = multilog.MultilogConfig(
                d=d, n=n, m=m, t=t, f=f, mode=mode,
                plane_policy=multilog.RANDOM, seed=self.rng.randrange(1 << 30))
            addrs = [dary.DaryString.from_value(v, d, n)
                     for v in range(d ** n)]
            net = [multilog.ConnState(cfg), _Terminals(cfg, addrs), 0]
            self.nets.append(net)
            self._fill(len(self.nets) - 1, net)

    def _fill(self, k, net):
        """Admit requests from the units' own generator until LOAD of the
        outputs are busy, so the units see steady-state occupancy.  A
        failed admit is counted and ends the fill."""
        terms = net[1]
        while terms.busy < self.LOAD * len(terms.addrs):
            offer = terms.offer(self.rng)
            if offer is None:
                break
            self.setup_ops += 1
            try:
                self._arrive(k, net, offer, blocking=None)
            except Exception as exc:  # a failed check or a library error
                self.setup_failed += 1
                self.note(k, "setup failed", str(exc))
                return

    def unit(self):
        # a fixed cycle, so every run gives each network the same share
        k = self.turns[self.turn % len(self.turns)]
        self.turn += 1
        net = self.nets[k]
        state, terms = net[0], net[1]
        net[2] += 1
        # a departure whenever the network is at load, then an arrival
        if terms.live and terms.busy >= self.LOAD * len(terms.addrs):
            rid = terms.drop(self.rng)
            state.release(rid)
            self.note(k, "D", rid)
        offer = terms.offer(self.rng)
        if offer is None:
            self.note(k, "none")
        else:
            x, _, ys = offer
            blocking = state.blocking_planes(
                terms.addrs[x], [terms.addrs[y] for y in ys])
            self._arrive(k, net, offer, blocking)
        if net[2] % self.AUDIT_EVERY == 0:
            state.audit()

    def _arrive(self, k, net, offer, blocking):
        """Admit `offer`, check it got a plane outside `blocking` (when
        given) and book it."""
        state, terms = net[0], net[1]
        x, w, ys = offer
        self.serial += 1
        rid = "r%d" % self.serial
        m = state.config.m
        result = state.admit(terms.addrs[x], [terms.addrs[y] for y in ys],
                             rid=rid)
        self.note(k, "A", rid, None if blocking is None else len(blocking),
                  sorted(result.items()))
        plane = result.get(w)
        _check(len(result) == 1 and isinstance(plane, int),
               "request %s blocked at sufficient m=%d: %r" % (rid, m, result))
        if blocking is not None:
            _check(len(blocking) < m and plane not in blocking,
                   "request %s got plane %r, blocking planes %s"
                   % (rid, plane, sorted(blocking)))
        terms.take(rid, x, w, ys)


# -- duality probe ------------------------------------------------------------


class DualityProbe(Workload):
    """Criterion 7: churn on undersized (m=2) networks from the adversary's
    random admissible requests; after each step the primal blocking count of
    two probe requests is read from the state and checked against every
    family certificate, with a full weak-duality check every 100th positive
    probe."""

    nominal_rate = 1150
    TINY = {"grid": [(2, 3, 1, 2, lpcert.LINK)]}
    GRID = ([(2, n, t, f, mode)
             for n in (3, 4) for t in range(n) for f in (1, 2, 4)
             for mode in (lpcert.LINK, lpcert.CROSSTALK)]
            + [(2, 6, 3, 2, lpcert.LINK)])
    CHECK_EVERY = 100

    def __init__(self, seed, grid=None):
        super().__init__(seed)
        self.points = []
        for d, n, t, f, mode in grid or self.GRID:
            # the duals depend on a single-output probe only through the
            # class-count profile, so one canonical instance serves them all
            ref = lpcert.canonical_instance(d, n, t, f, 1, mode)
            duals = []
            for p in range(n - t):
                for q in range(n - t, n + 1):
                    sol = lpcert.dual_family(ref, p, q)
                    sol.check_feasible()
                    duals.append(sol.objective())
            cfg = multilog.MultilogConfig(d=d, n=n, m=2, t=t, f=f, mode=mode)
            self.points.append({
                "conn": multilog.ConnState(cfg),
                "rng": random.Random(self.rng.randrange(1 << 30)),
                "live": [],
                "min_dual": min(duals),
                "probes": [dary.DaryString(d, (1,) * n),
                           dary.DaryString(d, (1,) + (0,) * (n - 1))],
                "outs": list(dary.all_strings(d, n)),
            })
        self.serial = 0
        self.positive = 0
        self.turn = 0

    def unit(self):
        # round-robin, so every run gives each grid point the same share
        k = self.turn % len(self.points)
        self.turn += 1
        pt = self.points[k]
        conn, rng, live = pt["conn"], pt["rng"], pt["live"]
        if live and rng.random() < 0.4:
            rid = live.pop(rng.randrange(len(live)))
            conn.release(rid)
            self.note(k, "D", rid)
        else:
            req = adversary.random_admissible_request(conn, rng)
            if req is None:
                self.note(k, "none")
            else:
                self.serial += 1
                rid = "r%d" % self.serial
                result = conn.admit(req[0], req[1], rid=rid)
                self.note(k, "A", rid, sorted(
                    (w, "B" if isinstance(v, multilog.Blocked) else v)
                    for w, v in result.items()))
                if rid in conn.requests:
                    live.append(rid)
        for a in pt["probes"]:
            free = next((v for v in pt["outs"]
                         if v not in conn.output_owner), None)
            if free is None:
                break
            inst, primal = lpcert.primal_from_state(conn, a, [free])
            obj = primal.objective()
            self.note(k, "P", obj)
            if obj == 0:
                continue
            _check(obj <= pt["min_dual"],
                   "primal %s above a dual objective %s at point %d"
                   % (obj, pt["min_dual"], k))
            self.positive += 1
            if self.positive % self.CHECK_EVERY == 0:
                n, t = inst.n, inst.t
                for p in range(n - t):
                    for q in range(n - t, n + 1):
                        gap = lpcert.check_weak_duality(
                            primal, lpcert.dual_family(inst, p, q))
                        _check(gap >= 0, "negative duality gap %s" % gap)


# -- clos churn ---------------------------------------------------------------


# weight types of the four-type scheme, as numerator ranges over 60
_RATE_TYPES = [(31, 60), (25, 30), (21, 24), (1, 20)]


class ClosChurn(Workload):
    """Two interleaved symmetric Clos networks at n = r: a multirate one at
    m = clos_multirate(n) with rates of all four weight types, and a
    strict-sense space-division one at m = 2n-1 driven by snb_admit.
    Set-up fills both to LOAD; from then on a unit on either network
    releases a random live request whenever the network is at load, then
    offers one arrival.  Only capacity-feasible requests are offered, so a
    block is a failure."""

    nominal_rate = 5000
    TINY = {"n": 4}
    N = 32
    LOAD = 0.5           # share of terminal capacity in use
    # The network of each unit, in a fixed cycle.  A space-division unit
    # costs well under half a multirate one, so with equal turns the p50
    # would fall on the step between them; two space turns per multirate
    # turn put it inside the space units' range.
    TURNS = ("S", "S", "M")
    AUDIT_EVERY = 500    # units per network between audits

    def __init__(self, seed, n=None):
        super().__init__(seed)
        n = n or self.N
        self.terms = [(cb, port) for cb in range(n) for port in range(n)]
        self.target = self.LOAD * len(self.terms)
        self.multi = clos.ClosState(clos.ClosConfig.symmetric(
            n=n, m=bounds.clos_multirate(n), r=n, traffic=clos.MULTIRATE))
        self.space = clos.ClosState(clos.ClosConfig.symmetric(
            n=n, m=bounds.clos_snb(n), r=n))
        self.load_in, self.load_out = {}, {}
        self.multi_live, self.space_live = [], []
        self.weight = Fraction(0)
        self.idle_in, self.idle_out = set(self.terms), set(self.terms)
        self.events = {"S": 0, "M": 0}
        self.serial = 0
        self.turn = 0
        self._fill(self._multirate_arrival, lambda: self.weight)
        self._fill(self._space_arrival, lambda: len(self.space_live))

    def _fill(self, arrive, level):
        """Offer arrivals until `level()` reaches the target load.  A
        failed admit is counted and ends the fill."""
        while level() < self.target:
            self.setup_ops += 1
            try:
                arrive()
            except Exception as exc:  # a failed check or a library error
                self.setup_failed += 1
                self.note("setup failed", str(exc))
                return

    def _pick(self, load, rate):
        """A random terminal with room for `rate`, or None if 64 draws
        found none."""
        for _ in range(64):
            term = self.rng.choice(self.terms)
            if load.get(term, 0) + rate <= 1:
                return term
        return None

    def unit(self):
        side = self.TURNS[self.turn % len(self.TURNS)]
        self.turn += 1
        self.events[side] += 1
        if side == "M":
            state = self.multi
            if self.multi_live and self.weight >= self.target:
                self._multirate_departure()
            self._multirate_arrival()
        else:
            state = self.space
            if len(self.space_live) >= self.target:
                self._space_departure()
            self._space_arrival()
        if self.events[side] % self.AUDIT_EVERY == 0:
            state.audit()

    def _multirate_departure(self):
        live = self.multi_live
        idx = self.rng.randrange(len(live))
        live[idx], live[-1] = live[-1], live[idx]
        rid, it, ot, rate = live.pop()
        self.multi.release(rid)
        self.load_in[it] -= rate
        self.load_out[ot] -= rate
        self.weight -= rate
        self.note("M", "D", rid)

    def _multirate_arrival(self):
        lo, hi = self.rng.choice(_RATE_TYPES)
        rate = Fraction(self.rng.randint(lo, hi), 60)
        it = self._pick(self.load_in, rate)
        ot = self._pick(self.load_out, rate)
        if it is None or ot is None:
            self.note("M", "full")
            return
        self.serial += 1
        rid = "r%d" % self.serial
        color = self.multi.multirate_admit(it, ot, rate, rid=rid)
        self.note("M", "A", rid, color)
        _check(color is not clos.BLOCKED,
               "multirate request %s blocked at sufficient m=%d"
               % (rid, self.multi.config.m))
        self.load_in[it] = self.load_in.get(it, 0) + rate
        self.load_out[ot] = self.load_out.get(ot, 0) + rate
        self.weight += rate
        self.multi_live.append((rid, it, ot, rate))

    def _space_departure(self):
        live = self.space_live
        idx = self.rng.randrange(len(live))
        live[idx], live[-1] = live[-1], live[idx]
        rid, it, ot = live.pop()
        self.space.release(rid)
        self.idle_in.add(it)
        self.idle_out.add(ot)
        self.note("S", "D", rid)

    def _space_arrival(self):
        it = _pick_idle(self.rng, self.terms, self.idle_in)
        ot = _pick_idle(self.rng, self.terms, self.idle_out)
        self.serial += 1
        rid = "r%d" % self.serial
        mid = self.space.snb_admit(it, ot, rid=rid)
        self.note("S", "A", rid, mid)
        _check(mid is not clos.BLOCKED,
               "space request %s blocked at m=2n-1=%d"
               % (rid, self.space.config.m))
        self.idle_in.discard(it)
        self.idle_out.discard(ot)
        self.space_live.append((rid, it, ot))

    def stats(self):
        coloring = self.multi.coloring
        lower = dwec.opt_lower(coloring)
        return {"dwec.colors_used": coloring.colors_used,
                "dwec.colors_per_opt_lower":
                    coloring.colors_used / lower if lower else 0.0}


def _pick_idle(rng, terms, idle):
    """A random idle terminal.  One always exists: at most LOAD of the
    terminals are busy when an arrival is offered."""
    while True:
        term = rng.choice(terms)
        if term in idle:
            return term


WORKLOADS = {
    "certify-grid": CertifyGrid,
    "multilog-churn": MultilogChurn,
    "duality-probe": DualityProbe,
    "clos-churn": ClosChurn,
}
