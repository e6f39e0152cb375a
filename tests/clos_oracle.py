"""Reference coloring and Clos admission that keep Fraction loads and copy
or rebuild their state, and the exhaustive coloring optimum.

`FirstFitColoring` is a standalone dynamic weighted edge coloring: every
load is a `Fraction`, the color classes grow in place, and first-fit then
runs over the grown pools.  `OracleClosState` colors a multirate request on
a snapshot of that coloring and restores the snapshot when the color falls
beyond m - 1, keeps its terminal loads as Fractions, admits by the r = 2
reuse rule by scanning every live request for the diagonal class, keeps
its busy middles per crossbar as sets and admits first-fit by scanning
range(m), and a space-division release rebuilds the freed crossbars' middle
sets from every live request.
They are slow on purpose: the differential tests in `test_dwec.py` and
`test_clos.py` check the scaled-int `ColoringState`, `plan`/`commit`, the
mask-based first fit and reuse rule (`clos.reuse_pick`) and the O(1) space
release against them.  `first_fit` and `reuse_pick` here are the set scans
the masks replaced, and `as_masks` reads a list of sets as the masks
`ClosState` keeps.  `fraction_view` reads either
coloring as the same plain values.  `opt_exact` finds the fewest colors of a
small static weighted multigraph, against which the acceptance tests check
the coloring's competitive ratio.  `replay_audited` replays a Clos trace
with an audit after every row.
"""

from fractions import Fraction
import copy
import math

from hypothesis import strategies as st

from switchlp import clos, dwec
from switchlp.clos import BLOCKED, MULTIRATE, SPACE, CapacityExceeded
from switchlp.events import check

# weights k/60, p/q with q up to 10^6 (a few of these take the common
# denominator of the scaled loads past dwec.DEN_LIMIT), and floats
WEIGHTS = st.one_of(
    st.integers(1, 60).map(lambda k: Fraction(k, 60)),
    st.integers(1, 10 ** 6).flatmap(
        lambda q: st.integers(1, q).map(lambda p: Fraction(p, q))),
    st.floats(min_value=1e-9, max_value=1))


class FirstFitColoring:
    def __init__(self, vertices=None, scheme=dwec.FOUR_TYPE):
        self.scheme = scheme
        self.fixed_vertices = vertices is not None
        self.vertices = set(vertices or ())
        self.edges = {}            # id -> (u, v, weight, color)
        self.classes = [[] for _ in range(scheme.num_types)]
        self.next_color = 0
        self.W_bar = Fraction(0)
        self.Delta_bar = 0
        self.load = {}             # (vertex, color) -> Fraction
        self.vertex_weight = {}    # vertex -> Fraction
        self.heavy_count = {}

    def _grow_classes(self):
        sc = self.scheme
        targets = [math.ceil(sc.x[0] * self.Delta_bar)]
        targets += [math.ceil(sc.x[i] * self.W_bar)
                    for i in range(1, sc.num_types)]
        for i, want in enumerate(targets):
            while len(self.classes[i]) < want:
                self.classes[i].append(self.next_color)
                self.next_color += 1

    def _first_fit(self, typ, u, v, w):
        pools = [self.classes[0]] if typ == 0 else self.classes[typ:]
        for pool in pools:
            for color in pool:
                if (self.load.get((u, color), 0) + w <= 1
                        and self.load.get((v, color), 0) + w <= 1):
                    return color
        return None

    def arrive(self, eid, u, v, w):
        if eid in self.edges:
            raise ValueError("duplicate edge id %r" % (eid,))
        if u == v:
            raise ValueError("self-loops not allowed")
        if self.fixed_vertices and not {u, v} <= self.vertices:
            raise ValueError("endpoint outside the base graph")
        w = dwec.as_weight(w)
        typ = self.scheme._type_of(w)
        self.vertices.update((u, v))
        for end in (u, v):
            self.vertex_weight[end] = self.vertex_weight.get(end, 0) + w
            if w > dwec.HALF:
                self.heavy_count[end] = self.heavy_count.get(end, 0) + 1
            self.W_bar = max(self.W_bar, self.vertex_weight[end])
            self.Delta_bar = max(self.Delta_bar, self.heavy_count.get(end, 0))
        self._grow_classes()
        color = self._first_fit(typ, u, v, w)
        if color is None:
            raise dwec.ColoringFailure("no color for weight %s" % w)
        self.edges[eid] = (u, v, w, color)
        for end in (u, v):
            self.load[end, color] = self.load.get((end, color), 0) + w
        return color

    def depart(self, eid):
        u, v, w, color = self.edges.pop(eid)
        for end in (u, v):
            self.load[end, color] -= w
            self.vertex_weight[end] -= w
            if w > dwec.HALF:
                self.heavy_count[end] -= 1
        return (u, v, w, color)

    def color_of(self, eid):
        return self.edges[eid][3]

    def audit(self):
        loads = {}
        for u, v, w, color in self.edges.values():
            for end in (u, v):
                loads[end, color] = loads.get((end, color), 0) + w
        check(all(total <= 1 for total in loads.values()), "overloaded")
        check(loads == {k: v for k, v in self.load.items() if v},
              "loads differ from the edges")

    def snapshot(self):
        return copy.deepcopy(vars(self), {id(self.scheme): self.scheme})

    def restore(self, snap):
        vars(self).update(copy.deepcopy(snap, {id(self.scheme): self.scheme}))


def fraction_view(coloring):
    """A coloring's color classes, maxima, edges and nonzero loads, with
    every load a Fraction whatever form the coloring stores it in."""
    den = getattr(coloring, "den", 1)

    def view(table):
        return {k: Fraction(v) / den for k, v in table.items() if v}

    return (coloring.edges, coloring.classes, coloring.next_color,
            coloring.W_bar, coloring.Delta_bar, view(coloring.load),
            view(coloring.vertex_weight),
            {k: v for k, v in coloring.heavy_count.items() if v},
            coloring.vertices)


def exact(w):
    """w as the exact rational the library takes it for, range unchecked:
    a float to a denominator of at most 10^9."""
    if isinstance(w, float):
        return Fraction(w).limit_denominator(10 ** 9)
    return Fraction(w)


class SizeLimit(Exception):
    """Instance too large for the exhaustive optimum search."""


def opt_exact(edges, limit=12):
    """Minimum number of colors for a static weighted multigraph, by
    exhaustive assignment.  Edges are (u, v, weight) triples."""
    edges = [(u, v, exact(w)) for u, v, w in edges]
    if len(edges) > limit:
        raise SizeLimit("%d edges > limit %d" % (len(edges), limit))
    if not edges:
        return 0
    for u, v, w in edges:
        if not (0 < w <= 1):
            raise ValueError("weight %s out of (0, 1]" % w)
    # heaviest first tightens pruning
    edges.sort(key=lambda e: e[2], reverse=True)

    load = {}
    best = [len(edges)]

    def place(idx, used):
        if used >= best[0]:
            return
        if idx == len(edges):
            best[0] = used
            return
        u, v, w = edges[idx]
        # trying a brand-new color before color c is equivalent to trying it
        # after, so only the first unused color is explored
        for color in range(min(used + 1, best[0])):
            if (load.get((u, color), 0) + w <= 1
                    and load.get((v, color), 0) + w <= 1):
                load[u, color] = load.get((u, color), 0) + w
                load[v, color] = load.get((v, color), 0) + w
                place(idx + 1, max(used, color + 1))
                load[u, color] -= w
                load[v, color] -= w

    place(0, 0)
    return best[0]


def first_fit(m, bad):
    """The lowest middle below m that is not in the set `bad`, or None."""
    return next((mid for mid in range(m) if mid not in bad), None)


def reuse_pick(m, in_mids, out_mids, i, o):
    """`clos.reuse_pick` on sets of busy middles per crossbar."""
    bad = in_mids[i] | out_mids[o]
    reuse = in_mids[1 - i] - bad
    if reuse:
        return min(reuse)
    return first_fit(m, bad)


def as_masks(sets):
    """Per crossbar, the int mask with bit `mid` set for each busy mid."""
    return [sum(1 << mid for mid in mids) for mids in sets]


class OracleClosState(clos.ClosState):
    def __init__(self, config):
        super().__init__(config)
        if config.traffic == MULTIRATE:
            self.coloring = FirstFitColoring(
                vertices=self.coloring.vertices, scheme=self.coloring.scheme)
        else:
            self.in_mids = [set() for _ in range(config.r)]
            self.out_mids = [set() for _ in range(config.r)]

    def _space_commit(self, rid, in_term, out_term, mid):
        self.in_mids[in_term[0]].add(mid)
        self.out_mids[out_term[0]].add(mid)
        self.busy_in[in_term] = rid
        self.busy_out[out_term] = rid
        self.requests[rid] = (SPACE, in_term, out_term, mid)
        return mid

    def snb_admit(self, in_term, out_term, rid=None):
        rid = self._space_pre(in_term, out_term, rid)
        bad = self.in_mids[in_term[0]] | self.out_mids[out_term[0]]
        check(len(bad) <= 2 * (self.config.n - 1),
              "%d middles unavailable", len(bad))
        mid = first_fit(self.config.m, bad)
        return BLOCKED if mid is None else self._space_commit(
            rid, in_term, out_term, mid)

    def multirate_admit(self, in_term, out_term, rate, rid=None):
        if self.config.traffic != MULTIRATE:
            raise ValueError("not a multirate network")
        self._check_terminal(in_term)
        self._check_terminal(out_term)
        rate = exact(rate)
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

    def benes_admit(self, in_term, out_term, rid=None):
        if self.config.r != 2:
            raise ValueError("the reuse rule needs r = 2")
        rid = self._space_pre(in_term, out_term, rid)
        i, o = in_term[0], out_term[0]
        bad = self.in_mids[i] | self.out_mids[o]
        free = [mid for mid in range(self.config.m) if mid not in bad]
        if not free:
            return BLOCKED
        diagonal = {mid for kind, it, ot, mid in self.requests.values()
                    if (it[0], ot[0]) == (1 - i, 1 - o)}
        busy = set().union(*self.in_mids)
        for pool in (diagonal, busy, free):
            picks = [mid for mid in free if mid in pool]
            if picks:
                return self._space_commit(rid, in_term, out_term, picks[0])

    def release(self, rid):
        kind = self.requests.get(rid, (None,))[0]
        if kind is None:
            return super().release(rid)
        if kind == MULTIRATE:
            _, in_term, out_term, _, rate = self.requests.pop(rid)
            self.coloring.depart(rid)
            self.load_in[in_term] -= rate
            self.load_out[out_term] -= rate
            return
        _, in_term, out_term, mid = self.requests.pop(rid)
        del self.busy_in[in_term]
        del self.busy_out[out_term]
        live = [(it[0], ot[0], md) for _, it, ot, md in self.requests.values()]
        self.in_mids[in_term[0]] = {md for i, _, md in live
                                    if i == in_term[0]}
        self.out_mids[out_term[0]] = {md for _, o, md in live
                                      if o == out_term[0]}

    def audit(self):
        if self.config.traffic == SPACE:
            # the space audit, on a copy whose sets are read as masks
            view = copy.copy(self)
            view.in_mids = as_masks(self.in_mids)
            view.out_mids = as_masks(self.out_mids)
            return clos.ClosState.audit(view)
        self.coloring.audit()
        li, lo = {}, {}
        for rid, (_, it, ot, color, rate) in self.requests.items():
            check(color == self.coloring.color_of(rid) < self.config.m,
                  "request %r has color %r", rid, color)
            li[it] = li.get(it, 0) + rate
            lo[ot] = lo.get(ot, 0) + rate
        check(all(w <= 1 for w in li.values())
              and all(w <= 1 for w in lo.values()), "terminal overloaded")
        check(li == {k: v for k, v in self.load_in.items() if v}
              and lo == {k: v for k, v in self.load_out.items() if v},
              "terminal loads differ from the registry")


def replay_audited(state, lines, reuse=False):
    """The status of each row of `clos.run_trace(state, lines, reuse)`, with
    `state.audit()` run after every row."""
    statuses = []
    for row in clos.run_trace(state, lines, reuse=reuse):
        state.audit()
        statuses.append(row["status"])
    return statuses
