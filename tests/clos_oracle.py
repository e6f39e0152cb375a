"""Reference Clos admission and release that copy or rebuild their state.

`FirstFitColoring` grows the color classes in place and then runs first-fit
over the grown pools.  `OracleClosState` colors a multirate request on a
snapshot of that coloring and restores the snapshot when the color falls
beyond m - 1, and a space-division release rebuilds the freed middle's
occupancy from every live request.  They are slow on purpose: the
differential test in `test_clos.py` checks `ColoringState.plan`/`commit`
and the O(1) space release against them.
"""

import math

from switchlp import clos, dwec
from switchlp.clos import BLOCKED, MULTIRATE, SPACE, CapacityExceeded


class FirstFitColoring(dwec.ColoringState):
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
        if self.fixed_vertices and not {u, v} <= self.vertices:
            raise ValueError("endpoint outside the base graph")
        w = dwec.as_fraction(w)
        typ = self.scheme.classify(w)
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


class OracleClosState(clos.ClosState):
    def __init__(self, config, scheme=None):
        super().__init__(config, scheme=scheme)
        if config.traffic == MULTIRATE:
            self.coloring = FirstFitColoring(
                vertices=self.coloring.vertices, scheme=self.coloring.scheme)

    def multirate_admit(self, in_term, out_term, rate, rid=None):
        if self.config.traffic != MULTIRATE:
            raise ValueError("not a multirate network")
        self._check_terminal(in_term, "in")
        self._check_terminal(out_term, "out")
        rate = dwec.as_fraction(rate)
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

    def release(self, rid):
        if self.requests.get(rid, (None,))[0] != SPACE:
            return super().release(rid)
        _, in_term, out_term, mid = self.requests.pop(rid)
        del self.busy_in[in_term]
        del self.busy_out[out_term]
        self.mid_in[mid] = {it[0] for _, (k, it, ot, md)
                            in self.requests.items() if md == mid}
        self.mid_out[mid] = {ot[0] for _, (k, it, ot, md)
                             in self.requests.items() if md == mid}
