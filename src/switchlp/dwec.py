"""Dynamic weighted edge coloring.

Weighted edges arrive and depart; each must be colored on arrival so the
same-color weight at every vertex stays at most 1, and a color, once given
out, is never taken back.  The algorithm keeps disjoint color classes, one
per weight type, whose sizes are tied to running maxima of the per-vertex
load and heavy degree.  With the right class-size constants first-fit never
runs out of colors.  The constants come from a small LP: a scheme given only
its type breakpoints solves it, and every scheme checks its constants
against the LP's rows.

The graph is the set of the edges' endpoints, any hashable values; an edge
joins two distinct ones.  With a two-vertex graph this is dynamic bin
packing (colors = bins).

A state keeps its loads scaled by one common denominator `den`, so first-fit
compares and adds ints.  `den` becomes lcm(den, q) for a new weight
denominator q only while that stays below DEN_LIMIT (one CPython int digit);
past it a scaled weight stays an exact Fraction.  Float weights, each with a
denominator near 10^9, would otherwise grow `den` without end.
"""

from collections import namedtuple
import copy
from fractions import Fraction
import math

from . import bounds
from .events import check, fraction, replay
from .lpcert import Infeasible, solve_packing

HALF = Fraction(1, 2)
DEN_LIMIT = 1 << 30


class ColoringFailure(AssertionError):
    """First-fit found no admissible color.  Unreachable for a valid scheme;
    raised as a hard assertion so bugs surface instead of silently degrading."""


Plan = namedtuple("Plan", ["w", "color", "W_bar", "Delta_bar", "growth"])


def as_weight(w):
    """w, an edge weight or a Clos rate, as an exact Fraction in (0, 1]: a
    float to a denominator of at most 10^9; ValueError otherwise, a bool
    included."""
    if not isinstance(w, Fraction):
        if isinstance(w, float) and not math.isfinite(w):
            raise ValueError("weight %r is not finite" % (w,))
        # a bool stays itself, for the range test to refuse by name
        w = (Fraction(w).limit_denominator(10 ** 9) if isinstance(w, float)
             else w if type(w) is bool else fraction(w))
    if 0 < w.numerator <= w.denominator and w is not True:
        return w
    raise ValueError("weight %s out of (0, 1]" % w)


def grow_den(den, q):
    """lcm(den, q) if that stays below DEN_LIMIT, else den."""
    if den % q == 0:
        return den
    lcm = den // math.gcd(den, q) * q
    return lcm if lcm < DEN_LIMIT else den


def scaled(w, den):
    """w * den: an int when den is a multiple of w's denominator, else an
    exact Fraction."""
    q = w.denominator
    if den % q:
        return Fraction(w.numerator * den, q)
    return w.numerator * (den // q)


def rescale(k, *tables):
    """Multiply every value of the tables by k, in place."""
    for table in tables:
        for key in table:
            table[key] *= k


class DwecScheme:
    """Type breakpoints plus the class-size constants x_0..x_K.

    Breakpoints are descending rationals in (0,1) starting at 1/2; type i
    covers the half-open interval (breakpoints[i], breakpoints[i-1]], with
    type 0 = (1/2, 1] and the last type reaching down to 0.

    Without x the constants are derived: minimize sum(x_i) subject to
    x_0 >= 2, the per-type blocking rows sum_{j>=i} beta_ij x_j >= 2, and
    x >= 0.  x_0 is in no other row, so x_0 = 2.  x_1.. are the optimal
    dual of the packing LP: maximize 2 sum(y) subject to
    sum_i beta_ij y_i <= 1 per j >= 1, solved exactly by
    `lpcert.solve_packing`; its y is kept as `dual` (None when x is given).
    Either way the constants are checked against the rows.
    """

    def __init__(self, breakpoints, x=None):
        bp = tuple(Fraction(b) for b in breakpoints)
        if not bp or bp[0] != HALF:
            raise ValueError("first breakpoint must be 1/2")
        # with bp[0] = 1/2, descending above 0 keeps them all in (0, 1)
        for lo, hi in zip(bp[1:], bp):
            if not (0 < lo < hi):
                raise ValueError("breakpoints must descend within (0,1)")
        self.breakpoints = bp
        self._cuts = [(b.numerator, b.denominator) for b in bp]
        self.dual = None
        if x is None:
            rows = self.constraint_rows()
            A = [[row[j - i] if j >= i else 0 for i, row in enumerate(rows, 1)]
                 for j in range(1, self.num_types)]
            _, y, x = solve_packing(A, [2] * len(rows), [1] * len(rows))
            x, self.dual = [2] + x, tuple(y)
        self.x = tuple(Fraction(v) for v in x)
        if len(self.x) != len(bp) + 1:
            raise ValueError("need one constant per type")
        self.check_feasible()

    @property
    def num_types(self):
        return len(self.breakpoints) + 1

    def _type_of(self, w):
        """Type index of a weight that `as_weight` has checked."""
        p, q = w.numerator, w.denominator
        for i, (a, b) in enumerate(self._cuts):
            if p * b > a * q:
                return i
        return len(self._cuts)

    def lower(self, i):
        """Lower breakpoint of type i (exclusive)."""
        if i < len(self.breakpoints):
            return self.breakpoints[i]
        return Fraction(0)

    def upper(self, i):
        """Upper breakpoint of type i (inclusive)."""
        if i == 0:
            return Fraction(1)
        return self.breakpoints[i - 1]

    def beta(self, i, j):
        """Least same-color weight a blocked class-j color pins at one
        endpoint when a type-i edge (i >= 1) fails to fit there.

        Edges living in class-j colors have weight in (lower(j), 1/2]; the
        blocking endpoint carries s of them with total exceeding both
        1 - upper(i) and s*lower(j), so the infimum over the multiset is
        min over feasible s of max(1 - upper(i), s*lower(j)).
        """
        if not 1 <= i <= j < self.num_types:
            raise ValueError("need 1 <= i <= j < %d" % self.num_types)
        T = 1 - self.upper(i)
        lj = self.lower(j)
        s = max(1, math.floor(2 * T) + 1)  # smallest s with s/2 > T
        # more blockers only raise s*lower(j), so the smallest feasible s wins
        return max(T, s * lj)

    def constraint_rows(self):
        """The blocking LP rows: for each arriving type i >= 1 the
        coefficients (beta_i1, ..., beta_iK) of sum_j beta_ij x_j >= 2."""
        K = self.num_types
        return [tuple(self.beta(i, j) for j in range(i, K)) for i in range(1, K)]

    def check_feasible(self):
        if self.x[0] < 2:
            raise Infeasible("x_0 = %s < 2" % self.x[0])
        if any(v < 0 for v in self.x):
            raise Infeasible("negative constant")
        for i, row in enumerate(self.constraint_rows(), start=1):
            lhs = sum(b * xv for b, xv in zip(row, self.x[i:]))
            if lhs < 2:
                raise Infeasible("type-%d row sums to %s < 2" % (i, lhs))

    @classmethod
    def five_type(cls):
        """Refined scheme with one extra breakpoint; its constants are
        derived since no published vector exists for this split."""
        return cls(bounds.FOUR_TYPE_BREAKPOINTS + (Fraction(11, 43),))


FOUR_TYPE = DwecScheme(bounds.FOUR_TYPE_BREAKPOINTS, bounds.FOUR_TYPE_X)


class ColoringState:
    """Live colored multigraph plus the color classes and running maxima.

    Colors are integers handed out in creation order across all classes, so
    a color index doubles as a stable physical identity (the Clos multirate
    simulator maps colors to middle crossbars this way).
    """

    def __init__(self, scheme=FOUR_TYPE):
        self.scheme = scheme
        self.edges = {}            # id -> (u, v, weight, color)
        self.classes = [[] for _ in range(scheme.num_types)]
        self.next_color = 0
        self.W_bar = Fraction(0)
        self.Delta_bar = 0
        # every weight below is scaled: w counts as scaled(w, den)
        self.den = 1
        self.W_top = 0             # W_bar * den
        self.load = {}             # (vertex, color) -> same-color weight
        self.vertex_weight = {}    # vertex -> total live weight
        self.heavy_count = {}      # vertex -> live edges of weight > 1/2

    @property
    def colors_used(self):
        return self.next_color

    def plan(self, u, v, w):
        """What arriving a weight-w edge u-v would do, without doing it;
        `growth[i]` is the number of colors class i gains first."""
        if u == v:
            raise ValueError("self-loops not allowed")
        w = as_weight(w)
        sc = self.scheme
        typ = sc._type_of(w)
        den = self.den
        ws = scaled(w, den)   # a Fraction if den lacks w's denominator
        vw, load = self.vertex_weight, self.load
        top = max(vw.get(u, 0), vw.get(v, 0)) + ws
        w_bar = Fraction(top, den) if top > self.W_top else self.W_bar
        delta_bar = self.Delta_bar
        if typ == 0:
            hc = self.heavy_count
            delta_bar = max(delta_bar, hc.get(u, 0) + 1, hc.get(v, 0) + 1)
        growth = [0] * sc.num_types  # sizes only move with W_bar, Delta_bar
        if w_bar is not self.W_bar or delta_bar != self.Delta_bar:
            growth = [math.ceil(x * (w_bar if i else delta_bar)) - len(pool)
                      for i, (x, pool) in enumerate(zip(sc.x, self.classes))]
        room = den - ws
        for i in ((0,) if typ == 0 else range(typ, sc.num_types)):
            for color in self.classes[i]:
                if (load.get((u, color), 0) <= room
                        and load.get((v, color), 0) <= room):
                    return Plan(w, color, w_bar, delta_bar, growth)
            if growth[i]:
                # class i's new colors follow its old ones and precede the
                # next class's, which were all handed out before them
                color = self.next_color + sum(growth[:i])
                return Plan(w, color, w_bar, delta_bar, growth)
        raise ColoringFailure("no color for weight %s (type %d); scheme "
                              "constants broken" % (w, typ))

    def commit(self, eid, u, v, plan):
        """Apply a plan made on the current state; returns the color."""
        w, color, w_bar, self.Delta_bar, growth = plan
        for pool, more in zip(self.classes, growth):
            pool.extend(range(self.next_color, self.next_color + more))
            self.next_color += more
        den = grow_den(self.den, w.denominator)
        if den != self.den:
            k = den // self.den
            rescale(k, self.load, self.vertex_weight)
            self.W_top *= k
            self.den = den
        ws, heavy = scaled(w, den), 2 * w.numerator > w.denominator
        self.edges[eid] = (u, v, w, color)
        vw, load = self.vertex_weight, self.load
        for end in (u, v):
            vw[end] = vw.get(end, 0) + ws
            if heavy:
                self.heavy_count[end] = self.heavy_count.get(end, 0) + 1
            load[end, color] = load.get((end, color), 0) + ws
        if w_bar is not self.W_bar:   # the plan raised W_bar
            self.W_bar, self.W_top = w_bar, max(vw[u], vw[v])
        return color

    def arrive(self, eid, u, v, w):
        if eid in self.edges:
            raise ValueError("duplicate edge id %r" % (eid,))
        return self.commit(eid, u, v, self.plan(u, v, w))

    def depart(self, eid):
        try:
            u, v, w, color = self.edges.pop(eid)
        except KeyError:
            raise ValueError("unknown edge id %r" % (eid,))
        ws, heavy = scaled(w, self.den), 2 * w.numerator > w.denominator
        for end in (u, v):
            self.load[end, color] -= ws
            if self.load[end, color] == 0:
                del self.load[end, color]
            self.vertex_weight[end] -= ws
            if heavy:
                self.heavy_count[end] -= 1
        return (u, v, w, color)

    def audit(self):
        """Recheck every state invariant from scratch."""
        sc = self.scheme
        check(len(self.classes[0]) == math.ceil(sc.x[0] * self.Delta_bar),
              "class 0 size")
        for i in range(1, sc.num_types):
            check(len(self.classes[i]) == math.ceil(sc.x[i] * self.W_bar),
                  "class %d size", i)
        seen = set().union(*self.classes)
        check(len(seen) == sum(map(len, self.classes)) == self.next_color,
              "colors missing from the classes or in two of them")
        den = self.den
        check(self.W_top == self.W_bar * den, "W_bar differs from W_top")
        loads, weights = {}, {}
        for u, v, w, color in self.edges.values():
            ws = scaled(w, den)
            if not 0 < ws <= den:  # as 0 < w <= 1, since den > 0
                raise AssertionError("weight %s out of (0, 1]" % w)
            for end in (u, v):
                loads[end, color] = loads.get((end, color), 0) + ws
                weights[end] = weights.get(end, 0) + ws
        over = [key for key, total in loads.items() if total > den]
        check(not over, "overloaded %s", over[:1])
        check(loads == {k: v for k, v in self.load.items() if v},
              "loads differ from the edges")
        check(weights == {k: v for k, v in self.vertex_weight.items() if v}
              and max(weights.values(), default=0) <= self.W_top,
              "vertex weights differ from the edges or exceed W_bar")

    def snapshot(self):
        return copy.deepcopy(vars(self), {id(self.scheme): self.scheme})

    def restore(self, snap):
        vars(self).update(copy.deepcopy(snap, {id(self.scheme): self.scheme}))


def opt_lower(state):
    """Certified lower bound on the offline optimum: per-vertex load forces
    ceil(W_bar) colors and pairwise-conflicting heavy edges force Delta_bar."""
    return max(math.ceil(state.W_bar), state.Delta_bar)


def _operands(tokens):
    u, v, w = tokens
    return u, v, fraction(w)


def run_trace(state, lines):
    """Replay `A <id> <u> <v> <weight>` / `D <id>` lines into the
    ColoringState `state`; yields one row per event as a dict with keys t,
    colors_used, opt_lower, W_bar, Delta_bar.  A duplicate edge id or an
    unknown departure is malformed input."""
    events = replay(lines, (3, 3), _operands, state.arrive, state.depart)
    for t, _ in enumerate(events, start=1):
        yield {"t": t, "colors_used": state.colors_used,
               "opt_lower": opt_lower(state),
               "W_bar": str(state.W_bar), "Delta_bar": state.Delta_bar}
