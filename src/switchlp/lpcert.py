"""Blocking LP instances, dual certificates, and weak-duality checking.

For a request (a, B) in the windowed multi-plane network, the number of
planes unable to carry the request is at most the optimum of a small LP
whose variables count potentially blocking foreign branches.  Any feasible
solution of the dual LP therefore upper-bounds the blocking-plane count.
This module builds the instance, extracts a feasible primal point from a
simulator state, solves the LP itself, generates the two-parameter family
of dual-feasible solutions whose objective values the closed-form
plane-count tables are the minima of, and verifies feasibility plus weak
duality in exact rational arithmetic.  A dual holds only its support.

Everything class-level here exploits that both the dual constraints and the
family's variable values depend on an input u only through its suffix index
i(u), and on a window or output only through its prefix index j.  A crosstalk
instance at n is the link instance at N = n + 1, its class labels (i(u) + 1,
j + 1); only `rows_of`, which reads addresses, keeps the threshold n - 1.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from numbers import Number

from .dary import (AddressSets, _canonical_sets, a_count_formula, lazy,
                   not_sets)
from . import bounds
from .bounds import LINK, CROSSTALK, theta_of
from .events import check_family, check_sizes

_SETS = AddressSets  # the class itself, also where a tracer rebinds it


class Infeasible(Exception):
    """A solution violates a constraint; the message names it."""


# The primal's rows by rank: the message a violated row raises, formatted
# with the row's key.
_ROWS = ("window capacity at w=%d", "x_u%d_w%d > 1",
         "per-input home spread at u=%d", "output multiplicity at v=%d",
         "fanout at u=%d")


class LpInstance:
    """One concrete blocking LP: its request `sets`, the `dary.AddressSets`
    that holds d, n, t, a and B; its fanout bound f and mode; its rows.

    The constructor checks that `sets` is an `AddressSets`, a checked
    request, then only the mode, and f and k = |B| by `check_sizes`.
    `rows_of` alone decides whether a primal variable exists and which
    rows it sits in; it computes indices from the addresses it is given,
    so nothing here enumerates addresses.  The dual checks read the (i, j)
    classes (`classes_uw`, `classes_uv`) and the class-count `profile`,
    each built when first read; a primal read off a simulator state needs
    none of them.  Each instance builds its own from |A_i|, cached per
    (d, N = n + theta), and a caller may change them freely.
    """

    def __init__(self, sets, f, mode=LINK):
        if not isinstance(sets, _SETS):
            not_sets(sets)
        self.sets, self.f, self.mode = sets, f, mode
        self.theta = theta_of(mode)
        d, n, t, self.a, self.B = sets.d, sets.n, sets.t, sets.a, sets.B
        self.d, self.n, self.t, self.k = d, n, t, len(self.B)
        check_sizes(d, n, t, f, self.k)
        self.home, self._thresh = sets.home_window, n - self.theta

    @lazy
    def classes_uw(self):
        """(i, j) pairs with at least one defined (u, w) variable."""
        return list(self._beta)

    @lazy
    def _beta(self):
        """Each (u, w) class's count: |A_i| times the |A_(j+t)| windows of
        class j, for the window classes j from N - i up."""
        a, t = _input_counts(self.d, N := self.n + self.theta), self.t
        return {(i, j): a[i] * a[j + t] for i in range(N)
                for j in range(N - i, N - t)}

    @lazy
    def classes_uv(self):
        """(i, j) pairs with at least one defined (u, v) variable."""
        # every input class and foreign-window class is nonempty for d >= 2;
        # only the home-window output classes j in [N-t, N) can be empty
        theta, N = self.theta, self.n + self.theta
        outs = tuple(compress(range(theta, N), self.sets.output_counts))
        return [(i, j) for i in range(N) for j in outs if i + j >= N]

    @lazy
    def profile(self):
        """Class counts as each class dual's objective coefficient: d^t
        outputs per foreign window of class j (alpha), |A_i| times those
        windows per (u, w) class (beta), |A_i| (gamma), the spare
        home-window outputs per j (delta) and f |A_i| (epsilon).  The
        windows of class j number |A_(j+t)|, and their outputs |A_j|."""
        a, f = _input_counts(self.d, self.n + self.theta), self.f
        return {"alpha": dict(enumerate(a[:len(a) - self.t])),
                "beta": self._beta.copy(),
                "gamma": dict(enumerate(a)),
                "delta": dict(enumerate(self.sets.output_counts, self.theta)),
                "epsilon": dict(enumerate(map(f.__mul__, a)))}

    def rows_of(self, kind, u, z):
        """The (rank in `_ROWS`, key, bound) rows that x_(u,z) sits in, for
        a foreign window z (kind "w") or a spare home-window output z
        ("v"); None when x_(u,z) is no variable: u = a, z not of its kind
        or out of range, or i(u) + j(z) < n - theta."""
        s = self.sets
        try:
            i = s.i_of(u)
            j = s.j_of_window(z) if kind == "w" else s.j_of_output(z)
        except ValueError:
            return None
        if i is None or j is None or i + j < self._thresh:
            return None
        if kind == "w":
            return ((0, z, self.d ** self.t), (1, (u, z), 1), (4, u, self.f))
        return ((2, u, 1), (3, z, 1), (4, u, self.f))


@lru_cache(maxsize=256)
def _input_counts(d, n):
    """|A_i| for i < n, the one class table an instance shares: it depends
    on (d, n) alone and holds n counts."""
    return tuple(a_count_formula(d, n, i) for i in range(n))


def canonical_instance(d, n, t, f, k, mode=LINK):
    """Instance for the canonical request a = 0^n, B = first k of window 0,
    on the cached sets of `canonical_sets`."""
    check_sizes(d, n, t, f, k)   # which passes canonical_sets's k rule
    return LpInstance(_canonical_sets(d, n, t, k), f, mode)


class PrimalSolution:
    def __init__(self, instance, xw=None, xv=None):
        self.instance = instance
        self.xw = dict(xw) if xw else {}   # (u, w) -> value
        self.xv = dict(xv) if xv else {}   # (u, v) -> value

    def objective(self):
        return sum(self.xw.values()) + sum(self.xv.values())

    def check_feasible(self):
        """Check every variable's domain, then add the primal's own
        variables into the rows they sit in; never enumerates addresses."""
        rows_of, sums = self.instance.rows_of, {}
        for kind, xs in (("w", self.xw), ("v", self.xv)):
            for (u, z), val in xs.items():
                rows = rows_of(kind, u, z)
                if rows is None:
                    raise Infeasible("x_u%d_%s%d undefined" % (u, kind, z))
                if val < 0:
                    raise Infeasible("x_u%d_%s%d negative" % (u, kind, z))
                for row in rows:
                    sums[row] = sums.get(row, 0) + val
        for (rank, key, bound), total in sums.items():
            if total > bound:
                raise Infeasible(_ROWS[rank] % key)
        return True


def primal_from_state(conn, a, B):
    """Read one blocking branch per blocking plane out of a simulator state.

    Returns (instance, primal); the primal objective equals the number of
    planes on which the request (a, B) cannot be routed as one subrequest.
    Raises ValueError when an address is out of range or an output of B
    is already owned.
    """
    cfg = conn.config
    sets = AddressSets(cfg.d, cfg.n, a, B, cfg.t)
    inst = LpInstance(sets, cfg.f, cfg.mode)
    primal, size = PrimalSolution(inst), sets._size
    for u, v in conn.blocking_branches(sets).values():
        w = v // size
        if w == inst.home:
            primal.xv[u, v] = 1
        else:
            primal.xw[u, w] = 1
    primal.check_feasible()
    return inst, primal


class DualSolution:
    """Dual variables stored per class: alpha/beta keyed by window label j
    and (i, j), gamma/epsilon by input label i, delta by output label j; a
    label is its index plus theta.  A pool holds the support: no zero is
    stored, and an absent key reads as 0.  An int stays an int, another
    number a Fraction; a non-number or a non-finite float is a ValueError."""

    def __init__(self, instance, alpha=None, beta=None, gamma=None,
                 delta=None, eps=None):
        self.instance = instance
        self.alpha, self.gamma, self.delta, self.eps, self.beta = \
            {}, {}, {}, {}, {}
        for (what, dst), src in zip(self._pools(),
                                    (alpha, gamma, delta, eps, beta)):
            for k, v in (src or {}).items():
                if v := _exact(what, k, v):
                    dst[k] = v

    @classmethod
    def _from_pools(cls, instance, alpha, gamma, delta, eps, beta):
        """A solution over pools already in the constructor's form."""
        sol = cls.__new__(cls)
        sol.instance = instance
        sol.alpha, sol.gamma, sol.delta, sol.eps, sol.beta = \
            alpha, gamma, delta, eps, beta
        return sol

    def _pools(self):
        return (("alpha", self.alpha), ("gamma", self.gamma),
                ("delta", self.delta), ("epsilon", self.eps),
                ("beta", self.beta))

    def check_feasible(self):
        inst = self.instance
        for what, pool in self._pools():
            for val in pool.values():
                if val < 0:
                    # on failure only: class keys ascending, then the rest
                    size = (0 if what == "beta" else inst.n + inst.theta
                            - (inst.t if what == "alpha" else 0))
                    key = next(k for k in chain(range(size), pool)
                               if pool.get(k, 0) < 0)
                    raise Infeasible("%s[%r] negative" % (what, key))
        alpha, beta, eps = self.alpha.get, self.beta.get, self.eps.get
        gamma, delta = self.gamma.get, self.delta.get
        for i, j in inst.classes_uw:
            if alpha(j, 0) + beta((i, j), 0) + eps(i, 0) < 1:
                raise Infeasible("DC-1 violated at class i=%d, j(w)=%d"
                                 % (i, j))
        for i, j in inst.classes_uv:
            if gamma(i, 0) + delta(j, 0) + eps(i, 0) < 1:
                raise Infeasible("DC-2 violated at class i=%d, j(v)=%d"
                                 % (i, j))
        return True

    def _price(self):
        """Every dual times its class count, summed in ints unless a dual
        is a Fraction; a key with no class (an undefined beta, say) prices
        at 0."""
        profile, total = self.instance.profile, 0
        for what, pool in self._pools():
            count = profile[what]
            for key, v in pool.items():
                total += v * count.get(key, 0)
        return total

    def objective(self):
        """Exact dual objective."""
        return Fraction(self._price())

    def objective_bounded_delta(self, q):
        """Objective with the delta term replaced by the tail union bound
        min{d^t - k, k(d^(n-q) - 1)}; delta must be the indicator of
        j(v) >= q: 1 at the labels q + theta .. N - 1, and nothing else."""
        inst = self.instance
        check_family(inst.n, inst.t, q)
        if self.delta != _ones(q + inst.theta, inst.n + inst.theta):
            raise ValueError("delta is not the q-tail indicator")
        cap = min(inst.d ** inst.t - inst.k,
                  inst.k * (inst.d ** (inst.n - q) - 1))
        # union_b_tail(q) is the delta term's true tail, profile["delta"]
        # summed over j >= q
        return Fraction(self._price() + cap - inst.sets.union_b_tail(q))


def _exact(what, key, v):
    """v as an exact dual value: an int stays an int, any other number
    becomes a Fraction; anything else is a ValueError naming the pool."""
    if type(v) is int:
        return v
    if isinstance(v, Number):
        try:
            return Fraction(v)
        except (OverflowError, TypeError, ValueError):
            pass
    raise ValueError("%s[%r] = %r is not a finite number" % (what, key, v))


def dual_family(instance, p, q):
    """The two-parameter dual-feasible family.

    p shapes epsilon/alpha/beta, q shapes gamma/delta; a crosstalk family
    at (n, p, q) is the link family at (n + 1, p, q + 1), p = n - t
    included.  Its pools are fresh copies of cached shapes, free to change.
    """
    n, t, theta = instance.n, instance.t, instance.theta
    check_family(n, t, q, p, theta)
    alpha, gamma, delta, eps, beta = _family_shape(n + theta, t, p,
                                                   q + theta)
    return DualSolution._from_pools(instance, alpha.copy(), gamma.copy(),
                                    delta.copy(), eps.copy(), beta.copy())


@lru_cache(maxsize=1024)
def _family_shape(n, t, p, q):
    """The family's (alpha, gamma, delta, epsilon, beta) pools at one point,
    in the form `DualSolution` gives them: the support alone, every value
    the int 1.  Each is held once for every point that has it, so an entry
    is five references; callers copy the pools and never change them."""
    jhi, beta = _beta_shape(n, t, p)
    gamma = (0, 0) if q == n - t else (n - q + 1, n - p)
    return _ones(jhi, n - t), _ones(*gamma), _ones(q, n), _ones(n - p, n), beta


@lru_cache(maxsize=256)
def _beta_shape(n, t, p):
    """The window class jhi where the family's alpha begins, and its beta
    pool."""
    # beta covers the window classes j in [p + 1, jhi), alpha those above
    if t >= n // 2:
        jhi = n - t
    elif p + 1 <= t:
        jhi = t + 1
    else:
        jhi = p + 1
    return jhi, {(i, j): 1 for j in range(p + 1, jhi)
                 for i in range(n - j, n - p)}


@lru_cache(maxsize=256)
def _ones(lo, hi):
    """The pool that is 1 on lo .. hi-1: the family's alpha, gamma, delta
    and epsilon are each one such run."""
    return dict.fromkeys(range(lo, hi), 1)


def check_weak_duality(primal, dual):
    """Feasibility-check both sides, then return the (nonnegative) gap."""
    a, b = primal.instance, dual.instance
    if (a.d, a.n, a.t, a.f, a.mode, a.a, a.B) != \
            (b.d, b.n, b.t, b.f, b.mode, b.a, b.B):
        raise ValueError("primal and dual built for different instances")
    primal.check_feasible()
    dual.check_feasible()
    return dual.objective() - primal.objective()


def family_cost(instance, p, q):
    """Closed-form cost the family's bounded objective must equal."""
    fn = bounds.c_cost if instance.theta == 0 else bounds.g_cost
    return fn(instance.d, instance.n, instance.t, instance.f, instance.k,
              p, q)


# -- exact LP solver ----------------------------------------------------------


def solve_packing(A, b, c):
    """Maximize b.y subject to A y <= c and y >= 0, for c >= 0, exactly: a
    one-phase tableau simplex with Bland's rule from y = 0, in ints until a
    pivot divides.  Returns (value, y, x), x an optimal dual (A^T x >= b,
    x >= 0, c.x = value) read off the slack columns' reduced costs.  Raises
    ValueError when c has a negative entry or the LP is unbounded."""
    rows, cols = len(A), len(b)
    if any(v < 0 for v in c):
        raise ValueError("need c >= 0")
    # row r: A[r] | identity | c[r]; the last row holds the reduced costs
    tab = [list(A[r]) + [int(r == s) for s in range(rows)] + [c[r]]
           for r in range(rows)] + [[-v for v in b] + [0] * (rows + 1)]
    basis, z = list(range(cols, cols + rows)), tab[-1]
    while True:
        enter = next((j for j, v in enumerate(z[:-1]) if v < 0), None)
        if enter is None:
            break
        ratios = [(Fraction(tab[r][-1]) / tab[r][enter], basis[r], r)
                  for r in range(rows) if tab[r][enter] > 0]
        if not ratios:
            raise ValueError("unbounded LP")
        r = min(ratios)[2]
        prow = tab[r]
        if prow[enter] != 1:
            inv = 1 / Fraction(prow[enter])
            tab[r] = prow = [v * inv for v in prow]
        nonzero = [(j, w) for j, w in enumerate(prow) if w]
        for row in tab:
            k = row[enter]
            if k and row is not prow:
                for j, w in nonzero:
                    row[j] -= k * w
        basis[r] = enter
    at = dict(zip(basis, tab))
    y = [Fraction(at[j][-1] if j in at else 0) for j in range(cols)]
    return Fraction(z[-1]), y, [Fraction(v) for v in z[cols:-1]]


def lp_optimum(instance):
    """(optimum, optimal DualSolution) of the blocking LP, by `solve_packing`
    on its (i, j) classes: a column per class in `classes_uw` + `classes_uv`
    and a row per class dual a column sits in (alpha[j], beta[i, j] and
    epsilon[i] for a (u, w) class; gamma[i], delta[j] and epsilon[i] for a
    (u, v) class), capped at that dual's count in `profile`.  Its optimum is
    the per-address LP's: a per-address solution summed over each class
    meets every class row, and a class solution spread evenly over each
    class's members meets every per-address row of `_ROWS`.  Its dual, one
    value per class, is a per-address dual."""
    inst = instance
    cols = ([(("alpha", j), ("beta", (i, j)), ("epsilon", i))
             for i, j in inst.classes_uw]
            + [(("gamma", i), ("delta", j), ("epsilon", i))
               for i, j in inst.classes_uv])
    rows = dict.fromkeys(key for col in cols for key in col)
    value, _, x = solve_packing(
        [[int(key in col) for col in cols] for key in rows], [1] * len(cols),
        [inst.profile[what][key] for what, key in rows])
    # in the order of the constructor's arguments
    pools = {what: {} for what in ("alpha", "beta", "gamma", "delta",
                                   "epsilon")}
    for (what, key), v in zip(rows, x):
        pools[what][key] = v
    return value, DualSolution(inst, *pools.values())
