"""Blocking LP instances, dual certificates, and weak-duality checking.

For a request (a, B) in the windowed multi-plane network, the number of
planes unable to carry the request is at most the optimum of a small LP
whose variables count potentially blocking foreign branches.  Any feasible
solution of the dual LP therefore upper-bounds the blocking-plane count.
This module builds the instance, extracts a feasible primal point from a
simulator state, generates the two-parameter family of dual-feasible
solutions whose objective values the closed-form plane-count tables are
the minima of, and verifies feasibility plus weak duality in exact
rational arithmetic.

Everything class-level here exploits that both the dual constraints and the
family's variable values depend on an input u only through its suffix index
i(u), and on a window or output only through its prefix index j.
"""

from fractions import Fraction
from functools import cached_property

from .dary import (AddressSets, all_strings, canonical_sets, window_index,
                   window_outputs)
from .banyan import shares_se, shares_link
from . import bounds
from .bounds import LINK, CROSSTALK

_THETA = {LINK: 0, CROSSTALK: 1}


class Infeasible(Exception):
    """A solution violates a constraint; the message names it."""


class LpInstance:
    """One concrete blocking LP: parameters, request, defined index sets.

    Only the (i, j) classes are built up front.  The variable lists
    (`inputs`, `windows`, `spare`, `uw_pairs`, `uv_pairs`) enumerate
    addresses and are built when first read, which only `export_lp` does.
    """

    def __init__(self, d, n, t, f, a, B, mode=LINK):
        if mode not in _THETA:
            raise ValueError("mode must be %r or %r" % (LINK, CROSSTALK))
        self.d, self.n, self.t, self.f = d, n, t, f
        self.mode = mode
        self.theta = _THETA[mode]
        self.sets = s = AddressSets(a, B, t)
        self.a = a
        self.B = s.B
        self.k = len(self.B)
        if self.k > f:
            raise ValueError("|B|=%d exceeds fanout bound %d" % (self.k, f))
        self.home = s.home_window
        self._thresh = thresh = n - self.theta
        ins = [i for i in range(n) if s.a_count(i)]
        wins = [j for j in range(n - t) if s.window_count(j)]
        outs = [j for j in range(n) if s.output_count(j)]
        self._classes_uw = [(i, j) for i in ins for j in wins
                            if i + j >= thresh]
        self._classes_uv = [(i, j) for i in ins for j in outs
                            if i + j >= thresh]

    def defined_classes_uw(self):
        """(i, j) pairs with at least one defined (u, w) variable."""
        return self._classes_uw

    def defined_classes_uv(self):
        return self._classes_uv

    def defined_uw(self, u, w):
        """Whether x_(u,w) is a variable: u != a, w a foreign window and
        i(u) + j(w) >= n - theta."""
        try:
            i, j = self.sets.i_of(u), self.sets.j_of_window(w)
        except ValueError:
            return False
        return i is not None and j is not None and i + j >= self._thresh

    def defined_uv(self, u, v):
        """Whether x_(u,v) is a variable: u != a, v in the home window but
        not in B, and i(u) + j(v) >= n - theta."""
        try:
            i, j = self.sets.i_of(u), self.sets.j_of_output(v)
        except ValueError:
            return False
        return i is not None and j is not None and i + j >= self._thresh

    @cached_property
    def inputs(self):
        return [u for u in all_strings(self.d, self.n) if u != self.a]

    @cached_property
    def windows(self):
        return [w for w in range(self.d ** (self.n - self.t))
                if w != self.home]

    @cached_property
    def spare(self):
        return [v for v in window_outputs(self.d, self.n, self.t, self.home)
                if v not in self.B]

    @cached_property
    def uw_pairs(self):
        return [(u, w) for u in self.inputs for w in self.windows
                if self.defined_uw(u, w)]

    @cached_property
    def uv_pairs(self):
        return [(u, v) for u in self.inputs for v in self.spare
                if self.defined_uv(u, v)]


def canonical_instance(d, n, t, f, k, mode=LINK):
    """Instance for the canonical request a = 0^n, B = first k of window 0."""
    sets = canonical_sets(d, n, t, k)
    return LpInstance(d, n, t, f, sets.a, sets.B, mode)


class PrimalSolution:
    def __init__(self, instance, xw=None, xv=None):
        self.instance = instance
        self.xw = dict(xw or {})   # (u, w) -> value
        self.xv = dict(xv or {})   # (u, v) -> value

    def objective(self):
        return sum(self.xw.values()) + sum(self.xv.values())

    def check_feasible(self):
        inst = self.instance
        for key, val in self.xw.items():
            if not inst.defined_uw(*key):
                raise Infeasible(_var_uw(*key) + " undefined")
            if val < 0:
                raise Infeasible(_var_uw(*key) + " negative")
            if val > 1:
                raise Infeasible(_var_uw(*key) + " > 1")
        for key, val in self.xv.items():
            if not inst.defined_uv(*key):
                raise Infeasible(_var_uv(*key) + " undefined")
            if val < 0:
                raise Infeasible(_var_uv(*key) + " negative")
        per_w = {}
        per_u_v = {}
        per_v = {}
        per_u_mixed = {}
        for (u, w), val in self.xw.items():
            per_w[w] = per_w.get(w, 0) + val
            per_u_mixed[u] = per_u_mixed.get(u, 0) + val
        for (u, v), val in self.xv.items():
            per_u_v[u] = per_u_v.get(u, 0) + val
            per_v[v] = per_v.get(v, 0) + val
            per_u_mixed[u] = per_u_mixed.get(u, 0) + val
        for w, total in per_w.items():
            if total > inst.d ** inst.t:
                raise Infeasible("window capacity at w=%d" % w)
        for u, total in per_u_v.items():
            if total > 1:
                raise Infeasible("per-input home spread at u=%d" % u.value())
        for v, total in per_v.items():
            if total > 1:
                raise Infeasible("output multiplicity at v=%d" % v.value())
        for u, total in per_u_mixed.items():
            if total > inst.f:
                raise Infeasible("fanout at u=%d" % u.value())
        return True


def primal_from_state(conn, a, B):
    """Read one blocking branch per blocking plane out of a simulator state.

    Returns (instance, primal); the primal objective equals the number of
    planes on which the request (a, B) cannot be routed as one subrequest.
    """
    cfg = conn.config
    inst = LpInstance(cfg.d, cfg.n, cfg.t, cfg.f, a, frozenset(B), cfg.mode)
    pred = shares_link if cfg.mode == LINK else shares_se
    xw, xv = {}, {}
    for plane in range(cfg.m):
        branch = next(((u, rt.output)
                       for u, admitted in conn.requests.values() if u != a
                       for pl, routes in admitted.values() if pl == plane
                       for rt in routes
                       if any(pred(a, b, u, rt.output) for b in inst.B)),
                      None)
        if branch is None:
            continue
        u, v = branch
        if window_index(v, cfg.t) == inst.home:
            if v in inst.B:
                raise ValueError("request output %s already owned" % v)
            xv[u, v] = 1
        else:
            xw[u, window_index(v, cfg.t)] = 1
    primal = PrimalSolution(inst, xw, xv)
    primal.check_feasible()
    return inst, primal


class DualSolution:
    """Dual variables stored per class: alpha/beta keyed by window index j
    and (i, j); gamma/epsilon keyed by i(u); delta keyed by j(v)."""

    def __init__(self, instance, alpha=None, beta=None, gamma=None,
                 delta=None, eps=None, label=""):
        self.instance = instance
        n, t = instance.n, instance.t
        self.alpha = {j: Fraction(0) for j in range(n - t)}
        self.beta = {}
        self.gamma = {i: Fraction(0) for i in range(n)}
        self.delta = {j: Fraction(0) for j in range(n)}
        self.eps = {i: Fraction(0) for i in range(n)}
        self.label = label
        for src, dst in ((alpha, self.alpha), (gamma, self.gamma),
                         (delta, self.delta), (eps, self.eps),
                         (beta, self.beta)):
            if src:
                dst.update({k: Fraction(v) for k, v in src.items()})

    def check_feasible(self):
        inst = self.instance
        for pool, what in ((self.alpha, "alpha"), (self.gamma, "gamma"),
                           (self.delta, "delta"), (self.eps, "epsilon"),
                           (self.beta, "beta")):
            for key, val in pool.items():
                if val < 0:
                    raise Infeasible("%s[%r] negative" % (what, key))
        for i, j in inst.defined_classes_uw():
            if self.alpha[j] + self.beta.get((i, j), 0) + self.eps[i] < 1:
                raise Infeasible("DC-1 violated at class i=%d, j(w)=%d"
                                 % (i, j))
        for i, j in inst.defined_classes_uv():
            if self.gamma[i] + self.delta[j] + self.eps[i] < 1:
                raise Infeasible("DC-2 violated at class i=%d, j(v)=%d"
                                 % (i, j))
        return True

    def objective(self):
        """Exact dual objective for the concrete request."""
        inst = self.instance
        s = inst.sets
        dt = inst.d ** inst.t
        beta = self.beta
        terms = ([(v, dt * s.window_count(j)) for j, v in self.alpha.items()]
                 + [(beta[c], s.a_count(c[0]) * s.window_count(c[1]))
                    for c in inst.defined_classes_uw() if c in beta]
                 + [(v, s.a_count(i)) for i, v in self.gamma.items()]
                 + [(v, s.output_count(j)) for j, v in self.delta.items()]
                 + [(v, inst.f * s.a_count(i)) for i, v in self.eps.items()])
        # zero duals are most of them; skipping them saves the Fraction ops
        return sum((v * c for v, c in terms if v), Fraction(0))

    def objective_bounded_delta(self, q):
        """Objective with the delta term replaced by the tail union bound
        min{d^t - k, k(d^(n-q) - 1)}; only meaningful when delta is the
        indicator of j(v) >= q."""
        inst = self.instance
        if any(self.delta[j] != (j >= q) for j in range(inst.n)):
            raise ValueError("delta is not the q-tail indicator")
        true_tail = sum(inst.sets.output_count(j) * self.delta[j]
                        for j in range(inst.n))
        cap = min(inst.d ** inst.t - inst.k,
                  inst.k * (inst.d ** (inst.n - q) - 1))
        return self.objective() - true_tail + cap


def dual_family(instance, p, q):
    """The two-parameter dual-feasible family.

    p shapes epsilon/alpha/beta, q shapes gamma/delta; thresholds shift by
    one between link and crosstalk modes.
    """
    n, t, d = instance.n, instance.t, instance.d
    theta = instance.theta
    if not (0 <= p <= n - t - 1):
        raise ValueError("p=%d out of [0, %d]" % (p, n - t - 1))
    if not (n - t <= q <= n):
        raise ValueError("q=%d out of [%d, %d]" % (q, n - t, n))

    eps = {i: 1 for i in range(n - p, n)}
    alpha, beta = {}, {}
    half = (n // 2) if theta == 0 else -(-n // 2)
    jlo = p + 1 - theta
    if t >= half:
        for j in range(jlo, n - t):
            for i in range(n - theta - j, n - p):
                beta[i, j] = 1
    elif p + 1 <= t:
        for j in range(jlo, t - theta + 1):
            for i in range(n - theta - j, n - p):
                beta[i, j] = 1
        for j in range(t + 1 - theta, n - t):
            alpha[j] = 1
    else:
        for j in range(jlo, n - t):
            alpha[j] = 1

    gamma, delta = {}, {}
    if q == n - t:
        for j in range(n - t, n):
            delta[j] = 1
    else:
        for j in range(q, n):
            delta[j] = 1
        for i in range(n - q + 1 - theta, n - p):
            gamma[i] = 1

    sol = DualSolution(instance, alpha=alpha, beta=beta, gamma=gamma,
                       delta=delta, eps=eps,
                       label="family(p=%d,q=%d)" % (p, q))
    sol.p, sol.q = p, q
    return sol


def dual_special_t_eq_n(instance, variant=None):
    """The whole-network (t = n) certificates behind the strict-sense
    corollaries; variant "high" is the large-fanout branch, "low" the
    small-fanout one, default picked from f."""
    inst = instance
    n, d, f, k = inst.n, inst.d, inst.f, inst.k
    if inst.t != n:
        raise ValueError("t=%d, need t=n" % inst.t)
    r = bounds.ilog(d, f)
    if inst.theta == 0:
        thresh = d ** (n - 2)
        if variant is None:
            variant = "high" if f > thresh else "low"
        if variant == "high":
            gamma = {i: 1 for i in range(1, n)}
            sol = DualSolution(inst, gamma=gamma, label="t=n high")
        else:
            q = (n + r) // 2 + 1
            gamma = {i: 1 for i in range(n - q + 1, n)}
            delta = {j: 1 for j in range(q, n)}
            sol = DualSolution(inst, gamma=gamma, delta=delta,
                               label="t=n low(q=%d)" % q)
            sol.q = q
    else:
        thresh = d ** (n - 2) * (d - 1)
        if variant is None:
            variant = "high" if f > thresh else "low"
        if variant == "high":
            delta = {j: 1 for j in range(n)}
            sol = DualSolution(inst, delta=delta, label="t=n cf high")
        else:
            p_hat = -(-(n - r - 1) // 2)
            gamma = {i: 1 for i in range(p_hat, n)}
            delta = {j: 1 for j in range(n - p_hat, n)}
            sol = DualSolution(inst, gamma=gamma, delta=delta,
                               label="t=n cf low(p=%d)" % p_hat)
            sol.q = n - p_hat
    sol.variant = variant
    return sol


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


# -- LP text export -----------------------------------------------------------


def _var_uw(u, w):
    return "x_u%d_w%d" % (u.value(), w)


def _var_uv(u, v):
    return "x_u%d_v%d" % (u.value(), v.value())


def export_lp(instance):
    """Serialize the primal LP in plain LP-file format."""
    inst = instance
    names_uw = [(_var_uw(u, w), u, w) for u, w in inst.uw_pairs]
    names_uv = [(_var_uv(u, v), u, v) for u, v in inst.uv_pairs]
    all_names = sorted(x[0] for x in names_uw + names_uv)
    lines = ["\\ blocking LP d=%d n=%d t=%d f=%d k=%d mode=%s"
             % (inst.d, inst.n, inst.t, inst.f, inst.k, inst.mode),
             "Maximize",
             " obj: " + " + ".join(all_names) if all_names
             else " obj: 0 x_none",
             "Subject To"]
    per_w, per_u_home, per_v, per_u_all = {}, {}, {}, {}
    for name, u, w in names_uw:
        per_w.setdefault(w, []).append(name)
        per_u_all.setdefault(u, []).append(name)
    for name, u, v in names_uv:
        per_u_home.setdefault(u, []).append(name)
        per_v.setdefault(v, []).append(name)
        per_u_all.setdefault(u, []).append(name)
    for w in sorted(per_w):
        lines.append(" cap_w%d: %s <= %d"
                     % (w, " + ".join(sorted(per_w[w])), inst.d ** inst.t))
    for name, u, w in sorted(names_uw):
        lines.append(" one_%s: %s <= 1" % (name[2:], name))
    for u in sorted(per_u_home):
        lines.append(" spread_u%d: %s <= 1"
                     % (u.value(), " + ".join(sorted(per_u_home[u]))))
    for v in sorted(per_v, key=lambda v: v.value()):
        lines.append(" own_v%d: %s <= 1"
                     % (v.value(), " + ".join(sorted(per_v[v]))))
    for u in sorted(per_u_all):
        lines.append(" fan_u%d: %s <= %d"
                     % (u.value(), " + ".join(sorted(per_u_all[u])), inst.f))
    lines.append("Bounds")
    for name in all_names:
        lines.append(" 0 <= %s" % name)
    lines.append("End")
    return "\n".join(lines) + "\n"


def parse_lp(text):
    """Minimal reference parser for the exported format; returns a dict with
    objective variable list and constraints as (name, vars, rhs) triples."""
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("\\")]
    out = {"objective": [], "constraints": [], "bounds": []}
    section = None
    for ln in lines:
        word = ln.strip()
        if word in ("Maximize", "Subject To", "Bounds", "End"):
            section = word
            continue
        if section == "Maximize":
            _, _, rhs = word.partition(":")
            out["objective"] = [v.strip() for v in rhs.split("+")]
        elif section == "Subject To":
            name, _, rest = word.partition(":")
            expr, _, rhs = rest.rpartition("<=")
            out["constraints"].append(
                (name.strip(), [v.strip() for v in expr.split("+")],
                 int(rhs)))
        elif section == "Bounds":
            out["bounds"].append(word.split("<=")[-1].strip())
    return out
