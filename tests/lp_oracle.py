"""Test-side references for the plane-count bounds and the exact LPs.

`sufficient_m_enumerated` is the ground truth the bound tables are checked
against: the family's max-min over the whole discrete (k, p, q) grid.
`row_tight_enumerated` scans every k for one table row's tight value.  `h`
and `hbar` are the monotone helper forms of the derivation.  `wang07`,
`danilewicz` and `cf_wsnb_window` are published plane counts the tables
specialize to, and `dual_special_t_eq_n` builds the whole-network (t = n)
certificates; no command reads them.  `family_loops` builds the
two-parameter dual family point by point, as the link family at n + theta
on the instance's class labels, and `objective_summed` and
`bounded_delta_summed` price a dual with one term per nonzero value, as
`lpcert` did before it cached the family's shape and shared one sum
between its two objectives.  `solve_enumerated` solves the blocking LP
address by address, over the variables `oracle_pairs` enumerates and the
rows `LpInstance.rows_of` puts them in (`address_rows`), against which
`lpcert.lp_optimum`'s class LP is checked.  `derive_constants_enumerated`
solves the coloring LP by trying every basis.
"""

from fractions import Fraction
import itertools

from switchlp.bounds import LINK, _ilog as ilog, c_cost, g_cost
from switchlp.dary import frac_pow
from switchlp.dwec import DwecScheme
from switchlp.lpcert import DualSolution, solve_packing

from address_oracle import EnumeratedAddressSets


def sufficient_m_enumerated(d, n, t, f, mode):
    """Ground truth 1 + max_k min_{p,q} cost over the whole discrete grid."""
    cost = c_cost if mode == LINK else g_cost
    return 1 + max(min(cost(d, n, t, f, k, p, q)
                       for p in range(n - t) for q in range(n - t, n + 1))
                   for k in range(1, min(f, d ** t) + 1))


def row_tight_enumerated(d, n, t, f, p):
    """max_k min_q g_cost(k, p, q) for one p clamped into range, by
    scanning every k."""
    p = max(0, min(p, n - t - 1))
    return Fraction(max(min(g_cost(d, n, t, f, k, p, q)
                            for q in range(n - t, n + 1))
                        for k in range(1, min(f, d ** t) + 1)))


def h(d, n, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    e = (n + ilog(d, k)) // 2
    return Fraction(d ** e) + k * (frac_pow(d, n - e - 1) - 1)


def hbar(d, n, k):
    if k < 1:
        raise ValueError("k must be >= 1")
    e = (ilog(d, k) + n + 1) // 2
    return Fraction(d ** e) + k * (frac_pow(d, n - e) - 1)


def wang07(d, n, f):
    """Strictly nonblocking f-cast plane count (window size 1)."""
    if not 1 <= f <= d ** n:
        raise ValueError("f out of range")
    r = ilog(d, f)
    c = -(-(n - r) // 2)
    return f * (frac_pow(d, c - 1) - 1) + d ** (n - c)


def danilewicz(d, n, t):
    """Multicast WSNB plane count under the window algorithm (link blocking)."""
    if not 0 <= t <= n - 1:
        raise ValueError("t out of range")
    if t <= n // 2 - 1:
        return d ** (n - 2 * t - 1) + t * d ** (n - t - 1) * (d - 1)
    return (Fraction(d ** (n - t - 1)) * ((d - 1) * (n - t - 1) - 1)
            + d ** t - frac_pow(d, 2 * t - n - 1) * (d - 1) + 1)


def cf_wsnb_window(d, n, t):
    """Multicast crosstalk-free WSNB plane count under the window algorithm."""
    if not 0 <= t <= n - 1:
        raise ValueError("t out of range")
    if 2 * t < n:
        return d ** (n - 2 * t) + t * d ** (n - t) * (d - 1)
    if 2 * t == n:
        return d ** (n - t) * ((n - t) * (d - 1) - 1) + d ** t + 1
    return (Fraction(d ** (n - t)) * ((n - t) * (d - 1) - 1)
            + d ** t - frac_pow(d, 2 * t - n - 2) * (d - 1) + 1)


def dual_special_t_eq_n(instance):
    """The whole-network (t = n) certificates behind the strict-sense
    corollaries; k = |B| picks the branch, reported as `variant`: "high"
    for the large-fanout one, "low" for the small-fanout one.  Chosen by k,
    each is priced at most the corollary's count less one; chosen by f, the
    crosstalk ones can exceed it.  The duals are keyed by class labels, the
    link classes at N = n + theta: the crosstalk "low" dual is the link one
    at N, and only the "high" ones depend on the mode."""
    inst = instance
    n, d, k, theta = inst.n, inst.d, inst.k, inst.theta
    if inst.t != n:
        raise ValueError("t=%d, need t=n" % inst.t)
    N, r = n + theta, ilog(d, k)
    high = k > frac_pow(d, n - 2) * (d - 1 if theta else 1)
    if not high:
        q = (N + r) // 2 + 1
        gamma = {i: 1 for i in range(N - q + 1, N)}
        delta = {j: 1 for j in range(q, N)}
        sol = DualSolution(inst, gamma=gamma, delta=delta)
    elif theta == 0:
        sol = DualSolution(inst, gamma={i: 1 for i in range(1, n)})
    else:
        sol = DualSolution(inst, delta={j: 1 for j in range(1, N)})
    sol.variant = "high" if high else "low"
    return sol


def family_loops(instance, p, q):
    """`lpcert.dual_family` built in loops through the normalising
    `DualSolution` constructor: the link family at N = n + theta and
    q + theta, on the instance's class labels."""
    n, t, theta = instance.n, instance.t, instance.theta
    if not (0 <= p <= n - t - 1):
        raise ValueError("p=%d out of [0, %d]" % (p, n - t - 1))
    if not (n - t <= q <= n):
        raise ValueError("q=%d out of [%d, %d]" % (q, n - t, n))
    n, q = n + theta, q + theta

    eps = {i: 1 for i in range(n - p, n)}
    alpha, beta = {}, {}
    if t >= n // 2:
        for j in range(p + 1, n - t):
            for i in range(n - j, n - p):
                beta[i, j] = 1
    elif p + 1 <= t:
        for j in range(p + 1, t + 1):
            for i in range(n - j, n - p):
                beta[i, j] = 1
        for j in range(t + 1, n - t):
            alpha[j] = 1
    else:
        for j in range(p + 1, n - t):
            alpha[j] = 1

    gamma, delta = {}, {}
    if q == n - t:
        for j in range(n - t, n):
            delta[j] = 1
    else:
        for j in range(q, n):
            delta[j] = 1
        for i in range(n - q + 1, n - p):
            gamma[i] = 1

    return DualSolution(instance, alpha=alpha, beta=beta, gamma=gamma,
                        delta=delta, eps=eps)


def objective_summed(sol):
    """The exact dual objective as one generator sum over every nonzero
    value; a key with no class prices at 0."""
    profile = sol.instance.profile
    return Fraction(sum(v * profile[what].get(key, 0)
                        for what, pool in sol._pools()
                        for key, v in pool.items() if v))


def bounded_delta_summed(sol, q):
    """`objective_summed` with the delta term's true tail, summed from the
    profile, replaced by min{d^t - k, k(d^(n-q) - 1)}; the same refusals
    as `DualSolution.objective_bounded_delta` for an integer q.  Delta must
    be 1 at every class label from q + theta to N = n + theta and hold
    nothing else: a value at any other key is refused."""
    inst = sol.instance
    if not inst.n - inst.t <= q <= inst.n:
        raise ValueError("q=%d: need integer %d <= q <= %d"
                         % (q, inst.n - inst.t, inst.n))
    lo, hi = q + inst.theta, inst.n + inst.theta
    if sol.delta != {j: 1 for j in range(lo, hi)}:
        raise ValueError("delta is not the q-tail indicator")
    true_tail = sum(c for j, c in inst.profile["delta"].items() if j >= lo)
    cap = min(inst.d ** inst.t - inst.k,
              inst.k * (inst.d ** (inst.n - q) - 1))
    return objective_summed(sol) + (cap - true_tail)


def oracle_pairs(inst):
    """The (u, w) and (u, v) pairs that are variables of `inst`, as the
    address oracle enumerates them."""
    ref = EnumeratedAddressSets(inst.d, inst.n, inst.a, inst.B, inst.t)
    thresh = inst.n - inst.theta
    return ref.uw_pairs(thresh), ref.uv_pairs(thresh)


def address_rows(inst):
    """The per-address LP over the oracle's pairs: each (rank, key, bound)
    row `rows_of` puts a pair in, mapped to the (kind, u, z) it holds."""
    uw_pairs, uv_pairs = oracle_pairs(inst)
    rows = {}
    for kind, pairs in (("w", uw_pairs), ("v", uv_pairs)):
        for u, z in pairs:
            for row in inst.rows_of(kind, u, z):
                rows.setdefault(row, []).append((kind, u, z))
    return rows


def solve_enumerated(inst):
    """Optimum of the per-address LP, one column per pair of
    `oracle_pairs` and one row per row of `address_rows`, by the exact
    simplex; y and x are checked here as a primal and a dual that certify
    it."""
    uw_pairs, uv_pairs = oracle_pairs(inst)
    names = {var: col for col, var in enumerate(
        [("w", *pair) for pair in uw_pairs]
        + [("v", *pair) for pair in uv_pairs])}
    lp = address_rows(inst)
    rows = [[names[var] for var in used] for used in lp.values()]
    c = [bound for _, _, bound in lp]
    A = [[0] * len(names) for _ in rows]
    for dense, row in zip(A, rows):
        for col in row:
            dense[col] = 1
    value, y, x = solve_packing(A, [1] * len(names), c)
    assert min(y, default=0) >= 0 and sum(y) == value
    assert all(sum(y[col] for col in row) <= cap for row, cap in zip(rows, c))
    covered = [0] * len(names)
    for row, price in zip(rows, x):
        for col in row:
            covered[col] += price
    assert min(x, default=0) >= 0 and min(covered, default=1) >= 1
    assert sum(cap * price for cap, price in zip(c, x)) == value
    return value


def derive_constants_enumerated(breakpoints):
    """(objective, x) of the coloring LP, minimize sum(x) subject to
    x_0 >= 2, the blocking rows and x >= 0, by solving every square
    subsystem of K constraints and keeping the best feasible solution (the
    first one found among equals)."""
    scheme = DwecScheme(breakpoints)
    K = scheme.num_types
    # constraints as (coeffs, rhs) meaning coeffs . x >= rhs
    cons = [((Fraction(1),) + (Fraction(0),) * (K - 1), Fraction(2))]
    for i, row in enumerate(scheme.constraint_rows(), start=1):
        coeffs = [Fraction(0)] * K
        coeffs[i:] = row
        cons.append((tuple(coeffs), Fraction(2)))
    for j in range(K):
        coeffs = [Fraction(0)] * K
        coeffs[j] = Fraction(1)
        cons.append((tuple(coeffs), Fraction(0)))
    best = None
    for combo in itertools.combinations(cons, K):
        sol = _solve_square([c for c, _ in combo], [r for _, r in combo])
        if sol is None or any(sum(c * v for c, v in zip(coeffs, sol)) < rhs
                              for coeffs, rhs in cons):
            continue
        if best is None or sum(sol) < best[0]:
            best = (sum(sol), tuple(sol))
    return best


def _solve_square(matrix, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    n = len(rhs)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]
