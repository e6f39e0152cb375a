"""Closed-form sufficient conditions for nonblocking operation, exact rationals.

Two families live here.  The cost functions c_cost/g_cost give the dual
objective of the parameterized certificate family for one (k, p, q); the
upper-bound tables C_bound/G_bound collapse the max-min over (k, p, q) into
printed case formulas.  Each table's rows partition (t, r = floor(log_d f)),
G6 and G7 splitting one strip on f, so a case tree reaches exactly one row.
Crosstalk shifts every threshold by one, so most G rows reuse C terms at n + 1,
and the t = n crosstalk count below its large-f branch is the link count at
n + 1.  The unicast count is the t = n link count at f = 1."""

from collections import namedtuple
from fractions import Fraction
import math

from .dary import frac_pow
from .events import check_family, check_range, check_sizes

LINK = "link"
CROSSTALK = "crosstalk"
_THETA = {LINK: 0, CROSSTALK: 1}  # crosstalk's thresholds shift by one


def theta_of(mode):
    """The mode's threshold shift; ValueError unless LINK or CROSSTALK."""
    try:
        return _THETA[mode]
    except (KeyError, TypeError):
        raise ValueError("unknown mode %r" % (mode,)) from None


BoundResult = namedtuple("BoundResult", ["value", "m_sufficient", "branch"])


def _ilog(d, f):
    """floor(log_d f) for a d and f that `check_sizes` has passed."""
    r, power = 0, d
    while power <= f:
        r, power = r + 1, power * d
    return r


# ---------------------------------------------------------------- Clos forms

# The published four-type coloring scheme's type breakpoints and class-size
# constants x_0..x_3; `dwec.FOUR_TYPE` is built from them.
FOUR_TYPE_BREAKPOINTS = (Fraction(1, 2), Fraction(2, 5), Fraction(1, 3))
FOUR_TYPE_X = (Fraction(2), Fraction(3, 8), Fraction(3, 10), Fraction(3))


def clos_snb(n):
    """Middle crossbars sufficient for a symmetric 3-stage Clos to be SNB."""
    check_range("n", n, 1)
    return 2 * n - 1


def clos_wsnb_r2(n):
    """Sufficient count under the reuse rule for the 2x2-crossbar-stage case."""
    check_range("n", n, 1)
    return (3 * n) // 2


def clos_multirate(n, scheme="four_type"):
    """Middle crossbars for multirate WSNB via the edge-coloring reduction.

    four_type sums the scheme's class sizes ceil(x_i * n), both running
    maxima capped at n; five_type_paper is the published headline constant
    taken verbatim.
    """
    check_range("n", n, 1)
    if scheme == "four_type":
        return sum(math.ceil(x * n) for x in FOUR_TYPE_X)
    if scheme == "five_type_paper":
        headline = Fraction(56355, 10000)  # published as 5.6355
        return math.ceil(headline * n) + 4
    raise ValueError("unknown scheme %r" % scheme)


# ------------------------------------------------------------ t = n and unicast

def hwang_unicast(d, n):
    return snb_fcast_t_eq_n(d, n, 1)


def snb_fcast_t_eq_n(d, n, f):
    """SNB f-cast plane count when the fanout stage cannot branch (t = n)."""
    check_sizes(d, n, n, f)
    if f > frac_pow(d, n - 2):
        return d ** (n - 1)
    return _fanout(d, n, f, _ilog(d, f))


def cf_snb_fcast_t_eq_n(d, n, f):
    """Crosstalk-free snb_fcast_t_eq_n: the link count at n + 1 below the
    large-f branch, whose value is rounded up (d - (d-1)/d at n = 1)."""
    check_sizes(d, n, n, f)
    spill = frac_pow(d, n - 2) * (d - 1)
    if f > spill:
        return math.ceil(d ** n - spill)
    return _fanout(d, n + 1, f, _ilog(d, f))


def _fanout(d, n, f, r):
    """The t = n link count below its large-f branch, r = _ilog(d, f)."""
    e = (n + r) // 2
    return d ** e + f * (d ** (n - e - 1) - 1)


# ------------------------------------------------------------- cost functions

def c_cost(d, n, t, f, k, p, q):
    """Dual objective of the certificate family, link-blocking mode."""
    check_sizes(d, n, t, f, k)
    check_family(n, t, q, p)
    return _cost(d, n, t, f, k, p, q)


def g_cost(d, n, t, f, k, p, q):
    """Dual objective, crosstalk-free mode: the link cost at n + 1, q + 1."""
    check_sizes(d, n, t, f, k)
    check_family(n, t, q, p)
    return _cost(d, n + 1, t, f, k, p, q + 1)


def _cost(d, n, t, f, k, p, q):
    """The link family's dual objective, for arguments already checked."""
    base = f * (d ** p - 1)
    tail_min = min(d ** t - k, k * (d ** (n - q) - 1))
    if t >= n // 2:
        core = base + (n - t - 1 - p) * (d ** (n - t) - d ** (n - t - 1)) - d ** (n - t - 1)
        if q == n - t:
            return core + d ** p + d ** t - k
        return core + d ** (q - 1) + tail_min
    if p + 1 <= t:
        core = base + (t - p) * (d ** (n - t) - d ** (n - t - 1)) + d ** (n + p - 2 * t - 1)
        if q == n - t:
            return core - k
        return core - d ** t + d ** (q - 1) - d ** p + tail_min
    # t <= p
    if q == n - t:
        return base + d ** (n - p - 1) - k
    return base + d ** (n - p - 1) - d ** t + d ** (q - 1) - d ** p + tail_min


def _row_tight(d, n, t, f, p):
    """max_k min_q g_cost(k, p, q) for one fixed p, clamped into the
    family's range: the tight value of a table row whose construction pins
    p.  Always an upper bound on the full max-min since the min ranges over
    fewer choices.  Each g_cost is linear in k or the min of two linear
    functions, so the min over q is concave in k: a binary search on the
    sign of its step finds the max."""
    p = max(0, min(p, n - t - 1))

    def worst(k):
        return min(g_cost(d, n, t, f, k, p, q) for q in range(n - t, n + 1))
    lo, hi = 1, min(f, d ** t)
    while lo < hi:
        mid = (lo + hi) // 2
        if worst(mid + 1) > worst(mid):
            lo = mid + 1
        else:
            hi = mid
    return Fraction(worst(lo))


# --------------------------------------------------------------- bound tables

def _core(d, n, t, f, p):
    """c_cost's terms before its q-dependent ones when t >= n/2."""
    return (Fraction(f * (d ** p - 1))
            + ((n - t - 1 - p) * (d - 1) - 1) * d ** (n - t - 1))


def _corner(d, n, t):
    return d ** t - (d - 1) * frac_pow(d, 2 * t - n - 1)


def _check_table(d, n, t, f):
    """The sizes' rules, then the tables' own t < n: t = n has its counts."""
    check_sizes(d, n, t, f)
    if t == n:
        raise ValueError("the tables take t < n, not t=%d = n" % t)


def C_bound(d, n, t, f):
    """The five-case upper bound on max_k min c_cost, link-blocking mode."""
    _check_table(d, n, t, f)
    r = _ilog(d, f)
    p = n - t - r - 1
    if t < n // 2 and r < n - 2 * t:
        branch, value = "C1", Fraction(_fanout(d, n, f, r) - 1)
    elif t < n // 2:
        branch, value = "C2", Fraction(t * (d - 1) * d ** (n - t - 1)
                                       + d ** (n - 2 * t - 1) - 1)
    elif r >= n - t:
        branch, value = "C3", _core(d, n, t, f, 0) + _corner(d, n, t)
    elif r > 2 * t - n - 2:
        branch, value = "C4", _core(d, n, t, f, p) + d ** p + _corner(d, n, t)
    else:
        branch, value = "C5", _core(d, n, t, f, p) + _fanout(d, n, f, r)
    return BoundResult(value, 1 + math.ceil(value), branch)


def G_bound(d, n, t, f):
    """The nine-case upper bound on max_k min g_cost, crosstalk-free mode.
    Rows G1/G4/G5/G8 return the value consistent with the construction they
    summarize, not their printed formulas, which contradict either the
    derivation steps or the specialized corollary."""
    _check_table(d, n, t, f)
    r = _ilog(d, f)
    p = n - t - r
    A = _core(d, n + 1, t, f, 0)
    if 2 * t > n and r > n - t:
        if r >= 2 * t - n - 2:
            # printed: A + d^t - (d-1) d^(2t-n+1), never above this value
            branch, value = "G1", max(A + _corner(d, n + 1, t),
                                      _row_tight(d, n, t, f, 0))
        else:
            branch, value = "G3", A + _fanout(d, n + 1, f, r)
    elif 2 * t > n:
        # the construction picks p = n-t-r, which leaves the family's
        # p-range when r = 0; clamp with the in-range tight value
        core, tight = _core(d, n + 1, t, f, p), _row_tight(d, n, t, f, p)
        if r >= 2 * t - n - 2:
            branch, value = "G4", max(core + _corner(d, n + 1, t), tight)
        else:
            branch, value = "G2", max(core + _fanout(d, n + 1, f, r), tight)
    elif 2 * t == n:
        # the printed row, d^(n-t)((n-t)(t-1) - 1) + d^t, has a stray
        # (t-1) where the derivation gives (d-1)
        branch, value = "G5", A + d ** t
    elif r > n - t:
        branch, value = "G9", Fraction(t * (d - 1) * d ** (n - t)
                                       + d ** (n - 2 * t) - 1)
    elif r > n - 2 * t:
        # printed coefficient (2t-n-r) is the sign-flipped (2t-n+r)
        branch, value = "G8", (Fraction(f * (d ** p - 1))
                               + (2 * t - n + r) * (d - 1) * d ** (n - t)
                               + d ** (2 * n - 3 * t - r) - 1)
    elif f > d ** (n - 2 * t) * (d - 1):
        branch, value = "G7", (Fraction(f) * (frac_pow(d, t - 1) - 1)
                               + frac_pow(d, n - t - 1) * (d * d - d + 1) - 1)
    else:
        branch, value = "G6", Fraction(_fanout(d, n + 1, f, r) - 1)
    return BoundResult(value, 1 + math.ceil(value), branch)


def multilog_planes(d, n, t, f, mode):
    """(m, branch): planes sufficient for the windowed multilog network,
    from the t = n corollaries or else the C (link) or G (crosstalk) table."""
    check_sizes(d, n, t, f)
    theta = theta_of(mode)
    if t == n:
        return (snb_fcast_t_eq_n, cf_snb_fcast_t_eq_n)[theta](d, n, f), "t=n"
    res = (C_bound, G_bound)[theta](d, n, t, f)
    return res.m_sufficient, res.branch
