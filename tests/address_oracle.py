"""Digit-tuple references for the int address arithmetic in `switchlp`.

The library computes on addresses as the ints their digits denote.  The
forms here spell each definition out on digit tuples instead: common
prefixes and suffixes, window indices, the labels along a route, and the
enumerated `AddressSets`.  They are slow on purpose; the differential tests
check the int forms against them.  `window_outputs` lists the outputs of
one window, for tests that enumerate them.
"""

from collections import namedtuple
from functools import lru_cache

from switchlp import dary
from switchlp.bounds import LINK

SELabel = namedtuple("SELabel", ["stage", "label"])


@lru_cache(maxsize=1 << 16)
def digits(d, n, v):
    """The n base-d digits of v, most significant first."""
    if not 0 <= v < d ** n:
        raise ValueError("%d is not an %d-digit base-%d value" % (v, n, d))
    out = []
    for _ in range(n):
        v, dig = divmod(v, d)
        out.append(dig)
    return tuple(reversed(out))


def value(d, xs):
    v = 0
    for dig in xs:
        v = v * d + dig
    return v


def address_text(d, n, v):
    """v as the trace text `dary.parse_address` reads: a character per
    digit up to base 10, else decimals joined by dots, except that a lone
    digit up to base 36 takes its character ("10" would read as two)."""
    if n == 1 and d <= 36:
        return "0123456789abcdefghijklmnopqrstuvwxyz"[v]
    return ("" if d <= 10 else ".").join(map(str, digits(d, n, v)))


def lcp(xs, ys):
    """Longest common prefix of two equal-length digit tuples."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch: %d vs %d" % (len(xs), len(ys)))
    k = 0
    for a, b in zip(xs, ys):
        if a != b:
            break
        k += 1
    return k


def lcs(xs, ys):
    """Longest common suffix of two equal-length digit tuples."""
    return lcp(xs[::-1], ys[::-1])


def window_index(d, n, t, v):
    """The window of output v: the value of its leading n-t digits."""
    return value(d, digits(d, n, v)[:n - t])


def window_outputs(base, n, t, w):
    """The d^t outputs making up window w: those whose leading n-t digits
    have value w, so that output y lies in window y // d^t."""
    if not 0 <= t <= n:
        raise ValueError("window exponent t=%d out of range for n=%d" % (t, n))
    if not 0 <= w < base ** (n - t):
        raise ValueError("window index %d out of range" % w)
    size = base ** t
    return range(w * size, (w + 1) * size)


# -- route views: the element and link keys a route passes, by digits ---------


def route_ses(d, n, x, y):
    """SELabel(s, label) for s = 1..n; the stage-s label is the digit tuple
    y_1..y_{s-1} x_s..x_{n-1}."""
    xd, yd = digits(d, n, x), digits(d, n, y)
    return [SELabel(s, yd[:s - 1] + xd[s - 1:n - 1]) for s in range(1, n + 1)]


def route_internal_links(d, n, x, y):
    """The link leaving stage s < n, keyed by (s, stage-s label, y_s); both
    endpoints of the physical link agree on that key."""
    yd = digits(d, n, y)
    return [(s, label, yd[s - 1]) for s, label in route_ses(d, n, x, y)[:-1]]


def route_links(d, n, x, y):
    return ([("in", x)] + route_internal_links(d, n, x, y)
            + [("out", y)])


def route_ids(d, n, x, y, mode):
    """The route's view for `mode`, each key relabelled to the int id the
    library gives it: a stage-s element is the value of its label past the
    (s-1) * d^(n-1) ids of the stages before; the link leaving stage s < n
    is the value of its label and digit past s * d^n.  Neither terminal
    link is in the view."""
    if mode == LINK:
        full = d ** n
        return tuple(s * full + value(d, label + (dig,))
                     for s, label, dig in route_internal_links(d, n, x, y))
    return tuple((se.stage - 1) * d ** (n - 1) + value(d, se.label)
                 for se in route_ses(d, n, x, y))


def route_sets(d, n, x, y):
    """(elements, internal links) of the route, for intersection tests."""
    return set(route_ses(d, n, x, y)), set(route_internal_links(d, n, x, y))


# -- the overlap count the sharing predicates are defined by -------------------


def overlap(d, n, a, b, u, v):
    """Common suffix of the inputs' (n-1)-prefixes plus common prefix of
    the outputs' (n-1)-prefixes, on int addresses: routes (a, b) and (u, v)
    share an element iff it is >= n - 1 and a link iff it is >= n."""
    return (dary.lcs(d, n - 1, a // d, u // d)
            + dary.lcp(d, n - 1, b // d, v // d))


def intersection_stage(d, n, a, b, u, v):
    """Stage of the unique shared element, or "none" / "multiple".

    When the suffix+prefix count is exactly n-1 the routes meet in a single
    element, at stage lcp+1.
    """
    s = overlap(d, n, a, b, u, v)
    if s < n - 1:
        return "none"
    if s > n - 1:
        return "multiple"
    return dary.lcp(d, n - 1, b // d, v // d) + 1


# -- enumerated address families ----------------------------------------------


def window_count_formula(d, n, t, j):
    """Closed form for the number of foreign windows with index j <= n-t-1.
    It is |A_(j+t)|, `dary.a_count_formula(d, n, j + t)`, which is how the
    package counts them."""
    if not (0 <= j <= n - t - 1):
        raise ValueError("j out of range")
    return d ** (n - j - t) - d ** (n - 1 - j - t)


class EnumeratedAddressSets:
    """Same interface and meaning as `switchlp.dary.AddressSets`; see its
    docstring.  Walks every input, every output of the home window and every
    foreign window, records each one's index in a dict and counts by
    scanning."""

    def __init__(self, d, n, a, B, t):
        B = frozenset(B)
        if not B:
            raise ValueError("B must be nonempty")
        self.a, self.B, self.t, self.d, self.n = a, B, t, d, n
        if not (0 <= t <= n):
            raise ValueError("t=%d out of range for n=%d" % (t, n))
        windows = {window_index(d, n, t, b) for b in B}
        if len(windows) != 1:
            raise ValueError("B spans multiple windows: %s" % sorted(windows))
        (self.home_window,) = windows

        self._i_of = {}
        self.A = [set() for _ in range(n)]
        ap = digits(d, n, a)[:n - 1]
        for u in range(d ** n):
            if u == a:
                continue
            i = lcs(ap, digits(d, n, u)[:n - 1])
            self._i_of[u] = i
            self.A[i].add(u)

        # j(v) over outputs of the home window that are not in B
        bprefixes = [digits(d, n, b)[:n - 1] for b in B]
        self._j_of_output = {}
        for v in range(d ** n):
            if v in B or window_index(d, n, t, v) != self.home_window:
                continue
            vp = digits(d, n, v)[:n - 1]
            self._j_of_output[v] = max(lcp(vp, bp) for bp in bprefixes)

        # j(w) over foreign windows: common prefix of the window heads
        self._j_of_window = {}
        home_head = digits(d, n - t, self.home_window)
        for w in range(d ** (n - t)):
            if w == self.home_window:
                continue
            self._j_of_window[w] = lcp(digits(d, n - t, w), home_head)

    def i_of(self, u):
        if u == self.a:
            return None
        return self._i_of[u]

    def j_of_output(self, v):
        if v in self.B:
            return None
        try:
            return self._j_of_output[v]
        except KeyError:
            raise ValueError("%s is not in the home window" % v)

    def j_of_window(self, w):
        if w == self.home_window:
            return None
        return self._j_of_window[w]

    def a_count(self, i):
        return len(self.A[i])

    def window_count(self, j):
        return sum(1 for jj in self._j_of_window.values() if jj == j)

    def output_count(self, j):
        return sum(1 for jj in self._j_of_output.values() if jj == j)

    def union_b_tail(self, q):
        return sum(1 for jj in self._j_of_output.values() if jj >= q)

    def b_count(self, j):
        """|B_j|: the outputs of each foreign window with index j, and the
        home-window outputs with index j."""
        return (self.window_count(j) * self.d ** self.t
                + self.output_count(j))

    # the LP's variables, enumerated: the pairs `LpInstance.rows_of` gives
    # rows for

    def uw_pairs(self, thresh):
        return [(u, w) for u in self._i_of for w in self._j_of_window
                if self._i_of[u] + self._j_of_window[w] >= thresh]

    def uv_pairs(self, thresh):
        return [(u, v) for u in self._i_of for v in self._j_of_output
                if self._i_of[u] + self._j_of_output[v] >= thresh]
