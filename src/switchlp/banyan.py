"""Self-routing in the d-ary inverse banyan plane.

A plane for n-digit addresses has n stages of d x d switching elements.
The unique route for (x, y) passes, at stage s, through the element labeled
y_1..y_{s-1} x_s..x_{n-1} (1-based digits): the output prefix progressively
takes over the input suffix.  Whether two routes intersect is decided purely
by a common-suffix count on the inputs plus a common-prefix count on the
outputs, which is what makes the LP analysis tractable.
"""

from collections import namedtuple

from .dary import DaryString, lcp, lcs, _check_compat

SELabel = namedtuple("SELabel", ["stage", "label"])


class Route:
    """The route of one (input, output) pair through a single plane, kept
    as stage-offset int ids: `se_ids[s-1]` for the stage-s element and
    `link_ids[s]` for the link leaving stage s (s = 0: the input link).  The
    `DaryString` views `ses`, `internal_links` and `links` are built on read.
    """

    __slots__ = ("input", "output", "link_ids", "se_ids")

    def __init__(self, x, y):
        _check_compat(x, y)
        n = len(x)
        if n < 1:
            raise ValueError("need at least one digit")
        self.input = x
        self.output = y
        d, xv, yv = x.base, x.value(), y.value()
        full = d ** n
        se_ids, link_ids = [], [xv]
        for s in range(1, n + 1):
            lo = d ** (n - s)
            # stage-s label y_1..y_{s-1} x_s..x_{n-1}; the link leaving
            # stage s appends y_s to it, which at s = n gives y itself
            label = (yv // (lo * d)) * lo + (xv // d) % lo
            se_ids.append((s - 1) * (full // d) + label)
            link_ids.append(s * full + label * d + (yv // lo) % d)
        self.se_ids = tuple(se_ids)
        self.link_ids = tuple(link_ids)

    @property
    def ses(self):
        x, y, n = self.input, self.output, len(self.input)
        return [SELabel(s, DaryString(x.base, y.digits[:s - 1]
                                      + x.digits[s - 1:n - 1]))
                for s in range(1, n + 1)]

    @property
    def internal_links(self):
        # link leaving stage s is keyed by (s, stage-s label, output digit
        # y_s); both endpoints of the physical link agree on that key
        return [(s, label, self.output.digits[s - 1])
                for s, label in self.ses[:-1]]

    @property
    def links(self):
        return ([("in", self.input)] + self.internal_links
                + [("out", self.output)])

    def __repr__(self):
        return "Route(%s -> %s)" % (self.input, self.output)


def route(x, y):
    return Route(x, y)


def _halves(a, b, u, v):
    n = len(a)
    s = lcs(a.prefix(n - 1), u.prefix(n - 1))
    p = lcp(b.prefix(n - 1), v.prefix(n - 1))
    return n, s, p


def shares_se(a, b, u, v):
    """Do routes (a,b) and (u,v) pass through a common switching element?"""
    n, s, p = _halves(a, b, u, v)
    return s + p >= n - 1


def shares_link(a, b, u, v):
    """Do routes (a,b) and (u,v) share an internal link?"""
    n, s, p = _halves(a, b, u, v)
    return s + p >= n


def intersection_stage(a, b, u, v):
    """Stage of the unique shared element, or "none" / "multiple".

    When the suffix+prefix count is exactly n-1 the routes meet in a single
    element, at stage lcp+1.
    """
    n, s, p = _halves(a, b, u, v)
    if s + p < n - 1:
        return "none"
    if s + p > n - 1:
        return "multiple"
    return p + 1
