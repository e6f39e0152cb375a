"""Self-routing in the d-ary inverse banyan plane.

A plane for n-digit addresses has n stages of d x d switching elements.
The unique route for (x, y) passes, at stage s, through the element labeled
y_1..y_{s-1} x_s..x_{n-1} (1-based digits): the output prefix progressively
takes over the input suffix.  Whether two routes intersect is decided purely
by a common-suffix count on the inputs plus a common-prefix count on the
outputs, which is what makes the LP analysis tractable.  Addresses are the
ints their digits denote.
"""

from .dary import check_address, lcp, lcs


class Route:
    """The route of one (input, output) pair through a single plane, kept
    as stage-offset int ids: `se_ids[s-1]` for the stage-s element and
    `link_ids[s]` for the link leaving stage s (s = 0: the input link)."""

    __slots__ = ("input", "output", "link_ids", "se_ids")

    def __init__(self, d, n, x, y):
        if n < 1:
            raise ValueError("need at least one digit")
        check_address(d, n, x)
        check_address(d, n, y)
        self.input = x
        self.output = y
        full = d ** n
        se_ids, link_ids = [], [x]
        for s in range(1, n + 1):
            lo = d ** (n - s)
            # stage-s label y_1..y_{s-1} x_s..x_{n-1}; the link leaving
            # stage s appends y_s to it, which at s = n gives y itself
            label = (y // (lo * d)) * lo + (x // d) % lo
            se_ids.append((s - 1) * (full // d) + label)
            link_ids.append(s * full + label * d + (y // lo) % d)
        self.se_ids = tuple(se_ids)
        self.link_ids = tuple(link_ids)

    def __repr__(self):
        return "Route(%s -> %s)" % (self.input, self.output)


def route(d, n, x, y):
    return Route(d, n, x, y)


def _overlap(d, n, a, b, u, v):
    """Common suffix of the inputs' (n-1)-prefixes plus common prefix of
    the outputs' (n-1)-prefixes."""
    return lcs(d, n - 1, a // d, u // d) + lcp(d, n - 1, b // d, v // d)


def shares_se(d, n, a, b, u, v):
    """Do routes (a,b) and (u,v) pass through a common switching element?"""
    return _overlap(d, n, a, b, u, v) >= n - 1


def shares_link(d, n, a, b, u, v):
    """Do routes (a,b) and (u,v) share an internal link?"""
    return _overlap(d, n, a, b, u, v) >= n


def intersection_stage(d, n, a, b, u, v):
    """Stage of the unique shared element, or "none" / "multiple".

    When the suffix+prefix count is exactly n-1 the routes meet in a single
    element, at stage lcp+1.
    """
    s = _overlap(d, n, a, b, u, v)
    if s < n - 1:
        return "none"
    if s > n - 1:
        return "multiple"
    return lcp(d, n - 1, b // d, v // d) + 1
