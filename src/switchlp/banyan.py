"""Self-routing in the d-ary inverse banyan plane.

A plane for n-digit addresses has n stages of d x d switching elements.
The unique route for (x, y) passes, at stage s, through the element labeled
y_1..y_{s-1} x_s..x_{n-1} (1-based digits): the output prefix progressively
takes over the input suffix.  Whether two routes intersect is decided purely
by a common-suffix count on the inputs plus a common-prefix count on the
outputs, which is what makes the LP analysis tractable.  Addresses are the
ints their digits denote.
"""

from functools import lru_cache

from .bounds import theta_of
from .dary import check_address, lcs
from .events import check_sizes


@lru_cache(maxsize=256, typed=True)
def _stages(d, n):
    """Per stage s = 1..n: (d^(n-s), d^(n-s+1), the stage's element id
    offset, the offset of the link leaving it), d and n checked once."""
    check_sizes(d, n)
    full = d ** n
    return tuple((d ** (n - s), d ** (n - s + 1), (s - 1) * (full // d),
                  s * full) for s in range(1, n + 1))


def route(d, n, x, y, mode):
    """The route of one (input, output) pair through a single plane, as the
    stage-offset int ids that `mode`'s sharing rule counts: id s - 1 is the
    link leaving stage s < n in link mode, the stage-s element in crosstalk
    mode.  No id is a terminal link, which one input or output alone holds."""
    stages = _stages(d, n)
    links = not theta_of(mode)
    x = check_address(d, n, x)
    y = check_address(d, n, y)
    # the stage-s label is y_1..y_{s-1} x_s..x_{n-1}; the link leaving
    # stage s appends y_s to it
    tail = x // d
    ids = []
    for lo, hi, se_base, link_base in stages[:-1] if links else stages:
        label = (y // hi) * lo + tail % lo
        ids.append(link_base + label * d + (y // lo) % d if links
                   else se_base + label)
    return tuple(ids)


# Let k be the common suffix of the inputs' (n-1)-prefixes and p the common
# prefix of the outputs' (n-1)-prefixes.  Routes (a, b) and (u, v) share an
# element iff k + p >= n - 1 and a link iff k + p >= n.  Each bound on p
# says that a number of leading output digits agree, which is one division:
# the leading n - 1 - k digits of b are b // d^(k+1).  A link needs k > 0,
# as p <= n - 1.
def shares_se(d, n, a, b, u, v):
    """Do routes (a,b) and (u,v) pass through a common switching element?"""
    k = lcs(d, n - 1, a // d, u // d)
    return b // d ** (k + 1) == v // d ** (k + 1)


def shares_link(d, n, a, b, u, v):
    """Do routes (a,b) and (u,v) share an internal link?"""
    k = lcs(d, n - 1, a // d, u // d)
    return k > 0 and b // d ** k == v // d ** k
