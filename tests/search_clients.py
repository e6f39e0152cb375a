"""The `adversary.search` clients that live in tests.

`coloring_moves` steps through the edge multisets of criterion 3(c): every
instance of at most 8 edges over 4 vertices with weights {1/4, 41/100, 3/5}.
A state is the sorted tuple of per-vertex (load, heavy degree) pairs, loads
in hundredths.  The check reads only the largest load and heavy degree, and
every move commutes with the 24 vertex permutations, so the sorted tuple is
one state per orbit.

`unicast_witness` drives a `FIRST_FIT` multilog network at t = n and f = 1
into a state that blocks an admissible arrival.  A route never reads the
last digit of its input or of its output, so the d addresses that differ
only there are interchangeable: a state is the sorted tuple of live
(input group, output group, plane) triples, one state per orbit of those
relabelings, which never touch the plane order.  `group=1` searches every
address on its own.
"""

from collections import Counter
from itertools import combinations

from switchlp import adversary
from switchlp.banyan import route

# (u, v, weight in hundredths): the 18 edge types
TYPES = [(u, v, w) for u, v in combinations(range(4), 2) for w in (25, 41, 60)]


def ceil_div(a, b):
    return -(-a // b)


def coloring_formula(W100, Delta):
    """colors_used after arrival-only traffic with running maxima
    W_bar = W100/100 and Delta_bar = Delta."""
    if W100 == 0:
        return 0
    return (2 * Delta + ceil_div(3 * W100, 800)
            + ceil_div(3 * W100, 1000) + ceil_div(3 * W100, 100))


def coloring_moves(visited, slack=72):
    """`moves` for criterion 3(c): a state whose colors_used exceeds
    227/40 * lb + slack/40, lb = max(ceil(load), heavy degree), is a goal
    whose event is the state itself; else each of the 18 (u, v, weight)
    edges, u and v positions in the sorted state, is a step.  Each state
    expanded is appended to `visited`."""
    def moves(state):
        visited.append(state)
        W = max(load for load, _ in state)
        H = max(heavy for _, heavy in state)
        if W and 40 * coloring_formula(W, H) > \
                227 * max(ceil_div(W, 100), H) + slack:
            yield state, None
            return
        for u, v, w in TYPES:
            nxt = list(state)
            for z in (u, v):
                nxt[z] = (nxt[z][0] + w, nxt[z][1] + (w == 60))
            yield (u, v, w), tuple(sorted(nxt))
    return moves


def unicast_witness(d, n, mode, m, group=None):
    """(lines, states): the trace lines of a shortest drive of a `FIRST_FIT`
    network at t = n, f = 1 and m planes, the last an admissible arrival it
    blocks, or None when no drive blocks one; and the count of states the
    search expanded.  A step is every admissible arrival and every
    departure; an arrival takes the lowest free address of its groups."""
    size = d if group is None else group
    groups = range(d ** n // size)
    keys = {(a, b): set(route(d, n, a * size, b * size, mode))
            for a in groups for b in groups}
    clash = {ab: {cd for cd in keys if not keys[ab].isdisjoint(keys[cd])}
             for ab in keys}
    visited = []

    def moves(live):
        visited.append(live)
        ins = Counter(a for a, _, _ in live)
        outs = Counter(b for _, b, _ in live)
        held = [{(a, b) for a, b, q in live if q == p} for p in range(m)]
        for a in groups:
            for b in groups:
                if ins[a] == size or outs[b] == size:
                    continue
                plane = next((p for p in range(m)
                              if clash[a, b].isdisjoint(held[p])), None)
                if plane is None:
                    yield ("A", a, b, None), None
                    return
                yield (("A", a, b, plane),
                       tuple(sorted(live + ((a, b, plane),))))
        for k, triple in enumerate(live):
            if triple not in live[:k]:
                yield ("D",) + triple, live[:k] + live[k + 1:]

    path = adversary.search((), moves)
    return (None if path is None else _trace(path, d, n, size)), len(visited)


def _trace(path, d, n, size):
    """Trace lines of the group events in `path`; a departure ends the
    earliest live request of its triple."""
    def text(v):
        return "".join(str(v // d ** k % d) for k in reversed(range(n)))

    free_in, free_out = set(range(d ** n)), set(range(d ** n))
    lines, live = [], {}
    for k, (kind, a, b, plane) in enumerate(path, start=1):
        if kind == "D":
            rid, x, y = live[a, b, plane].pop(0)
            free_in.add(x)
            free_out.add(y)
            lines.append("D %s\n" % rid)
            continue
        x = min(free_in & set(range(a * size, a * size + size)))
        y = min(free_out & set(range(b * size, b * size + size)))
        free_in.discard(x)
        free_out.discard(y)
        live.setdefault((a, b, plane), []).append(("r%d" % k, x, y))
        lines.append("A r%d %s %s\n" % (k, text(x), text(y)))
    return lines
