"""Adversarial and random traffic generators for the simulators.

Three kinds of pressure: random churn, a greedy heuristic that commits
whichever candidate request hurts a chosen probe the most, and exact
constructions/searches for the Clos necessity results (a saturating schedule
for the strict-sense bound, and a breadth-first search over reachable
two-crossbar states for the reuse rule).
"""

from collections import deque
import random

from . import clos
from . import multilog
from .events import check_range


# -- multilog traffic ---------------------------------------------------------


def random_admissible_request(state, rng):
    """A uniformly random request the current state can legally accept,
    or None when terminals are exhausted.

    Windows where the chosen input already has live branches are avoided:
    a later branch into a pinned window has no plane choice left, and the
    sufficiency guarantee only covers subrequests that still do.
    """
    cfg = state.config
    addrs, size = range(cfg.d ** cfg.n), cfg.d ** cfg.t
    ins = [x for x in addrs if state.input_active.get(x, 0) < cfg.f]
    rng.shuffle(ins)
    for x in ins:
        pinned = {w for u, w in state.pins if u == x}
        outs = [y for y in addrs
                if y // size not in pinned and y not in state.output_owner]
        if not outs:
            continue
        cap = min(cfg.f - state.input_active.get(x, 0), len(outs))
        picks = rng.sample(outs, rng.randint(1, cap))
        return x, picks
    return None


def random_trial(config, steps, seed, audit_every=0):
    """Drive one ConnState with random admits/releases; returns a dict with
    blocked-event and peak blocking-plane counts."""
    return _churn(config, steps, seed, 0.4, 0, audit_every)


def greedy_trial(config, steps, seed, pool=24):
    """Random churn, but each admission picks, out of `pool` random
    candidates, the one that blocks the most planes for a fresh probe."""
    return _churn(config, steps, seed, 0.35, pool, 0)


def _churn(config, steps, seed, release_p, pool, audit_every):
    """Each step releases a random live request with probability release_p,
    else draws a random probe request and admits it, or with pool > 0 the
    candidate that blocked the probe on the most planes."""
    rng = random.Random(seed)
    state = multilog.ConnState(config)
    live = []
    stats = {"blocked": 0, "max_blocking_planes": 0, "admitted": 0}

    def admit(req, rid):
        result = state.admit(req[0], req[1], rid=rid)
        if multilog.BLOCKED in result.values():
            stats["blocked"] += 1

    for step in range(steps):
        if live and rng.random() < release_p:
            state.release(live.pop(rng.randrange(len(live))))
            continue
        probe = random_admissible_request(state, rng)
        if probe is None:
            continue
        best = None if pool else probe
        best_score = -1
        for _ in range(pool):
            cand = random_admissible_request(state, rng)
            if cand is None:
                break
            stats["admitted"] += 1
            rid = "g%d" % stats["admitted"]
            admit(cand, rid)
            score = sum(len(state.blocking_planes(probe[0], [y]))
                        for y in probe[1])
            if rid in state.requests:
                state.release(rid)
            if score > best_score:
                best, best_score = cand, score
        if best is None:
            continue
        by_window = {}
        for y in probe[1]:
            by_window.setdefault(y // config.d ** config.t, []).append(y)
        for ys in by_window.values():
            stats["max_blocking_planes"] = max(
                stats["max_blocking_planes"],
                len(state.blocking_planes(probe[0], ys)))
        stats["admitted"] += 1
        rid = str(stats["admitted"])
        admit(best, rid)
        if rid in state.requests:  # fully blocked admits leave no id
            live.append(rid)
        if audit_every and stats["admitted"] % audit_every == 0:
            state.audit()
    state.audit()
    return stats


# -- Clos strict-sense saturation --------------------------------------------


def snb_saturation(n, m):
    """(config, lines): C(n, m, max(n, 3)) and the trace lines of a schedule
    that drives first-fit into a state with n-1 middles tied up by input
    crossbar 0 and n-1 different middles tied up by output crossbar 0, then
    probes 0:0 -> 0:0.  `clos.run_trace` admits every line but the last,
    `A probe 0:0 0:0`, which blocks exactly when m = 2n-2.
    """
    check_range("n", n, 2)
    if m < 2 * n - 2:
        raise ValueError("the saturating schedule needs m >= 2n-2")
    config = clos.ClosConfig(n, m, max(n, 3))
    if n == 2:
        # the n-crossbar round has no room at n=2; a third crossbar pins the
        # second request away from middle 0
        return config, [
            "A R1 0:1 1:0\n",
            "A T1 2:0 2:0\n",
            "A S1 2:1 0:1\n",
            "D T1\n",
            "A probe 0:0 0:0\n",
        ]
    lines = []
    # permanent requests from input crossbar 0; first fit stacks them on
    # middles 0..n-2
    for j in range(1, n):
        lines.append("A R%d 0:%d %d:0\n" % (j, j, j))
    # round j: temporaries from input crossbar j cover middles 0..n-2, so
    # the request to output crossbar 0 lands on middle n-2+j; descending
    # output order keeps each temp clear of the permanent request that
    # already feeds its output crossbar
    for j in range(1, n):
        temps = []
        for k in range(n - 1, 0, -1):
            tid = "T%d_%d" % (j, k)
            lines.append("A %s %d:%d %d:%d\n" % (tid, j, k, k, j))
            temps.append(tid)
        lines.append("A S%d %d:0 0:%d\n" % (j, j, j))
        for tid in temps:
            lines.append("D %s\n" % tid)
    lines.append("A probe 0:0 0:0\n")
    return config, lines


# -- exhaustive search over the two-crossbar reuse rule ----------------------


def benes_search(n, m, max_depth=None):
    """Breadth-first search of every state the r=2 reuse rule can reach in
    C(n, m, 2), to closure by default or within max_depth events.

    Returns the trace lines (newline-terminated) that reach a state
    rejecting an admissible request, ending in the arrival it rejects:
    `clos.run_trace(state, lines, reuse=True)` admits every line but the
    last.  Else None when the search closed, or [] when it was cut: a state
    at max_depth has a successor the search never reached.
    """
    check_range("n", n, 1)
    check_range("m", m, 1)
    if max_depth is None:
        max_depth = float("inf")
    else:   # the rule and message of `--depth`
        check_range("depth", max_depth, 0)
    # per middle, the frozenset of (input, output) crossbar pairs it carries
    start = (frozenset(),) * m
    parents = {start: None}
    frontier = deque([(start, 0)])
    cut = False
    while frontier:
        mids, depth = frontier.popleft()
        in_mids, out_mids = [0, 0], [0, 0]   # busy-middle masks
        for mid, carried in enumerate(mids):
            for i, o in carried:
                in_mids[i] |= 1 << mid
                out_mids[o] |= 1 << mid
        steps = []
        for i in (0, 1):
            for o in (0, 1):
                # one request per crossbar and middle: set bits count a load
                if max(in_mids[i].bit_count(), out_mids[o].bit_count()) >= n:
                    continue
                pick = clos.reuse_pick(m, in_mids, out_mids, i, o)
                if pick is None:
                    return _witness(parents, mids, i, o, n)
                steps.append((pick, mids[pick] | {(i, o)}, ("A", i, o, pick)))
        for mid in range(m):
            for pair in mids[mid]:
                steps.append((mid, mids[mid] - {pair},
                              ("D",) + pair + (mid,)))
        for mid, carried, event in steps:
            nxt = mids[:mid] + (carried,) + mids[mid + 1:]
            if nxt in parents:
                continue
            if depth >= max_depth:
                cut = True
            else:
                parents[nxt] = (mids, event)
                frontier.append((nxt, depth + 1))
    return [] if cut else None


def _witness(parents, state, i, o, n):
    """Trace lines of the events that reach `state`, then of the arrival
    I_i -> O_o it rejects; an arrival takes the lowest free port of each of
    its two crossbars."""
    path = [("A", i, o, None)]
    while parents[state] is not None:
        state, event = parents[state]
        path.append(event)
    lines, live, busy = [], {}, set()
    for k, (kind, i, o, mid) in enumerate(reversed(path), start=1):
        if kind == "D":
            # a middle carries at most one request from input crossbar i
            rid, ends = live.pop((i, mid))
            busy.difference_update(ends)
            lines.append("D %s\n" % rid)
            continue
        ends = [min({(cb, port) for port in range(n)} - busy)
                for cb in (("I", i), ("O", o))]
        busy.update(ends)
        live[i, mid] = "r%d" % k, ends
        lines.append("A r%d %d:%d %d:%d\n"
                     % (k, i, ends[0][1], o, ends[1][1]))
    return lines
