"""Rebuild-and-compare audit of a multilog `ConnState`.

`audit(state)` rebuilds every derived map of the state from its live
requests: a `Counter` of keys per (plane, input) for `refs`, the holder of
each key on each plane (which finds a key two inputs share), the plane
bitmasks of `occ` derived from those holders, the pins, the output owners
and the input loads.  It then compares each with the live map, and tests
every pair of live routes on a plane with the sharing predicates.  It holds
a second copy of the occupancy on purpose: the differential tests in
`test_multilog.py` check that `ConnState.audit`, which checks the live
state in place, raises exactly when this does, with the same message.

`blocked(state, x, outputs)` finds the planes that block a subrequest by
testing every live route with the sharing predicates; it never reads the
occupancy, so it checks `ConnState.blocking_planes`, which reads only that.
"""

from collections import Counter

from switchlp.banyan import shares_link, shares_se
from switchlp.bounds import LINK
from switchlp.events import check


def audit(state):
    """Rebuild all derived state from the registry and compare."""
    cfg = state.config
    refs = {}
    owners = {}
    active = {}
    pins = {}
    wsize = cfg.d ** cfg.t
    for rid, (x, admitted) in state.requests.items():
        for w, (plane, routes) in admitted.items():
            pin = pins.setdefault((x, w), [plane, 0])
            check(pin[0] == plane, "window split across planes")
            pin[1] += len(routes)
            counts = refs.get((plane, x))
            if counts is None:
                counts = refs[plane, x] = Counter()
            for rt in routes:
                check(rt.input == x, "route %r under input %s", rt, x)
                check(rt.output // wsize == w,
                      "route %r under window %d", rt, w)
                check(rt.output not in owners, "output double-owned")
                owners[rt.output] = rid
                active[x] = active.get(x, 0) + 1
                counts.update(rt.ids)
    holders = {}
    for (plane, x), counts in refs.items():
        for key in counts:
            check(holders.setdefault(key, {}).setdefault(plane, x) == x,
                  "key %r shared across inputs on plane %d", key, plane)
    occ = {key: sum(1 << plane for plane in planes)
           for key, planes in holders.items()}
    # the live counts are plain dicts, so each Counter compares with
    # them as a dict: a stored zero count differs from a missing key
    for name, rebuilt in (("occ", occ), ("refs", refs), ("pins", pins),
                          ("output_owner", owners),
                          ("input_active", active)):
        check(rebuilt == getattr(state, name), "%s differs from the "
              "registry", name)
    for x, count in active.items():
        check(count <= cfg.f, "input %s over fanout", x)

    # cross-check occupancy conflicts against the sharing predicates
    pred = shares_link if cfg.mode == LINK else shares_se
    d, n = cfg.d, cfg.n
    by_plane = [[] for _ in range(cfg.m)]
    for _, admitted in state.requests.values():
        for plane, routes in admitted.values():
            by_plane[plane] += routes
    for plane, routes in enumerate(by_plane):
        for i, r1 in enumerate(routes):
            for r2 in routes[i + 1:]:
                check(r1.input == r2.input or not pred(
                    d, n, r1.input, r1.output, r2.input, r2.output),
                    "routes %r and %r conflict on plane %d", r1, r2, plane)


def blocked(state, x, outputs):
    """The planes on which a live route from an input other than x shares a
    link (link mode) or a switching element (crosstalk mode) with some
    branch (x, y), y in `outputs`."""
    cfg = state.config
    pred = shares_link if cfg.mode == LINK else shares_se
    return {plane for u, admitted in state.requests.values() if u != x
            for plane, routes in admitted.values()
            if any(pred(cfg.d, cfg.n, x, y, u, rt.output)
                   for rt in routes for y in outputs)}
