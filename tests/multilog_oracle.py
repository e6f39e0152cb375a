"""Rebuild-and-compare audit of a multilog `ConnState`.

`audit(state)` rebuilds every derived map of the state from its live
requests: a `Counter` per (plane, input) of the subrequests holding each
key for `refs`, the holder of each key on each plane (which finds a key two
inputs share), the plane bitmasks of `occ` derived from those holders, the
pins, the output owners and the input loads.  It then compares each with
the live map, and tests every pair of live branches on a plane with the
sharing predicates.  It holds a second copy of the occupancy on purpose:
the differential tests in `test_multilog.py` check that `ConnState.audit`,
which checks the live state in place, raises exactly when this does, with
the same message.

`blocked(state, x, outputs)` finds the planes that block a subrequest by
testing every live branch with the sharing predicates and by comparing
outputs; it never reads the occupancy, pins or owners, so it checks
`ConnState.blocking_planes`, which reads them.
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
        for w, (plane, outputs, keys) in admitted.items():
            pin = pins.setdefault((x, w), [plane, 0])
            check(pin[0] == plane, "window split across planes")
            pin[1] += len(outputs)
            for y in outputs:
                check(y // wsize == w, "output %d under window %d", y, w)
                check(y not in owners, "output double-owned")
                owners[y] = rid
                active[x] = active.get(x, 0) + 1
            if keys:   # a link route at n = 1 holds none
                refs.setdefault((plane, x), Counter()).update(keys)
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
    for x, admitted in state.requests.values():
        for plane, outputs, _ in admitted.values():
            by_plane[plane] += [(x, y) for y in outputs]
    for plane, branches in enumerate(by_plane):
        for i, (a, b) in enumerate(branches):
            for u, v in branches[i + 1:]:
                check(a == u or not pred(d, n, a, b, u, v),
                      "routes %d -> %d and %d -> %d conflict on plane %d",
                      a, b, u, v, plane)


def blocked(state, x, outputs):
    """The planes on which a live branch (u, v) from an input u other than
    x shares a link (link mode) or a switching element (crosstalk mode)
    with some branch (x, y), y in `outputs`, or owns one of them, v = y."""
    cfg = state.config
    pred = shares_link if cfg.mode == LINK else shares_se
    return {plane for u, admitted in state.requests.values() if u != x
            for plane, outs, _ in admitted.values()
            if any(v == y or pred(cfg.d, cfg.n, x, y, u, v)
                   for v in outs for y in outputs)}
