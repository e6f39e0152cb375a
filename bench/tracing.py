"""Timing shims for the traced run.

Each shim replaces a library function or method at the name its caller looks
up (for example `multilog.route`, which the route cache calls on a miss, or
`dwec.ColoringState.snapshot`).  A call opens a span carrying its name,
start, end, parent span and the id of the work unit it ran for.  Spans stay
in memory; `Tracer.layers` folds them into per-name call counts and self time
(span time minus the time covered by its child spans) and, where asked,
the sorted per-call durations of calls made by work units.
"""

import json
import time

from switchlp import adversary, bounds, clos, dary, dwec, lpcert, multilog


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, unit]
        self.stack = []
        self.unit = -1       # -1 marks set-up
        self.counters = {}   # outcome counts observed at layer boundaries
        self._undo = []

    def count(self, key, by=1):
        self.counters[key] = self.counters.get(key, 0) + by

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def shim(*args, **kwargs):
            idx = len(spans)
            span = [name(args) if callable(name) else name, clock(), 0.0,
                    stack[-1] if stack else -1, self.unit]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return shim

    def patch(self, owner, attr, name, observe=None):
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original, observe))
        self._undo.append((owner, attr, original))

    def install(self):
        """Wrap every timed boundary of the package's layers."""
        P = self.patch
        # dary / lpcert: instance build; AddressSets is looked up by name in
        # both modules (canonical_sets lives in dary)
        P(dary, "AddressSets", "dary.address_sets")
        P(lpcert, "AddressSets", "dary.address_sets")
        P(lpcert, "LpInstance", "lpcert.lp_instance")
        P(lpcert, "dual_family", "lpcert.dual_family")
        P(lpcert.DualSolution, "check_feasible", "lpcert.dual_check")
        P(lpcert.DualSolution, "objective", "lpcert.dual_objective")
        P(lpcert.DualSolution, "objective_bounded_delta",
          "lpcert.dual_objective")
        P(lpcert, "primal_from_state", "lpcert.primal_from_state",
          _observe_primal)
        P(lpcert, "check_weak_duality", "lpcert.check_weak_duality")
        # bounds: lpcert.family_cost reaches the closed forms by attribute
        for attr in ("c_cost", "g_cost"):
            P(bounds, attr, "bounds.family_cost")
        for attr in ("C_bound", "G_bound", "clos_multirate", "clos_snb"):
            P(bounds, attr, "bounds.table")
        # adversary
        P(adversary, "random_admissible_request",
          "adversary.random_admissible_request", _observe_request)
        # banyan: the route cache calls multilog.route only on a miss
        P(multilog, "route", "banyan.route")
        # multilog
        P(multilog.ConnState, "admit", "multilog.admit", _observe_admit)
        P(multilog.ConnState, "release", "multilog.release")
        P(multilog.ConnState, "blocking_planes", "multilog.blocking_planes")
        P(multilog.ConnState, "audit", "multilog.audit")
        # clos
        P(clos.ClosState, "multirate_admit", "clos.multirate_admit")
        P(clos.ClosState, "snb_admit", "clos.snb_admit")
        P(clos.ClosState, "release", _release_name)
        P(clos.ClosState, "audit", "clos.audit")
        # dwec
        for attr in ("arrive", "depart", "snapshot", "restore", "audit"):
            P(dwec.ColoringState, attr, "dwec." + attr)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layers(self, latency_names=()):
        """{span name: {"calls", "self_s"[, "durations"]}}."""
        spans = self.spans
        own = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        out = {name: {"calls": 0, "self_s": 0.0, "durations": []}
               for name in latency_names}
        for s, self_time in zip(spans, own):
            entry = out.setdefault(s[0], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_time
            if "durations" in entry and s[4] >= 0:   # units only
                entry["durations"].append(s[2] - s[1])
        for name in latency_names:
            out[name]["durations"].sort()
        return out

    def write(self, path):
        """Dump the spans, one JSON list per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _release_name(args):
    state = args[0]
    if state.config.traffic == clos.SPACE:
        return "clos.release_space"
    return "clos.release_multirate"


def _observe_primal(tracer, args, result):
    tracer.count("primal.probes")
    if result[1].objective() > 0:
        tracer.count("primal.positive")


def _observe_request(tracer, args, result):
    tracer.count("request.calls")
    if result is None:
        tracer.count("request.none")


def _observe_admit(tracer, args, result):
    tracer.count("admit.windows", len(result))
    tracer.count("admit.blocked_windows",
                 sum(isinstance(v, multilog.Blocked) for v in result.values()))
