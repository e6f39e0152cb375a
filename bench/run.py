"""switchlp benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Each measurement runs in a fresh process started from here, one at a time,
so the library's lru caches and the peak RSS of one run never leak into
another.

Every measurement runs a fixed number of units: the number that takes about
S / REPS seconds at the workload's nominal rate (the seed code's speed on
the reference machine), so two versions of the program are compared on the
same work.

Times are rescaled to the reference machine's fast state by a speed probe
(worker.SpeedProbe) run every 0.1 s, because a shared host runs the same
code up to 2x slower for minutes at a time; the raw figures are in the
info record.

--trace 0 runs the units REPS times, each in a fresh process with the same
seed, and reports for each unit its fastest time of the REPS; interference
from other processes only ever adds time.  Set-up time is the median over
those REPS processes.  It prints the end-to-end metrics.

--trace 1 runs the units TRACE_PAIRS times untraced and as often traced,
alternately, and prints the per-layer metrics of the fastest traced process
plus the tracing overhead (ratio of the per-unit fastest throughputs); the
spans go to bench/out/.

The line before the last is an info record: environment, digest of the
simulated outcomes of all units, and simulated statistics.  The last
line is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("certify-grid", "multilog-churn", "duality-probe", "clos-churn")
REPS = 8
TRACE_PAIRS = 3
# every run, set-ups included, ends well inside 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def environment():
    """Where the numbers came from, recorded with every result."""
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
    }
    try:
        with open("/proc/loadavg") as fh:
            env["loadavg"] = fh.read().strip()
    except OSError:
        env["loadavg"] = None
    return env


def _git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "switchlp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def spawn(workload, seed, deadline, seconds, trace=False, spans=None):
    """Run one worker process to completion; returns its JSON record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    started = time.monotonic()
    cmd += ["--started", repr(started)]
    budget = deadline - started
    if budget <= 0:
        raise BenchError("out of time before running %s" % workload)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=budget, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError("%s overran the deadline" % workload)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker for %s exited with %d"
                         % (workload, proc.returncode))
    return json.loads(lines[-1])


def percentile(sorted_values, frac):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * frac)) - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def rate(run):
    return run["units"] / sum(run["times"])


def fastest_times(runs):
    """Each unit's fastest time over runs of the same units, ascending."""
    return sorted(min(ts) for ts in zip(*(r["times"] for r in runs)))


def best_rate(runs):
    best = fastest_times(runs)
    return len(best) / sum(best)


def end_to_end(workload, seed, seconds, deadline):
    runs = [spawn(workload, seed, deadline, seconds=seconds / REPS)
            for _ in range(REPS)]
    setups = [r["setup_s"] for r in runs]
    best = fastest_times(runs)
    metrics = {
        "units_per_s": metric(len(best) / sum(best), "1/s"),
        "unit_p50_us": metric(percentile(best, 0.50) * 1e6, "us"),
        "unit_p99_us": metric(percentile(best, 0.99) * 1e6, "us"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mib": metric(
            statistics.median(r["peak_rss_mib"] for r in runs), "MiB"),
    }
    info = {"units": len(best), "reps": REPS,
            "rep_units_per_s": [rate(r) for r in runs],
            "rep_raw_units_per_s": [r["units"] / r["raw_s"] for r in runs],
            "rep_probe_median_s": [statistics.median(r["probes_s"])
                                   for r in runs],
            "setup_runs_s": setups,
            "setup_raw_runs_s": [r["setup_raw_s"] for r in runs]}
    return runs, metrics, info


# per-layer metrics read straight from the span table: (span, field, unit)
SPAN_METRICS = [
    ("dary.address_sets", "calls", "count"),
    ("dary.address_sets", "self_s", "s"),
    ("lpcert.lp_instance", "calls", "count"),
    ("lpcert.lp_instance", "self_s", "s"),
    ("lpcert.dual_family", "self_s", "s"),
    ("lpcert.dual_check", "self_s", "s"),
    ("lpcert.dual_objective", "self_s", "s"),
    ("bounds.family_cost", "calls", "count"),
    ("bounds.family_cost", "self_s", "s"),
    ("bounds.table", "self_s", "s"),
    ("lpcert.primal_from_state", "calls", "count"),
    ("lpcert.primal_from_state", "self_s", "s"),
    ("lpcert.check_weak_duality", "calls", "count"),
    ("lpcert.check_weak_duality", "self_s", "s"),
    ("adversary.random_admissible_request", "calls", "count"),
    ("adversary.random_admissible_request", "self_s", "s"),
    ("banyan.route", "calls", "count"),
    ("banyan.route", "self_s", "s"),
    ("multilog.admit", "calls", "count"),
    ("multilog.admit", "self_s", "s"),
    ("multilog.release", "calls", "count"),
    ("multilog.release", "self_s", "s"),
    ("multilog.blocking_planes", "self_s", "s"),
    ("multilog.audit", "self_s", "s"),
    ("clos.multirate_admit", "calls", "count"),
    ("clos.multirate_admit", "self_s", "s"),
    ("clos.snb_admit", "calls", "count"),
    ("clos.snb_admit", "self_s", "s"),
    ("clos.release_space", "self_s", "s"),
    ("clos.release_multirate", "self_s", "s"),
    ("clos.audit", "self_s", "s"),
    ("dwec.arrive", "self_s", "s"),
    ("dwec.depart", "self_s", "s"),
    ("dwec.snapshot", "self_s", "s"),
    ("dwec.restore", "calls", "count"),
    ("dwec.audit", "self_s", "s"),
]


# per-call latency percentiles from the traced spans: (span, field, frac)
SPAN_LATENCIES = [
    ("multilog.admit", "p50_us", 0.50),
    ("multilog.admit", "p99_us", 0.99),
    ("clos.multirate_admit", "p99_us", 0.99),
]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, seed, seconds, deadline):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    plain, traced, spans = [], [], []
    for rep in range(TRACE_PAIRS):
        plain.append(spawn(workload, seed, deadline, seconds=seconds / REPS))
        spans.append(os.path.join(out_dir, "spans-%s-%d-%d.jsonl"
                                  % (workload, seed, rep)))
        traced.append(spawn(workload, seed, deadline, seconds=seconds / REPS,
                            trace=True, spans=spans[-1]))
    # layer figures from the least disturbed traced process
    fastest = max(range(TRACE_PAIRS), key=lambda i: rate(traced[i]))
    layers, counters = traced[fastest]["layers"], traced[fastest]["counters"]
    metrics = {}
    for span, field, unit in SPAN_METRICS:
        value = layers.get(span, {}).get(field, 0)
        metrics["%s.%s" % (span, field)] = metric(value, unit)
    for span, field, frac in SPAN_LATENCIES:
        metrics["%s.%s" % (span, field)] = metric(
            percentile(layers[span]["durations"], frac) * 1e6, "us")
    caches = traced[fastest]["caches"]
    cs, rt = caches["canonical_sets"], caches["route"]
    metrics["dary.canonical_sets.hit_ratio"] = metric(
        _ratio(cs["hits"], cs["hits"] + cs["misses"]), "ratio")
    metrics["banyan.route_cache.hit_ratio"] = metric(
        _ratio(rt["hits"], rt["hits"] + rt["misses"]), "ratio")
    metrics["lpcert.primal.positive_ratio"] = metric(_ratio(
        counters.get("primal.positive", 0),
        counters.get("primal.probes", 0)), "ratio")
    metrics["adversary.request.none_ratio"] = metric(_ratio(
        counters.get("request.none", 0),
        counters.get("request.calls", 0)), "ratio")
    metrics["multilog.admit.blocked_window_ratio"] = metric(_ratio(
        counters.get("admit.blocked_windows", 0),
        counters.get("admit.windows", 0)), "ratio")
    stats = traced[fastest]["stats"]
    metrics["dwec.colors_used"] = metric(
        stats.get("dwec.colors_used", 0), "count")
    metrics["dwec.colors_per_opt_lower"] = metric(
        stats.get("dwec.colors_per_opt_lower", 0), "ratio")
    untraced_rate, traced_rate = best_rate(plain), best_rate(traced)
    metrics["trace.overhead_ratio"] = metric(untraced_rate / traced_rate,
                                             "ratio")
    info = {"units": traced[fastest]["units"],
            "spans_file": os.path.relpath(spans[fastest], ROOT),
            "spans_raw_unit_s": traced[fastest]["raw_s"],
            "untraced_units_per_s": untraced_rate,
            "traced_units_per_s": traced_rate,
            "caches": caches}
    return plain + traced, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "switchlp", "__init__.py")):
        print("error: no switchlp package under %s; run from the root of a "
              "switchlp checkout" % SRC, file=sys.stderr)
        return 2
    env = environment()
    try:
        if args.trace:
            runs, metrics, info = per_layer(
                args.workload, args.seed, args.seconds, deadline)
        else:
            runs, metrics, info = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    # checked operations of set-up (multilog-churn's fill) count as well
    attempted = sum(r["units"] + r["setup_ops"] for r in runs)
    failed = sum(r["failed"] + r["setup_failed"] for r in runs)
    # every process ran the same inputs, so the simulated outcomes must
    # agree exactly
    digests = sorted({r["digest"] for r in runs})
    info.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "digest": digests[0],
                 "digests_agree": len(digests) == 1,
                 "stats": runs[0]["stats"], "env": env})
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0 and len(digests) == 1,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
