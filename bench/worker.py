"""One benchmark process: set up a workload, run its units, print JSON.

    python3 bench/worker.py --workload NAME --seed N [--seconds S]
        [--trace] [--spans FILE] [--started T]

Builds the workload (set-up), then runs the fixed number of units that take
about S seconds at the workload's nominal rate, timing each and rescaling
the times by a speed probe (see SpeedProbe).  The JSON line carries set-up
time, per-unit times, failures, peak RSS, and the digest of the simulated
outcomes; with --trace also the per-layer span table.

`--started` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process, so set-up time includes interpreter start and
imports.  The library is imported from src/ of the checkout this file sits
in.  With SWITCHLP_BENCH_TINY=1 in the environment every workload runs at
the smoke test's tiny size.
"""

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402  (needs the src/ path above)
import workloads  # noqa: E402
from switchlp import dary, multilog  # noqa: E402

MAX_FAILURE_LOGS = 5
TINY_UNITS = 40
PROBE_EVERY_S = 0.1
# the probe's time on the reference machine in its fast state
PROBE_REF_S = 0.0021


class SpeedProbe:
    """A fixed loop of benchmark code, never library code, whose time tracks
    how fast the machine runs right now.

    On a shared host the same Python code runs up to 2x slower for
    seconds to minutes while other tenants contend for the caches.  Dict
    lookups with tuple keys over a table of a few MiB slow down in step
    with the workloads, so the probe's time, taken around each 0.1 s of
    units, rescales those units to the fast state.

    A reading is one pass over the table right after streaming through a
    buffer larger than the CPU's L2 cache (4 MiB per core on the reference
    machine).  That evicts the table from L2 the same way before every
    reading, the first included, so a reading does not depend on how much
    of the table the preceding library work left in cache.  (A reading
    taken as the second of two passes, with the table warm in L2, slows
    about 2.2x in the host's slow state while the units slow about 1.4x, so
    it over-corrects; see NOTES.md.)
    """

    FLUSH_BYTES = 16 << 20

    def __init__(self):
        rng = random.Random(0)
        self.table = {(i, i % 7, "k"): i for i in range(60000)}
        self.keys = [(i, i % 7, "k")
                     for i in (rng.randrange(60000) for _ in range(4000))]
        # every page written, so the buffer is really resident
        self.flush = bytearray(b"\x01") * self.FLUSH_BYTES

    def seconds(self):
        self.flush.find(2)   # reads every byte, evicting the table from L2
        t0 = time.perf_counter()
        total = 0
        for key in self.keys:
            total += self.table[key]
        return time.perf_counter() - t0


def peak_rss_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def current_rss_kib():
    """Resident set size now, or 0 where /proc/self/statm is missing."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def measure(wl, units, tracer=None, probe=None):
    """Run `units` units of workload `wl`; a unit that raises counts as
    failed and the run goes on.  With a probe, `times` are rescaled to the
    probe's reference speed and the raw total is kept as `raw_s`."""
    times = []
    failed = 0
    clock = time.perf_counter
    marks, probes = [], []   # unit index where each probe ran, its time
    next_probe = 0.0
    for done in range(units):
        if probe and clock() >= next_probe:
            marks.append(done)
            probes.append(probe.seconds())
            next_probe = clock() + PROBE_EVERY_S
        if tracer:
            tracer.unit = done
        t0 = clock()
        try:
            wl.unit()
        except Exception as exc:  # a failed check or a library error
            failed += 1
            if failed <= MAX_FAILURE_LOGS:
                print("unit %d failed: %s" % (done, exc), file=sys.stderr)
                if not isinstance(exc, workloads.CheckFailed):
                    traceback.print_exc(file=sys.stderr)
        times.append(clock() - t0)
    out = {"units": units, "failed": failed, "times": times,
           "digest": wl.digest.hexdigest()[:16], "stats": wl.stats()}
    if probe:
        marks.append(units)
        probes.append(probe.seconds())
        scaled = []
        for c in range(len(marks) - 1):
            factor = 2 * PROBE_REF_S / (probes[c] + probes[c + 1])
            scaled += [t * factor for t in times[marks[c]:marks[c + 1]]]
        out["times"] = scaled
        out["raw_s"] = sum(times)
        out["probes_s"] = probes
    return out


def run(name, seed, seconds, traced, spans_path, started):
    tiny = os.environ.get("SWITCHLP_BENCH_TINY") == "1"
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    cls = workloads.WORKLOADS[name]
    wl = cls(seed, **cls.TINY) if tiny else cls(seed)
    setup_s = time.monotonic() - started
    units = TINY_UNITS if tiny else wl.units_for(seconds)
    # the probe's memory is not the library's: take the set-up peak
    # before building the probe, and its size off the peak after the units
    setup_peak = peak_rss_kib()
    rss0 = current_rss_kib()
    probe = SpeedProbe()
    probe_kib = max(0, current_rss_kib() - rss0)
    out = measure(wl, units, tracer, probe)
    # set-up is rescaled by the same first reading as the first units
    out["setup_raw_s"] = setup_s
    out["setup_s"] = setup_s * PROBE_REF_S / out["probes_s"][0]
    out["setup_ops"], out["setup_failed"] = wl.setup_ops, wl.setup_failed
    out["peak_rss_mib"] = max(setup_peak,
                              peak_rss_kib() - probe_kib) / 1024.0
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.layers(
            latency_names=("multilog.admit", "clos.multirate_admit"))
        out["counters"] = tracer.counters
        out["caches"] = {
            "canonical_sets": dary.canonical_sets.cache_info()._asdict(),
            "route": multilog._route.cache_info()._asdict(),
        }
        if spans_path:
            tracer.write(spans_path)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--started", type=float, default=None)
    args = ap.parse_args(argv)
    started = time.monotonic() if args.started is None else args.started
    out = run(args.workload, args.seed, args.seconds, args.trace, args.spans,
              started)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
