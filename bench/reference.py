"""Single-layer reference timings, for comparison with the figures quoted in
ROADMAP.md (admit+release per request at n = 8, 10, 12; LpInstance build at
d=2, n=10, t=5).

    python3 bench/reference.py [--seed N]

Admit+release: d=2, t=n/2, f=1, m from C_bound, first-fit planes; random
unicast requests between idle terminals, each released again once a
quarter of the terminals are busy, timed as admit plus release per
request, median of 5 rounds of 400 requests.  LpInstance build: the
canonical request at d=2, n=10, t=5, f=4, k=1, link mode, median of 5.
Prints one JSON line.
"""

import argparse
import collections
import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from switchlp import bounds, dary, lpcert, multilog  # noqa: E402

ROUNDS = 5
REQUESTS = 400


def admit_release_us(n, rng):
    d, t, f = 2, n // 2, 1
    m = bounds.C_bound(d, n, t, f).m_sufficient
    state = multilog.ConnState(multilog.MultilogConfig(d=d, n=n, m=m, t=t,
                                                       f=f))
    addrs = [dary.DaryString.from_value(v, d, n) for v in range(d ** n)]
    idle_in, idle_out = list(range(d ** n)), list(range(d ** n))
    live = collections.deque()
    rounds = []
    serial = 0
    for _ in range(ROUNDS):
        spent = 0.0
        for _ in range(REQUESTS):
            x = idle_in.pop(rng.randrange(len(idle_in)))
            y = idle_out.pop(rng.randrange(len(idle_out)))
            serial += 1
            t0 = time.perf_counter()
            state.admit(addrs[x], [addrs[y]], rid=serial)
            spent += time.perf_counter() - t0
            live.append((serial, x, y))
            if len(live) > d ** n // 4:
                rid, x, y = live.popleft()
                t0 = time.perf_counter()
                state.release(rid)
                spent += time.perf_counter() - t0
                idle_in.append(x)
                idle_out.append(y)
        rounds.append(spent / REQUESTS * 1e6)
    return statistics.median(rounds)


def lp_instance_ms():
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        lpcert.canonical_instance(2, 10, 5, 4, 1, lpcert.LINK)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    out = {"admit_release_us": {n: admit_release_us(n, rng)
                                for n in (8, 10, 12)},
           "lp_instance_ms_d2_n10_t5": lp_instance_ms()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
