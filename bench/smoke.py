"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

1. Runs every workload at a tiny size through bench/run.py, untraced and
   traced, and checks that each prints every metric BENCHMARK.json names,
   with its unit, no failed unit, and the same digest twice for one seed.
2. Feeds certificates corrupted the way `switchlp certify --fuzz` does
   through the worker's unit loop and checks that each counts as a failed
   unit rather than ending the run.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402


def bench(workload, trace, seed=1):
    env = dict(os.environ, SWITCHLP_BENCH_TINY="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        timeout=170, check=True)
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS), names
    for name in names:
        digests = []
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            info, result = bench(name, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, group, set(got) ^ set(want))
            digests.append(info["digest"])
        assert digests[0] and digests[0] == digests[1], (name, digests)
        print("ok  %s: %d end-to-end and %d per-layer metrics"
              % (name, len(spec["end_to_end"]), len(spec["per_layer"])))


def check_corrupt_dual():
    print("corrupting every 3rd certificate; the unit failures logged on "
          "stderr are expected")
    every = 3
    wl = workloads.CertifyGrid(seed=1, dn=[(2, 3)], corrupt_every=every)
    out = worker.measure(wl, 30)
    assert out["units"] == len(out["times"]) == 30, out
    # zeroing a certificate that had nothing but delta leaves it valid, so
    # only some of the corrupted units fail
    assert 1 <= out["failed"] <= 30 // every, out
    print("ok  corrupted duals: %d of %d units failed, run completed"
          % (out["failed"], out["units"]))


def main():
    check_metrics()
    check_corrupt_dual()
    return 0


if __name__ == "__main__":
    sys.exit(main())
