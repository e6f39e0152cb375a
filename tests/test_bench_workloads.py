"""The benchmark's workloads still run on the library, with the same outcomes.

`bench/workloads.py` drives the library the way a caller outside the
package does: it passes `DaryString` addresses to `admit`,
`blocking_planes` and `primal_from_state`, asks `v not in
conn.output_owner` with them, and the worker reads the hit counts of
`multilog._route` and `dary.canonical_sets`.  This loads that file as it
is, runs each workload at its smoke-test size, and checks that no unit
fails and that the digest of the simulated outcomes is the one the
workloads gave when addresses were digit tuples.
"""

import importlib.util
import os

import pytest

from switchlp import dary, multilog

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = os.path.join(os.path.dirname(HERE), "bench", "workloads.py")

UNITS = 400

# digest after UNITS units at the TINY size, seed 3, recorded before
# addresses became ints; UNITS is enough for one multilog audit per network
# and one full weak-duality check
DIGESTS = {
    "certify-grid": "2ed069814926f69e",
    "multilog-churn": "5bc0444eddabfcb9",
    "duality-probe": "cec687f7bbaa8a31",
    "clos-churn": "c89a393b9c5c9b6a",
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_tiny_run_matches_recorded_digest(name):
    workloads = load_workloads()
    cls = workloads.WORKLOADS[name]
    wl = cls(3, **cls.TINY)
    assert wl.setup_failed == 0
    for _ in range(UNITS):
        wl.unit()   # a failed check raises CheckFailed
    assert wl.digest.hexdigest()[:16] == DIGESTS[name]
    # the worker reads these caches' hit counts for its per-layer ratios
    for cached in (multilog._route, dary.canonical_sets):
        assert {"hits", "misses"} <= set(cached.cache_info()._asdict())
