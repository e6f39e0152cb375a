"""The opcode counter gives the same count twice, on the benchmark's units,
and its per-function ledger adds up to that count.

`opcode_count.py` counts in child interpreters what `BENCH_opcodes.json`
records.  At the smoke-test size, two runs must give equal counts, and each
workload's digest must be the one `test_bench_workloads` pins, so the
counted units are the benchmark's own.  No count is gated here.
"""

from opcode_count import NAMES, ROOT, ledger, run
from test_bench_workloads import DIGESTS, UNITS


def test_counts_repeat_and_digests_match():
    # the second count sums the per-function ledger, which must attribute
    # every opcode of the first
    first = run(units=UNITS, tiny=True)
    second = {name: (sum(book.values()), digest) for name in NAMES
              for book, digest in [ledger(ROOT, name, UNITS, tiny=True)]}
    assert first == second
    assert sorted(NAMES) == sorted(DIGESTS)
    assert {name: digest[:16] for name, (_, digest) in first.items()} \
        == DIGESTS
    assert all(ops > 0 for ops, _ in first.values())
