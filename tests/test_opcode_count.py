"""The opcode counter gives the same count twice, on the benchmark's units,
and its per-function ledger adds up to that count, layer by layer.

`opcode_count.py` counts in child interpreters what `BENCH_opcodes.json`
records.  At the smoke-test size, two runs must give equal counts, and each
workload's digest must be the one `test_bench_workloads` pins, so the
counted units are the benchmark's own.  Every function the ledger names
must map to one of the nine layers of `LAYERS`.  No count is gated here.
"""

from opcode_count import LAYERS, NAMES, ROOT, layer_of, layers, ledger, run
from test_bench_workloads import DIGESTS, UNITS


def test_counts_repeat_and_digests_match():
    # the second count sums the per-function ledger, which must attribute
    # every opcode of the first
    first = run(units=UNITS, tiny=True)
    books = {name: ledger(ROOT, name, UNITS, tiny=True) for name in NAMES}
    second = {name: (sum(book.values()), digest)
              for name, (book, digest) in books.items()}
    assert first == second
    assert sorted(NAMES) == sorted(DIGESTS)
    assert {name: digest[:16] for name, (_, digest) in first.items()} \
        == DIGESTS
    assert all(ops > 0 for ops, _ in first.values())
    # each function run maps to a layer, so the layers sum to the count
    unmapped = sorted(q for book, _ in books.values() for q in book
                      if layer_of(q) is None)
    assert not unmapped
    assert {name: sum(layers(book).values())
            for name, (book, _) in books.items()} \
        == {name: ops for name, (ops, _) in first.items()}
    assert set(LAYERS.values()) == {
        "address", "route", "admit", "build", "dual", "coloring",
        "validation", "harness", "stdlib"}
