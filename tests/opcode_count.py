"""Count the Python opcodes that 1,000 benchmark units run, per workload.

    python3 tests/opcode_count.py [ROOT [REV]]

Each workload runs in its own interpreter, with PYTHONHASHSEED=0 and
PYTHONDONTWRITEBYTECODE=1, on ROOT's `src/` and `bench/workloads.py` (ROOT
is this repository by default).  The child builds `WORKLOADS[name](3)`,
then counts every opcode of 1,000 `unit()` calls under `sys.settrace` with
`f_trace_opcodes`.  Opcodes count Python bytecode only, not C-level work
such as `sorted` or dict lookups, so they sit beside wall time and RSS.
The record (REV, by default `git describe --always --dirty=+` of ROOT; the
Python version; each workload's count and first 12 digest digits) goes
last in BENCH_opcodes.json at this repository's root, in place of any
record of the same REV.
"""

import os
import sys

# The child imports this module, so the modules only the parent needs are
# imported where they are used: an imported module can change what a unit
# runs (with subprocess imported, the ABC subclass checks of multilog-churn
# ran 12 more opcodes).

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("certify-grid", "duality-probe", "multilog-churn", "clos-churn")
CHILD = "import sys; sys.path.insert(0, %r); import opcode_count as o; " \
        "print(*o.count(*sys.argv[1:]))" % HERE


def count(root, name, units="1000", tiny=""):
    """(opcodes, digest) of `units` units of one workload at seed 3, at
    its smoke-test size if `tiny`; the arguments come as argv strings."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    wl = cls(3, **cls.TINY) if tiny else cls(3)
    ops = 0

    def tracer(frame, event, arg):
        nonlocal ops
        frame.f_trace_opcodes = True
        ops += event == "opcode"
        return tracer
    sys.settrace(tracer)
    for _ in range(int(units)):
        wl.unit()
    sys.settrace(None)
    return ops, wl.digest.hexdigest()


def run(root=ROOT, units=1000, tiny=False):
    """{name: (opcodes, full digest)}, each from a fresh child."""
    import subprocess
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    out = {}
    for name in NAMES:
        line = subprocess.run(
            [sys.executable, "-c", CHILD, root, name, str(units),
             "1" if tiny else ""], env=env, check=True, capture_output=True,
            text=True).stdout.split()
        out[name] = (int(line[0]), line[1])
    return out


def main(argv):
    import json
    import platform
    import subprocess
    root = os.path.abspath(argv[0]) if argv else ROOT
    rev = argv[1] if len(argv) > 1 else subprocess.run(
        ["git", "describe", "--always", "--dirty=+"], cwd=root, check=True,
        capture_output=True, text=True).stdout.strip()
    counts = run(root)
    record = {"rev": rev, "python": platform.python_version(), "seed": 3,
              "units": 1000,
              "opcodes": {name: ops for name, (ops, _) in counts.items()},
              "digests": {name: dig[:12] for name, (_, dig) in counts.items()}}
    path = os.path.join(ROOT, "BENCH_opcodes.json")
    try:
        with open(path) as fh:
            records = json.load(fh)
    except FileNotFoundError:
        records = []
    records = [r for r in records if r["rev"] != rev] + [record]
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
