"""Count the Python opcodes that 1,000 benchmark units run, per workload.

    python3 tests/opcode_count.py [ROOT [REV]]
    python3 tests/opcode_count.py --diff ROOT_A ROOT_B WORKLOAD

Each workload runs in its own interpreter, with PYTHONHASHSEED=0 and
PYTHONDONTWRITEBYTECODE=1, on ROOT's `src/` and `bench/workloads.py` (ROOT
is this repository by default).  The child builds `WORKLOADS[name](3)`,
then counts every opcode of 1,000 `unit()` calls under `sys.settrace` with
`f_trace_opcodes`, per code object.  Opcodes count Python bytecode only,
not C-level work such as `sorted` or dict lookups, so they sit beside wall
time and RSS.
The record (REV, by default `git describe --always --dirty=+` of ROOT; the
Python version; each workload's count and first 12 digest digits) goes
last in BENCH_opcodes.json at this repository's root, in place of any
record of the same REV.

`--diff` reads one workload's count in both roots by function: a ledger
of the opcodes run in each `co_qualname` (`co_name` before Python 3.11),
prefixed by its file's module name.  It prints each function whose count
differs, the largest change first, and then the totals; it records
nothing.
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
        "o.report(*sys.argv[1:])" % HERE


def count(root, name, units="1000", tiny=""):
    """({code object: opcodes run in it}, digest) of `units` units of one
    workload at seed 3, at its smoke-test size if `tiny`; the arguments
    come as argv strings."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    wl = cls(3, **cls.TINY) if tiny else cls(3)
    ops = {}

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            code = frame.f_code
            ops[code] = ops.get(code, 0) + 1
        return tracer
    sys.settrace(tracer)
    for _ in range(int(units)):
        wl.unit()
    sys.settrace(None)
    return ops, wl.digest.hexdigest()


def report(*args):
    """Print `count(*args)`: the total opcodes and the digest, then one
    line of opcodes and qualname per code object."""
    ops, digest = count(*args)
    print(sum(ops.values()), digest)
    for code, n in ops.items():
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        print(n, "%s.%s" % (module, getattr(code, "co_qualname",
                                            code.co_name)))


def child(root, name, units, tiny):
    """The lines `report` prints in a fresh child."""
    import subprocess
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-c", CHILD, root, name, str(units),
         "1" if tiny else ""], env=env, check=True, capture_output=True,
        text=True).stdout.splitlines()


def run(root=ROOT, units=1000, tiny=False):
    """{name: (opcodes, full digest)}, each from a fresh child."""
    out = {}
    for name in NAMES:
        ops, digest = child(root, name, units, tiny)[0].split()
        out[name] = (int(ops), digest)
    return out


def ledger(root, name, units=1000, tiny=False):
    """({qualname: opcodes}, full digest) of one workload, from a fresh
    child; code objects of one qualname are summed."""
    head, *lines = child(root, name, units, tiny)
    book = {}
    for line in lines:
        n, qualname = line.split(" ", 1)
        book[qualname] = book.get(qualname, 0) + int(n)
    return book, head.split()[1]


def diff(root_a, root_b, name, units=1000):
    """The lines `--diff` prints: per qualname whose count differs, the
    change and both counts, the largest change first; then the totals."""
    (a, dig_a), (b, dig_b) = (ledger(r, name, units)
                              for r in (root_a, root_b))
    rows = sorted(((b.get(q, 0) - a.get(q, 0), q)
                   for q in a.keys() | b.keys()),
                  key=lambda row: (-abs(row[0]), row[1]))
    fmt = "%+10d %10d %10d  %s"
    lines = [fmt % (delta, a.get(q, 0), b.get(q, 0), q)
             for delta, q in rows if delta]
    total_a, total_b = sum(a.values()), sum(b.values())
    lines.append(fmt % (total_b - total_a, total_a, total_b, "total"))
    if dig_a != dig_b:
        lines.append("digests differ: %s %s" % (dig_a[:12], dig_b[:12]))
    return lines


def main(argv):
    import json
    import platform
    import subprocess
    if argv[:1] == ["--diff"]:
        if len(argv) != 4 or argv[3] not in NAMES:
            print("usage: opcode_count.py --diff ROOT_A ROOT_B WORKLOAD",
                  file=sys.stderr)
            return 2
        print("\n".join(diff(*map(os.path.abspath, argv[1:3]), argv[3])))
        return 0
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
