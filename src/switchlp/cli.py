"""Command-line front end.

One binary, five subcommands: closed-form bounds, simulation sweeps, the
edge-coloring runner, certificate grid audits, and the blocking LP's exact
optimum.  All output is CSV on stdout; a fixed seed makes runs
byte-identical.  Exit status is 0 when every check passed, 1 when a
verification failed, and 2 for any malformed input: arguments, config file
or trace.
"""

import argparse
import csv
import sys

from . import bounds
from . import clos
from . import dwec
from . import lpcert
from . import multilog
from . import adversary
from .events import check, check_range, check_sizes, fraction


def _writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _lines(path):
    """A file's lines as bytes, split where text mode splits them; each
    reader decodes its lines one at a time, so it can name a bad one."""
    with open(path, "rb") as fh:
        return fh.read().splitlines()


def _config_tokens(path):
    """The `key = value` lines of a config file as `--key value` tokens."""
    tokens = []
    for ln, raw in enumerate(_lines(path), start=1):
        try:
            text = raw.decode().strip()
        except UnicodeDecodeError:
            raise ValueError("%s:%d: not UTF-8: %r"
                             % (path, ln, raw.strip())) from None
        if not text or text.startswith("#"):
            continue
        key, sep, val = text.partition("=")
        if not sep:
            raise ValueError("%s:%d: expected key = value" % (path, ln))
        tokens += ["--" + key.strip().replace("_", "-"), val.strip()]
    return tokens


# least values of the integer options; anything smaller verifies nothing
_LEAST = {"d": 2, "n": 1, "f": 1, "m": 1, "depth": 0, "trials": 1,
          "steps": 1}


def _ints(name, many=False):
    """argparse type of option `name`: an int or, with `many`, a comma list
    of ints, each at least `_LEAST[name]` by `check_range` where set."""
    least = _LEAST.get(name)

    def parse(text):
        vals = [int(part) for part in text.split(",")] if many \
            else [int(text)]
        if least is not None:
            try:
                check_range(name, min(vals), least)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return vals if many else vals[0]
    parse.__name__ = "int"
    return parse


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError("missing --%s" % name.replace("_", "-"))


# -- bound --------------------------------------------------------------------


def cmd_bound(args):
    out = _writer()
    kind = args.kind
    if kind in ("clos-snb", "clos-wsnb-r2"):
        _require(args, "n")
        fn = bounds.clos_snb if kind == "clos-snb" else bounds.clos_wsnb_r2
        out.writerow(["kind", "n", "m_sufficient"])
        out.writerow([kind, args.n, fn(args.n)])
    elif kind == "clos-multirate":
        _require(args, "n")
        val = bounds.clos_multirate(args.n, scheme=args.scheme)
        out.writerow(["kind", "n", "scheme", "m_sufficient"])
        out.writerow([kind, args.n, args.scheme, val])
    elif kind == "hwang":
        _require(args, "d", "n")
        out.writerow(["kind", "d", "n", "m_sufficient"])
        out.writerow([kind, args.d, args.n,
                      bounds.hwang_unicast(args.d, args.n)])
    else:  # multilog, the last of the parser's choices
        _require(args, "d", "n", "t", "f")
        d, n, t, f = args.d, args.n, args.t, args.f
        m, branch = bounds.multilog_planes(d, n, t, f, args.mode)
        out.writerow(["kind", "d", "n", "t", "f", "mode", "m_sufficient",
                      "branch"])
        out.writerow([kind, d, n, t, f, args.mode, m, branch])
    return 0


# -- simulate -----------------------------------------------------------------


def _sweep_m(args, default):
    """The m a sweep runs at: --m, or else `default()` plus --m-offset."""
    if args.m is not None and args.m_offset is not None:
        raise ValueError("give --m or --m-offset, not both")
    if args.m is not None:
        return args.m
    return default() + (args.m_offset or 0)


def _multilog_sweep(args, out):
    """Write the sweep row; True when --expect-nonblocking was violated."""
    d, n, t, f = args.d, args.n, args.t, args.f
    m = _sweep_m(args, lambda: bounds.multilog_planes(d, n, t, f,
                                                      args.mode)[0])
    # every config is built before the header, so a refused one prints none
    configs = [multilog.MultilogConfig(
        d=d, n=n, m=m, t=t, f=f, mode=args.mode,
        plane_policy=multilog.RANDOM, seed=args.seed + 7919 * trial)
        for trial in range(args.trials)]
    out.writerow(["network", "d", "n", "t", "f", "mode", "m", "adversary",
                  "seed", "trials", "blocked", "max_blocking_planes"])
    trial_fn = (adversary.greedy_trial if args.adversary == "greedy"
                else adversary.random_trial)
    blocked = 0
    max_bp = 0
    for trial, cfg in enumerate(configs):
        stats = trial_fn(cfg, args.steps, args.seed + trial)
        blocked += stats["blocked"]
        max_bp = max(max_bp, stats["max_blocking_planes"])
    out.writerow(["multilog", d, n, t, f, args.mode, m, args.adversary,
                  args.seed, args.trials, blocked, max_bp])
    return args.expect_nonblocking and blocked > 0


def _clos_sweep(args, out):
    """Write the sweep row; True when --expect-nonblocking was violated.
    A blocking verdict is the simulator's, on a replay audited per row."""
    n = args.n
    reuse = args.network == "clos-benes"
    m = _sweep_m(args, lambda: (bounds.clos_wsnb_r2 if reuse
                                else bounds.clos_snb)(n))
    if not reuse:
        config, lines = adversary.snb_saturation(n, m)
    else:
        config = clos.ClosConfig(n, m, 2)
        lines = adversary.benes_search(n, m, max_depth=args.depth)
    if lines is None:
        outcome = "nonblocking"
    elif not lines:
        outcome = "undecided"
    else:
        state = clos.ClosState(config)
        statuses = []
        for row in clos.run_trace(state, lines, reuse=reuse):
            state.audit()
            statuses.append(row["status"])
        *setup, last = statuses
        check(set(setup) <= {"ok"}
              and last in (("blocked",) if reuse else ("ok", "blocked")),
              "the %s replay ends %r after %r", args.network, last,
              sorted(set(setup)))
        outcome = "blocked" if last == "blocked" else "admitted"
    out.writerow(["network", "n", "m", "adversary", "outcome"])
    out.writerow([args.network, n, m, "exhaustive", outcome])
    return args.expect_nonblocking and outcome in ("blocked", "undecided")


def cmd_simulate(args):
    out = _writer()
    if args.network == "clos-benes" and args.r not in (None, 2):
        raise ValueError("clos-benes replays the r = 2 reuse rule; got --r %d"
                         % args.r)
    if args.trace:
        if args.m_offset is not None:
            raise ValueError("--m-offset shifts a sweep's default m; a "
                             "--trace replay runs at --m")
        lines = _lines(args.trace)
        if args.network == "multilog":
            _require(args, "d", "n", "m")
            cfg = multilog.MultilogConfig(
                d=args.d, n=args.n, m=args.m, t=args.t or 0, f=args.f or 1,
                mode=args.mode, seed=args.seed)
            header = ["event", "id", "window", "plane", "status"]
            replayed = multilog.run_trace(multilog.ConnState(cfg), lines)
        else:
            _require(args, "n", "m")
            traffic = (clos.MULTIRATE if args.network == "clos-multirate"
                       else clos.SPACE)
            r = 2 if args.r is None else args.r
            reuse = args.network == "clos-benes"
            cfg = clos.ClosConfig(args.n, args.m, r, traffic)
            header = ["event", "id", "middle", "status"]
            replayed = clos.run_trace(clos.ClosState(cfg), lines,
                                      reuse=reuse)
        # the whole replay runs before the header, so a malformed line
        # leaves no partial CSV
        rows = [[row[col] for col in header] for row in replayed]
        out.writerow(header)
        out.writerows(rows)
        blocked = sum(row[-1] == "blocked" for row in rows)
        return 1 if (args.expect_nonblocking and blocked) else 0

    if args.network == "multilog":
        _require(args, "d", "n", "t", "f")
        return 1 if _multilog_sweep(args, out) else 0
    if args.network in ("clos-snb", "clos-benes"):
        _require(args, "n")
        return 1 if _clos_sweep(args, out) else 0
    raise ValueError("network %r has no sweep; replay one with --trace FILE"
                     % args.network)


# -- dwec ---------------------------------------------------------------------


def cmd_dwec(args):
    out = _writer()
    if args.derive_constants:
        scheme = dwec.DwecScheme(
            [fraction(part) for part in args.derive_constants.split(",")])
        objective = sum(scheme.x)
        out.writerow(["breakpoints", "x", "objective", "objective_float"])
        out.writerow([",".join(map(str, scheme.breakpoints)),
                      ",".join(map(str, scheme.x)),
                      str(objective), float(objective)])
        return 0
    if not args.trace:
        raise ValueError("need --trace or --derive-constants")
    scheme = (dwec.DwecScheme.five_type() if args.scheme == "five"
              else dwec.FOUR_TYPE)
    lines = _lines(args.trace)
    header = ["t", "colors_used", "opt_lower", "W_bar", "Delta_bar"]
    state = dwec.ColoringState(scheme=scheme)
    rows = []
    for row in dwec.run_trace(state, lines):   # all before the header
        state.audit()
        rows.append([row[col] for col in header])
    out.writerow(header)
    out.writerows(rows)
    return 0


# -- certify ------------------------------------------------------------------


MAX_ROWS = 1_000_000   # the most rows `certify` writes: half a minute


def cmd_certify(args):
    # the cells are counted before the header, so a refused grid prints
    # none; a (d, n) has at least its f = 1 rows, C(n + 2, 3) per mode
    modes = [args.mode] if args.mode else [lpcert.LINK, lpcert.CROSSTALK]
    cells, rows = [], 0
    for d in args.d:
        for n in args.n:
            _within_cap(rows + len(modes) * n * (n + 1) * (n + 2) // 6)
            fs = args.f or sorted({1, 2, min(4, d ** n), d ** n})
            check_sizes(d, n, 0, max(fs))   # each f is at least 1
            for t in range(n):
                for f in fs:
                    ks = min(f, d ** t)
                    for mode in modes:
                        cells.append((d, n, t, f, mode, ks))
                        rows += (n - t) * (t + 1) * ks
                        _within_cap(rows)
    out = _writer()
    out.writerow(["d", "n", "t", "f", "k", "p", "q", "mode", "feasible",
                  "objective", "cost_formula", "match"])
    failures = 0
    for d, n, t, f, mode, ks in cells:
        for k in range(1, ks + 1):
            inst = lpcert.canonical_instance(d, n, t, f, k, mode)
            for p in range(0, n - t):
                for q in range(n - t, n + 1):
                    failures += _certify_point(out, inst, p, q)
    return 1 if failures else 0


def _within_cap(rows):
    if rows > MAX_ROWS:
        raise ValueError("the grid has more than %d rows" % MAX_ROWS)


def _certify_point(out, inst, p, q):
    sol = lpcert.dual_family(inst, p, q)
    try:
        sol.check_feasible()
        feasible = True
        note = ""
    except lpcert.Infeasible as exc:
        feasible = False
        note = str(exc)
    cost = lpcert.family_cost(inst, p, q)
    obj = sol.objective_bounded_delta(q) if feasible else ""
    match = feasible and obj == cost
    out.writerow([inst.d, inst.n, inst.t, inst.f, inst.k, p, q, inst.mode,
                  str(feasible).lower(), obj if feasible else note, cost,
                  str(bool(match)).lower()])
    return 0 if match else 1


# -- optimum ------------------------------------------------------------------


def cmd_optimum(args):
    _require(args, "d", "n", "t", "f", "k")
    inst = lpcert.canonical_instance(args.d, args.n, args.t, args.f,
                                     args.k, args.mode)
    value, dual = lpcert.lp_optimum(inst)
    dual.check_feasible()
    check(dual.objective() == value, "the optimal dual prices at %s, not %s",
          dual.objective(), value)
    out = _writer()
    out.writerow(["d", "n", "t", "f", "k", "mode", "optimum"])
    out.writerow([inst.d, inst.n, inst.t, inst.f, inst.k, inst.mode, value])
    return 0


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="switchlp")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value defaults file")

    b = sub.add_parser("bound", help="closed-form plane/crossbar bounds")
    b.add_argument("kind", choices=["clos-snb", "clos-wsnb-r2",
                                    "clos-multirate", "hwang", "multilog"])
    for name in ("d", "n", "t", "f"):
        b.add_argument("--" + name, type=_ints(name))
    b.add_argument("--mode", choices=["link", "crosstalk"], default="link")
    b.add_argument("--scheme", choices=["four_type", "five_type_paper"],
                   default="four_type")
    common(b)
    b.set_defaults(fn=cmd_bound)

    s = sub.add_parser("simulate", help="simulation sweeps and trace replay")
    s.add_argument("--network", default="multilog",
                   choices=["multilog", "clos-snb", "clos-benes",
                            "clos-multirate"])
    for name in ("d", "n", "t", "f", "m", "m_offset", "r", "depth"):
        s.add_argument("--" + name.replace("_", "-"), dest=name,
                       type=_ints(name))
    s.add_argument("--mode", choices=["link", "crosstalk"], default="link")
    s.add_argument("--adversary", choices=["random", "greedy"],
                   default="random")
    s.add_argument("--trials", type=_ints("trials"), default=10)
    s.add_argument("--steps", type=_ints("steps"), default=60)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trace")
    s.add_argument("--expect-nonblocking", action="store_true")
    common(s)
    s.set_defaults(fn=cmd_simulate)

    w = sub.add_parser("dwec", help="edge-coloring runs and LP derivation")
    w.add_argument("--trace")
    w.add_argument("--scheme", choices=["four", "five"], default="four")
    w.add_argument("--derive-constants", dest="derive_constants")
    common(w)
    w.set_defaults(fn=cmd_dwec)

    c = sub.add_parser("certify", help="dual-certificate grid audit")
    for name, default in (("d", [2]), ("n", [3, 4]), ("f", None)):
        c.add_argument("--" + name, type=_ints(name, many=True),
                       default=default)
    c.add_argument("--mode", choices=["link", "crosstalk"])
    common(c)
    c.set_defaults(fn=cmd_certify)

    o = sub.add_parser("optimum", help="the blocking LP's exact optimum")
    for name in ("d", "n", "t", "f", "k"):
        o.add_argument("--" + name, type=_ints(name))
    o.add_argument("--mode", choices=["link", "crosstalk"], default="link")
    common(o)
    o.set_defaults(fn=cmd_optimum)
    return parser


def main(argv=None):
    """Run one subcommand; the only place input errors become exit 2."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config entries go first, so the real command line wins, and
            # argparse checks their types and choices like any other token
            args = parser.parse_args(argv[:1] + _config_tokens(args.config)
                                     + argv[1:])
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
