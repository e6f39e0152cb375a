"""Command-line front end.

One binary, five subcommands: closed-form bounds, simulation sweeps, the
edge-coloring runner, certificate grid audits, and LP export.  All output is
CSV on stdout; a fixed seed makes runs byte-identical.  Exit status is 0
when every check passed, 1 when a verification failed, and 2 for any
malformed input: arguments, config file or trace.
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
from .events import fraction


class UsageError(Exception):
    pass


def _writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _config_tokens(path):
    """The `key = value` lines of a config file as `--key value` tokens."""
    tokens = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, val = text.partition("=")
            if not sep:
                raise UsageError("%s:%d: expected key = value" % (path, ln))
            tokens += ["--" + key.strip().replace("_", "-"), val.strip()]
    return tokens


# least values of the integer options; anything smaller verifies nothing
_LEAST = {"d": 2, "n": 1, "f": 1, "trials": 1, "steps": 1}


def _ints(name, many=False):
    """argparse type of option `name`: an int or, with `many`, a comma list
    of ints, each at least `_LEAST[name]` where that is set."""
    least = _LEAST.get(name)

    def parse(text):
        vals = [int(part) for part in text.split(",")] if many \
            else [int(text)]
        if least is not None and min(vals) < least:
            raise argparse.ArgumentTypeError("%s: need >= %d" % (text, least))
        return vals if many else vals[0]
    parse.__name__ = "int"
    return parse


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError("missing --%s" % name.replace("_", "-"))


# -- bound --------------------------------------------------------------------


def cmd_bound(args):
    out = _writer()
    kind = args.kind
    if kind == "clos-snb":
        _require(args, "n")
        out.writerow(["kind", "n", "m_sufficient"])
        out.writerow([kind, args.n, bounds.clos_snb(args.n)])
    elif kind == "clos-wsnb-r2":
        _require(args, "n")
        out.writerow(["kind", "n", "m_sufficient"])
        out.writerow([kind, args.n, bounds.clos_wsnb_r2(args.n)])
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
    elif kind == "multilog":
        _require(args, "d", "n", "t", "f")
        d, n, t, f = args.d, args.n, args.t, args.f
        if not (0 <= t <= n):
            raise UsageError("t=%d out of range for n=%d" % (t, n))
        if t == n:
            fn = (bounds.snb_fcast_t_eq_n if args.mode == "link"
                  else bounds.cf_snb_fcast_t_eq_n)
            m = fn(d, n, f)
            branch = "t=n"
        else:
            res = (bounds.C_bound if args.mode == "link"
                   else bounds.G_bound)(d, n, t, f)
            m, branch = res.m_sufficient, res.branch
        out.writerow(["kind", "d", "n", "t", "f", "mode", "m_sufficient",
                      "branch"])
        out.writerow([kind, d, n, t, f, args.mode, m, branch])
    else:
        raise UsageError("unknown bound kind %r" % kind)
    return 0


# -- simulate -----------------------------------------------------------------


def _multilog_sweep(args, out):
    """Write the sweep row; True when --expect-nonblocking was violated."""
    out.writerow(["network", "d", "n", "t", "f", "mode", "m", "adversary",
                  "seed", "trials", "blocked", "max_blocking_planes"])
    d, n, t, f = args.d, args.n, args.t, args.f
    if args.m is not None:
        m = args.m
    else:
        res = (bounds.C_bound if args.mode == "link"
               else bounds.G_bound)(d, n, t, f)
        m = res.m_sufficient + (args.m_offset or 0)
    trial_fn = (adversary.greedy_trial if args.adversary == "greedy"
                else adversary.random_trial)
    blocked = 0
    max_bp = 0
    for trial in range(args.trials):
        cfg = multilog.MultilogConfig(
            d=d, n=n, m=m, t=t, f=f, mode=args.mode,
            plane_policy=multilog.RANDOM, seed=args.seed + 7919 * trial)
        stats = trial_fn(cfg, args.steps, args.seed + trial)
        blocked += stats["blocked"]
        max_bp = max(max_bp, stats["max_blocking_planes"])
    out.writerow(["multilog", d, n, t, f, args.mode, m, args.adversary,
                  args.seed, args.trials, blocked, max_bp])
    return args.expect_nonblocking and blocked > 0


def _clos_sweep(args, out):
    """Write the sweep row; True when --expect-nonblocking was violated."""
    n, m = args.n, args.m
    out.writerow(["network", "n", "m", "adversary", "outcome"])
    if args.network == "clos-snb":
        if m is None:
            m = bounds.clos_snb(n)
        got = adversary.run_snb_saturation(n, m)
        outcome = "blocked" if got is clos.BLOCKED else "admitted"
    else:
        if m is None:
            m = bounds.clos_wsnb_r2(n)
        found = adversary.benes_search(n, m, max_depth=args.depth)
        outcome = "blocked" if found else "nonblocking"
    out.writerow([args.network, n, m, "exhaustive", outcome])
    return args.expect_nonblocking and outcome == "blocked"


def cmd_simulate(args):
    out = _writer()
    if args.trace:
        with open(args.trace) as fh:
            lines = fh.readlines()
        if args.network == "multilog":
            _require(args, "d", "n", "m")
            cfg = multilog.MultilogConfig(
                d=args.d, n=args.n, m=args.m, t=args.t or 0, f=args.f or 1,
                mode=args.mode, seed=args.seed)
            header = ["event", "id", "window", "plane", "status"]
            replayed = multilog.run_trace(cfg, lines)
        else:
            _require(args, "n", "m")
            traffic = (clos.MULTIRATE if args.network == "clos-multirate"
                       else clos.SPACE)
            r = 2 if args.r is None else args.r
            reuse = args.network == "clos-benes"
            if reuse and r != 2:
                raise UsageError("clos-benes replays the r = 2 reuse rule; "
                                 "got --r %d" % r)
            cfg = clos.ClosConfig.symmetric(n=args.n, m=args.m, r=r,
                                            traffic=traffic)
            header = ["event", "id", "middle", "status"]
            replayed = clos.run_trace(cfg, lines, reuse=reuse)
        out.writerow(header)
        blocked = 0
        for row in replayed:
            out.writerow([row[col] for col in header])
            blocked += row["status"] == "blocked"
        return 1 if (args.expect_nonblocking and blocked) else 0

    if args.network == "multilog":
        _require(args, "d", "n", "t", "f")
        return 1 if _multilog_sweep(args, out) else 0
    if args.network in ("clos-snb", "clos-benes"):
        _require(args, "n")
        return 1 if _clos_sweep(args, out) else 0
    raise UsageError("network %r has no sweep; replay one with --trace FILE"
                     % args.network)


# -- dwec ---------------------------------------------------------------------


def cmd_dwec(args):
    out = _writer()
    if args.derive_constants:
        derived = dwec.derive_constants(
            [fraction(part) for part in args.derive_constants.split(",")])
        out.writerow(["breakpoints", "x", "objective", "objective_float"])
        out.writerow([",".join(str(b) for b in derived.breakpoints),
                      ",".join(str(v) for v in derived.x),
                      str(derived.objective), float(derived.objective)])
        return 0
    if not args.trace:
        raise UsageError("need --trace or --derive-constants")
    scheme = (dwec.DwecScheme.five_type() if args.scheme == "five"
              else dwec.FOUR_TYPE)
    with open(args.trace) as fh:
        lines = fh.readlines()
    out.writerow(["t", "colors_used", "opt_lower", "W_bar", "Delta_bar"])
    for row in dwec.run_trace(lines, scheme=scheme, audit=True):
        out.writerow([row["t"], row["colors_used"], row["opt_lower"],
                      row["W_bar"], row["Delta_bar"]])
    return 0


# -- certify ------------------------------------------------------------------


def cmd_certify(args):
    out = _writer()
    out.writerow(["d", "n", "t", "f", "k", "p", "q", "mode", "feasible",
                  "objective", "cost_formula", "match"])
    failures = 0
    modes = [args.mode] if args.mode else [lpcert.LINK, lpcert.CROSSTALK]
    for d in args.d:
        for n in args.n:
            for t in range(0, n):
                fs = args.f if args.f else sorted(
                    {1, 2, min(4, d ** n), d ** n})
                for f in fs:
                    for mode in modes:
                        ks = range(1, min(f, d ** t) + 1)
                        for k in ks:
                            inst = lpcert.canonical_instance(d, n, t, f, k,
                                                             mode)
                            for p in range(0, n - t):
                                for q in range(n - t, n + 1):
                                    failures += _certify_point(
                                        out, inst, p, q, args)
    return 1 if failures else 0


def _certify_point(out, inst, p, q, args):
    sol = lpcert.dual_family(inst, p, q)
    if args.fuzz:
        sol.eps = {i: 0 for i in sol.eps}
        sol.gamma = {i: 0 for i in sol.gamma}
        sol.beta = {}
        sol.alpha = {j: 0 for j in sol.alpha}
    try:
        sol.check_feasible()
        feasible = True
        note = ""
    except lpcert.Infeasible as exc:
        feasible = False
        note = str(exc)
    cost = lpcert.family_cost(inst, p, q)
    if q == inst.n - inst.t:
        obj = sol.objective() if feasible else ""
    else:
        obj = sol.objective_bounded_delta(q) if feasible else ""
    match = feasible and obj == cost
    out.writerow([inst.d, inst.n, inst.t, inst.f, inst.k, p, q, inst.mode,
                  str(feasible).lower(), obj if feasible else note, cost,
                  str(bool(match)).lower()])
    return 0 if match else 1


# -- export-lp ----------------------------------------------------------------


def cmd_export_lp(args):
    _require(args, "d", "n", "t", "f", "k")
    inst = lpcert.canonical_instance(args.d, args.n, args.t, args.f,
                                     args.k, args.mode)
    text = lpcert.export_lp(inst)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    s.add_argument("--adversary", choices=["random", "greedy", "exhaustive"],
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
    c.add_argument("--fuzz", action="store_true",
                   help="corrupt the duals to exercise violation reporting")
    common(c)
    c.set_defaults(fn=cmd_certify)

    e = sub.add_parser("export-lp", help="write the primal LP as text")
    for name in ("d", "n", "t", "f", "k"):
        e.add_argument("--" + name, type=_ints(name))
    e.add_argument("--mode", choices=["link", "crosstalk"], default="link")
    e.add_argument("--out")
    common(e)
    e.set_defaults(fn=cmd_export_lp)
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
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
