"""Command-line front end.

One binary, five subcommands: closed-form bounds, simulation sweeps and
trace replays, the edge-coloring runner, certificate grid audits, and the
blocking LP's exact optimum.  All output is CSV on stdout; a fixed seed
makes runs byte-identical.  Exit status is 0 when every check passed, 1
when a verification failed, and 2 for any malformed input: arguments,
config file or trace.

Each run is a function whose keyword parameters are the options it reads,
with their defaults; it returns true when a check failed.  `main` refuses
an unread option, and a required one left out, before any work.
"""

import argparse
import csv
import itertools
import sys

from . import bounds
from . import clos
from . import dwec
from . import lpcert
from . import multilog
from . import adversary
from .adversary import greedy_trial, random_trial
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


def _ints(text):
    """argparse type of a comma list of ints, each value once, in the order
    first given."""
    return list(dict.fromkeys(int(part) for part in text.split(",")))


_ints.__name__ = "int"   # as argparse names the type in its messages


# -- bound --------------------------------------------------------------------


def bound_clos(kind, *, n):
    fn = bounds.clos_snb if kind == "clos-snb" else bounds.clos_wsnb_r2
    _writer().writerows([["kind", "n", "m_sufficient"], [kind, n, fn(n)]])


def bound_multirate(kind, *, n, scheme="four_type"):
    _writer().writerows([["kind", "n", "scheme", "m_sufficient"],
                         [kind, n, scheme, bounds.clos_multirate(n, scheme)]])


def bound_hwang(kind, *, d, n):
    _writer().writerows([["kind", "d", "n", "m_sufficient"],
                         [kind, d, n, bounds.hwang_unicast(d, n)]])


def bound_multilog(kind, *, d, n, t, f, mode="link"):
    m, branch = bounds.multilog_planes(d, n, t, f, mode)
    _writer().writerows([["kind", "d", "n", "t", "f", "mode", "m_sufficient",
                          "branch"], [kind, d, n, t, f, mode, m, branch]])


# -- simulate -----------------------------------------------------------------


def _sweep_m(m, m_offset, default):
    """The m a sweep runs at: --m, or else `default()` plus --m-offset."""
    if m is not None and m_offset is not None:
        raise ValueError("give --m or --m-offset, not both")
    return default() + (m_offset or 0) if m is None else m


def multilog_sweep(*, d, n, t, f, m=None, m_offset=None, mode="link",
                   adversary="random", trials=10, steps=60, seed=0,
                   expect_nonblocking=False):
    check_range("trials", trials, 1)   # no trial would verify nothing
    check_range("steps", steps, 1)
    m = _sweep_m(m, m_offset,
                 lambda: bounds.multilog_planes(d, n, t, f, mode)[0])
    # every config is built before the header, so a refused one prints none
    configs = [multilog.MultilogConfig(
        d=d, n=n, m=m, t=t, f=f, mode=mode, plane_policy=multilog.RANDOM,
        seed=seed + 7919 * trial) for trial in range(trials)]
    out = _writer()
    out.writerow(["network", "d", "n", "t", "f", "mode", "m", "adversary",
                  "seed", "trials", "blocked", "max_blocking_planes"])
    blocked = max_bp = 0
    trial_fn = {"random": random_trial, "greedy": greedy_trial}[adversary]
    for trial, cfg in enumerate(configs):
        stats = trial_fn(cfg, steps, seed + trial)
        blocked += stats["blocked"]
        max_bp = max(max_bp, stats["max_blocking_planes"])
    out.writerow(["multilog", d, n, t, f, mode, m, adversary, seed, trials,
                  blocked, max_bp])
    return expect_nonblocking and blocked


def snb_sweep(*, n, m=None, m_offset=None, expect_nonblocking=False):
    m = _sweep_m(m, m_offset, lambda: bounds.clos_snb(n))
    config, lines = adversary.snb_saturation(n, m)
    return _clos_sweep("clos-snb", config, lines, expect_nonblocking)


def benes_sweep(*, n, m=None, m_offset=None, depth=None, r=2,
                expect_nonblocking=False):
    m = _sweep_m(m, m_offset, lambda: bounds.clos_wsnb_r2(n))
    config = _clos_config("clos-benes", n, m, r)
    lines = adversary.benes_search(n, m, max_depth=depth)
    return _clos_sweep("clos-benes", config, lines, expect_nonblocking)


def _clos_config(network, n, m, r):
    if network == "clos-benes" and r != 2:
        raise ValueError("clos-benes replays the r = 2 reuse rule; got --r %d"
                         % r)
    return clos.ClosConfig(n, m, r, clos.MULTIRATE
                           if network == "clos-multirate" else clos.SPACE)


def _clos_sweep(network, config, lines, expect_nonblocking):
    """Write the row of a schedule or search's `lines`.  A blocking verdict
    is the simulator's, on a replay audited per row."""
    reuse = network == "clos-benes"
    if lines is None:
        outcome = "nonblocking"
    elif not lines:
        outcome = "undecided"
    else:
        state = clos.ClosState(config)
        *setup, last = [row["status"] for row in _audited(
            state, clos.run_trace(state, lines, reuse=reuse))]
        check(set(setup) <= {"ok"}
              and last in (("blocked",) if reuse else ("ok", "blocked")),
              "the %s replay ends %r after %r", network, last,
              sorted(set(setup)))
        outcome = "blocked" if last == "blocked" else "admitted"
    _writer().writerows([["network", "n", "m", "adversary", "outcome"],
                         [network, config.n, config.m, "exhaustive", outcome]])
    return expect_nonblocking and outcome in ("blocked", "undecided")


def multilog_replay(*, trace, d, n, m, t=0, f=1, mode="link",
                    expect_nonblocking=False):
    state = multilog.ConnState(
        multilog.MultilogConfig(d=d, n=n, m=m, t=t, f=f, mode=mode))
    blocked = _replay(["event", "id", "window", "plane", "status"],
                      multilog.run_trace(state, _lines(trace)))
    return expect_nonblocking and blocked


def clos_replay(network, *, trace, n, m, r=2, expect_nonblocking=False):
    state = clos.ClosState(_clos_config(network, n, m, r))
    blocked = _replay(["event", "id", "middle", "status"], clos.run_trace(
        state, _lines(trace), reuse=network == "clos-benes"))
    return expect_nonblocking and blocked


def _replay(header, replayed):
    """Write a replay's rows, all run before the header so that a malformed
    line leaves no partial CSV; the number of them that blocked."""
    rows = [[row[col] for col in header] for row in replayed]
    _writer().writerows([header] + rows)
    return sum(row[-1] == "blocked" for row in rows)


def _audited(state, replayed):
    """The rows of a replay into `state`, audited after each one."""
    for row in replayed:
        state.audit()
        yield row


# -- dwec ---------------------------------------------------------------------


def dwec_derive(*, derive_constants):
    scheme = dwec.DwecScheme(map(fraction, derive_constants.split(",")))
    objective = sum(scheme.x)
    _writer().writerows([["breakpoints", "x", "objective", "objective_float"],
                         [",".join(map(str, scheme.breakpoints)),
                          ",".join(map(str, scheme.x)),
                          str(objective), float(objective)]])


def dwec_replay(*, trace, scheme="four"):
    state = dwec.ColoringState(scheme=dwec.DwecScheme.five_type()
                               if scheme == "five" else dwec.FOUR_TYPE)
    _replay(["t", "colors_used", "opt_lower", "W_bar", "Delta_bar"],
            _audited(state, dwec.run_trace(state, _lines(trace))))


# -- certify ------------------------------------------------------------------


MAX_ROWS = 1_000_000   # the most rows `certify` writes: half a minute


def cmd_certify(*, d=(2,), n=(3, 4), f=None, mode=None):
    # the cells are counted before the header, so a refused grid prints
    # none; a (d, n) has at least its f = 1 rows, C(n + 2, 3) per mode
    modes = [mode] if mode else [lpcert.LINK, lpcert.CROSSTALK]
    cells, rows = [], 0
    for d, n in itertools.product(d, n):
        _within_cap(rows + len(modes) * n * (n + 1) * (n + 2) // 6)
        check_sizes(d, n)   # before any d ** n
        fs = f or sorted({1, 2, min(4, d ** n), d ** n})
        for fanout in fs:
            check_sizes(d, n, 0, fanout)
        for t in range(n):
            for fanout, mode in itertools.product(fs, modes):
                ks = min(fanout, d ** t)
                cells.append((d, n, t, fanout, mode, ks))
                rows += (n - t) * (t + 1) * ks
                _within_cap(rows)
    out = _writer()
    out.writerow(["d", "n", "t", "f", "k", "p", "q", "mode", "feasible",
                  "objective", "cost_formula", "match"])
    failures = 0
    for d, n, t, fanout, mode, ks in cells:
        for k in range(1, ks + 1):
            inst = lpcert.canonical_instance(d, n, t, fanout, k, mode)
            for p in range(0, n - t):
                for q in range(n - t, n + 1):
                    failures += _certify_point(out, inst, p, q)
    return failures


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


def cmd_optimum(*, d, n, t, f, k, mode="link"):
    inst = lpcert.canonical_instance(d, n, t, f, k, mode)
    value, dual = lpcert.lp_optimum(inst)
    dual.check_feasible()
    check(dual.objective() == value, "the optimal dual prices at %s, not %s",
          dual.objective(), value)
    _writer().writerows([["d", "n", "t", "f", "k", "mode", "optimum"],
                         [d, n, t, f, k, mode, value]])


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="switchlp")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, summary):
        # no defaults: the namespace holds only the options given
        return sub.add_parser(name, help=summary,
                              argument_default=argparse.SUPPRESS)

    b = subcommand("bound", "closed-form plane/crossbar bounds")
    b.add_argument("kind", choices=list(_BOUNDS))
    for name in ("d", "n", "t", "f"):
        b.add_argument("--" + name, type=int)
    b.add_argument("--mode", choices=["link", "crosstalk"])
    b.add_argument("--scheme", choices=["four_type", "five_type_paper"])

    s = subcommand("simulate", "simulation sweeps and trace replay")
    s.add_argument("--network", choices=["multilog", "clos-snb",
                                         "clos-benes", "clos-multirate"])
    for name in ("d", "n", "t", "f", "m", "m-offset", "r", "depth"):
        s.add_argument("--" + name, type=int)
    s.add_argument("--mode", choices=["link", "crosstalk"])
    s.add_argument("--adversary", choices=["random", "greedy"])
    for name in ("trials", "steps", "seed"):
        s.add_argument("--" + name, type=int)
    s.add_argument("--trace")
    s.add_argument("--expect-nonblocking", action="store_true")

    w = subcommand("dwec", "edge-coloring runs and LP derivation")
    w.add_argument("--trace")
    w.add_argument("--scheme", choices=["four", "five"])
    w.add_argument("--derive-constants")

    c = subcommand("certify", "dual-certificate grid audit")
    for name in ("d", "n", "f"):
        c.add_argument("--" + name, type=_ints)
    c.add_argument("--mode", choices=["link", "crosstalk"])

    o = subcommand("optimum", "the blocking LP's exact optimum")
    for name in ("d", "n", "t", "f", "k"):
        o.add_argument("--" + name, type=int)
    o.add_argument("--mode", choices=["link", "crosstalk"])
    for p in sub.choices.values():
        p.add_argument("--config", help="key = value defaults file")
    return parser


_BOUNDS = {"clos-snb": bound_clos, "clos-wsnb-r2": bound_clos,
           "clos-multirate": bound_multirate, "hwang": bound_hwang,
           "multilog": bound_multilog}


def _select(opts):
    """(name, run, positional arguments) of the run that `opts` selects;
    the entries that select it are taken out of `opts`."""
    command = opts.pop("command")
    if command == "bound":
        kind = opts.pop("kind")
        return "bound " + kind, _BOUNDS[kind], (kind,)
    if command == "simulate":
        network = opts.pop("network", "multilog")
        if "trace" in opts:
            if network == "multilog":
                return "the multilog replay", multilog_replay, ()
            return "the %s replay" % network, clos_replay, (network,)
        sweep = {"multilog": multilog_sweep, "clos-snb": snb_sweep,
                 "clos-benes": benes_sweep}.get(network)
        if sweep is None:
            raise ValueError("network %r has no sweep; replay one with "
                             "--trace FILE" % network)
        return "the %s sweep" % network, sweep, ()
    if command == "dwec":
        if "derive_constants" in opts:
            return "dwec --derive-constants", dwec_derive, ()
        if "trace" not in opts:
            raise ValueError("need --trace or --derive-constants")
        return "dwec --trace", dwec_replay, ()
    return command, cmd_certify if command == "certify" else cmd_optimum, ()


def _check_options(name, run, opts):
    """Refuse an option `run` does not read, then a required one left out."""
    code = run.__code__
    params = code.co_varnames[code.co_argcount:
                              code.co_argcount + code.co_kwonlyargcount]
    for key in opts:
        if key not in params:
            raise ValueError("%s does not read --%s"
                             % (name, key.replace("_", "-")))
    for key in params:
        if key not in opts and key not in (run.__kwdefaults__ or {}):
            raise ValueError("missing --%s for %s"
                             % (key.replace("_", "-"), name))


def main(argv=None):
    """Run one subcommand; the only place input errors become exit 2."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if "config" in args:
            # config entries go first, so the real command line wins, and
            # argparse checks their types and choices like any other token
            args = parser.parse_args(argv[:1] + _config_tokens(args.config)
                                     + argv[1:])
        opts = vars(args)
        opts.pop("config", None)
        name, run, selectors = _select(opts)
        _check_options(name, run, opts)
        return 1 if run(*selectors, **opts) else 0
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
