"""End-to-end acceptance checks.

Each test covers one acceptance criterion and emits exactly one
"CRITERION n: PASS/FAIL" line on the real stdout, bypassing capture, so
the verdicts are visible in the run log.  Findings (documented value-level
discrepancies that are logged rather than failed) are printed the same way.
A criterion passes only if the lines it prints are the ones
`criterion_lines.txt` holds for it, in order, its verdict last.
"""

from contextlib import contextmanager
from fractions import Fraction
import itertools
import math
import pathlib
import random

import pytest

from switchlp import adversary, bounds, dwec, lpcert, multilog
from switchlp.banyan import shares_link, shares_se
from switchlp.clos import ClosConfig, ClosState, BLOCKED
from switchlp.dary import DaryString, all_strings
from switchlp.dwec import ColoringState, FOUR_TYPE
from switchlp.multilog import MultilogConfig, ConnState

from address_oracle import route_sets
from clos_oracle import opt_exact, replay_audited
from lp_oracle import (cf_wsnb_window, danilewicz, dual_special_t_eq_n,
                       sufficient_m_enumerated, wang07)

F = Fraction


_CAP = None
_SAID = []   # every line `say` printed, in order
EXPECTED = pathlib.Path(__file__).with_name("criterion_lines.txt")


@pytest.fixture(autouse=True)
def _route_verdicts_past_capture(capfd):
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def say(text):
    _SAID.append(text)
    if _CAP is not None:
        with _CAP.disabled():
            print(text, flush=True)
    else:
        print(text, flush=True)


@contextmanager
def criterion(num):
    start, verdict = len(_SAID), "CRITERION %d: PASS" % num
    try:
        yield
        pinned = [line for line in EXPECTED.read_text().splitlines()
                  if line.split()[1].rstrip(":") == str(num)]
        assert _SAID[start:] + [verdict] == pinned, \
            "its lines differ from %s" % EXPECTED.name
    except BaseException as exc:
        say("CRITERION %d: FAIL (%s)" % (num, exc))
        raise
    say(verdict)


def ceil_div(a, b):
    return -(-a // b)


# -- criterion 1: Clos strict-sense sufficiency and necessity -----------------


def _clos_random_churn(n, m, r, steps, seed):
    state = ClosState(ClosConfig.symmetric(n=n, m=m, r=r))
    rng = random.Random(seed)
    live = []
    events = 0
    for i in range(steps):
        if live and rng.random() < 0.4:
            state.release(live.pop(rng.randrange(len(live))))
            events += 1
            continue
        ins = [(cb, p) for cb in range(r) for p in range(n)
               if (cb, p) not in state.busy_in]
        outs = [(cb, p) for cb in range(r) for p in range(n)
                if (cb, p) not in state.busy_out]
        if not ins or not outs:
            continue
        got = state.snb_admit(rng.choice(ins), rng.choice(outs), rid=str(i))
        assert got is not BLOCKED, "blocked at m=2n-1"
        live.append(str(i))
        events += 1
        if i % 50 == 0:
            state.audit()
    state.audit()
    return events


def _clos_greedy_churn(n, m, r, steps, seed, pool=24):
    """Each admission picks the candidate pair seeing the most middles
    already unavailable to it."""
    state = ClosState(ClosConfig.symmetric(n=n, m=m, r=r))
    rng = random.Random(seed)
    live = []
    events = 0
    for i in range(steps):
        if live and rng.random() < 0.35:
            state.release(live.pop(rng.randrange(len(live))))
            events += 1
            continue
        ins = [(cb, p) for cb in range(r) for p in range(n)
               if (cb, p) not in state.busy_in]
        outs = [(cb, p) for cb in range(r) for p in range(n)
                if (cb, p) not in state.busy_out]
        if not ins or not outs:
            continue
        best, score = None, -1
        for _ in range(pool):
            cand = (rng.choice(ins), rng.choice(outs))
            bad = (state.in_mids[cand[0][0]]
                   | state.out_mids[cand[1][0]]).bit_count()
            if bad > score:
                best, score = cand, bad
        assert score <= 2 * (n - 1)
        got = state.snb_admit(best[0], best[1], rid=str(i))
        assert got is not BLOCKED, "blocked at m=2n-1"
        live.append(str(i))
        events += 1
    state.audit()
    return events


def test_criterion_1_clos_snb():
    with criterion(1):
        events = 0
        for n in (2, 3, 4):
            m = 2 * n - 1
            for seed in (0, 1):
                events += _clos_random_churn(n, m, 4, 1800, seed)
            events += _clos_greedy_churn(n, m, 4, 800, 7 + n)
        assert events >= 10 ** 4, "only %d events" % events
        # the saturating schedule blocks its probe at 2n-2, not at 2n-1
        for n in range(2, 7):
            for m, probe in ((2 * n - 2, "blocked"), (2 * n - 1, "ok")):
                config, lines = adversary.snb_saturation(n, m)
                assert replay_audited(ClosState(config), lines) == \
                    ["ok"] * (len(lines) - 1) + [probe]


# -- criterion 2: two-crossbar reuse rule -------------------------------------


def test_criterion_2_benes_reuse():
    with criterion(2):
        events = 0
        for n in range(2, 9):
            m = bounds.clos_wsnb_r2(n)
            assert m == (3 * n) // 2
            state = ClosState(ClosConfig.symmetric(n=n, m=m, r=2))
            rng = random.Random(100 + n)
            live = []
            while events < (n - 1) * 1500:
                if live and rng.random() < 0.45:
                    state.release(live.pop(rng.randrange(len(live))))
                else:
                    ins = [(cb, p) for cb in range(2) for p in range(n)
                           if (cb, p) not in state.busy_in]
                    outs = [(cb, p) for cb in range(2) for p in range(n)
                            if (cb, p) not in state.busy_out]
                    if not ins or not outs:
                        continue
                    rid = "e%d" % events
                    got = state.benes_admit(rng.choice(ins),
                                            rng.choice(outs), rid=rid)
                    assert got is not BLOCKED, "blocked at m=%d n=%d" % (m, n)
                    live.append(rid)
                events += 1
                state.audit()  # includes both class-union size invariants
        assert events >= 10 ** 4
        for n in (2, 3, 4):
            m = bounds.clos_wsnb_r2(n)
            found = adversary.benes_search(n, m - 1, max_depth=20)
            assert found is not None, "no blocking at m-1 for n=%d" % n
            state = ClosState(ClosConfig.symmetric(n=n, m=m - 1, r=2))
            assert replay_audited(state, found, reuse=True) == \
                ["ok"] * (len(found) - 1) + ["blocked"]
        for n in (2, 3):
            assert adversary.benes_search(n, bounds.clos_wsnb_r2(n)) is None


# -- criterion 3: dynamic weighted edge coloring ------------------------------


def _coloring_formula(W100, Delta):
    """colors_used after arrival-only traffic with running maxima
    W_bar = W100/100 and Delta_bar = Delta."""
    if W100 == 0:
        return 0
    return (2 * Delta + ceil_div(3 * W100, 800)
            + ceil_div(3 * W100, 1000) + ceil_div(3 * W100, 100))


def test_criterion_3_dwec():
    with criterion(3):
        # (a) 10^5 random events, audits keep per-vertex per-color load <= 1
        rng = random.Random(12345)
        state = ColoringState()
        live = []
        for i in range(10 ** 5):
            if live and rng.random() < 0.48:
                state.depart(live.pop(rng.randrange(len(live))))
            else:
                state.arrive(i, rng.randrange(30), 30 + rng.randrange(30),
                             F(rng.randrange(1, 101), 100))
                live.append(i)
            if i % 1000 == 0:
                state.audit()
        state.audit()

        # (b) exact class sizes after every event
        x = FOUR_TYPE.x
        rng = random.Random(77)
        state = ColoringState()
        live = []
        for i in range(3000):
            if live and rng.random() < 0.45:
                state.depart(live.pop(rng.randrange(len(live))))
            else:
                state.arrive(i, rng.randrange(8), 8 + rng.randrange(8),
                             F(rng.randrange(1, 101), 100))
                live.append(i)
            assert len(state.classes[0]) == x[0] * state.Delta_bar
            for ci in (1, 2, 3):
                assert len(state.classes[ci]) == \
                    math.ceil(x[ci] * state.W_bar)
            if i % 50 == 0:
                state.audit()

        # (c) every instance with <= 8 edges over 4 vertices and weights
        # {1/4, 41/100, 3/5} satisfies colors_used <= 227/40 * opt + 9/5.
        # colors_used is order-independent under arrivals, so instances are
        # enumerated as edge multisets; the closed form for colors_used and
        # the max(ceil(load), heavy-degree) lower bound on opt turn the
        # check into integer arithmetic.
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        types = [(u, v, w) for (u, v) in pairs for w in (25, 41, 60)]
        visited = [0]

        def sweep(start, depth, load, heavy):
            visited[0] += 1
            W = max(load)
            if W:
                used = _coloring_formula(W, max(heavy))
                lb = max(ceil_div(W, 100), max(heavy))
                assert 40 * used <= 227 * lb + 72, (load, heavy)
            if depth == 8:
                return
            for ti in range(start, len(types)):
                u, v, w = types[ti]
                load[u] += w
                load[v] += w
                if w == 60:
                    heavy[u] += 1
                    heavy[v] += 1
                sweep(ti, depth + 1, load, heavy)
                load[u] -= w
                load[v] -= w
                if w == 60:
                    heavy[u] -= 1
                    heavy[v] -= 1

        sweep(0, 0, [0] * 4, [0] * 4)
        assert visited[0] == 1562275  # C(26, 8) multisets including empty

        # sampled cross-checks: the closed form matches the real coloring
        # run, and the integer lower bound never exceeds the exact optimum
        rng = random.Random(5)
        for _ in range(120):
            edges = [types[rng.randrange(len(types))]
                     for _ in range(rng.randrange(1, 9))]
            state = ColoringState(vertices=list(range(4)))
            load = [0] * 4
            heavy = [0] * 4
            for eid, (u, v, w) in enumerate(edges):
                state.arrive(eid, u, v, F(w, 100))
                load[u] += w
                load[v] += w
                if w == 60:
                    heavy[u] += 1
                    heavy[v] += 1
            assert state.colors_used == \
                _coloring_formula(max(load), max(heavy))
            opt = opt_exact([(u, v, F(w, 100)) for u, v, w in edges])
            assert max(ceil_div(max(load), 100), max(heavy)) <= opt
            assert 40 * state.colors_used <= 227 * opt + 72

        # (d) derived constants: 4-type exact, 5-type reported not asserted
        four = sum(dwec.DwecScheme((F(1, 2), F(2, 5), F(1, 3))).x)
        assert four == F(227, 40)
        five = sum(dwec.DwecScheme((F(1, 2), F(2, 5), F(1, 3), F(11, 43))).x)
        assert five < F(227, 40)
        say("CRITERION 3 note: 5-type derived objective = %s (~%.4f), "
            "reported only" % (five, float(five)))
        split = (F(1, 2), F(22, 49), F(23, 57), F(4, 11), F(19, 58),
                 F(16, 55))
        best = sum(dwec.DwecScheme(split).x)
        say("CRITERION 3 note: best split found (7 types, denominators "
            "<= 60) %s derives %s (~%.4f), below the published 5.6355 "
            "under this beta model, reported only"
            % (",".join(map(str, split)), best, float(best)))


# -- criterion 4: certificate grid --------------------------------------------

GRID_DN = [(d, n) for d in (2, 3) for n in (3, 4, 5)]


def _f_grid(d, n):
    return sorted({1, 2, 4, d ** n})


def test_criterion_4_certificate_grid():
    with criterion(4):
        points = 0
        for d, n in GRID_DN:
            for t in range(0, n):  # the (p, q) range is empty at t = n
                for f in _f_grid(d, n):
                    for mode in (lpcert.LINK, lpcert.CROSSTALK):
                        for k in range(1, min(f, d ** t) + 1):
                            inst = lpcert.canonical_instance(d, n, t, f, k,
                                                             mode)
                            for p in range(0, n - t):
                                for q in range(n - t, n + 1):
                                    sol = lpcert.dual_family(inst, p, q)
                                    sol.check_feasible()
                                    cost = lpcert.family_cost(inst, p, q)
                                    assert sol.objective_bounded_delta(q) \
                                        == cost, (d, n, t, f, k, mode, p, q)
                                    assert sol.objective() <= cost
                                    points += 1
        assert points >= 4000
        # t = n contributes no (p, q) certificates; the whole-network
        # specials are checked on sampled k for dual feasibility and for
        # an objective within the corollary's plane count less one
        for d, n in GRID_DN:
            for f in _f_grid(d, n):
                for mode, corollary in (
                        (lpcert.LINK, bounds.snb_fcast_t_eq_n),
                        (lpcert.CROSSTALK, bounds.cf_snb_fcast_t_eq_n)):
                    m = corollary(d, n, f)
                    ks = sorted({1, 2, d ** (n - 1), d ** n}
                                & set(range(1, min(f, d ** n) + 1)))
                    for k in ks:
                        inst = lpcert.canonical_instance(d, n, n, f, k, mode)
                        sol = dual_special_t_eq_n(inst)
                        sol.check_feasible()
                        assert sol.objective() <= m - 1, \
                            (d, n, f, k, mode, sol.variant)


# -- criterion 5: table dominance ---------------------------------------------


# the grid points where a printed row asks for more planes than the family's
# exact max-min needs; a change to a table row shows up here as a diff
ROW_OVERSHOOTS = set("""\
row C4 m=4 above family m=3 at d=2 n=3 t=1 f=1 link
row C4 m=4 above family m=3 at d=2 n=3 t=1 f=2 link
row C4 m=4 above family m=3 at d=2 n=3 t=2 f=1 link
row C4 m=6 above family m=5 at d=2 n=4 t=2 f=1 link
row G5 m=9 above family m=7 at d=2 n=4 t=2 f=1 crosstalk
row C4 m=6 above family m=5 at d=2 n=4 t=2 f=2 link
row G5 m=9 above family m=8 at d=2 n=4 t=2 f=2 crosstalk
row C4 m=8 above family m=7 at d=2 n=5 t=2 f=1 link
row C4 m=9 above family m=8 at d=2 n=5 t=2 f=2 link
row C4 m=10 above family m=9 at d=2 n=5 t=2 f=4 link
row C4 m=9 above family m=7 at d=2 n=5 t=3 f=1 link
row C4 m=9 above family m=8 at d=2 n=5 t=3 f=2 link
row C3 m=12 above family m=10 at d=2 n=5 t=4 f=2 link
row C4 m=6 above family m=5 at d=3 n=3 t=1 f=1 link
row C4 m=8 above family m=7 at d=3 n=3 t=1 f=2 link
row C4 m=8 above family m=7 at d=3 n=3 t=1 f=4 link
row C4 m=8 above family m=5 at d=3 n=3 t=2 f=1 link
row C4 m=8 above family m=7 at d=3 n=3 t=2 f=2 link
row C4 m=12 above family m=11 at d=3 n=4 t=2 f=1 link
row G5 m=37 above family m=23 at d=3 n=4 t=2 f=1 crosstalk
row C4 m=14 above family m=13 at d=3 n=4 t=2 f=2 link
row G5 m=37 above family m=25 at d=3 n=4 t=2 f=2 crosstalk
row C4 m=14 above family m=13 at d=3 n=4 t=2 f=4 link
row G5 m=37 above family m=29 at d=3 n=4 t=2 f=4 crosstalk
row G4 m=25 above family m=21 at d=3 n=4 t=3 f=1 crosstalk
row C3 m=21 above family m=17 at d=3 n=4 t=3 f=4 link
row C4 m=18 above family m=17 at d=3 n=5 t=2 f=1 link
row C4 m=26 above family m=25 at d=3 n=5 t=2 f=2 link
row C4 m=30 above family m=29 at d=3 n=5 t=2 f=4 link
row C4 m=28 above family m=17 at d=3 n=5 t=3 f=1 link
row C4 m=30 above family m=27 at d=3 n=5 t=3 f=2 link
row C4 m=30 above family m=29 at d=3 n=5 t=3 f=4 link
row C3 m=63 above family m=35 at d=3 n=5 t=4 f=4 link
row G4 m=79 above family m=63 at d=3 n=5 t=4 f=4 crosstalk
""".splitlines())


def test_criterion_5_dominance():
    with criterion(5):
        findings, overshoots = [], []
        for d, n in GRID_DN:
            for t in range(0, n):
                for f in _f_grid(d, n):
                    for mode, table in ((bounds.LINK, bounds.C_bound),
                                        (bounds.CROSSTALK, bounds.G_bound)):
                        enum = sufficient_m_enumerated(d, n, t, f, mode)
                        res = table(d, n, t, f)
                        assert enum <= res.m_sufficient, \
                            "plane count not dominated at %s" % (
                                (d, n, t, f, mode),)
                        if enum < res.m_sufficient:
                            overshoots.append(
                                "row %s m=%s above family m=%s at d=%d n=%d "
                                "t=%d f=%d %s" % (res.branch, res.m_sufficient,
                                                  enum, d, n, t, f, mode))
                        if enum - 1 > res.value:
                            gap = enum - 1 - res.value
                            assert mode == bounds.LINK
                            assert res.branch == "C3", (d, n, t, f)
                            assert gap < 1, (d, n, t, f, gap)
                            findings.append(
                                "value gap %s at d=%d n=%d t=%d f=%d "
                                "(branch C3, integer count unaffected)"
                                % (gap, d, n, t, f))
        for line in findings:
            say("CRITERION 5 finding: " + line)
        assert findings, "expected the known fractional-term discrepancies"
        for line in overshoots:
            say("CRITERION 5 finding: " + line)
        assert set(overshoots) == ROW_OVERSHOOTS
        # printed window corollary vs the crosstalk table, full-fanout column
        for d, n in GRID_DN:
            for t in range(0, n):
                corollary = cf_wsnb_window(d, n, t)
                table_m = 1 + bounds.G_bound(d, n, t, d ** n).value
                if corollary < table_m:
                    say("CRITERION 5 finding: window corollary %s below "
                        "table value %s at d=%d n=%d t=%d"
                        % (corollary, table_m, d, n, t))
                    assert 2 * t > n, "unexpected corollary shortfall"
        # the crosstalk table at n against the link table at n + 1: both
        # bound one LP (test_lpcert's TestOneMode), so where they differ the
        # larger count is loose by at least the gap
        rows, points = {}, 0
        for d in range(2, 6):
            for n in range(1, 8):
                for t in range(n + 1):
                    for f in sorted({1, 2, 3, d, d ** t, d ** n}):
                        if f > d ** n:
                            continue
                        points += 1
                        g, g_row = bounds.multilog_planes(d, n, t, f,
                                                          bounds.CROSSTALK)
                        c, c_row = bounds.multilog_planes(d, n + 1, t, f,
                                                          bounds.LINK)
                        if g != c:
                            rows.setdefault((g_row, c_row), []).append(
                                (abs(g - c), g < c, d, n, t, f))
        say("CRITERION 5 finding: crosstalk table at n against link table "
            "at n + 1: %d of %d points differ (d <= 5, n <= 7, t <= n, "
            "f in {1, 2, 3, d, d^t, d^n})"
            % (sum(map(len, rows.values())), points))
        for (g_row, c_row), gaps in sorted(rows.items(),
                                           key=lambda kv: (-len(kv[1]),
                                                           kv[0])):
            lower = sum(low for _, low, *_ in gaps)
            gap, _, *at = max(gaps, key=lambda g: g[0])
            say("CRITERION 5 finding: crosstalk row %s against link row %s "
                "at n + 1: %d points, %d lower and %d higher, largest gap %d "
                "at d=%d n=%d t=%d f=%d"
                % (g_row, c_row, len(gaps), lower, len(gaps) - lower, gap,
                   *at))


# -- criterion 6: multilog sufficiency ----------------------------------------

MULTILOG_GRID = [(2, n, t, f, mode)
                 for n in (3, 4)
                 for t in range(0, n)
                 for f in (1, 2, 4)
                 for mode in ("link", "crosstalk")]


def _sufficient_m(d, n, t, f, mode):
    table = bounds.C_bound if mode == "link" else bounds.G_bound
    return table(d, n, t, f).m_sufficient


def test_criterion_6_multilog_sufficiency():
    with criterion(6):
        admitted = 0
        for d, n, t, f, mode in MULTILOG_GRID:
            m = _sufficient_m(d, n, t, f, mode)
            for seed in (0, 1):
                cfg = MultilogConfig(d=d, n=n, m=m, t=t, f=f, mode=mode,
                                     plane_policy=multilog.RANDOM, seed=seed)
                stats = adversary.random_trial(cfg, 160, seed,
                                               audit_every=40)
                assert stats["blocked"] == 0, (d, n, t, f, mode, m)
                assert stats["max_blocking_planes"] < m
                admitted += stats["admitted"]
            cfg = MultilogConfig(d=d, n=n, m=m, t=t, f=f, mode=mode)
            stats = adversary.greedy_trial(cfg, 40, 2, pool=8)
            assert stats["blocked"] == 0, (d, n, t, f, mode, m)
            admitted += stats["admitted"]
        assert admitted >= 10 ** 4, "only %d admissions" % admitted
        # published specializations
        assert bounds.snb_fcast_t_eq_n(2, 4, 1) == 5
        assert bounds.snb_fcast_t_eq_n(2, 4, 1) == bounds.hwang_unicast(2, 4)
        assert wang07(2, 4, 2) == 6
        assert wang07(2, 4, 2) == 1 + bounds.C_bound(2, 4, 0, 2).value
        assert danilewicz(2, 4, 1) == 6
        assert danilewicz(2, 4, 1) == \
            bounds.C_bound(2, 4, 1, 16).m_sufficient
        assert cf_wsnb_window(2, 4, 1) == 12
        assert cf_wsnb_window(2, 4, 1) == \
            bounds.G_bound(2, 4, 1, 16).m_sufficient


# -- criterion 7: executable weak duality -------------------------------------


def test_criterion_7_weak_duality():
    with criterion(7):
        target = 1000
        for point, (d, n, t, f, mode) in enumerate(MULTILOG_GRID):
            # the duals depend on the request only through the class-count
            # profile, identical for every single-output probe, so they are
            # built and feasibility-checked once per grid point
            ref = lpcert.canonical_instance(d, n, t, f, 1, mode)
            duals = []
            for p in range(0, n - t):
                for q in range(n - t, n + 1):
                    sol = lpcert.dual_family(ref, p, q)
                    sol.check_feasible()
                    duals.append((p, q, sol.objective()))
            cfg = MultilogConfig(d=d, n=n, m=2, t=t, f=f, mode=mode)
            conn = ConnState(cfg)
            rng = random.Random(4000 + point)
            live = []
            probes = [DaryString(d, (1,) * n), DaryString(d, (1,) + (0,) * (n - 1))]
            outs = list(all_strings(d, n))
            blocking = 0
            events = 0
            while blocking < target:
                if live and rng.random() < 0.4:
                    conn.release(live.pop(rng.randrange(len(live))))
                else:
                    req = adversary.random_admissible_request(conn, rng)
                    if req is None:
                        continue
                    rid = "r%d" % events
                    conn.admit(req[0], req[1], rid=rid)
                    if rid in conn.requests:
                        live.append(rid)
                events += 1
                assert events < 10 ** 5, \
                    "blocking states too rare at %s" % ((d, n, t, f, mode),)
                for a in probes:
                    free = next((v for v in outs
                                 if v not in conn.output_owner), None)
                    if free is None:
                        break
                    inst, primal = lpcert.primal_from_state(conn, a, [free])
                    obj = primal.objective()
                    if obj == 0:
                        continue
                    blocking += 1
                    for p, q, dual_obj in duals:
                        assert obj <= dual_obj, (d, n, t, f, mode, p, q)
                    if blocking % 100 == 0:
                        # periodic end-to-end check on the same instance
                        for p in range(0, n - t):
                            for q in range(n - t, n + 1):
                                dual = lpcert.dual_family(inst, p, q)
                                gap = lpcert.check_weak_duality(primal, dual)
                                assert gap >= 0
            assert blocking >= target


# -- criterion 8: predicate oracle equivalence --------------------------------


def test_criterion_8_oracle_equivalence():
    with criterion(8):
        for n in (2, 3, 4):
            univ = range(2 ** n)
            cache = {(x, y): route_sets(2, n, x, y)
                     for x in univ for y in univ}
            for a, b, u, v in itertools.product(univ, repeat=4):
                se1, lk1 = cache[a, b]
                se2, lk2 = cache[u, v]
                assert shares_se(2, n, a, b, u, v) == bool(se1 & se2)
                assert shares_link(2, n, a, b, u, v) == bool(lk1 & lk2)
        rng = random.Random(99)
        univ = range(3 ** 3)
        cache = {}
        for _ in range(10 ** 4):
            a, b, u, v = (rng.choice(univ) for _ in range(4))
            for key in ((a, b), (u, v)):
                if key not in cache:
                    cache[key] = route_sets(3, 3, *key)
            se1, lk1 = cache[a, b]
            se2, lk2 = cache[u, v]
            assert shares_se(3, 3, a, b, u, v) == bool(se1 & se2)
            assert shares_link(3, 3, a, b, u, v) == bool(lk1 & lk2)
