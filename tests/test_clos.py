"""Three-stage Clos simulator: strict-sense, reuse rule, multirate."""

from fractions import Fraction
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import clos_oracle
from clos_oracle import (WEIGHTS, OracleClosState, as_masks, fraction_view,
                         replay_audited)
from switchlp import clos, bounds, adversary
from switchlp.clos import (
    ClosConfig, ClosState, BLOCKED, TerminalBusy, CapacityExceeded,
    UnknownId, SPACE, MULTIRATE, parse_terminal, run_trace,
)

F = Fraction


class TestConfig:
    def test_symmetric_defaults(self):
        cfg = ClosConfig(3, 5, 4)
        assert (cfg.n, cfg.m, cfg.r, cfg.traffic) == (3, 5, 4, SPACE)
        assert ClosConfig.symmetric(n=3, m=5, r=4) == cfg

    def test_invalid(self):
        for n, m, r in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                ClosConfig(n, m, r)

    @pytest.mark.parametrize("n, m, r", [(2, 3.5, 2), (2.0, 3, 2),
                                         (2, 3, 2.5), (2, "3", 2),
                                         (2, True, 2), (True, True, True)])
    def test_non_integer_sizes_refused(self, n, m, r):
        # a float size used to build, and `snb_admit` then raised TypeError;
        # a bool is refused as `check_address` refuses one
        with pytest.raises(ValueError, match="integer"):
            ClosConfig(n, m, r)

    def test_frozen_value(self):
        cfg = ClosConfig(n=3, m=5, r=4)
        assert cfg == ClosConfig(3, 5, 4, SPACE)
        assert cfg != ClosConfig(3, 5, 4, MULTIRATE)
        assert hash(cfg) == hash(ClosConfig.symmetric(3, 5, 4))
        with pytest.raises(AttributeError):
            cfg.m = 6


class TestSnb:
    def test_first_fit_and_release(self):
        state = ClosState(ClosConfig.symmetric(n=2, m=3, r=2))
        assert state.snb_admit((0, 0), (1, 0), rid="a") == 0
        assert state.snb_admit((0, 1), (1, 1), rid="b") == 1
        state.release("a")
        assert state.snb_admit((0, 0), (1, 0), rid="c") == 0
        state.audit()

    def test_terminal_busy(self):
        state = ClosState(ClosConfig.symmetric(n=2, m=3, r=2))
        state.snb_admit((0, 0), (1, 0), rid="a")
        with pytest.raises(TerminalBusy):
            state.snb_admit((0, 0), (1, 1))
        with pytest.raises(TerminalBusy):
            state.snb_admit((0, 1), (1, 0))

    def test_unavailable_cap(self):
        # a fresh request can never see more than 2(n-1) bad middles
        state = ClosState(ClosConfig.symmetric(n=3, m=5, r=3))
        rng = random.Random(1)
        for i in range(40):
            free_in = [(cb, p) for cb in range(3) for p in range(3)
                       if (cb, p) not in state.busy_in]
            free_out = [(cb, p) for cb in range(3) for p in range(3)
                        if (cb, p) not in state.busy_out]
            if not free_in or not free_out:
                break
            it, ot = rng.choice(free_in), rng.choice(free_out)
            bad = state.in_mids[it[0]] | state.out_mids[ot[0]]
            assert bad.bit_count() <= 4
            got = state.snb_admit(it, ot, rid=str(i))
            assert got is not BLOCKED  # m = 2n-1 middles always suffice
            state.audit()

    def test_saturation_blocks_at_2n_minus_2(self):
        for n in range(2, 7):
            for m, probe in ((2 * n - 2, "blocked"), (2 * n - 1, "ok")):
                config, lines = adversary.snb_saturation(n, m)
                assert config == ClosConfig(n, m, max(n, 3))
                assert lines[-1] == "A probe 0:0 0:0\n"
                assert replay_audited(ClosState(config), lines) == \
                    ["ok"] * (len(lines) - 1) + [probe]

    def test_saturation_refusals(self):
        with pytest.raises(ValueError) as raised:
            adversary.snb_saturation(1, 3)
        assert str(raised.value) == "n=1: need integer n >= 2"
        with pytest.raises(ValueError, match="needs m >= 2n-2"):
            adversary.snb_saturation(4, 5)

    def test_release_unknown(self):
        state = ClosState(ClosConfig.symmetric(n=2, m=3, r=2))
        with pytest.raises(UnknownId):
            state.release("nope")

    @pytest.mark.parametrize("side, crossbar", [("in_mids", 0),
                                                ("out_mids", 1)])
    def test_release_off_its_middle_is_a_broken_invariant(self, side,
                                                          crossbar):
        state = ClosState(ClosConfig.symmetric(n=2, m=3, r=2))
        state.snb_admit((0, 0), (1, 0), rid="a")
        assert state.snb_admit((0, 1), (1, 1), rid="b") == 1
        getattr(state, side)[crossbar] &= ~(1 << 1)   # clear b's middle
        with pytest.raises(AssertionError, match="'b' is off middle 1"):
            state.release("b")


class TestBenesReuse:
    def test_prefers_diagonal_then_busy(self):
        state = ClosState(ClosConfig.symmetric(n=4, m=6, r=2))
        m1 = state.benes_admit((0, 0), (0, 0), rid="a")
        # diagonal class of (1,1) is (0,0): reuse middle m1
        m2 = state.benes_admit((1, 0), (1, 0), rid="b")
        assert m2 == m1
        state.audit()

    def test_invariants_under_churn(self):
        n = 6
        cfg = ClosConfig.symmetric(n=n, m=(3 * n) // 2, r=2)
        state = ClosState(cfg)
        rng = random.Random(8)
        live = []
        for i in range(400):
            if live and rng.random() < 0.45:
                state.release(live.pop(rng.randrange(len(live))))
            else:
                ins = [(cb, p) for cb in range(2) for p in range(n)
                       if (cb, p) not in state.busy_in]
                outs = [(cb, p) for cb in range(2) for p in range(n)
                        if (cb, p) not in state.busy_out]
                if not ins or not outs:
                    continue
                got = state.benes_admit(rng.choice(ins), rng.choice(outs),
                                        rid=str(i))
                assert got is not BLOCKED
                live.append(str(i))
            state.audit()  # includes the two class-union size invariants

    def test_search_finds_necessity(self):
        for n in (2, 3):
            m = bounds.clos_wsnb_r2(n)
            assert adversary.benes_search(n, m) is None
            found = adversary.benes_search(n, m - 1)
            assert found is not None
            state = ClosState(ClosConfig.symmetric(n=n, m=m - 1, r=2))
            assert replay_audited(state, found, reuse=True) == \
                ["ok"] * (len(found) - 1) + ["blocked"]


class TestMultirate:
    def state(self, n=3, m=30):
        return ClosState(ClosConfig.symmetric(n=n, m=m, r=n,
                                              traffic=MULTIRATE))

    def test_admit_and_release(self):
        state = self.state()
        mid = state.multirate_admit((0, 0), (1, 0), F(2, 3), rid="a")
        assert isinstance(mid, int) and mid < 30
        state.audit()
        state.release("a")
        state.audit()
        assert state.requests == {}

    def test_capacity_guard(self):
        state = self.state()
        state.multirate_admit((0, 0), (1, 0), F(2, 3), rid="a")
        with pytest.raises(CapacityExceeded):
            state.multirate_admit((0, 0), (2, 0), F(1, 2))
        with pytest.raises(ValueError):
            state.multirate_admit((0, 1), (2, 0), F(3, 2))

    def test_blocked_leaves_state_unchanged(self):
        state = self.state(n=2, m=1)
        state.multirate_admit((0, 0), (1, 0), F(3, 5), rid="a")
        before = (dict(state.load_in), dict(state.load_out),
                  state.coloring.snapshot())
        # another heavy edge at the same crossbars needs a second color
        got = state.multirate_admit((0, 1), (1, 1), F(3, 5), rid="b")
        assert got is BLOCKED
        assert "b" not in state.requests
        assert (dict(state.load_in), dict(state.load_out)) == before[:2]
        assert state.coloring.snapshot() == before[2]
        state.audit()

    def test_float_rate_converts_like_the_coloring(self):
        # Fraction(0.1) is a little above 1/10, so ten of them used to
        # overfill an input that ten 1/10 requests fill exactly
        state = self.state(n=2, m=40)
        for k in range(10):
            assert state.multirate_admit((0, 0), (1, k % 2), 0.1) \
                is not BLOCKED
        den = state.coloring.den
        assert {k: F(v, den) for k, v in state.load_in.items()} == \
            {(0, 0): 1}
        assert {w for _, _, w, _ in state.coloring.edges.values()} == \
            {F(1, 10)}
        state.audit()

    def test_sufficient_m_never_blocks(self):
        n = 3
        m = bounds.clos_multirate(n)
        cfg = ClosConfig.symmetric(n=n, m=m, r=3, traffic=MULTIRATE)
        state = ClosState(cfg)
        rng = random.Random(31)
        live = []
        for i in range(300):
            if live and rng.random() < 0.4:
                state.release(live.pop(rng.randrange(len(live))))
                continue
            it = (rng.randrange(3), rng.randrange(3))
            ot = (rng.randrange(3), rng.randrange(3))
            rate = F(rng.randrange(1, 101), 100)
            try:
                got = state.multirate_admit(it, ot, rate, rid=str(i))
            except CapacityExceeded:
                continue
            assert got is not BLOCKED
            live.append(str(i))
            state.audit()


# an event is (depart?, input code, output code, rate, pick)
EVENTS = st.lists(st.tuples(st.booleans(), st.integers(0, 15),
                            st.integers(0, 15), WEIGHTS,
                            st.integers(0, 63)), max_size=40)


class TestOracle:
    """The plan-then-commit multirate admit, the mask-based first fit and
    reuse rule and the O(1) space release against the snapshot-and-restore,
    set-scanning and rebuilding references."""

    @staticmethod
    def outcome(call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except clos.SwitchError as exc:
            return type(exc)

    @settings(deadline=None, max_examples=150)
    @given(n=st.integers(1, 4), r=st.integers(1, 4), multirate=st.booleans(),
           reuse=st.booleans(), events=EVENTS, data=st.data())
    def test_matches_oracle(self, n, r, multirate, reuse, events, data):
        top = bounds.clos_multirate(n) if multirate else bounds.clos_snb(n)
        m = data.draw(st.integers(1, top), label="m")
        cfg = ClosConfig.symmetric(n=n, m=m, r=r,
                                   traffic=MULTIRATE if multirate else SPACE)
        fast, slow = ClosState(cfg), OracleClosState(cfg)
        live = []
        for k, (depart, a, b, rate, pick) in enumerate(events):
            if depart and live:
                rid = live.pop(pick % len(live))
                got = [s.release(rid) for s in (fast, slow)]
            else:
                rid = str(k)
                it, ot = (a % r, a // 4 % n), (b % r, b // 4 % n)
                if multirate:
                    args = (it, ot, rate)
                    got = [self.outcome(s.multirate_admit, *args, rid=rid)
                           for s in (fast, slow)]
                else:
                    got = [self.outcome(s.benes_admit if reuse and r == 2
                                        else s.snb_admit, it, ot, rid=rid)
                           for s in (fast, slow)]
                if isinstance(got[0], int):
                    live.append(rid)
            assert got[0] == got[1]
            assert fast.requests == slow.requests
            if multirate:
                den = fast.coloring.den
                assert fraction_view(fast.coloring) == \
                    fraction_view(slow.coloring)
                for scaled, exact in ((fast.load_in, slow.load_in),
                                      (fast.load_out, slow.load_out)):
                    assert {k: F(v) / den for k, v in scaled.items()} == exact
            else:
                assert (fast.in_mids, fast.out_mids) == \
                    (as_masks(slow.in_mids), as_masks(slow.out_mids))
            fast.audit()
            slow.audit()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_mask_picks_match_set_scans(self, m):
        # every (in_mids[0], in_mids[1], out_mids[o]) below 2^m and each
        # (i, o): the mask reuse rule and strict-sense first fit against the
        # set scans they replaced; n = 3 keeps the 2(n-1) cap above m bits
        def as_set(mask):
            return {mid for mid in range(m) if mask >> mid & 1}

        cfg = ClosConfig(n=3, m=m, r=2)
        masks = range(1 << m)
        for in0, in1, out, i, o in itertools.product(masks, masks, masks,
                                                     (0, 1), (0, 1)):
            ins, outs = [in0, in1], [out, out]
            sets = [as_set(in0), as_set(in1)], [as_set(out)] * 2
            assert clos.reuse_pick(m, ins, outs, i, o) == \
                clos_oracle.reuse_pick(m, *sets, i, o)
            want = clos_oracle.first_fit(m, sets[0][i] | sets[1][o])
            state = ClosState(cfg)
            state.in_mids, state.out_mids = ins, outs
            assert state.snb_admit((i, 0), (o, 0)) == \
                (BLOCKED if want is None else want)

    def test_reuse_rule_matches_scan(self):
        # r = 2 only; an arrival names its two crossbars and takes their
        # lowest free ports, so the states fill up
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(1, 5)
            cfg = ClosConfig.symmetric(n=n, m=rng.randint(1, 2 * n - 1), r=2)
            fast, slow = ClosState(cfg), OracleClosState(cfg)
            live = []
            for k in range(60):
                if live and rng.random() < 0.4:
                    rid = live.pop(rng.randrange(len(live)))
                    fast.release(rid)
                    slow.release(rid)
                    continue
                i, o = rng.randrange(2), rng.randrange(2)
                it = next(((i, p) for p in range(n)
                           if (i, p) not in fast.busy_in), None)
                ot = next(((o, p) for p in range(n)
                           if (o, p) not in fast.busy_out), None)
                if it is None or ot is None:
                    continue
                got = [s.benes_admit(it, ot, rid=str(k))
                       for s in (fast, slow)]
                assert got[0] == got[1]
                if got[0] is not BLOCKED:
                    live.append(str(k))
                assert fast.requests == slow.requests
                assert (fast.in_mids, fast.out_mids) == \
                    (as_masks(slow.in_mids), as_masks(slow.out_mids))
                fast.audit()


class TestTraceIo:
    def test_parse_terminal(self):
        assert parse_terminal("2:1") == (2, 1)
        assert parse_terminal("02:10") == (2, 10)
        # int() alone would read every one of these
        for text in ("0_1:0", "+1:0", "-0:0", " 1 :0", "1: 0",
                     "\u0661:\u0660", "1", "1:", ":1", "1:0:0"):
            with pytest.raises(ValueError, match="cannot read terminal"):
                parse_terminal(text)

    def test_space_trace(self):
        state = ClosState(ClosConfig.symmetric(n=2, m=1, r=2))
        rows = list(run_trace(state, [
            "A a 0:0 1:0",
            "A b 0:1 1:1",      # the only middle is tied up on both sides
            "A c 0:0 1:1",      # input terminal busy
            "D a",
            "D a",
            "A d 0:1 1:1",
        ]))
        assert [r["status"] for r in rows] == \
            ["ok", "blocked", "terminalbusy", "ok", "unknown_id", "ok"]
        # the replay leaves its live requests in the caller's state
        assert set(state.requests) == {"d"}
        state.audit()

    def test_multirate_trace(self):
        state = ClosState(ClosConfig.symmetric(n=2, m=40, r=2,
                                               traffic=MULTIRATE))
        rows = list(run_trace(state, [
            "A a 0:0 1:0 1/2",
            "A b 0:0 1:1 1/2",
            "A c 0:0 1:0 1/2",  # input 0:0 is full
        ]))
        assert [r["status"] for r in rows] == ["ok", "ok", "capacityexceeded"]
        assert set(state.requests) == set(state.coloring.edges) == {"a", "b"}
        state.audit()


SPACE_2 = ClosConfig(n=2, m=3, r=2)
MULTIRATE_2 = ClosConfig(n=2, m=3, r=2, traffic=MULTIRATE)


@pytest.mark.parametrize("call, message", [
    (lambda: ClosConfig(2, 3, 2, traffic="bogus"),
     "unknown traffic 'bogus'"),
    (lambda: ClosState(MULTIRATE_2).snb_admit((0, 0), (1, 0)),
     "not a space-division network"),
    (lambda: ClosState(ClosConfig(2, 3, 3)).benes_admit((0, 0), (1, 0)),
     "the reuse rule needs r = 2"),
    (lambda: ClosState(SPACE_2).multirate_admit((0, 0), (1, 0), "1/2"),
     "not a multirate network"),
    (lambda: ClosState(SPACE_2).snb_admit((0.5, 0), (1, 1)),
     "terminal 0.5:0 out of range"),
    (lambda: ClosState(MULTIRATE_2).multirate_admit((0, 0), (1, 1.0), "1/2"),
     "terminal 1:1.0 out of range"),
    (lambda: ClosState(SPACE_2).snb_admit(5, (1, 1)),
     "terminal 5 out of range"),
    (lambda: ClosState(SPACE_2).snb_admit((0, 0), None),
     "terminal None out of range"),
    (lambda: ClosState(SPACE_2).benes_admit((1,), (1, 1)),
     "terminal (1,) out of range"),
    (lambda: ClosState(SPACE_2).snb_admit((0, 0, 0), (1, 1)),
     "terminal (0, 0, 0) out of range"),
    (lambda: ClosState(SPACE_2).snb_admit([0, 0], (1, 1)),
     "terminal [0, 0] out of range"),
    (lambda: ClosState(MULTIRATE_2).multirate_admit("00", (1, 0), "1/2"),
     "terminal '00' out of range"),
], ids=["traffic", "snb-on-multirate", "benes-r-3", "multirate-on-space",
        "float-crossbar", "float-port", "int-terminal", "None-terminal",
        "1-tuple", "3-tuple", "list-terminal", "str-terminal"])
def test_clos_refusals(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


# (n, m, max_depth): every m <= 2n at n <= 3 to closure, and n = 4 cut at
# depth 6
BENES_GOLDEN_CASES = ([(n, m, None) for n in (1, 2, 3)
                       for m in range(1, 2 * n + 1)]
                      + [(4, m, 6) for m in range(1, 9)])


def test_benes_search_golden():
    # sha256 of the repr of the result list (witness lines, None or []),
    # recorded from the set-based search that the masks replaced
    found = [adversary.benes_search(n, m, max_depth=depth)
             for n, m, depth in BENES_GOLDEN_CASES]
    assert hashlib.sha256(repr(found).encode()).hexdigest() == \
        "2038a6b3b97bb5c0d2c5068299e1d928a113869e43b5baf9e92f4b5f2c6397f6"


@pytest.mark.parametrize("n, m, depth, message", [
    (0, 3, None, "n=0: need integer n >= 1"),
    (3, 0, None, "m=0: need integer m >= 1"),
    (3, 3, -1, "depth=-1: need integer depth >= 0"),
    (3, 3, 1.5, "depth=1.5: need integer depth >= 0"),
    (3, 3, True, "depth=True: need integer depth >= 0")],
    ids=["0-3-None", "3-0-None", "3-3--1", "3-3-1.5", "3-3-True"])
def test_benes_search_refusals(n, m, depth, message):
    with pytest.raises(ValueError) as raised:
        adversary.benes_search(n, m, max_depth=depth)
    assert str(raised.value) == message


def _space_with_a():
    state = ClosState(SPACE_2)
    state.snb_admit((0, 0), (1, 0), rid="a")
    return state


def _multirate_with_a():
    state = ClosState(MULTIRATE_2)
    state.multirate_admit((0, 0), (1, 0), "1/2", rid="a")
    return state


def _reuse_a_terminal(state):
    # a second id for request a: its middle and terminals are taken twice
    state.requests["b"] = state.requests["a"]


def _reuse_a_middle(state):
    # b takes idle terminals but a's middle at both of a's crossbars, which
    # leaves the masks and the busy terminals consistent with the registry
    state.requests["b"] = ((0, 1), (1, 1), state.requests["a"][2])
    state.busy_in[0, 1] = state.busy_out[1, 1] = "b"


def _color_past_m(state):
    # a's edge and its loads move to color m, which leaves the coloring
    # consistent
    coloring, m = state.coloring, state.config.m
    u, v, rate, color = coloring.edges["a"]
    coloring.edges["a"] = (u, v, rate, m)
    for end in (u, v):
        coloring.load[end, m] = coloring.load.pop((end, color))


def _ghost_edge(state):
    # an edge that no request holds, between a crossbar pair with room
    state.coloring.arrive("ghost", ("I", 0), ("O", 1), "1/2")


def _edge_deleted(state):
    state.coloring.depart("a")


def _edge_moved(state):
    # a's edge leaves a's crossbars for I_1 - O_1, at the same rate
    rate = state.coloring.depart("a")[2]
    state.coloring.arrive("a", ("I", 1), ("O", 1), rate)


@pytest.mark.parametrize("build, corrupt, message", [
    (_space_with_a, _reuse_a_terminal,
     "request 'b' reuses a middle link or a terminal"),
    (_space_with_a, _reuse_a_middle,
     "request 'b' reuses a middle link or a terminal"),
    (_multirate_with_a, _color_past_m, "request 'a' has color 3"),
    (_multirate_with_a, _ghost_edge,
     "coloring edges differ from the requests"),
    (_multirate_with_a, _edge_deleted,
     "coloring edges differ from the requests"),
    (_multirate_with_a, _edge_moved, "request 'a' is off its crossbars"),
], ids=["space-reused-terminal", "space-reused-middle",
        "multirate-color-past-m", "multirate-ghost-edge",
        "multirate-edge-deleted", "multirate-edge-moved"])
def test_audit_catches_a_corrupted_request(build, corrupt, message):
    state = build()
    state.audit()
    corrupt(state)
    with pytest.raises(AssertionError) as raised:
        state.audit()
    assert str(raised.value) == message
