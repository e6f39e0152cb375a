"""Stacked-plane simulator: admission, release, blocking, audits."""

import random

import pytest

from switchlp import multilog
from switchlp.multilog import (
    MultilogConfig, ConnState, Blocked, FanoutExceeded, OutputBusy,
    UnknownId, DuplicateId, LINK, CROSSTALK, parse_address, run_trace,
)
from switchlp.dary import DaryString, all_strings
from switchlp.banyan import shares_link, shares_se
from switchlp import adversary


def s(text, base=2):
    return DaryString.parse(text, base)


def cfg(**kw):
    base = dict(d=2, n=3, m=2, t=0, f=1)
    base.update(kw)
    return MultilogConfig(**base)


class TestAdmission:
    def test_empty_state_first_fit_plane0(self):
        state = ConnState(cfg())
        result = state.admit(s("000"), [s("000")])
        assert result == {0: 0}
        state.audit()

    def test_conflict_forces_other_plane(self):
        state = ConnState(cfg(m=2))
        state.admit(s("000"), [s("000")])
        # (100 -> 011) shares a link with (000 -> 000)? decide by predicate
        x, y = s("100"), s("001")
        assert shares_link(s("000"), s("000"), x, y)
        result = state.admit(x, [y])
        assert result == {y.value(): 1}
        state.audit()

    def test_single_plane_blocking_matches_predicate(self):
        for y in all_strings(2, 3):
            if y == s("000"):
                continue  # owned by the live request
            state = ConnState(cfg(m=1))
            state.admit(s("000"), [s("000")])
            result = state.admit(s("100"), [y])
            (outcome,) = result.values()
            blocked = isinstance(outcome, Blocked)
            assert blocked == shares_link(s("000"), s("000"), s("100"), y)

    def test_fanout_guard(self):
        state = ConnState(cfg(f=2, t=3))
        with pytest.raises(FanoutExceeded):
            state.admit(s("000"), [s("000"), s("001"), s("010")])
        state.admit(s("000"), [s("000")], rid="a")
        state.admit(s("000"), [s("001")], rid="b")
        with pytest.raises(FanoutExceeded):
            state.admit(s("000"), [s("010")], rid="c")

    def test_output_busy(self):
        state = ConnState(cfg(m=4, f=2, t=3))
        state.admit(s("000"), [s("011")])
        with pytest.raises(OutputBusy):
            state.admit(s("001"), [s("011")])
        # the owning input cannot re-request its own live output either
        with pytest.raises(OutputBusy):
            state.admit(s("000"), [s("011")])

    def test_duplicate_id_rejected(self):
        state = ConnState(cfg(m=4))
        state.admit(s("000"), [s("000")], rid="x")
        with pytest.raises(DuplicateId):
            state.admit(s("001"), [s("001")], rid="x")
        state.audit()

    def test_same_window_single_plane(self):
        state = ConnState(cfg(d=2, n=3, m=3, t=1, f=4))
        result = state.admit(s("000"), [s("000"), s("001"), s("110")])
        assert set(result) == {0, 3}  # window 0 holds 000 and 001
        rid = next(iter(state.requests))
        _, admitted = state.requests[rid]
        plane, routes = admitted[0]
        assert {str(rt.output) for rt in routes} == {"000", "001"}
        state.audit()

    def test_same_input_branches_never_conflict(self):
        # full multicast from one input fits on one plane in link mode
        state = ConnState(cfg(d=2, n=3, m=1, t=3, f=8))
        result = state.admit(s("010"), list(all_strings(2, 3)))
        assert result == {0: 0}
        state.audit()

    def test_blocked_window_leaves_others_committed(self):
        state = ConnState(cfg(d=2, n=2, m=1, t=1, f=4))
        state.admit(s("00"), [s("00")])
        # second request: its window-0 branch shares the output link of the
        # live route, the window-1 branch is free
        result = state.admit(s("01"), [s("01"), s("10")])
        statuses = {w: isinstance(v, Blocked) for w, v in result.items()}
        assert statuses[0] is True and statuses[1] is False
        state.audit()


class TestRelease:
    def test_admit_release_roundtrip(self):
        state = ConnState(cfg(m=2, f=1))
        state.admit(s("010"), [s("101")], rid="r")
        state.release("r")
        assert state.is_empty()
        state.audit()

    def test_release_twice(self):
        state = ConnState(cfg())
        state.admit(s("010"), [s("101")], rid="r")
        state.release("r")
        with pytest.raises(UnknownId):
            state.release("r")

    def test_interleaved_churn_audits(self):
        config = cfg(d=2, n=4, m=4, t=1, f=2)
        state = ConnState(config)
        rng = random.Random(17)
        live = []
        for i in range(120):
            if live and rng.random() < 0.4:
                state.release(live.pop(rng.randrange(len(live))))
            else:
                req = adversary.random_admissible_request(state, rng)
                if req is None:
                    continue
                state.admit(req[0], req[1], rid=str(i))
                live.append(str(i))
            state.audit()


class TestBlockingPlanes:
    def test_empty(self):
        state = ConnState(cfg(m=3))
        assert state.blocking_planes(s("000"), [s("000")]) == set()

    def test_constructed_conflict_on_plane(self):
        state = ConnState(cfg(m=4))
        outs = ["000", "001", "010"]
        for i, (x, y) in enumerate(zip(["001", "010", "011"], outs)):
            state.admit(s(x), [s(y)], rid=str(i))
        probe_x, probe_y = s("111"), s("011")
        want = set()
        for rid, (x, admitted) in state.requests.items():
            for w, (plane, routes) in admitted.items():
                for rt in routes:
                    if shares_link(probe_x, probe_y, rt.input, rt.output):
                        want.add(plane)
        assert state.blocking_planes(probe_x, [probe_y]) == want

    def test_crosstalk_counts_se_conflicts(self):
        config = cfg(mode=CROSSTALK, m=2)
        state = ConnState(config)
        state.admit(s("000"), [s("000")])
        link_state = ConnState(cfg(m=2))
        link_state.admit(s("000"), [s("000")])
        for y in all_strings(2, 3):
            ct = state.blocking_planes(s("110"), [y])
            lk = link_state.blocking_planes(s("110"), [y])
            # crosstalk blocking is at least as strict as link blocking
            assert lk <= ct

    def test_spanning_windows_rejected(self):
        state = ConnState(cfg(t=1, f=2))
        with pytest.raises(ValueError):
            state.blocking_planes(s("000"), [s("000"), s("100")])


class TestModeMonotonicity:
    def test_crosstalk_legal_is_link_legal(self):
        # SE-disjoint routes are link-disjoint, so any crosstalk-mode state
        # satisfies the link-mode audit predicate as well
        config = cfg(d=2, n=4, m=5, t=1, f=2, mode=CROSSTALK)
        state = ConnState(config)
        rng = random.Random(23)
        for i in range(60):
            req = adversary.random_admissible_request(state, rng)
            if req is None:
                break
            state.admit(req[0], req[1], rid=str(i))
        for plane in range(config.m):
            routes = [rt for x, adm in state.requests.values()
                      for w, (p, rts) in adm.items() if p == plane
                      for rt in rts]
            for i, r1 in enumerate(routes):
                for r2 in routes[i + 1:]:
                    if r1.input != r2.input:
                        assert not shares_link(r1.input, r1.output,
                                               r2.input, r2.output)


class TestPolicies:
    @pytest.mark.parametrize("policy", [multilog.FIRST_FIT,
                                        multilog.BEST_FIT, multilog.RANDOM])
    def test_policies_only_pick_feasible(self, policy):
        config = cfg(d=2, n=3, m=3, t=1, f=2, plane_policy=policy, seed=4)
        state = ConnState(config)
        rng = random.Random(4)
        for i in range(40):
            req = adversary.random_admissible_request(state, rng)
            if req is None:
                break
            state.admit(req[0], req[1], rid=str(i))
            state.audit()

    def test_window_pin_reused(self):
        state = ConnState(cfg(d=2, n=3, m=3, t=1, f=4))
        r1 = state.admit(s("000"), [s("000")], rid="a")
        r2 = state.admit(s("000"), [s("001")], rid="b")
        # same (input, window) must stay on the already-pinned plane
        assert r1[0] == r2[0]
        state.release("a")
        state.audit()


class TestTraceIo:
    def test_parse_address(self):
        assert parse_address("010", 2, 3) == s("010")
        with pytest.raises(ValueError):
            parse_address("01", 2, 3)

    def test_run_trace(self):
        config = cfg(d=2, n=3, m=1, t=0, f=1)
        lines = [
            "# two conflicting unicasts on one plane",
            "A r1 000 000",
            "A r2 100 001",
            "D r1",
            "D r1",
        ]
        rows = list(run_trace(config, lines))
        assert [r["status"] for r in rows] == \
            ["ok", "blocked", "ok", "unknown_id"]
        assert rows[0]["plane"] == 0

    def test_trace_error_statuses(self):
        config = cfg(d=2, n=3, m=2, t=0, f=1)
        rows = list(run_trace(config, [
            "A r1 000 000 001",       # fanout 2 > f=1
            "A r2 000 000",
            "A r3 001 000",           # output already owned
        ]))
        assert [r["status"] for r in rows] == \
            ["fanout_exceeded", "ok", "output_busy"]

    def test_bad_line(self):
        with pytest.raises(ValueError):
            list(run_trace(cfg(), ["nonsense"]))
