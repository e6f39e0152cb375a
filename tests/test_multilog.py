"""Stacked-plane simulator: admission, release, blocking, audits."""

from collections import Counter
import copy
import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import multilog_oracle
from address_oracle import route_ids, window_outputs
from switchlp import lpcert, multilog
from switchlp.multilog import (
    MultilogConfig, ConnState, Blocked, FanoutExceeded, OutputBusy,
    UnknownId, DuplicateId, LINK, CROSSTALK, run_trace,
)
from switchlp.dary import (AddressSets, DaryString, all_strings,
                           check_address, parse_address)
from switchlp.banyan import route, shares_link, shares_se
from switchlp import adversary


def s(text, base=2):
    return parse_address(text, base, len(text))


def cfg(**kw):
    base = dict(d=2, n=3, m=2, t=0, f=1)
    base.update(kw)
    return MultilogConfig(**base)


class TestConfig:
    @pytest.mark.parametrize("sizes", [
        dict(m=2.5), dict(d=2.0), dict(n=3.0), dict(t=1.0), dict(f=1.5),
        dict(m="2"), dict(m=True), dict(n=True, m=True, t=False, f=True)])
    def test_non_integer_sizes_refused(self, sizes):
        # m=2.5 used to build and then fail `admit` with TypeError, and d=2.0
        # gave float window keys; a bool is refused as `check_address`
        # refuses one
        with pytest.raises(ValueError, match="integer"):
            cfg(**sizes)

    def test_frozen_value(self):
        # keyword construction with defaults, equality and hashing by
        # value, and no attribute assignment
        one = MultilogConfig(d=2, n=3, m=2)
        assert (one.t, one.f, one.mode, one.plane_policy, one.seed) == \
            (0, 1, LINK, "first", 0)
        assert one == MultilogConfig(2, 3, 2, 0, 1) != cfg(m=2, f=2)
        assert hash(one) == hash(MultilogConfig(d=2, n=3, m=2, t=0))
        with pytest.raises(AttributeError):
            one.f = 2
        with pytest.raises(TypeError):
            MultilogConfig(d=2, n=3)


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
        assert shares_link(2, 3, s("000"), s("000"), x, y)
        result = state.admit(x, [y])
        assert result == {1: 1}   # t = 0: the window is the output
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
            assert blocked == shares_link(2, 3, s("000"), s("000"), s("100"),
                                          y)

    def test_commit_refuses_a_key_another_input_holds(self):
        # past admission, (100 -> 001) is put on the plane of the live
        # (000 -> 000), with which it shares a link
        state = ConnState(cfg(m=2))
        state.admit(s("000"), [s("000")], rid="a")
        x, y = s("100"), s("001")
        with pytest.raises(AssertionError, match="shared across inputs"):
            # t = 0: the window is the output
            state._commit("b", x, y, (0, [y], route(2, 3, x, y, LINK)))

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

    def test_blocking_planes_counts_an_owned_output(self):
        # the plane of an output another input owns blocks it, though no
        # internal link is shared; the greedy sweep's scores count it, and
        # admit refuses it.  An output the probing input owns itself adds
        # no plane.
        state = ConnState(cfg(d=2, n=3, m=2, t=3, f=8))
        state.admit(0, [5])
        assert state.blocking_planes(2, [5]) == {0}
        assert not shares_link(2, 3, 0, 5, 2, 5)
        with pytest.raises(OutputBusy):
            state.admit(2, [5])
        assert state.blocking_planes(0, [5]) == set()
        assert state.blocking_planes(0, [5, 7]) == set()

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
        plane, outputs, keys = admitted[0]
        assert outputs == [s("000"), s("001")]
        state.audit()

    @pytest.mark.parametrize("mode", [LINK, CROSSTALK])
    def test_window_holds_each_key_once(self, mode):
        # 000 and 001 share window 0 at t = 1, so their routes share every
        # stage up to n - t = 2: the subrequest holds that trunk once
        state = ConnState(cfg(d=2, n=3, m=1, t=1, f=2, mode=mode))
        assert state.admit(s("000"), [s("000"), s("001")]) == {0: 0}
        (_, admitted), = state.requests.values()
        plane, outputs, keys = admitted[0]
        both = route(2, 3, 0, 0, mode) + route(2, 3, 0, 1, mode)
        assert sorted(keys) == sorted(set(both)) and len(keys) < len(both)
        assert set(state.refs[plane, s("000")].values()) == {1}
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
        # second request: its window-0 branch shares the internal link of
        # the live route, the window-1 branch is free
        result = state.admit(s("01"), [s("01"), s("10")])
        statuses = {w: isinstance(v, Blocked) for w, v in result.items()}
        assert statuses[0] is True and statuses[1] is False
        state.audit()


class TestAddressRange:
    """d=2, n=3, t=1 has addresses 0..7 in windows 0..3.  A 4-digit or a
    base-3 address denotes an int past them and must be refused, not routed
    into a window that does not exist."""

    BAD = [8, 15, 26, -1]
    IDS = ["1000", "1111", "222", "-1"]   # as digits

    @staticmethod
    def state():
        state = ConnState(cfg(t=1, f=2))
        state.admit(s("010"), [s("001")], rid="r")
        return state

    @staticmethod
    def refused(bad, call):
        for x, ys in ((bad, [s("000")]), (s("000"), [bad])):
            with pytest.raises(ValueError, match="address %s out" % bad):
                call(x, ys)

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_admit(self, bad):
        state = self.state()
        self.refused(bad, state.admit)
        assert list(state.requests) == ["r"]
        state.audit()

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_blocking_planes(self, bad):
        self.refused(bad, self.state().blocking_planes)

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_blocking_branches(self, bad):
        # the request's own check refuses it before blocking_branches runs
        state = self.state()
        self.refused(bad, lambda x, ys: state.blocking_branches(
            AddressSets(2, 3, x, ys, 1)))

    # good addresses (ints and DaryStrings), bools, floats, strs, negatives
    # and past-the-end values; outputs of one window or two
    VALUES = st.one_of(
        st.integers(0, 7), st.integers(0, 7).map(
            lambda v: DaryString.from_value(v, 2, 3)),
        st.booleans(), st.floats(-9, 9), st.text(max_size=2),
        st.integers(-9, -1), st.integers(8, 99))

    @settings(max_examples=200, deadline=None)
    @given(x=VALUES, outputs=st.one_of(
        st.lists(VALUES, min_size=1, max_size=4),
        st.sampled_from([[0, 4], [3, 4, 5], [1, 2, 6, 7], 5, None, [[0]]])))
    def test_one_rule_at_each_entry(self, x, outputs):
        # d=2, n=3, t=2: windows {0..3} and {4..7}, and a request of up to
        # four outputs fits one.  Outputs that are no collection of
        # hashable values are refused first, naming them; otherwise the
        # first address that `check_address` refuses, x before the
        # outputs, decides every refusal's message.  Each entry runs on a
        # fresh network, so no output is owned.
        try:
            for v in [x, *set(outputs)]:
                check_address(2, 3, v)
            want = None
        except TypeError:
            want = "%r is not a collection of addresses" % (outputs,)
        except ValueError as exc:
            want = str(exc)
        calls = {
            "admit": lambda state: state.admit(x, outputs),
            "blocking_planes": lambda state: state.blocking_planes(
                x, outputs),
            "AddressSets": lambda state: AddressSets(2, 3, x, outputs, 2),
            "primal_from_state": lambda state: lpcert.primal_from_state(
                state, x, outputs)}
        got = {}
        for name, call in calls.items():
            try:
                call(ConnState(cfg(t=2, f=8)))
                got[name] = None
            except ValueError as exc:
                got[name] = str(exc)
        if want is not None:
            assert got == dict.fromkeys(calls, want)
            return
        # good addresses: only a request over two windows is refused, by
        # the entries that take one window's request, with one message
        windows = sorted({int(y) // 4 for y in outputs})
        want = None if len(windows) == 1 else \
            "outputs span windows %s" % windows
        assert got == dict.fromkeys(calls, want) | {"admit": None}

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_primal_from_state(self, bad):
        state = self.state()
        self.refused(bad, lambda x, ys: lpcert.primal_from_state(state, x, ys))


class TestRelease:
    def test_admit_release_roundtrip(self):
        state = ConnState(cfg(m=2, f=1))
        state.admit(s("010"), [s("101")], rid="r")
        state.release("r")
        assert not (state.requests or state.occ or state.refs or state.pins
                    or state.output_owner or state.input_active)
        state.audit()

    def test_release_refuses_a_missing_bit(self):
        # a blind XOR would set the bit that was dropped
        state = ConnState(cfg(m=2))
        state.admit(s("000"), [s("000")], rid="a")
        key = next(iter(state.occ))
        state.occ[key] ^= 1
        with pytest.raises(AssertionError,
                           match="key %d not held on plane 0" % key):
            state.release("a")

    def test_link_routes_at_n1_hold_no_key(self):
        # at n = 1 a link route has no internal link, so it holds no key:
        # one input's one-output windows share plane 0 without any refs
        # table, and each release finds none to drop
        state = ConnState(cfg(d=3, n=1, m=1, t=0, f=3))

        def audited():
            state.audit()
            assert verdict(multilog_oracle.audit, state) is None
            assert not state.refs and not state.occ

        for y in range(3):
            assert state.admit(0, [y], rid=y) == {y: 0}
            audited()
        assert state.pins == {(0, y): [0, 1] for y in range(3)}
        for y in (1, 0, 2):
            state.release(y)
            audited()
        assert not (state.requests or state.pins or state.output_owner
                    or state.input_active)

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
            for w, (plane, outputs, _) in admitted.items():
                for y in outputs:
                    if shares_link(2, 3, probe_x, probe_y, x, y):
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
        with pytest.raises(ValueError, match=r"outputs span windows \[0, 2\]"):
            state.blocking_planes(s("000"), [s("000"), s("100")])

    @pytest.mark.parametrize("method", ["blocking_planes",
                                        "blocking_branches"])
    def test_empty_output_set_rejected(self, method):
        state = ConnState(cfg(t=1, f=2))
        state.admit(s("010"), [s("001")], rid="r")
        if method == "blocking_planes":
            with pytest.raises(ValueError, match="empty output set"):
                state.blocking_planes(s("000"), [])
        else:
            # the request refuses B = {} before blocking_branches runs
            with pytest.raises(ValueError, match="empty output set"):
                state.blocking_branches(AddressSets(2, 3, s("000"), [], 1))


def admit_checked(state, x, ys, rid, shadow):
    """Admit the single-window subrequest (x, ys) and check the plane it got
    against the oracle: feasible, and the one the policy must pick.  RANDOM
    must pick as `shadow.choice` of the feasible planes does, where `shadow`
    is a generator seeded as the state's, so that the state's generator
    draws exactly what `choice` would, pinned windows included."""
    config = state.config
    w = ys[0] // config.d ** config.t
    pin = state.pins.get((x, w))
    candidates = [pin[0]] if pin else range(config.m)
    blocked = multilog_oracle.blocked(state, x, ys)
    feasible = [p for p in candidates if p not in blocked]
    (got,) = state.admit(x, ys, rid=rid).values()
    if not feasible:
        assert isinstance(got, Blocked)
        return
    assert got in feasible
    if config.plane_policy == multilog.FIRST_FIT:
        assert got == min(feasible)
    else:
        assert got == shadow.choice(feasible)


def pinned_extension(state, rng):
    """One more output for a window an input already has live branches in,
    so the pinned-plane path runs; None when no input has room."""
    config = state.config
    for (x, w) in rng.sample(sorted(state.pins), len(state.pins)):
        if state.input_active[x] >= config.f:
            continue
        free = [y for y in window_outputs(config.d, config.n, config.t, w)
                if y not in state.output_owner]
        if free:
            return x, [rng.choice(free)]
    return None


def oracle_branches(state, x, outputs):
    """The predicate scan `ConnState.blocking_branches` must agree with: for
    each plane, the first live branch in `requests` order, then by ascending
    output, from an input other than x that shares a link (link mode) or a
    switching element (crosstalk mode) with some branch (x, y), as
    {plane: (input, output)}."""
    cfg = state.config
    pred = shares_link if cfg.mode == LINK else shares_se
    found = {}
    for p in range(cfg.m):
        branch = next(((u, v)
                       for u, admitted in state.requests.values() if u != x
                       for plane, outs, _ in admitted.values() if plane == p
                       for v in sorted(outs)
                       if any(pred(cfg.d, cfg.n, x, y, u, v)
                              for y in outputs)),
                      None)
        if branch is not None:
            found[p] = branch
    return found


def churn(state, rng, steps):
    """Random churn, including extra branches into pinned windows, with
    every admission checked by `admit_checked`; audits and yields after
    each step."""
    size = state.config.d ** state.config.t
    live, shadow = [], random.Random(state.config.seed)
    for step in range(steps):
        r = rng.random()
        if live and r < 0.3:
            state.release(live.pop(rng.randrange(len(live))))
        else:
            req = (pinned_extension(state, rng) if r < 0.5
                   else adversary.random_admissible_request(state, rng))
            if req is not None:
                x, ys = req
                by_window = {}
                for y in sorted(ys):
                    by_window.setdefault(y // size, []).append(y)
                for w in sorted(by_window):
                    rid = "%d.%d" % (step, w)
                    admit_checked(state, x, by_window[w], rid, shadow)
                    if rid in state.requests:
                        live.append(rid)
        state.audit()
        yield step


class TestOccupancyOracle:
    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), d=st.sampled_from([2, 3]), n=st.integers(1, 4),
           f=st.sampled_from([1, 2, 4]), m=st.integers(1, 4),
           mode=st.sampled_from([LINK, CROSSTALK]),
           policy=st.sampled_from([multilog.FIRST_FIT, multilog.RANDOM]),
           seed=st.integers(0, 1 << 16))
    def test_churn_matches_per_plane_scan(self, data, d, n, f, m, mode,
                                          policy, seed):
        t = data.draw(st.integers(0, n))
        config = MultilogConfig(d=d, n=n, m=m, t=t, f=min(f, d ** n),
                                mode=mode, plane_policy=policy, seed=seed)
        state = ConnState(config)
        rng = random.Random(seed)
        addrs = range(d ** n)
        for _ in churn(state, rng, 25):
            # a probe may ask for owned outputs as well as free ones
            x = rng.choice(addrs)
            outs = window_outputs(d, n, t, rng.randrange(d ** (n - t)))
            ys = rng.sample(outs, rng.randint(1, min(2, len(outs))))
            assert state.blocking_planes(x, ys) == \
                multilog_oracle.blocked(state, x, ys)


class TestBlockedOracle:
    @pytest.mark.parametrize("mode", [LINK, CROSSTALK])
    @pytest.mark.parametrize("policy", [multilog.FIRST_FIT, multilog.RANDOM])
    def test_seeded_churn_matches_route_scan(self, mode, policy):
        # probes from inputs with live branches, whose own keys block
        # nothing, as well as from any input, of owned outputs as well as
        # free ones; `blocking_branches` takes a free B only
        d, n, t = 2, 6, 3
        config = cfg(d=d, n=n, m=4, t=t, f=4, mode=mode, plane_policy=policy,
                     seed=11)
        state = ConnState(config)
        rng = random.Random(len(mode) * 10 + len(policy))
        seen, owned = Counter(), set()
        for _ in churn(state, rng, 80):
            live = sorted(state.input_active)
            for x in rng.sample(live, min(3, len(live))) + [
                    rng.randrange(d ** n)]:
                outs = window_outputs(d, n, t, rng.randrange(d ** (n - t)))
                ys = rng.sample(outs, rng.randint(1, 3))
                got = state.blocking_planes(x, ys)
                assert got == multilog_oracle.blocked(state, x, ys)
                seen[x in state.input_active, bool(got)] += 1
                owners = {state.requests[state.output_owner[y]][0]
                          for y in ys if y in state.output_owner}
                owned.update(u == x for u in owners)
                if not owners:
                    branches = state.blocking_branches(
                        AddressSets(d, n, x, ys, t))
                    assert list(branches.items()) == \
                        sorted(oracle_branches(state, x, ys).items())
        # every kind of probe ran: own keys or none, blocked or not, and
        # outputs the probing input owns as well as another's
        assert len(seen) == 4 and len(owned) == 2


class TestProbeOracle:
    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), d=st.sampled_from([2, 3]), n=st.integers(1, 4),
           f=st.sampled_from([1, 2, 4]), m=st.integers(1, 4),
           mode=st.sampled_from([LINK, CROSSTALK]),
           policy=st.sampled_from([multilog.FIRST_FIT, multilog.RANDOM]),
           seed=st.integers(0, 1 << 16))
    def test_branches_match_predicate_scan(self, data, d, n, f, m, mode,
                                           policy, seed):
        t = data.draw(st.integers(0, n))
        f = min(f, d ** n)
        config = MultilogConfig(d=d, n=n, m=m, t=t, f=f, mode=mode,
                                plane_policy=policy, seed=seed)
        state = ConnState(config)
        rng = random.Random(seed)
        addrs = range(d ** n)
        for _ in churn(state, rng, 25):
            x = rng.choice(addrs)
            home = rng.randrange(d ** (n - t))
            outs = list(window_outputs(d, n, t, home))
            free = [y for y in outs if y not in state.output_owner]
            if free:
                ys = rng.sample(free, rng.randint(1, min(f, len(free))))
                want = oracle_branches(state, x, ys)
                got = state.blocking_branches(AddressSets(d, n, x, ys, t))
                assert list(got.items()) == sorted(want.items())
                xw, xv = {}, {}
                for u, v in want.values():
                    w = v // d ** t
                    if w == home:
                        xv[u, v] = 1
                    else:
                        xw[u, w] = 1
                _, primal = lpcert.primal_from_state(state, x, ys)
                assert (primal.xw, primal.xv) == (xw, xv)
                assert primal.objective() == \
                    len(state.blocking_planes(x, ys))
            owned = [y for y in outs if y in state.output_owner]
            if owned:
                ys = [rng.choice(owned)] + free[:min(f - 1, 1)]
                with pytest.raises(ValueError, match="already owned"):
                    state.blocking_branches(AddressSets(d, n, x, ys, t))
                with pytest.raises(ValueError, match="already owned"):
                    lpcert.primal_from_state(state, x, ys)

    @pytest.mark.parametrize("mode, x", [(LINK, s("100")),
                                         (CROSSTALK, s("010"))])
    def test_conflict_past_the_opening_route_names_its_branch(self, mode, x):
        # 000's subrequest to 000 and 010 holds the route to 000, then the
        # one key of the branch to 010 that differs (the link leaving stage
        # 2, or the stage-3 element); the probe (x, 011) shares only that
        # key, so the branch named is (000, 010), not the opening one
        state = ConnState(cfg(m=1, t=2, f=2, mode=mode))
        state.admit(s("000"), [s("000"), s("010")], rid="u")
        want = {0: (s("000"), s("010"))}
        assert oracle_branches(state, x, [s("011")]) == want
        assert state.blocking_branches(
            AddressSets(2, 3, x, [s("011")], 2)) == want

    @pytest.mark.parametrize("mode", [LINK, CROSSTALK])
    def test_own_keys_do_not_block(self, mode):
        # x's own branch holds keys of the probe, and a foreign request is
        # live elsewhere; neither blocks x's next branch
        state = ConnState(cfg(m=2, f=2, mode=mode))
        state.admit(s("000"), [s("000")], rid="own")
        state.admit(s("111"), [s("111")], rid="foreign")
        probe = route(2, 3, s("000"), s("001"), mode)
        assert any(key in state.occ for key in probe)
        assert oracle_branches(state, s("000"), [s("001")]) == {}
        assert state.blocking_branches(
            AddressSets(2, 3, s("000"), [s("001")], 0)) == {}
        _, primal = lpcert.primal_from_state(state, s("000"), [s("001")])
        assert primal.objective() == 0


def bump_refcount(state):
    counts = state.refs[0, s("000")]
    key = next(iter(counts))
    counts[key] += 1


def move_owner(state):
    # a key of input 000 on plane 0, moved to input 111's table there
    key, count = state.refs[0, s("000")].popitem()
    state.refs.setdefault((0, s("111")), {})[key] = count


def move_bit(state):
    # a key held on plane 0 only, marked as held on plane 1 instead
    key = next(k for k, mask in state.occ.items() if mask == 1)
    state.occ[key] = 2


def drop_shared_bit(state):
    # a key both planes hold, no longer marked on plane 0
    key = next(k for k, mask in state.occ.items() if mask == 3)
    state.occ[key] = 2


def lying_route(state):
    """Move b onto a's plane with its link ids rewritten to be disjoint from
    a's: occupancy and registry agree, and only the sharing predicate can
    see that the two routes share a link."""
    state.release("b")
    x, y = s("100"), s("001")
    assert shares_link(2, 3, s("000"), s("000"), x, y)
    sub = (0, [y], tuple(key + 1000 for key in route(2, 3, x, y, LINK)))
    # t = 0: each output is its own window
    state._commit("b", x, y, sub)
    state.requests["b"] = (x, {y: sub})


def shared_key(state):
    """Put b on a's plane by hand, past admission: both inputs' refs claim
    the links their routes share on plane 0, whose bits were already set."""
    state.release("b")
    x, y = s("100"), s("001")
    keys = route(2, 3, x, y, LINK)
    state.refs[0, x] = dict(Counter(keys))
    for key in keys:
        state.occ[key] = state.occ.get(key, 0) | 1
    state.pins[x, y] = [0, 1]
    state.output_owner[y] = "b"
    state.input_active[x] = 1
    state.requests["b"] = (x, {y: (0, [y], keys)})


def extra_occupancy_entry(state):
    # a key no request on plane 1 holds, marked as held there
    key = next(k for k, mask in state.occ.items() if not mask & 2)
    state.occ[key] |= 2


def shared_key_and_extra_bit(state):
    # the shared key counts twice on one bit and the extra bit makes up
    # for it, so the bit totals balance
    shared_key(state)
    extra_occupancy_entry(state)


def file_under_other_input(state):
    """Re-file request a, from input 000, under input 010."""
    state.requests["a"] = (s("010"), state.requests["a"][1])


def file_under_other_window(state):
    """Re-file request a's subrequest to window 0 under window 1."""
    x, admitted = state.requests["a"]
    (w, held), = admitted.items()
    state.requests["a"] = (x, {w + 1: held})


SHARED = "key %d shared across inputs on plane 0" % next(iter(
    set(route(2, 3, 0, 0, LINK)) & set(route(2, 3, 4, 1, LINK))))


def verdict(audit, state):
    """The message `audit(state)` raises, or None when it passes."""
    try:
        audit(state)
    except AssertionError as exc:
        return str(exc)
    return None


class TestAudit:
    @pytest.mark.parametrize("corrupt, caught", [
        (lambda state: state.occ.popitem(), "occ differs"),
        (bump_refcount, "refs differs"),
        (move_owner, "refs differs"),
        (lambda state: state.refs[1, s("100")].popitem(), "refs differs"),
        (lying_route, "conflict on plane 0"),
        (shared_key, SHARED),
        (extra_occupancy_entry, "occ differs"),
        (shared_key_and_extra_bit, SHARED),
        (lambda state: state.occ.setdefault(-1, 0), "occ differs"),
        (lambda state: state.refs.setdefault((0, s("111")), {}),
         "refs differs"),
        (move_bit, "occ differs"),
        (drop_shared_bit, "occ differs"),
        (lambda state: state.occ.__setitem__(next(iter(state.occ)), 0),
         "occ differs"),
        (lambda state: state.occ.__setitem__(next(iter(state.occ)), 7),
         "occ differs"),
        (file_under_other_input, "refs differs from the registry$"),
        (file_under_other_window, "output 0 under window 1$"),
    ], ids=["drop_occupancy_entry", "bump_refcount",
            "move_owner", "drop_refcount_entry", "lying_route",
            "shared_key", "extra_occupancy_entry",
            "shared_key_and_extra_bit", "empty_occupancy_key",
            "leftover_refcount_table", "move_bit", "drop_shared_bit",
            "zero_mask", "bit_past_the_planes", "route_under_other_input",
            "route_under_other_window"])
    def test_corruption_detected(self, corrupt, caught):
        state = ConnState(cfg(m=2))
        state.admit(s("000"), [s("000")], rid="a")
        state.admit(s("100"), [s("001")], rid="b")  # conflicts: plane 1
        state.audit()
        assert verdict(multilog_oracle.audit, state) is None
        corrupt(state)
        with pytest.raises(AssertionError, match=caught) as raised:
            state.audit()
        # the in-place audit says what the rebuild-and-compare oracle says
        assert str(raised.value) == verdict(multilog_oracle.audit, state)

    def test_fanout_excess_detected(self):
        # input 000 holds two outputs under f = 2, then is audited at f = 1
        state = ConnState(cfg(m=2, f=2))
        state.admit(s("000"), [s("000"), s("001")], rid="a")
        state.audit()
        state.config = cfg(m=2, f=1)
        with pytest.raises(AssertionError,
                           match="input 0 over fanout") as raised:
            state.audit()
        assert str(raised.value) == verdict(multilog_oracle.audit, state)


def faults(state):
    """The one-fault corruptions of `state` by name: what each does to an
    item ("drop" it, "bump" it, "flip" a bit of it, "zero" it, or "move"
    a key to the next input's refs table on its plane), and the items, as
    (container, key, bit or key to move), it could be done to."""
    occ, refs, pins = state.occ, state.refs, state.pins
    bits = [(occ, k, 1 << p) for k in sorted(occ)
            for p in range(state.config.m + 1)]
    counts = [(refs[at], k, None) for at in sorted(refs)
              for k in sorted(refs[at])]
    return {
        "drop_bit": ("flip", [it for it in bits if occ[it[1]] & it[2]]),
        "set_free_bit": ("flip", [it for it in bits
                                  if not occ[it[1]] & it[2]]),
        "zero_mask": ("zero", [(occ, k, None) for k in sorted(occ)]
                      + [(occ, -1, None)]),
        "hand_over_key": ("move", [(refs, at, k) for at in sorted(refs)
                                   for k in sorted(refs[at])]),
        "bump_count": ("bump", counts),
        "drop_count": ("drop", counts),
        "drop_counts": ("drop", [(refs, at, None) for at in sorted(refs)]),
        "bump_pin": ("bump", [(pins[at], 1, None) for at in sorted(pins)]),
        "free_output": ("drop", [(state.output_owner, y, None)
                                 for y in sorted(state.output_owner)]),
        "bump_load": ("bump", [(state.input_active, x, None)
                               for x in sorted(state.input_active)]),
    }


def corrupt(state, action, item):
    """Do `action` to `item`, one of `faults(state)`'s."""
    table, key, arg = item
    if action == "drop":
        del table[key]
    elif action == "bump":
        table[key] += 1
    elif action == "flip":
        table[key] ^= arg
    elif action == "zero":
        table[key] = 0
    else:
        plane, x = key
        other = (x + 1) % state.config.d ** state.config.n
        table.setdefault((plane, other), {})[arg] = table[key].pop(arg)


class TestAuditOracle:
    """`ConnState.audit` checks the live state in place; the oracle rebuilds
    every derived map and compares.  On seeded churn, and after each
    one-fault corruption of a churned state, both must raise alike."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("mode", [LINK, CROSSTALK])
    @pytest.mark.parametrize("policy", [multilog.FIRST_FIT, multilog.RANDOM])
    def test_churn_and_corruptions_match(self, n, mode, policy):
        config = cfg(d=2, n=n, m=3, t=n // 2, f=4, mode=mode,
                     plane_policy=policy, seed=n)
        state = ConnState(config)
        rng = random.Random(100 * n + len(mode) + len(policy))
        for step in churn(state, rng, 40):
            assert verdict(multilog_oracle.audit, state) is None
            # each subrequest holds its routes' keys once: the trunk, then
            # each branch
            for x, admitted in state.requests.values():
                for _, outputs, keys in admitted.values():
                    assert keys == tuple(dict.fromkeys(itertools.chain(*(
                        route_ids(2, n, x, y, mode) for y in outputs))))
            if step % 10 != 9:
                continue
            for name in faults(state):
                bad = copy.deepcopy(state)
                action, items = faults(bad)[name]
                if not items:
                    continue
                corrupt(bad, action, items[rng.randrange(len(items))])
                want = verdict(multilog_oracle.audit, bad)
                assert want is not None, name
                assert verdict(ConnState.audit, bad) == want, name


class TestAuditMemory:
    def test_audit_peak_is_a_fraction_of_the_rebuild(self):
        # the audit keeps no copy of occ or refs: on a churned n = 10 state
        # its traced peak is about a tenth of the rebuild's
        config = cfg(d=2, n=10, m=55, t=5, f=2, plane_policy=multilog.RANDOM)
        state = ConnState(config)
        rng = random.Random(37)
        live = []
        for rid in range(400):
            if len(live) >= 200:
                state.release(live.pop(rng.randrange(len(live))))
            x, ys = adversary.random_admissible_request(state, rng)
            state.admit(x, ys, rid=rid)
            if rid in state.requests:
                live.append(rid)

        def peak(audit):
            tracemalloc.start()
            try:
                audit(state)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rebuilt, in_place = peak(multilog_oracle.audit), peak(ConnState.audit)
        assert in_place * 4 <= rebuilt


class TestUntracked:
    def test_occupancy_holds_only_plain_ints(self):
        # DaryString addresses are int subclasses the cyclic garbage
        # collector tracks; the occupancy keeps the plain ints they denote,
        # so that neither occ nor any per-(plane, input) dict is tracked
        config = cfg(d=2, n=4, m=4, t=2, f=2, plane_policy=multilog.RANDOM)
        state = ConnState(config)
        addrs = list(all_strings(2, 4))
        assert gc.is_tracked(addrs[0])
        rng = random.Random(29)
        live = []
        for i in range(300):
            if live and rng.random() < 0.4:
                state.release(live.pop(rng.randrange(len(live))))
                continue
            req = adversary.random_admissible_request(state, rng)
            if req is not None:
                x, ys = req
                state.admit(addrs[x], [addrs[y] for y in ys], rid=i)
                if i in state.requests:
                    live.append(i)
        state.audit()
        assert state.occ and state.refs
        # each occ value is the bitmask of the planes that hold its key
        assert all(type(mask) is int and mask > 0
                   for mask in state.occ.values())
        assert all(type(x) is int for _, x in state.refs)
        assert not gc.is_tracked(state.occ)
        assert not any(map(gc.is_tracked, state.refs.values()))

    def test_steady_churn_does_not_grow_the_heap(self):
        # once the route cache is full, each route it builds evicts one, so
        # churn at a steady load leaves the tracked heap as it was; a cache
        # that never fills keeps about six tracked objects per step here
        config = cfg(d=2, n=10, m=6, t=5, f=2, plane_policy=multilog.RANDOM)
        state = ConnState(config)
        rng = random.Random(31)
        live, rids = [], itertools.count()

        def churn(steps):
            for rid in itertools.islice(rids, steps):
                if len(live) >= 40:
                    state.release(live.pop(rng.randrange(len(live))))
                x, ys = adversary.random_admissible_request(state, rng)
                state.admit(x, ys, rid=rid)
                if rid in state.requests:
                    live.append(rid)

        cache = multilog._route
        cache.cache_clear()
        for _ in range(5000):
            info = cache.cache_info()
            if info.currsize == info.maxsize:
                break
            churn(1)
        gc.collect()
        gc.disable()
        try:
            # the collector untracks tuples of ints, and with it disabled
            # the tuples built from here on stay tracked: the first steps
            # replace every cached route and live request, so that both
            # counts see the same kinds of object tracked
            churn(500)
            before = len(gc.get_objects())
            churn(2000)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        state.audit()
        info = cache.cache_info()
        assert info.currsize <= info.maxsize
        assert grown <= 200


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
            branches = [(x, y) for x, adm in state.requests.values()
                        for p, outs, _ in adm.values() if p == plane
                        for y in outs]
            for (a, b), (u, v) in itertools.combinations(branches, 2):
                if a != u:
                    assert not shares_link(2, 4, a, b, u, v)


class TestPolicies:
    @pytest.mark.parametrize("policy", [multilog.FIRST_FIT, multilog.RANDOM])
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


class TestPick:
    """`_pick` walks to the plane `choice` would draw from the free planes,
    and draws from the generator exactly as `choice` did."""

    @staticmethod
    def state(m, policy, seed, blocked):
        """A state whose `_blocked` gives the bitmask of the planes in the
        set `blocked`, as it is when asked."""
        state = ConnState(cfg(d=2, n=4, m=m, t=2, f=4, plane_policy=policy,
                              seed=seed))
        state._blocked = lambda x, keys: sum(1 << p for p in blocked)
        return state

    @pytest.mark.parametrize("m", [1, 5, 161])
    def test_random_draws_as_choice(self, m):
        for seed in range(200):
            blocked = set()
            state = self.state(m, multilog.RANDOM, seed, blocked)
            want = random.Random(seed)
            picks = random.Random(-seed)
            for _ in range(4):   # one generator across picks
                blocked.clear()
                blocked.update(picks.sample(range(m), picks.randint(0, m)))
                free = [p for p in range(m) if p not in blocked]
                assert state._pick(0, 0, []) == \
                    (want.choice(free) if free else None)
                assert state.rng.getstate() == want.getstate()

    def test_first_fit_takes_the_lowest_free_plane(self):
        rng = random.Random(5)
        for _ in range(200):
            m = rng.randint(1, 20)
            blocked = set(rng.sample(range(m), rng.randint(0, m)))
            state = self.state(m, multilog.FIRST_FIT, 0, blocked)
            before = state.rng.getstate()
            free = [p for p in range(m) if p not in blocked]
            assert state._pick(0, 0, []) == (free[0] if free else None)
            assert state.rng.getstate() == before

    @pytest.mark.parametrize("policy", [multilog.FIRST_FIT, multilog.RANDOM])
    def test_pinned_window_keeps_its_plane(self, policy):
        rng = random.Random(8)
        for seed in range(100):
            m = rng.randint(1, 12)
            blocked = set(rng.sample(range(m), rng.randint(0, m)))
            state = self.state(m, policy, seed, blocked)
            pin = rng.randrange(m)
            state.pins[0, 0] = [pin, 1]
            want = random.Random(seed)
            got = state._pick(0, 0, [])
            if pin in blocked:
                assert got is None
            else:
                assert got == pin
                if policy == multilog.RANDOM:   # as `choice([pin])` drew
                    want.choice([pin])
            assert state.rng.getstate() == want.getstate()


class TestTraceIo:
    def test_parse_address(self):
        assert parse_address("010", 2, 3) == 2
        with pytest.raises(ValueError):
            parse_address("01", 2, 3)
        # Arabic-Indic digits would read as 100 and 001 through int()
        with pytest.raises(ValueError, match="line 1: cannot read address"):
            list(run_trace(ConnState(cfg()),
                           ["A r1 \u0661\u0660\u0660 \u0660\u0660\u0661"]))

    def test_run_trace(self):
        config = cfg(d=2, n=3, m=1, t=0, f=1)
        lines = [
            "# two conflicting unicasts on one plane",
            "A r1 000 000",
            "A r2 100 001",
            "D r1",
            "D r1",
            "A r3 010 011",
        ]
        state = ConnState(config)
        rows = list(run_trace(state, lines))
        assert [r["status"] for r in rows] == \
            ["ok", "blocked", "ok", "unknown_id", "ok"]
        assert rows[0]["plane"] == 0
        # the replay leaves its live requests in the caller's state
        assert set(state.requests) == {"r3"}
        state.audit()

    def test_trace_error_statuses(self):
        rows = list(run_trace(ConnState(cfg(d=2, n=3, m=2, t=0, f=1)), [
            "A r1 000 000 001",       # fanout 2 > f=1
            "A r2 000 000",
            "A r3 001 000",           # output already owned
        ]))
        assert [r["status"] for r in rows] == \
            ["fanout_exceeded", "ok", "output_busy"]

    def test_bad_line(self):
        with pytest.raises(ValueError):
            list(run_trace(ConnState(cfg()), ["nonsense"]))


@pytest.mark.parametrize("call, message", [
    (lambda: cfg(d=1), "d=1: need integer d >= 2"),
    (lambda: cfg(f=9), "f=9: need integer 1 <= f <= 8"),
    (lambda: cfg(mode="bogus"), "unknown mode 'bogus'"),
    (lambda: cfg(plane_policy="bogus"), "unknown plane policy 'bogus'"),
    (lambda: ConnState(cfg()).admit(0, []), "empty output set"),
    (lambda: ConnState(cfg()).blocking_branches(AddressSets(2, 4, 0, [0], 0)),
     "request was built for another network shape"),
    (lambda: ConnState(cfg()).blocking_branches(AddressSets(2, 3, 0, [0], 1)),
     "request was built for another network shape"),
    (lambda: ConnState(cfg()).admit(0, 5),
     "5 is not a collection of addresses"),
    (lambda: ConnState(cfg()).blocking_planes(0, [[0]]),
     "[[0]] is not a collection of addresses"),
    (lambda: ConnState(cfg()).blocking_branches((0, [1])),
     "(0, [1]) is not a dary.AddressSets"),
    (lambda: ConnState(cfg(t=1, f=2)).blocking_planes(0, [0, 4]),
     "outputs span windows [0, 2]"),
], ids=["d-1", "f-past-d^n", "mode", "plane-policy", "no-outputs",
        "request-of-other-n", "request-of-other-t", "outputs-not-a-collection",
        "outputs-unhashable", "request-not-sets", "outputs-over-two-windows"])
def test_multilog_refusals(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
