"""LP instances, dual certificates, weak duality, LP text export."""

from fractions import Fraction
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from switchlp import lpcert, bounds, multilog, adversary
from switchlp.lpcert import (
    LINK, CROSSTALK, Infeasible, LpInstance, canonical_instance,
    PrimalSolution, primal_from_state, DualSolution, dual_family,
    dual_special_t_eq_n, check_weak_duality, family_cost, export_lp, parse_lp,
)
from switchlp.dary import (
    DaryString, all_strings, lcp, lcs, window_index, window_outputs,
)

from address_oracle import EnumeratedAddressSets


def s(text, base=2):
    return DaryString.parse(text, base)


class TestInstance:
    def test_index_sets_against_direct_count(self):
        # recount the defined pairs straight from the suffix/prefix scans,
        # without going through the cached address families
        inst = canonical_instance(2, 3, 1, 1, 1, LINK)
        a = s("000")
        b = s("000")
        n = 3
        want_uw = 0
        for u in all_strings(2, 3):
            if u == a:
                continue
            i = lcs(a.prefix(n - 1), u.prefix(n - 1))
            for w in range(4):
                if w == 0:
                    continue
                head_w = DaryString.from_value(w, 2, 2)
                j = lcp(head_w, DaryString.from_value(0, 2, 2))
                if i + j >= n:
                    want_uw += 1
        assert len(inst.uw_pairs) == want_uw
        want_uv = 0
        for u in all_strings(2, 3):
            if u == a:
                continue
            i = lcs(a.prefix(n - 1), u.prefix(n - 1))
            for v in (s("001"),):
                j = lcp(b.prefix(n - 1), v.prefix(n - 1))
                if i + j >= n:
                    want_uv += 1
        assert len(inst.uv_pairs) == want_uv

    def test_crosstalk_superset(self):
        for t in (0, 1, 2):
            a = canonical_instance(2, 4, t, 2, 1, LINK)
            b = canonical_instance(2, 4, t, 2, 1, CROSSTALK)
            assert set(a.uw_pairs) <= set(b.uw_pairs)
            assert set(a.uv_pairs) <= set(b.uv_pairs)

    def test_t_eq_n_has_no_window_variables(self):
        inst = canonical_instance(2, 3, 3, 2, 1, LINK)
        assert inst.uw_pairs == []
        assert inst.windows == []

    def test_fanout_guard(self):
        with pytest.raises(ValueError):
            LpInstance(2, 3, 1, 1, s("000"), {s("000"), s("001")})

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            LpInstance(2, 3, 1, 1, s("000"), {s("000")}, mode="bogus")


@st.composite
def requests(draw):
    """A random input a and a random nonempty B inside one window."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 5))
    t = draw(st.integers(0, n))
    a = DaryString.from_value(draw(st.integers(0, d ** n - 1)), d, n)
    outs = list(window_outputs(d, n, t,
                               draw(st.integers(0, d ** (n - t) - 1))))
    B = draw(st.lists(st.sampled_from(outs), min_size=1, unique=True))
    return d, n, t, a, B, draw(st.sampled_from([LINK, CROSSTALK]))


class TestOracle:
    @settings(deadline=None)
    @given(requests())
    def test_fast_path_matches_enumeration(self, req):
        d, n, t, a, B, mode = req
        inst = LpInstance(d, n, t, len(B), a, B, mode)
        fast = inst.sets
        ref = EnumeratedAddressSets(a, B, t)
        ins = list(all_strings(d, n))
        wins = list(range(d ** (n - t)))
        home_outs = list(window_outputs(d, n, t, ref.home_window))
        assert fast.home_window == ref.home_window
        assert [fast.i_of(u) for u in ins] == [ref.i_of(u) for u in ins]
        assert [fast.j_of_window(w) for w in wins] == \
            [ref.j_of_window(w) for w in wins]
        assert [fast.j_of_output(v) for v in home_outs] == \
            [ref.j_of_output(v) for v in home_outs]
        for i in range(n):
            assert fast.a_count(i) == ref.a_count(i)
        for j in range(-1, n + 2):
            assert fast.window_count(j) == ref.window_count(j)
            assert fast.output_count(j) == ref.output_count(j)
            assert fast.b_count(j) == ref.b_count(j)
            assert fast.union_b_tail(j) == ref.union_b_tail(j)

        thresh = n - inst.theta
        uw, uv = ref.uw_pairs(thresh), ref.uv_pairs(thresh)
        assert inst.uw_pairs == uw
        assert inst.uv_pairs == uv
        uw, uv = set(uw), set(uv)
        for u in ins:
            for w in wins:
                assert inst.defined_uw(u, w) == ((u, w) in uw)
            for v in home_outs:
                assert inst.defined_uv(u, v) == ((u, v) in uv)
        assert inst.defined_classes_uw() == sorted(
            {(ref.i_of(u), ref.j_of_window(w)) for u, w in uw})
        assert inst.defined_classes_uv() == sorted(
            {(ref.i_of(u), ref.j_of_output(v)) for u, v in uv})

    def test_definedness_rejects_foreign_keys(self):
        inst = canonical_instance(2, 3, 1, 1, 1, CROSSTALK)
        u = s("100")
        assert inst.defined_uw(u, 1)
        assert not inst.defined_uw(u, 0)          # the home window
        assert not inst.defined_uw(u, 4)          # no such window
        assert not inst.defined_uw(s("000"), 1)   # u = a
        assert not inst.defined_uw(s("1000"), 1)  # wrong length
        assert not inst.defined_uv(u, s("000"))   # v in B
        assert not inst.defined_uv(u, s("010"))   # another window


class TestPrimal:
    def test_empty_state_zero_objective(self):
        cfg = multilog.MultilogConfig(d=2, n=3, m=2, t=1, f=2)
        conn = multilog.ConnState(cfg)
        inst, primal = primal_from_state(conn, s("000"), [s("000")])
        assert primal.objective() == 0
        assert primal.check_feasible()

    def test_objective_counts_blocking_planes(self):
        # crosstalk mode: (100 -> 001) and (001 -> 010) conflict with each
        # other, so they land on different planes, and both conflict with
        # the probe (000 -> 000)
        cfg = multilog.MultilogConfig(d=2, n=3, m=2, t=0, f=1,
                                      mode="crosstalk")
        conn = multilog.ConnState(cfg)
        assert conn.admit(s("100"), [s("001")], rid="a") == {1: 0}
        assert conn.admit(s("001"), [s("010")], rid="b") == {2: 1}
        planes = conn.blocking_planes(s("000"), [s("000")])
        inst, primal = primal_from_state(conn, s("000"), [s("000")])
        assert primal.objective() == len(planes) == 2
        assert primal.check_feasible()

    def test_random_states_always_feasible(self):
        rng = random.Random(41)
        for mode in ("link", "crosstalk"):
            cfg = multilog.MultilogConfig(d=2, n=4, m=3, t=1, f=2, mode=mode)
            for trial in range(25):
                conn = multilog.ConnState(cfg)
                for i in range(rng.randrange(1, 12)):
                    req = adversary.random_admissible_request(conn, rng)
                    if req is None:
                        break
                    conn.admit(req[0], req[1], rid="%d" % i)
                free = [y for y in all_strings(2, 4)
                        if y not in conn.output_owner
                        and window_index(y, 1) == 0]
                if not free:
                    continue
                a = s("1111")
                B = [free[0]]
                inst, primal = primal_from_state(conn, a, B)
                assert primal.check_feasible()
                assert primal.objective() == \
                    len(conn.blocking_planes(a, B))

    def test_undefined_variable_rejected(self):
        inst = canonical_instance(2, 3, 1, 1, 1, LINK)
        u = s("010")  # i(u) = 0 shares nothing: (u, w) undefined for low j
        bad = PrimalSolution(inst, xw={(u, 2): 1})
        if (u, 2) in inst.uw_pairs:
            pytest.skip("pair unexpectedly defined")
        with pytest.raises(Infeasible):
            bad.check_feasible()


class TestDualFamily:
    def test_small_grid_feasible_and_matches_cost(self):
        for d in (2, 3):
            for n in (3, 4):
                for t in range(0, n):
                    for f in (1, 2, d ** n):
                        for mode in (LINK, CROSSTALK):
                            for k in range(1, min(f, d ** t) + 1):
                                inst = canonical_instance(d, n, t, f, k, mode)
                                for p in range(0, n - t):
                                    for q in range(n - t, n + 1):
                                        self.check_point(inst, p, q)

    @staticmethod
    def check_point(inst, p, q):
        sol = dual_family(inst, p, q)
        assert sol.check_feasible()
        cost = family_cost(inst, p, q)
        assert sol.objective_bounded_delta(q) == cost
        assert sol.objective() <= cost

    def test_parameter_ranges(self):
        inst = canonical_instance(2, 3, 1, 1, 1, LINK)
        with pytest.raises(ValueError):
            dual_family(inst, 2, 2)
        with pytest.raises(ValueError):
            dual_family(inst, 0, 1)

    def test_randomized_b_placements(self):
        rng = random.Random(12)
        for _ in range(40):
            d, n, t = 2, 4, rng.choice([1, 2])
            w = rng.randrange(d ** (n - t))
            outs = list(all_strings(d, n))
            wouts = [v for v in outs if window_index(v, t) == w]
            k = rng.randrange(1, len(wouts) + 1)
            B = rng.sample(wouts, k)
            a = rng.choice(outs)
            mode = rng.choice([LINK, CROSSTALK])
            inst = LpInstance(d, n, t, k, a, B, mode)
            for p in range(0, n - t):
                for q in range(n - t, n + 1):
                    sol = dual_family(inst, p, q)
                    assert sol.check_feasible()
                    assert sol.objective() <= family_cost(inst, p, q)

    def test_corrupted_dual_names_violation(self):
        inst = canonical_instance(2, 3, 1, 2, 1, LINK)
        sol = dual_family(inst, 0, 2)
        sol.eps = {i: 0 for i in sol.eps}
        sol.beta = {}
        sol.alpha = {j: 0 for j in sol.alpha}
        with pytest.raises(Infeasible) as err:
            sol.check_feasible()
        assert "DC-1" in str(err.value)

    def test_negative_value_rejected(self):
        inst = canonical_instance(2, 3, 1, 2, 1, LINK)
        sol = dual_family(inst, 0, 2)
        sol.gamma[0] = Fraction(-1)
        with pytest.raises(Infeasible):
            sol.check_feasible()


class TestDualSpecial:
    def test_link_low_fanout(self):
        inst = canonical_instance(2, 4, 4, 1, 1, LINK)
        sol = dual_special_t_eq_n(inst)
        assert sol.variant == "low"
        assert sol.check_feasible()
        assert sol.objective() <= bounds.hwang_unicast(2, 4) - 1

    def test_link_high_fanout(self):
        inst = canonical_instance(2, 4, 4, 8, 1, LINK)
        sol = dual_special_t_eq_n(inst)
        assert sol.variant == "high"
        assert sol.check_feasible()
        assert sol.objective() == 2 ** 3 - 1

    def test_crosstalk_variants(self):
        for f, want in ((1, "low"), (16, "high")):
            inst = canonical_instance(2, 4, 4, f, 1, CROSSTALK)
            sol = dual_special_t_eq_n(inst)
            assert sol.variant == want
            assert sol.check_feasible()

    def test_requires_t_eq_n(self):
        inst = canonical_instance(2, 3, 1, 1, 1, LINK)
        with pytest.raises(ValueError):
            dual_special_t_eq_n(inst)


class TestWeakDuality:
    def test_zero_primal_gap_is_dual_objective(self):
        inst = canonical_instance(2, 3, 1, 2, 1, LINK)
        primal = PrimalSolution(inst)
        dual = dual_family(inst, 0, 2)
        assert check_weak_duality(primal, dual) == dual.objective()

    def test_simulated_states_gap_nonnegative(self):
        rng = random.Random(77)
        for mode in ("link", "crosstalk"):
            cfg = multilog.MultilogConfig(d=2, n=3, m=2, t=1, f=2, mode=mode)
            for trial in range(30):
                conn = multilog.ConnState(cfg)
                for i in range(rng.randrange(1, 10)):
                    req = adversary.random_admissible_request(conn, rng)
                    if req is None:
                        break
                    conn.admit(req[0], req[1], rid=str(i))
                free = [y for y in all_strings(2, 3)
                        if y not in conn.output_owner
                        and window_index(y, 1) == 0]
                if not free:
                    continue
                inst, primal = primal_from_state(conn, s("111"), [free[0]])
                for p in range(0, 2):
                    for q in range(2, 4):
                        dual = dual_family(inst, p, q)
                        assert check_weak_duality(primal, dual) >= 0

    def test_mismatched_instances_rejected(self):
        p_inst = canonical_instance(2, 3, 1, 1, 1, LINK)
        d_inst = canonical_instance(2, 3, 1, 1, 1, CROSSTALK)
        with pytest.raises(ValueError):
            check_weak_duality(PrimalSolution(p_inst),
                               dual_family(d_inst, 0, 2))


class TestExport:
    def test_roundtrip(self):
        inst = canonical_instance(2, 3, 1, 2, 1, LINK)
        text = export_lp(inst)
        parsed = parse_lp(text)
        want = sorted(["x_u%d_w%d" % (u.value(), w)
                       for u, w in inst.uw_pairs]
                      + ["x_u%d_v%d" % (u.value(), v.value())
                         for u, v in inst.uv_pairs])
        assert parsed["objective"] == want
        assert parsed["bounds"] == want
        names = {name for name, _, _ in parsed["constraints"]}
        assert any(name.startswith("cap_w") for name in names)
        assert any(name.startswith("fan_u") for name in names)
        for name, vs, rhs in parsed["constraints"]:
            if name.startswith("fan_u"):
                assert rhs == inst.f
            assert all(v in want for v in vs)

    def test_deterministic(self):
        a = export_lp(canonical_instance(2, 4, 1, 2, 2, CROSSTALK))
        b = export_lp(canonical_instance(2, 4, 1, 2, 2, CROSSTALK))
        assert a == b

    @pytest.mark.parametrize("args, digest", [
        ((2, 4, 1, 2, 2, CROSSTALK), "ce6092bb5f7c36a2"),
        ((3, 3, 1, 2, 1, LINK), "154c7c09cbe00394"),
        ((2, 5, 2, 4, 3, LINK), "81625e945747ff41"),
    ])
    def test_golden_text(self, args, digest):
        # sha256 prefixes of the text written when the variable lists were
        # built eagerly; the lazy build must give the same bytes
        text = export_lp(canonical_instance(*args))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_t_eq_n_exports_without_window_vars(self):
        text = export_lp(canonical_instance(2, 3, 3, 1, 1, LINK))
        assert "_w" not in text.replace("cap_w", "")
