"""LP instances, dual certificates, weak duality, the exact optimum."""

from fractions import Fraction
import inspect
import random
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from switchlp import lpcert, bounds, dary, multilog, adversary
from switchlp.lpcert import (
    LINK, CROSSTALK, Infeasible, LpInstance, canonical_instance,
    PrimalSolution, primal_from_state, DualSolution, dual_family,
    check_weak_duality, family_cost, lp_optimum,
)
from switchlp.dary import AddressSets, DaryString, all_strings, parse_address

from address_oracle import (EnumeratedAddressSets, digits, lcp, lcs,
                            window_outputs)
from lp_oracle import (address_rows, bounded_delta_summed,
                       dual_special_t_eq_n, family_loops, objective_summed,
                       oracle_pairs, solve_enumerated)


def s(text, base=2):
    return parse_address(text, base, len(text))


def variables(inst):
    """The (kind, u, z) that `rows_of` gives rows for, asking it about
    every input against every window and every home-window output."""
    d, n, t = inst.d, inst.n, inst.t
    return {(kind, u, z)
            for kind, zs in (("w", range(d ** (n - t))),
                             ("v", window_outputs(d, n, t, inst.home)))
            for u in range(d ** n) for z in zs if inst.rows_of(kind, u, z)}


class TestInstance:
    def test_index_sets_against_direct_count(self):
        # recount the defined pairs straight from the suffix/prefix scans,
        # without going through the cached address families
        inst = canonical_instance(2, 3, 1, 1, 1, LINK)
        a = digits(2, 3, 0)
        b = digits(2, 3, 0)
        n = 3
        want_uw = 0
        for u in range(2 ** 3):
            if u == 0:
                continue
            i = lcs(a[:n - 1], digits(2, 3, u)[:n - 1])
            for w in range(4):
                if w == 0:
                    continue
                j = lcp(digits(2, 2, w), digits(2, 2, 0))
                if i + j >= n:
                    want_uw += 1
        uw_pairs, uv_pairs = oracle_pairs(inst)
        assert len(uw_pairs) == want_uw
        want_uv = 0
        for u in range(2 ** 3):
            if u == 0:
                continue
            i = lcs(a[:n - 1], digits(2, 3, u)[:n - 1])
            for v in (digits(2, 3, 1),):
                j = lcp(b[:n - 1], v[:n - 1])
                if i + j >= n:
                    want_uv += 1
        assert len(uv_pairs) == want_uv

    def test_crosstalk_superset(self):
        for t in (0, 1, 2):
            a = variables(canonical_instance(2, 4, t, 2, 1, LINK))
            b = variables(canonical_instance(2, 4, t, 2, 1, CROSSTALK))
            assert a <= b

    def test_t_eq_n_has_no_window_variables(self):
        inst = canonical_instance(2, 3, 3, 2, 1, LINK)
        assert oracle_pairs(inst)[0] == []
        # no (u, w) variable and no window capacity row
        assert all(kind == "v" for kind, _, _ in variables(inst))
        assert all(rank != 0 for rank, _, _ in address_rows(inst))

    def test_fanout_guard(self):
        with pytest.raises(ValueError):
            LpInstance(AddressSets(2, 3, s("000"), {s("000"), s("001")}, 1),
                       1)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            LpInstance(AddressSets(2, 3, s("000"), {s("000")}, 1), 1,
                       mode="bogus")

    @pytest.mark.parametrize("f", [0, -1, 9, 99999999999999999999])
    def test_fanout_out_of_range(self, f):
        # f above d^n once built an instance, and then an LP, that
        # `family_cost` refused with "f out of range"
        for call in (lambda: LpInstance(AddressSets(2, 3, 0, [0], 1), f),
                     lambda: canonical_instance(2, 3, 1, f, 1)):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == "f=%d: need integer 1 <= f <= 8" % f

    def test_sets_of_another_request_refused(self):
        # an instance reads d, n, t, a and B off its sets, so no second
        # copy of the request can disagree with them; it refuses only a
        # request its own f cannot take
        sets = dary.canonical_sets(2, 3, 1, 2)
        inst = LpInstance(sets, 2)
        assert inst.sets is sets
        assert (inst.d, inst.n, inst.t, inst.a, inst.B, inst.k) == \
            (2, 3, 1, 0, range(2), 2)
        with pytest.raises(ValueError) as raised:
            LpInstance(sets, 1)
        assert str(raised.value) == "k=2: need integer 1 <= k <= 1"
        # B's members decide, not the type it is passed as: contiguous
        # members are one range, any others one frozenset
        for B in ([0, 1], (1, 0), range(2), [1, 0, 1], {0, 1}):
            assert AddressSets(2, 3, 0, B, 1).B == sets.B
        for B in ([2, 0], (0, 2), range(0, 3, 2), frozenset({0, 2})):
            assert AddressSets(2, 3, 0, B, 2).B == frozenset({0, 2})

    def test_canonical_matches_fresh_build(self):
        # the canonical instance takes the cached sets; an instance on
        # freshly built sets must read the same at every canonical cell
        for d in (2, 3):
            for n in range(1, 7):
                for t in range(n + 1):
                    for f in sorted({1, 2, min(4, d ** n), d ** n}):
                        for k in range(1, min(f, d ** t) + 1):
                            for mode in (LINK, CROSSTALK):
                                got = canonical_instance(d, n, t, f, k, mode)
                                want = LpInstance(
                                    AddressSets(d, n, 0, range(k), t), f,
                                    mode)
                                assert got.sets is not want.sets
                                assert got.profile == want.profile
                                assert got.classes_uw == want.classes_uw
                                assert got.classes_uv == want.classes_uv
                                for q in range(-1, n + 2):
                                    assert got.sets.union_b_tail(q) == \
                                        want.sets.union_b_tail(q)

    def test_class_tables_isolated_from_callers(self):
        # an instance's class lists and profile come from caches shared by
        # every instance with the same parameters; editing one instance's
        # in place must leave the next one as it was
        def tables(inst):
            return ([list(inst.classes_uw), list(inst.classes_uv)],
                    {what: dict(pool) for what, pool in inst.profile.items()})

        for d, n, t, f, k, mode in ((2, 5, 2, 4, 2, LINK),
                                    (3, 4, 2, 9, 3, CROSSTALK)):
            want = tables(canonical_instance(d, n, t, f, k, mode))
            edits = (list.clear, lambda seq: seq.append((99, 99)),
                     lambda seq: seq.reverse())
            for edit in edits:
                inst = canonical_instance(d, n, t, f, k, mode)
                edit(inst.classes_uw)
                edit(inst.classes_uv)
                for pool in inst.profile.values():
                    pool.update(dict.fromkeys(pool, -1))
                    pool[99] = 7
                inst.profile.clear()
                for fresh in (canonical_instance(d, n, t, f, k, mode),
                              LpInstance(AddressSets(d, n, 0, range(k), t),
                                         f, mode)):
                    assert tables(fresh) == want


@st.composite
def requests(draw, max_n=5):
    """A random input a and a random nonempty B inside one window."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, max_n))
    t = draw(st.integers(0, n))
    a = draw(st.integers(0, d ** n - 1))
    outs = list(window_outputs(d, n, t,
                               draw(st.integers(0, d ** (n - t) - 1))))
    B = draw(st.lists(st.sampled_from(outs), min_size=1, unique=True))
    return d, n, t, a, B, draw(st.sampled_from([LINK, CROSSTALK]))


class TestOracle:
    @settings(deadline=None)
    @given(requests())
    def test_fast_path_matches_enumeration(self, req):
        d, n, t, a, B, mode = req
        inst = LpInstance(AddressSets(d, n, a, B, t), len(B), mode)
        fast = inst.sets
        ref = EnumeratedAddressSets(d, n, a, B, t)
        ins = list(all_strings(d, n))
        wins = list(range(d ** (n - t)))
        home_outs = list(window_outputs(d, n, t, ref.home_window))
        assert fast.home_window == ref.home_window
        assert [fast.i_of(u) for u in ins] == [ref.i_of(u) for u in ins]
        assert [fast.j_of_window(w) for w in wins] == \
            [ref.j_of_window(w) for w in wins]
        assert [fast.j_of_output(v) for v in home_outs] == \
            [ref.j_of_output(v) for v in home_outs]
        # the class counts the duals are priced with, at the class labels
        # i(u) + theta and j + theta; a crosstalk label 0 is the link class
        # 0 at n + 1, which no variable reaches
        th = inst.theta
        alpha, gamma, delta = (
            {key - th: c for key, c in inst.profile[what].items() if key >= th}
            for what in ("alpha", "gamma", "delta"))
        assert gamma == {i: ref.a_count(i) for i in range(n)}
        assert alpha == {j: d ** t * ref.window_count(j)
                         for j in range(n - t)}
        counts = dict(enumerate(fast.output_counts))
        assert len(counts) == n and delta == counts
        for j in range(-1, n + 2):
            assert counts.get(j, 0) == ref.output_count(j)
            assert alpha.get(j, 0) + counts.get(j, 0) == ref.b_count(j)
            assert fast.union_b_tail(j) == ref.union_b_tail(j)

        thresh = n - th
        uw, uv = ref.uw_pairs(thresh), ref.uv_pairs(thresh)
        assert variables(inst) == {("w", *key) for key in uw} | \
            {("v", *key) for key in uv}
        assert inst.classes_uw == sorted(
            {(ref.i_of(u) + th, ref.j_of_window(w) + th) for u, w in uw})
        assert inst.classes_uv == sorted(
            {(ref.i_of(u) + th, ref.j_of_output(v) + th) for u, v in uv})

    def test_definedness_rejects_foreign_keys(self):
        inst = canonical_instance(2, 3, 1, 1, 1, CROSSTALK)
        u = s("100")
        assert inst.rows_of("w", u, 1) is not None
        assert inst.rows_of("w", u, 0) is None          # the home window
        assert inst.rows_of("w", u, 0.0) is None        # not an int
        assert inst.rows_of("w", u, 4) is None          # no such window
        assert inst.rows_of("w", s("000"), 1) is None   # u = a
        assert inst.rows_of("w", s("1000"), 1) is None  # wrong length
        assert inst.rows_of("v", u, s("000")) is None   # v in B
        assert inst.rows_of("v", u, s("010")) is None   # another window


DUAL_VALUES = [0, 1, 2, Fraction(1, 2), Fraction(2, 3)]


@st.composite
def priced_duals(draw):
    """An instance, one dual value per class (ints and Fractions mixed; beta
    on every (i, j), defined or not), keyed by the class labels i(u) + theta
    and j + theta, and a tail start q."""
    d, n, t, a, B, mode = draw(requests(max_n=4))
    inst = LpInstance(AddressSets(d, n, a, B, t),
                      draw(st.integers(len(B), d ** n)), mode)
    value = st.sampled_from(DUAL_VALUES)
    th = inst.theta
    ins, wins = range(th, n + th), range(th, n - t + th)
    duals = {name: {key: draw(value) for key in keys} for name, keys in (
        ("alpha", wins), ("beta", [(i, j) for i in ins for j in wins]),
        ("gamma", ins), ("delta", ins), ("eps", ins))}
    return inst, duals, draw(st.integers(n - t, n))


def enumerated(inst, ref, duals):
    """The dual objective summed address by address (alpha per foreign
    window, beta per defined (u, w), gamma and f*epsilon per input, delta
    per spare output), and whether every per-address DC-1 row (one per
    defined (u, w)) and DC-2 row (one per defined (u, v)) holds; an
    address's class label is its index plus theta."""
    al, be, ga, de, ep = (duals[k] for k in
                          ("alpha", "beta", "gamma", "delta", "eps"))
    def label(index):   # an index plus theta; None, the undefined, kept
        return lambda z: None if index(z) is None else index(z) + inst.theta
    i, jw, jv = map(label, (ref.i_of, ref.j_of_window, ref.j_of_output))
    d, n, t = inst.d, inst.n, inst.t
    windows = [w for w in range(d ** (n - t)) if jw(w) is not None]
    inputs = [u for u in range(d ** n) if i(u) is not None]
    spare = [v for v in window_outputs(d, n, t, inst.home)
             if jv(v) is not None]
    uw_pairs, uv_pairs = oracle_pairs(inst)
    price = (sum(d ** t * al[jw(w)] for w in windows)
             + sum(be[i(u), jw(w)] for u, w in uw_pairs)
             + sum(ga[i(u)] + inst.f * ep[i(u)] for u in inputs)
             + sum(de[jv(v)] for v in spare))
    rows_hold = (all(al[jw(w)] + be[i(u), jw(w)] + ep[i(u)] >= 1
                     for u, w in uw_pairs)
                 and all(ga[i(u)] + de[jv(v)] + ep[i(u)] >= 1
                         for u, v in uv_pairs))
    return price, rows_hold


class TestDualOracle:
    """Class-level dual pricing and feasibility against the per-address
    sums and rows over the enumerated variable lists."""

    @settings(deadline=None)
    @given(priced_duals())
    def test_pricing_matches_enumeration(self, case):
        inst, duals, q = case
        ref = EnumeratedAddressSets(inst.d, inst.n, inst.a, inst.B, inst.t)
        sol = DualSolution(inst, **duals)
        price, rows_hold = enumerated(inst, ref, duals)
        got = sol.objective()
        assert type(got) is Fraction
        assert got == price
        if rows_hold:
            assert sol.check_feasible()
        else:
            with pytest.raises(Infeasible):
                sol.check_feasible()

        th = inst.theta
        duals["delta"] = {j: int(j >= q + th) for j in range(inst.n + th)}
        sol = DualSolution(inst, **duals)
        tail = ref.union_b_tail(q)
        d, n, t, k = inst.d, inst.n, inst.t, inst.k
        cap = min(d ** t - k, k * (d ** (n - q) - 1))
        got = sol.objective_bounded_delta(q)
        assert type(got) is Fraction
        assert got == enumerated(inst, ref, duals)[0] - tail + cap

    @settings(deadline=None)
    @given(priced_duals(), st.booleans(), st.booleans())
    def test_explicit_zeros_change_nothing(self, case, tail, first):
        # the drawn pools hold zeros under class keys; add more under keys
        # no class has, before or after the drawn ones, and compare with
        # the pools that hold only the nonzero values
        inst, duals, q = case
        th = inst.theta
        n, t = inst.n + th, inst.t   # the class labels' n
        if tail:
            duals["delta"] = {j: int(j >= q + th) for j in range(n)}
        outside = {"alpha": [n - t, n - t + 1, -1],
                   "beta": [(n, 0), (0, n - t), (-1, -1)],
                   "gamma": [n, -1], "delta": [n, n + 1], "eps": [n, -1]}
        zeros = {name: dict.fromkeys(keys, 0)
                 for name, keys in outside.items()}
        padded = {name: (zeros[name] | pool) if first else (pool | zeros[name])
                  for name, pool in duals.items()}
        support = {name: {k: v for k, v in pool.items() if v}
                   for name, pool in duals.items()}
        got, want = (DualSolution(inst, **pools) for pools in (padded,
                                                               support))
        assert got.objective() == want.objective()
        assert outcome(got.objective_bounded_delta, q) \
            == outcome(want.objective_bounded_delta, q)
        assert outcome(got.check_feasible) == outcome(want.check_feasible)


def outcome(call, *args):
    """What `call` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except (Infeasible, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def loose_duals(draw):
    """An instance, dual pools of mixed ints and Fractions that may hold
    keys with no class (delta beyond n among them) and may be negative,
    and an integer q in or next to [n - t, n]; delta is the q-tail
    indicator half the time, so the bounded objective is reached."""
    d, n, t, a, B, mode = draw(requests(max_n=4))
    inst = LpInstance(AddressSets(d, n, a, B, t),
                      draw(st.integers(len(B), d ** n)), mode)
    q = draw(st.integers(n - t - 1, n + 1))
    value = st.one_of(st.integers(-2, 3),
                      st.fractions(-2, 3, max_denominator=6))

    def pool(keys):
        return draw(st.dictionaries(st.sampled_from(keys), value,
                                    max_size=len(keys)))

    N = n + inst.theta   # the class labels' n
    duals = {"alpha": pool(range(N - t + 1)),
             "beta": pool([(i, j) for i in range(N + 1)
                           for j in range(N - t + 1)]),
             "gamma": pool(range(N + 1)), "eps": pool(range(N + 1)),
             "delta": pool(range(N + 2))}
    if draw(st.booleans()):
        duals["delta"] = {j: int(j >= q + inst.theta) for j in range(N)}
        duals["delta"].update(pool(range(N, N + 2)))
    return inst, duals, q


class TestDualPricing:
    """One exact sum behind both objectives, against the generator sum
    it replaced."""

    @settings(deadline=None)
    @given(loose_duals())
    def test_one_sum_matches_generator_sum(self, case):
        inst, duals, q = case
        sol = DualSolution(inst, **duals)
        got = sol.objective()
        assert type(got) is Fraction
        assert got == objective_summed(sol)
        try:
            want = bounded_delta_summed(sol, q)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                sol.objective_bounded_delta(q)
            assert str(err.value) == str(exc)
        else:
            got = sol.objective_bounded_delta(q)
            assert type(got) is Fraction
            assert got == want

    @settings(deadline=None)
    @given(loose_duals())
    # crosstalk labels run to n, past the n-level indices: label 3 at n = 3
    # is a class key, named before the 4 given first
    @example((canonical_instance(2, 3, 1, 2, 1, CROSSTALK),
              {"alpha": {}, "beta": {}, "gamma": {4: -1, 3: -1}, "eps": {},
               "delta": {}}, 2))
    def test_negative_named_as_dense_pools_name_it(self, case):
        # a dense pool held every class key, ascending, with the others
        # after them in the order given; the first negative value in that
        # order is the one the refusal names
        inst, duals, _ = case
        n, t = inst.n + inst.theta, inst.t   # the class labels' n
        want = True
        for name, what, size in (("alpha", "alpha", n - t),
                                 ("gamma", "gamma", n), ("delta", "delta", n),
                                 ("eps", "epsilon", n), ("beta", "beta", 0)):
            dense = dict.fromkeys(range(size), 0)
            dense.update(duals[name])
            key = next((k for k, v in dense.items() if v < 0), None)
            if key is not None:
                want = (Infeasible, "%s[%r] negative" % (what, key))
                break
        got = outcome(DualSolution(inst, **duals).check_feasible)
        if want is True:
            assert got is True or "negative" not in got[1]
        else:
            assert got == want

    @pytest.mark.parametrize("pool, value", [
        ("alpha", float("inf")), ("alpha", float("nan")), ("gamma", None),
        ("delta", "1"), ("eps", 1j), ("beta", [1])])
    def test_value_that_is_no_finite_number_refused(self, pool, value):
        inst = canonical_instance(2, 3, 1, 2, 1, LINK)
        key = (1, 1) if pool == "beta" else 0
        with pytest.raises(ValueError) as err:
            DualSolution(inst, **{pool: {key: value}})
        name = "epsilon" if pool == "eps" else pool
        assert str(err.value).startswith("%s[%r]" % (name, key))

    def test_exact_values_kept(self):
        inst = canonical_instance(2, 3, 1, 2, 1, LINK)
        sol = DualSolution(inst, alpha={0: 1}, gamma={0: Fraction(1, 3)},
                           delta={0: 0.5}, eps={0: True})
        assert type(sol.alpha[0]) is int
        assert sol.gamma[0] == Fraction(1, 3)
        assert sol.delta[0] == Fraction(1, 2)
        assert sol.eps[0] == 1

    def test_no_pool_holds_a_zero(self):
        # a dual is its support, however it is built
        for d, n, t, f, k in ((2, 6, 3, 4, 3), (3, 4, 2, 1, 1),
                              (2, 5, 0, 8, 1), (2, 4, 4, 2, 2)):
            for mode in (LINK, CROSSTALK):
                inst = canonical_instance(d, n, t, f, k, mode)
                sols = [DualSolution(inst, alpha={0: 0, 1: 1},
                                     beta={(n - 1, 0): 0.0, (0, 0): 2},
                                     gamma={0: Fraction(0)},
                                     delta=dict.fromkeys(range(n + 1), 0),
                                     eps={0: False, n: 1}),
                        lp_optimum(inst)[1]]
                sols += [dual_family(inst, p, q) for p in range(n - t)
                         for q in range(n - t, n + 1)]
                for sol in sols:
                    for what, pool in sol._pools():
                        assert 0 not in pool.values(), (d, n, t, mode, what)
        # the family point of the pools' docstrings: 6 of 24 dense entries
        sol = dual_family(canonical_instance(2, 6, 3, 4, 3, LINK), 0, 3)
        assert sum(len(pool) for _, pool in sol._pools()) == 6

    @pytest.mark.parametrize("q", [2.5, 2.0, "2", None])
    def test_bounded_delta_refuses_non_integer_q(self, q):
        sol = dual_family(canonical_instance(2, 3, 1, 2, 1, LINK), 0, 2)
        with pytest.raises(ValueError) as raised:
            sol.objective_bounded_delta(q)
        assert str(raised.value) == "q=%r: need integer 2 <= q <= 3" % (q,)


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

    def test_list_probe_meets_the_canonical_dual(self):
        # a probe's B given as a list holds the canonical request's members,
        # so its primal and the canonical instance's duals are one request
        cfg = multilog.MultilogConfig(d=2, n=3, m=2, t=1, f=2,
                                      mode=CROSSTALK)
        conn = multilog.ConnState(cfg)
        conn.admit(1, [2], rid="a")
        conn.admit(4, [3], rid="b")
        inst, primal = primal_from_state(conn, 0, [1, 0])
        assert inst.B == range(2) and primal.objective() == 2
        canon = canonical_instance(2, 3, 1, 2, 2, CROSSTALK)
        for p in range(2):
            for q in range(2, 4):
                assert check_weak_duality(primal, dual_family(canon, p, q)) \
                    == dual_family(canon, p, q).objective() - 2

    def test_probe_builds_only_what_the_primal_reads(self):
        cfg = multilog.MultilogConfig(d=2, n=3, m=2, t=1, f=2,
                                      mode="crosstalk")
        conn = multilog.ConnState(cfg)
        conn.admit(s("100"), [s("001")], rid="a")
        conn.admit(s("001"), [s("010")], rid="b")
        inst, primal = primal_from_state(conn, s("000"), [s("000")])
        assert primal.objective() == 2
        lazy = {"classes_uw", "classes_uv", "profile"}
        assert not lazy & inst.__dict__.keys()
        # the dual side builds them on first use, to the eager gaps
        eager = LpInstance(AddressSets(2, 3, s("000"), [s("000")], 1), 2,
                           CROSSTALK)
        for name in lazy:
            getattr(eager, name)
        twin = PrimalSolution(eager, primal.xw, primal.xv)
        n, t = 3, 1
        for p in range(n - t):
            for q in range(n - t, n + 1):
                assert check_weak_duality(primal, dual_family(inst, p, q)) \
                    == check_weak_duality(twin, dual_family(eager, p, q))

    def test_probe_checks_its_request_once(self, monkeypatch):
        # a and B are DaryStrings, so a check of them is told by identity
        # from the rows' checks of the live inputs and outputs (plain ints)
        cfg = multilog.MultilogConfig(d=2, n=4, m=2, t=2, f=2)
        conn, rng = multilog.ConnState(cfg), random.Random(5)
        seen, one, request = [], dary.check_address, dary.check_request
        monkeypatch.setattr(dary, "check_address", lambda d, n, v: (
            seen.append(("address", v)) or one(d, n, v)))
        monkeypatch.setattr(dary, "check_request", lambda d, n, x, B, *size: (
            seen.append(("request", (x, B))) or request(d, n, x, B, *size)))
        live, probes, positive = [], 0, 0
        for step in range(40):
            if live and rng.random() < 0.4:
                conn.release(live.pop(rng.randrange(len(live))))
            elif req := adversary.random_admissible_request(conn, rng):
                conn.admit(req[0], req[1], rid=step)
                if step in conn.requests:
                    live.append(step)
            a = DaryString(2, (1, 0, 1, 1))
            free = [y for y in range(16) if y not in conn.output_owner]
            B = [DaryString.from_value(free[-1], 2, 4)]
            seen.clear()
            _, primal = primal_from_state(conn, a, B)
            probes += 1
            positive += primal.objective() > 0
            assert [v for kind, v in seen if v is a] == [a]
            assert [(v[0], set(v[1])) for kind, v in seen
                    if kind == "request"] == [(a, set(B))]
            assert not any(v is b for _, v in seen for b in B)
        assert probes == 40 and positive > 5

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
                        if y not in conn.output_owner and y // 2 == 0]
                if not free:
                    continue
                a = s("1111")
                B = [free[0]]
                inst, primal = primal_from_state(conn, a, B)
                assert primal.check_feasible()
                assert primal.objective() == \
                    len(conn.blocking_planes(a, B))

    @pytest.mark.parametrize("mode", [LINK, CROSSTALK])
    @pytest.mark.parametrize("B", [["000"], ["001", "000"]])
    def test_owned_output_rejected(self, mode, B):
        # the owner's route (010 -> 000) shares no internal link with the
        # probe's branch (000 -> 000), so no blocking branch reveals it
        cfg = multilog.MultilogConfig(d=2, n=3, m=1, t=1, f=2, mode=mode)
        conn = multilog.ConnState(cfg)
        conn.admit(s("010"), [s("000")], rid="r")
        with pytest.raises(ValueError, match="output 0 already owned"):
            primal_from_state(conn, s("000"), [s(b) for b in B])

    def test_undefined_variable_rejected(self):
        inst = canonical_instance(2, 3, 1, 1, 1, LINK)
        u = s("010")  # i(u) = 0 shares nothing: (u, w) undefined for low j
        bad = PrimalSolution(inst, xw={(u, 2): 1})
        if (u, 2) in oracle_pairs(inst)[0]:
            pytest.skip("pair unexpectedly defined")
        with pytest.raises(Infeasible):
            bad.check_feasible()


# the message check_feasible raises when a row is exceeded, by the row's
# rank in `rows_of`; the row's key fills it in
ROW_MESSAGES = ("window capacity at w=%s", "x_u%s_w%s > 1",
                "per-input home spread at u=%s", "output multiplicity at v=%s",
                "fanout at u=%s")


class TestRowTable:
    """`check_feasible` adds a primal into the rows `rows_of` names; a
    primal is refused exactly when it exceeds a row of the per-address LP
    built over the oracle's pairs."""

    @staticmethod
    def cases():
        """(primal, exceeded (rank, key, bound) rows) for seeded sparse
        primals on d = 2, n in {3, 4}, every t, both modes."""
        rng = random.Random(1404)
        for n in (3, 4):
            for t in range(n + 1):
                for f in (1, 2, 2 ** n):
                    for k in sorted({1, min(f, 2 ** t)}):
                        for mode in (LINK, CROSSTALK):
                            inst = canonical_instance(2, n, t, f, k, mode)
                            rows = address_rows(inst)
                            for density in (0.1, 0.3, 0.6, 1.0):
                                yield TestRowTable.sparse(
                                    inst, rows, density, rng)

    @staticmethod
    def sparse(inst, rows, density, rng):
        values = [1, 1, 1, 1, 2, Fraction(1, 2)]
        uw_pairs, uv_pairs = oracle_pairs(inst)
        xw = {key: rng.choice(values) for key in uw_pairs
              if rng.random() < density}
        xv = {key: rng.choice(values) for key in uv_pairs
              if rng.random() < density}
        by_var = {("w", *key): val for key, val in xw.items()}
        by_var.update((("v", *key), val) for key, val in xv.items())
        exceeded = {row for row, used in rows.items()
                    if sum(by_var.get(var, 0) for var in used) > row[2]}
        return PrimalSolution(inst, xw, xv), exceeded

    @staticmethod
    def refusal(check, primal):
        try:
            check(primal)
        except Infeasible as exc:
            return str(exc)
        return None

    def test_refused_exactly_when_a_row_is_exceeded(self):
        kinds, counts = {}, [0, 0]
        for primal, exceeded in self.cases():
            got = self.refusal(PrimalSolution.check_feasible, primal)
            assert (got is not None) == bool(exceeded)
            counts[bool(exceeded)] += 1
            if got is not None:
                assert got in {ROW_MESSAGES[rank] % key
                               for rank, key, _ in exceeded}
            for rank, _, _ in exceeded:
                kinds[rank] = kinds.get(rank, 0) + 1
        # both verdicts occur, and every row kind is exceeded somewhere
        assert min(counts) > 20
        assert set(kinds) == set(range(len(ROW_MESSAGES)))

    def test_ge_mutant_is_caught(self):
        source = textwrap.dedent(
            inspect.getsource(PrimalSolution.check_feasible))
        assert source.count("total > bound") == 1
        scope = {}
        exec(source.replace("total > bound", "total >= bound"),
             dict(vars(lpcert)), scope)
        mutant = scope["check_feasible"]
        assert any((self.refusal(mutant, primal) is not None)
                   != bool(exceeded)
                   for primal, exceeded in self.cases())


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
        # at q = n - t the tail cap is the true tail, so `certify` prices
        # every point with the bounded objective
        if q == inst.n - inst.t:
            assert sol.objective_bounded_delta(q) == sol.objective()

    def test_parameter_ranges(self):
        inst = canonical_instance(2, 3, 1, 1, 1, LINK)
        with pytest.raises(ValueError):
            dual_family(inst, 2, 2)
        with pytest.raises(ValueError):
            dual_family(inst, 0, 1)
        for p, q, message in (
                (0.5, 2, "p=0.5: need integer 0 <= p <= 1"),
                (0, 2.0, "q=2.0: need integer 2 <= q <= 3"),
                (0, "2", "q='2': need integer 2 <= q <= 3"),
                (None, 2, "p=None: need integer 0 <= p <= 1")):
            with pytest.raises(ValueError) as raised:
                dual_family(inst, p, q)
            assert str(raised.value) == message

    def test_matches_loop_oracle(self):
        # the cached shape against the family built in loops: the same
        # pools with the same key order, and every value a plain int
        for n in range(1, 8):
            for t in range(n):
                for mode in (LINK, CROSSTALK):
                    inst = canonical_instance(2, n, t, 1, 1, mode)
                    for p in range(n - t):
                        for q in range(n - t, n + 1):
                            got = dual_family(inst, p, q)._pools()
                            want = family_loops(inst, p, q)._pools()
                            for (what, pool), (_, ref) in zip(got, want):
                                assert list(pool.items()) == \
                                    list(ref.items()), (n, t, mode, p, q,
                                                        what)
                                assert all(type(v) is int
                                           for v in pool.values())

    def test_cache_isolated_from_callers(self):
        # zero, negate or empty a certificate's pools in place, as
        # `certify --fuzz` and test_negative_value_rejected do: a later
        # certificate at the same point, and one of another instance with
        # the same (n, t, mode), must not see it
        inst = canonical_instance(2, 5, 2, 4, 2, LINK)
        other = canonical_instance(3, 5, 2, 1, 1, LINK)
        want = [list(pool.items())
                for _, pool in family_loops(inst, 1, 3)._pools()]
        edits = (lambda pool: pool.update(dict.fromkeys(pool, 0)),
                 lambda pool: pool.update((k, -v) for k, v in pool.items()),
                 dict.clear,
                 lambda pool: pool.update({99: -1}))
        for edit in edits:
            sol = dual_family(inst, 1, 3)
            for _, pool in sol._pools():
                edit(pool)
            for fresh in (dual_family(inst, 1, 3), dual_family(other, 1, 3)):
                assert [list(pool.items())
                        for _, pool in fresh._pools()] == want
                assert fresh.check_feasible()
        first, second = dual_family(inst, 1, 3), dual_family(inst, 1, 3)
        assert all(a is not b for (_, a), (_, b)
                   in zip(first._pools(), second._pools()))

    @pytest.mark.parametrize("q", [4, 5])
    def test_bounded_delta_refuses_q_out_of_range(self, q):
        # past q = n the zero delta passes as the q-tail indicator, and
        # d^(n - q) would be a float below the exact objective
        inst = canonical_instance(2, 3, 1, 2, 1, LINK)
        sol = DualSolution(inst, eps={i: 1 for i in range(3)},
                           gamma={0: 1})
        assert sol.objective() == 18
        with pytest.raises(ValueError):
            sol.objective_bounded_delta(q)

    @pytest.mark.parametrize("mode, key", [
        (LINK, 3), (LINK, -1), (LINK, "x"), (CROSSTALK, 0), (CROSSTALK, 4)])
    def test_bounded_delta_refuses_delta_off_the_tail(self, mode, key):
        # the q-tail indicator is 1 on the labels q + theta .. N - 1 and
        # holds nothing else: a nonzero delta at a key no class has was
        # once ignored, and is refused like one inside the range
        inst = canonical_instance(2, 3, 1, 2, 1, mode)
        sol = dual_family(inst, 0, 2)
        bounded = sol.objective_bounded_delta(2)
        assert sol.delta == {2 + inst.theta: 1}
        sol.delta[key] = 1
        with pytest.raises(ValueError) as raised:
            sol.objective_bounded_delta(2)
        assert str(raised.value) == "delta is not the q-tail indicator"
        del sol.delta[key]
        assert sol.objective_bounded_delta(2) == bounded
        with pytest.raises(ValueError):
            bounded_delta_summed(DualSolution(
                inst, delta={2 + inst.theta: 1, key: 1}), 2)

    def test_randomized_b_placements(self):
        rng = random.Random(12)
        for _ in range(40):
            d, n, t = 2, 4, rng.choice([1, 2])
            w = rng.randrange(d ** (n - t))
            outs = list(all_strings(d, n))
            wouts = [v for v in outs if v // d ** t == w]
            k = rng.randrange(1, len(wouts) + 1)
            B = rng.sample(wouts, k)
            a = rng.choice(outs)
            mode = rng.choice([LINK, CROSSTALK])
            inst = LpInstance(AddressSets(d, n, a, B, t), k, mode)
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


class TestOneMode:
    """A crosstalk instance at n is the link instance at n + 1: the same
    classes and class counts under (i, j) -> (i + 1, j + 1), which is how
    a crosstalk instance labels them, so the same optimum and duals."""

    @staticmethod
    def pairs():
        """(crosstalk instance at n, link instance at n + 1) over d <= 4,
        n <= 5, every t <= n and a few f and k."""
        for d in (2, 3, 4):
            for n in range(1, 6):
                for t in range(n + 1):
                    for f in sorted({1, 2, d, d ** t, d ** n}):
                        for k in sorted({1, 2, min(f, d ** t)}):
                            if k > min(f, d ** t):
                                continue
                            yield (canonical_instance(d, n, t, f, k,
                                                      CROSSTALK),
                                   canonical_instance(d, n + 1, t, f, k, LINK))

    @staticmethod
    def support(profile):
        # a class count of 0 is an empty class: the link instance has
        # output class 0, below every home-window label, and crosstalk none
        return {what: {key: c for key, c in pool.items() if c}
                for what, pool in profile.items()}

    def test_classes_counts_and_optimum(self):
        points = 0
        for cross, link in self.pairs():
            assert cross.classes_uw == link.classes_uw
            assert cross.classes_uv == link.classes_uv
            assert self.support(cross.profile) == self.support(link.profile)
            (got, dual), (want, ref) = lp_optimum(cross), lp_optimum(link)
            assert got == want
            assert dual._pools() == ref._pools()
            points += 1
        assert points == 453

    def test_family_and_its_cost(self):
        for cross, link in self.pairs():
            d, n, t, f, k = cross.d, cross.n, cross.t, cross.f, cross.k
            for p in range(n - t):
                for q in range(n - t, n + 1):
                    got = dual_family(cross, p, q)
                    assert got._pools() == dual_family(link, p, q + 1)._pools()
                    assert got._pools() == family_loops(cross, p, q)._pools()
                    assert bounds.g_cost(d, n, t, f, k, p, q) == \
                        bounds.c_cost(d, n + 1, t, f, k, p, q + 1)
                    assert got.objective_bounded_delta(q) == \
                        dual_family(link, p, q + 1).objective_bounded_delta(
                            q + 1)


class TestDualSpecial:
    def test_link_low_fanout(self):
        inst = canonical_instance(2, 4, 4, 1, 1, LINK)
        sol = dual_special_t_eq_n(inst)
        assert sol.variant == "low"
        assert sol.check_feasible()
        assert sol.objective() <= bounds.hwang_unicast(2, 4) - 1

    def test_link_high_fanout(self):
        inst = canonical_instance(2, 4, 4, 8, 8, LINK)
        sol = dual_special_t_eq_n(inst)
        assert sol.variant == "high"
        assert sol.check_feasible()
        assert sol.objective() == 2 ** 3 - 1

    def test_crosstalk_variants(self):
        for f, k, want in ((1, 1, "low"), (16, 1, "low"), (16, 16, "high")):
            inst = canonical_instance(2, 4, 4, f, k, CROSSTALK)
            sol = dual_special_t_eq_n(inst)
            assert sol.variant == want
            assert sol.check_feasible()
            assert sol.objective() <= bounds.cf_snb_fcast_t_eq_n(2, 4, f) - 1

    def test_requires_t_eq_n(self):
        inst = canonical_instance(2, 3, 1, 1, 1, LINK)
        with pytest.raises(ValueError):
            dual_special_t_eq_n(inst)


@pytest.mark.parametrize("v, ok", [
    (1, True), (DaryString(2, (0, 0, 1)), True), (True, False),
    (False, False), (1.0, False), ("1", False), (None, False), (-1, False),
    (8, False)], ids=["int", "DaryString", "True", "False", "float", "str",
                      "None", "negative", "past-end"])
def test_one_index_rule(v, ok):
    # inputs, home-window outputs and windows take the same values: ints
    # and int subclasses other than bool, in range; each lookup keeps its
    # own message, and rows_of gives None for any refused index
    inst = canonical_instance(2, 3, 1, 2, 1)
    sets = inst.sets
    for lookup, want, message in ((sets.i_of, 2, "address"),
                                  (sets.j_of_output, 2, "address"),
                                  (sets.j_of_window, 1, "window index")):
        if ok:
            assert lookup(v) == want
        else:
            with pytest.raises(ValueError, match=message):
                lookup(v)
    rows = [inst.rows_of(kind, *pair) for kind in "wv"
            for pair in ((v, 1), (1, v))]
    want = [inst.rows_of(kind, 1, 1) for kind in "wv" for _ in range(2)]
    assert None not in want
    assert rows == (want if ok else [None] * 4)


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
                        if y not in conn.output_owner and y // 2 == 0]
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


def certified_optimum(inst):
    """`lp_optimum(inst)`, checked: it is the per-address LP's optimum, a
    whole number (the LP is totally unimodular), and its dual passes
    `check_feasible` with the optimum as objective."""
    opt, dual = lp_optimum(inst)
    assert opt == solve_enumerated(inst)
    assert opt.denominator == 1
    assert dual.check_feasible()
    assert dual.objective() == opt
    return opt


class TestExactOptimum:
    """`lp_optimum`'s class LP against the per-address LP, the family's
    duals above and the simulator's primals below."""

    def test_matches_enumeration_on_canonical_grid(self):
        # every canonical instance with d^n <= 32, t = n included; below
        # t = n every family objective is at least the optimum
        solved = 0
        for d in (2, 3, 4, 5):
            for n in range(1, 6):
                if d ** n > 32:
                    break
                for t in range(n + 1):
                    for f in sorted({1, 2, min(4, d ** n), d ** n}):
                        for k in range(1, min(f, d ** t) + 1):
                            for mode in (LINK, CROSSTALK):
                                inst = canonical_instance(d, n, t, f, k, mode)
                                opt = certified_optimum(inst)
                                solved += 1
                                assert all(
                                    opt <= dual_family(inst, p, q).objective()
                                    for p in range(n - t)
                                    for q in range(n - t, n + 1))
        assert solved == 858

    @settings(deadline=None)
    @given(requests(max_n=4).filter(lambda req: req[0] ** req[1] <= 27),
           st.data())
    def test_matches_enumeration_on_any_request(self, req, data):
        d, n, t, a, B, mode = req
        f = data.draw(st.integers(len(B), d ** n))
        certified_optimum(LpInstance(AddressSets(d, n, a, B, t), f, mode))

    def test_between_primals_and_family(self):
        # the primals side; the canonical grid checks the family's
        rng = random.Random(1303)
        solved = positive = 0
        for n in (3, 4):
            for t in range(n):
                for f in sorted({1, 2, 4, 2 ** n}):
                    for k in sorted({1, min(f, 2 ** t)}):
                        for mode in (LINK, CROSSTALK):
                            inst = canonical_instance(2, n, t, f, k, mode)
                            opt, _ = lp_optimum(inst)
                            solved += 1
                            positive += self._churn(inst, opt, rng)
        assert solved == 86
        assert positive > 100

    @staticmethod
    def _churn(inst, opt, rng):
        """Probe (a, B) after each step of a seeded churn; returns the
        number of probes that read a positive primal."""
        cfg = multilog.MultilogConfig(
            d=2, n=inst.n, m=int(opt) + 2, t=inst.t, f=inst.f, mode=inst.mode,
            plane_policy=multilog.RANDOM, seed=rng.randrange(10 ** 6))
        conn = multilog.ConnState(cfg)
        live, positive = [], 0
        for step in range(40):
            if live and rng.random() < 0.3:
                conn.release(live.pop(rng.randrange(len(live))))
            else:
                req = adversary.random_admissible_request(conn, rng)
                if req is None:
                    continue
                conn.admit(req[0], req[1], rid=step)
                if step in conn.requests:
                    live.append(step)
            if not any(y in conn.output_owner for y in inst.B):
                _, primal = primal_from_state(conn, inst.a, inst.B)
                assert primal.objective() <= opt
                positive += primal.objective() > 0
        return positive


@pytest.mark.parametrize("call, exc, message", [
    (lambda: PrimalSolution(canonical_instance(2, 3, 1, 2, 1),
                            xw={(1, 1): -1}).check_feasible(),
     Infeasible, "x_u1_w1 negative"),
    (lambda: lpcert.solve_packing([[1]], [1], [-1]), ValueError,
     "need c >= 0"),
    (lambda: lpcert.solve_packing([[-1]], [1], [0]), ValueError,
     "unbounded LP"),
    (lambda: LpInstance(None, 2), ValueError,
     "None is not a dary.AddressSets"),
    (lambda: canonical_instance(2, 3, 1, 2, [1]), ValueError,
     "k=[1]: need integer 1 <= k <= 2"),
], ids=["negative-variable", "negative-capacity", "unbounded", "sets-None",
        "k-unhashable"])
def test_lpcert_refusals(call, exc, message):
    with pytest.raises(exc) as raised:
        call()
    assert str(raised.value) == message


# Public sizes and family parameters take an int other than a bool, by the
# rule the network configs apply; each entry refuses the rest with
# ValueError, never TypeError.
INTEGER_ENTRIES = {
    "clos_snb": lambda v: bounds.clos_snb(v),
    "clos_wsnb_r2": lambda v: bounds.clos_wsnb_r2(v),
    "clos_multirate": lambda v: bounds.clos_multirate(v),
    "hwang_unicast": lambda v: bounds.hwang_unicast(2, v),
    "snb_fcast_t_eq_n": lambda v: bounds.snb_fcast_t_eq_n(2, 3, v),
    "cf_snb_fcast_t_eq_n": lambda v: bounds.cf_snb_fcast_t_eq_n(v, 3, 2),
    "C_bound": lambda v: bounds.C_bound(2, 3, v, 2),
    "G_bound": lambda v: bounds.G_bound(2, v, 1, 2),
    "multilog_planes-d": lambda v: bounds.multilog_planes(v, 3, 1, 2, LINK),
    "multilog_planes-t": lambda v: bounds.multilog_planes(2, 3, v, 2, LINK),
    # an instance's d, n and t are refused by the request it is built on
    "LpInstance-d": lambda v: LpInstance(AddressSets(v, 3, 0, [0], 1), 2),
    "LpInstance-n": lambda v: LpInstance(AddressSets(2, v, 0, [0], 1), 2),
    "LpInstance-t": lambda v: LpInstance(AddressSets(2, 3, 0, [0], v), 2),
    "LpInstance-f": lambda v: LpInstance(AddressSets(2, 3, 0, [0], 1), v),
    "canonical_sets-k": lambda v: dary.canonical_sets(2, 3, 1, v),
    "canonical_instance-k": lambda v: canonical_instance(2, 3, 1, 2, v),
    "dual_family-p": lambda v: dual_family(
        canonical_instance(2, 3, 1, 2, 1), v, 2),
    "dual_family-q": lambda v: dual_family(
        canonical_instance(2, 3, 1, 2, 1), 0, v),
    "objective_bounded_delta": lambda v: dual_family(
        canonical_instance(2, 3, 1, 2, 1), 0, 2).objective_bounded_delta(v),
}


@pytest.mark.parametrize("value", [1.5, True, "2", None],
                         ids=["float", "bool", "str", "None"])
@pytest.mark.parametrize("entry", list(INTEGER_ENTRIES))
def test_integer_parameters_refused(entry, value):
    with pytest.raises(ValueError, match="need integer"):
        INTEGER_ENTRIES[entry](value)


def test_integer_subclasses_taken():
    def ten(v):
        return DaryString(10, (v,))
    assert bounds.clos_snb(ten(3)) == 5
    assert bounds.multilog_planes(ten(2), 3, ten(1), 2, LINK) \
        == bounds.multilog_planes(2, 3, 1, 2, LINK)
    inst = LpInstance(AddressSets(ten(2), ten(3), 0, [0], ten(1)), ten(2))
    assert dary.canonical_sets(ten(2), ten(3), ten(1), ten(1)).B \
        == dary.canonical_sets(2, 3, 1, 1).B
    sol = dual_family(inst, ten(0), ten(3))
    assert sol.objective_bounded_delta(ten(3)) \
        == dual_family(inst, 0, 3).objective_bounded_delta(3)


# Each size and family parameter's rule, stated apart from the package:
# the first value, in this order, that is no int other than a bool in its
# range names the refusal; values not given are skipped.
ABSENT = object()


def rule_message(d, n, t=ABSENT, f=ABSENT, k=ABSENT, p=ABSENT, q=ABSENT):
    def ranges():   # each range is read once the values before it passed
        yield "d", d, 2, None
        yield "n", n, 1, None
        yield "t", t, 0, n
        yield "f", f, 1, d ** n
        yield "k", k, 1, d ** t if f is ABSENT else min(f, d ** t)
        yield "p", p, 0, n - t - 1
        yield "q", q, n - t, n
    for name, v, least, most in ranges():
        if v is not ABSENT and (
                type(v) is bool or not isinstance(v, int) or v < least
                or most is not None and v > most):
            return "%s=%r: need integer %s" % (
                name, v, "%s >= %d" % (name, least) if most is None
                else "%d <= %s <= %d" % (least, name, most))
    return None


def refusal(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def sizes(lo, hi):
    """Ints in and out of [lo, hi]'s neighbourhood, addresses among them,
    and a few values that are no int."""
    return st.one_of(st.integers(lo, hi), st.integers(0, 9).map(
        lambda v: DaryString(10, (v,))), st.sampled_from(
        [True, False, 2.0, "2", None, [1]]))


@settings(max_examples=300, deadline=None)
@given(d=sizes(-1, 4), n=sizes(-1, 4), t=sizes(-1, 5), f=sizes(-1, 40),
       k=sizes(-1, 9), p=sizes(-1, 4), q=sizes(-1, 6),
       mode=st.sampled_from([LINK, CROSSTALK]))
def test_one_rule_per_parameter(d, n, t, f, k, p, q, mode):
    # every entry that takes a size or family parameter refuses what the
    # rules refuse, with the message of the first rule broken, and accepts
    # the rest; the tables also refuse t = n by a rule of their own
    table = "the tables take t < n, not t=%r = n" % (t,)
    entries = [
        (dict(t=t, f=f),
         lambda: multilog.MultilogConfig(d=d, n=n, m=1, t=t, f=f)),
        (dict(t=t), lambda: AddressSets(d, n, 0, [0], t)),
        (dict(t=t, k=k), lambda: dary.canonical_sets(d, n, t, k)),
        (dict(t=t, f=f, k=k), lambda: canonical_instance(d, n, t, f, k)),
        (dict(t=n, f=f), lambda: bounds.snb_fcast_t_eq_n(d, n, f)),
        (dict(t=n, f=f), lambda: bounds.cf_snb_fcast_t_eq_n(d, n, f)),
        (dict(t=t, f=f), lambda: bounds.multilog_planes(d, n, t, f, mode)),
        (dict(t=t, f=f), lambda: bounds.C_bound(d, n, t, f)),
        (dict(t=t, f=f), lambda: bounds.G_bound(d, n, t, f)),
        (dict(t=t, f=f, k=k, p=p, q=q),
         lambda: bounds.c_cost(d, n, t, f, k, p, q)),
        (dict(t=t, f=f, k=k, p=p, q=q),
         lambda: bounds.g_cost(d, n, t, f, k, p, q)),
    ]
    got = [refusal(call) for _, call in entries]
    want = [rule_message(d, n, **given) for given, _ in entries]
    for i in (7, 8):   # the tables, after every size rule
        if want[i] is None and t == n:
            want[i] = table
    assert got == want
    if rule_message(d, n, t, f, k) is not None:
        return
    # on a checked instance: the dual family's p and q, and the bounded
    # objective's q, on a dual whose delta is q's tail where q is in range
    inst = canonical_instance(d, n, t, f, k, mode)
    want_q = rule_message(d, n, t, q=q)
    th = inst.theta   # delta's class labels are j + theta
    delta = {} if want_q else {j: 1 for j in range(q + th, n + th)}
    assert refusal(lambda: dual_family(inst, p, q)) == \
        rule_message(d, n, t, p=p, q=q)
    assert refusal(lambda: DualSolution(inst, delta=delta)
                   .objective_bounded_delta(q)) == want_q
