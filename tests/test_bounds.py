"""Closed-form bound calculators: examples, identities, and dominance."""

from fractions import Fraction
import math

import pytest

from switchlp import bounds
from switchlp.banyan import route
from switchlp.dary import canonical_sets
from switchlp.lpcert import LpInstance
from switchlp.multilog import MultilogConfig
from switchlp.bounds import (
    LINK, CROSSTALK, _ilog as ilog,
    clos_snb, clos_wsnb_r2, clos_multirate,
    hwang_unicast, snb_fcast_t_eq_n, cf_snb_fcast_t_eq_n,
    c_cost, g_cost, C_bound, G_bound,
)
from lp_oracle import (cf_wsnb_window, danilewicz, h, hbar,
                       row_tight_enumerated, sufficient_m_enumerated, wang07)


class TestHelpers:
    def test_ilog(self):
        assert ilog(2, 1) == 0
        assert ilog(2, 7) == 2
        assert ilog(2, 8) == 3
        assert ilog(3, 81) == 4


class TestClosForms:
    def test_snb(self):
        assert clos_snb(4) == 7
        assert clos_snb(1) == 1

    def test_wsnb_r2(self):
        assert clos_wsnb_r2(4) == 6
        assert clos_wsnb_r2(5) == 7
        assert clos_wsnb_r2(1) == 1

    def test_multirate(self):
        assert clos_multirate(8, "four_type") == 16 + 3 + 3 + 24
        assert clos_multirate(10, "five_type_paper") == 61
        with pytest.raises(ValueError):
            clos_multirate(0)
        with pytest.raises(ValueError):
            clos_multirate(4, scheme="bogus")

    def test_multirate_four_type_matches_hand_formula(self):
        # the count as written out by hand before it was read off the
        # scheme's constants
        for n in range(1, 20001):
            assert clos_multirate(n, "four_type") == \
                2 * n + -(-3 * n // 8) + -(-3 * n // 10) + 3 * n


class TestSpecializations:
    def test_hwang(self):
        assert hwang_unicast(2, 4) == 5
        assert hwang_unicast(2, 2) == 2
        assert hwang_unicast(2, 4) == snb_fcast_t_eq_n(2, 4, 1)

    def test_wang07(self):
        assert wang07(2, 4, 2) == 6
        assert wang07(2, 4, 16) == 8  # c = 0: exact rational half-powers
        with pytest.raises(ValueError):
            wang07(2, 4, 17)

    def test_t_eq_n_fcast(self):
        assert snb_fcast_t_eq_n(2, 4, 1) == 5
        assert snb_fcast_t_eq_n(2, 4, 8) == 2 ** 3  # f above d^(n-2)
        assert cf_snb_fcast_t_eq_n(2, 4, 1) == 7
        assert cf_snb_fcast_t_eq_n(2, 4, 16) == 2 ** 4 - 2 ** 2

    def test_window_wsnb(self):
        assert danilewicz(2, 4, 1) == 6
        assert cf_wsnb_window(2, 4, 1) == 12
        # the branch switch at t = floor(n/2) yields a fractional value
        assert danilewicz(2, 4, 2) == Fraction(9, 2)
        # t = 0 degenerates to the full-fanout unicast-window bound
        assert danilewicz(2, 4, 0) == wang07(2, 4, 16)
        with pytest.raises(ValueError):
            danilewicz(2, 4, 4)

    def test_wang07_is_unicast_table(self):
        for d in (2, 3):
            for n in (3, 4, 5):
                for f in range(1, d ** n + 1):
                    assert wang07(d, n, f) == 1 + C_bound(d, n, 0, f).value

    def test_window_corollaries_match_tables(self):
        # the t > n/2 crosstalk row is the known printed-value discrepancy;
        # everywhere else the corollary equals 1 + the table value
        for d in (2, 3):
            for n in (3, 4, 5):
                for t in range(0, n):
                    assert danilewicz(d, n, t) == \
                        1 + C_bound(d, n, t, d ** n).value
                    if 2 * t <= n:
                        assert cf_wsnb_window(d, n, t) == \
                            1 + G_bound(d, n, t, d ** n).value

    def test_cf_window_discrepancy_is_one_sided(self):
        # where the printed corollary row disagrees with the table, the
        # table is the one matching the enumerated max-min
        for (d, n, t) in [(2, 3, 2), (2, 5, 3), (3, 3, 2)]:
            table = 1 + G_bound(d, n, t, d ** n).value
            corollary = cf_wsnb_window(d, n, t)
            enum = sufficient_m_enumerated(d, n, t, d ** n, CROSSTALK,
                                           range(n - t))
            assert corollary < table
            assert table == enum


def test_closed_forms_are_exact():
    # every closed-form count is an int or a Fraction, never a float: a
    # float t = n count once printed as 1.5 and made the sweep refuse it
    values = []
    for d in range(2, 6):
        for n in range(1, 9):
            values += [hwang_unicast(d, n), clos_snb(n), clos_wsnb_r2(n),
                       clos_multirate(n), clos_multirate(n, "five_type_paper")]
            for t in range(n + 1):
                for f in sorted({1, 2, d, d ** t, d ** n - 1, d ** n}):
                    values += [bounds.multilog_planes(d, n, t, f, mode)[0]
                               for mode in (LINK, CROSSTALK)]
                    if t == n:
                        values += [snb_fcast_t_eq_n(d, n, f),
                                   cf_snb_fcast_t_eq_n(d, n, f)]
                    else:
                        for table in (C_bound, G_bound):
                            res = table(d, n, t, f)
                            values += [res.value, res.m_sufficient]
    assert {type(v) for v in values} == {int, Fraction}


class TestMonotoneLemmas:
    @pytest.mark.parametrize("d", [2, 3])
    def test_h_and_hbar_nondecreasing(self, d):
        for n in range(2, 9):
            cap = min(d ** n, 700)
            hs = [h(d, n, k) for k in range(1, cap + 1)]
            hbars = [hbar(d, n, k) for k in range(1, cap + 1)]
            assert all(a <= b for a, b in zip(hs, hs[1:]))
            assert all(a <= b for a, b in zip(hbars, hbars[1:]))

    def test_h_example(self):
        assert h(2, 4, 1) == 5


class TestCostFunctions:
    def test_hand_evaluated_branch(self):
        assert c_cost(2, 4, 1, 1, 1, 0, 3) == 5

    def test_full_window_tail_vanishes(self):
        # at q = n - t the cost ends in (d^t - k), so raising k to the full
        # window just subtracts one per output
        assert c_cost(2, 4, 2, 4, 4, 0, 2) == 1
        assert c_cost(2, 4, 2, 4, 3, 0, 2) == 2

    @pytest.mark.parametrize("call, message", [
        (lambda: cf_snb_fcast_t_eq_n(2, 0, 1), "n=0: need integer n >= 1"),
        (lambda: bounds.multilog_planes(1, 3, 3, 1, CROSSTALK),
         "d=1: need integer d >= 2"),
        (lambda: c_cost(1, 3, 0, 1, 1, 0, 3), "d=1: need integer d >= 2"),
        (lambda: g_cost(1, 3, 0, 1, 1, 0, 3), "d=1: need integer d >= 2"),
        (lambda: C_bound(2, 3, 3, 1), "the tables take t < n, not t=3 = n"),
        (lambda: G_bound(2, 3, 3, 9), "f=9: need integer 1 <= f <= 8"),
        (lambda: bounds.multilog_planes(2, 3, 1, 1, "links"),
         "unknown mode 'links'"),
        (lambda: bounds.multilog_planes(2, 3, 3, 1, "LINK"),
         "unknown mode 'LINK'"),
    ], ids=["cf-n-0", "crosstalk-planes-d-1", "c_cost-d-1", "g_cost-d-1",
            "table-t-n", "table-f-before-t-n", "planes-mode-links",
            "planes-mode-LINK"])
    def test_each_rule_refuses(self, call, message):
        # the first three were answered (1, (1, 't=n') and 0) before the
        # size rules were one: the crosstalk t = n count checked neither d
        # nor n, and the costs never checked d.  The last two were answered
        # (5, 'G6') and (5, 't=n'), crosstalk's rows, before the mode rule
        # was one: `multilog_planes` took any mode but LINK as crosstalk
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message

    def test_range_checks(self):
        with pytest.raises(ValueError):
            c_cost(2, 4, 4, 1, 1, 0, 0)
        with pytest.raises(ValueError):
            c_cost(2, 4, 1, 1, 1, 3, 3)
        with pytest.raises(ValueError):
            g_cost(2, 4, 1, 1, 1, 0, 2)
        # a crosstalk p takes the link range at n + 1, p = n - t included;
        # a link p stops below it
        assert g_cost(2, 4, 1, 1, 1, 3, 3) == bounds._cost(2, 5, 1, 1, 1, 3, 4)
        for cost, p, most in ((g_cost, 4, 3), (c_cost, 3, 2)):
            with pytest.raises(ValueError) as raised:
                cost(2, 4, 1, 1, 1, p, 3)
            assert str(raised.value) == \
                "p=%d: need integer 0 <= p <= %d" % (p, most)

    def test_exact_rationals(self):
        assert C_bound(2, 3, 1, 4).value == Fraction(7, 4)
        assert danilewicz(2, 4, 2) * 2 == 9


class TestBoundTables:
    def test_danilewicz_case(self):
        res = C_bound(2, 4, 1, 16)
        assert res.value == 5
        assert res.m_sufficient == 6
        assert res.branch == "C2"

    def test_cf_case(self):
        res = G_bound(2, 4, 1, 16)
        assert res.value == 11
        assert res.m_sufficient == 12

    def test_branch_names_a_row(self):
        # at (2, 4, 1, 4) the row is C2, whose value is
        # t(d-1)d^(n-t-1) + d^(n-2t-1) - 1
        res = C_bound(2, 4, 1, 4)
        assert (res.branch, res.value, res.m_sufficient) == ("C2", 5, 6)
        for d in (2, 3):
            for n in (3, 4, 5):
                for t in range(n):
                    for f in sorted({1, 2, d, d ** t, d ** n}):
                        for table, rows in ((C_bound, 5), (G_bound, 9)):
                            res = table(d, n, t, f)
                            assert res.branch in {"%s%d" % (
                                table.__name__[0], i + 1) for i in range(rows)}
                            assert isinstance(res.value, Fraction)
                            assert res.m_sufficient == \
                                1 + math.ceil(res.value)

    def test_rows_partition_the_plane(self, monkeypatch):
        # the printed row conditions, restated: for every n <= 64, t < n and
        # r = floor(log_d f) <= n exactly one row holds, and it is the row
        # the table names.  G6/G7 split one strip on f, so both sides of
        # that split are visited.  Only the branch is read here, so the
        # row-tight clamp is stubbed out to keep the sweep fast.
        monkeypatch.setattr(bounds, "_row_tight", lambda *args: 0)
        c_rows = {
            "C1": lambda n, t, r, f: t < n // 2 and r <= n - 2 * t - 1,
            "C2": lambda n, t, r, f: t < n // 2 and r >= n - 2 * t,
            "C3": lambda n, t, r, f: t >= n // 2 and r >= n - t,
            "C4": lambda n, t, r, f: (t >= n // 2
                                      and 2 * t - n - 2 < r <= n - t - 1),
            "C5": lambda n, t, r, f: (t >= n // 2
                                      and r <= min(2 * t - n - 2, n - t - 1)),
        }
        g_rows = {
            "G1": lambda n, t, r, f: (2 * t > n
                                      and r >= max(2 * t - n - 2, n - t + 1)),
            "G2": lambda n, t, r, f: (2 * t > n
                                      and r <= min(2 * t - n - 3, n - t)),
            "G3": lambda n, t, r, f: (2 * t > n
                                      and n - t + 1 <= r <= 2 * t - n - 3),
            "G4": lambda n, t, r, f: (2 * t > n
                                      and 2 * t - n - 2 <= r <= n - t),
            "G5": lambda n, t, r, f: 2 * t == n,
            "G6": lambda n, t, r, f: (2 * t < n and r <= n - 2 * t
                                      and f <= 2 ** (n - 2 * t)),
            "G7": lambda n, t, r, f: (2 * t < n and r <= n - 2 * t
                                      and f > 2 ** (n - 2 * t)),
            "G8": lambda n, t, r, f: 2 * t < n and n - 2 * t + 1 <= r <= n - t,
            "G9": lambda n, t, r, f: 2 * t < n and r > n - t,
        }
        seen = set()
        for n in range(1, 65):
            for t in range(n):
                for r in range(n + 1):
                    # d = 2, so the G6/G7 split d^(n-2t)(d-1) is 2^r when
                    # r = n - 2t: f = 2^r and 2^r + 1 straddle it (the
                    # latter is in range and has floor log r for t, r > 0)
                    split = t > 0 and r == n - 2 * t > 0
                    fs = [2 ** r] + [2 ** r + 1] * split
                    for f in fs:
                        for table, rows in ((C_bound, c_rows),
                                            (G_bound, g_rows)):
                            held = [label for label, cond in rows.items()
                                    if cond(n, t, r, f)]
                            got = table(2, n, t, f).branch
                            assert held == [got], (n, t, r, f, held, got)
                            seen.add(got)
        assert seen == set(c_rows) | set(g_rows)

    @pytest.mark.parametrize("mode,table",
                             [(LINK, C_bound), (CROSSTALK, G_bound)])
    def test_dominates_enumeration(self, mode, table):
        # plane-count dominance holds everywhere; value-level dominance can
        # fail by < 1 only on the fractional C3 row (negative-exponent term)
        for d in (2, 3):
            for n in (3, 4):
                for t in range(0, n):
                    for f in sorted({1, 2, 4, d ** n}):
                        enum = sufficient_m_enumerated(d, n, t, f, mode,
                                                       range(n - t))
                        res = table(d, n, t, f)
                        assert enum <= res.m_sufficient, (d, n, t, f, mode)
                        if enum - 1 > res.value:
                            assert res.branch == "C3"
                            assert enum - 1 - res.value < 1

    @pytest.mark.parametrize("point, branch, m", [
        ((2, 3, 1, 3), "G7", 6), ((2, 4, 1, 5), "G7", 12),
        ((2, 7, 6, 4), "G3", 45), ((2, 8, 7, 5), "G3", 68)])
    def test_g3_and_g7_rows_are_tight(self, point, branch, m):
        # the grid above never reaches these two rows: G7 needs
        # f > d^(n-2t)(d-1) with ilog(f) <= n - 2t, and G3 needs
        # n - t + 1 <= ilog(f) <= 2t - n - 3
        res = G_bound(*point)
        assert (res.branch, res.m_sufficient) == (branch, m)
        d, n, t, _ = point
        assert sufficient_m_enumerated(*point, CROSSTALK, range(n - t)) == m
        assert res.value == m - 1

    def test_t0_f1_equals_hwang(self):
        for d in (2, 3):
            for n in (3, 4, 5):
                assert sufficient_m_enumerated(
                    d, n, 0, 1, LINK, range(n)) == hwang_unicast(d, n)


class TestRowTight:
    def test_matches_scan(self):
        # the concavity search against a scan over every k; p past the
        # family's range checks the clamp
        interior = 0
        for d in (2, 3):
            for n in range(2, 7):
                for t in range(n):
                    for f in sorted({min(v, d ** n) for v in (
                            1, 2, 3, 5, d ** t - 1 or 1, d ** t, d ** n)}):
                        for p in range(n - t + 1):
                            want = row_tight_enumerated(d, n, t, f, p)
                            assert bounds._row_tight(d, n, t, f, p) == want, \
                                (d, n, t, f, p)
                            top = min(f, d ** t)
                            q_min = min(g_cost(d, n, t, f, top,
                                               min(p, n - t - 1), q)
                                        for q in range(n - t, n + 1))
                            interior += want > q_min
        # the max often lies below the top of the k range, so reading the
        # row at k = min(f, d^t) alone would fail here
        assert interior > 100

    def test_past_former_cap(self):
        # 2^16 + 1 values of k.  The G4 row's printed value 4587521/2 is
        # below the family's min over (p, q) at k = 1 alone, so only the
        # row-tight clamp keeps the table an upper bound on the max-min
        d, n, t, f = 2, 35, 18, 65537
        res = G_bound(d, n, t, f)
        at_k1 = min(g_cost(d, n, t, f, 1, p, q)
                    for p in range(n - t) for q in range(n - t, n + 1))
        assert (res.branch, res.value, res.m_sufficient) == \
            ("G4", at_k1, 2293763)
        assert at_k1 > Fraction(4587521, 2)


# A mode has one rule, `bounds.theta_of`, and one message at every entry
# that takes one; before, `multilog_planes` read any mode but LINK as
# crosstalk and `LpInstance` raised TypeError for an unhashable one.
@pytest.mark.parametrize("mode", ["links", "LINK", None, 0, []],
                         ids=["links", "LINK", "None", "0", "list"])
def test_one_mode_rule_at_each_entry(mode):
    entries = {
        "MultilogConfig": lambda: MultilogConfig(d=2, n=3, m=1, mode=mode),
        "LpInstance": lambda: LpInstance(canonical_sets(2, 3, 1, 1), 2, mode),
        "route": lambda: route(2, 3, 0, 0, mode),
        "multilog_planes": lambda: bounds.multilog_planes(2, 3, 1, 1, mode),
    }
    for call in entries.values():
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == "unknown mode %r" % (mode,)
    assert (bounds.theta_of(LINK), bounds.theta_of(CROSSTALK)) == (0, 1)
