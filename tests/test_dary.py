"""Digit-string arithmetic and address-set cardinalities."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from switchlp.dary import (
    DaryString, lcp, lcs, all_strings, window_index, window_outputs,
    AddressSets, a_count_formula, window_count_formula,
    canonical_sets, frac_pow,
)

from switchlp import adversary

from address_oracle import EnumeratedAddressSets


def s(text, base=2):
    return DaryString.parse(text, base)


def dary_pair(base, length):
    digits = st.lists(st.integers(0, base - 1), min_size=length,
                      max_size=length)
    return st.tuples(digits, digits).map(
        lambda uv: (DaryString(base, uv[0]), DaryString(base, uv[1])))


class TestDaryString:
    def test_parse_value_roundtrip(self):
        u = s("01001")
        assert str(u) == "01001"
        assert u.value() == 9
        assert DaryString.from_value(9, 2, 5) == u

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            DaryString(2, (0, 2))
        # non-integer digits, even integral floats, are not digits
        for digits in [(0.5, 1), (1.0, 0)]:
            with pytest.raises(ValueError):
                DaryString(2, digits)
        with pytest.raises(ValueError):
            DaryString.from_value(1.5, 2, 2)

    def test_immutable(self):
        u = s("010")
        with pytest.raises(AttributeError):
            u.digits = (1,)

    def test_prefix_suffix(self):
        u = s("01001")
        assert str(u.prefix(3)) == "010"
        assert str(u.suffix(2)) == "01"
        assert len(u.suffix(0)) == 0

    def test_ordering_matches_value(self):
        xs = sorted(all_strings(3, 3))
        assert [u.value() for u in xs] == list(range(27))

    def test_from_value_range(self):
        with pytest.raises(ValueError):
            DaryString.from_value(8, 2, 3)


class TestLcpLcs:
    def test_worked_pair(self):
        u, v = s("0100110"), s("0101010")
        assert lcp(u, v) == 3
        assert lcs(u, v) == 2

    def test_identity(self):
        u = s("0100110")
        assert lcp(u, u) == len(u) == lcs(u, u)

    def test_zero_overlap(self):
        assert lcp(s("100"), s("000")) == 0
        assert lcs(s("001"), s("000")) == 0

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            lcp(s("01"), s("010"))
        with pytest.raises(ValueError):
            lcs(s("01"), s("01", 3))

    @given(dary_pair(2, 6))
    def test_lcp_naive_scan(self, uv):
        u, v = uv
        want = 0
        for a, b in zip(u.digits, v.digits):
            if a != b:
                break
            want += 1
        assert lcp(u, v) == want

    @given(dary_pair(3, 5))
    def test_lcs_is_lcp_of_reversal(self, uv):
        u, v = uv
        ru = DaryString(3, reversed(u.digits))
        rv = DaryString(3, reversed(v.digits))
        assert lcs(u, v) == lcp(ru, rv)


class TestWindows:
    def test_window_of_10101(self):
        assert window_index(s("10101"), 2) == 5

    def test_windows_partition_outputs(self):
        seen = {}
        for v in all_strings(2, 5):
            seen.setdefault(window_index(v, 2), []).append(v)
        assert sorted(seen) == list(range(8))
        assert all(len(vs) == 4 for vs in seen.values())
        for w, vs in seen.items():
            assert sorted(window_outputs(2, 5, 2, w)) == sorted(vs)

    def test_whole_network_window(self):
        assert all(window_index(v, 3) == 0 for v in all_strings(2, 3))

    def test_range_check(self):
        with pytest.raises(ValueError):
            window_index(s("010"), 4)
        with pytest.raises(ValueError):
            list(window_outputs(2, 3, 1, 4))

    @pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3)
                                     for n in range(1, 5)])
    def test_int_arithmetic_exhaustive(self, d, n):
        # window_index folds digits, j_of_window compares them, and the
        # adversary caches both; each against its DaryString definition
        addrs = list(all_strings(d, n))
        for t in range(n + 1):
            windows = [window_index(y, t) for y in addrs]
            assert windows == [y.prefix(n - t).value() for y in addrs]
            assert list(adversary._addresses(d, n, t)) == \
                list(zip(addrs, windows))
            for home in range(d ** (n - t)):
                B = [next(window_outputs(d, n, t, home))]
                fast = AddressSets(addrs[0], B, t)
                ref = EnumeratedAddressSets(addrs[0], B, t)
                assert [fast.j_of_window(w) for w in range(d ** (n - t))] \
                    == [ref.j_of_window(w) for w in range(d ** (n - t))]


class TestAddressSets:
    def test_input_classes_d2_n3(self):
        sets = AddressSets(s("000"), {s("000")}, 0)
        assert [sets.a_count(i) for i in range(3)] == [4, 2, 1]
        assert sets.i_of(s("000")) is None
        # i() counts the common suffix of the 2-digit prefixes
        assert sets.i_of(s("100")) == 1
        assert sets.i_of(s("010")) == 0

    def test_full_window_has_no_spare_outputs(self):
        sets = AddressSets(s("000"), set(all_strings(2, 3)), 3)
        assert sets.union_b_tail(2) == 0
        assert all(sets.output_count(j) == 0 for j in range(3))

    def test_spare_count_d2_n4_t2(self):
        sets = AddressSets(s("0000"), {s("0000"), s("0001")}, 2)
        assert sets.union_b_tail(2) == 2 ** 2 - 2

    def test_b_spanning_windows_rejected(self):
        with pytest.raises(ValueError):
            AddressSets(s("000"), {s("000"), s("100")}, 1)

    def test_b_larger_than_window_rejected(self):
        with pytest.raises(ValueError, match="cannot hold"):
            AddressSets(s("000"), set(all_strings(2, 3)), 1)

    def test_index_lookups_reject_foreign_shapes(self):
        sets = AddressSets(s("000"), {s("000")}, 1)
        with pytest.raises(ValueError):
            sets.i_of(s("0000"))
        with pytest.raises(ValueError):
            sets.j_of_output(s("100"))   # window 2, not the home window
        for w in (4, -1, 1.5, 1.0):
            with pytest.raises(ValueError):
                sets.j_of_window(w)

    def test_union_b_tail_full_at_low_q(self):
        for k in (1, 2, 3):
            sets = canonical_sets(2, 4, 2, k)
            assert sets.union_b_tail(4 - 2) == 2 ** 2 - k

    def test_union_b_tail_bound(self):
        for d in (2, 3):
            for n in (3, 4):
                for t in range(0, n + 1):
                    for k in range(1, d ** t + 1):
                        sets = canonical_sets(d, n, t, k)
                        for q in range(n - t, n):
                            got = sets.union_b_tail(q)
                            assert got <= min(d ** t - k,
                                              k * (d ** (n - q) - 1))

    def test_cardinality_identities_grid(self):
        # the fast path counts by the closed forms, so check both against
        # the enumerated families
        for d in (2, 3):
            for n in range(2, 7):
                sets = canonical_sets(d, n, min(2, n), 1)
                oracle = EnumeratedAddressSets(sets.a, sets.B, sets.t)
                for i in range(n):
                    assert sets.a_count(i) == oracle.a_count(i) == \
                        a_count_formula(d, n, i)
                t = sets.t
                for j in range(n - t):
                    assert sets.window_count(j) == oracle.window_count(j) \
                        == window_count_formula(d, n, t, j)
                    # the foreign part of B_j is whole windows of d^t outputs
                    assert sets.b_count(j) == \
                        d ** (n - j) - d ** (n - 1 - j)

    def test_b_count_splits_at_home_window(self):
        sets = canonical_sets(2, 4, 2, 1)
        total = sum(sets.b_count(j) for j in range(4))
        # every output except B itself lands in exactly one B_j
        assert total == 2 ** 4 - 1

    def test_classes_partition_inputs(self):
        sets = canonical_sets(3, 3, 1, 2)
        oracle = EnumeratedAddressSets(sets.a, sets.B, sets.t)
        assert sum(len(oracle.A[i]) for i in range(3)) == 3 ** 3 - 1
        assert [sets.a_count(i) for i in range(3)] == \
            [len(oracle.A[i]) for i in range(3)]

    def test_canonical_sets_cached(self):
        assert canonical_sets(2, 3, 1, 1) is canonical_sets(2, 3, 1, 1)


def test_frac_pow_negative_exponent():
    assert frac_pow(2, -3) == Fraction(1, 8)
    assert frac_pow(3, 2) == 9
