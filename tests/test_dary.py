"""Digit-string arithmetic and address-set cardinalities."""

import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import switchlp
from switchlp import dary
from switchlp.dary import (
    DaryString, lcp, lcs, all_strings, AddressSets, a_count_formula,
    canonical_sets, check_address, frac_pow, parse_address,
)

import address_oracle as oracle
from address_oracle import (EnumeratedAddressSets, address_text,
                            window_count_formula, window_outputs)


def s(text, base=2):
    return parse_address(text, base, len(text))


def value_pair(base, length):
    value = st.integers(0, base ** length - 1)
    return st.tuples(value, value)


class TestDaryString:
    def test_parse_value_roundtrip(self):
        u = s("01001")
        assert u == 9 and type(u) is int
        assert address_text(2, 5, u) == "01001"
        assert DaryString.from_value(9, 2, 5) == u
        assert DaryString(2, (0, 1, 0, 0, 1)) == u
        assert hash(DaryString(2, (0, 1, 0, 0, 1))) == hash(9)
        assert address_text(3, 4, s("0120", 3)) == "0120"

    @given(st.sampled_from([2, 10, 11, 16, 37]).flatmap(
        lambda d: st.lists(st.integers(0, d - 1), max_size=5).map(
            lambda digs: (d, digs))))
    def test_str_parse_roundtrip(self, case):
        # the text form of an address reads back as the same address
        d, digs = case
        v = oracle.value(d, digs)
        assert parse_address(address_text(d, len(digs), v), d, len(digs)) \
            == v

    def test_parse_dotted_and_character_forms(self):
        assert address_text(11, 2, 111) == "10.1"
        assert parse_address("a1", 11, 2) == parse_address("10.1", 11, 2) \
            == 111
        # above base 36 only the dotted form exists; a lone digit has no dot
        assert parse_address("36.0", 37, 2) == 36 * 37
        assert parse_address("36", 37, 1) == 36
        with pytest.raises(ValueError,
                           match=r"address '10\.1' has 2 digits, want 3"):
            parse_address("10.1", 11, 3)

    @pytest.mark.parametrize("text, base", [
        ("1..0", 11), ("1.", 11), (".", 11), ("1.+1", 11), ("11.1", 11),
        ("2", 2), ("0x0", 2), ("z", 37),
        # digits are ASCII: int() alone would read these as 100, 10 and 1.0
        ("\u0661\u0660\u0660", 2), ("\uff11\uff10", 2), ("\uff11.0", 11),
        ("\u0661", 11), ("\u00b9", 10)])
    def test_parse_refuses(self, text, base):
        with pytest.raises(ValueError, match=re.escape(
                "cannot read address %r in base %d" % (text, base))):
            parse_address(text, base, len(text.split(".")))

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
        # an address is its int value, which no attribute rebinds
        u = DaryString(2, (0, 1, 0))
        with pytest.raises(AttributeError):
            u.numerator = 1
        assert u == 2

    def test_ordering_matches_value(self):
        # equal-length digit strings sort as their values do
        assert sorted(all_strings(3, 3),
                      key=lambda v: address_text(3, 3, v)) == list(range(27))

    def test_check_address(self):
        # a checked address comes back as a plain int; a non-integer is
        # refused even when integral, and messages show the value
        got = check_address(2, 3, DaryString(2, (1, 0, 1)))
        assert got == 5 and type(got) is int
        for bad in (1.5, 2.0, Fraction(2), "1", None):
            with pytest.raises(ValueError, match="is not an integer"):
                check_address(2, 3, bad)
        with pytest.raises(ValueError, match="address 8 out of range"):
            check_address(2, 3, DaryString(2, (1, 0, 0, 0)))

    def test_from_value_range(self):
        with pytest.raises(ValueError):
            DaryString.from_value(8, 2, 3)


def test_only_dary_names_dary_string():
    # the library computes on plain ints; `DaryString` stays in `dary` for
    # the benchmark harness and must not spread from there
    src = os.path.dirname(switchlp.__file__)
    naming = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "dary.py":
            with open(os.path.join(src, name)) as fh:
                if "DaryString" in fh.read():
                    naming.append(name)
    assert naming == []


class TestLcpLcs:
    def test_worked_pair(self):
        u, v = s("0100110"), s("0101010")
        assert lcp(2, 7, u, v) == 3
        assert lcs(2, 7, u, v) == 2

    def test_identity(self):
        u = s("0100110")
        assert lcp(2, 7, u, u) == 7 == lcs(2, 7, u, u)

    def test_zero_overlap(self):
        assert lcp(2, 3, s("100"), s("000")) == 0
        assert lcs(2, 3, s("001"), s("000")) == 0

    @given(value_pair(2, 6))
    def test_lcp_naive_scan(self, uv):
        u, v = uv
        assert lcp(2, 6, u, v) == \
            oracle.lcp(oracle.digits(2, 6, u), oracle.digits(2, 6, v))

    @given(value_pair(3, 5))
    def test_lcs_is_lcp_of_reversal(self, uv):
        u, v = uv
        ru = oracle.value(3, oracle.digits(3, 5, u)[::-1])
        rv = oracle.value(3, oracle.digits(3, 5, v)[::-1])
        assert lcs(3, 5, u, v) == lcp(3, 5, ru, rv) == \
            oracle.lcs(oracle.digits(3, 5, u), oracle.digits(3, 5, v))


class TestWindows:
    def test_window_of_10101(self):
        assert s("10101") in window_outputs(2, 5, 2, 5)
        assert oracle.window_index(2, 5, 2, s("10101")) == 5

    def test_windows_partition_outputs(self):
        seen = {}
        for v in range(2 ** 5):
            seen.setdefault(oracle.window_index(2, 5, 2, v), []).append(v)
        assert sorted(seen) == list(range(8))
        assert all(len(vs) == 4 for vs in seen.values())
        for w, vs in seen.items():
            assert list(window_outputs(2, 5, 2, w)) == vs
            assert all(v // 2 ** 2 == w for v in vs)

    def test_whole_network_window(self):
        assert list(window_outputs(2, 3, 3, 0)) == list(range(8))

    def test_range_check(self):
        with pytest.raises(ValueError):
            window_outputs(2, 3, 4, 0)
        with pytest.raises(ValueError):
            window_outputs(2, 3, 1, 4)

    @pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3)
                                     for n in range(1, 5)])
    def test_int_arithmetic_exhaustive(self, d, n):
        # windows are y // d^t and j_of_window compares values; each
        # against its digit-tuple definition
        addrs = range(d ** n)
        for t in range(n + 1):
            assert [y // d ** t for y in addrs] == \
                [oracle.window_index(d, n, t, y) for y in addrs]
            for home in range(d ** (n - t)):
                B = [window_outputs(d, n, t, home)[0]]
                fast = AddressSets(d, n, 0, B, t)
                ref = EnumeratedAddressSets(d, n, 0, B, t)
                assert [fast.j_of_window(w) for w in range(d ** (n - t))] \
                    == [ref.j_of_window(w) for w in range(d ** (n - t))]


class TestAddressSets:
    def test_input_classes_d2_n3(self):
        sets = AddressSets(2, 3, s("000"), {s("000")}, 0)
        assert [a_count_formula(2, 3, i) for i in range(3)] == [4, 2, 1]
        assert sets.i_of(s("000")) is None
        # i() counts the common suffix of the 2-digit prefixes
        assert sets.i_of(s("100")) == 1
        assert sets.i_of(s("010")) == 0

    def test_full_window_has_no_spare_outputs(self):
        sets = AddressSets(2, 3, s("000"), set(all_strings(2, 3)), 3)
        assert sets.union_b_tail(2) == 0
        assert sets.output_counts == (0, 0, 0)

    def test_spare_count_d2_n4_t2(self):
        sets = AddressSets(2, 4, s("0000"), {s("0000"), s("0001")}, 2)
        assert sets.union_b_tail(2) == 2 ** 2 - 2

    def test_b_spanning_windows_rejected(self):
        with pytest.raises(ValueError,
                           match=r"outputs span windows \[0, 2\]"):
            AddressSets(2, 3, s("000"), {s("000"), s("100")}, 1)

    def test_b_larger_than_window_rejected(self):
        # distinct outputs past a window's size span windows
        with pytest.raises(ValueError,
                           match=r"outputs span windows \[0, 1, 2, 3\]"):
            AddressSets(2, 3, s("000"), set(all_strings(2, 3)), 1)

    def test_index_lookups_reject_foreign_shapes(self):
        sets = AddressSets(2, 3, s("000"), {s("000")}, 1)
        with pytest.raises(ValueError):
            sets.i_of(s("1000"))   # four digits: past the last address
        with pytest.raises(ValueError):
            sets.j_of_output(s("100"))   # window 2, not the home window
        for w in (4, -1, 1.5, 1.0):
            with pytest.raises(ValueError):
                sets.j_of_window(w)

    @pytest.mark.parametrize("w", [0.0, 1.0, True, False, "0", None])
    def test_window_type_checked_before_home_compare(self, w):
        # 0.0 == 0 == False is the home window, yet no window index
        sets = AddressSets(2, 3, 0, [0], 1)
        assert sets.j_of_window(0) is None
        with pytest.raises(ValueError, match="window index .* out of range"):
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
        # the fast path counts by the closed forms, so check them against
        # the enumerated families
        for d in (2, 3):
            for n in range(2, 7):
                sets = canonical_sets(d, n, min(2, n), 1)
                oracle = EnumeratedAddressSets(d, n, sets.a, sets.B, sets.t)
                for i in range(n):
                    assert oracle.a_count(i) == a_count_formula(d, n, i)
                t = sets.t
                for j in range(n - t):
                    count = window_count_formula(d, n, t, j)
                    assert oracle.window_count(j) == count
                    # the identity the instance's class counts rest on
                    assert count == a_count_formula(d, n, j + t)
                    # the foreign part of B_j is whole windows of d^t outputs
                    assert count * d ** t \
                        == oracle.b_count(j) == d ** (n - j) - d ** (n - 1 - j)

    def test_b_count_splits_at_home_window(self):
        sets = canonical_sets(2, 4, 2, 1)
        total = (sum(window_count_formula(2, 4, 2, j) * 2 ** 2
                     for j in range(2))
                 + sum(sets.output_counts))
        # every output except B itself lands in exactly one B_j
        assert total == 2 ** 4 - 1

    def test_classes_partition_inputs(self):
        sets = canonical_sets(3, 3, 1, 2)
        oracle = EnumeratedAddressSets(3, 3, sets.a, sets.B, sets.t)
        assert sum(len(oracle.A[i]) for i in range(3)) == 3 ** 3 - 1
        assert [a_count_formula(3, 3, i) for i in range(3)] == \
            [len(oracle.A[i]) for i in range(3)]

    def test_canonical_sets_cached(self):
        assert canonical_sets(2, 3, 1, 1) is canonical_sets(2, 3, 1, 1)

    def test_canonical_sets_keys_bool_apart(self):
        # an untyped cache keys True as 1 and returned the k = 1 sets
        canonical_sets(2, 3, 1, 1)
        with pytest.raises(ValueError) as raised:
            canonical_sets(2, 3, 1, True)
        assert str(raised.value) == "k=True: need integer 1 <= k <= 2"

    def test_t_checked_before_k(self):
        # d ** -1 prints as 0, which named the wrong argument
        with pytest.raises(ValueError) as raised:
            canonical_sets(2, 3, -1, 1)
        assert str(raised.value) == "t=-1: need integer 0 <= t <= 3"


def checked_one_by_one(d, n, a, B, t):
    """The ValueError message of a constructor that checks every address
    with `check_address` in turn, or None when all pass."""
    try:
        for v in (a, *frozenset(B)):
            check_address(d, n, v)
    except ValueError as exc:
        return str(exc)
    return None


def tails_by_sets(d, n, t, B):
    """union_b_tail(q) for q = n-t .. n, counting distinct prefixes."""
    return [len({b // d ** (n - q) for b in B}) * d ** (n - q) - len(B)
            for q in range(n - t, n)] + [0]


@st.composite
def window_requests(draw):
    """(d, n, t, B): B inside one window, a run of consecutive outputs or
    any subset, sometimes with up to two addresses that are out of range or
    no integers."""
    d = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    t = draw(st.integers(0, n))
    outs = window_outputs(d, n, t, draw(st.integers(0, d ** (n - t) - 1)))
    if draw(st.booleans()):
        lo = draw(st.integers(0, len(outs) - 1))
        B = list(outs[lo:draw(st.integers(lo + 1, len(outs)))])
    else:
        B = draw(st.lists(st.sampled_from(outs), min_size=1, unique=True))
    for _ in range(draw(st.integers(0, 2)) if len(B) > 1 else 0):
        bad = draw(st.sampled_from([-1, d ** n, d ** n + 7, 1.5, 2.0, "1",
                                    None, True]))
        B[draw(st.integers(0, len(B) - 1))] = bad
    return d, n, t, B


class TestAddressChecks:
    @settings(deadline=None, max_examples=300)
    @given(window_requests())
    def test_range_check_and_head_counts_match_set_code(self, req):
        # the constructor checks B by its min and max and counts a
        # contiguous B's prefixes in closed form; both must say what
        # checking each address and counting prefix sets say
        d, n, t, B = req
        want = checked_one_by_one(d, n, 0, B, t)
        if want is not None:
            with pytest.raises(ValueError) as raised:
                AddressSets(d, n, 0, B, t)
            assert str(raised.value) == want
            return
        sets = AddressSets(d, n, 0, B, t)
        B = frozenset(B)   # 2 and 2.0 are one member
        tails = tails_by_sets(d, n, t, B)
        assert [sets.union_b_tail(q) for q in range(n - t, n + 1)] == tails
        assert sets.output_counts == (0,) * (n - t) + tuple(
            tails[i] - tails[i + 1] for i in range(t))
        assert sets.home_window == min(B) // d ** t

    def test_bad_input_address_named_first(self):
        with pytest.raises(ValueError, match="address 8 out of range"):
            AddressSets(2, 3, 8, [9], 0)


def b_cases(d, n, t):
    """(members, forms, contiguous) for every k = 1 .. d^t in a middle
    window: a run of k outputs as a range, a descending list and a
    frozenset; where k leaves room, k outputs with one gap as a list and a
    frozenset; and every other output of the window as a step-2 range."""
    size = d ** t
    base = (d ** (n - t) // 2) * size
    for k in range(1, size + 1):
        run = range(base + (size - k) // 2, base + (size - k) // 2 + k)
        yield run, (run, list(reversed(run)), frozenset(run)), True
        if 2 <= k < size:
            gap = [*range(base, base + k - 1), base + k]
            yield gap, (gap, frozenset(gap)), False
    if size >= 3:
        every = range(base, base + size, 2)
        yield every, (every, list(every), frozenset(every)), False


class TestRangeB:
    """A B of contiguous members is kept as a range, any other as a
    frozenset; either form answers as the enumerated sets do."""

    @pytest.mark.parametrize("d, n", [(d, n) for d in (2, 3, 4, 5)
                                      for n in range(1, 8) if d ** n <= 243])
    def test_forms_match_enumeration(self, d, n):
        a, inputs = d ** n - 1, range(d ** n)
        for t in range(n + 1):
            windows = range(d ** (n - t))
            for members, forms, contiguous in b_cases(d, n, t):
                ref = EnumeratedAddressSets(d, n, a, members, t)
                home = window_outputs(d, n, t, ref.home_window)
                want = ([ref.i_of(u) for u in inputs],
                        [ref.j_of_output(v) for v in home],
                        [ref.j_of_window(w) for w in windows],
                        tuple(ref.output_count(j) for j in range(n)),
                        [ref.union_b_tail(q) for q in range(n - t - 1,
                                                            n + 2)])
                for B in forms:
                    sets = AddressSets(d, n, a, B, t)
                    assert (type(sets.B) is range) == contiguous
                    assert set(sets.B) == set(members)
                    assert ([sets.i_of(u) for u in inputs],
                            [sets.j_of_output(v) for v in home],
                            [sets.j_of_window(w) for w in windows],
                            sets.output_counts,
                            [sets.union_b_tail(q)
                             for q in range(n - t - 1, n + 2)]) == want


def outcome(call):
    """What `call` returns, or the message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return "ValueError: %s" % exc


@pytest.mark.parametrize("x", [0, 7, 8, -1, True])
def test_range_refused_as_its_list(x):
    # a range is read by its ends, a list member by member; every refusal
    # and every accepted B must be the same either way
    for start in range(-3, 11):
        for stop in range(start - 1, start + 6):
            for step in (1, -1, 2):
                B = range(start, stop, step)
                for size in (None, 2, 4):
                    got, want = (outcome(lambda: dary.check_request(
                        2, 3, x, outputs, size)) for outputs in (B, list(B)))
                    if isinstance(want, tuple):
                        assert got[0] == want[0]
                        assert set(got[1]) == want[1] == set(B)
                        assert list(got[2]) == want[2]
                    else:
                        assert got == want
                got, want = (outcome(lambda: AddressSets(2, 3, x, outputs, 1)
                                     .B) for outputs in (B, list(B)))
                assert got == want


def test_frac_pow_negative_exponent():
    assert frac_pow(2, -3) == Fraction(1, 8)
    assert frac_pow(3, 2) == 9


@pytest.mark.parametrize("call, message", [
    (lambda: DaryString(1, [0]), "base must be >= 2"),
    (lambda: AddressSets(2, 3, 0, [], 1), "empty output set"),
    (lambda: AddressSets(2, 3, 0, [0], 4), "t=4: need integer 0 <= t <= 3"),
    (lambda: a_count_formula(2, 3, 3), "i out of range"),
    (lambda: window_count_formula(2, 3, 1, 2), "j out of range"),
    (lambda: canonical_sets(2, 3, 1, 3), "k=3: need integer 1 <= k <= 2"),
    (lambda: canonical_sets(2, 3, 1, [1]),
     "k=[1]: need integer 1 <= k <= 2"),
    (lambda: AddressSets(2, 3, 0, [True], 1),
     "address True is not an integer"),
    (lambda: AddressSets(2, 3, 0, [1, False], 1),
     "address False is not an integer"),
    (lambda: AddressSets(1, 3, 0, [0], 1), "d=1: need integer d >= 2"),
    (lambda: AddressSets(2, 0, 0, [0], 0), "n=0: need integer n >= 1"),
    (lambda: AddressSets(2, 3, 0, 5, 1), "5 is not a collection of addresses"),
    (lambda: AddressSets(2, 3, 0, [[0]], 1),
     "[[0]] is not a collection of addresses"),
], ids=["base-1", "empty-B", "t-past-n", "i-past-n", "j-past-n-t",
        "k-past-window", "k-unhashable", "bool-in-B", "False-in-B", "d-1",
        "n-0", "B-not-a-collection", "B-unhashable"])
def test_dary_refusals(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
