"""Plane routing and the pairwise intersection predicates.

The ground truth throughout is the explicit plane graph: stage-s element z
connects to the stage-(s+1) elements whose labels agree with z everywhere
except position s.  Routes computed by formula must be paths of that graph,
and the sharing predicates must agree with literal route-set intersection.
"""

import itertools
import random

import pytest

from switchlp.dary import parse_address
from switchlp.banyan import route, shares_se, shares_link
from switchlp.bounds import CROSSTALK, LINK

from address_oracle import (
    digits, intersection_stage, overlap, route_ids, route_internal_links,
    route_links, route_ses, route_sets,
)


def s(text, base=2):
    return parse_address(text, base, len(text))


def graph_walk(d, n, x, y):
    """Independent oracle: follow the unique plane path from x to y.

    The stage-1 element is labeled with x's first n-1 digits; moving from
    stage s to stage s+1 may change only label position s (1-based), and
    arriving at y forces that position to y_s.  Returns the label sequence.
    """
    xd, yd = digits(d, n, x), digits(d, n, y)
    label = list(xd[: n - 1])
    labels = [tuple(label)]
    for stage in range(1, n):
        nxt = list(label)
        nxt[stage - 1] = yd[stage - 1]
        # the only neighbor consistent with reaching y's stage-n element
        assert nxt[: stage] == list(yd[: stage])
        label = nxt
        labels.append(tuple(label))
    assert label == list(yd[: n - 1])
    return labels


class TestRoute:
    def test_worked_example(self):
        ses = route_ses(2, 5, s("01001"), s("10101"))
        assert ["".join(map(str, se.label)) for se in ses] == \
            ["0100", "1100", "1000", "1010", "1010"]
        assert [se.stage for se in ses] == [1, 2, 3, 4, 5]

    def test_worked_example_against_graph(self):
        x, y = s("01001"), s("10101")
        assert [se.label for se in route_ses(2, 5, x, y)] == \
            graph_walk(2, 5, x, y)

    def test_identity_route(self):
        z = s("0000")
        # every element on the all-zero route has label 0 at its stage, and
        # every internal link label 0 and digit 0
        assert route(2, 4, z, z, CROSSTALK) == \
            tuple(k * 2 ** 3 for k in range(4)) == \
            route_ids(2, 4, z, z, CROSSTALK)
        assert route(2, 4, z, z, LINK) == \
            tuple(k * 2 ** 4 for k in range(1, 4)) == \
            route_ids(2, 4, z, z, LINK)
        assert all(se.label == (0,) * 3 for se in route_ses(2, 4, z, z))

    def test_endpoints(self):
        ses = route_ses(2, 4, s("0110"), s("1011"))
        assert ses[0].label == (0, 1, 1)
        assert ses[-1].label == (1, 0, 1)
        ids = route(2, 4, s("0110"), s("1011"), CROSSTALK)
        assert ids[0] == 0b011
        assert ids[-1] == 3 * 2 ** 3 + 0b101
        ids = route(2, 4, s("0110"), s("1011"), LINK)
        # the link leaving stage 1: its label 011, then y's first digit;
        # the last is the link leaving stage 3, label 101 and digit 1
        assert ids[0] == 1 * 2 ** 4 + 0b0111
        assert ids[-1] == 3 * 2 ** 4 + 0b1011

    def test_stage_local(self):
        for x, y in itertools.product(range(2 ** 4), repeat=2):
            ses = route_ses(2, 4, x, y)
            for i in range(len(ses) - 1):
                a, b = ses[i].label, ses[i + 1].label
                diff = [pos for pos in range(len(a)) if a[pos] != b[pos]]
                assert diff == [] or diff == [i]

    def test_random_d3_against_graph(self):
        rng = random.Random(7)
        for _ in range(300):
            x, y = rng.randrange(3 ** 4), rng.randrange(3 ** 4)
            assert [se.label for se in route_ses(3, 4, x, y)] == \
                graph_walk(3, 4, x, y)

    def test_link_keys_chain_the_stages(self):
        x, y = s("010"), s("110")
        links = route_links(2, 3, x, y)
        assert links[0] == ("in", x)
        assert links[-1] == ("out", y)
        internal = route_internal_links(2, 3, x, y)
        assert len(internal) == 2
        ses = route_ses(2, 3, x, y)
        for stage, label, digit in internal:
            assert label == ses[stage - 1].label
            assert digit == (1, 1, 0)[stage - 1]

    @pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (2, 3), (2, 4),
                                      (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_int_ids_relabel_dary_keys(self, d, n):
        # over every route and both modes, the route is one plain tuple of
        # ids, the mode's digit-tuple view relabelled, both terminal links
        # left out; the same key always gets the same id and distinct keys
        # get distinct ids
        for mode, view in ((LINK, route_internal_links),
                           (CROSSTALK, route_ses)):
            id_of, key_of = {}, {}
            for x, y in itertools.product(range(d ** n), repeat=2):
                got, want = route(d, n, x, y, mode), view(d, n, x, y)
                assert type(got) is tuple
                assert got == route_ids(d, n, x, y, mode)
                assert len(got) == len(want)
                for i, key in zip(got, want):
                    assert type(i) is int
                    assert id_of.setdefault(key, i) == i
                    assert key_of.setdefault(i, key) == key

    def test_every_id_is_shared_by_another_input(self):
        # the sharing rules count only what routes from two inputs share,
        # so a route holds one id per internal link (link mode) or element
        # (crosstalk mode) and no key private to one terminal: the input u
        # differing from x in its last digit passes every stage x does,
        # and its routes to y and to the output v differing from y in its
        # last digit hold every id of x's
        for d, n in [(d, n) for d in range(2, 28) for n in range(1, 5)
                     if d ** n <= 27]:
            for mode in (LINK, CROSSTALK):
                for x, y in itertools.product(range(d ** n), repeat=2):
                    ids = route(d, n, x, y, mode)
                    u = x - x % d + (x + 1) % d
                    v = y - y % d + (y + 1) % d
                    assert len(ids) == n - (mode == LINK)
                    assert u != x and v != y
                    assert route(d, n, u, y, mode) == ids
                    assert route(d, n, u, v, mode) == ids

    @pytest.mark.parametrize("call, message", [
        (lambda: route(1, 3, 0, 0, LINK), "d=1: need integer d >= 2"),
        (lambda: route(2, 0, 0, 0, CROSSTALK), "n=0: need integer n >= 1"),
        (lambda: route(2.0, 3, 0, 0, LINK), "d=2.0: need integer d >= 2"),
        (lambda: route(2, 3, 0, 0, "bogus"), "unknown mode 'bogus'"),
        (lambda: route(1, 3, 9, 0, "bogus"), "d=1: need integer d >= 2"),
        (lambda: route(2, 3, 9, 0, "bogus"), "unknown mode 'bogus'"),
    ], ids=["d-1", "n-0", "d-float", "mode", "d-before-mode-and-address",
            "mode-before-address"])
    def test_route_refusals(self, call, message):
        # the d = 1 and float d cases built routes before d had a rule; a
        # float d must be refused also where an int d of equal value has
        # filled the per-shape cache
        route(2, 3, 0, 0, LINK)
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message

    def test_length_mismatch(self):
        # a three-digit address lies past the last address of a 2-digit plane
        with pytest.raises(ValueError):
            route(2, 2, s("01"), s("110"), LINK)
        with pytest.raises(ValueError):
            route(2, 0, 0, 0, CROSSTALK)
        with pytest.raises(ValueError):
            route(2, 2, 0, 0, "bogus")


class TestPredicates:
    def test_identical_routes(self):
        a, b = s("010"), s("100")
        assert shares_se(2, 3, a, b, a, b)
        assert shares_link(2, 3, a, b, a, b)
        assert intersection_stage(2, 3, a, b, a, b) == "multiple"

    def test_worked_pair(self):
        assert shares_se(2, 3, s("000"), s("000"), s("100"), s("011"))

    def test_boundary_pair_se_not_link(self):
        # digit surgery: equal (n-1)-prefixes on the inputs, outputs
        # differing in the first digit give lcs + lcp = n - 1 exactly
        a, u = s("0010"), s("0011")
        b, v = s("0000"), s("1000")
        assert shares_se(2, 4, a, b, u, v)
        assert not shares_link(2, 4, a, b, u, v)
        stage = intersection_stage(2, 4, a, b, u, v)
        se_a, _ = route_sets(2, 4, a, b)
        se_u, _ = route_sets(2, 4, u, v)
        common = se_a & se_u
        assert len(common) == 1
        assert stage == next(iter(common)).stage

    def test_disjoint_routes(self):
        a, b = s("000"), s("000")
        u, v = s("011"), s("110")
        assert not shares_se(2, 3, a, b, u, v)
        assert intersection_stage(2, 3, a, b, u, v) == "none"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_oracle_d2(self, n):
        univ = range(2 ** n)
        cache = {(x, y): route_sets(2, n, x, y)
                 for x in univ for y in univ}
        for a, b, u, v in itertools.product(univ, repeat=4):
            se1, lk1 = cache[a, b]
            se2, lk2 = cache[u, v]
            se_hit = bool(se1 & se2)
            lk_hit = bool(lk1 & lk2)
            assert shares_se(2, n, a, b, u, v) == se_hit
            assert shares_link(2, n, a, b, u, v) == lk_hit
            stage = intersection_stage(2, n, a, b, u, v)
            common = se1 & se2
            if not common:
                assert stage == "none"
            elif len(common) == 1 and not lk_hit:
                assert stage == next(iter(common)).stage
            else:
                assert stage == "multiple"

    def test_sampled_oracle_d3(self):
        rng = random.Random(11)
        cache = {}
        for _ in range(10000):
            a, b, u, v = (rng.randrange(3 ** 3) for _ in range(4))
            for key in ((a, b), (u, v)):
                if key not in cache:
                    cache[key] = route_sets(3, 3, *key)
            se1, lk1 = cache[a, b]
            se2, lk2 = cache[u, v]
            assert shares_se(3, 3, a, b, u, v) == bool(se1 & se2)
            assert shares_link(3, 3, a, b, u, v) == bool(lk1 & lk2)

    @pytest.mark.parametrize("d, n", [(2, 1), (2, 4), (3, 3), (4, 2),
                                      (5, 2)])
    def test_division_matches_overlap_count(self, d, n):
        # the predicates test the output prefix by one division; the
        # oracle adds the lcs and lcp digit counts, over every quadruple
        univ = range(d ** n)
        pairs = [(b, v) for b in univ for v in univ]
        for a, u in itertools.product(univ, repeat=2):
            counts = [overlap(d, n, a, b, u, v) for b, v in pairs]
            assert [shares_se(d, n, a, b, u, v) for b, v in pairs] == \
                [c >= n - 1 for c in counts]
            assert [shares_link(d, n, a, b, u, v) for b, v in pairs] == \
                [c >= n for c in counts]

    def test_link_implies_se(self):
        rng = random.Random(3)
        for _ in range(2000):
            a, b, u, v = (rng.randrange(2 ** 4) for _ in range(4))
            if shares_link(2, 4, a, b, u, v):
                assert shares_se(2, 4, a, b, u, v)
