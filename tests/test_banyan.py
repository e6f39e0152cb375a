"""Plane routing and the pairwise intersection predicates.

The ground truth throughout is the explicit plane graph: stage-s element z
connects to the stage-(s+1) elements whose labels agree with z everywhere
except position s.  Routes computed by formula must be paths of that graph,
and the sharing predicates must agree with literal route-set intersection.
"""

import itertools
import random

import pytest

from switchlp.dary import DaryString, all_strings
from switchlp.banyan import route, shares_se, shares_link, intersection_stage


def s(text, base=2):
    return DaryString.parse(text, base)


def graph_walk(x, y):
    """Independent oracle: follow the unique plane path from x to y.

    The stage-1 element is labeled with x's first n-1 digits; moving from
    stage s to stage s+1 may change only label position s (1-based), and
    arriving at y forces that position to y_s.  Returns the label sequence.
    """
    n = len(x)
    label = list(x.digits[: n - 1])
    labels = [tuple(label)]
    for stage in range(1, n):
        nxt = list(label)
        nxt[stage - 1] = y.digits[stage - 1]
        # the only neighbor consistent with reaching y's stage-n element
        assert nxt[: stage] == list(y.digits[: stage])
        label = nxt
        labels.append(tuple(label))
    assert label == list(y.digits[: n - 1])
    return labels


class TestRoute:
    def test_worked_example(self):
        rt = route(s("01001"), s("10101"))
        assert [str(se.label) for se in rt.ses] == \
            ["0100", "1100", "1000", "1010", "1010"]
        assert [se.stage for se in rt.ses] == [1, 2, 3, 4, 5]

    def test_worked_example_against_graph(self):
        x, y = s("01001"), s("10101")
        rt = route(x, y)
        assert [se.label.digits for se in rt.ses] == graph_walk(x, y)

    def test_identity_route(self):
        z = s("0000")
        rt = route(z, z)
        assert all(se.label.value() == 0 for se in rt.ses)

    def test_endpoints(self):
        rt = route(s("0110"), s("1011"))
        assert str(rt.ses[0].label) == "011"
        assert str(rt.ses[-1].label) == "101"

    def test_stage_local(self):
        for x, y in itertools.product(all_strings(2, 4), repeat=2):
            rt = route(x, y)
            for i in range(len(rt.ses) - 1):
                a, b = rt.ses[i].label.digits, rt.ses[i + 1].label.digits
                diff = [pos for pos in range(len(a)) if a[pos] != b[pos]]
                assert diff == [] or diff == [i]

    def test_random_d3_against_graph(self):
        rng = random.Random(7)
        univ = list(all_strings(3, 4))
        for _ in range(300):
            x, y = rng.choice(univ), rng.choice(univ)
            rt = route(x, y)
            assert [se.label.digits for se in rt.ses] == graph_walk(x, y)

    def test_link_keys_chain_the_stages(self):
        rt = route(s("010"), s("110"))
        assert rt.links[0] == ("in", s("010"))
        assert rt.links[-1] == ("out", s("110"))
        assert len(rt.internal_links) == 2
        for stage, label, digit in rt.internal_links:
            assert label == rt.ses[stage - 1].label
            assert digit == s("110").digits[stage - 1]

    @pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (2, 3), (2, 4),
                                      (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_int_ids_relabel_dary_keys(self, d, n):
        # over every route, the same DaryString key always gets the same id
        # and distinct keys get distinct ids
        for ids, view in (("link_ids", "links"), ("se_ids", "ses")):
            id_of, key_of = {}, {}
            for x, y in itertools.product(all_strings(d, n), repeat=2):
                rt = route(x, y)
                got, want = getattr(rt, ids), getattr(rt, view)
                assert len(got) == len(want)
                for i, key in zip(got, want):
                    assert type(i) is int
                    assert id_of.setdefault(key, i) == i
                    assert key_of.setdefault(i, key) == key

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            route(s("01"), s("010"))


def route_sets(x, y):
    rt = route(x, y)
    return set(rt.ses), set(rt.internal_links)


class TestPredicates:
    def test_identical_routes(self):
        a, b = s("010"), s("100")
        assert shares_se(a, b, a, b)
        assert shares_link(a, b, a, b)
        assert intersection_stage(a, b, a, b) == "multiple"

    def test_worked_pair(self):
        assert shares_se(s("000"), s("000"), s("100"), s("011"))

    def test_boundary_pair_se_not_link(self):
        # digit surgery: equal (n-1)-prefixes on the inputs, outputs
        # differing in the first digit give lcs + lcp = n - 1 exactly
        a, u = s("0010"), s("0011")
        b, v = s("0000"), s("1000")
        assert shares_se(a, b, u, v)
        assert not shares_link(a, b, u, v)
        stage = intersection_stage(a, b, u, v)
        se_a, _ = route_sets(a, b)
        se_u, _ = route_sets(u, v)
        common = se_a & se_u
        assert len(common) == 1
        assert stage == next(iter(common)).stage

    def test_disjoint_routes(self):
        a, b = s("000"), s("000")
        u, v = s("011"), s("110")
        assert not shares_se(a, b, u, v)
        assert intersection_stage(a, b, u, v) == "none"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_oracle_d2(self, n):
        univ = list(all_strings(2, n))
        cache = {(x, y): route_sets(x, y)
                 for x in univ for y in univ}
        for a, b, u, v in itertools.product(univ, repeat=4):
            se1, lk1 = cache[a, b]
            se2, lk2 = cache[u, v]
            se_hit = bool(se1 & se2)
            lk_hit = bool(lk1 & lk2)
            assert shares_se(a, b, u, v) == se_hit
            assert shares_link(a, b, u, v) == lk_hit
            stage = intersection_stage(a, b, u, v)
            common = se1 & se2
            if not common:
                assert stage == "none"
            elif len(common) == 1 and not lk_hit:
                assert stage == next(iter(common)).stage
            else:
                assert stage == "multiple"

    def test_sampled_oracle_d3(self):
        rng = random.Random(11)
        univ = list(all_strings(3, 3))
        cache = {}
        for _ in range(10000):
            a, b, u, v = (rng.choice(univ) for _ in range(4))
            for key in ((a, b), (u, v)):
                if key not in cache:
                    cache[key] = route_sets(*key)
            se1, lk1 = cache[a, b]
            se2, lk2 = cache[u, v]
            assert shares_se(a, b, u, v) == bool(se1 & se2)
            assert shares_link(a, b, u, v) == bool(lk1 & lk2)

    def test_link_implies_se(self):
        univ = list(all_strings(2, 4))
        rng = random.Random(3)
        for _ in range(2000):
            a, b, u, v = (rng.choice(univ) for _ in range(4))
            if shares_link(a, b, u, v):
                assert shares_se(a, b, u, v)
