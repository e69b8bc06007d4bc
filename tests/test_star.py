"""Tests for the (*) identity, the completion search and its first pair."""

import hashlib
import json

import pytest

from colat.poset import Poset
from colat.star import (
    FORCED,
    INCOMPARABLE,
    LABELS,
    _completions,
    _singleton_assignment,
    search_pq,
    star_identity,
    verify_separation,
    witness_to_json,
)
from colat.terms import check, eval_term


class TestStarIdentity:
    def test_variables(self):
        assert star_identity().variables == ("x0", "x1", "x2", "x3", "xa", "xb")

    def test_relation_is_one_sided(self):
        assert star_identity().relation == "leq"

    def test_right_side_shape(self):
        # s joined with the six meets of t
        rhs = star_identity().rhs
        assert rhs.kind == "join"
        s, t = rhs.children
        assert s.kind == "meet"
        assert t.kind == "join"
        assert len(t.children) == 6

    def test_left_side_is_second_stage(self):
        # two recursion stages deepen x1 by two meet layers
        lhs = star_identity().lhs
        assert lhs.kind == "meet"
        assert len(lhs.children) == 3


class TestCompletions:
    def test_count(self):
        assert len(_completions()) == 28

    def test_forced_relations_present(self):
        idx = {lab: i for i, lab in enumerate(LABELS)}
        for bits, Q in _completions():
            for x, y in FORCED:
                assert Q.leq(idx[x], idx[y])
            for x, y in INCOMPARABLE:
                assert not Q.leq(idx[x], idx[y])
                assert not Q.leq(idx[y], idx[x])

    def test_distinct_orders(self):
        seen = {Q.up for _, Q in _completions()}
        assert len(seen) == 28

    def test_all_p_restrictions_fail_star_at_singletons(self):
        # dropping c always leaves the gap the left side exploits
        star = star_identity()
        keep = [i for i in range(len(LABELS)) if LABELS[i] != "c"]
        for bits, Q in _completions():
            P = Q.restrict(keep)
            coP, masks = P.co_lattice()
            env = _singleton_assignment(star, P, masks)
            assert coP.labels[eval_term(coP, star.lhs, env)] == "{1}"
            assert eval_term(coP, star.rhs, env) == coP.bottom

    def test_limit_zero(self):
        assert search_pq(limit=0) == []

    def test_exhaustive_search(self):
        # every completion: Co(Q) satisfies (*) in exactly four of them, and
        # the first of those is the pair that limit=1 stops at
        found = search_pq(limit=None)
        assert [w.Q.co_lattice()[0].n for w in found] == [40, 45, 45, 51]
        assert witness_to_json(found[0]) == witness_to_json(search_pq(limit=1)[0])

    def test_first_witness_pinned(self):
        text = json.dumps(witness_to_json(search_pq(limit=1)[0]), separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8bfdedc9d4ed540d0dc8ec11cd66051adf59725717f541f8a614d490fc7ffb32")


@pytest.fixture(scope="module")
def w():
    return search_pq(limit=1)[0]


class TestFixture:
    def test_shape(self, w):
        assert w.Q.n == 7
        assert w.P.n == 6
        assert w.removed == "c"
        assert w.co_q_holds and not w.co_p_holds

    def test_p_is_q_minus_c(self, w):
        keep = [i for i in range(w.Q.n) if w.Q.labels[i] != "c"]
        R = w.Q.restrict(keep)
        assert R.labels == w.P.labels
        assert R.up == w.P.up

    def test_q_is_a_consistent_completion(self, w):
        assert any(Q.up == w.Q.up for _, Q in _completions())

    def test_failing_assignment_reevaluates(self, w):
        star = star_identity()
        coP, masks = w.P.co_lattice()
        labels = dict(w.failing_assignment)
        env = {v: coP.labels.index(labels[v]) for v in star.variables}
        assert coP.labels[eval_term(coP, star.lhs, env)] == "{1}"
        assert eval_term(coP, star.rhs, env) == coP.bottom
        assert sorted(labels.values()) == sorted(
            "{%s}" % lab for lab in w.P.labels)


class TestVerifySeparation:
    def test_same_poset_no_separation(self):
        P = Poset.chain(3)
        rep = verify_separation(P, P)
        assert rep.co_p.holds and rep.co_q.holds
        assert not rep.separated
        assert "consequence" in rep.note

    def test_chain_in_longer_chain(self):
        rep = verify_separation(Poset.chain(3), Poset.chain(5))
        assert rep.co_p.holds and rep.co_q.holds
        assert not rep.separated

    def test_not_induced_subposet(self):
        with pytest.raises(ValueError):
            verify_separation(Poset.antichain(2), Poset.chain(2))

    def test_unknown_labels(self):
        P = Poset.chain(2)
        Q = Poset.from_covers(("x", "y"), [("x", "y")])
        with pytest.raises(ValueError):
            verify_separation(P, Q)

    def test_rejects_non_posets(self):
        with pytest.raises(ValueError):
            verify_separation("P", Poset.chain(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chains_satisfy_star(n):
    co, _ = Poset.chain(n).co_lattice()
    assert check(co, star_identity()).holds
