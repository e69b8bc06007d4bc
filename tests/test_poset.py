"""Posets and lattices of order-convex subsets."""

from __future__ import annotations

import itertools

import pytest

from colat.lattice import FinLattice, LatticeError, iter_lattices
from colat import poset
from colat.poset import Poset, PosetError, poset_from_json, poset_to_json


def _brute_convex_sets(P: Poset) -> set[frozenset[int]]:
    # independent oracle: a set is convex iff it contains every element
    # lying between two of its members
    out = set()
    for r in range(P.n + 1):
        for comb in itertools.combinations(range(P.n), r):
            s = set(comb)
            ok = True
            for x in comb:
                for y in comb:
                    for z in range(P.n):
                        if P.leq(x, z) and P.leq(z, y) and z not in s:
                            ok = False
            if ok:
                out.add(frozenset(s))
    return out


def _mask_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def test_chain_convex_sets_are_intervals():
    P = Poset.chain(5)
    sets = {_mask_set(m) for m in P.convex_sets()}
    assert sets == _brute_convex_sets(P)
    for s in sets:
        if s:
            lo, hi = min(s), max(s)
            assert s == set(range(lo, hi + 1))


@pytest.mark.parametrize("n,size", [(1, 2), (2, 4), (3, 7), (4, 11), (5, 16), (6, 22)])
def test_co_chain_sizes(n, size):
    # size frozen from the oracle: n(n+1)/2 intervals plus the empty set
    L, sets = Poset.chain(n).co_lattice()
    assert L.n == size == len(_brute_convex_sets(Poset.chain(n)))
    assert len(sets) == size


def test_two_antichain_gives_boolean_square():
    L, _ = Poset.antichain(2).co_lattice()
    assert L.n == 4
    assert L.join_table[1][2] == 3 and L.meet_table[1][2] == 0


def test_co_lattice_bound(monkeypatch):
    # 2^8 convex sets build; 2^9 and 2^16 are refused before any table
    assert Poset.antichain(8).co_lattice()[0].n == 256
    monkeypatch.setattr(poset, "FinLattice", None)
    for n in (9, 16):
        with pytest.raises(PosetError, match=f"has {2 ** n} elements; limited to 256"):
            Poset.antichain(n).co_lattice()


def test_hull_is_least_convex_superset():
    P = Poset.from_covers("abcde", [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c"), ("c", "e")])
    convex = P.convex_sets()
    for mask in range(1 << P.n):
        h = P.convex_hull(mask)
        assert mask & ~h == 0
        assert P.convex_hull(h) == h
        for c in convex:
            if mask & ~c == 0:
                assert h & ~c == 0


def test_meet_is_intersection_join_is_hull():
    P = Poset.from_covers("wxyz", [("w", "x"), ("x", "y"), ("w", "z")])
    L, sets = P.co_lattice()
    for i, s in enumerate(sets):
        for j, t in enumerate(sets):
            assert sets[L.meet_table[i][j]] == s & t
            assert sets[L.join_table[i][j]] == P.convex_hull(s | t)
    assert sets[L.bottom] == 0


def test_dual_poset_has_same_convex_sets():
    P = Poset.from_covers("abcde", [("a", "c"), ("b", "c"), ("c", "d"), ("c", "e")])
    assert set(P.convex_sets()) == set(P.dual().convex_sets())
    assert P.dual().dual().up == P.up


def test_singletons_and_empty_always_convex():
    P = Poset.from_covers("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    sets = set(P.convex_sets())
    assert 0 in sets
    for i in range(P.n):
        assert (1 << i) in sets


def test_restrict_induces_suborder():
    P = Poset.from_covers("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
    Q = P.restrict([0, 2, 3])
    assert Q.labels == ("a", "c", "d")
    assert Q.leq(0, 1) and Q.leq(0, 2)
    assert not Q.leq(1, 2) and not Q.leq(2, 1)


def test_from_covers_rejects_cycles():
    with pytest.raises(PosetError):
        Poset.from_covers("ab", [("a", "b"), ("b", "a")])


@pytest.mark.parametrize("data", [
    {"elements": "ab", "covers": []},
    {"elements": ["a", "b"], "covers": "ab"},
    {"elements": ["a", "b"]},
    ["a", "b"],
])
def test_from_json_requires_lists(data):
    with pytest.raises(PosetError, match="'elements' and 'covers' lists"):
        poset_from_json(data)


def test_json_round_trip():
    P = Poset.from_covers("abcde", [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c"), ("c", "e")])
    Q = poset_from_json(poset_to_json(P))
    assert Q.labels == P.labels
    assert Q.up == P.up


def test_chain_interval_structure():
    # pairwise disjoint nonempty convex sets with the betweenness property
    # line up as consecutive intervals in one of the two orientations
    for size in range(2, 7):
        P = Poset.chain(size)
        sets = [m for m in P.convex_sets() if m]
        for count in (2, 3, 4):
            for tup in itertools.permutations(sets, count):
                if any(tup[i] & tup[j] for i in range(count) for j in range(i + 1, count)):
                    continue
                ok = True
                for k in range(count):
                    for i in range(k):
                        for j in range(k + 1, count):
                            hull = P.convex_hull(tup[i] | tup[j])
                            if tup[k] & ~hull:
                                ok = False
                if not ok:
                    continue
                spans = [(_min_bit(m), _max_bit(m)) for m in tup]
                fwd = all(spans[i][1] < spans[i + 1][0] for i in range(count - 1))
                bwd = all(spans[i + 1][1] < spans[i][0] for i in range(count - 1))
                assert fwd or bwd, (size, tup)


def _min_bit(m: int) -> int:
    return (m & -m).bit_length() - 1


def _max_bit(m: int) -> int:
    return m.bit_length() - 1


# -- the order validation shared by Poset and FinLattice --------------------------


def _build_poset(up, validate=True):
    return Poset(tuple(str(i) for i in range(len(up))), up, validate=validate)


def _build_lattice(up, validate=True):
    return FinLattice(up, validate=validate)


ORDER_CLASSES = [(_build_poset, PosetError), (_build_lattice, LatticeError)]


@pytest.mark.parametrize("build,error", ORDER_CLASSES)
@pytest.mark.parametrize("up,message", [
    ((0b10, 0b10), "order is not reflexive"),
    ((0b11, 0b11), "order is not antisymmetric"),
    ((0b011, 0b110, 0b100), "order is not transitive"),
])
def test_order_validation_raises_own_error(build, error, up, message):
    with pytest.raises(error) as info:
        build(up)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("build,error", ORDER_CLASSES)
def test_reflexivity_checked_without_validation(build, error):
    with pytest.raises(error, match="order is not reflexive"):
        build((0b01, 0b00), validate=False)


def test_cover_pairs_match_upper_covers():
    for L in iter_lattices(6):
        P = Poset(L.labels, L.up)
        assert P.cover_pairs() == [(i, j) for i in range(L.n) for j in L.upper_covers[i]]
