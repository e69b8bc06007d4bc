import itertools

import pytest

from colat.catalog import SIClass, _catalog_target, classify_si, co_chain, l_mn
from colat.depend import dependency_closure, is_weak_bitrack, weak_bitracks
from colat.lattice import (
    LatticeMap,
    direct_product,
    embedding_search,
    find_isomorphism,
    lattice_from_json,
    monolith,
    principal_congruence,
)
from colat.membership import decide_sub_lo, decide_sub_n
from colat.poset import Poset, PosetError
from examples import by_label, diamond, lmn_bitrack, pentagon


def sums_upto(hi):
    return [(m, s - m) for s in range(2, hi + 1) for m in range(1, s)]


# -- constructors -----------------------------------------------------------


def test_co_chain_sizes():
    for n in range(1, 7):
        assert co_chain(n).n == n * (n + 1) // 2 + 1
    with pytest.raises(ValueError):
        co_chain(0)


@pytest.mark.parametrize("build", [
    lambda: co_chain(17),
    lambda: l_mn(8, 8),
    lambda: _catalog_target("co_chain", (30_000,)),
    lambda: _catalog_target("lmn", (3, 30_000)),
], ids=["co_chain", "l_mn", "target co", "target lmn"])
def test_chain_bound_checked_before_the_chain(monkeypatch, build):
    # building a chain of thousands of elements alone takes seconds
    def chain(n):
        raise AssertionError(f"built the {n}-chain")

    monkeypatch.setattr(Poset, "chain", staticmethod(chain))
    with pytest.raises(PosetError, match="limited to 16 elements"):
        build()


def test_catalog_lattices_are_built_once():
    # co_chain, l_mn and _catalog_target share one memoised build
    assert co_chain(5) is co_chain(5) is _catalog_target("co_chain", (5,))[0]
    assert l_mn(2, 1) is l_mn(2, 1) is _catalog_target("lmn", (2, 1))[0]


def test_lmn_11_is_pentagon():
    L = l_mn(1, 1)
    assert L.n == 5
    assert set(L.labels) == {"{}", "{0}", "{2}", "{0,1}", "{0,1,2}"}
    assert find_isomorphism(pentagon(), L) is not None


def test_lmn_sizes():
    assert l_mn(1, 2).n == 8
    assert l_mn(2, 1).n == 9
    with pytest.raises(ValueError):
        l_mn(0, 2)
    with pytest.raises(ValueError):
        l_mn(1, 0)


def test_lmn_join_irreducibles():
    for m, n in sums_upto(5):
        L = l_mn(m, n)
        jis = L.join_irreducibles
        assert len(jis) == m + n + 1
        labels = {L.labels[a] for a in jis}
        expected = {"{%d}" % i for i in range(m + n + 1) if i != m}
        expected.add("{%d,%d}" % (m - 1, m))
        assert labels == expected


def test_lmn_is_bounded_sublattice_of_co_chain():
    for m, n in sums_upto(6):
        L = l_mn(m, n)
        big = co_chain(m + n + 1)
        values = tuple(by_label(big, L.labels[x]) for x in range(L.n))
        inc = LatticeMap(L, big, values)
        assert inc.injective and inc.preserves_ops()
        assert values[L.bottom] == big.bottom and values[L.top] == big.top


def test_lmn_monolith_identifies_cm_with_singleton():
    for m, n in sums_upto(5):
        L = l_mn(m, n)
        mu = monolith(L)
        assert mu is not None
        lo = by_label(L, "{%d}" % (m - 1))
        cm = by_label(L, "{%d,%d}" % (m - 1, m))
        assert mu.same(lo, cm)
        assert mu == principal_congruence(L, lo, cm)


# -- canonical bi-tracks ----------------------------------------------------


def test_canonical_bitrack_1_1():
    L = l_mn(1, 1)
    names = lambda xs: tuple(L.labels[x] for x in xs)
    [t] = [t for t in weak_bitracks(L, 1, 1) if L.labels[t.first.side] == "{2}"]
    assert names(t.first.entries) == ("{0,1}", "{0}")
    assert names(t.second.entries) == ("{0,1}", "{2}")
    assert L.labels[t.second.side] == "{0}"


def test_canonical_bitrack_2_1():
    # the second side varies over {0}, {1} and {0,1}; the first track does not
    L = l_mn(2, 1)
    [first] = {t.first for t in weak_bitracks(L, 2, 1)}
    assert tuple(L.labels[x] for x in first.entries) == ("{1,2}", "{1}", "{0}")
    assert L.labels[first.side] == "{3}"


def test_canonical_bitrack_valid_up_to_six():
    for m, n in sums_upto(6):
        L, t = l_mn(m, n), lmn_bitrack(m, n)
        assert t.index == (m, n)
        assert is_weak_bitrack(L, t)
        assert t in weak_bitracks(L, m, n)


def test_canonical_bitrack_embeds_co_chain():
    # a weak bi-track of index (m, n) spans a copy of Co(m+n)
    for m, n in sums_upto(5):
        emb = embedding_search(co_chain(m + n), l_mn(m, n))
        assert emb is not None and emb.injective and emb.preserves_ops()


def test_equal_sum_bitracks_have_canonical_trace():
    for m, n in sums_upto(4):
        L = l_mn(m, n)
        canon = lmn_bitrack(m, n).trace()
        mirror = (canon[1], canon[0])
        seen = 0
        for mp in range(1, m + n):
            for t in weak_bitracks(L, mp, m + n - mp):
                assert t.trace() in (canon, mirror)
                seen += 1
        assert seen >= 2


def test_distinct_equal_sum_lmn_do_not_embed():
    for total in range(2, 6):
        group = [(k, total - k) for k in range(1, total)]
        assert len(group) == total - 1
        built = {p: l_mn(*p) for p in group}
        for p in group:
            for q in group:
                if p != q:
                    assert embedding_search(built[p], built[q]) is None


# -- classification ---------------------------------------------------------


def test_classify_pentagon():
    c = classify_si(pentagon())
    assert c.tag == "lmn" and c.params == (1, 1)
    assert c.iso is not None and c.iso.preserves_ops() and c.iso.injective


def test_classify_co_chains_are_si():
    # computed outcome: Co(n) has a monolith for n = 1, 3, 4, 5
    for n in (1, 3, 4, 5):
        c = classify_si(co_chain(n))
        assert c == SIClass("co_chain", (n,), c.iso) and c.iso is not None


def test_classify_boolean_square_not_si():
    assert classify_si(co_chain(2)) == SIClass("not_si", (), None)


def test_classify_rejected_lattice():
    assert classify_si(diamond()) == SIClass("not_member", (), None)


def test_classify_lmn_family():
    for m, n in sums_upto(4):
        c = classify_si(l_mn(m, n))
        assert (c.tag, c.params) == ("lmn", (m, n))


def test_catalog_si_have_full_anchor():
    # subdirectly irreducible members see all of J(L) from one anchor
    targets = [co_chain(3), co_chain(4)] + [l_mn(m, n) for m, n in sums_upto(4)]
    for L in targets:
        r = decide_sub_lo(L)
        assert r.accepted
        k = len(L.join_irreducibles)
        full = [
            m
            for w, m in zip(r.certificate.witnesses, r.certificate.maps)
            if len(w.chain) == k
        ]
        assert any(len(set(m)) == L.n for m in full)


# -- levels and embedded catalog lattices ----------------------------------


def least_level(L):
    return next(n for n in itertools.count() if decide_sub_n(L, n))


def test_position_lmn_12():
    assert least_level(l_mn(1, 2)) == 4


def test_position_co4_includes_co3():
    assert least_level(co_chain(4)) == 4
    assert embedding_search(co_chain(3), co_chain(4)) is not None
    assert embedding_search(l_mn(1, 2), co_chain(4)) is not None


def test_position_distributive_is_two():
    square = direct_product(co_chain(1), co_chain(1))
    assert least_level(square) <= 2
    assert least_level(co_chain(1)) <= 2


def test_position_trivial_lattice():
    one = lattice_from_json({"size": 1, "leq_pairs": []})
    assert least_level(one) == 0


def test_position_anchor_width_matches_chain_bound():
    for m, n in sums_upto(4):
        L = l_mn(m, n)
        widest = max(len(dependency_closure(L, a)) for a in L.join_irreducibles)
        assert least_level(L) == widest == m + n + 1
