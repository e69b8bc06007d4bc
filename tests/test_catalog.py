import pytest

from colat.catalog import (
    SIClass,
    VarietyPosition,
    _catalog_target,
    canonical_bitrack,
    classify_si,
    co_chain,
    l_mn,
    variety_position,
)
from colat.depend import dependency_closure, is_weak_bitrack, track_embedding, weak_bitracks
from colat.lattice import (
    LatticeError,
    LatticeMap,
    direct_product,
    embedding_search,
    find_isomorphism,
    lattice_from_json,
    monolith,
    principal_congruence,
)
from colat.membership import decide_sub_lo
from colat.poset import Poset, PosetError


def by_label(L, lbl):
    return next(i for i in range(L.n) if L.label_of(i) == lbl)


def sums_upto(hi):
    return [(m, s - m) for s in range(2, hi + 1) for m in range(1, s)]


@pytest.fixture
def pentagon():
    return lattice_from_json(
        {
            "size": 5,
            "leq_pairs": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 4], [2, 4], [3, 4]],
            "labels": ["0", "a", "c", "b", "1"],
        }
    )


@pytest.fixture
def diamond():
    return lattice_from_json(
        {
            "size": 5,
            "leq_pairs": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 4], [2, 4], [3, 4]],
            "labels": ["0", "a", "b", "c", "1"],
        }
    )


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


def test_lmn_11_is_pentagon(pentagon):
    L = l_mn(1, 1)
    assert L.n == 5
    assert set(L.labels) == {"{}", "{0}", "{2}", "{0,1}", "{0,1,2}"}
    assert find_isomorphism(pentagon, L) is not None


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
        labels = {L.label_of(a) for a in jis}
        expected = {"{%d}" % i for i in range(m + n + 1) if i != m}
        expected.add("{%d,%d}" % (m - 1, m))
        assert labels == expected


def test_lmn_is_bounded_sublattice_of_co_chain():
    for m, n in sums_upto(6):
        L = l_mn(m, n)
        big = co_chain(m + n + 1)
        values = tuple(by_label(big, L.label_of(x)) for x in range(L.n))
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
    t = canonical_bitrack(1, 1)
    names = lambda xs: tuple(L.label_of(x) for x in xs)
    assert names(t.first.entries) == ("{0,1}", "{0}")
    assert L.label_of(t.first.side) == "{2}"
    assert names(t.second.entries) == ("{0,1}", "{2}")
    assert L.label_of(t.second.side) == "{0}"


def test_canonical_bitrack_2_1():
    L = l_mn(2, 1)
    t = canonical_bitrack(2, 1)
    names = tuple(L.label_of(x) for x in t.first.entries)
    assert names == ("{1,2}", "{1}", "{0}")
    assert L.label_of(t.first.side) == "{3}"


def test_canonical_bitrack_valid_up_to_six():
    for m, n in sums_upto(6):
        t = canonical_bitrack(m, n)
        assert t.index == (m, n)
        assert is_weak_bitrack(l_mn(m, n), t)


def test_canonical_bitrack_embeds_co_chain():
    for m, n in sums_upto(5):
        L = l_mn(m, n)
        emb = track_embedding(L, canonical_bitrack(m, n))
        assert emb.source.n == co_chain(m + n).n
        assert emb.injective and emb.preserves_ops()


def test_equal_sum_bitracks_have_canonical_trace():
    for m, n in sums_upto(4):
        L = l_mn(m, n)
        canon = canonical_bitrack(m, n).trace()
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


def test_classify_pentagon(pentagon):
    c = classify_si(pentagon)
    assert c.tag == "lmn" and c.params == (1, 1)
    assert c.iso is not None and c.iso.preserves_ops() and c.iso.injective


def test_classify_co_chains_are_si():
    # computed outcome: Co(n) has a monolith for n = 1, 3, 4, 5
    for n in (1, 3, 4, 5):
        c = classify_si(co_chain(n))
        assert c == SIClass("co_chain", (n,), c.iso) and c.iso is not None


def test_classify_boolean_square_not_si():
    assert classify_si(co_chain(2)) == SIClass("not_si", (), None)


def test_classify_rejected_lattice(diamond):
    assert classify_si(diamond) == SIClass("not_member", (), None)


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


# -- variety position -------------------------------------------------------


def test_position_lmn_12():
    assert variety_position(l_mn(1, 2)).least_n == 4


def test_position_co4_includes_co3():
    pos = variety_position(co_chain(4))
    assert pos.least_n == 4
    assert ("co_chain", 3) in pos.embedded_si
    assert ("lmn", 1, 2) in pos.embedded_si


def test_position_distributive_is_two():
    square = direct_product(co_chain(1), co_chain(1))
    assert variety_position(square).least_n == 2
    assert variety_position(co_chain(1)).least_n == 2


def test_position_trivial_lattice():
    one = lattice_from_json({"size": 1, "leq_pairs": []})
    assert variety_position(one) == VarietyPosition(0, ())


def test_position_rejects_non_member(diamond):
    with pytest.raises(LatticeError):
        variety_position(diamond)


def test_position_anchor_width_matches_chain_bound():
    for m, n in sums_upto(4):
        L = l_mn(m, n)
        widest = max(len(dependency_closure(L, a)) for a in L.join_irreducibles)
        assert variety_position(L).least_n == max(2, widest) == m + n + 1
