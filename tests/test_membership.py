import hashlib
import json

import pytest

from colat.catalog import l_mn
from colat.depend import dependency_closure
from colat.lattice import (
    FinLattice,
    LatticeMap,
    direct_product,
    iter_lattices,
    lattice_from_json,
    lattices_of_size,
    structural_predicates,
)
from colat.membership import (
    ChainOrderWitness,
    EmbeddingCertificate,
    _separating_hom,
    brute_force_oracle,
    certificate_from_json,
    certificate_to_json,
    chain_order,
    decide_sub_lo,
    decide_sub_n,
    induced_map,
    verify_certificate,
)
from colat.poset import Poset
from colat.terms import builtin, check
from oracles import catalog_level, first_chain_order


def co_chain(n):
    return Poset.chain(n).co_lattice()[0]


def by_label(L, lbl):
    return next(i for i in range(L.n) if L.label_of(i) == lbl)


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


# -- chain_order ------------------------------------------------------------


def test_chain_order_co3_middle_singleton():
    L = co_chain(3)
    a = by_label(L, "{1}")
    w = chain_order(L, a)
    labels = tuple(L.label_of(b) for b in w.chain)
    assert labels in (("{0}", "{1}", "{2}"), ("{2}", "{1}", "{0}"))


def test_chain_order_endpoint_is_trivial():
    L = co_chain(3)
    a = by_label(L, "{0}")
    w = chain_order(L, a)
    assert w.chain == (a,)


def test_chain_order_distributive_always_singleton():
    L = direct_product(co_chain(1), direct_product(co_chain(1), co_chain(1)))
    assert structural_predicates(L).distributive
    for a in L.join_irreducibles:
        assert chain_order(L, a).chain == (a,)


def test_chain_order_diamond_fails_every_atom(diamond):
    for a in diamond.join_irreducibles:
        assert chain_order(diamond, a) is None


def test_chain_order_rejects_reducible():
    L = co_chain(3)
    with pytest.raises(ValueError):
        chain_order(L, L.top)
    with pytest.raises(ValueError):
        chain_order(L, L.bottom)


def test_chain_order_deterministic():
    L = co_chain(5)
    for a in L.join_irreducibles:
        assert chain_order(L, a) == chain_order(L, a)


def _oracle_disagreements(lattices):
    # (anchors checked, (L.up, a) where chain_order and the oracle differ)
    pairs = [(L, a) for L in lattices for a in L.join_irreducibles]
    return len(pairs), [(L.up, a) for L, a in pairs
                        if getattr(chain_order(L, a), "chain", None) != first_chain_order(L, a)]


def test_chain_order_matches_oracle_up_to_eight():
    assert _oracle_disagreements(iter_lattices(8)) == (1493, [])


def test_chain_order_matches_oracle_on_catalog():
    lattices = [co_chain(n) for n in range(1, 9)]
    lattices += [l_mn(m, k) for m in range(1, 6) for k in range(1, 7 - m)]
    assert _oracle_disagreements(lattices) == (121, [])


def test_chain_order_is_the_first_valid_permutation():
    # the bipartition guess once found (3, 1, 5, 2) at this anchor
    L = FinLattice((511, 466, 420, 328, 464, 416, 320, 384, 256))
    assert first_chain_order(L, 5) == (2, 5, 1, 3)
    assert chain_order(L, 5).chain == (2, 5, 1, 3)


def test_induced_map_positions():
    L = co_chain(3)
    chain = tuple(by_label(L, s) for s in ("{0}", "{1}", "{2}"))
    phi = induced_map(L, chain)
    assert phi[by_label(L, "{}")] == ()
    assert phi[by_label(L, "{0,1}")] == (0, 1)
    assert phi[by_label(L, "{1,2}")] == (1, 2)
    assert phi[by_label(L, "{0,1,2}")] == (0, 1, 2)


# -- decide_sub_lo ----------------------------------------------------------


def test_diamond_rejected_at_first_anchor(diamond):
    # the Sigma diagnostics of a rejection are the CLI's (tests/test_cli.py)
    r = decide_sub_lo(diamond)
    assert not r.accepted
    assert r.certificate is None
    assert r.anchor == diamond.join_irreducibles[0]


def test_pentagon_accepted(pentagon):
    r = decide_sub_lo(pentagon)
    assert r.accepted and r.anchor is None
    assert verify_certificate(pentagon, r.certificate)
    c = by_label(pentagon, "c")
    wit = next(w for w in r.certificate.witnesses if w.anchor == c)
    assert len(wit.chain) == 3


def test_pentagon_single_anchor_injective(pentagon):
    # subdirectly irreducible: some anchor must see all of J(L) injectively
    r = decide_sub_lo(pentagon)
    k = len(pentagon.join_irreducibles)
    full = [
        m
        for w, m in zip(r.certificate.witnesses, r.certificate.maps)
        if len(w.chain) == k
    ]
    assert any(len(set(m)) == pentagon.n for m in full)


def test_co4_certificate_size():
    L = co_chain(4)
    r = decide_sub_lo(L)
    assert r.accepted
    total = sum(r.certificate.chain_sizes)
    assert total == 10
    assert total <= len(L.join_irreducibles) ** 2
    assert verify_certificate(L, r.certificate)


def test_one_element_lattice_accepted():
    one = lattice_from_json({"size": 1, "leq_pairs": []})
    r = decide_sub_lo(one)
    assert r.accepted
    assert r.certificate.witnesses == ()
    assert verify_certificate(one, r.certificate)


def test_workers_agree():
    L = co_chain(4)
    assert decide_sub_lo(L, workers=2) == decide_sub_lo(L)


def test_workers_agree_on_rejection(diamond):
    r1 = decide_sub_lo(diamond)
    r2 = decide_sub_lo(diamond, workers=2)
    assert (r1.accepted, r1.anchor) == (r2.accepted, r2.anchor)


# sha256 of [accepted, anchor, certificate chains] per lattice of size <= 9
DECISIONS_UP_TO_9 = "9027fa0c5d5e0aee00bfd2a23f0e801d4a6dacce7ca41f795b46057bf4c8d005"


def test_decisions_pinned_up_to_nine():
    rows = []
    for L in iter_lattices(9):
        r = decide_sub_lo(L)
        chains = None if r.certificate is None else [list(w.chain) for w in r.certificate.witnesses]
        rows.append([r.accepted, r.anchor, chains])
    assert (len(rows), sum(row[0] for row in rows)) == (1378, 283)
    sha = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
    assert sha == DECISIONS_UP_TO_9


def test_accepted_lattices_satisfy_identities():
    for L in iter_lattices(5):
        if decide_sub_lo(L).accepted:
            for name in ("E", "P", "HS"):
                assert check(L, builtin(name)).holds, (L.up, name)


# -- decide_sub_n -----------------------------------------------------------


def test_sub_n_examples(pentagon):
    C3 = co_chain(3)
    assert decide_sub_n(C3, 3)
    assert not decide_sub_n(C3, 2)
    square = direct_product(co_chain(1), co_chain(1))
    assert decide_sub_n(square, 2)
    assert decide_sub_n(pentagon, 3)
    assert not decide_sub_n(pentagon, 2)


def test_sub_zero_is_trivial_variety():
    one = lattice_from_json({"size": 1, "leq_pairs": []})
    assert decide_sub_n(one, 0)
    assert not decide_sub_n(co_chain(1), 0)


def test_sub_n_rejects_negative():
    with pytest.raises(ValueError):
        decide_sub_n(co_chain(2), -1)


def test_least_level_is_the_widest_embedded_catalog_lattice():
    # the catalog oracle: the least n with L in SUB(n) is the largest
    # |J(K)| over the catalog SI lattices K that embed in L
    levels = []
    for L in iter_lattices(8):
        if decide_sub_lo(L).accepted:
            level = catalog_level(L)
            assert decide_sub_n(L, level), L.up
            assert level == 0 or not decide_sub_n(L, level - 1), L.up
            levels.append(level)
    assert [levels.count(n) for n in range(5)] == [1, 35, 0, 67, 1]


def test_distributive_in_sub_two():
    for L in iter_lattices(6):
        if structural_predicates(L).distributive:
            assert decide_sub_n(L, 2)


# -- certificates -----------------------------------------------------------


def test_certificate_json_round_trip():
    L = co_chain(4)
    cert = decide_sub_lo(L).certificate
    data = json.loads(json.dumps(certificate_to_json(L, cert)))
    back = certificate_from_json(L, data)
    assert back == cert
    assert verify_certificate(L, back)


def test_certificate_swapped_chain_fails():
    L = co_chain(4)
    data = certificate_to_json(L, decide_sub_lo(L).certificate)
    item = next(d for d in data if len(d["chain"]) >= 2)
    item["chain"][0], item["chain"][1] = item["chain"][1], item["chain"][0]
    assert not verify_certificate(L, certificate_from_json(L, data))


def test_certificate_tampered_map_fails():
    L = co_chain(4)
    cert = decide_sub_lo(L).certificate
    data = certificate_to_json(L, cert)
    item = next(d for d in data if len(d["chain"]) >= 2)
    top_label = L.label_of(L.top)
    item["map"][top_label] = item["map"][top_label][:-1]
    assert not verify_certificate(L, certificate_from_json(L, data))


def test_certificate_missing_witness_fails():
    L = co_chain(4)
    cert = decide_sub_lo(L).certificate
    pruned = EmbeddingCertificate(cert.witnesses[1:], cert.maps[1:])
    assert not verify_certificate(L, pruned)


def test_certificate_wrong_chain_members_fails(pentagon):
    cert = decide_sub_lo(pentagon).certificate
    a = pentagon.join_irreducibles[0]
    bad = tuple(
        ChainOrderWitness(w.anchor, (a,) * len(w.chain)) for w in cert.witnesses
    )
    assert not verify_certificate(
        pentagon, EmbeddingCertificate(bad, cert.maps)
    )


# -- brute-force oracle -----------------------------------------------------


def test_oracle_examples(pentagon, diamond):
    assert not brute_force_oracle(diamond)
    assert brute_force_oracle(pentagon)


def test_oracle_size_guard():
    big = direct_product(co_chain(2), co_chain(2))  # 16 elements
    with pytest.raises(ValueError):
        brute_force_oracle(big)


def test_oracle_matches_decision_to_size_six():
    for L in iter_lattices(6):
        assert decide_sub_lo(L).accepted == brute_force_oracle(L), L.up


def test_oracle_matches_decision_at_size_eight():
    lattices = lattices_of_size(8)
    verdicts = [brute_force_oracle(L) for L in lattices]
    assert verdicts == [decide_sub_lo(L).accepted for L in lattices]
    assert (len(verdicts), sum(verdicts)) == (222, 63)


def test_separating_homs_are_homomorphisms_to_size_six():
    # every map the oracle's search returns is a lattice homomorphism into
    # Co(|J(L)|) that keeps its pair unordered
    found = missing = 0
    for L in iter_lattices(6):
        k = len(L.join_irreducibles)
        co = co_chain(k)
        for x in range(L.n):
            for y in range(L.n):
                if x == y or L.leq(x, y):
                    continue
                hom = _separating_hom(L, k, x, y)
                if hom is None:
                    missing += 1
                    continue
                found += 1
                assert LatticeMap(L, co, tuple(hom)).preserves_ops(), (L.up, x, y)
                assert not co.leq(hom[x], hom[y]), (L.up, x, y)
    assert found and missing


# -- structural bounds ------------------------------------------------------


def test_max_anchor_size_of_co_chain():
    # the 2-chain is the one exception to max |J_a| = n below 7
    for n in (1, 3, 4, 5, 6):
        L = co_chain(n)
        assert max(len(dependency_closure(L, a)) for a in L.join_irreducibles) == n
    L2 = co_chain(2)
    assert max(len(dependency_closure(L2, a)) for a in L2.join_irreducibles) == 1


def test_co_chains_in_their_own_class():
    for n in (3, 4, 5):
        L = co_chain(n)
        assert decide_sub_n(L, n)
        assert not decide_sub_n(L, n - 1)
