import hashlib
import json
import random

import pytest

from colat.catalog import l_mn
from colat.depend import dependency_closure
from colat.lattice import (
    FinLattice,
    direct_product,
    iter_lattices,
    lattice_from_json,
    lattices_of_size,
)
from colat.membership import (
    ChainOrderWitness,
    EmbeddingCertificate,
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
from examples import by_label, diamond, pentagon
from oracles import catalog_level, distributive, first_chain_order, in_sub_n


def co_chain(n):
    return Poset.chain(n).co_lattice()[0]


# -- chain_order ------------------------------------------------------------


def test_chain_order_co3_middle_singleton():
    L = co_chain(3)
    a = by_label(L, "{1}")
    w = chain_order(L, a)
    labels = tuple(L.labels[b] for b in w.chain)
    assert labels in (("{0}", "{1}", "{2}"), ("{2}", "{1}", "{0}"))


def test_chain_order_endpoint_is_trivial():
    L = co_chain(3)
    a = by_label(L, "{0}")
    w = chain_order(L, a)
    assert w.chain == (a,)


def test_chain_order_distributive_always_singleton():
    L = direct_product(co_chain(1), direct_product(co_chain(1), co_chain(1)))
    assert distributive(L)
    for a in L.join_irreducibles:
        assert chain_order(L, a).chain == (a,)


def test_chain_order_diamond_fails_every_atom():
    M = diamond()
    for a in M.join_irreducibles:
        assert chain_order(M, a) is None


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


def test_diamond_rejected_at_first_anchor():
    # the Sigma diagnostics of a rejection are the CLI's (tests/test_cli.py)
    M = diamond()
    r = decide_sub_lo(M)
    assert not r.accepted
    assert r.certificate is None
    assert r.anchor == M.join_irreducibles[0]


def test_pentagon_accepted():
    L = pentagon()
    r = decide_sub_lo(L)
    assert r.accepted and r.anchor is None
    assert verify_certificate(L, r.certificate)
    c = by_label(L, "c")
    wit = next(w for w in r.certificate.witnesses if w.anchor == c)
    assert len(wit.chain) == 3


def test_pentagon_single_anchor_injective():
    # subdirectly irreducible: some anchor must see all of J(L) injectively
    L = pentagon()
    r = decide_sub_lo(L)
    k = len(L.join_irreducibles)
    full = [
        m
        for w, m in zip(r.certificate.witnesses, r.certificate.maps)
        if len(w.chain) == k
    ]
    assert any(len(set(m)) == L.n for m in full)


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


def test_workers_agree_on_rejection():
    M = diamond()
    r1 = decide_sub_lo(M)
    r2 = decide_sub_lo(M, workers=2)
    assert (r1.accepted, r1.anchor) == (r2.accepted, r2.anchor)


# sha256 of [accepted, anchor, certificate chains] per lattice of size <= 9
DECISIONS_UP_TO_9 = "9027fa0c5d5e0aee00bfd2a23f0e801d4a6dacce7ca41f795b46057bf4c8d005"


def test_decisions_pinned_up_to_nine():
    rows = []
    for L in iter_lattices(9):
        r = decide_sub_lo(L)
        assert r.accepted == (r.certificate is not None)
        assert r.certificate is None or verify_certificate(L, r.certificate), L.up
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


def test_sub_n_examples():
    L = pentagon()
    C3 = co_chain(3)
    assert decide_sub_n(C3, 3)
    assert not decide_sub_n(C3, 2)
    square = direct_product(co_chain(1), co_chain(1))
    assert decide_sub_n(square, 2)
    assert decide_sub_n(L, 3)
    assert not decide_sub_n(L, 2)


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


def test_sub_n_matches_si_quotient_oracle_to_size_seven():
    # L is in SUB(n) iff every SI quotient of L embeds in Co(n)
    pairs = [(L, n) for L in iter_lattices(7) for n in range(len(L.join_irreducibles) + 2)]
    assert len(pairs) == 483
    assert not [(L.up, n) for L, n in pairs if decide_sub_n(L, n) != in_sub_n(L, n)]


def test_distributive_in_sub_two():
    for L in iter_lattices(6):
        if distributive(L):
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
    top_label = L.labels[L.top]
    item["map"][top_label] = item["map"][top_label][:-1]
    assert not verify_certificate(L, certificate_from_json(L, data))


@pytest.mark.parametrize("pos", [[False], [True], [0, True]])
def test_certificate_rejects_boolean_positions(pos):
    # False == 0 in a tuple comparison, so a boolean would verify as a position
    L = co_chain(1)
    data = certificate_to_json(L, decide_sub_lo(L).certificate)
    data[0]["map"][L.labels[L.top]] = pos
    with pytest.raises(ValueError, match="malformed certificate: map of"):
        certificate_from_json(L, data)


def test_certificate_of_non_member_fails():
    # on the order a, b, c every trace is an interval and every meet goes to
    # the intersection of traces, but a v b, the top, is traced onto all three
    M = diamond()
    chain = M.join_irreducibles
    traces = induced_map(M, chain)
    assert all(t == tuple(range(t[0], t[-1] + 1)) for t in traces if t)
    cert = EmbeddingCertificate(tuple(ChainOrderWitness(a, chain) for a in chain),
                                (traces,) * len(chain))
    assert not verify_certificate(M, cert)


def test_certificate_missing_witness_fails():
    L = co_chain(4)
    cert = decide_sub_lo(L).certificate
    pruned = EmbeddingCertificate(cert.witnesses[1:], cert.maps[1:])
    assert not verify_certificate(L, pruned)


def test_certificate_wrong_chain_members_fails():
    L = pentagon()
    cert = decide_sub_lo(L).certificate
    a = L.join_irreducibles[0]
    bad = tuple(
        ChainOrderWitness(w.anchor, (a,) * len(w.chain)) for w in cert.witnesses
    )
    assert not verify_certificate(
        L, EmbeddingCertificate(bad, cert.maps)
    )


def test_certificate_missing_map_fails():
    # zip would drop the witness without a map, so the counts are compared first
    L = co_chain(4)
    cert = decide_sub_lo(L).certificate
    assert not verify_certificate(L, EmbeddingCertificate(cert.witnesses, cert.maps[:-1]))


def test_certificate_repeated_chain_entry_fails():
    # a chain that repeats a member is no order of its anchor's dependency set,
    # even with every map recomputed from it
    L = pentagon()
    cert = decide_sub_lo(L).certificate
    w = next(w for w in cert.witnesses if len(w.chain) >= 2)
    long = ChainOrderWitness(w.anchor, w.chain + w.chain[:1])
    witnesses = tuple(long if v == w else v for v in cert.witnesses)
    maps = tuple(induced_map(L, v.chain) for v in witnesses)
    assert not verify_certificate(L, EmbeddingCertificate(witnesses, maps))


# sha256 of the compact JSON list of verify_certificate verdicts on 6 certificates
# per lattice of size <= 8, each chain a seeded random order of its anchor's
# dependency set and each map recomputed by induced_map
RANDOM_ORDER_VERDICTS = "eb76ea79ca440b7649255b63e3eef16c85943eb54a4d0edfb80c7e66f7ed490e"


def test_random_order_certificates_pinned():
    rng = random.Random(28)
    verdicts = []
    for L in iter_lattices(8):
        closures = [dependency_closure(L, a) for a in L.join_irreducibles]
        for _ in range(6):
            witnesses = tuple(ChainOrderWitness(a, tuple(rng.sample(ja, len(ja))))
                              for a, ja in zip(L.join_irreducibles, closures))
            maps = tuple(induced_map(L, w.chain) for w in witnesses)
            verdicts.append(verify_certificate(L, EmbeddingCertificate(witnesses, maps)))
    assert (len(verdicts), verdicts.count(False)) == (1800, 1507)
    sha = hashlib.sha256(json.dumps(verdicts, separators=(",", ":")).encode()).hexdigest()
    assert sha == RANDOM_ORDER_VERDICTS


# -- brute-force oracle -----------------------------------------------------


def test_oracle_examples():
    L = pentagon()
    M = diamond()
    assert not brute_force_oracle(M)
    assert brute_force_oracle(L)


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


# sha256 of the compact JSON list of brute_force_oracle verdicts over the
# 300 lattices of size <= 8, in iter_lattices order
ORACLE_UP_TO_8 = "ca4f39bbb66dacbc9df21413b9908d393169d41c5c59b0d837181a34dfdd0899"


def test_oracle_verdicts_pinned_up_to_eight():
    verdicts = [brute_force_oracle(L) for L in iter_lattices(8)]
    assert (len(verdicts), sum(verdicts)) == (300, 104)
    sha = hashlib.sha256(json.dumps(verdicts, separators=(",", ":")).encode()).hexdigest()
    assert sha == ORACLE_UP_TO_8


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
