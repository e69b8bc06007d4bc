"""Core lattice machinery: tables, predicates, congruences, searches, enumeration."""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from colat.catalog import co_chain, l_mn
from colat.lattice import (
    FinLattice,
    LatticeError,
    LatticeMap,
    _order_embeddings,
    _principal_congruences,
    _quotient,
    bits,
    congruence_lattice,
    direct_product,
    embedding_search,
    find_isomorphism,
    isomorphisms,
    iter_lattices,
    lattice_from_json,
    lattice_to_json,
    lattices_of_size,
    monolith,
    principal_congruence,
    surjection_search,
)
from colat.membership import decide_sub_lo
from colat.poset import Poset
from colat.star import LABELS, _completions
from colat.terms import builtin, check
from examples import chain_lattice, diamond, pentagon
from oracles import backtracking_surjections, d_closure, distributive


def test_tables_on_pentagon():
    L = pentagon()
    a, c, b = 1, 2, 3
    assert L.join_table[a][b] == 4
    assert L.meet_table[c][b] == 0
    assert L.join_irreducibles == (1, 2, 3)
    assert L.lower_covers[2] == (1,)
    assert L.bottom == 0 and L.top == 4


def test_rejects_non_lattice_order():
    # two maximal elements: pair {1,2} has no join
    with pytest.raises(LatticeError):
        FinLattice((0b111, 0b010, 0b100))


def test_label_count_checked():
    with pytest.raises(LatticeError, match="label count does not match element count"):
        FinLattice((0b11, 0b10), labels=("0", "1", "2"))


def test_rejects_bowtie():
    # two incomparable elements with two minimal common upper bounds
    with pytest.raises(LatticeError):
        lattice_from_json({
            "size": 6,
            "leq_pairs": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4],
                          [0, 3], [0, 4], [0, 5], [1, 5], [2, 5], [3, 5], [4, 5]],
        })


def test_structural_predicates():
    d2dual = builtin("D2DUAL")
    assert distributive(chain_lattice(4)) and check(chain_lattice(4), d2dual).holds
    assert not distributive(pentagon()) and check(pentagon(), d2dual).holds
    assert not distributive(diamond())
    L, _ = Poset.chain(4).co_lattice()
    assert not distributive(L) and check(L, d2dual).holds


def _brute_congruence_closure(L: FinLattice, a: int, b: int) -> tuple[int, ...]:
    # independent oracle: saturate a partition under the operation rules
    block = list(range(L.n))

    def merge(x, y):
        bx, by = block[x], block[y]
        if bx == by:
            return False
        lo, hi = min(bx, by), max(bx, by)
        for i in range(L.n):
            if block[i] == hi:
                block[i] = lo
        return True

    merge(L.meet_table[a][b], L.join_table[a][b])
    changed = True
    while changed:
        changed = False
        for x in range(L.n):
            for y in range(L.n):
                if block[x] == block[y]:
                    for c in range(L.n):
                        if merge(L.join_table[x][c], L.join_table[y][c]):
                            changed = True
                        if merge(L.meet_table[x][c], L.meet_table[y][c]):
                            changed = True
    return tuple(block)


@pytest.mark.parametrize("make", [pentagon, diamond, lambda: chain_lattice(5)])
def test_principal_congruence_matches_oracle(make):
    L = make()
    for a in range(L.n):
        for b in range(L.n):
            got = principal_congruence(L, a, b)
            assert got.block_of == _brute_congruence_closure(L, a, b)


def test_congruence_blocks_are_intervals():
    for make in (pentagon, diamond):
        L = make()
        for a in range(L.n):
            for b in range(L.n):
                block_of = principal_congruence(L, a, b).block_of
                for r in set(block_of):
                    blk = [x for x in range(L.n) if block_of[x] == r]
                    lo = L.meet_of(blk)
                    hi = L.join_of(blk)
                    for x in range(L.n):
                        if L.leq(lo, x) and L.leq(x, hi):
                            assert x in blk


def test_monolith_diamond_is_full():
    th = monolith(diamond())
    assert th is not None and set(th.block_of) == {0}


def test_monolith_pentagon():
    L = pentagon()
    th = monolith(L)
    # the least nonzero congruence collapses a with its upper cover c
    assert th is not None
    assert th.same(1, 2)
    assert not th.same(0, 3)


def test_monolith_absent_on_products():
    L = direct_product(chain_lattice(2), chain_lattice(2))
    assert monolith(L) is None


def _refines(a, b) -> bool:
    # every element shares its block of b with the least member of its block of a
    return all(b.block_of[i] == b.block_of[r] for i, r in enumerate(a.block_of))


def test_monolith_agrees_with_full_congruence_enumeration():
    for L in iter_lattices(8):
        nonzero = [c for c in congruence_lattice(L) if c.block_of != tuple(range(L.n))]
        atoms = [c for c in nonzero if not any(o != c and _refines(o, c) for o in nonzero)]
        th = monolith(L)
        if len(atoms) == 1:
            assert th is not None and th.block_of == atoms[0].block_of
        else:
            assert th is None


# sha256 of compact JSON, over the 300 lattices of size <= 8 in iter_lattices
# order, of: each lattice's congruences as a sorted list of block_of lists
# (3,308 in all: 1, 2, 4, 12, 39, 141, 567 and 2,542 by size); each lattice's
# monolith's block_of, or null; and, for each of the 104 members that
# decide_sub_lo accepts, the sorted surjection_search values onto Co(1),
# Co(3), L(1,1), L(1,2) and L(2,1) (497 maps).  Recorded from the frontier
# closure that joined every new congruence with every principal one.
CONGRUENCES_UP_TO_8 = "43a402fe6d1d5d36d69a792f58b7978167a96c4450d6cbec402748899e3d848d"
MONOLITHS_UP_TO_8 = "8048cc8bd3cc5dd9e57a458bd70748fa7915d56229180f58115042c9fc46c7b9"
SURJECTIONS_UP_TO_8 = "49f97c0caf487a015e30c6c71d2887296a3c8ddd36864b8807ec5be7ef074d9e"


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


def test_congruences_and_monoliths_pinned_up_to_eight():
    corpus = list(iter_lattices(8))
    cons = [sorted(list(c.block_of) for c in congruence_lattice(L)) for L in corpus]
    assert [sum(len(c) for L, c in zip(corpus, cons) if L.n == n) for n in range(1, 9)] \
        == [1, 2, 4, 12, 39, 141, 567, 2542]
    assert _sha(cons) == CONGRUENCES_UP_TO_8
    monos = [None if (m := monolith(L)) is None else list(m.block_of) for L in corpus]
    assert _sha(monos) == MONOLITHS_UP_TO_8


def test_surjections_pinned_up_to_eight():
    members = [L for L in iter_lattices(8) if decide_sub_lo(L).accepted]
    targets = [co_chain(1), co_chain(3), l_mn(1, 1), l_mn(1, 2), l_mn(2, 1)]
    found = [[list(surjection_search(L, T)) for T in targets] for L in members]
    assert all(m.surjective and m.preserves_ops() for per in found for row in per for m in row)
    maps = [[sorted(list(m.values) for m in row) for row in per] for per in found]
    assert (len(members), sum(len(row) for per in maps for row in per)) == (104, 497)
    assert _sha(maps) == SURJECTIONS_UP_TO_8


def test_quotient_maps_onto_its_blocks():
    # for every congruence theta of the lattices of size <= 7, the quotient
    # map is a surjective homomorphism whose kernel is theta
    count = 0
    for L in iter_lattices(7):
        for theta in congruence_lattice(L):
            q = _quotient(L, theta)
            assert q.surjective and q.preserves_ops(), (L.up, theta)
            assert all((q(x) == q(y)) == theta.same(x, y)
                       for x in range(L.n) for y in range(L.n)), (L.up, theta)
            count += 1
    assert count == 766


def test_principal_order_is_the_closure_of_d():
    # con(j_*, j) refines con(k_*, k) iff j D* k, and _principal_congruences
    # orders the distinct principals the same way
    for L in iter_lattices(8):
        jis = L.join_irreducibles
        con = {j: principal_congruence(L, L.lower_covers[j][0], j) for j in jis}
        refines = {(j, k) for j in jis for k in jis
                   if con[k].same(L.lower_covers[j][0], j)}
        assert d_closure(L) == refines
        principals, below = _principal_congruences(L)
        index = {th: i for i, th in enumerate(principals)}
        assert set(index) == set(con.values())
        assert refines == {(j, k) for j in jis for k in jis
                           if below[index[con[k]]] >> index[con[j]] & 1}


# sha256 of compact JSON of (join_table, meet_table, bottom, top) over: the
# 300 lattices of size <= 8; Co(1..8) and L(m,n) with m + n <= 5; the four
# products among the census sources of test_census_order_embeddings_pinned;
# and Co(Q) and Co(P), P = Q without c, of the 28 completions of (*)
TABLES = "98fc24c72e24ed1872cfe74cd130f0fe119db81b60ccacabfc8fc484d4fa11f9"


def test_tables_pinned():
    base = [co_chain(2), co_chain(3), co_chain(4), co_chain(5), l_mn(1, 1), l_mn(1, 2)]
    keep = [i for i, label in enumerate(LABELS) if label != "c"]
    corpus = (list(iter_lattices(8)) + [co_chain(n) for n in range(1, 9)]
              + [l_mn(m, k) for m in range(1, 5) for k in range(1, 6 - m)]
              + [direct_product(A, B)
                 for A, B in itertools.combinations_with_replacement(base, 2)
                 if A.n * B.n <= 28]
              + [R.co_lattice()[0] for _, Q in _completions() for R in (Q, Q.restrict(keep))])
    assert len(corpus) == 300 + 8 + 10 + 4 + 56
    assert _sha([[L.join_table, L.meet_table, L.bottom, L.top] for L in corpus]) == TABLES


def test_direct_product_shape():
    L = direct_product(chain_lattice(2), chain_lattice(3))
    assert L.n == 6
    assert distributive(L)
    Co3, _ = Poset.chain(3).co_lattice()
    Co2, _ = Poset.chain(2).co_lattice()
    assert direct_product(Co3, Co2).n == 28


def test_embedding_search_chain_into_chain():
    m = embedding_search(chain_lattice(2), chain_lattice(3))
    assert m is not None
    assert m.injective and m.preserves_ops()
    assert m.values == (0, 1)  # lexicographically least


def test_embedding_search_diamond_into_co5_fails():
    L, _ = Poset.chain(5).co_lattice()
    assert embedding_search(diamond(), L) is None


def test_embedding_search_pentagon_into_co3():
    L, _ = Poset.chain(3).co_lattice()
    m = embedding_search(pentagon(), L)
    assert m is not None and m.injective and m.preserves_ops()


def test_surjection_search_none_upward():
    assert list(surjection_search(chain_lattice(2), chain_lattice(3))) == []


def test_surjection_search_projection_found():
    K = direct_product(chain_lattice(2), chain_lattice(2))
    L = chain_lattice(2)
    maps = list(surjection_search(K, L))
    assert maps
    for m in maps:
        assert m.surjective and m.preserves_ops()
    # the two coordinate projections are among them
    values = {m.values for m in maps}
    assert (0, 0, 1, 1) in values and (0, 1, 0, 1) in values


def _same_surjections_as_oracle(K: FinLattice, T: FinLattice) -> None:
    got = [m.values for m in surjection_search(K, T)]
    assert got == [m.values for m in backtracking_surjections(K, T)]


def test_surjection_search_matches_oracle_on_small_lattices():
    targets = [co_chain(1), co_chain(2), co_chain(3), l_mn(1, 1), l_mn(1, 2)]
    for K in iter_lattices(7):
        for T in targets:
            _same_surjections_as_oracle(K, T)


def test_surjection_search_matches_oracle_on_census_sources():
    base = [co_chain(2), co_chain(3), co_chain(4), co_chain(5), l_mn(1, 1), l_mn(1, 2)]
    sources = base + [direct_product(A, B)
                      for A, B in itertools.combinations_with_replacement(base, 2)
                      if A.n * B.n <= 20]
    assert len(sources) == 8
    for K in sources:
        for T in (co_chain(3), l_mn(1, 1), l_mn(1, 2)):
            _same_surjections_as_oracle(K, T)


# sha256 of compact JSON over the census sources (Co(2) to Co(5), L(1,1),
# L(1,2) and their products of at most 28 elements) and the targets Co(3),
# L(1,1) and L(1,2): for each pair, the isomorphisms values from K/theta onto
# the target for every congruence theta of K with as many blocks as the
# target has elements, every image tuple _order_embeddings yields for
# embedding_search's candidates from the target into K, and the
# embedding_search values (11 isomorphisms and 27,578 image tuples)
CENSUS_ORDER_EMBEDDINGS = "4c35a0cd31fe8913249b9a14b46fa833ea6f392b193ebeba2ce4455fdabde235"


def _block_order(K: FinLattice, theta) -> FinLattice:
    # the blocks by least member, [a] <= [b] iff a ^ b lies in the block of a
    reps = sorted(set(theta.block_of))
    return FinLattice(tuple(sum(1 << q for q, b in enumerate(reps)
                                if theta.same(K.meet_table[a][b], a)) for a in reps))


def test_census_order_embeddings_pinned():
    base = [co_chain(2), co_chain(3), co_chain(4), co_chain(5), l_mn(1, 1), l_mn(1, 2)]
    sources = base + [direct_product(A, B)
                      for A, B in itertools.combinations_with_replacement(base, 2)
                      if A.n * B.n <= 28]
    out = []
    for K in sources:
        cons = congruence_lattice(K)
        for T in (co_chain(3), l_mn(1, 1), l_mn(1, 2)):
            isos = [[m.values for m in isomorphisms(_block_order(K, th), T)]
                    for th in cons if len(set(th.block_of)) == T.n]
            jis = T.join_irreducibles
            tuples = [list(_order_embeddings(T, K, jis, [list(bits(K.up[b] & ~(1 << b)))] * len(jis)))
                      for b in range(K.n)]
            emb = embedding_search(T, K)
            out.append([isos, tuples, None if emb is None else emb.values])
    assert len(sources) == 10
    assert _sha(out) == CENSUS_ORDER_EMBEDDINGS


def test_isomorphisms_are_the_automorphisms_of_co3():
    T = co_chain(3)
    autos = list(isomorphisms(T, T))
    # the identity and the mirror image of the chain
    assert len(autos) == 2
    assert autos[0].values == tuple(range(T.n))
    assert all(m.preserves_ops() and m.injective for m in autos)


def test_find_isomorphism():
    L1, _ = Poset.chain(3).co_lattice()
    L2, _ = Poset.chain(3).dual().co_lattice()
    iso = find_isomorphism(L1, L2)
    assert iso is not None and iso.injective and iso.preserves_ops()
    assert find_isomorphism(pentagon(), diamond()) is None


def _orientation_orders(n: int):
    # independent oracle: every orientation of each unordered pair, filtered
    # to transitive orders, as up-set tuples
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), st in zip(pairs, states):
            if st == 1:
                up[i] |= 1 << j
            elif st == 2:
                up[j] |= 1 << i
        ok = True
        for i in range(n):
            m = up[i]
            while m:
                k = (m & -m).bit_length() - 1
                m &= m - 1
                if up[k] & ~up[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tuple(up)


def _brute_lattice_count(n: int) -> int:
    # the lattice orders of _orientation_orders, deduplicated by permutation
    seen = set()
    count = 0
    for up in _orientation_orders(n):
        try:
            FinLattice(up, validate=False)
        except LatticeError:
            continue
        key = min(_permute_up(up, p) for p in itertools.permutations(range(n)))
        if key not in seen:
            seen.add(key)
            count += 1
    return count


def _permute_up(up, perm):
    n = len(up)
    out = [0] * n
    for i in range(n):
        m = up[i]
        mask = 0
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            mask |= 1 << perm[j]
        out[perm[i]] = mask
    return tuple(out)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 5)])
def test_small_lattice_counts_match_brute_force(n, count):
    assert len(lattices_of_size(n)) == count == _brute_lattice_count(n)


# sha256 of compact JSON, over the orders of _orientation_orders(n) for
# n = 0..5 that are not lattices (4,049 of the 4,474), of each up-set list
# with the message of the LatticeError that FinLattice raises on it; all
# five messages occur, "lacks bottom or top" only on the empty order
NON_LATTICE_MESSAGES_UP_TO_5 = "a36892f1c6b3213142a1696248226c1d339d4749e5fd4cbaf0f884c861b30596"


def test_non_lattice_messages_pinned():
    out = []
    for n in range(6):
        for up in _orientation_orders(n):
            try:
                FinLattice(up, validate=False)
            except LatticeError as exc:
                out.append([list(up), str(exc)])
    assert len(out) == 4049
    assert _sha(out) == NON_LATTICE_MESSAGES_UP_TO_5


def test_lattice_counts_six_seven():
    # frozen from the enumerator after cross-checking sizes 1..5 above
    assert len(lattices_of_size(6)) == 15
    assert len(lattices_of_size(7)) == 53


# sha256 of the compact JSON list of up-set tuples of lattices_of_size(n) for
# n = 1..9, recorded from the deduplicating enumerator; pins the order that
# the pinned map, dependency, term and paper-claim tests rely on
ENUMERATION_UP_TO_9 = "31a24a2796ea033f1384ea4f13293e624c21aa57040c520f2067420e54f8bc8e"


def test_enumeration_pinned_up_to_nine():
    ups = [[list(L.up) for L in lattices_of_size(n)] for n in range(1, 10)]
    text = json.dumps(ups, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_UP_TO_9


@pytest.mark.parametrize("n", [5, 6, 7])
def test_enumerated_lattices_are_pairwise_non_isomorphic(n):
    ls = lattices_of_size(n)
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            assert find_isomorphism(ls[i], ls[j]) is None


def test_json_round_trip():
    L = pentagon()
    M = lattice_from_json(lattice_to_json(L))
    assert M.up == L.up and M.labels == L.labels


@pytest.mark.parametrize("data", [
    {"size": "abc", "leq_pairs": []},
    {"size": 3, "leq_pairs": [1, 2]},
    {"size": 3, "leq_pairs": [[0, 1, 2]]},
    {"size": 3, "leq_pairs": [["0", 1]]},
    {"size": 3, "leq_pairs": 5},
    {"size": 2, "leq_pairs": [[0, 1]], "labels": ["a", "a"]},
    {"size": 2, "leq_pairs": [[0, 1]], "labels": 7},
    {"size": 2.5, "leq_pairs": [[0, 1]]},
    {"size": "3", "leq_pairs": [[0, 1], [1, 2]]},
    {"size": True, "leq_pairs": []},
    {"size": 2, "leq_pairs": [[False, True]]},
])
def test_lattice_from_json_rejects_malformed(data):
    with pytest.raises(LatticeError):
        lattice_from_json(data)


def test_lattice_from_json_counts_pairs_before_allocating():
    # a connected order on n elements needs n - 1 pairs; the tables of
    # 3,000 elements would take 170 MB before the missing bound shows
    with pytest.raises(LatticeError, match="0 leq pairs cannot connect 3000 elements"):
        lattice_from_json({"size": 3000, "leq_pairs": []})


def test_map_compose_and_verify():
    K = chain_lattice(3)
    ident = LatticeMap(K, K, (0, 1, 2))
    assert ident.preserves_ops() and ident.injective and ident.surjective
    collapse = LatticeMap(K, chain_lattice(2), (0, 1, 1))
    assert collapse.preserves_ops() and collapse.surjective and not collapse.injective
