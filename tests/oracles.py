"""Slow reference implementations that the tests compare the package against."""

from itertools import combinations, permutations, product

from colat.catalog import co_chain, l_mn
from colat.depend import dependency_closure
from colat.lattice import (FinLattice, LatticeMap, bits, congruence_lattice, embedding_search,
                           monolith)
from colat.poset import Poset
from colat.terms import CheckResult, Identity, Term, check, parse_term


def _derived_hom(K: FinLattice, target: FinLattice, bot_img: int,
                 ji_imgs: dict[int, int]) -> tuple[int, ...]:
    # a private copy, so the reference never runs on the code it checks
    out = []
    for x in range(K.n):
        v = bot_img
        for j in bits(K.down[x]):
            if j in ji_imgs:
                v = target.join_table[v][ji_imgs[j]]
        out.append(v)
    return tuple(out)


def backtracking_surjections(K: FinLattice, L: FinLattice):
    """Iterate all surjective lattice homomorphisms from K onto L.

    Backtracks over images of the bottom and the join-irreducibles of K,
    derives the rest of the map by joins and keeps the maps that are
    surjective homomorphisms.  Deterministic order: lexicographic in
    (bottom image, join-irreducible images with join-irreducibles
    ascending).
    """
    if K.n < L.n:
        return
    jis = list(K.join_irreducibles)

    def extend(idx: int, bot_img: int, imgs: dict[int, int]):
        if idx == len(jis):
            values = _derived_hom(K, L, bot_img, imgs)
            cand = LatticeMap(K, L, values)
            if cand.surjective and cand.preserves_ops():
                yield cand
            return
        j = jis[idx]
        for v in range(L.n):
            if not L.leq(bot_img, v):
                continue
            ok = True
            for j2, v2 in imgs.items():
                if K.leq(j2, j) and not L.leq(v2, v):
                    ok = False
                    break
                if K.leq(j, j2) and not L.leq(v, v2):
                    ok = False
                    break
            if ok:
                imgs[j] = v
                yield from extend(idx + 1, bot_img, imgs)
                del imgs[j]

    for b in range(L.n):
        yield from extend(0, b, {})


def _value(L: FinLattice, t: Term, env: dict[str, int]) -> int:
    if t.kind == "var":
        return env[t.name]
    table = L.join_table if t.kind == "join" else L.meet_table
    acc = _value(L, t.children[0], env)
    for c in t.children[1:]:
        acc = table[acc][_value(L, c, env)]
    return acc


def naive_check(L: FinLattice, ident: Identity) -> CheckResult:
    """The sweep of every assignment in pure python, in lexicographic order
    of the declared variables; the first where the two sides differ ("eq")
    or lhs is not below rhs ("leq") is the witness."""
    names, total = ident.variables, L.n ** len(ident.variables)
    for values in product(range(L.n), repeat=len(names)):
        env = dict(zip(names, values))
        lv, rv = _value(L, ident.lhs, env), _value(L, ident.rhs, env)
        if not (lv == rv if ident.relation == "eq" else L.leq(lv, rv)):
            return CheckResult(ident.name, False, env, total)
    return CheckResult(ident.name, True, None, total)


def demand_update(L: FinLattice, nodes, values: list, dirty: int) -> None:
    """The demand search's node update as a plain loop: recompute, in place
    and children first, each operation node of a terms._term_nodes list that
    reads a variable in dirty, folding its children left to right."""
    tables = {"join": L.join_table, "meet": L.meet_table}
    plan = [(k, tables[kind], kids[0], kids[1], kids[2:])
            for k, (kind, kids, _, support) in enumerate(nodes)
            if kind != "var" and support & dirty]
    for k, table, k0, k1, more in plan:
        acc = table[values[k0]][values[k1]]
        for c in more:
            acc = table[acc][values[c]]
        values[k] = acc


DISTRIBUTIVE = Identity("distributive", ("x", "y", "z"), "eq",
                        parse_term("(^ x (v y z))"), parse_term("(v (^ x y) (^ x z))"))


def distributive(L: FinLattice) -> bool:
    """Whether L satisfies the distributive law, by check."""
    return check(L, DISTRIBUTIVE).holds


def d_closure(L: FinLattice) -> set[tuple[int, int]]:
    """The pairs (j, k) of join-irreducibles with j D* k, the reflexive-
    transitive closure of the D relation: j D k iff j != k and some x has
    j <= k v x but not j <= k_* v x, where k_* is the lower cover of k
    (Freese, Jezek and Nation, Free Lattices, 2.5)."""
    jis = L.join_irreducibles
    star = {k: L.lower_covers[k][0] for k in jis}
    reach = {j: {j} | {k for k in jis if k != j and any(
        L.leq(j, L.join(k, x)) and not L.leq(j, L.join(star[k], x)) for x in range(L.n))}
        for j in jis}
    changed = True
    while changed:
        changed = False
        for j in jis:
            grown = reach[j].union(*(reach[k] for k in reach[j]))
            if grown != reach[j]:
                reach[j], changed = grown, True
    return {(j, k) for j in jis for k in reach[j]}


def _hull(positions: frozenset) -> frozenset:
    return frozenset(range(min(positions), max(positions) + 1)) if positions else positions


def first_chain_order(L: FinLattice, a: int) -> tuple[int, ...] | None:
    """The first order of J_a(L), in permutations order over ascending ids,
    whose trace map x |-> {i : chain[i] <= x} is a homomorphism into the
    convex subsets of the chain, or None when no order is.

    Every trace must be an interval, the trace of x v y the hull of the two
    traces and the trace of x ^ y their intersection.
    """
    ja = dependency_closure(L, a)
    below = [[b for b in ja if L.leq(b, x)] for x in range(L.n)]
    for chain in permutations(ja):
        pos = {b: i for i, b in enumerate(chain)}
        traces = [frozenset(pos[b] for b in members) for members in below]
        if all(t == _hull(t) for t in traces) and all(
                traces[L.join(x, y)] == _hull(traces[x] | traces[y])
                and traces[L.meet(x, y)] == traces[x] & traces[y]
                for x, y in combinations(range(L.n), 2)):
            return chain
    return None


def _catalog_si(size: int) -> tuple[FinLattice, ...]:
    """The catalog SI lattices with size join-irreducibles."""
    return ((co_chain(size),) if size != 2 else ()) + tuple(
        l_mn(m, size - 1 - m) for m in range(1, size - 1))


def catalog_level(L: FinLattice) -> int:
    """The largest |J(K)| over the catalog subdirectly irreducible lattices
    K, Co(k) for k != 2 and L(m, k), that embed in L; 0 when none does.

    SUB(n) = ISP(Co(n)), and a subdirectly irreducible sublattice of a
    product embeds in one of its factors, so for a member of SUB(LO) this
    is the least n with L in SUB(n).
    """
    level = 0
    for size in range(1, len(L.join_irreducibles) + 1):
        if any(embedding_search(K, L) is not None for K in _catalog_si(size)):
            level = size
    return level


def si_quotients(L: FinLattice):
    """The subdirectly irreducible quotients of L, each L/theta built as the
    greatest members of the blocks of theta in the order of L: [a] <= [b]
    iff the greatest member of [a] lies below the greatest member of [b]."""
    for theta in congruence_lattice(L):
        blocks: dict[int, list[int]] = {}
        for x, b in enumerate(theta.block_of):
            blocks.setdefault(b, []).append(x)
        tops = sorted({L.join_of(block) for block in blocks.values()})
        K = FinLattice(tuple(sum(1 << q for q, t in enumerate(tops) if L.leq(s, t))
                             for s in tops))
        if monolith(K) is not None:
            yield K


def in_sub_n(L: FinLattice, n: int) -> bool:
    """Whether L lies in SUB(n), read off its SI quotients.

    SUB(n) is a variety of lattices, so L lies in it iff each SI quotient
    of L does; L is a subdirect product of those.  An SI lattice lies in
    SUB(n) = ISP(Co(n)) iff it embeds in Co(n), since an SI sublattice of
    a product embeds in one of its factors.
    """
    co = Poset.chain(n).co_lattice()[0]
    return all(embedding_search(K, co) is not None for K in si_quotients(L))
