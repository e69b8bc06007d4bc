"""Join-dependency structure: minimal covers, dependency sets, weak tracks."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .lattice import FinLattice, LatticeError, LatticeMap, _ji_extension


def min_covers(L: FinLattice, p: int) -> list[tuple[int, ...]]:
    """All minimal nontrivial join-covers of p, as sorted tuples of
    join-irreducibles.

    A cover E is minimal when every nontrivial join-cover refining E
    (each member below some member of E) contains E.  Candidates are
    antichains of join-irreducibles not above p; supersets of covers are
    never minimal, so the search stops as soon as the join reaches p.
    A candidate is minimal iff is_minimal_in(L, p, e, v(E - e)) holds for
    each member e (Freese, Jezek and Nation, Free Lattices, ch. 2): a
    cover G refining E that misses e lies below e_* v v(E - e), and when
    that join is above p, the join-irreducibles below e_* together with
    E - e form such a G.
    """
    if p not in L.join_irreducibles:
        raise ValueError(f"element {p} is not join-irreducible")
    jis = [j for j in L.join_irreducibles if not L.leq(p, j)]
    covers: list[tuple[int, ...]] = []

    def extend(start: int, chosen: list[int], join_val: int) -> None:
        for k in range(start, len(jis)):
            e = jis[k]
            if any(L.leq(e, c) or L.leq(c, e) for c in chosen):
                continue
            v = L.join_table[join_val][e]
            chosen.append(e)
            if not L.leq(p, v):
                extend(k + 1, chosen, v)
            elif all(is_minimal_in(L, p, c, L.join_of(d for d in chosen if d != c))
                     for c in chosen):
                covers.append(tuple(sorted(chosen)))
            chosen.pop()

    extend(0, [], L.bottom)
    covers.sort()
    return covers


def dependents(L: FinLattice, a: int) -> tuple[int, ...]:
    """Join-irreducibles occurring in some minimal nontrivial join-cover of a.

    These are the k != a in J(L) with a D k: some x has a <= k v x but
    not a <= k_* v x, where k_* is the lower cover of k.  Given such an
    x, every cover refining {k} u J(x) contains k, since the others lie
    below k_* v x; and every nontrivial cover refines to a minimal one,
    which then contains k.  Conversely, for a minimal cover E containing
    k, x = v(E - k) works: were a <= k_* v x, the join-irreducibles below
    k_* with E - k would refine E without k.

    Never a singleton: a minimal cover has at least two members, since a
    one-element nontrivial cover would put a below that element.
    """
    if a not in L.join_irreducibles:
        raise ValueError(f"element {a} is not join-irreducible")
    return tuple(k for k in L.join_irreducibles if k != a
                 and any(is_minimal_in(L, a, k, x) for x in range(L.n)))


def dependency_closure(L: FinLattice, a: int) -> tuple[int, ...]:
    """J_a(L): the anchor together with its dependents, ascending."""
    return tuple(sorted({a, *dependents(L, a)}))


def is_minimal_in(L: FinLattice, p: int, x: int, y: int) -> bool:
    """p <= x v y holds and no x' < x satisfies p <= x' v y.

    Testing the lower covers c of x suffices: every x' < x lies below
    one, and then x' v y <= c v y.
    """
    jt = L.join_table
    return L.leq(p, jt[x][y]) and not any(L.leq(p, jt[c][y]) for c in L.lower_covers[x])


def is_minimal_pair_cover(L: FinLattice, p: int, x: int, y: int) -> bool:
    """p <= x v y is a nontrivial cover, minimal in both coordinates."""
    if L.leq(p, x) or L.leq(p, y):
        return False
    return is_minimal_in(L, p, x, y) and is_minimal_in(L, p, y, x)


def minimal_pairs(L: FinLattice, p: int) -> list[tuple[int, int]]:
    """Ordered pairs (x, y) of join-irreducibles forming minimal nontrivial
    covers of p, ascending."""
    jis = L.join_irreducibles
    out = []
    for x in jis:
        for y in jis:
            if x != y and is_minimal_pair_cover(L, p, x, y):
                out.append((x, y))
    return out


# -- dependency invariants ----------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    name: str
    ok: bool
    witness: tuple | None


def check_dependency_invariants(L: FinLattice) -> list[InvariantReport]:
    """Check transitivity, antichain shape, cover minimality, the two-step
    cover law, and the ordered-interval law over the join-irreducibles.

    Each witness is the first failing tuple in the nested loop order.
    """
    jis = L.join_irreducibles
    jt = L.join_table
    rd = {a: dependents(L, a) for a in jis}
    rd_sets = {a: set(v) for a, v in rd.items()}
    searches = {
        "dependency-transitive": (
            (a, b, c) for a in jis for b in rd[a] for c in rd[b]
            if c != a and c not in rd_sets[a]),
        "dependents-antichain": (
            (a, x, y) for a in jis for x in rd[a] for y in rd[a]
            if x != y and L.leq(x, y)),
        "covers-minimal-above": (
            (p, x, y) for p in jis for x in rd[p] for y in rd[p]
            if x < y and L.leq(p, jt[x][y])
            and not (is_minimal_in(L, p, x, y) and is_minimal_in(L, p, y, x))),
        # x = y makes the conclusion a trivial cover, so the pair is kept distinct
        "two-step-cover": (
            (a, u, x, y) for a in jis for u in rd[a]
            for x in rd[a] if x != u and L.leq(a, jt[u][x])
            for y in rd[a] if y != u and y != x
            and L.leq(a, jt[u][y]) and L.leq(x, jt[a][y])
            and not is_minimal_pair_cover(L, x, u, y)),
    }
    reports = []
    for name, failures in searches.items():
        witness = next(failures, None)
        reports.append(InvariantReport(name, witness is None, witness))
    return reports


def _interval_value_failures(L: FinLattice):
    jis, jt = L.join_irreducibles, L.join_table
    for a in jis:
        for x in jis:
            bs = [b for b in jis if b != a and is_minimal_pair_cover(L, x, a, b)]
            # distinct triples in the order of the triple loop over bs
            for b0, b1, b2 in permutations(bs, 3):
                j0, j1, j2 = jt[a][b0], jt[a][b1], jt[a][b2]
                if L.leq(j0, j1) and L.leq(j1, j2) and (
                        j0 == j1 or j1 == j2 or not L.leq(b1, jt[b0][b2])):
                    yield a, x, b0, b1, b2


def interval_value_check(L: FinLattice) -> InvariantReport:
    """Three minimal pair covers of a common element over a common side, with
    joins forming a chain, must form a strict chain whose middle member lies
    under the join of the outer two.  Meaningful on join-semidistributive
    lattices satisfying identity E."""
    witness = next(_interval_value_failures(L), None)
    return InvariantReport("ordered-interval-values", witness is None, witness)


# -- weak tracks ---------------------------------------------------------------


@dataclass(frozen=True)
class WeakTrack:
    """Entries x_0..x_n with a side element; see conditions in is_weak_track."""

    entries: tuple[int, ...]
    side: int

    @property
    def length(self) -> int:
        return len(self.entries) - 1


@dataclass(frozen=True)
class WeakBiTrack:
    """Two weak tracks sharing their head, tied by the joint cover condition."""

    first: WeakTrack
    second: WeakTrack

    @property
    def index(self) -> tuple[int, int]:
        return (self.first.length, self.second.length)

    def trace(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.first.entries, self.second.entries)


def is_weak_track(L: FinLattice, t: WeakTrack) -> bool:
    xs, x = t.entries, t.side
    if len(xs) < 2:
        return False
    jt, mt = L.join_table, L.meet_table
    if xs[0] == jt[mt[xs[0]][xs[1]]][mt[xs[0]][x]]:
        return False
    n = len(xs) - 1
    for k in range(n):
        if not L.leq(xs[k], jt[xs[k + 1]][x]):
            return False
    for k in range(1, n):
        if L.leq(xs[k - 1], jt[mt[xs[k]][xs[k + 1]]][x]):
            return False
    return True


def is_weak_bitrack(L: FinLattice, t: WeakBiTrack) -> bool:
    if not (is_weak_track(L, t.first) and is_weak_track(L, t.second)):
        return False
    xs, ys = t.first.entries, t.second.entries
    if xs[0] != ys[0]:
        return False
    jt, mt = L.join_table, L.meet_table
    if not L.leq(xs[0], jt[xs[1]][ys[1]]):
        return False
    return xs[0] != jt[mt[xs[0]][xs[1]]][mt[xs[0]][ys[1]]]


def _extend_track(L: FinLattice, xs: list[int], x: int, upto: int):
    if len(xs) - 1 == upto:
        yield tuple(xs)
        return
    jt, mt = L.join_table, L.meet_table
    k = len(xs)
    for nxt in range(L.n):
        if not L.leq(xs[k - 1], jt[nxt][x]):
            continue
        if k >= 2 and L.leq(xs[k - 2], jt[mt[xs[k - 1]][nxt]][x]):
            continue
        xs.append(nxt)
        yield from _extend_track(L, xs, x, upto)
        xs.pop()


def _tracks_at(L: FinLattice, x0: int, length: int):
    """Weak tracks of the given length with head x0, by side, then entries."""
    jt, mt = L.join_table, L.meet_table
    for side in range(L.n):
        for x1 in range(L.n):
            if x0 != jt[mt[x0][x1]][mt[x0][side]] and L.leq(x0, jt[x1][side]):
                for entries in _extend_track(L, [x0, x1], side, length):
                    yield WeakTrack(entries, side)


def weak_tracks(L: FinLattice, n: int):
    """All weak tracks of length n, in ascending lexicographic element order."""
    if n < 1:
        raise ValueError("track length must be at least 1")
    for x0 in range(L.n):
        yield from _tracks_at(L, x0, n)


def weak_bitracks(L: FinLattice, m: int, n: int):
    """All weak bi-tracks of index (m, n), deterministic order."""
    if m < 1 or n < 1:
        raise ValueError("bi-track index components must be at least 1")
    jt, mt = L.join_table, L.meet_table
    for x0 in range(L.n):
        firsts = list(_tracks_at(L, x0, m))
        if not firsts:
            continue
        seconds = list(_tracks_at(L, x0, n))
        for f in firsts:
            for s in seconds:
                xs, ys = f.entries, s.entries
                if not L.leq(x0, jt[xs[1]][ys[1]]):
                    continue
                if x0 == jt[mt[x0][xs[1]]][mt[x0][ys[1]]]:
                    continue
                yield WeakBiTrack(f, s)


def track_embedding(L: FinLattice, t: WeakBiTrack) -> LatticeMap:
    """Embedding of the convex-subset lattice of an (m+n)-chain induced by a
    weak bi-track: chain positions map to track entries, fanned out from the
    shared head, and general convex sets go to joins of their members.

    Raises LatticeError when the induced map is not an injective homomorphism.
    """
    from .catalog import _catalog_target  # catalog imports this module

    m, n = t.index
    xs, ys = t.first.entries, t.second.entries
    # chain position i < m takes xs[m - i], position i >= m takes ys[i - m + 1]
    img = xs[m:0:-1] + ys[1:]
    K, gens = _catalog_target("co_chain", (m + n,))
    cand = _ji_extension(K, L, L.meet_table[img[0]][img[1]], dict(zip(gens, img)))
    if not cand.injective or not cand.preserves_ops():
        raise LatticeError("track does not induce an embedding")
    return cand
