"""Membership in SUB(LO) and SUB(n), with embedding certificates.

A finite lattice belongs to SUB(LO) when it embeds into a product of
lattices Co(T) of order-convex subsets of chains T.  The decision
procedure looks, for every join-irreducible a, for a total order on
J_a(L) = {a} union rd(a) such that the trace map

    x  |->  {b in J_a(L) : b <= x}

lands in the convex subsets of that chain and preserves joins.  One
witness per anchor assembles into an embedding certificate; a failed
anchor refutes membership.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .depend import dependency_closure
from .lattice import FinLattice, LatticeError, bits
from .pool import ordered_map
from .poset import Poset


@dataclass(frozen=True)
class ChainOrderWitness:
    """A total order on J_a(L) whose induced trace map is a homomorphism."""

    anchor: int
    chain: tuple[int, ...]


@dataclass(frozen=True)
class EmbeddingCertificate:
    """One chain-order witness per join-irreducible, plus the product map.

    maps[w][x] is the sorted tuple of chain positions of witness w hit
    by element x.  The combined map x |-> (maps[0][x], maps[1][x], ...)
    is the claimed embedding into the product of Co(chain) factors.
    """

    witnesses: tuple[ChainOrderWitness, ...]
    maps: tuple[tuple[tuple[int, ...], ...], ...]

    def component(self, x: int) -> tuple[tuple[int, ...], ...]:
        return tuple(m[x] for m in self.maps)

    @property
    def chain_sizes(self) -> tuple[int, ...]:
        return tuple(len(w.chain) for w in self.witnesses)


@dataclass(frozen=True)
class MembershipResult:
    accepted: bool
    certificate: Optional[EmbeddingCertificate]
    anchor: Optional[int]


def induced_map(L: FinLattice, chain: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Trace of every element of L on the chain, as sorted position tuples."""
    return tuple(
        tuple(i for i, b in enumerate(chain) if L.leq(b, x)) for x in range(L.n)
    )


def _permutation_chain(L: FinLattice, ja: tuple[int, ...]) -> tuple[int, ...] | None:
    """Backtracking over total orders of ja, smallest element id first.

    Traces are bitmasks over the indices of ja, and both prunes are exact.
    A trace that closed may not reopen: seen holds the elements of L hit
    so far and run those hit by the last member placed.  For x, y in L,
    the trace of x v y must be the hull of the traces of x and y, so a
    member of extra, the part of it outside both traces, must come after
    some member of both and before the last of them.  Every leaf reached
    is therefore a valid order.
    """
    k = len(ja)
    tr = [0] * L.n
    for i, b in enumerate(ja):
        for x in bits(L.up[b]):
            tr[x] |= 1 << i
    jt = L.join_table
    rules = {(tr[x] | tr[y], tr[jt[x][y]] & ~(tr[x] | tr[y]))
             for x in range(L.n) for y in range(x + 1, L.n)}
    rules = [(both, extra) for both, extra in rules if extra]
    opens = [[both for both, extra in rules if extra >> i & 1] for i in range(k)]
    closes = [[(both, extra) for both, extra in rules if both >> i & 1] for i in range(k)]
    hits = [L.up[b] for b in ja]
    full = (1 << k) - 1
    prefix: list[int] = []

    def extend(placed: int, seen: int, run: int) -> bool:
        if placed == full:
            return True
        for i in bits(full & ~placed):
            now = placed | 1 << i
            if (hits[i] & seen & ~run
                    or not all(placed & both for both in opens[i])
                    or any(not both & ~now and extra & ~now for both, extra in closes[i])):
                continue
            prefix.append(ja[i])
            if extend(now, seen | hits[i], hits[i]):
                return True
            prefix.pop()
        return False

    return tuple(prefix) if extend(0, 0, 0) else None


def chain_order(L: FinLattice, a: int) -> ChainOrderWitness | None:
    """Search a total order on J_a(L) whose trace map is a homomorphism.

    J_a(L) comes from the D relation (depend.dependents).  The search is
    exhaustive backtracking with exact prunes, so the witness is the
    first valid order of J_a(L) in itertools.permutations order over
    ascending element ids, and None means that no order exists.
    """
    chain = _permutation_chain(L, dependency_closure(L, a))
    return ChainOrderWitness(a, chain) if chain is not None else None


def decide_sub_lo(L: FinLattice, workers: int = 1) -> MembershipResult:
    """Decide membership of L in SUB(LO).

    Accepted means every join-irreducible admits a chain-order witness;
    the assembled certificate is re-verified before being returned.  A
    rejection reports the first failing anchor in element order.
    """
    jis = L.join_irreducibles
    found: list[ChainOrderWitness] = []
    failing: int | None = None
    # a single anchor is not worth a pool
    with closing(ordered_map(chain_order, L, jis, workers if len(jis) > 1 else 1)) as ws:
        for a, w in zip(jis, ws):
            if w is None:
                failing = a
                break
            found.append(w)
    if failing is not None:
        return MembershipResult(False, None, failing)
    cert = EmbeddingCertificate(
        tuple(found), tuple(induced_map(L, w.chain) for w in found)
    )
    if not verify_certificate(L, cert):
        raise LatticeError("assembled certificate failed self-verification")
    return MembershipResult(True, cert, None)


def decide_sub_n(L: FinLattice, n: int, workers: int = 1) -> bool:
    """Membership in SUB(n): every witness chain must fit in an n-chain."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        # SUB(0) is the trivial variety
        return L.n == 1
    result = decide_sub_lo(L, workers=workers)
    return result.accepted and max(result.certificate.chain_sizes, default=0) <= n


def _is_convex_hom(L: FinLattice, chain: tuple[int, ...]) -> bool:
    """Every trace on chain, as a position mask, is an interval; the trace
    of each join is the hull of the two traces and of each meet their
    intersection."""
    def hull(mask: int) -> int:
        return mask and (1 << mask.bit_length()) - (mask & -mask)

    tr = [sum(1 << i for i, b in enumerate(chain) if L.leq(b, x)) for x in range(L.n)]
    if any(t != hull(t) for t in tr):
        return False
    jt, mt = L.join_table, L.meet_table
    return all(tr[jt[x][y]] == hull(tr[x] | tr[y]) and tr[mt[x][y]] == tr[x] & tr[y]
               for x in range(L.n) for y in range(x + 1, L.n))


def verify_certificate(L: FinLattice, cert: EmbeddingCertificate) -> bool:
    """Independent check: anchors, traces, homomorphism, injectivity, size.

    Every stored map is recomputed from its chain, so tampering with
    either half of a witness is caught.  The size bound is the sum of
    chain lengths against the square of the join-irreducible count.
    """
    jis = L.join_irreducibles
    if len(cert.witnesses) != len(cert.maps):
        return False
    if tuple(sorted(w.anchor for w in cert.witnesses)) != jis:
        return False
    if sum(len(w.chain) for w in cert.witnesses) > len(jis) ** 2:
        return False
    for w, stored in zip(cert.witnesses, cert.maps):
        if tuple(sorted(w.chain)) != dependency_closure(L, w.anchor):
            return False
        if stored != induced_map(L, w.chain) or not _is_convex_hom(L, w.chain):
            return False
    for x in range(L.n):
        for y in range(x + 1, L.n):
            if cert.component(x) == cert.component(y):
                return False
    return True


def certificate_to_json(L: FinLattice, cert: EmbeddingCertificate) -> list[dict]:
    out = []
    for w, phi in zip(cert.witnesses, cert.maps):
        out.append(
            {
                "anchor": L.label_of(w.anchor),
                "chain": [L.label_of(b) for b in w.chain],
                "map": {L.label_of(x): list(phi[x]) for x in range(L.n)},
            }
        )
    return out


def certificate_from_json(L: FinLattice, data: list[dict]) -> EmbeddingCertificate:
    """Read a certificate in the format of certificate_to_json.

    Raises ValueError("malformed certificate: ...") when data has another
    shape or names an element that L lacks.
    """
    index = {L.label_of(i): i for i in range(L.n)}

    def bad(why: str) -> ValueError:
        return ValueError(f"malformed certificate: {why}")

    def element(lbl) -> int:
        if not isinstance(lbl, str) or lbl not in index:
            raise bad(f"unknown element {lbl!r}")
        return index[lbl]

    if not isinstance(data, list):
        raise bad("expected a list of entries")
    witnesses = []
    maps = []
    for item in data:
        if not isinstance(item, dict) or not {"anchor", "chain", "map"} <= item.keys():
            raise bad("each entry needs anchor, chain and map")
        if not isinstance(item["chain"], list) or not isinstance(item["map"], dict):
            raise bad("chain must be a list and map an object")
        anchor = element(item["anchor"])
        chain = tuple(element(lbl) for lbl in item["chain"])
        phi = [()] * L.n
        for lbl, pos in item["map"].items():
            if not (isinstance(pos, list) and all(isinstance(p, int) for p in pos)):
                raise bad(f"map of {lbl!r} is not a list of positions")
            phi[element(lbl)] = tuple(pos)
        witnesses.append(ChainOrderWitness(anchor, chain))
        maps.append(tuple(phi))
    return EmbeddingCertificate(tuple(witnesses), tuple(maps))


def brute_force_oracle(L: FinLattice) -> bool:
    """Decide SUB(LO) membership without the anchored chain construction.

    Searches a jointly order-separating family of homomorphisms into
    Co(k) for k = |J(L)|: for every pair x !<= y some member must keep
    the images unordered.  Homomorphisms are found by backtracking over
    arbitrary convex values, one separating witness per pair, so the
    answer does not depend on any particular order of J_a(L).

    The search is exact on normalised homomorphisms only, with
    f(top) = [0, m] and the next element placed at most its reverse in
    [0, m] (see _co_chain).  Every f(z) lies in f(top) = [l, u], which
    is not empty, since f(x) !<= f(y).  Shifting by -l maps Co([l, u])
    isomorphically onto Co([0, u - l]), a sublattice of Co(k), and
    reversing [0, m] is an automorphism of Co([0, m]) that fixes its top;
    both keep f(x) !<= f(y).
    """
    if L.n > 8:
        raise ValueError("oracle size guard exceeded (|L| > 8)")
    pairs = [
        (x, y)
        for x in range(L.n)
        for y in range(L.n)
        if x != y and not L.leq(x, y)
    ]
    if not pairs:
        return True
    k = len(L.join_irreducibles)
    co = _co_chain(k)[0]
    separated = [False] * len(pairs)
    for idx, (x, y) in enumerate(pairs):
        if separated[idx]:
            continue
        hom = _separating_hom(L, k, x, y)
        if hom is None:
            return False
        for jdx, (u, v) in enumerate(pairs):
            if not co.leq(hom[u], hom[v]):
                separated[jdx] = True
    return True


@lru_cache(maxsize=None)  # k <= 7 under the oracle's size guard
def _co_chain(k: int) -> tuple[FinLattice, int, dict[int, int]]:
    """Co(k) and the masks over its elements of the normalised images.

    Returns Co(k), the mask of the intervals [0, m], which the top of L
    may take, and for each such image the mask of the convex sets v in
    [0, m] with v <= reverse_m(v) in element order, where reverse_m maps
    i to m - i: the images the element placed after the top may take.
    """
    co, sets = Poset.chain(k).co_lattice()
    index = {s: i for i, s in enumerate(sets)}
    tops, halves = 0, {}
    for m in range(k):
        within = (1 << m + 1) - 1
        top = index[within]
        tops |= 1 << top
        halves[top] = 0
        for s in sets:
            if not s & ~within:
                reverse = sum(1 << m - i for i in bits(s))
                if index[s] <= index[reverse]:
                    halves[top] |= 1 << index[s]
    return co, tops, halves


def _separating_hom(L: FinLattice, k: int, x: int, y: int) -> list[int] | None:
    """A normalised homomorphism L -> Co(k) whose image of x is not below
    the image of y, as brute_force_oracle describes.

    The elements of L get images in a fixed order, the top first, then x
    and y, each trying the elements of Co(k) in ascending order.  Each
    position's plan is set up once: the earlier elements below and above
    its element, which bound its image by rows of co.up and co.down; the
    earlier pairs whose join or meet it is, which fix its image; and the
    earlier elements whose join or meet with it sits at an earlier
    position.
    """
    co, tops, halves = _co_chain(k)
    first = [L.top] + [e for e in (x, y) if e != L.top]
    order = first + [e for e in range(L.n) if e not in first]
    slot = [0] * L.n
    for i, e in enumerate(order):
        slot[e] = i
    # per position: below, above, joins, meets, pair joins, pair meets
    plans = [([], [], [], [], [], []) for _ in order]
    for t, e in enumerate(order):
        for i, u in enumerate(order[:t]):
            if L.leq(u, e):
                plans[t][0].append(i)
            elif L.leq(e, u):
                plans[t][1].append(i)
            else:
                for col, table in ((2, L.join_table), (3, L.meet_table)):
                    s = slot[table[u][e]]
                    if s < t:
                        plans[t][col].append((i, s))
                    else:
                        # u and e incomparable: s names a later position
                        plans[s][col + 2].append((i, t))
    cj, cm, up, down = co.join_table, co.meet_table, co.up, co.down
    sx, sy = slot[x], slot[y]
    imgs: list[int] = []

    def extend() -> bool:
        t = len(imgs)
        if t == L.n:
            return True
        below, above, joins, meets, pair_joins, pair_meets = plans[t]
        mask = tops if t == 0 else halves[imgs[0]] if t == 1 else (1 << co.n) - 1
        if t == sy:
            mask &= ~up[imgs[sx]]  # the pair to separate stays unordered
        for i in below:
            mask &= up[imgs[i]]
        for i in above:
            mask &= down[imgs[i]]
        for i, i2 in pair_joins:
            mask &= 1 << cj[imgs[i]][imgs[i2]]
        for i, i2 in pair_meets:
            mask &= 1 << cm[imgs[i]][imgs[i2]]
        for v in bits(mask):
            if (all(cj[imgs[i]][v] == imgs[s] for i, s in joins)
                    and all(cm[imgs[i]][v] == imgs[s] for i, s in meets)):
                imgs.append(v)
                if extend():
                    return True
                imgs.pop()
        return False

    if extend():
        return [imgs[slot[e]] for e in range(L.n)]
    return None
