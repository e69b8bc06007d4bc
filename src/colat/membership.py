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
from .lattice import (FinLattice, _quotient, bits, congruence_lattice, embedding_search,
                      monolith)
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

    Accepted means every join-irreducible admits a chain-order witness.
    A rejection reports the first failing anchor in element order.

    The assembled certificate passes verify_certificate by construction:
    there is one witness per join-irreducible a, on an order of J_a(L),
    the exact prunes of _permutation_chain make it a valid order, and its
    map is induced_map of its chain.  verify_certificate's docstring shows
    that the maps then form an embedding.
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


def _hull(mask: int) -> int:
    """The least interval of chain positions holding every position in mask."""
    return mask and (1 << mask.bit_length()) - (mask & -mask)


def _is_convex_hom(L: FinLattice, chain: tuple[int, ...]) -> bool:
    """The trace on chain of each join, as a position mask, is the hull of
    the two traces; with the bottom's trace, which lies in every trace,
    that makes every trace an interval.  Meets need no test:
    b <= x ^ y iff b <= x and b <= y, so every trace map sends meets to
    intersections."""
    tr = [sum(1 << i for i, b in enumerate(chain) if L.leq(b, x)) for x in range(L.n)]
    jt = L.join_table
    return all(tr[jt[x][y]] == _hull(tr[x] | tr[y])
               for x in range(L.n) for y in range(x + 1, L.n))


def verify_certificate(L: FinLattice, cert: EmbeddingCertificate) -> bool:
    """Independent check of anchors, chains, traces and homomorphism.

    Each stored map is recomputed from its chain.  There are |J(L)|
    chains within J(L), so at most |J(L)|^2 positions, and the map is
    injective: if j in J(L) lies below x but not y, the chain anchored at
    j holds j, and its trace map separates x and y.
    """
    jis = L.join_irreducibles
    if len(cert.witnesses) != len(cert.maps):
        return False
    if tuple(sorted(w.anchor for w in cert.witnesses)) != jis:
        return False
    return all(tuple(sorted(w.chain)) == dependency_closure(L, w.anchor)
               and stored == induced_map(L, w.chain) and _is_convex_hom(L, w.chain)
               for w, stored in zip(cert.witnesses, cert.maps))


def certificate_to_json(L: FinLattice, cert: EmbeddingCertificate) -> list[dict]:
    out = []
    for w, phi in zip(cert.witnesses, cert.maps):
        out.append(
            {
                "anchor": L.labels[w.anchor],
                "chain": [L.labels[b] for b in w.chain],
                "map": {L.labels[x]: list(phi[x]) for x in range(L.n)},
            }
        )
    return out


def certificate_from_json(L: FinLattice, data: list[dict]) -> EmbeddingCertificate:
    """Read a certificate in the format of certificate_to_json.

    Raises ValueError("malformed certificate: ...") when data has another
    shape or names an element that L lacks.
    """
    index = {label: i for i, label in enumerate(L.labels)}

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
            if not (isinstance(pos, list)
                    and all(isinstance(p, int) and not isinstance(p, bool) for p in pos)):
                raise bad(f"map of {lbl!r} is not a list of positions")
            phi[element(lbl)] = tuple(pos)
        witnesses.append(ChainOrderWitness(anchor, chain))
        maps.append(tuple(phi))
    return EmbeddingCertificate(tuple(witnesses), tuple(maps))


def brute_force_oracle(L: FinLattice) -> bool:
    """Decide SUB(LO) membership without the anchored chain construction.

    L is in SUB(LO) iff every subdirectly irreducible quotient K of L
    embeds in Co(k), k = |J(K)|.  The quotients come from
    congruence_lattice, K is SI iff it has a monolith, and the embedding
    from embedding_search, so chain_order and dependency_closure are
    never called.

    Only if: SUB(LO) is a variety (claim (1)), so K is a member.  A
    member has a jointly order-separating family of homomorphisms into
    Co(|J(K)|).  Their kernels meet to zero, and each nonzero kernel
    holds the monolith of K, so some kernel is zero: that member embeds K.
    If: L is a subdirect product of its SI quotients, and each embeds
    in some Co(k), so L embeds in a product of those.
    """
    if L.n > 8:
        raise ValueError("oracle size guard exceeded (|L| > 8)")
    for theta in congruence_lattice(L):
        K = _quotient(L, theta).target
        if monolith(K) is not None and embedding_search(K, _co(len(K.join_irreducibles))) is None:
            return False
    return True


@lru_cache(maxsize=None)  # k <= 7 under the oracle's size guard
def _co(k: int) -> FinLattice:
    return Poset.chain(k).co_lattice()[0]
