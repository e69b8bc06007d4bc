"""Named lattices Co(n) and L_{m,n}, and SI classification.

L_{m,n} is the sublattice of Co(m+n+1) of those convex sets X with
m in X implying m-1 in X.  Its join-irreducibles are the singletons
other than {m} together with c_m = {m-1, m}.  Together with the Co(n)
these are the only finite subdirectly irreducible members of SUB(LO),
which is what classify_si leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Optional

from .lattice import (
    FinLattice,
    LatticeError,
    LatticeMap,
    _restrict,
    find_isomorphism,
    monolith,
)
from .membership import decide_sub_lo
from .poset import Poset, convex_bound


def _generators(tag: str, params: tuple[int, ...]) -> tuple[int, ...]:
    """The chain-position mask of each generator of a catalog lattice.

    Generator i of Co(n) or L(m,n) is the singleton {i}, except that
    generator m of L(m,n) is c_m = {m-1, m}.  Every relation among the
    generators, and so every Lambda condition, can be read off these masks.
    """
    if tag == "co_chain":
        (n,) = params
    elif tag == "lmn":
        m, k = params
        if m < 1 or k < 1:
            raise ValueError("both side lengths must be at least 1")
        n = m + k + 1
    else:
        raise ValueError(f"unknown target kind {tag!r}")
    if n < 1:
        raise ValueError("chain must have at least one element")
    gens = [1 << i for i in range(n)]
    if tag == "lmn":
        gens[m] |= 1 << (m - 1)
    return tuple(gens)


@lru_cache(maxsize=None)
def _catalog_target(tag: str, params: tuple[int, ...]) -> tuple[FinLattice, tuple[int, ...]]:
    """The catalog lattice of an SIClass tag and params, with its generators.

    Every catalog lattice is built here, once per tag and params; callers
    share the result and never write to it.  Its elements are the convex
    subsets of the chain that are unions of generator masks.  The
    bound of Poset.convex_sets is checked before the chain is built,
    which alone takes seconds at a few thousand elements.  The
    restriction of an order to a subset is an order, so it is not
    re-validated.
    """
    gens = _generators(tag, params)
    convex_bound(len(gens))
    T, masks = Poset.chain(len(gens)).co_lattice()
    keep = [e for e, s in enumerate(masks)
            if s == reduce(or_, (g for g in gens if g & ~s == 0), 0)]
    if len(keep) < T.n:
        T = FinLattice(_restrict(T.up, keep), tuple(T.labels[e] for e in keep), validate=False)
        masks = [masks[e] for e in keep]
    at = {s: e for e, s in enumerate(masks)}
    return T, tuple(at[s] for s in gens)


def co_chain(n: int) -> FinLattice:
    """The lattice of order-convex subsets of the n-element chain."""
    return _catalog_target("co_chain", (n,))[0]


def l_mn(m: int, n: int) -> FinLattice:
    """Convex subsets X of the (m+n+1)-chain with m in X forcing m-1 in X."""
    return _catalog_target("lmn", (m, n))[0]


@dataclass(frozen=True)
class SIClass:
    """Classification of a finite lattice against the SI catalog.

    tag is one of "co_chain", "lmn", "not_si", "not_member"; params
    carries (n,) or (m, n) for the first two, and iso the witnessing
    isomorphism from the catalog lattice.
    """

    tag: str
    params: tuple[int, ...]
    iso: Optional[LatticeMap]


def classify_si(L: FinLattice) -> SIClass:
    """Match a lattice against the finite subdirectly irreducible members.

    Raises LatticeError if an accepted SI lattice matches no catalog
    entry; no such lattice exists, so that signals a bug here.
    """
    if not decide_sub_lo(L).accepted:
        return SIClass("not_member", (), None)
    if monolith(L) is None:
        return SIClass("not_si", (), None)
    k = len(L.join_irreducibles)
    candidates: list[tuple[str, tuple[int, ...], FinLattice]] = []
    if k >= 1:
        candidates.append(("co_chain", (k,), co_chain(k)))
    for mm in range(1, k - 1):
        candidates.append(("lmn", (mm, k - 1 - mm), l_mn(mm, k - 1 - mm)))
    for tag, params, K in candidates:
        if K.n != L.n:
            continue
        iso = find_isomorphism(K, L)
        if iso is not None:
            return SIClass(tag, params, iso)
    raise LatticeError("subdirectly irreducible member matches no catalog lattice")
