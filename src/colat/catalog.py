"""Named lattices Co(n) and L_{m,n}, SI classification, variety position.

L_{m,n} is the sublattice of Co(m+n+1) of those convex sets X with
m in X implying m-1 in X.  Its join-irreducibles are the singletons
other than {m} together with c_m = {m-1, m}, and its canonical weak
bi-track runs from c_m down to {0} on one side and up to {m+n} on the
other.  Together with the Co(n) these are the only finite subdirectly
irreducible members of SUB(LO), which is what classify_si leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .depend import WeakBiTrack, WeakTrack, is_weak_bitrack
from .lattice import (
    FinLattice,
    LatticeError,
    LatticeMap,
    _restrict,
    embedding_search,
    find_isomorphism,
    monolith,
)
from .membership import decide_sub_lo
from .poset import Poset, PosetError


@lru_cache(maxsize=None)
def _catalog_target(tag: str, params: tuple[int, ...]) -> tuple[FinLattice, tuple[int, ...]]:
    """The catalog lattice of an SIClass tag and params, with its generators.

    Every catalog lattice is built here, once per tag and params; callers
    share the result and never write to it.  The 16-element bound of
    Poset.convex_sets is checked before the chain is built, which alone
    takes seconds at a few thousand elements.  The generator at chain
    position i is the singleton {i}, except that position m of L(m,n)
    holds c_m = {m-1, m}.
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
    if n > 16:
        raise PosetError("convex-set enumeration limited to 16 elements")
    T, masks = Poset.chain(n).co_lattice()
    gens = [1 << i for i in range(n)]
    if tag == "lmn":
        keep = [i for i, s in enumerate(masks) if not (s >> m) & 1 or (s >> (m - 1)) & 1]
        T = FinLattice(_restrict(T.up, keep), tuple(T.label_of(e) for e in keep))
        masks = [masks[e] for e in keep]
        gens[m] |= 1 << (m - 1)
    at = {s: e for e, s in enumerate(masks)}
    return T, tuple(at[s] for s in gens)


def co_chain(n: int) -> FinLattice:
    """The lattice of order-convex subsets of the n-element chain."""
    return _catalog_target("co_chain", (n,))[0]


def l_mn(m: int, n: int) -> FinLattice:
    """Convex subsets X of the (m+n+1)-chain with m in X forcing m-1 in X."""
    return _catalog_target("lmn", (m, n))[0]


def canonical_bitrack(m: int, n: int) -> WeakBiTrack:
    """The defining weak bi-track of l_mn(m, n).

    First track: c_m, {m-1}, ..., {0} with side {m+n}.  Second track:
    c_m, {m+1}, ..., {m+n} with side {0}.  Element ids refer to
    l_mn(m, n); the result is validated before being returned.
    """
    L, gens = _catalog_target("lmn", (m, n))
    track = WeakBiTrack(WeakTrack(gens[m::-1], side=gens[m + n]),
                        WeakTrack(gens[m:], side=gens[0]))
    if not is_weak_bitrack(L, track):
        raise LatticeError(f"canonical bi-track of l_mn({m}, {n}) failed validation")
    return track


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


@dataclass(frozen=True)
class VarietyPosition:
    """least_n plus an embedding-level diagnostic, not a variety computation.

    embedded_si lists the catalog lattices below the least_n horizon
    that embed into L as sublattices: ("co_chain", k) for k < least_n
    and ("lmn", k, l) for k + l < least_n.
    """

    least_n: int
    embedded_si: tuple[tuple, ...]


def variety_position(L: FinLattice) -> VarietyPosition:
    result = decide_sub_lo(L)
    if not result.accepted:
        raise LatticeError("variety position is defined for accepted lattices only")
    if L.n == 1:
        return VarietyPosition(0, ())
    widest = max(result.certificate.chain_sizes)
    # SUB(1) = SUB(2), so 2 is the least index ever reported
    least = max(2, widest)
    embedded: list[tuple] = []
    for k in range(1, least):
        if embedding_search(co_chain(k), L) is not None:
            embedded.append(("co_chain", k))
    for total in range(2, least):
        for k in range(1, total):
            if embedding_search(l_mn(k, total - k), L) is not None:
                embedded.append(("lmn", k, total - k))
    return VarietyPosition(least, tuple(embedded))
