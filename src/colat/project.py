"""Sections of surjections onto the subdirectly irreducible members.

Every finite SI member of the class is projective: given a surjective
homomorphism pi from a member lattice onto Co(n) or L(m,n), a section
phi with pi o phi = id can be computed by a finite correction process.
The process starts from the least preimages of the generators and
repeatedly joins in the common defect b = join of pairwise meets until
the tuple satisfies the joint cover condition Lambda.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .catalog import _catalog_target, _generators
from .lattice import FinLattice, LatticeError, LatticeMap, _ji_extension
from .membership import _hull

__all__ = [
    "LambdaConfig",
    "plain_config",
    "split_config",
    "lambda_holds",
    "hom_from_lambda",
    "retract_section",
]


@dataclass(frozen=True)
class LambdaConfig:
    """A tuple of prospective generator images plus the base element.

    kind and shape name the catalog lattice as _catalog_target does:
    "co_chain" with (n,) for Co(n), "lmn" with (m, n) for L(m,n).
    generators lists elements of the ambient lattice, one per generator
    of that catalog lattice (catalog._generators gives their masks).
    base is the intended image of the empty set.
    """

    kind: str
    shape: tuple[int, ...]
    generators: tuple[int, ...]
    base: int


def plain_config(L: FinLattice, generators, base: Optional[int] = None) -> LambdaConfig:
    gens = tuple(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    if base is None:
        if len(gens) < 2:
            raise ValueError("base must be given explicitly for a single generator")
        base = L.meet(gens[0], gens[1])
    return LambdaConfig("co_chain", (len(gens),), gens, base)


def split_config(L: FinLattice, m: int, n: int, generators) -> LambdaConfig:
    gens = tuple(generators)
    count = len(_generators("lmn", (m, n)))
    if len(gens) != count:
        raise ValueError(f"expected {count} generators, got {len(gens)}")
    return LambdaConfig("lmn", (m, n), gens, L.meet(gens[0], gens[2]))


@lru_cache(maxsize=None)
def _relations(gens: tuple[int, ...]):
    """The Lambda conditions read off the generator masks of a catalog
    lattice: the pairs with disjoint masks, whose meets are the base; the
    pairs (i, j) with g_i <= g_j, the side inclusion of L(m,n); and the
    triples (k, i, j) with g_k in the convex hull of g_i and g_j but not in
    their union, the joint cover condition g_k <= g_i v g_j."""
    def within(k: int, mask: int) -> bool:
        return not gens[k] & ~mask

    count = range(len(gens))
    pairs = list(combinations(count, 2))
    disjoint = [(i, j) for i, j in pairs if not gens[i] & gens[j]]
    below = [(i, j) for i in count for j in count if i != j and within(i, gens[j])]
    covers = [(k, i, j) for i, j in pairs for k in count
              if within(k, _hull(gens[i] | gens[j])) and not within(k, gens[i] | gens[j])]
    return tuple(disjoint), tuple(below), tuple(covers)


def lambda_holds(L: FinLattice, config: LambdaConfig) -> bool:
    """Check the joint cover and constant meet conditions for config;
    ValueError if its kind and shape name no catalog lattice."""
    gens, base = config.generators, config.base
    masks = _generators(config.kind, config.shape)
    if len(gens) != len(masks):
        raise ValueError("generator count does not match the declared shape")
    disjoint, below, covers = _relations(masks)
    return (L.leq(base, gens[0])
            and all(L.meet(gens[i], gens[j]) == base for i, j in disjoint)
            and all(L.leq(gens[i], gens[j]) for i, j in below)
            and all(L.leq(gens[k], L.join(gens[i], gens[j])) for k, i, j in covers))


def hom_from_lambda(L: FinLattice, config: LambdaConfig) -> LatticeMap:
    """Extend the generator assignment of config to a homomorphism.

    The source is the catalog lattice that config.kind and config.shape
    name, Co(n) or L(m,n).  Each convex set maps to the join of the
    generators at its positions and the empty set maps to the base.  The
    extension is unique; if it fails to be a homomorphism, L lies outside
    the class and an error is raised.
    """
    if not lambda_holds(L, config):
        raise LatticeError("generators do not satisfy the joint cover conditions")
    source, gen_elems = _catalog_target(config.kind, config.shape)
    phi = _ji_extension(source, L, config.base, dict(zip(gen_elems, config.generators)))
    if not phi.preserves_ops():
        raise LatticeError(
            "generator assignment does not extend to a homomorphism; "
            "the codomain is outside the class"
        )
    return phi


def retract_section(Lp: FinLattice, pi: LatticeMap, target) -> LatticeMap:
    """Compute a section phi of pi with pi o phi the identity.

    pi must be a surjective homomorphism from Lp onto the catalog
    lattice described by target, either ("co_chain", n) or
    ("lmn", m, n).  Returns the section as a map from that catalog
    lattice into Lp.  pi is checked; what the construction proves is not.

    The loop ends: round r sets a_i = a_i(0) v b(r-1), and b only grows,
    so fewer than |Lp| rounds change a.  pi o phi = id: pi(b) is the join
    of the meets g_i ^ g_j over disjoint masks, the bottom, so pi(a_i) =
    g_i in every round, and phi sends each element to the join of the a_i
    at its positions, or to the base, which pi sends to the bottom.
    hom_from_lambda still checks Lambda and the homomorphism, which fail
    when Lp lies outside SUB(LO).
    """
    tag, shape = target[0], tuple(target[1:])
    T, gen_elems = _catalog_target(tag, shape)
    if pi.source.up != Lp.up:
        raise LatticeError("pi is not a map out of the given lattice")
    if pi.target.up != T.up or pi.target.labels != T.labels:
        raise LatticeError("pi's target is not the requested catalog lattice")
    if not pi.surjective:
        raise LatticeError("pi is not surjective")
    if not pi.preserves_ops():
        raise LatticeError("pi is not a lattice homomorphism")

    # least preimage of each target element; classes are meet-closed
    beta = [0] * T.n
    classes: list[list[int]] = [[] for _ in range(T.n)]
    for x in range(Lp.n):
        classes[pi(x)].append(x)
    for t, members in enumerate(classes):
        beta[t] = Lp.meet_of(members)

    # pi(z) >= t implies z >= beta(t), so the least preimages satisfy each
    # joint cover and side inclusion, and joining b to every entry keeps them
    pairs = _relations(_generators(tag, shape))[0]
    a = [beta[g] for g in gen_elems]
    while True:
        b = Lp.join_of(Lp.meet(a[i], a[j]) for i, j in pairs)
        updated = [Lp.join(ai, b) for ai in a]
        if updated == a:
            break
        a = updated

    # at the fixpoint every a_i >= b and each pairwise meet is <= b, so every
    # pairwise meet is b; Co(1) has no pairs, and its base is the least preimage
    base = b if pairs else beta[T.bottom]
    return hom_from_lambda(Lp, LambdaConfig(tag, shape, tuple(a), base))
