"""Sections of surjections onto the subdirectly irreducible members.

Every finite SI member of the class is projective: given a surjective
homomorphism pi from a member lattice onto Co(n) or L(m,n), a section
phi with pi o phi = id can be computed by a finite correction process.
The process starts from the least preimages of the generators and
repeatedly joins in the common defect b = join of pairwise meets until
the tuple satisfies the joint cover condition Lambda.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .catalog import _catalog_target
from .lattice import FinLattice, LatticeError, LatticeMap, _ji_extension

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

    kind is "plain" (targets Co(n), shape (n,)) or "split" (targets
    L(m,n), shape (m, n)).  generators lists elements of the ambient
    lattice, one per chain position; in the split case position m
    stands for the doubleton {m-1, m}.  base is the intended image of
    the empty set.
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
    return LambdaConfig("plain", (len(gens),), gens, base)


def split_config(L: FinLattice, m: int, n: int, generators) -> LambdaConfig:
    if m < 1 or n < 1:
        raise ValueError("both side lengths must be positive")
    gens = tuple(generators)
    if len(gens) != m + n + 1:
        raise ValueError(f"expected {m + n + 1} generators, got {len(gens)}")
    return LambdaConfig("split", (m, n), gens, L.meet(gens[0], gens[2]))


def _split_pairs(count: int, m: int):
    """All unordered index pairs except {m-1, m}."""
    for i, j in combinations(range(count), 2):
        if (i, j) != (m - 1, m):
            yield i, j


def lambda_holds(L: FinLattice, config: LambdaConfig) -> bool:
    """Check the joint cover and constant meet conditions for config."""
    gens = config.generators
    if config.kind == "plain":
        (n,) = config.shape
        if len(gens) != n or n < 1:
            raise ValueError("generator count does not match the declared shape")
        if n == 1:
            return L.leq(config.base, gens[0])
        pairs = combinations(range(n), 2)
    elif config.kind == "split":
        m, n = config.shape
        if len(gens) != m + n + 1:
            raise ValueError("generator count does not match the declared shape")
        if not L.leq(gens[m - 1], gens[m]):
            return False
        pairs = _split_pairs(m + n + 1, m)
    else:
        raise ValueError(f"unknown config kind {config.kind!r}")
    for i, j in pairs:
        if L.meet(gens[i], gens[j]) != config.base:
            return False
    return _covered(L, gens)


def _covered(L: FinLattice, gens) -> bool:
    """Each generator lies below the join of any earlier and any later one."""
    count = len(gens)
    return all(L.leq(gens[k], L.join(gens[i], gens[j]))
               for i in range(count) for k in range(i + 1, count)
               for j in range(k + 1, count))


def hom_from_lambda(L: FinLattice, config: LambdaConfig) -> LatticeMap:
    """Extend the generator assignment of config to a homomorphism.

    The source is Co(n) for a plain config and L(m,n) for a split one.
    Each convex set maps to the join of the generators at its positions
    and the empty set maps to the base.  The extension is unique; if it
    fails to be a homomorphism, L lies outside the class and an error
    is raised.
    """
    if not lambda_holds(L, config):
        raise LatticeError("generators do not satisfy the joint cover conditions")
    tag = "co_chain" if config.kind == "plain" else "lmn"
    source, gen_elems = _catalog_target(tag, config.shape)
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
    lattice into Lp.  The correction loop is bounded by |Lp| rounds;
    exceeding the bound raises with the last tuple in the message.
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

    count = len(gen_elems)
    if tag == "co_chain":
        pairs = list(combinations(range(count), 2))
    else:
        pairs = list(_split_pairs(count, shape[0]))

    a = [beta[g] for g in gen_elems]
    rounds = 0
    while True:
        if not _covered(Lp, a):
            raise LatticeError(f"cover inequality broke in round {rounds}: {a}")
        if tag == "lmn" and not Lp.leq(a[shape[0] - 1], a[shape[0]]):
            raise LatticeError(f"side inclusion broke in round {rounds}: {a}")
        b = Lp.join_of(Lp.meet(a[i], a[j]) for i, j in pairs)
        updated = [Lp.join(ai, b) for ai in a]
        if updated == a:
            break
        a = updated
        rounds += 1
        if rounds > Lp.n:
            raise LatticeError(
                f"no stable tuple within {Lp.n} rounds; last tuple {a}"
            )

    if tag == "co_chain" and count == 1:
        base = beta[T.bottom]
        config = LambdaConfig("plain", shape, tuple(a), base)
    elif tag == "co_chain":
        config = plain_config(Lp, a)
    else:
        config = split_config(Lp, shape[0], shape[1], a)
    phi = hom_from_lambda(Lp, config)
    for x in range(T.n):
        if pi(phi(x)) != x:
            raise LatticeError("section verification failed")
    return phi
