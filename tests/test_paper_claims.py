"""The paper's three claims, on every lattice of at most 8 elements.

(1) Finite basis: a finite lattice lies in SUB(LO) iff it satisfies E,
    P and HS.
(2) The subdirectly irreducible members are the catalog lattices Co(n)
    and L(m,n).
(3) Those are projective in SUB(LO): every surjection from a member onto
    one of them splits by a section.

Membership is decided by decide_sub_lo, with its certificate search, and
the identities are swept by check, so (1) compares two independent
computations.
"""

import hashlib
import json
from collections import Counter
from functools import cache

from colat.catalog import classify_si, co_chain, l_mn
from colat.lattice import iter_lattices, monolith, surjection_search
from colat.membership import decide_sub_lo
from colat.project import retract_section
from colat.terms import builtin, check

MAX_SIZE = 8


@cache
def _members():
    """The lattices of the corpus that decide_sub_lo accepts."""
    return [L for L in iter_lattices(MAX_SIZE) if decide_sub_lo(L).accepted]


# sha256 of the compact JSON list of [holds, witness] for E, P and HS, in
# that order, on each lattice of size <= 8 in iter_lattices order; 900
# checks, 295 failing, recorded from check
FINITE_BASIS_CHECKS = "1217d317e9b7dc748d2e96fd99d01e2f63c9fb09e0d396b2cca666a18a9662f0"


def test_finite_basis():
    idents = [builtin(name) for name in ("E", "P", "HS")]
    corpus = list(iter_lattices(MAX_SIZE))
    results = [[check(L, ident) for ident in idents] for L in corpus]
    records = [[r.holds, r.witness] for row in results for r in row]
    text = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == FINITE_BASIS_CHECKS
    accepted = [all(r.holds for r in row) for row in results]
    members = _members()
    assert [L.up for L, ok in zip(corpus, accepted) if ok] == [L.up for L in members]
    assert (len(corpus), len(members)) == (300, 104)


def test_subdirectly_irreducible_members_are_catalog_lattices():
    # classify_si raises when an SI member matches no catalog lattice
    tags = Counter()
    for L in _members():
        if monolith(L) is not None:
            si = classify_si(L)
            tags[si.tag, si.params] += 1
    assert tags == {("co_chain", (1,)): 1, ("co_chain", (3,)): 1,
                    ("lmn", (1, 1)): 1, ("lmn", (1, 2)): 1}


def test_surjections_onto_si_catalog_lattices_split():
    # the SI catalog lattices of at most 9 elements; Co(2) is a square, not SI
    targets = {("co_chain", 1): co_chain(1), ("co_chain", 3): co_chain(3),
               ("lmn", 1, 1): l_mn(1, 1), ("lmn", 1, 2): l_mn(1, 2),
               ("lmn", 2, 1): l_mn(2, 1)}
    assert all(T.n <= 9 and monolith(T) is not None for T in targets.values())
    assert co_chain(4).n > 9 and monolith(co_chain(2)) is None
    split = Counter()
    for L in _members():
        for target, T in targets.items():
            for pi in surjection_search(L, T):
                # retract_section raises unless pi o phi is the identity
                phi = retract_section(L, pi, target)
                assert all(pi(phi(x)) == x for x in range(T.n))
                split[target] += 1
    assert split == {("co_chain", 1): 370, ("co_chain", 3): 10,
                     ("lmn", 1, 1): 116, ("lmn", 1, 2): 1}
