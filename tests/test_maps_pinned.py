"""Pinned outputs of the lattice-map builders over all lattices of size <= 7.

Each entry is the sha256 of the compact JSON of one function's outputs, in
enumeration order.  They pin the maps themselves, the search order and the
error messages, which the other tests leave free.
"""

import hashlib
import json

import pytest

from colat.catalog import classify_si, co_chain, l_mn, variety_position
from colat.depend import track_embedding, weak_bitracks
from colat.lattice import (
    LatticeError,
    direct_product,
    embedding_search,
    isomorphisms,
    iter_lattices,
    surjection_search,
)
from colat.project import retract_section

SMALL = list(iter_lattices(7))

TARGETS = [
    (("co_chain", 1), co_chain(1)),
    (("co_chain", 2), co_chain(2)),
    (("co_chain", 3), co_chain(3)),
    (("lmn", 1, 1), l_mn(1, 1)),
    (("lmn", 1, 2), l_mn(1, 2)),
]

# 566 embeddings over 780 pairs, 353 isomorphisms over 3,066 pairs, 78
# classifications, 78 positions (37 errors), 12,676 track embeddings (9,644
# errors) and 339 sections
PINNED = {
    "embedding_search": "0ae5d2e78e6ede998e6444c1dfc387b28226b4e17570a3a2c64afd442017e908",
    "isomorphisms": "98b03efc046f5a28a81fea89382f7fe144b93db4d0806e8c34425e7ed9bb9372",
    "classify_si": "b2a7dc5b01a82cfbb1a7d27fff303302923bd6a5041bb7180102798fa86edf96",
    "variety_position": "c9e61a60c0103fa85accab1619dfe0c030e92b1096fe3d925727b1de29553b61",
    "track_embedding": "71c087f0ac2ca31f0b3449c9b30d16a70ada0dc1a5dd90673a4b3e4a947a06b3",
    "retract_section": "edeaf27e5f534de1aa928b17f4eb778c71779f5d62a16f0890f599d43885789d",
}


def _guarded(fn, *args):
    try:
        return fn(*args)
    except LatticeError as exc:
        return ["error", str(exc)]


def _embeddings():
    for K in SMALL:
        if K.n <= 5:
            for L in SMALL:
                emb = embedding_search(K, L)
                yield None if emb is None else emb.values


def _isomorphisms():
    for K in SMALL:
        for L in SMALL:
            if K.n == L.n:
                yield [m.values for m in isomorphisms(K, L)]


def _classify(L):
    cls = classify_si(L)
    return [cls.tag, cls.params, None if cls.iso is None else cls.iso.values]


def _position(L):
    pos = variety_position(L)
    return [pos.least_n, pos.embedded_si]


def _track_embeddings():
    for L in SMALL:
        for m, n in ((1, 1), (1, 2), (2, 1)):
            for t in weak_bitracks(L, m, n):
                yield _guarded(lambda: track_embedding(L, t).values)


def _sections():
    sources = SMALL + [
        direct_product(co_chain(2), co_chain(3)),
        direct_product(co_chain(2), l_mn(1, 1)),
        direct_product(l_mn(1, 1), l_mn(1, 1)),
    ]
    for K in sources:
        for target, T in TARGETS:
            for pi in surjection_search(K, T):
                yield _guarded(lambda: retract_section(K, pi, target).values)


OUTPUTS = {
    "embedding_search": _embeddings,
    "isomorphisms": _isomorphisms,
    "classify_si": lambda: (_classify(L) for L in SMALL),
    "variety_position": lambda: (_guarded(_position, L) for L in SMALL),
    "track_embedding": _track_embeddings,
    "retract_section": _sections,
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_map_outputs_pinned(name):
    out = list(OUTPUTS[name]())
    text = json.dumps(out, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]
