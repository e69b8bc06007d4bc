"""Example lattices and the canonical bi-track that several test modules share."""

from colat.catalog import l_mn
from colat.depend import WeakBiTrack, WeakTrack
from colat.lattice import FinLattice, lattice_from_json


def by_label(L, label):
    return L.labels.index(label)


def chain_lattice(n):
    up = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
    return FinLattice(up)


def pentagon():
    # 0 < a < c < 1 and 0 < b < 1 with a,b and b,c incomparable
    return lattice_from_json({
        "size": 5,
        "leq_pairs": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 4], [2, 4], [3, 4]],
        "labels": ["0", "a", "c", "b", "1"],
    })


def diamond():
    # M_3: three atoms below a common top
    return lattice_from_json({
        "size": 5,
        "leq_pairs": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 4], [2, 4], [3, 4]],
        "labels": ["0", "a", "b", "c", "1"],
    })


def lmn_bitrack(m, n):
    """The canonical weak bi-track of l_mn(m, n), written from its labels.

    First track: {m-1,m}, {m-1}, ..., {0} beside {m+n}.  Second track:
    {m-1,m}, {m+1}, ..., {m+n} beside {0}.  It is a weak bi-track: meet
    is intersection and join the hull of the union.  Past the head every
    entry is a singleton, so each step's meet is empty, and the entry
    before it misses the side at the far end of the chain.  {m-1,m} lies
    below each split's join, but the join of its meets there is a
    singleton or empty.
    """
    at = {lab: i for i, lab in enumerate(l_mn(m, n).labels)}
    head = at["{%d,%d}" % (m - 1, m)]
    first = (head, *(at["{%d}" % i] for i in range(m - 1, -1, -1)))
    second = (head, *(at["{%d}" % i] for i in range(m + 1, m + n + 1)))
    return WeakBiTrack(WeakTrack(first, at["{%d}" % (m + n)]),
                       WeakTrack(second, at["{0}"]))
