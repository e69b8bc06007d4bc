"""Finite posets and their lattices of order-convex subsets."""

from __future__ import annotations

from functools import cached_property

from .lattice import (FinLattice, LatticeError, _covers, _order_down, _restrict,
                      _transitive_close, bits)


class PosetError(ValueError):
    """Raised when input data does not describe a poset."""


class Poset:
    """Finite poset on elements 0..n-1 with string labels.

    Order stored as up-set bitmasks: bit j of up[i] set iff i <= j.
    """

    def __init__(self, labels, up, validate: bool = True):
        self.n = len(up)
        self.labels = tuple(labels)
        self.up = tuple(up)
        if len(self.labels) != self.n:
            raise PosetError("label count does not match element count")
        if len(set(self.labels)) != self.n:
            raise PosetError("labels must be distinct")
        self.down = _order_down(self.up, validate, PosetError)

    @classmethod
    def from_covers(cls, labels, cover_pairs) -> "Poset":
        """Build from cover (or any generating) pairs of labels, closing transitively."""
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        up = [1 << i for i in range(n)]
        for a, b in cover_pairs:
            if a not in index or b not in index:
                raise PosetError(f"cover pair ({a},{b}) uses unknown label")
            up[index[a]] |= 1 << index[b]
        return cls(labels, tuple(_transitive_close(up, n)))

    @classmethod
    def chain(cls, n: int) -> "Poset":
        up = tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
        return cls(tuple(str(i) for i in range(n)), up, validate=False)

    @classmethod
    def antichain(cls, n: int) -> "Poset":
        return cls(tuple(str(i) for i in range(n)),
                   tuple(1 << i for i in range(n)), validate=False)

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with j covering i, ascending."""
        return [(i, j) for i, above in enumerate(_covers(self.up, self.down))
                for j in above]

    def dual(self) -> "Poset":
        return Poset(self.labels, self.down, validate=False)

    def restrict(self, keep: list[int]) -> "Poset":
        """Induced subposet on the given elements, in the given order."""
        return Poset(tuple(self.labels[e] for e in keep), _restrict(self.up, keep),
                     validate=False)

    @cached_property
    def _intervals(self) -> tuple[tuple[int, ...], ...]:
        # _intervals[x][y] = mask of {z : x <= z <= y}
        n = self.n
        return tuple(tuple(self.up[x] & self.down[y] for y in range(n))
                     for x in range(n))

    def convex_hull(self, mask: int) -> int:
        """Least order-convex superset; one pass suffices by transitivity."""
        iv = self._intervals
        acc = mask
        members = list(bits(mask))
        for x in members:
            row = iv[x]
            for y in members:
                acc |= row[y]
        return acc

    def is_convex(self, mask: int) -> bool:
        return self.convex_hull(mask) == mask

    def convex_sets(self) -> list[int]:
        """All order-convex subsets as bitmasks, ascending. Guarded for size."""
        if self.n > 16:
            raise PosetError("convex-set enumeration limited to 16 elements")
        out = []
        for mask in range(1 << self.n):
            if self.is_convex(mask):
                out.append(mask)
        return out

    def set_label(self, mask: int) -> str:
        names = [self.labels[i] for i in range(self.n) if (mask >> i) & 1]
        return "{" + ",".join(names) + "}"

    def co_lattice(self) -> tuple[FinLattice, list[int]]:
        """Lattice of order-convex subsets: meet is intersection, join is
        the convex hull of the union. Returns the lattice and the mask of
        each element, indexed identically.  Limited to 256 elements, counted
        before the n x n tables are built."""
        sets = self.convex_sets()
        if len(sets) > 256:
            raise PosetError(f"Co(P) has {len(sets)} elements; limited to 256")
        index = {s: i for i, s in enumerate(sets)}
        n = len(sets)
        up = [0] * n
        for i, s in enumerate(sets):
            for j, t in enumerate(sets):
                if s & ~t == 0:
                    up[i] |= 1 << j
        labels = tuple(self.set_label(s) for s in sets)
        L = FinLattice(tuple(up), labels, validate=False)
        # cross-check the table against the intended operations
        for i, s in enumerate(sets):
            for j, t in enumerate(sets):
                if L.join_table[i][j] != index[self.convex_hull(s | t)]:
                    raise LatticeError("join table disagrees with convex hull")
                if L.meet_table[i][j] != index[s & t]:
                    raise LatticeError("meet table disagrees with intersection")
        return L, sets


def poset_to_json(P: Poset) -> dict:
    covers = [[P.labels[i], P.labels[j]] for i, j in P.cover_pairs()]
    return {"elements": list(P.labels), "covers": covers}


def poset_from_json(data: dict) -> Poset:
    if not (isinstance(data, dict) and isinstance(data.get("elements"), list)
            and isinstance(data.get("covers"), list)):
        raise PosetError("bad poset JSON: needs an object with 'elements' and 'covers' lists")
    try:
        labels = [str(x) for x in data["elements"]]
        covers = [(str(a), str(b)) for a, b in data["covers"]]
    except (TypeError, ValueError) as exc:
        raise PosetError(f"bad poset JSON: {exc}") from exc
    return Poset.from_covers(labels, covers)
