"""Finite lattices: order tables, congruences, map searches."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class LatticeError(ValueError):
    """Raised when input data does not describe a lattice."""


# -- order core shared with Poset ---------------------------------------------


def bits(mask: int):
    """Yield the positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transitive_close(up: list[int], n: int) -> list[int]:
    # up[i] is the bitmask of {j : i <= j}; closes the relation in place.
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in bits(acc):
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def _transpose(masks) -> list[int]:
    """Transpose a bit matrix: bit i of out[j] is bit j of masks[i].

    Turns up-sets into down-sets and back.
    """
    out = [0] * len(masks)
    for i, m in enumerate(masks):
        for j in bits(m):
            out[j] |= 1 << i
    return out


def _order_down(up, validate: bool, error: type[ValueError]) -> tuple[int, ...]:
    """Down-sets of the order given by up-sets, raising error on a non-order.

    Reflexivity is always checked; antisymmetry and then transitivity only
    when validate is set.
    """
    for i, u in enumerate(up):
        if not (u >> i) & 1:
            raise error("order is not reflexive")
    down = _transpose(up)
    if validate:
        for i, u in enumerate(up):
            if u & down[i] != 1 << i:
                raise error("order is not antisymmetric")
        for i, u in enumerate(up):
            for j in bits(u):
                if up[j] & ~u:
                    raise error("order is not transitive")
    return tuple(down)


def _covers(below, above) -> tuple[tuple[int, ...], ...]:
    """For each i, the j < i with nothing strictly between, ascending.

    below[i] and above[i] are the reflexive sets of elements under and over
    i; passing up-sets as below gives upper covers instead.
    """
    out = []
    for i, b in enumerate(below):
        strict = b & ~(1 << i)
        out.append(tuple(j for j in bits(strict) if not strict & above[j] & ~(1 << j)))
    return tuple(out)


def _restrict(up, keep) -> tuple[int, ...]:
    """Up-sets of the order induced on keep, with keep[i] renumbered to i."""
    out = []
    for e in keep:
        mask = 0
        for i, f in enumerate(keep):
            if (up[e] >> f) & 1:
                mask |= 1 << i
        out.append(mask)
    return tuple(out)


def _keyed(rel) -> dict[int, int]:
    """Map each rel[j] to j: the extreme of a closed set, keyed by that set.

    In a poset an up-closed set S has a least element v iff S = up[v]: v in
    S puts up[v] inside S, and S inside up[v] puts v below all of S.  So
    with up-sets as rel the map sends S to its least element, and S is
    absent when it has none; dually, with down-sets, a down-closed set to
    its greatest element.
    """
    return {r: j for j, r in enumerate(rel)}


class FinLattice:
    """A finite lattice on elements 0..n-1.

    The order is stored as up-set bitmasks: bit j of up[i] set iff i <= j.
    Join and meet tables are computed eagerly; construction fails if some
    pair lacks a least upper bound or greatest lower bound.
    """

    def __init__(self, up: tuple[int, ...], labels: tuple[str, ...] | None = None,
                 validate: bool = True):
        n = len(up)
        self.n = n
        self.up = tuple(up)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        if len(labels) != n:
            raise LatticeError("label count does not match element count")
        self.labels = tuple(labels)
        self.down = _order_down(self.up, validate, LatticeError)
        self._build_tables()

    def _build_tables(self) -> None:
        n, up, down = self.n, self.up, self.down
        least, greatest = _keyed(up), _keyed(down)
        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                ub = up[i] & up[j]
                if not ub:
                    raise LatticeError(f"elements {i},{j} have no upper bound")
                v = least.get(ub)
                if v is None:
                    raise LatticeError(f"elements {i},{j} have no join")
                join[i][j] = join[j][i] = v
                lb = down[i] & down[j]
                if not lb:
                    raise LatticeError(f"elements {i},{j} have no lower bound")
                v = greatest.get(lb)
                if v is None:
                    raise LatticeError(f"elements {i},{j} have no meet")
                meet[i][j] = meet[j][i] = v
        self.join_table = join
        self.meet_table = meet
        self.bottom = least.get((1 << n) - 1)
        self.top = greatest.get((1 << n) - 1)
        if self.bottom is None or self.top is None:
            raise LatticeError("lattice lacks bottom or top")

    # -- basic queries ----------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join_of(self, elems) -> int:
        v = self.bottom
        for e in elems:
            v = self.join_table[v][e]
        return v

    def meet_of(self, elems) -> int:
        v = self.top
        for e in elems:
            v = self.meet_table[v][e]
        return v

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        return _covers(self.down, self.up)

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        return _covers(self.up, self.down)

    @cached_property
    def join_irreducibles(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n)
                     if i != self.bottom and len(self.lower_covers[i]) == 1)

    def __repr__(self) -> str:
        return f"FinLattice(n={self.n})"


# -- congruences -------------------------------------------------------------


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], x: int, y: int) -> bool:
    """Merge the classes of x and y; False when they were already one class.

    The smaller root wins, so every root is the least member of its class.
    """
    rx, ry = _find(parent, x), _find(parent, y)
    if rx == ry:
        return False
    if rx > ry:
        rx, ry = ry, rx
    parent[ry] = rx
    return True


@dataclass(frozen=True)
class Congruence:
    """A lattice congruence given by its block partition.

    block_of[i] is the least element of the block containing i, so two
    congruences are equal iff their block_of tuples are equal.
    """

    block_of: tuple[int, ...]

    @classmethod
    def from_union_find(cls, parent: list[int]) -> "Congruence":
        """The partition of a union-find array built with _union."""
        return cls(tuple(_find(parent, i) for i in range(len(parent))))

    def same(self, i: int, j: int) -> bool:
        return self.block_of[i] == self.block_of[j]


def principal_congruence(L: FinLattice, a: int, b: int) -> Congruence:
    """Least congruence identifying a and b.

    Starts from the pair (a^b, avb).  Each pair that merges two blocks
    queues its translates (x v c, y v c) and (x ^ c, y ^ c) for every c;
    an equivalence generated by pairs whose translates it identifies is
    a congruence, so the partition is closed when the queue is empty.
    """
    parent = list(range(L.n))
    jt, mt = L.join_table, L.meet_table
    pending = [(mt[a][b], jt[a][b])]
    while pending:
        x, y = pending.pop()
        if not _union(parent, x, y):
            continue
        for row_x, row_y in ((jt[x], jt[y]), (mt[x], mt[y])):
            for u, v in zip(row_x, row_y):
                if u != v:
                    pending.append((u, v))
    return Congruence.from_union_find(parent)


def _principal_congruences(L: FinLattice) -> tuple[list[Congruence], list[int]]:
    """The distinct principal congruences of covering pairs, without zero,
    and their order: bit i of below[k] is set iff principals[i] refines
    principals[k].

    Every nonzero congruence collapses some covering pair a < b.  Taking
    j minimal with j <= b and not j <= a, the pair (j_*, j) of j and its
    unique lower cover is perspective to (a, b), so both generate the same
    congruence and the join-irreducibles suffice.  con(j_*, j) refines a
    congruence iff that congruence collapses j_* and j.  The principals
    come most blocks first, a linear extension of refinement, so below[k]
    has no bit above k.
    """
    pairs: dict[tuple[int, ...], tuple[int, int]] = {}
    for j in L.join_irreducibles:
        lo = L.lower_covers[j][0]
        pairs.setdefault(principal_congruence(L, lo, j).block_of, (lo, j))
    order = sorted(pairs, key=lambda b: -len(set(b)))
    principals = [Congruence(b) for b in order]
    below = [sum(1 << i for i, b in enumerate(order) if th.same(*pairs[b]))
             for th in principals]
    return principals, below


def monolith(L: FinLattice) -> Congruence | None:
    """Least nonzero congruence, or None when it does not exist.

    A least principal comes first in the linear extension of refinement.
    """
    principals, below = _principal_congruences(L)
    return principals[0] if principals and all(b & 1 for b in below) else None


def congruence_lattice(L: FinLattice) -> list[Congruence]:
    """All congruences of L, zero first, each formed once.

    Con(L) is distributive and its join-irreducibles are the principal
    congruences, so the congruences are the joins of the down-sets of
    principals (Freese, Jezek and Nation, Free Lattices, 2.5).  A down-set
    gains a principal i past its last member when it holds all strictly
    below i; so each is reached once, from itself less its last member.
    block_of is a union-find forest rooted at least members, so the join
    is one union pass.
    """
    principals, below = _principal_congruences(L)
    out: list[Congruence] = []

    def grow(theta: Congruence, down: int, start: int) -> None:
        out.append(theta)
        for i in range(start, len(principals)):
            if below[i] & ~down == 1 << i:
                parent = list(theta.block_of)
                for x, r in enumerate(principals[i].block_of):
                    _union(parent, x, r)
                grow(Congruence.from_union_find(parent), down | 1 << i, i + 1)

    grow(Congruence(tuple(range(L.n))), 0, 0)
    return out


# -- lattice maps ------------------------------------------------------------


@dataclass(frozen=True)
class LatticeMap:
    """A map between finite lattices, stored as the image of every element."""

    source: FinLattice
    target: FinLattice
    values: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.values[i]

    def preserves_ops(self) -> bool:
        s, t, v = self.source, self.target, self.values
        for i in range(s.n):
            for j in range(i + 1, s.n):
                if v[s.join_table[i][j]] != t.join_table[v[i]][v[j]]:
                    return False
                if v[s.meet_table[i][j]] != t.meet_table[v[i]][v[j]]:
                    return False
        return True

    @property
    def injective(self) -> bool:
        return len(set(self.values)) == len(self.values)

    @property
    def surjective(self) -> bool:
        return len(set(self.values)) == self.target.n


def direct_product(L1: FinLattice, L2: FinLattice) -> FinLattice:
    n1, n2 = L1.n, L2.n
    up = []
    labels = []
    for i in range(n1):
        for j in range(n2):
            # element (a, b) is a * n2 + b, so row a of the up-set is L2.up[j]
            mask = 0
            for a in bits(L1.up[i]):
                mask |= L2.up[j] << (a * n2)
            up.append(mask)
            labels.append(f"({L1.labels[i]},{L2.labels[j]})")
    return FinLattice(tuple(up), tuple(labels), validate=False)


# -- map searches ------------------------------------------------------------


def _ji_extension(K: FinLattice, L: FinLattice, base: int,
                  images: dict[int, int]) -> LatticeMap:
    """The map sending x to the join of images[j] over the j <= x in images,
    or to base when there is no such j."""
    values = []
    for x in range(K.n):
        below = [images[j] for j in bits(K.down[x]) if j in images]
        values.append(L.join_of(below) if below else base)
    return LatticeMap(K, L, tuple(values))


def _order_embeddings(K: FinLattice, L: FinLattice, src, candidates):
    """Iterate image tuples for the elements src of K with src[i] <= src[k] iff
    image i <= image k, lexicographic in the order of each candidates[i].

    Reflecting the order also rules out a repeated image: equal images are
    below each other, two distinct elements of K are not.
    """
    imgs = [-1] * len(src)

    def extend(i: int):
        if i == len(src):
            yield tuple(imgs)
            return
        x = src[i]
        # the images v with imgs[k] <= v iff src[k] <= x, and v <= imgs[k]
        # iff x <= src[k], for every k placed
        allowed = -1
        for k in range(i):
            up, down = L.up[imgs[k]], L.down[imgs[k]]
            allowed &= (up if K.leq(src[k], x) else ~up) & (down if K.leq(x, src[k]) else ~down)
        for v in candidates[i]:
            if allowed >> v & 1:
                imgs[i] = v
                yield from extend(i + 1)

    yield from extend(0)


def embedding_search(K: FinLattice, L: FinLattice) -> LatticeMap | None:
    """First lattice embedding of K into L in lexicographic image order, or None.

    Backtracks over images of the bottom and the join-irreducibles of K;
    the rest of the map is forced by joins and verified afterwards.
    """
    if K.n > L.n:
        return None
    jis = K.join_irreducibles
    for b in range(L.n):
        above = list(bits(L.up[b] & ~(1 << b)))
        for imgs in _order_embeddings(K, L, jis, [above] * len(jis)):
            cand = _ji_extension(K, L, b, dict(zip(jis, imgs)))
            if cand.injective and cand.preserves_ops():
                return cand
    return None


def _quotient(K: FinLattice, theta: Congruence) -> LatticeMap:
    """The quotient map of K onto K/theta, whose elements are the blocks
    of theta numbered in order of their least members."""
    block_of = theta.block_of
    reps = [i for i, b in enumerate(block_of) if b == i]
    index = {r: q for q, r in enumerate(reps)}
    # [a] <= [b] iff a ^ b lies in the block of a
    up = tuple(sum(1 << index[b] for b in reps if block_of[K.meet_table[a][b]] == a)
               for a in reps)
    return LatticeMap(K, FinLattice(up, validate=False), tuple(index[b] for b in block_of))


def surjection_search(K: FinLattice, L: FinLattice):
    """Iterate all surjective lattice homomorphisms from K onto L.

    A surjection is the quotient map K -> K/theta of its kernel theta
    followed by an isomorphism K/theta -> L.  So the search walks the
    congruences of K with L.n blocks, orders the blocks of each one, and
    composes the quotient map with every order isomorphism onto L.  Each
    composite is a surjective homomorphism unchecked: _quotient gives one,
    and an order isomorphism between lattices preserves joins and meets.

    Deterministic order: lexicographic in (bottom image, join-irreducible
    images with join-irreducibles ascending).  The bottom always maps to
    the bottom, and the join-irreducible images determine the map, so the
    maps are sorted by those images alone.
    """
    if K.n < L.n:
        return
    found = []
    for theta in congruence_lattice(K):
        if len(set(theta.block_of)) != L.n:
            continue
        quotient = _quotient(K, theta)
        for iso in isomorphisms(quotient.target, L):
            found.append(LatticeMap(K, L, tuple(iso.values[q] for q in quotient.values)))
    found.sort(key=lambda m: tuple(m.values[j] for j in K.join_irreducibles))
    yield from found


def isomorphisms(K: FinLattice, L: FinLattice):
    """Iterate all order isomorphisms from K onto L, lexicographic in the images.

    Backtracks element by element over images with the same counts of
    elements below and above and of lower and upper covers, which also
    turns away lattices of different sizes.
    """

    def profile(M: FinLattice, i: int) -> tuple:
        return (bin(M.down[i]).count("1"), bin(M.up[i]).count("1"),
                len(M.lower_covers[i]), len(M.upper_covers[i]))

    pk = [profile(K, i) for i in range(K.n)]
    pl = [profile(L, i) for i in range(L.n)]
    if sorted(pk) != sorted(pl):
        return
    candidates = [[j for j in range(L.n) if pl[j] == pk[i]] for i in range(K.n)]
    for values in _order_embeddings(K, L, range(K.n), candidates):
        yield LatticeMap(K, L, values)


def find_isomorphism(K: FinLattice, L: FinLattice) -> LatticeMap | None:
    """First order isomorphism from K onto L in lexicographic image order, or None."""
    return next(isomorphisms(K, L), None)


# -- enumeration of all small lattices ---------------------------------------


def _is_least(down: list[int]) -> bool:
    """True iff no relabelling of the order along a linear extension gives a
    lexicographically smaller list of down-set masks than down.

    Places elements position by position, each once its strict down-set is
    placed; a placement whose relabelled mask is below down[p] settles the
    question, and only placements that tie with down[p] are followed further.
    """
    n = len(down)
    pos = [0] * n  # pos[old] = new

    def smaller_from(p: int, placed: int) -> bool:
        for x in bits(~placed & ((1 << n) - 1)):
            strict = down[x] & ~(1 << x)
            if strict & ~placed:
                continue
            mask = 1 << p
            for j in bits(strict):
                mask |= 1 << pos[j]
            if mask < down[p]:
                return True
            if mask == down[p] and p + 1 < n:
                pos[x] = p
                if smaller_from(p + 1, placed | 1 << x):
                    return True
        return False

    # element 0 is the bottom, the one element every linear extension puts first
    return not smaller_from(1, 1)


def _lattice_extensions(down: list[int], n_target: int, out: list):
    """Append to out, in lexicographic order, the down-set lists of the
    lattices on n_target elements that extend down and are least by _is_least.

    Each step adds a new maximal element n above a mask, trying masks in
    ascending order, so the leaves come in lexicographic order of their
    down-set lists.  A prefix of a least list is least for its own order,
    so a prefix that is not least is pruned at once.  mask is tested only
    for frozen meets: each down[i] & mask must be some down[g].  That
    decides the rest.  For j in mask, g = j, so mask is down-closed.  Two
    members i, j of mask with an upper bound have a least one l (earlier
    steps kept it); as i, j lie in down[l] & mask = down[g], g = l, so l
    stays below n and the pair gets no second minimal upper bound.
    """
    n = len(down)
    if n == n_target:
        out.append(tuple(down))
        return
    greatest = _keyed(down)
    # the last element is the top, above everything; the others sit above
    # a mask containing the bottom element 0
    masks = range(1, 1 << n, 2) if n + 1 < n_target else [(1 << n) - 1]
    for mask in masks:
        if any((down[i] & mask) not in greatest for i in range(n)):
            continue
        down2 = down + [mask | 1 << n]
        if _is_least(down2):
            _lattice_extensions(down2, n_target, out)


def lattices_of_size(n: int) -> list[FinLattice]:
    """All lattices with exactly n elements, one per isomorphism class.

    Each class appears as its least linear-extension labelling: of the
    numberings along a linear extension of its order, the one whose list of
    down-set masks is lexicographically least.  The classes come in
    lexicographic order of those lists.
    """
    if n < 1:
        return []
    downs: list[tuple[int, ...]] = []
    _lattice_extensions([1], n, downs)
    return [FinLattice(tuple(_transpose(down)), validate=False) for down in downs]


def iter_lattices(max_size: int):
    """All lattices with at most max_size elements, by size, each size in the
    order of lattices_of_size: each class's least linear-extension labelling,
    in lexicographic order of down-set lists."""
    for n in range(1, max_size + 1):
        yield from lattices_of_size(n)


# -- serialization ------------------------------------------------------------


def lattice_to_json(L: FinLattice) -> dict:
    pairs = [[i, j] for i in range(L.n) for j in bits(L.up[i] & ~(1 << i))]
    return {"size": L.n, "leq_pairs": pairs, "labels": list(L.labels)}


def lattice_from_json(data: dict) -> FinLattice:
    """Read {"size", "leq_pairs", "labels"}; the pairs generate the order.

    A lattice's order is connected, so it needs at least size - 1
    generating pairs; fewer are rejected before anything is allocated.
    """
    if not isinstance(data, dict) or "size" not in data or "leq_pairs" not in data:
        raise LatticeError("bad lattice JSON: needs an object with 'size' and 'leq_pairs'")
    n, pairs = data["size"], data["leq_pairs"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise LatticeError("size must be a positive integer")
    if not isinstance(pairs, (list, tuple)):
        raise LatticeError("leq_pairs must be a list")
    if len(pairs) < n - 1:
        raise LatticeError(f"{len(pairs)} leq pairs cannot connect {n} elements")
    up = [1 << i for i in range(n)]
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
            raise LatticeError(f"leq pair {pair!r} is not a pair of integers")
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise LatticeError(f"leq pair {pair} out of range")
        up[i] |= 1 << j
    _transitive_close(up, n)
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, (list, tuple)):
            raise LatticeError("labels must be a list")
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise LatticeError("labels must be distinct")
    return FinLattice(tuple(up), labels)
