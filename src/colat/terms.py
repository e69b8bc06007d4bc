"""Lattice terms, the identity DSL, and exhaustive identity checking.

Terms are immutable trees of n-ary joins and meets over named variables.
An identity relates two terms by equality or one-sided inclusion and is
checked against a finite lattice by sweeping every assignment of elements
to variables.  The sweep is chunked over a prefix of the declared
variable order, so the first reported counter-assignment is always the
lexicographically least one regardless of worker count.

Within a chunk the inner variables lie on broadcast numpy axes; numpy
is imported by the first sweep, so the rest of colat runs without it.  An
axis is one variable, or one run of symmetric variables (see
_symmetric_runs): a permutation of a run maps a failing assignment to a
failing one, so the least witness has each run's values non-decreasing,
and the run's axis holds only those tuples, in lexicographic order.  A
restricted variable (see _restricted_variables), one met directly with
every tested left side, can be lowered to a join-irreducible at any
failing assignment, so at the least witness it lies in D(L) (see
_domain), J(L) when the elements are numbered along a linear extension;
as a prefix or on its axis it sweeps only D(L).  The first variable of
E, P, HS and D2DUAL is restricted.  The node lists, the runs and the
restricted variables are computed once per identity.  The two
compared terms share one node list over an injective encoding of the
elements (see _encoding): with at most 16 join-irreducibles, bitmasks of
the join-irreducibles below, so a meet is an AND and a join of any arity
an OR and one closure lookup; with more, element indices looked up in
flat tables.  A node that reads only prefix variables is a scalar that
broadcasts; the others are arrays, each recomputed only when the prefix
values it reads change, so nodes that read no prefix variable are
computed once per check.

The sweep tests the inclusions p <= q that Whitman's algorithm does not
prove for every lattice (lhs <= rhs alone for the built-ins), each as
p v q == q, and closes only their left sides: over masks, a join that
only right sides read is a bare OR.  Closure is extensive and every
operation monotone, so such a right side evaluates below its exact
value, and a cell where p <= q holds with it holds.  The cells that it
flags are re-evaluated exactly, over 1-D arrays of those cells, and the
first that really fails is the witness.  Element indices have no
closure to skip, so every node is exact there.

A verdict can also be decided over the join-irreducibles, without
visiting the assignments one by one: decide_identity runs a demand
search (see _Demand) on each inclusion that Whitman's algorithm does not
already prove for every lattice.  check runs it first when its sweep
would need more than one chunk.  "Holds" returns at once; after "fails"
the search fixes the prefix variables one at a time, trying the values
of each variable's sweep domain and skipping each slab of assignments it
proves clean, until it names the chunk of the least witness.  The sweep
starts at that chunk, or at the deepest prefix reached when the shared
budget runs out: 1/1024 of the cells that the sweep would visit,
counted with the runs and D(L).  The sweep alone produces witnesses,
and every check of at most CHUNK_CELLS assignments is swept directly.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import weakref
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

from .depend import is_minimal_in, is_minimal_pair_cover, min_covers, minimal_pairs
from .lattice import FinLattice
from .pool import ordered_map


class TermError(ValueError):
    pass


class ParseError(TermError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


@dataclass(frozen=True, eq=False)
class Term:
    kind: str                             # "var", "join", "meet"
    children: tuple["Term", ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.kind == "var":
            if not self.name or self.children:
                raise TermError("variable nodes carry a name and no children")
        elif self.kind in ("join", "meet"):
            if len(self.children) < 2:
                raise TermError("operator needs at least two arguments")
        else:
            raise TermError(f"unknown node kind {self.kind!r}")

    def __eq__(self, other):
        return isinstance(other, Term) and _flatten(self) == _flatten(other)

    def __hash__(self):
        return hash(tuple(_flatten(self)[0]))

    def __repr__(self):
        return f"parse_term({term_to_sexpr(self)!r})"


def var(name: str) -> Term:
    return Term("var", name=name)


def join(*terms: Term) -> Term:
    return Term("join", tuple(terms))


def meet(*terms: Term) -> Term:
    return Term("meet", tuple(terms))


def _flatten(*roots: Term) -> tuple[list, list]:
    """Each distinct subterm of roots once, children first, as (kind, name,
    kids) with kids its children's indices, and the index of each root.
    Every term walk folds this list, built on an explicit stack, not by recursion."""
    index: dict[tuple, int] = {}          # each node, in order of its index
    placed: dict[int, int] = {}           # the index of each Term object seen
    stack = [(t, False) for t in reversed(roots)]
    while stack:
        t, ready = stack.pop()
        if id(t) in placed:
            continue
        if ready or not t.children:
            node = (t.kind, t.name, tuple([placed[id(c)] for c in t.children]))
            placed[id(t)] = index.setdefault(node, len(index))
        else:
            stack.append((t, True))
            stack.extend([(c, False) for c in reversed(t.children)])
    return list(index), [placed[id(t)] for t in roots]


def term_variables(t: Term) -> frozenset[str]:
    return frozenset(name for kind, name, _ in _flatten(t)[0] if kind == "var")


def term_to_sexpr(t: Term) -> str:
    nodes, stack = _flatten(t)             # the stack starts at the root
    out = []
    while stack:
        k = stack.pop()
        if isinstance(k, str):                # a ")" or the space before a child
            out.append(k)
            continue
        kind, name, kids = nodes[k]
        out.append(name or ("(v" if kind == "join" else "(^"))
        stack.append(")" if kids else "")
        for c in reversed(kids):
            stack += (c, " ")
    return "".join(out)


def parse_term(text: str) -> Term:
    toks = [(m[0], m.start()) for m in re.finditer(r"[()]|[^ \t\r\n()]+", text)]
    if not toks:
        raise ParseError("empty input", 0)
    toks = iter(toks + [("", len(text))])  # the end, which no real token is
    stack: list[tuple[str, int, list]] = []  # open operators: kind, head position, children
    for tok, pos in toks:
        if stack and tok in (")", ""):
            if not tok:
                raise ParseError("missing ')'", pos)
            kind, pos, children = stack.pop()
            if len(children) < 2:
                raise ParseError("operator needs at least two arguments", pos)
            term = Term(kind, tuple(children))
        elif tok == "(":
            head, pos = next(toks)
            if head not in ("v", "^"):
                raise ParseError("expected operator 'v' or '^'" if head
                                 else "unexpected end of input", pos)
            stack.append(("join" if head == "v" else "meet", pos, []))
            continue
        elif tok in (")", "v", "^"):
            raise ParseError("unexpected ')'" if tok == ")" else "operator used as a variable", pos)
        else:
            term = Term("var", name=tok)
        if not stack:
            break
        stack[-1][2].append(term)
    tok, pos = next(toks)
    if tok:
        raise ParseError("trailing input", pos)
    return term


# -- identities ------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """Two terms related by "eq" or "leq" over a declared variable order.

    The variable order fixes witness tuples and the evaluation chunking,
    so it is part of the identity's contract.
    """

    name: str
    variables: tuple[str, ...]
    relation: str
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.relation not in ("eq", "leq"):
            raise TermError(f"unknown relation {self.relation!r}")
        if len(set(self.variables)) != len(self.variables):
            raise TermError("duplicate variable declaration")
        # one walk over both sides
        stray = term_variables(join(self.lhs, self.rhs)) - set(self.variables)
        if stray:
            raise TermError(f"undeclared variables: {sorted(stray)}")

    # check's derived data, kept on the identity so that a later call costs
    # one attribute read: the runs of _symmetric_runs, the variables of
    # _restricted_variables, the node list of both terms with their roots and
    # the inclusions to test, _compile's by prefix length, and
    # _demand_kernel's by right side q, generated code that pickling leaves out
    @cached_property
    def _run_ends(self) -> tuple[int, ...]:
        return _symmetric_runs(self)

    @cached_property
    def _restricted(self) -> int:
        return _restricted_variables(self)

    @cached_property
    def _sides(self) -> tuple[tuple, list]:
        """_term_nodes of lhs and rhs, with the index of each root, and the
        inclusions (p, q) to test: lhs <= rhs and, for "eq", rhs <= lhs, less
        those that Whitman's algorithm proves for every lattice (only lhs <= rhs
        is left for E, P, HS and D2DUAL)."""
        nodes, lhs, rhs = term_nodes = _term_nodes(self.variables, self.lhs, self.rhs)
        wanted = [(lhs, rhs), (rhs, lhs)] if self.relation == "eq" else [(lhs, rhs)]
        memo: dict = {}
        return term_nodes, [pq for pq in wanted if not _free_leq(nodes, *pq, memo)]

    @cached_property
    def _compiled(self) -> dict:
        return {}

    _kernel = cached_property(lambda self: {q: _demand_kernel(self._sides[0][0], q)
                                            for _, q in self._sides[1]})

    def __getstate__(self):
        return {key: got for key, got in self.__dict__.items() if key != "_kernel"}


def identity_to_json(ident: Identity) -> dict:
    return {
        "name": ident.name,
        "vars": list(ident.variables),
        "relation": ident.relation,
        "lhs": term_to_sexpr(ident.lhs),
        "rhs": term_to_sexpr(ident.rhs),
    }


def identity_from_json(obj: dict) -> Identity:
    """Read an identity object; "vars", "relation", "lhs" and "rhs" are required."""
    if not isinstance(obj, dict):
        raise TermError("identity JSON must be an object")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise TermError("identity 'name' must be a string")
    lhs, rhs = obj.get("lhs"), obj.get("rhs")
    if lhs in (None, "") or rhs in (None, ""):
        raise TermError(
            f"identity file {name!r} is an unfilled placeholder; "
            "transcribe its terms before use"
        )
    if not (isinstance(lhs, str) and isinstance(rhs, str)):
        raise TermError("identity 'lhs' and 'rhs' must be term strings")
    variables = obj.get("vars")
    if not (isinstance(variables, list) and all(isinstance(v, str) for v in variables)):
        raise TermError("identity 'vars' must be a list of variable names")
    if "relation" not in obj:
        raise TermError("identity JSON lacks 'relation'")
    return Identity(
        name=name,
        variables=tuple(variables),
        relation=obj["relation"],
        lhs=parse_term(lhs),
        rhs=parse_term(rhs),
    )


# -- built-in identities -----------------------------------------------------------


def _identity_e() -> Identity:
    x, a = var("x"), var("a")
    b = [var("b0"), var("b1"), var("b2")]
    lhs = meet(x, *(join(a, b[i]) for i in range(3)))
    parts = [
        meet(x, b[i], *(join(a, b[j]) for j in range(3) if j != i))
        for i in range(3)
    ]
    for s in itertools.permutations(range(3)):
        bs0 = meet(b[s[0]], join(x, b[s[1]]))
        bs1 = meet(b[s[1]], join(x, b[s[2]]), join(b[s[0]], b[s[2]]))
        parts.append(meet(x, join(a, bs0), join(a, bs1), join(a, b[s[2]])))
    return Identity("E", ("x", "a", "b0", "b1", "b2"), "eq", lhs, join(*parts))


def _identity_p() -> Identity:
    a, b, c, d = var("a"), var("b"), var("c"), var("d")
    b0, b1 = var("b0"), var("b1")
    bp = meet(b, join(b0, b1))
    lhs = meet(a, join(bp, c), join(c, d))
    parts = [
        meet(a, bp, join(c, d)),
        meet(a, d, join(bp, c)),
        meet(a, join(meet(bp, join(a, d)), c), join(c, d)),
    ]
    for bi in (b0, b1):
        parts.append(meet(
            a,
            join(bi, c),
            join(meet(bp, join(a, bi), join(bi, d)), c),
            join(c, d),
        ))
    return Identity("P", ("a", "b", "c", "d", "b0", "b1"), "eq", lhs, join(*parts))


def _identity_hs() -> Identity:
    a, b, c = var("a"), var("b"), var("c")
    bs = [var("b0"), var("b1")]
    bp = meet(b, join(*bs))
    lhs = meet(a, join(bp, c))
    parts = [meet(a, bp)]
    for i in range(2):
        parts.append(meet(a, join(meet(b, bs[i]), c)))
    for i in range(2):
        parts.append(meet(
            a,
            join(meet(bp, join(a, bs[i])), c),
            join(bs[i], c),
            join(b, bs[1 - i]),
        ))
    for i in range(2):
        parts.append(meet(
            a,
            join(meet(bp, join(a, bs[i])), c),
            join(bs[0], c),
            join(bs[1], c),
        ))
    return Identity("HS", ("a", "b", "c", "b0", "b1"), "eq", lhs, join(*parts))


def _identity_star() -> Identity:
    x0, x1, x2, x3 = var("x0"), var("x1"), var("x2"), var("x3")
    xa, xb = var("xa"), var("xb")
    u1, u2 = x1, x2
    for _ in range(2):
        u1, u2 = (
            meet(u1, join(x0, u2), join(x0, xb)),
            meet(u2, join(x3, u1), join(x3, xa)),
        )
    s = meet(x1, join(x0, meet(join(x1, xb), join(x2, xa))))
    t = join(
        meet(x1, xb),
        meet(x1, join(x0, xa)),
        meet(x1, join(x2, xa)),
        meet(x1, join(x0, meet(x2, join(x1, xa)))),
        meet(x1, join(x0, meet(x2, join(x1, xb)))),
        meet(x1, join(x0, meet(x2, join(x3, xb)))),
    )
    names = ("x0", "x1", "x2", "x3", "xa", "xb")
    return Identity("STAR", names, "leq", u1, join(s, t))


def _identity_d2dual() -> Identity:
    x = var("x")
    ys = [var("y0"), var("y1"), var("y2")]
    lhs = meet(x, join(*ys))
    rhs = join(*(meet(x, join(ys[i], ys[j]))
                 for i in range(3) for j in range(i + 1, 3)))
    return Identity("D2DUAL", ("x", "y0", "y1", "y2"), "eq", lhs, rhs)


_BUILTINS = {
    "E": _identity_e,
    "P": _identity_p,
    "HS": _identity_hs,
    "STAR": _identity_star,
    "D2DUAL": _identity_d2dual,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin(name: str) -> Identity:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise TermError(
            f"unknown identity {name!r}; built in: {', '.join(builtin_names())}"
        ) from None
    return factory()


# -- exhaustive checking -----------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    holds: bool
    witness: dict[str, int] | None
    assignments: int


CHUNK_CELLS = 1 << 21
ASSIGNMENT_GUARD = 10 ** 9


def eval_term(L: FinLattice, t: Term, env: dict[str, int]) -> int:
    nodes, (root,) = _flatten(t)
    values: list[int] = []
    for kind, name, kids in nodes:
        table = L.join_table if kind == "join" else L.meet_table
        values.append(env[name] if kind == "var" else
                      reduce(lambda acc, c: table[acc][values[c]], kids[1:], values[kids[0]]))
    return values[root]


def _term_nodes(variables, lhs: Term, rhs: Term):
    """The _flatten list of two terms, with variables as indices.

    A node is (kind, children, vi, support): vi is the index of a
    variable node's variable and -1 for an operation, and support is the
    bitmask of the variables a node reads.  Returns the list and the
    indices of lhs and rhs.
    """
    flat, (left, right) = _flatten(lhs, rhs)
    nodes: list[tuple] = []
    for kind, name, kids in flat:
        vi = variables.index(name) if kind == "var" else -1
        support = 1 << vi if vi >= 0 else 0
        for c in kids:
            support |= nodes[c][3]
        nodes.append((kind, kids, vi, support))
    return nodes, left, right


def _symmetric_runs(ident: Identity) -> tuple[int, ...]:
    """The runs of symmetric variables: entry i is the end of i's run.

    Adjacent variables share a run when swapping them leaves both terms
    unchanged up to the order of each join's and meet's children.  Those
    transpositions generate every permutation of a run, so each leaves
    the identity invariant, and fixing the variables before some point
    of a run leaves every permutation of its rest.  A symmetry missed
    here costs the sweep speed, never a verdict.
    """
    (nodes, lhs, rhs), _ = ident._sides
    v = len(ident.variables)
    # lhs and rhs as interned ids, equal for nodes equal up to that order, with
    # variable i read as place[i]: as declared, then with each adjacent pair swapped
    interned: dict[tuple, int] = {}
    sides = []
    for place in [range(v)] + [[*range(i), i + 1, i, *range(i + 2, v)] for i in range(v - 1)]:
        ids: list[int] = []
        for kind, kids, vi, _ in nodes:
            key = place[vi] if kind == "var" else tuple(sorted(ids[c] for c in kids))
            ids.append(interned.setdefault((kind, key), len(interned)))
        sides.append((ids[lhs], ids[rhs]))
    ends = list(range(1, v + 1))
    for i in reversed(range(v - 1)):
        if sides[i + 1] == sides[0]:
            ends[i] = ends[i + 1]
    return tuple(ends)


def _restricted_variables(ident: Identity) -> int:
    """The bitmask of the restricted variables: each x that is, in every
    tested left side p, p itself or a meetand of p that no other meetand reads.

    A restricted x takes a value in D(L) (see _domain) at the least
    counter-assignment.  Every element is the join of the join-irreducibles
    below it (Freese, Jezek and Nation, Free Lattices, ch. 1-2), so if p <= q
    fails at s, some j in J(L) has j <= p(s) and j !<= q(s).  Write p as
    x ^ p', where p' does not read x (p' is top when p is x).  Lowering x
    to j, which lies below p(s) <= s(x), gives t with p(t) = j ^ p'(s) = j,
    as j <= p(s) <= p'(s), and q(t) <= q(s), as q is monotone: p <= q
    still fails at t.  If s(x) is not in D(L), it is not in J(L), and every
    j in J(L) below it is numbered before it, so t comes before s in the
    lexicographic order.  x is restricted in every tested inclusion, so
    this holds for whichever fails at the least counter-assignment, and
    that one has every restricted variable in D(L).  The first variable of
    E, P, HS and D2DUAL is restricted, and none of (*).
    """
    (nodes, *_), sides = ident._sides
    got = (1 << len(ident.variables)) - 1
    for p, _ in sides:
        kind, kids, _, _ = nodes[p]
        direct = elsewhere = 0
        for k in kids if kind == "meet" else (p,):
            if nodes[k][0] == "var":
                direct |= nodes[k][3]
            else:
                elsewhere |= nodes[k][3]
        got &= direct & ~elsewhere
    return got


def _compile(ident: Identity, n_prefix: int):
    """CSE the compared terms into one topologically sorted node list.

    A node is (kind, vi, kids, keyvars).  A variable node carries its
    index vi.  An operation lists its children by how many inner
    variables they read, so that scalars, which read prefix variables
    only, fold first and the accumulator widens last.  keyvars lists the
    prefix variables a node reads if it reads an inner one too, and is
    None for a scalar.  Next come the inclusions (p, q) to test, those of
    Identity._sides.  Every node that a left side p reads is exact; a
    join that only right sides read is of kind "raw" and skips its
    closure, so its value, and the value of every node that reads it,
    may lie below the exact one.  Last come the inner axes, each
    (first, k): the k variables from first on are one variable, or the
    inner part of a run of _symmetric_runs.  Compiled once per identity
    and prefix length.
    """
    got = ident._compiled.get(n_prefix)
    if got is None:
        (terms, *_), sides = ident._sides
        # children come first, so one reverse pass reaches all the left sides read
        left = {p for p, _ in sides}
        for k in reversed(range(len(terms))):
            if k in left:
                left.update(terms[k][1])
        # how many inner variables each node reads
        ranks = [(support >> n_prefix).bit_count() for *_, support in terms]
        nodes = [
            ("raw" if kind == "join" and k not in left else kind, vi,
             tuple(sorted(kids, key=ranks.__getitem__)),
             tuple(i for i in range(n_prefix) if support >> i & 1) if ranks[k] else None)
            for k, (kind, kids, vi, support) in enumerate(terms)
        ]
        ends, axes, i = ident._run_ends, [], n_prefix
        while i < len(ends):
            axes.append((i, ends[i] - i))
            i = ends[i]
        got = ident._compiled[n_prefix] = nodes, sides, tuple(axes)
    return got


@lru_cache(maxsize=64)
def _combinations(domain, k: int):
    """The non-decreasing k-tuples over domain, an ascending range or tuple,
    in lexicographic order, one per row."""
    import numpy as np
    rows = list(itertools.combinations_with_replacement(domain, k))
    table = np.array(rows, dtype=np.min_scalar_type(max(domain, default=0))).reshape(len(rows), k)
    table.flags.writeable = False
    return table


@dataclass
class _Sweep:
    """Everything a chunk scan needs; one instance per check call.

    nodes and sides are those of _compile, and codes and ops those of
    _encoding: an operation folds its kids' codes with combine, then
    applies finish if any.  columns gives each inner variable its axis
    and its codes along that axis, shaped to broadcast.  values holds each node's codes for
    the last prefix scanned: an int for a scalar, else an array that
    broadcasts to shape, the inner axes.  keys holds the prefix values
    each array node was computed for; a node is recomputed only when
    they change, so a node that reads no prefix variable is computed
    once per call.  The cache is keyed by value, so a worker that scans
    prefixes out of order still reads the right arrays.  Cached arrays
    are never written to.  recheck is set when some raw join skips a
    closure.
    """

    nodes: list
    sides: list
    recheck: bool
    shape: tuple
    codes: list
    columns: dict
    ops: dict
    values: list
    keys: list

    def fold(self, kind: str, kids: tuple, values: list):
        """The codes of an operation of this kind over its kids' values."""
        combine, finish = self.ops[kind]
        acc = values[kids[0]]
        for j in kids[1:]:
            acc = combine(acc, values[j])
        return finish(acc) if finish else acc

    def fails(self, values: list):
        """Where some inclusion p <= q fails, read as p v q != q.  The
        combine of a join alone decides it: an OR of join-irreducible
        masks, or a lookup in the join table of element indices."""
        combine, out = self.ops["join"][0], False
        for p, q in self.sides:
            out = out | (combine(values[p], values[q]) != values[q])
        return out

    def scan(self, prefix: tuple[int, ...]):
        """First violating inner index in C order, or None.

        A raw join lies below the exact one, and every operation is
        monotone, so a right side q evaluates below its exact value: a
        cell where p <= q holds with that value holds.  The cells flagged
        are re-evaluated exactly, every node over 1-D arrays of the inner
        variables' codes at those cells, and the first that really fails
        is reported.
        """
        import numpy as np
        values, keys = self.values, self.keys
        for k, (kind, vi, kids, keyvars) in enumerate(self.nodes):
            if kind == "var":
                if keyvars is None:
                    values[k] = self.codes[prefix[vi]]
                continue
            if keyvars is not None:
                key = tuple(map(prefix.__getitem__, keyvars))
                if keys[k] == key:
                    continue
                keys[k] = key
            values[k] = self.fold(kind, kids, values)
        flagged = self.fails(values)
        if not np.any(flagged):
            return None
        if not self.recheck:
            return int(np.argmax(np.broadcast_to(flagged, self.shape)))
        cells = np.flatnonzero(np.broadcast_to(flagged, self.shape))
        at = np.unravel_index(cells, self.shape) if self.shape else ()
        exact = values[:]
        for k, (kind, vi, kids, keyvars) in enumerate(self.nodes):
            if kind != "var":
                exact[k] = self.fold("join" if kind == "raw" else kind, kids, exact)
            elif keyvars is not None:
                axis, column = self.columns[vi]
                exact[k] = column.take(at[axis])
        hits = np.flatnonzero(np.broadcast_to(self.fails(exact), cells.shape))
        return int(cells[hits[0]]) if hits.size else None


def check(L: FinLattice, ident: Identity, workers: int = 1, force: bool = False) -> CheckResult:
    """Exhaustively check an identity on a finite lattice.

    The reported witness is the lexicographically least
    counter-assignment in the declared variable order, independent of
    worker count.  A check of more than one chunk first runs the demand
    search of _locate over the sweep's chunk prefixes, which returns
    "holds" without sweeping or names the chunk of the least witness; the
    sweep starts at that chunk, or where the search gave up.
    ASSIGNMENT_GUARD then bounds the cells left to sweep, unless force is
    set or the chunk was named.  A chunk visits only the non-decreasing
    values of each run of symmetric variables, and a restricted variable
    (see _restricted_variables) only the values in D(L), as a prefix too;
    assignments still counts all n^v.
    """
    import numpy as np
    n, v = L.n, len(ident.variables)
    total = n ** v
    c = 0
    while n ** (v - c) > CHUNK_CELLS:
        c += 1
    nodes, sides, axes = _compile(ident, c)
    # the values that each prefix variable and each inner axis sweeps
    fenced = _domain(L)

    def domain(first: int, k: int = 1):
        run = (1 << k) - 1 << first
        return fenced if ident._restricted & run == run else range(n)

    heads = [domain(i) for i in range(c)]
    bodies = [domain(first, k) for first, k in axes]
    inner = math.prod(math.comb(len(body) + k - 1, k) for body, (_, k) in zip(bodies, axes))
    cells = math.prod(map(len, heads)) * inner
    # every search shares one budget of cells / 1024 pushed states, at most
    # guard / 1024 without force; the min_covers set-up is outside it
    budget = (cells if force else min(cells, ASSIGNMENT_GUARD)) >> 10
    refuted, start = _locate(L, ident, budget, heads) if c else (None, ())
    if refuted is False:
        return CheckResult(ident.name, True, None, total)
    rank = _rank(heads, start)
    left = cells - rank * inner
    if refuted is None and left > ASSIGNMENT_GUARD and not force:
        raise TermError(
            f"{left} cells left to sweep exceed {ASSIGNMENT_GUARD} and the demand "
            "search gave up; pass force=True to sweep anyway"
        )
    codes, ops = _encoding(L)
    # each inner variable's axis and codes along it, from its column of the
    # axis's table of non-decreasing tuples
    tables = [_combinations(body, k) for body, (_, k) in zip(bodies, axes)]
    inner_shape = tuple(len(table) for table in tables)
    columns = {}
    for a, (first, k) in enumerate(axes):
        shape = [1] * len(axes)
        shape[a] = -1
        for col in range(k):
            columns[first + col] = a, codes[tables[a][:, col]].reshape(shape)
    values = [columns[vi][1] if kind == "var" and keyvars is not None else None
              for kind, vi, _, keyvars in nodes]
    # element indices have no closure, so every node is exact there
    recheck = ops["join"][1] is not None and any(node[0] == "raw" for node in nodes)
    sweep = _Sweep(nodes, sides, recheck, inner_shape, codes.tolist(), columns, ops, values,
                   [None] * len(nodes))
    # results come in prefix order, so the first hit is the least one; one
    # chunk (c == 0, or a refutation located) is not worth a pool
    prefixes, sent = itertools.tee(itertools.islice(itertools.product(*heads), rank, None))
    flats = ordered_map(_Sweep.scan, sweep, sent, workers if c and refuted is None else 1)
    with closing(flats):
        for prefix, flat in zip(prefixes, flats):
            if flat is not None:
                tail = np.unravel_index(flat, inner_shape) if inner_shape else ()
                point = prefix + tuple(int(t) for table, row in zip(tables, tail)
                                       for t in table[row])
                return CheckResult(ident.name, False,
                                   dict(zip(ident.variables, point)), total)
    return CheckResult(ident.name, True, None, total)


@dataclass
class _Kept:
    """What checks derive from one lattice and keep until the lattice is
    dropped: _encoding and _domain, each built at its first use, and the
    demand search's minimal covers by join-irreducible a, widths by (number
    of kids, a) and templates by (kids, a), shared by every identity."""

    encoding: tuple | None = None
    domain: tuple | None = None
    covers: dict = field(default_factory=dict)
    widths: dict = field(default_factory=dict)
    templates: dict = field(default_factory=dict)


_KEPT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kept(L: FinLattice) -> _Kept:
    got = _KEPT.get(L)
    if got is None:
        got = _KEPT[L] = _Kept()
    return got


def _encoding(L: FinLattice):
    """The element codes of a sweep over L and its (combine, finish) pairs,
    built once per lattice.  With at most 16 join-irreducibles bit i of
    codes[e] is set iff join_irreducibles[i] <= e, and closure[S] is the
    code of the join of the join-irreducibles in S, so x ^ y is
    codes[x] & codes[y] and x v y is closure[codes[x] | codes[y]]; closure
    has 2^|J| entries.  Otherwise the codes are element indices into flat
    tables at a * n + b.  "raw" is the join without its closure, the join
    itself for element indices.
    """
    kept = _kept(L)
    if kept.encoding is not None:
        return kept.encoding
    import numpy as np
    n, jis = L.n, L.join_irreducibles
    if len(jis) <= 16:
        codes = np.array([sum(1 << i for i, j in enumerate(jis) if L.up[j] >> e & 1)
                          for e in range(n)], dtype=np.min_scalar_type((1 << len(jis)) - 1))
        # elems[S] is the join of the join-irreducibles in S, one bit per step
        join, elems = np.array(L.join_table, dtype=np.int32).ravel(), np.array([L.bottom])
        for j in jis:
            elems = np.concatenate((elems, join[elems * n + j]))
        got = codes, {"meet": (operator.and_, None), "join": (operator.or_, codes[elems].take),
                      "raw": (operator.or_, None)}
    else:
        # n <= 256 keeps every table index a * n + b below 2**16
        dtype = np.uint16 if n <= 256 else np.int32
        ops = {kind: (lambda a, b, flat=np.array(table, dtype=dtype).ravel(): flat.take(a * n + b),
                      None)
               for kind, table in (("join", L.join_table), ("meet", L.meet_table))}
        got = np.arange(n, dtype=dtype), dict(ops, raw=ops["join"])
    kept.encoding = got
    return got


def _domain(L: FinLattice) -> tuple[int, ...]:
    """D(L), the values a restricted variable takes in the sweep: J(L) and
    each e with some j in J(L), j <= e, numbered after e, in ascending
    order.  It is J(L) when the elements are numbered along a linear
    extension of the order, and empty for the one-element lattice."""
    kept = _kept(L)
    if kept.domain is None:
        jis = sum(1 << j for j in L.join_irreducibles)
        # e itself is the only element below e numbered e
        kept.domain = tuple(e for e in range(L.n) if (L.down[e] & jis) >> e)
    return kept.domain


def _rank(domains, start: tuple) -> int:
    """The index in product(*domains) of the first tuple that starts with start."""
    return sum(d.index(t) * math.prod(map(len, domains[i + 1:]))
               for i, (d, t) in enumerate(zip(domains, start)))


# -- deciding an identity over the join-irreducibles -------------------------------


def _free_leq(nodes, s: int, t: int, memo: dict) -> bool:
    """Whitman's algorithm: whether s <= t holds in every lattice.

    Freese, Jezek and Nation, Free Lattices (AMS 1995), ch. 1.  Open pairs
    are frames on an explicit stack, so deep terms need no recursion: a
    frame's verdict is its stop value once one of its pending pairs gives
    that value, and the other value once none is left.
    """
    frames, pair = [], (s, t)
    while True:
        got = memo.get(pair)
        if got is None:
            a, b = pair
            (ka, ca, *_), (kb, cb, *_) = nodes[a], nodes[b]
            if ka == "join":
                frames.append((pair, False, iter([(c, b) for c in ca])))
            elif kb == "meet":
                frames.append((pair, False, iter([(a, c) for c in cb])))
            elif a == b:
                # a variable has no children: two variables compare by identity
                got = memo[pair] = True
            else:
                frames.append((pair, True, iter([(c, b) for c in ca] + [(a, c) for c in cb])))
        while frames:
            top, stop, pending = frames[-1]
            if got is not stop and (pair := next(pending, None)) is not None:
                break
            frames.pop()
            got = memo[top] = stop if got is stop else not stop
        else:
            return got


def _demand_kernel(nodes, q: int):
    """_Demand's node update, generated for one node list and the right side
    q of one tested inclusion: bind(join, meet) gives update(v, d, stop),
    which recomputes in place, children first, the value in v of each
    operation node (two or more children) that reads a variable in d.  The
    tops of q are its joinands, or q itself when q is not a join.  Each top's
    subtree comes first, top by top, then the rest of the nodes; after a top
    is recomputed, update returns True at once if bit v[top] of stop is set.
    _Demand passes up[j] for the bar (q, j): then j <= v[top] <= q(x), and the
    state breaks that bar.  One lookup per statement, as nested ones overflow
    the parser on wide nodes.  The source holds only integers and fixed
    names: the masks, at times too long to print, are read from S."""
    kind, kids, _, _ = nodes[q]
    tops = kids if kind == "join" else (q,)
    order, emitted = [], bytearray(len(nodes))
    for top in tops:
        # top's subtree less what earlier tops placed, on an explicit stack;
        # ascending indices put children first
        block, stack = [], [top]
        while stack:
            k = stack.pop()
            if not emitted[k]:
                emitted[k] = 1
                block.append(k)
                stack.extend(nodes[k][1])
        order += sorted(block)
    order += [k for k in range(len(nodes)) if not emitted[k]]
    lines = ["def bind(join, meet, S=S):", " def update(v, d, stop):", "  pass"]
    checked = set(tops)
    for k in order:
        kind, kids, _, _ = nodes[k]
        if kind != "var":
            acc = f"{kind}[v[{kids[0]}]][v[{kids[1]}]]"
            lines.append(f"  if d & S[{k}]:")
            for c in kids[2:]:
                lines.append(f"   a = {acc}")
                acc = f"{kind}[a][v[{c}]]"
            lines.append(f"   v[{k}] = {acc}")
            if k in checked:
                lines.append(f"   if stop >> v[{k}] & 1:")
                lines.append("    return True")
    scope = {"S": tuple(node[3] for node in nodes)}
    exec("\n".join(lines + [" return update"]), scope)
    return scope["bind"]


class _Demand:
    """The demand search over J(L), for one lattice and one node list.

    p <= q fails in L iff some join-irreducible j and some assignment x
    have j <= p(x) and j !<= q(x).  The search starts from the goal
    j <= p with every variable at bottom and passes goals down p: a meet
    to each child, a variable joins the demanded element into its value,
    and a join either to one child or, through a minimal nontrivial join
    cover of the goal, each member of the cover to some child.  Every
    nontrivial join cover refines to a minimal one (Freese, Jezek and
    Nation, Free Lattices, ch. 2), so below every failing x lies a leaf
    of the search, and every leaf is a failing assignment.

    A state is the node values at its assignment, open goals (k, a)
    meaning a <= node k, and bars (k, a) meaning a !<= node k.  Values
    only grow down a branch, so a met goal is dropped and a state that
    breaks a bar is pruned.  The first bar is (q, j).  The i-th one-child
    branch of a join bars the children before it, since a failing x
    with the goal below one of those is found on that earlier branch;
    the cover branches bar every child, and so never send a whole cover
    to one child.  budget counts the states pushed over all calls.

    What a branch adds to its state depends on its join goal alone, so
    each goal's width and its branches, a template of (goals, bars)
    pairs, are built once per lattice (see _Kept) and shared by every
    identity; the template only once the budget has paid for it, since a
    goal can have thousands of branches (an atom of M_40).  The node update
    is the identity's _demand_kernel for q, bound here to L's tables; it
    stops at the first top of q that breaks the bar (q, j), a state the bar
    check would prune.  Neither changes the states, the order they are
    pushed in or what the budget is charged.
    """

    def __init__(self, L: FinLattice, ident: Identity, budget):
        self.L, self.nodes, self.budget = L, ident._sides[0][0], budget
        self.updates = {q: bind(L.join_table, L.meet_table) for q, bind in ident._kernel.items()}
        self.var_values = operator.itemgetter(*[k for k, node in enumerate(self.nodes)
                                                if node[0] == "var"])
        self.kept = _kept(L)

    def width(self, goal: tuple) -> int:
        """How many branches the open join goal (k, a) makes: the length
        of its template, counted without building it."""
        k, a = goal
        m = len(self.nodes[k][1])
        widths = self.kept.widths
        got = widths.get((m, a))
        if got is None:
            got = widths[m, a] = m + sum(m ** len(cover) - m for cover in self.min_covers(a))
        return got

    def template(self, goal: tuple) -> list:
        """The goals and bars that each branch on the open join goal (k, a)
        adds to its state: the one-child branches, then every spread of
        every minimal cover over two or more children."""
        k, a = goal
        kids = self.nodes[k][1]
        templates = self.kept.templates
        got = templates.get((kids, a))
        if got is None:
            barred = tuple((d, a) for d in kids)
            got = [([(c, a)], barred[:i]) for i, c in enumerate(kids)]
            for cover in self.min_covers(a):
                got.extend((list(zip(spread, cover)), barred)
                           for spread in itertools.product(kids, repeat=len(cover))
                           if len(set(spread)) > 1)
            templates[kids, a] = got
        return got

    def min_covers(self, a: int) -> list:
        covers = self.kept.covers
        got = covers.get(a)
        if got is None:
            got = covers[a] = min_covers(self.L, a)
        return got

    def refutes(self, p: int, q: int, prefix: tuple = ()) -> bool | None:
        """Whether p <= q fails at some x that starts with prefix; None once
        the budget runs out.  The prefix variables start at its values, and
        a state whose goals would raise one is pruned: on the branch below
        a failing x every goal on them is already met, so it stays exact.
        """
        up, jt, nodes, update = self.L.up, self.L.join_table, self.nodes, self.updates[q]
        fixed = (1 << len(prefix)) - 1
        base = [prefix[vi] if 0 <= vi < len(prefix) else self.L.bottom for _, _, vi, _ in nodes]
        update(base, -1, 0)
        for j in self.L.join_irreducibles:
            stop = up[j]
            if stop >> base[q] & 1:
                continue                  # j <= q(base) <= q(x) for every x
            stack = [(base, [(p, j)], ((q, j),))]
            seen = set()
            while stack:
                values, goals, bars = stack.pop()
                dirty, joins = 0, []
                while goals:
                    k, a = goals.pop()
                    if up[a] >> values[k] & 1:
                        continue
                    kind, kids, vi, _ = nodes[k]
                    if kind == "meet":
                        goals.extend((c, a) for c in kids)
                    elif kind == "join":
                        joins.append((k, a))
                    else:
                        if not dirty:
                            values = values[:]
                        dirty |= 1 << vi
                        values[k] = jt[values[k]][a]
                if dirty and not dirty & fixed:
                    # a branch's new bars hold at its parent's values, so
                    # only a state that raised a variable can break one; the
                    # update returns True as soon as it breaks (q, j)
                    if not update(values, dirty, stop):
                        for k, a in bars:
                            if up[a] >> values[k] & 1:
                                break
                        else:
                            dirty = 0
                if dirty:
                    continue              # it raised a fixed variable or broke a bar
                joins = [(k, a) for k, a in joins if not up[a] >> values[k] & 1]
                if not joins:
                    return True
                key = (self.var_values(values), frozenset(joins), frozenset(bars))
                if key in seen:
                    continue
                seen.add(key)
                # branch on the goal with the fewest alternatives
                goal = min(joins, key=self.width)
                self.budget -= self.width(goal)
                if self.budget < 0:
                    return None
                template = self.template(goal)
                rest = [g for g in joins if g != goal]
                stack.extend((values, rest + new_goals, bars + new_bars)
                             for new_goals, new_bars in reversed(template))
        return False


def _locate(L: FinLattice, ident: Identity, budget,
            heads=()) -> tuple[bool | None, tuple[int, ...]]:
    """Find with the demand search the slab of ident's least counter-assignment.

    A slab is the assignments that start with a prefix.  After "fails" at
    the root the search descends one variable per domain of heads, all on
    one budget, keeping at each the first value whose slab it does not
    prove clean, or the last, unsearched, once all others are.  Returns
    (refuted, start): True when the least counter-assignment starts with
    start, of length len(heads); False when ident holds; None when the
    budget runs out.  No assignment before start + (first values ...)
    fails: check's heads leave out only values that _restricted_variables
    lowers to earlier ones.  Each inclusion that Whitman's algorithm
    proves for every lattice is skipped (rhs <= lhs for E, P, HS, D2DUAL).
    """
    search = _Demand(L, ident, budget)

    def refutes(prefix):
        for p, q in ident._sides[1]:
            got = search.refutes(p, q, prefix)
            if got is not False:
                return got
        return False

    refuted, start = refutes(()), ()
    for domain in heads:
        if not refuted:
            break
        for t in domain[:-1]:
            refuted = refutes(start + (t,))
            if refuted is not False:
                break
        else:
            # start's slab fails and every other value's slab was proved clean
            t, refuted = domain[-1], True
        start += (t,)
    return refuted, start


def decide_identity(L: FinLattice, ident: Identity) -> bool:
    """Whether ident holds in L, decided over J(L): the verdict of check,
    without its least counter-assignment."""
    return not _locate(L, ident, math.inf)[0]


# -- semantic interpretations over the join-irreducibles ---------------------------


# a Sigma condition binds the variables of the builtin of the same name
_SIGMA_VARIABLES = {name: builtin(name).variables for name in ("E", "P", "HS")}


def check_sigma(L: FinLattice, which: str) -> CheckResult:
    """Check the join-irreducible interpretation of E, P, or HS.

    Quantifiers run over J(L) in ascending element order, minimal covers
    come from the join-dependency machinery, and the first failing tuple
    in that order is returned.  A necessary condition only: it holds
    wherever its identity does, but also on some lattices where the
    identity fails (for P on 2 lattices of size 7 and 20 of size 8,
    tests/test_terms.py::test_sigma_is_weaker_than_its_identity).
    """
    if which not in _SIGMA_VARIABLES:
        raise TermError(f"no semantic interpretation for {which!r}")
    names = _SIGMA_VARIABLES[which]
    jis = L.join_irreducibles
    total = len(jis) ** len(names)
    scan = {"E": _sigma_e, "P": _sigma_p, "HS": _sigma_hs}[which]
    witness = scan(L, jis)
    if witness is None:
        return CheckResult(f"{which}_sigma", True, None, total)
    return CheckResult(f"{which}_sigma", False, dict(zip(names, witness)), total)


def _sigma_e(L: FinLattice, jis):
    jt = L.join_table
    for x in jis:
        for a in jis:
            bs = [b for b in jis if is_minimal_pair_cover(L, x, a, b)]
            if not bs:
                continue
            for b0 in bs:
                for b1 in bs:
                    for b2 in bs:
                        if not _sigma_e_conclusion(L, jt, x, (b0, b1, b2)):
                            return (x, a, b0, b1, b2)
    return None


def _sigma_e_conclusion(L, jt, x, triple):
    for p0, p1, p2 in itertools.permutations(triple):
        if (L.leq(p0, jt[x][p1]) and L.leq(jt[x][p1], jt[x][p2])
                and L.leq(p1, jt[p0][p2])):
            return True
    return False


def _sigma_p(L: FinLattice, jis):
    jt = L.join_table
    pairs = {a: set(minimal_pairs(L, a)) for a in jis}
    for a in jis:
        mp = pairs[a]
        for b in jis:
            for c in jis:
                if (b, c) not in mp:
                    continue
                for d in jis:
                    if (c, d) not in mp:
                        continue
                    for b0 in jis:
                        for b1 in jis:
                            if not L.leq(b, jt[b0][b1]):
                                continue
                            if L.leq(b, jt[a][d]):
                                continue
                            if any(
                                L.leq(a, jt[bi][c]) and L.leq(b, jt[a][bi])
                                and L.leq(b, jt[bi][d])
                                for bi in (b0, b1)
                            ):
                                continue
                            return (a, b, c, d, b0, b1)
    return None


def _sigma_hs(L: FinLattice, jis):
    jt = L.join_table
    for a in jis:
        for b in jis:
            if a == b:
                continue
            for c in jis:
                if not is_minimal_in(L, a, b, c):
                    continue
                for b0 in jis:
                    if L.leq(b, b0):
                        continue
                    for b1 in jis:
                        if L.leq(b, b1) or not L.leq(b, jt[b0][b1]):
                            continue
                        if not _sigma_hs_conclusion(L, jt, a, b, c, b0, b1):
                            return (a, b, c, b0, b1)
    return None


def _sigma_hs_conclusion(L, jt, a, b, c, b0, b1):
    side = L.leq(a, jt[b0][c]) and L.leq(a, jt[b1][c])
    for bi, bo in ((b0, b1), (b1, b0)):
        if not L.leq(b, jt[a][bi]):
            continue
        if side or (L.leq(a, jt[bi][c]) and L.leq(a, jt[b][bo])):
            return True
    return False
