"""Parser, built-in identities, and the exhaustive checker.

The naive pure-python sweep of oracles.naive_check is the reference; the
vectorized checker must match it bit for bit, including which
counter-assignment gets reported.
"""

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from examples import chain_lattice, diamond, pentagon
from oracles import demand_update, distributive, naive_check

from colat.lattice import (
    FinLattice,
    direct_product,
    iter_lattices,
    lattices_of_size,
)
from colat.poset import Poset
from colat import star, terms
from colat.terms import (
    CheckResult,
    Identity,
    ParseError,
    Term,
    TermError,
    builtin,
    builtin_names,
    check,
    check_sigma,
    decide_identity,
    eval_term,
    identity_from_json,
    identity_to_json,
    join,
    meet,
    parse_term,
    term_to_sexpr,
    term_variables,
    var,
)


def co_chain(n):
    return Poset.chain(n).co_lattice()[0]


# -- parsing ---------------------------------------------------------------------


def test_parse_basic():
    t = parse_term("(^ x (v a b))")
    assert t == meet(var("x"), join(var("a"), var("b")))
    assert term_variables(t) == {"x", "a", "b"}


def test_parse_nary():
    assert parse_term("(v a b c d)") == join(*(var(s) for s in "abcd"))


@pytest.mark.parametrize("bad,fragment", [
    ("(v x)", "at least two"),
    ("(x a b)", "expected operator"),
    ("()", "expected operator"),
    ("(v a b", "missing ')'"),
    (")", "unexpected ')'"),
    ("", "empty input"),
    ("a b", "trailing input"),
    ("(^ v x)", "operator used as a variable"),
    ("(v a (^ b))", "at least two"),
])
def test_parse_errors(bad, fragment):
    with pytest.raises(ParseError) as err:
        parse_term(bad)
    assert fragment in str(err.value)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_term("(v (^ a b) (v c))")
    assert err.value.pos == 12


def test_roundtrip_builtins():
    for name in builtin_names():
        ident = builtin(name)
        assert parse_term(term_to_sexpr(ident.lhs)) == ident.lhs
        assert parse_term(term_to_sexpr(ident.rhs)) == ident.rhs
        assert identity_from_json(identity_to_json(ident)) == ident


# sha256 of one line per token string of up to 6 tokens over "(", ")", "v",
# "^", "a" and "b", joined by spaces: the sexpr of the parsed term, or the
# ParseError's message and position; 55,987 strings
PINNED_PARSES = "9575348f8da8724494bbe0a0287f7a91ceff4843c2b57e557af6f47dd21e8a50"


def test_parse_pinned_up_to_six_tokens():
    lines = []
    for n in range(7):
        for toks in itertools.product(("(", ")", "v", "^", "a", "b"), repeat=n):
            try:
                lines.append(term_to_sexpr(parse_term(" ".join(toks))))
            except ParseError as err:
                lines.append(f"{err} {err.pos}")
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PARSES


# -- identity construction ----------------------------------------------------------


def test_identity_validation():
    with pytest.raises(TermError):
        Identity("bad", ("x",), "eq", var("x"), var("y"))
    with pytest.raises(TermError):
        Identity("bad", ("x", "x"), "eq", var("x"), var("x"))
    with pytest.raises(TermError):
        Identity("bad", ("x",), "below", var("x"), var("x"))
    with pytest.raises(TermError):
        Term("join", (var("x"),))
    with pytest.raises(TermError, match="variable nodes carry a name and no children"):
        Term("var")
    with pytest.raises(TermError, match="variable nodes carry a name and no children"):
        Term("var", (var("y"),), "x")
    with pytest.raises(TermError, match="unknown node kind 'plus'"):
        Term("plus", (var("x"), var("y")))


def test_placeholder_rejected():
    obj = {"name": "U", "vars": [], "relation": "eq", "lhs": None, "rhs": None}
    with pytest.raises(TermError) as err:
        identity_from_json(obj)
    assert "placeholder" in str(err.value)


def test_builtin_shapes():
    assert builtin("E").variables == ("x", "a", "b0", "b1", "b2")
    assert builtin("P").variables == ("a", "b", "c", "d", "b0", "b1")
    assert builtin("HS").variables == ("a", "b", "c", "b0", "b1")
    assert builtin("STAR").variables == ("x0", "x1", "x2", "x3", "xa", "xb")
    assert builtin("STAR").relation == "leq"
    assert builtin("D2DUAL").variables == ("x", "y0", "y1", "y2")
    with pytest.raises(TermError):
        builtin("S")


def test_star_recursion_unrolls():
    x0, x1, x2, x3 = var("x0"), var("x1"), var("x2"), var("x3")
    xa, xb = var("xa"), var("xb")
    x11 = meet(x1, join(x0, x2), join(x0, xb))
    x21 = meet(x2, join(x3, x1), join(x3, xa))
    x12 = meet(x11, join(x0, x21), join(x0, xb))
    assert builtin("STAR").lhs == x12


def test_e_counts_nine_disjuncts():
    rhs = builtin("E").rhs
    assert rhs.kind == "join" and len(rhs.children) == 9


# -- evaluation ----------------------------------------------------------------------


def test_eval_on_chain_is_min_max():
    L = chain_lattice(4)
    t = parse_term("(^ x (v a b))")
    for x, a, b in itertools.product(range(4), repeat=3):
        assert eval_term(L, t, {"x": x, "a": a, "b": b}) == min(x, max(a, b))


def test_eval_is_monotone():
    L = pentagon()
    t = builtin("D2DUAL").rhs
    names = sorted(term_variables(t))
    for values in itertools.product(range(L.n), repeat=len(names)):
        env = dict(zip(names, values))
        base = eval_term(L, t, env)
        for name in names:
            for bigger in range(L.n):
                if L.leq(env[name], bigger):
                    raised = dict(env, **{name: bigger})
                    assert L.leq(base, eval_term(L, t, raised))


# -- checking -----------------------------------------------------------------------


def test_trivial_identity_witness():
    ident = Identity("same", ("x", "y"), "eq", var("x"), var("y"))
    L = chain_lattice(2)
    for result in (naive_check(L, ident), check(L, ident)):
        assert not result.holds
        assert result.witness == {"x": 0, "y": 1}
        assert result.assignments == 4


def test_one_element_lattice_satisfies_everything():
    L = chain_lattice(1)
    for name in builtin_names():
        assert check(L, builtin(name)).holds


def test_co4_satisfies_e():
    assert check(co_chain(4), builtin("E")).holds


def test_co3_satisfies_all_builtins():
    L = co_chain(3)
    for name in builtin_names():
        assert check(L, builtin(name)).holds


def test_diamond_fails_hs_with_witness():
    L = diamond()
    got = check(L, builtin("HS"))
    assert not got.holds
    ref = naive_check(L, builtin("HS"))
    assert got.witness == ref.witness


def test_pentagon_satisfies_star():
    assert check(pentagon(), builtin("STAR")).holds


def test_vectorized_matches_naive():
    corpus = [L for size in range(1, 5) for L in lattices_of_size(size)]
    corpus += [pentagon(), diamond(), co_chain(3)]
    idents = [builtin(n) for n in ("E", "HS", "D2DUAL")]
    for L in corpus:
        for ident in idents:
            ref = naive_check(L, ident)
            got = check(L, ident)
            assert (got.holds, got.witness) == (ref.holds, ref.witness)


def test_vectorized_matches_naive_many_vars():
    for L in (chain_lattice(3), pentagon(), diamond()):
        for name in ("P", "STAR"):
            ref = naive_check(L, builtin(name))
            got = check(L, builtin(name))
            assert (got.holds, got.witness) == (ref.holds, ref.witness)


def test_workers_do_not_change_result():
    for L in (diamond(), co_chain(3)):
        for name in ("HS", "E"):
            one = check(L, builtin(name), workers=1)
            many = check(L, builtin(name), workers=4)
            assert (one.holds, one.witness) == (many.holds, many.witness)


def located_before(located, ref) -> bool:
    """Whether _locate's (refuted, start) agrees with the least witness:
    none lies before start + (0, ...), and a refutation names its prefix."""
    refuted, start = located
    if ref.holds:
        return refuted is not True
    witness = tuple(ref.witness.values())
    return witness >= start and (not refuted or witness[:len(start)] == start)


def test_chunked_path_matches_naive(monkeypatch):
    # every other test sweeps fewer than CHUNK_CELLS cells, so in one chunk;
    # these chunk sizes give prefixes of every depth.  A multi-chunk check
    # runs the slab search (_Demand.refutes) first, at the root and then
    # one prefix variable deeper at a time.  Each pass below hands over to
    # the sweep at another point: a forced give-up at one depth (depth 0
    # sweeps every case), twice the real budget of cells >> 10 states,
    # which is tiny here, or no budget at all, so that every refutation
    # descends to a single chunk and every holding case returns before the
    # sweep
    real_refutes, real_locate = terms._Demand.refutes, terms._locate
    corpus = [L for size in range(1, 5) for L in lattices_of_size(size)]
    corpus += [pentagon(), diamond()]
    cases = [(L, builtin(name)) for L in corpus for name in builtin_names()]
    # HS fails here; in chunks of 1 or 7 cells the search refutes it within
    # twice its budget, 22 states, then gives up one variable deeper
    cases.append((lattices_of_size(7)[5], builtin("HS")))
    refs = [naive_check(L, ident) for L, ident in cases]
    hs_ref = naive_check(diamond(), builtin("HS"))
    outcomes = collections.Counter()
    gave_up = set()
    located = []

    def locate(L, ident, budget, depth=0):
        located.append(real_locate(L, ident, budget << 1 if real_budget else math.inf, depth))
        return located[-1]

    for give_up, real_budget in [(0, True), (None, True), (None, False)] + [
            (d, False) for d in range(1, 6)]:
        def refutes(self, p, q, prefix=(), give_up=give_up):
            if len(prefix) == give_up:
                gave_up.add(give_up)
                return None
            got = real_refutes(self, p, q, prefix)
            outcomes[min(len(prefix), 1), got] += 1
            return got

        monkeypatch.setattr(terms._Demand, "refutes", refutes)
        monkeypatch.setattr(terms, "_locate", locate)
        for cells in (1, 7, 400):
            monkeypatch.setattr(terms, "CHUNK_CELLS", cells)
            for (L, ident), ref in zip(cases, refs):
                located.clear()
                got = check(L, ident)
                assert (got.holds, got.witness) == (ref.holds, ref.witness), \
                    (give_up, cells, ident.name)
                assert not located or located_before(located[0], ref)
            got = check(diamond(), builtin("HS"), workers=2)
            assert not got.holds and got.witness == hs_ref.witness
    # a forced give-up at every depth (the failing cases have at most five
    # variables); the real search gave up, proved a check or a slab clean,
    # and refuted, each at the root and deeper
    assert gave_up == set(range(6)), gave_up
    assert all(outcomes[key] for key in itertools.product((0, 1), (None, False, True))), outcomes


def test_sweep_prefixes_start_where_asked():
    # the sweep's chunk prefixes: every tuple over the domains from start +
    # (0, ...) on, and how many come before; a start given up by the search
    # may hold values outside the domains
    full = [[range(n)] * c for n, c in ((1, 2), (3, 3), (4, 2))]
    for domains in full + [[(1, 3), range(4), (0, 2, 3)], [(2,), (0, 1)], [(1, 2), ()]]:
        every = list(itertools.product(*domains))
        values = range(max(map(max, filter(None, domains))) + 2)
        for start in [()] + [p for d in range(1, len(domains) + 1)
                             for p in itertools.product(values, repeat=d)]:
            assert list(terms._prefixes(domains, start)) == [p for p in every if p >= start]
            assert terms._rank(domains, start) == sum(p < start for p in every)


# Q is the seven-point poset of the (*) construction with 0<a, b<3, a<b and
# c<b added, and P is Q without c; all seven checks fail, each in one chunk
CO_P_Q_WITNESSES = [
    ("Q", "STAR", (1, 2, 4, 5, 7, 12)),
    ("Q", "E", (2, 1, 4, 4, 12)),
    ("Q", "HS", (2, 4, 1, 5, 7)),
    ("P", "P", (2, 4, 1, 15, 1, 6)),
    ("P", "STAR", (1, 2, 4, 6, 8, 15)),
    ("P", "E", (2, 1, 4, 4, 15)),
    ("P", "HS", (2, 4, 1, 6, 8)),
]


def co_p_and_q() -> dict:
    Q = Poset.from_covers(star.LABELS, star.FORCED + (("0", "a"), ("b", "3"),
                                                      ("a", "b"), ("c", "b")))
    P = Q.restrict([i for i, label in enumerate(Q.labels) if label != "c"])
    return {"P": P.co_lattice()[0], "Q": Q.co_lattice()[0]}


def test_least_witnesses_on_co_p_and_co_q(monkeypatch):
    co = co_p_and_q()
    assert (co["P"].n, co["Q"].n) == (31, 45)
    real_locate = terms._locate
    located = []

    def locate(L, ident, budget, depth=0):
        located.append(real_locate(L, ident, budget >> shift, depth))
        return located[-1]

    # the default budget of cells >> 10 states locates every witness's
    # chunk; at cells >> 18 some searches give up after descending
    monkeypatch.setattr(terms, "_locate", locate)
    for shift in (0, 8):
        for lattice, name, witness in CO_P_Q_WITNESSES:
            got = check(co[lattice], builtin(name), force=True)
            assert not got.holds and tuple(got.witness.values()) == witness, name
            assert located_before(located[-1], got)
    assert all(refuted for refuted, _ in located[:7]), located
    assert any(refuted is None and start for refuted, start in located[7:]), located


# sha256 of the compact JSON list of [p, q, prefix, result, budget left] for
# every _Demand.refutes call of check on the identity cases of bench/run.py
# that reach the search (E, P, HS and STAR on Co(6); STAR, E and HS on
# Co(Q); P, STAR, E and HS on Co(P)), at the default budget of cells >> 10
# states and at cells >> 20, where some searches give up
PINNED_CHECK_SEARCH = "b4c947ced7c87d74cf9edd77e77f0781598c30fb8b389810358e7d2417a80862"
# the same for the calls of _locate with a budget of 64 states, descending
# through every variable, for E, P, HS and D2DUAL on every lattice of size
# <= 6.  The search's states, their order and its budget accounting are
# all behind the two
PINNED_LOCATE_SEARCH = "b7e007a5281c39ca770426d4a3369329f2a831bf715206cfa3937cd29b3180b1"


def test_demand_search_path_pinned(monkeypatch):
    real_refutes, real_locate = terms._Demand.refutes, terms._locate
    calls = []

    def refutes(self, p, q, prefix=()):
        got = real_refutes(self, p, q, prefix)
        calls.append([p, q, list(prefix), got, self.budget])
        return got

    def locate(L, ident, budget, depth=0):
        return real_locate(L, ident, budget >> shift, depth)

    monkeypatch.setattr(terms._Demand, "refutes", refutes)
    monkeypatch.setattr(terms, "_locate", locate)
    co = dict(co_p_and_q(), **{"6": co_chain(6)})
    cases = [("6", "E"), ("6", "P"), ("6", "HS"), ("6", "STAR"), ("Q", "STAR"), ("Q", "E"),
             ("Q", "HS"), ("P", "P"), ("P", "STAR"), ("P", "E"), ("P", "HS")]
    for shift in (0, 10):
        for lattice, name in cases:
            check(co[lattice], builtin(name), force=True)
    bench = len(calls)
    for L in iter_lattices(6):
        for name in ("E", "P", "HS", "D2DUAL"):
            ident = builtin(name)
            real_locate(L, ident, 64, len(ident.variables))
    # both parts refute, prove clean and give up
    hashes = []
    for part in (calls[:bench], calls[bench:]):
        assert {got for *_, got, _ in part} == {True, False, None}
        text = json.dumps(part, separators=(",", ":"))
        hashes.append(hashlib.sha256(text.encode()).hexdigest())
    assert hashes == [PINNED_CHECK_SEARCH, PINNED_LOCATE_SEARCH]


def test_table_dtype_boundary():
    # 256 elements is the last size with uint16 tables (largest index
    # 65,535), 257 the first with wide ones
    x, y = var("x"), var("y")
    absorb = Identity("absorb", ("x", "y"), "eq", meet(x, join(x, y)), x)
    below = Identity("below", ("x", "y"), "leq", join(x, y), x)
    for n in (256, 257):
        L = chain_lattice(n)
        for ident, holds in ((absorb, True), (below, False)):
            ref = naive_check(L, ident)
            got = check(L, ident)
            assert ref.holds == holds
            assert (got.holds, got.witness) == (ref.holds, ref.witness)


def test_sweep_encoding_boundaries(monkeypatch):
    # a chain of n elements has n - 1 join-irreducibles: 8 is the last
    # count with uint8 masks, 16 the last with masks at all, and from 17
    # on the sweep runs over element indices
    x, y, z = var("x"), var("y"), var("z")
    modular = Identity("modular", ("x", "y", "z"), "eq", meet(x, join(y, meet(x, z))),
                       join(meet(x, y), meet(x, z)))
    distributive = Identity("distributive", ("x", "y", "z"), "eq", meet(x, join(y, z)),
                            join(meet(x, y), meet(x, z)))
    below = Identity("below", ("x", "y"), "leq", join(x, y), x)
    lattices = [chain_lattice(n) for n in (9, 10, 17, 18)]
    # M_17, a bottom, 17 atoms and a top: modular, not distributive
    lattices.append(FinLattice(((1 << 19) - 1,) + tuple(1 << i | 1 << 18 for i in range(1, 18))
                               + (1 << 18,)))
    encodings = []
    for L in lattices:
        codes, ops = terms._encoding(L)
        encodings.append((len(L.join_irreducibles), codes.dtype, ops["join"][1] is not None))
    assert encodings == [(8, np.uint8, True), (9, np.uint16, True), (16, np.uint16, True),
                         (17, np.uint16, False), (17, np.uint16, False)]
    refs = {(L.n, ident.name): naive_check(L, ident) for L in lattices
            for ident in (modular, distributive, below)}
    assert [ref.holds for ref in refs.values()] == [True, True, False] * 4 + [True, False, False]
    for L in lattices:
        for ident in (modular, distributive, below):
            got = check(L, ident)
            assert got == refs[L.n, ident.name], (L.n, ident.name)
    # chunked and pooled sweeps of element indices, with the prefix-keyed
    # node cache: the demand search gives up, so every chunk is swept
    monkeypatch.setattr(terms._Demand, "refutes", lambda *args: None)
    monkeypatch.setattr(terms, "CHUNK_CELLS", 19)
    for ident in (modular, distributive):
        for workers in (1, 2):
            got = check(lattices[-1], ident, workers=workers)
            assert got == refs[19, ident.name], (ident.name, workers)


def test_locate_infers_the_last_value(monkeypatch):
    # with one-cell chunks _locate walks both variables of x <= y on the
    # 2-element chain: x = 0 is proved clean, so the failing slab is x = 1,
    # taken without searching (1,), and y = 0 is then searched and refuted
    L = chain_lattice(2)
    below = Identity("below", ("x", "y"), "leq", var("x"), var("y"))
    asked = []
    refutes = terms._Demand.refutes

    def spy(self, p, q, prefix):
        asked.append((prefix, refutes(self, p, q, prefix)))
        return asked[-1][1]

    monkeypatch.setattr(terms._Demand, "refutes", spy)
    monkeypatch.setattr(terms, "CHUNK_CELLS", 1)
    got = check(L, below)
    assert asked == [((), True), ((0,), False), ((1, 0), True)]
    assert got == naive_check(L, below)
    assert got.witness == {"x": 1, "y": 0}


def builtins_and_inclusions():
    """Each builtin by name, each equality followed by its "leq" variant,
    lhs <= rhs alone."""
    for name in builtin_names():
        ident = builtin(name)
        yield ident
        if ident.relation == "eq":
            yield dataclasses.replace(ident, relation="leq")


# sha256 of the compact JSON of (holds, witness, assignments) for every builtin
# on every lattice of size <= 6, with the "leq" variant of each equality as
# well; 225 checks, 16 failing; recorded once from naive_check, which takes
# about 70 s over this corpus, so the test runs only check
PINNED_CHECKS = "e2425aa6bfef27dff09395fa5721266771e50f620d874670711291790b5d3f7f"


def test_check_pinned_up_to_size_6():
    idents = list(builtins_and_inclusions())
    results = [check(L, ident) for L in iter_lattices(6) for ident in idents]
    records = [[r.holds, r.witness, r.assignments] for r in results]
    text = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CHECKS


# sha256 of the compact JSON list of naive_check verdicts for every builtin
# on every lattice of size <= 7, in the order of test_check_pinned_up_to_size_6
# with size 7, the "leq" variant of each equality as well; 702 checks, 98
# failing; recorded once, since naive_check takes about ten minutes over this
# corpus
PINNED_VERDICTS = "9d7c7b6a89ab626b458282765cd956ee7145616bb45d4a67ad4d7121110ff510"


def test_decide_identity_pinned_up_to_size_7():
    idents = list(builtins_and_inclusions())
    verdicts = [decide_identity(L, ident) for L in iter_lattices(7) for ident in idents]
    text = json.dumps(verdicts, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_VERDICTS


VARIABLES = ("x0", "x1", "x2", "x3")
TERMS = st.recursive(
    st.sampled_from(VARIABLES).map(var),
    lambda kids: st.builds(lambda op, ts: op(*ts), st.sampled_from((join, meet)),
                           st.lists(kids, min_size=2, max_size=3)),
    max_leaves=8,
)

# each of three distinct variables, alone or joined or met with a term
def _law_arguments(names):
    return st.tuples(*(st.one_of(st.just(var(v)),
                                 TERMS.map(lambda t, v=v: join(var(v), t)),
                                 TERMS.map(lambda t, v=v: meet(var(v), t)))
                       for v in names[:3]))


LAW_ARGUMENTS = st.permutations(VARIABLES).flatmap(_law_arguments)
# two random terms rarely make an identity that holds in some lattices and
# not in all, so instances of the distributive and modular laws are drawn too
SIDES = st.one_of(
    st.tuples(TERMS, TERMS),
    LAW_ARGUMENTS.map(lambda t: (meet(t[0], join(t[1], t[2])),
                                 join(meet(t[0], t[1]), meet(t[0], t[2])))),
    LAW_ARGUMENTS.map(lambda t: (meet(t[0], join(t[1], meet(t[0], t[2]))),
                                 join(meet(t[0], t[1]), meet(t[0], t[2])))),
)
SMALL = [L for L in iter_lattices(6) if L.n > 1]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(SMALL), SIDES, st.sampled_from(("eq", "leq")))
def test_decide_identity_matches_naive_on_random_terms(L, sides, relation):
    ident = Identity("random", VARIABLES, relation, *sides)
    assert decide_identity(L, ident) == naive_check(L, ident).holds


# -- sweeping each orbit of symmetric variables once ---------------------------------


def symmetric_runs(ident):
    """The runs of two or more variables that check sweeps as one axis."""
    ends, runs, i = terms._symmetric_runs(ident), [], 0
    while i < len(ends):
        if ends[i] > i + 1:
            runs.append(ident.variables[i:ends[i]])
        i = ends[i]
    return runs


def rename(t, mapping):
    if t.kind == "var":
        return var(mapping.get(t.name, t.name))
    return Term(t.kind, tuple(rename(c, mapping) for c in t.children))


def test_symmetric_runs_of_builtins():
    runs = {name: symmetric_runs(builtin(name)) for name in builtin_names()}
    assert runs == {"E": [("b0", "b1", "b2")], "P": [("b0", "b1")], "HS": [("b0", "b1")],
                    "D2DUAL": [("y0", "y1", "y2")], "STAR": []}


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(SMALL), SIDES, st.integers(0, 2), st.sampled_from((join, meet)),
       st.sampled_from(("eq", "leq")), st.sampled_from((terms.CHUNK_CELLS, 7)))
def test_symmetric_by_construction_matches_naive(L, sides, i, op, relation, cells):
    # each side met or joined with its copy under x_i <-> x_i+1 is invariant
    # under that swap; at 7 cells a chunk the prefix cuts the runs
    swap = {VARIABLES[i]: VARIABLES[i + 1], VARIABLES[i + 1]: VARIABLES[i]}
    ident = Identity("symmetric", VARIABLES, relation,
                     *(op(t, rename(t, swap)) for t in sides))
    assert terms._symmetric_runs(ident)[i] > i + 1
    ref = naive_check(L, ident)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(terms, "CHUNK_CELLS", cells)
        got = check(L, ident)
    assert (got.holds, got.witness) == (ref.holds, ref.witness)


def test_near_symmetric_control_is_not_reduced():
    # E with b1 swapped for b0 in its first part: no longer symmetric in the
    # b's, and its least witnesses are not sorted there, so sweeping the
    # sorted tuples only would report other ones
    e = builtin("E")
    parts = list(e.rhs.children)
    parts[0] = rename(parts[0], {"b1": "b0"})
    near = Identity("near-E", e.variables, "eq", e.lhs, join(*parts))
    assert symmetric_runs(near) == []
    unsorted = 0
    for L in iter_lattices(5):
        ref = naive_check(L, near)
        got = check(L, near)
        assert (got.holds, got.witness) == (ref.holds, ref.witness), L.up
        if not ref.holds:
            b = [ref.witness[name] for name in ("b0", "b1", "b2")]
            unsorted += b != sorted(b)
    assert unsorted


def test_decide_identity_matches_sweep_on_products(monkeypatch):
    ident = builtin("D2DUAL")
    products = [direct_product(co_chain(3), co_chain(3)), direct_product(pentagon(), pentagon())]
    verdicts = [decide_identity(L, ident) for L in products]
    # the 49-element sweep takes several chunks, so check would try the
    # search first; made to give up, check sweeps every assignment
    monkeypatch.setattr(terms._Demand, "refutes", lambda *args: None)
    assert verdicts == [check(L, ident).holds for L in products]


def random_identity(rng):
    """A random identity over one to five variables, some declared but
    unused; half of them made symmetric in two adjacent variables."""
    names = tuple(f"x{i}" for i in range(rng.randint(1, 5)))

    def term(depth):
        if depth == 0 or rng.random() < 0.3:
            return var(rng.choice(names))
        return rng.choice((join, meet))(*(term(depth - 1) for _ in range(rng.randint(2, 3))))

    sides = [term(4), term(4)]
    if len(names) > 1 and rng.random() < 0.5:
        i = rng.randrange(len(names) - 1)
        swap = {names[i]: names[i + 1], names[i + 1]: names[i]}
        op = rng.choice((join, meet))
        sides = [op(t, rename(t, swap)) for t in sides]
    return Identity("random", names, rng.choice(("eq", "leq")), *sides)


# sha256 of the repr of (_run_ends, _term_nodes) for the five builtins and
# 500 random identities drawn with seed 22
PINNED_NODES = "8bccd72578baa821d8166565490051394deb07a037a726fd105882549318e633"


def test_term_nodes_and_runs_pinned():
    rng = random.Random(22)
    idents = [builtin(name) for name in builtin_names()]
    idents += [random_identity(rng) for _ in range(500)]
    text = repr([(ident._run_ends, terms._term_nodes(ident.variables, ident.lhs, ident.rhs))
                 for ident in idents])
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_NODES


def assert_kernel_is_loop(L, ident, masks, rng):
    """The identity's generated node update gives the values of the plain
    loop oracles.demand_update on L for each dirty mask, each from random
    values at every node."""
    nodes = ident._sides[0][0]
    update = ident._kernel(L.join_table, L.meet_table)
    for dirty in masks:
        got = [rng.randrange(L.n) for _ in nodes]
        want = got[:]
        update(got, dirty)
        demand_update(L, nodes, want, dirty)
        assert got == want, (ident, L.up, dirty)


def test_demand_kernel_matches_reference_update():
    # every dirty mask, for the identities of the node-list pin
    rng, values = random.Random(22), random.Random(27)
    idents = [builtin(name) for name in builtin_names()]
    idents += [random_identity(rng) for _ in range(500)]
    lattices = [co_chain(4), pentagon(), *lattices_of_size(5)]
    for ident in idents:
        for L in lattices:
            assert_kernel_is_loop(L, ident, range(-1, 1 << len(ident.variables)), values)


def test_demand_search_on_edge_identities():
    # the demand search on Co(3), where its generated update meets 5,000
    # levels of joins and meets, a meet and a join of 3,000 variables each
    # (Whitman's algorithm proves that inclusion, so the update runs only
    # below), a long support mask, and variable names that are Python
    # syntax or the update's own names, which its source never holds
    L = co_chain(3)
    lhs = rhs = "x"
    for _ in range(5000):
        lhs, rhs = f"(v {lhs} y)", f"(^ {rhs} y)"
    deep = identity_from_json({"vars": ["x", "y"], "relation": "eq", "lhs": lhs, "rhs": rhs})
    names = [f"x{i}" for i in range(3000)]
    wide = identity_from_json({"vars": names, "relation": "leq",
                               "lhs": f"(^ {' '.join(names)})", "rhs": f"(v {' '.join(names)})"})
    # a variable declared 15,000th reads a support mask of 4,516 digits,
    # past the 4,300 that int to str allows
    far = Identity("far", tuple(f"u{i}" for i in range(15000)), "leq",
                   join(var("u0"), var("u14999")), var("u14999"))
    x, y, z = var("v[0]"), var("J"), var("__import__")
    odd = [Identity("odd", ("v[0]", "J", "__import__"), "eq", meet(x, join(y, z)),
                    join(meet(x, y), meet(x, z))),
           Identity("odd", ("S", "join", "meet", "d"), "leq",
                    meet(var("S"), join(var("join"), var("meet"))),
                    join(var("d"), meet(var("S"), var("meet"))))]
    assert [decide_identity(L, ident) for ident in (deep, wide, far)] == [False, True, False]
    assert [decide_identity(L, ident) for ident in odd] == \
        [naive_check(L, ident).holds for ident in odd] == [False, False]
    rng = random.Random(3)
    for ident in [deep, wide, far, *odd]:
        assert_kernel_is_loop(L, ident, (-1, 1, 2, 1 << 14999), rng)


def test_identity_pickles_after_a_demand_search():
    # the generated update is cached on the identity but left out of its
    # pickled state, and the copy builds its own
    L = co_chain(3)
    for name in builtin_names():
        ident = builtin(name)
        decide_identity(L, ident)
        assert "_kernel" in vars(ident)
        again = pickle.loads(pickle.dumps(ident))
        assert again == ident and "_kernel" not in vars(again)
        assert decide_identity(L, again) == decide_identity(L, ident)


def test_deeply_nested_identity_is_checked():
    # Whitman's algorithm walks an explicit stack, so 400 levels of joins
    # against 400 of meets need no recursion.  It proves the meets below
    # the joins, and lhs <= rhs fails at x = {}, y = {0}, the least
    # assignment where x and y differ
    lhs = rhs = "x"
    for _ in range(400):
        lhs, rhs = f"(v {lhs} y)", f"(^ {rhs} y)"
    ident = identity_from_json({"vars": ["x", "y"], "relation": "eq", "lhs": lhs, "rhs": rhs})
    nodes, pairs = ident._sides
    assert len(pairs) == 1
    L = co_chain(3)
    result = check(L, ident)
    assert not result.holds
    assert {v: L.labels[e] for v, e in result.witness.items()} == {"x": "{}", "y": "{0}"}


def test_identity_of_5000_levels():
    # no walk over a term recurses: 5,000 levels, five times the default
    # recursion limit, go through the parser, the check, the sexpr printer,
    # == and hash
    lhs = rhs = "x"
    for _ in range(5000):
        lhs, rhs = f"(v {lhs} y)", f"(^ {rhs} y)"
    obj = {"name": "", "vars": ["x", "y"], "relation": "eq", "lhs": lhs, "rhs": rhs}
    ident = identity_from_json(obj)
    L = co_chain(3)
    result = check(L, ident)
    assert {v: L.labels[e] for v, e in result.witness.items()} == {"x": "{}", "y": "{0}"}
    assert identity_to_json(ident) == obj
    again = identity_from_json(identity_to_json(ident))
    assert again == ident and hash(again) == hash(ident)
    assert again.lhs != again.rhs and again.lhs != ident.lhs.children[0]
    assert repr(again.rhs) == f"parse_term({rhs!r})"


def test_free_lattice_side_is_skipped():
    # rhs <= lhs holds in every lattice for the four equalities, so only
    # lhs <= rhs is searched; (*) is searched as given
    for name in builtin_names():
        ident = builtin(name)
        nodes, lhs, rhs = terms._term_nodes(ident.variables, ident.lhs, ident.rhs)
        memo = {}
        assert not terms._free_leq(nodes, lhs, rhs, memo)
        assert terms._free_leq(nodes, rhs, lhs, memo) == (name != "STAR")


# -- sweeping the inclusions that Whitman's algorithm does not prove ----------------


def test_sweep_closes_only_left_sides_of_builtins():
    # each builtin tests lhs <= rhs alone; no node the left side reads skips
    # its closure, and every join the right side alone reads does
    for name in builtin_names():
        ident = builtin(name)
        nodes, sides, _ = terms._compile(ident, 0)
        tree, lhs, rhs = terms._term_nodes(ident.variables, ident.lhs, ident.rhs)
        assert sides == [(lhs, rhs)], name
        left, stack = set(), [lhs]
        while stack:
            k = stack.pop()
            left.add(k)
            stack.extend(tree[k][1])
        raw = {k for k, node in enumerate(nodes) if node[0] == "raw"}
        assert raw and not raw & left, name
        assert raw == {k for k, node in enumerate(tree) if node[0] == "join"} - left, name


def chain_with_side(k):
    """A k-chain 1..k and one more atom k+1 between bottom 0 and top k+2:
    k + 1 join-irreducibles, and a pentagon inside once k >= 2."""
    n = k + 3
    top = 1 << n - 1
    chain = [((1 << k + 1) - 1) & ~((1 << i) - 1) | top for i in range(1, k + 1)]
    return FinLattice(((1 << n) - 1,) + tuple(chain) + (1 << k + 1 | top, top))


def m_n(k):
    """A bottom, k atoms and a top: k join-irreducibles."""
    n = k + 2
    return FinLattice(((1 << n) - 1,) + tuple(1 << i | 1 << n - 1 for i in range(1, k + 1))
                      + (1 << n - 1,))


# lattices by sweep encoding: J-masks of at most 8 bits, of 9 to 16 bits,
# and element indices
BY_ENCODING = {
    "j<=8": [L for L in iter_lattices(6) if L.n > 1] + [co_chain(3), lattices_of_size(8)[100]],
    "j9-16": [chain_with_side(9), m_n(9), chain_with_side(15)],
    "j>16": [chain_with_side(16), m_n(17)],
}
THREE = ("x0", "x1", "x2")
TERMS3 = st.recursive(
    st.sampled_from(THREE).map(var),
    lambda kids: st.builds(lambda op, ts: op(*ts), st.sampled_from((join, meet)),
                           st.lists(kids, min_size=2, max_size=3)),
    max_leaves=7,
)
# the inclusions of the distributive and modular laws, over three arguments
# that are each a variable, alone or joined or met with a term
LAWS3 = st.permutations(THREE).flatmap(lambda names: st.tuples(*(
    st.one_of(st.just(var(v)), TERMS3.map(lambda t, v=v: join(var(v), t)),
              TERMS3.map(lambda t, v=v: meet(var(v), t))) for v in names)))
INCLUSIONS3 = st.one_of(
    st.tuples(TERMS3, TERMS3),
    LAWS3.map(lambda t: (meet(t[0], join(t[1], t[2])), join(meet(t[0], t[1]), meet(t[0], t[2])))),
    LAWS3.map(lambda t: (meet(t[0], join(t[1], meet(t[0], t[2]))),
                         join(meet(t[0], t[1]), meet(t[0], t[2])))),
)


def test_encoding_classes():
    widths = {cls: sorted({len(L.join_irreducibles) for L in ls})
              for cls, ls in BY_ENCODING.items()}
    assert max(widths["j<=8"]) <= 8 and widths["j9-16"] == [9, 10, 16]
    assert widths["j>16"] == [17]
    assert all(not distributive(L) for L in BY_ENCODING["j9-16"])


def sweep_matches_naive(L, ident, cells):
    ref = naive_check(L, ident)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(terms, "CHUNK_CELLS", cells)
        got = check(L, ident)
    assert (got.holds, got.witness) == (ref.holds, ref.witness)


@pytest.mark.parametrize("cls", list(BY_ENCODING))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data(), sides=st.tuples(TERMS3, TERMS3),
       cells=st.sampled_from((terms.CHUNK_CELLS, 7)))
def test_two_inclusion_sweep_matches_naive(cls, data, sides, cells):
    # Whitman's algorithm proves neither inclusion, so both are tested and
    # every node is read by a left side: none skips its closure
    ident = Identity("random", THREE, "eq", *sides)
    assume(len(ident._sides[1]) == 2)
    sweep_matches_naive(data.draw(st.sampled_from(BY_ENCODING[cls])), ident, cells)


@pytest.mark.parametrize("cls", list(BY_ENCODING))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data(), sides=INCLUSIONS3, cells=st.sampled_from((terms.CHUNK_CELLS, 7)))
def test_one_inclusion_sweep_matches_naive(cls, data, sides, cells):
    # the joins that the right side alone reads skip their closure; on a
    # modular lattice that is not distributive the modular law's right side
    # is then too low at some cells where the law holds
    ident = Identity("random", THREE, "leq", *sides)
    sweep_matches_naive(data.draw(st.sampled_from(BY_ENCODING[cls])), ident, cells)


def test_assignment_guard(monkeypatch):
    # the guard applies once the search gives up; here it refutes "wide"
    # and names its one chunk, so the check runs unguarded.  The meets of
    # adjacent variables leave no two symmetric, and the left side is a
    # join, so no variable is restricted: the sweep's cells are all 11^9
    L = co_chain(4)
    xs = [var(f"x{i}") for i in range(9)]
    pairs = [meet(xs[i], xs[i + 1]) for i in range(8)]
    wide = Identity("wide", tuple(f"x{i}" for i in range(9)), "eq",
                    join(xs[8], *pairs), join(*pairs))
    assert terms._symmetric_runs(wide) == tuple(range(1, 10)) and not wide._restricted
    assert check(L, wide) == naive_check(L, wide)
    monkeypatch.setattr(terms._Demand, "refutes", lambda *args: None)
    with pytest.raises(TermError):
        check(L, wide)


# -- sweeping a restricted variable over D(L) ----------------------------------------


def test_restricted_variables():
    # a direct meetand of every tested left side that no other meetand reads
    assert {name: builtin(name)._restricted for name in builtin_names()} == \
        {"E": 1, "P": 1, "HS": 1, "D2DUAL": 1, "STAR": 0}
    assert all(ident._restricted == (ident.name != "STAR") for ident in builtins_and_inclusions())
    x, y, z, w = var("x"), var("y"), var("z"), var("w")
    names = ("x", "y", "z", "w")
    meets = Identity("meets", names, "leq", meet(x, join(y, z)), join(meet(x, y), meet(x, z)))
    alone = Identity("alone", names, "leq", x, join(y, z))
    # x also read inside the other meetand, as in the modular law
    inside = Identity("inside", names, "leq", meet(x, join(y, meet(x, z))),
                      join(meet(x, y), meet(x, z)))
    # both inclusions tested, each left side met with x, or only one
    both = Identity("both", names, "eq", meet(x, join(y, z)), meet(x, join(y, w)))
    one = Identity("one", names, "eq", meet(x, join(y, z)), join(y, meet(x, z)))
    assert len(both._sides[1]) == len(one._sides[1]) == 2
    assert [ident._restricted for ident in (meets, alone, inside, both, one)] == [1, 1, 0, 1, 0]


def reversed_lattice(L):
    """L with element e numbered n - 1 - e: for n >= 2 not along a linear
    extension, as the top comes first."""
    n = L.n
    return FinLattice(tuple(sum(1 << n - 1 - f for f in range(n) if L.up[e] >> f & 1)
                            for e in reversed(range(n))))


def test_restricted_sweep_matches_naive_when_renumbered(monkeypatch):
    # numbered in reverse, D(L) holds elements outside J(L), which the first
    # variable of E, P, HS and D2DUAL still sweeps; at 400 cells a chunk it
    # is a prefix variable on three or more elements
    idents = [ident for ident in builtins_and_inclusions() if ident.name != "STAR"]
    lattices = [reversed_lattice(L) for L in iter_lattices(5)]
    assert any(set(terms._domain(L)) > set(L.join_irreducibles) for L in lattices)
    refs = [naive_check(L, ident) for L in lattices for ident in idents]
    for cells in (terms.CHUNK_CELLS, 400):
        monkeypatch.setattr(terms, "CHUNK_CELLS", cells)
        got = [check(L, ident) for L in lattices for ident in idents]
        assert [(r.holds, r.witness) for r in got] == [(r.holds, r.witness) for r in refs]


# -- semantic interpretations ----------------------------------------------------


def test_sigma_holds_on_co5():
    L = co_chain(5)
    for which in ("E", "P", "HS"):
        assert check_sigma(L, which).holds


def test_sigma_vacuous_on_distributive():
    L = chain_lattice(4)
    for which in ("E", "P", "HS"):
        assert check_sigma(L, which).holds


def test_diamond_fails_hs_sigma():
    got = check_sigma(diamond(), "HS")
    assert not got.holds
    assert got.witness == {"a": 1, "b": 2, "c": 3, "b0": 1, "b1": 3}


def test_identity_implies_sigma_small():
    corpus = [L for size in range(1, 6) for L in lattices_of_size(size)]
    corpus += [pentagon(), diamond(), co_chain(3), co_chain(4)]
    for L in corpus:
        for which in ("E", "P", "HS"):
            if check(L, builtin(which)).holds:
                assert check_sigma(L, which).holds


def test_sigma_is_weaker_than_its_identity():
    # check_sigma is a necessary condition only: up to size 8 it holds
    # where the identity fails for P on 2 lattices of size 7 and 20 of
    # size 8, and never for E or HS
    idents = {name: builtin(name) for name in ("E", "P", "HS")}
    weaker = collections.Counter()
    for L in iter_lattices(8):
        for name, ident in idents.items():
            if not check(L, ident).holds and check_sigma(L, name).holds:
                weaker[name, L.n] += 1
    assert weaker == {("P", 7): 2, ("P", 8): 20}


def test_sigma_rejects_unknown():
    with pytest.raises(TermError):
        check_sigma(diamond(), "STAR")
