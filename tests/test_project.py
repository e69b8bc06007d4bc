"""Tests for Lambda configurations, induced homomorphisms, and sections."""

import hashlib
import json
from itertools import product as iproduct

import pytest

from colat.catalog import _catalog_target, co_chain, l_mn
from colat.lattice import (
    LatticeError,
    LatticeMap,
    direct_product,
    iter_lattices,
    surjection_search,
)
from colat.membership import decide_sub_lo
from colat.project import (
    LambdaConfig,
    hom_from_lambda,
    lambda_holds,
    plain_config,
    retract_section,
    split_config,
)
from examples import by_label, diamond


class TestLambdaHolds:
    def test_singletons_of_co3(self):
        L = co_chain(3)
        gens = [by_label(L, "{0}"), by_label(L, "{1}"), by_label(L, "{2}")]
        assert lambda_holds(L, plain_config(L, gens))

    def test_unequal_meets_fail(self):
        L = co_chain(3)
        gens = [by_label(L, "{0}"), by_label(L, "{0,1}"), by_label(L, "{2}")]
        assert not lambda_holds(L, plain_config(L, gens))

    def test_cover_failure(self):
        # pairwise meets all empty, but the middle one escapes the outer join
        L = co_chain(3)
        gens = [by_label(L, "{0}"), by_label(L, "{2}"), by_label(L, "{1}")]
        assert not lambda_holds(L, plain_config(L, gens))

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)])
    def test_split_on_itself(self, m, n):
        L = l_mn(m, n)
        gens = []
        for i in range(m + n + 1):
            if i == m:
                gens.append(by_label(L, "{%d,%d}" % (m - 1, m)))
            else:
                gens.append(by_label(L, "{%d}" % i))
        assert lambda_holds(L, split_config(L, m, n, gens))

    def test_split_side_inclusion_required(self):
        L = l_mn(1, 1)
        # swap the doubleton for the missing middle singleton's neighbour
        gens = [by_label(L, "{2}"), by_label(L, "{0,1}"), by_label(L, "{0}")]
        assert not lambda_holds(L, split_config(L, 1, 1, gens))

    def test_diamond_atoms_satisfy_lambda(self):
        M = diamond()
        gens = [by_label(M, x) for x in ("a", "b", "c")]
        assert lambda_holds(M, plain_config(M, gens))

    def test_arity_mismatch(self):
        L = co_chain(3)
        cfg = LambdaConfig("co_chain", (3,), (by_label(L, "{0}"),), L.bottom)
        with pytest.raises(ValueError):
            lambda_holds(L, cfg)
        with pytest.raises(ValueError):
            split_config(L, 1, 1, (0, 1))

    def test_unknown_kind(self):
        L = co_chain(2)
        with pytest.raises(ValueError):
            lambda_holds(L, LambdaConfig("spiral", (2,), (0, 1), 0))

    @pytest.mark.parametrize("kind,shape", [("lmn", (0, 1)), ("lmn", (1, 0)), ("lmn", (0, 0)),
                                            ("co_chain", (0,)), ("spiral", (2,))])
    def test_shapes_naming_no_catalog_lattice_raise(self, kind, shape):
        # lambda_holds refuses what _catalog_target refuses, with its
        # message; L(0, 1) once returned False, reading a missing inclusion
        with pytest.raises(ValueError) as expected:
            _catalog_target(kind, shape)
        with pytest.raises(ValueError) as got:
            lambda_holds(co_chain(2), LambdaConfig(kind, shape, (1, 2), 0))
        assert str(got.value) == str(expected.value)

    def test_no_catalog_lattice_is_built(self):
        # Co(17) is past the 16-element bound of the catalog, but the
        # conditions are read off generator masks alone
        L = co_chain(2)
        g = by_label(L, "{0}")
        assert lambda_holds(L, plain_config(L, [g] * 17))

    def test_no_generators_rejected(self):
        with pytest.raises(ValueError, match="at least one generator is required"):
            plain_config(co_chain(2), [])

    def test_single_generator_needs_base(self):
        L = co_chain(2)
        with pytest.raises(ValueError):
            plain_config(L, [by_label(L, "{0}")])
        cfg = plain_config(L, [by_label(L, "{0}")], base=L.bottom)
        assert lambda_holds(L, cfg)


class TestHomFromLambda:
    def test_identity_on_co3(self):
        L = co_chain(3)
        gens = [by_label(L, "{0}"), by_label(L, "{1}"), by_label(L, "{2}")]
        phi = hom_from_lambda(L, plain_config(L, gens))
        assert phi.values == tuple(range(L.n))
        assert phi.preserves_ops()

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_identity_on_lmn(self, m, n):
        L = l_mn(m, n)
        gens = []
        for i in range(m + n + 1):
            if i == m:
                gens.append(by_label(L, "{%d,%d}" % (m - 1, m)))
            else:
                gens.append(by_label(L, "{%d}" % i))
        phi = hom_from_lambda(L, split_config(L, m, n, gens))
        assert phi.values == tuple(range(L.n))

    def test_diamond_raises_on_extension(self):
        # Lambda holds for the atoms but no homomorphism extends them
        M = diamond()
        gens = [by_label(M, x) for x in ("a", "b", "c")]
        with pytest.raises(LatticeError):
            hom_from_lambda(M, plain_config(M, gens))

    def test_failed_lambda_raises(self):
        L = co_chain(3)
        gens = [by_label(L, "{0}"), by_label(L, "{0,1}"), by_label(L, "{2}")]
        with pytest.raises(LatticeError):
            hom_from_lambda(L, plain_config(L, gens))

    def test_collapsed_generators(self):
        # all generators equal: image is a two element sublattice at most
        L = co_chain(3)
        g = by_label(L, "{1}")
        phi = hom_from_lambda(L, plain_config(L, [g, g, g]))
        assert set(phi.values) == {g}
        assert phi.preserves_ops()


def all_homs(K, L):
    """Brute force every lattice homomorphism from K into L."""
    found = []
    pairs = [(x, y) for x in range(K.n) for y in range(x + 1, K.n)]
    for vals in iproduct(range(L.n), repeat=K.n):
        ok = True
        for x, y in pairs:
            if vals[K.join(x, y)] != L.join(vals[x], vals[y]):
                ok = False
                break
            if vals[K.meet(x, y)] != L.meet(vals[x], vals[y]):
                ok = False
                break
        if ok:
            found.append(vals)
    return found


class TestUniqueness:
    def test_split_generators_determine_hom(self):
        T = l_mn(1, 1)
        L = co_chain(3)
        ids = [by_label(T, "{0}"), by_label(T, "{0,1}"), by_label(T, "{2}")]
        homs = all_homs(T, L)
        assert homs
        for vals in homs:
            gens = [vals[e] for e in ids]
            cfg = split_config(L, 1, 1, gens)
            assert lambda_holds(L, cfg)
            phi = hom_from_lambda(L, cfg)
            assert phi.values == vals

    def test_plain_generators_determine_hom(self):
        T = co_chain(2)
        L = l_mn(1, 2)
        ids = [by_label(T, "{0}"), by_label(T, "{1}")]
        homs = all_homs(T, L)
        assert homs
        for vals in homs:
            cfg = plain_config(L, [vals[e] for e in ids])
            assert lambda_holds(L, cfg)
            phi = hom_from_lambda(L, cfg)
            assert phi.values == vals


class TestRetractSection:
    def test_identity_retraction(self):
        T = co_chain(3)
        pi = LatticeMap(T, T, tuple(range(T.n)))
        phi = retract_section(T, pi, ("co_chain", 3))
        assert phi.values == tuple(range(T.n))

    def test_first_projection(self):
        T = co_chain(3)
        C = co_chain(2)
        Lp = direct_product(T, C)
        pi = LatticeMap(Lp, T, tuple(i // C.n for i in range(Lp.n)))
        phi = retract_section(Lp, pi, ("co_chain", 3))
        for x in range(T.n):
            assert pi(phi(x)) == x
        # the section tracks the least preimage: second coordinate stays bottom
        assert all(v % C.n == C.bottom for v in phi.values)

    def test_pentagon_product_surjection(self):
        P = l_mn(1, 1)
        two = co_chain(1)
        Lp = direct_product(P, two)
        pi = next(surjection_search(Lp, P))
        phi = retract_section(Lp, pi, ("lmn", 1, 1))
        for x in range(P.n):
            assert pi(phi(x)) == x

    def test_all_surjections_onto_co3(self):
        # the kernel is forced onto the second factor, so the two
        # surjections differ by the mirror automorphism only
        T = co_chain(3)
        Lp = direct_product(T, co_chain(2))
        count = 0
        for pi in surjection_search(Lp, T):
            phi = retract_section(Lp, pi, ("co_chain", 3))
            assert all(pi(phi(x)) == x for x in range(T.n))
            count += 1
        assert count == 2

    def test_two_element_target(self):
        T = co_chain(1)
        Lp = direct_product(T, T)
        pi = LatticeMap(Lp, T, tuple(i // T.n for i in range(Lp.n)))
        phi = retract_section(Lp, pi, ("co_chain", 1))
        assert all(pi(phi(x)) == x for x in range(T.n))

    def test_not_surjective(self):
        T = co_chain(3)
        pi = LatticeMap(T, T, (T.bottom,) * T.n)
        with pytest.raises(LatticeError):
            retract_section(T, pi, ("co_chain", 3))

    def test_pi_out_of_another_lattice(self):
        T = co_chain(3)
        pi = LatticeMap(T, T, tuple(range(T.n)))
        with pytest.raises(LatticeError, match="pi is not a map out of the given lattice"):
            retract_section(direct_product(T, co_chain(1)), pi, ("co_chain", 3))

    def test_wrong_target(self):
        T = co_chain(3)
        pi = LatticeMap(T, T, tuple(range(T.n)))
        with pytest.raises(LatticeError):
            retract_section(T, pi, ("co_chain", 2))

    def test_not_a_hom(self):
        T = co_chain(3)
        Lp = direct_product(T, co_chain(1))
        # drop the top's image to the bottom: joins with the top now disagree
        vals = [i // 2 for i in range(Lp.n)]
        vals[Lp.top] = T.bottom
        pi = LatticeMap(Lp, T, tuple(vals))
        with pytest.raises(LatticeError):
            retract_section(Lp, pi, ("co_chain", 3))


# sha256 of the compact JSON list of section values, in the loop order of
# test_sections_pinned: 497 from the members of size <= 8 onto the five SI
# catalog lattices of at most 9 elements, then 31 from the products of
# Co(2..5), L(1,1) and L(1,2) with at most 60 elements onto Co(3), L(1,1)
# and L(1,2)
SECTIONS = "be27942432dd53141bc614295afe02a820074cd70c267ac526f806a8f5e65676"


def test_sections_pinned():
    targets = [(("co_chain", 1), co_chain(1)), (("co_chain", 3), co_chain(3)),
               (("lmn", 1, 1), l_mn(1, 1)), (("lmn", 1, 2), l_mn(1, 2)),
               (("lmn", 2, 1), l_mn(2, 1))]
    members = [L for L in iter_lattices(8) if decide_sub_lo(L).accepted]
    base = [co_chain(2), co_chain(3), co_chain(4), co_chain(5), l_mn(1, 1), l_mn(1, 2)]
    products = [P for i, a in enumerate(base) for b in base[i:]
                if (P := direct_product(a, b)).n <= 60]
    runs = [(L, targets) for L in members] + [(K, targets[1:4]) for K in base + products]
    sections = []
    for K, ts in runs:
        for target, T in ts:
            for pi in surjection_search(K, T):
                phi = retract_section(K, pi, target)
                assert all(pi(phi(x)) == x for x in range(T.n)), (K.up, target)
                sections.append(phi.values)
    assert len(sections) == 497 + 31
    text = json.dumps(sections, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SECTIONS


# sha256 of the compact JSON list of lambda_holds verdicts, in the loop
# order of test_lambda_verdicts_pinned: every lattice of size <= 6, every
# generator tuple of each shape below, and each distinct base of bottom and
# the meet of the first and last generators
VERDICTS = "69f7b48922b4247172f2efa62ba05d366427b61d4fcba6686927e0897c67d449"


def test_lambda_verdicts_pinned():
    shapes = [("co_chain", (1,)), ("co_chain", (2,)), ("co_chain", (3,)),
              ("lmn", (1, 1)), ("lmn", (1, 2)), ("lmn", (2, 1))]
    verdicts = []
    for L in iter_lattices(6):
        for kind, shape in shapes:
            count = shape[0] if kind == "co_chain" else sum(shape) + 1
            for gens in iproduct(range(L.n), repeat=count):
                for base in sorted({L.bottom, L.meet(gens[0], gens[-1])}):
                    verdicts.append(lambda_holds(L, LambdaConfig(kind, shape, gens, base)))
    assert (len(verdicts), sum(verdicts)) == (86534, 3982)
    text = json.dumps(verdicts, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == VERDICTS
