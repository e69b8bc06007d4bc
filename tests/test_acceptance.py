"""Package acceptance gate: ten exact checks, one printed verdict line each.

Every check here is an exhaustive finite verification; there are no
tolerances and no sampling.  The corpus sizes are chosen so the whole
gate stays well under the suite runtime budget while still crossing
every claimed boundary (chain lengths, catalog indices, product sizes).
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import combinations

import pytest

from colat import cli
from colat.catalog import co_chain, l_mn
from colat.depend import (
    check_dependency_invariants,
    interval_value_check,
    is_weak_bitrack,
    weak_bitracks,
)
from colat.lattice import (
    direct_product,
    embedding_search,
    iter_lattices,
    monolith,
    surjection_search,
)
from colat.membership import (
    brute_force_oracle,
    decide_sub_lo,
    decide_sub_n,
    verify_certificate,
)
from colat.project import retract_section
from colat.star import search_pq, star_identity
from colat.terms import builtin, check, check_sigma, eval_term
from examples import diamond, lmn_bitrack
from oracles import distributive

WORKERS = min(8, os.cpu_count() or 1)


def _gate(capsys, num, label, body):
    try:
        detail = body() or ""
    except BaseException as exc:
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} FAIL: {label} "
                  f"[{type(exc).__name__}: {exc}]")
        raise
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} PASS: {label}{tail}")


@cache
def _corpus():
    """All lattices with at most 6 elements, plus the catalog."""
    out = [(f"size{L.n}#{i}", L) for i, L in enumerate(iter_lattices(6))]
    out += [(f"co{n}", co_chain(n)) for n in range(1, 7)]
    out += [(f"l{m}{n}", l_mn(m, n))
            for s in range(2, 6) for m in range(1, s) for n in [s - m]]
    return out


@cache
def _accepted():
    return [(name, L, decide_sub_lo(L)) for name, L in _corpus()]


def test_01_chain_identity_suite(capsys):
    """Co(chain) satisfies E, P, HS and the six-variable inequality for
    chains of length 1 through 6, exhaustively over all assignments."""

    def body():
        swept = 0
        for n in range(1, 7):
            L = co_chain(n)
            for name in ("E", "P", "HS", "STAR"):
                ident = builtin(name)
                r = check(L, ident, workers=WORKERS)
                assert r.holds, (n, name, r.witness)
                # exhaustive: every assignment really was evaluated
                assert r.assignments == L.n ** len(ident.variables)
                swept += r.assignments
        return f"chains 1-6, 4 identities, {swept} assignments"

    _gate(capsys, 1, "chain identity suite", body)


def test_02_identity_implies_sigma(capsys):
    """On the whole corpus, satisfying E/P/HS forces the corresponding
    join-irreducible interpretation; no side hypotheses, no exceptions."""

    def body():
        implications = 0
        for name, L in _corpus():
            for iname in ("E", "P", "HS"):
                if check(L, builtin(iname), workers=WORKERS).holds:
                    rs = check_sigma(L, iname)
                    assert rs.holds, (name, iname, rs.witness)
                    implications += 1
        return f"{len(_corpus())} lattices, {implications} implications"

    _gate(capsys, 2, "identity implies join-irreducible form", body)


def test_03_membership_boundaries(capsys):
    """Chain convexity lattices sit strictly between the n-chain levels,
    the pentagon separates levels 2 and 3, distributive corpus members
    all live at level 2, and the diamond is rejected outright."""

    def body():
        for n in (3, 4, 5):
            assert decide_sub_n(co_chain(n), n), n
            assert not decide_sub_n(co_chain(n), n - 1), n
        pent = l_mn(1, 1)
        assert decide_sub_n(pent, 3) and not decide_sub_n(pent, 2)
        dist = 0
        for name, L in _corpus():
            if distributive(L):
                assert decide_sub_n(L, 2), name
                dist += 1
        assert dist == 15
        assert not decide_sub_lo(diamond()).accepted
        return f"levels 3-5 strict, {dist} distributive members at level 2"

    _gate(capsys, 3, "membership boundaries", body)


def test_04_certificate_soundness_and_bound(capsys):
    """Accepted corpus members produce verifiable certificates within the
    quadratic size bound; each subdirectly irreducible catalog member has
    one anchor whose component alone is injective with full chain size."""

    def body():
        accepted = 0
        for name, L, res in _accepted():
            if not res.accepted:
                continue
            accepted += 1
            assert verify_certificate(L, res.certificate), name
            jis = L.join_irreducibles
            assert sum(res.certificate.chain_sizes) <= len(jis) ** 2, name
        single = 0
        for name, L, res in _accepted():
            if not name.startswith(("co", "l")) or monolith(L) is None:
                continue
            jis = L.join_irreducibles
            cert = res.certificate
            assert any(
                len(w.chain) == len(jis) and len(set(mp)) == L.n
                for w, mp in zip(cert.witnesses, cert.maps)
            ), name
            single += 1
        return f"{accepted} certificates, {single} single-anchor SI members"

    _gate(capsys, 4, "certificate soundness and size bound", body)


def test_05_oracle_equivalence(capsys):
    """The structural decision procedure agrees with the brute-force
    separating-family oracle on every lattice with at most 7 elements."""

    def body():
        lattices = list(iter_lattices(7))
        assert len(lattices) == 78
        for L in lattices:
            fast = decide_sub_lo(L).accepted
            slow = brute_force_oracle(L)
            assert fast == slow, (L.up, fast, slow)
        return f"{len(lattices)} lattices, zero disagreements"

    _gate(capsys, 5, "decision procedure matches oracle", body)


def test_06_dependency_invariants(capsys):
    """Every accepted corpus member passes all five join-dependency
    invariants with zero violations."""

    def body():
        checked = 0
        for name, L, res in _accepted():
            if not res.accepted:
                continue
            for rep in check_dependency_invariants(L):
                assert rep.ok, (name, rep.name, rep.witness)
            rep = interval_value_check(L)
            assert rep.ok, (name, rep.name, rep.witness)
            checked += 1
        return f"{checked} accepted members, 5 invariants each"

    _gate(capsys, 6, "join-dependency invariants", body)


def test_07_catalog_suite(capsys):
    """For index sums up to 5: join-irreducibles are the singletons plus
    the doubleton, the monolith identifies the doubleton with its lower
    singleton, the canonical bi-track validates, the chain convexity
    lattice of its index sum embeds, every bi-track at the full index sum carries the
    canonical trace or its mirror, and equal-sum classes are mutually
    non-embeddable, leaving s-1 classes at sum s."""

    def body():
        classes = 0
        for s in range(2, 6):
            pairs = [(m, s - m) for m in range(1, s)]
            for m, n in pairs:
                L = l_mn(m, n)
                by_label = {lab: i for i, lab in enumerate(L.labels)}
                # {m} itself is excluded by the defining constraint
                want = {by_label[f"{{{i}}}"]
                        for i in range(m + n + 1) if i != m}
                want.add(by_label[f"{{{m - 1},{m}}}"])
                assert set(L.join_irreducibles) == want, (m, n)
                mono = monolith(L)
                assert mono is not None, (m, n)
                assert mono.same(by_label[f"{{{m - 1}}}"],
                                 by_label[f"{{{m - 1},{m}}}"]), (m, n)
                t = lmn_bitrack(m, n)
                assert is_weak_bitrack(L, t), (m, n)
                assert embedding_search(co_chain(m + n), L) is not None, (m, n)
                canon = t.trace()
                mirror = (canon[1], canon[0])
                seen = set()
                for k in range(1, s):
                    for bt in weak_bitracks(L, k, s - k):
                        tr = bt.trace()
                        assert tr in (canon, mirror), (m, n, k, tr)
                        seen.add(tr)
                assert seen == {canon, mirror}, (m, n)
            for (a, b), (c, d) in combinations(pairs, 2):
                assert embedding_search(l_mn(a, b), l_mn(c, d)) is None
                assert embedding_search(l_mn(c, d), l_mn(a, b)) is None
            assert len(pairs) == s - 1
            classes += len(pairs)
        return f"{classes} catalog members, sums 2-5"

    _gate(capsys, 7, "catalog suite", body)


# -- projectivity corpus: products of catalog members, capped at 60 elements --

_C8_TARGETS = {
    "co3": (co_chain(3), ("co_chain", 3)),
    "pentagon": (l_mn(1, 1), ("lmn", 1, 1)),
    "l12": (l_mn(1, 2), ("lmn", 1, 2)),
}


def _c8_corpus():
    base = {
        "co2": co_chain(2),
        "co3": co_chain(3),
        "co4": co_chain(4),
        "co5": co_chain(5),
        "pentagon": l_mn(1, 1),
        "l12": l_mn(1, 2),
    }
    corpus = dict(base)
    names = list(base)
    for i, a in enumerate(names):
        for b in names[i:]:
            P = direct_product(base[a], base[b])
            if P.n <= 60:
                corpus[f"{a}x{b}"] = P
    return corpus


_C8_CORPUS = _c8_corpus()


def _c8_job(job):
    kname, tname = job
    K = _C8_CORPUS[kname]
    T, target = _C8_TARGETS[tname]
    found = 0
    for pi in surjection_search(K, T):
        phi = retract_section(K, pi, target)
        assert all(pi.values[phi.values[x]] == x for x in range(T.n))
        found += 1
    return kname, tname, found


def test_08_projectivity(capsys):
    """Every surjection from the product corpus onto a small subdirectly
    irreducible target splits: the retraction construction finds a
    section within the iteration bound, with zero failures."""

    def body():
        jobs = [(kn, tn) for kn in _C8_CORPUS for tn in _C8_TARGETS]
        jobs.sort(key=lambda j: -_C8_CORPUS[j[0]].n)
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=WORKERS, mp_context=ctx) as ex:
            results = list(ex.map(_c8_job, jobs))
        total = sum(found for _, _, found in results)
        per_target = {tn: 0 for tn in _C8_TARGETS}
        for _, tn, found in results:
            per_target[tn] += found
        assert all(v > 0 for v in per_target.values()), per_target
        assert total == 31, total
        return (f"{len(_C8_CORPUS)} sources, {total} surjections split "
                f"({per_target['co3']} co3, {per_target['pentagon']} "
                f"pentagon, {per_target['l12']} l12)")

    _gate(capsys, 8, "surjections onto SI targets split", body)


def test_09_counterexample_pair(capsys):
    """The poset pair search returns a 6-point/7-point witness: the small
    side fails the six-variable inequality at the all-singletons
    assignment with left side {1} and right side empty, while the full
    side satisfies it exhaustively."""

    def body():
        witnesses = search_pq(limit=1)
        assert witnesses, "no witness found"
        w = witnesses[0]
        assert len(w.P.labels) == 6 and len(w.Q.labels) == 7
        assert not w.co_p_holds and w.co_q_holds
        star = star_identity()
        coP, sets = w.P.co_lattice()
        at = {s: i for i, s in enumerate(sets)}
        env = {}
        for var, lab in w.failing_assignment:
            assert lab == "{" + var[1:] + "}", (var, lab)
            env[var] = at[1 << w.P.labels.index(var[1:])]
        lv = eval_term(coP, star.lhs, env)
        rv = eval_term(coP, star.rhs, env)
        assert coP.labels[lv] == "{1}" and rv == coP.bottom
        assert not coP.leq(lv, rv)
        return "|P|=6 |Q|=7, failure at {1} over empty, full side exhaustive"

    _gate(capsys, 9, "separating poset pair", body)


def test_10_deterministic_reports(capsys, tmp_path):
    """Representative command line reports are byte-identical at worker
    counts 1 and 8, including a multi-chunk sweep and a failing witness."""

    def render(argv):
        rc = cli.main(argv)
        out = capsys.readouterr().out
        return rc, out

    def body():
        import json
        co5 = tmp_path / "co5.json"
        rc, out = render(["co", "5"])
        co5.write_text(out)
        m3 = tmp_path / "m3.json"
        rc, out = render(["catalog", "lmn", "1", "1"])
        pent = tmp_path / "pent.json"
        pent.write_text(out)
        m3.write_text(json.dumps({
            "size": 5,
            "leq_pairs": [[0, 1], [0, 2], [0, 3], [0, 4],
                          [1, 4], [2, 4], [3, 4]],
            "labels": ["0", "a", "b", "c", "1"]}))
        runs = [
            ["check", "--identity", "P", str(co5), "--json"],
            ["check", "--identity", "STAR", str(co5), "--json"],
            ["check", "--identity", "HS", str(m3), "--json"],
            ["member", str(pent), "--json"],
        ]
        compared = 0
        for argv in runs:
            rc1, out1 = render(argv + ["--workers", "1"])
            rc8, out8 = render(argv + ["--workers", "8"])
            assert rc1 == rc8, argv
            assert out1 == out8, argv
            compared += 1
        return f"{compared} reports byte-identical at workers 1 and 8"

    _gate(capsys, 10, "deterministic reports across worker counts", body)
