"""Inputs and job lists of the three benchmark workloads.

Every workload is a fixed list of jobs.  A job is a name and a function
``fn(api, state) -> (answer, counts)``: ``api`` holds the public colat
calls the job may make (wrapped in spans when the pass is traced),
``state`` is a dict private to one pass, ``answer`` is a JSON-able
record compared with the golden answers and ``counts`` feeds the
per-layer counters.  This module imports colat, so the set-up probe
times its import along with the input lattices.
"""

import hashlib
import json
from functools import partial

from colat import catalog, depend, lattice, membership, poset, project, star, terms

# Every public call the workloads make, by span name.  A generator is drained
# inside its span so the span covers the search.
PUBLIC = {
    "poset.co_lattice": lambda P: P.co_lattice()[0],
    "lattice.direct_product": lattice.direct_product,
    "lattice.lattices_of_size": lattice.lattices_of_size,
    "lattice.surjection_search": lambda K, T: list(lattice.surjection_search(K, T)),
    "lattice.monolith": lattice.monolith,
    "terms.builtin": terms.builtin,
    "terms.check": terms.check,
    "terms.check_sigma": terms.check_sigma,
    "membership.decide_sub_lo": membership.decide_sub_lo,
    "membership.verify_certificate": membership.verify_certificate,
    "membership.brute_force_oracle": membership.brute_force_oracle,
    "depend.check_dependency_invariants": depend.check_dependency_invariants,
    "depend.interval_value_check": depend.interval_value_check,
    "catalog.co_chain": catalog.co_chain,
    "catalog.l_mn": catalog.l_mn,
    "catalog.classify_si": catalog.classify_si,
    "project.retract_section": project.retract_section,
    "star.star_identity": star.star_identity,
}


class Api:
    """The public calls, by their bare function name, optionally traced."""

    def __init__(self, tracer=None):
        for name, fn in PUBLIC.items():
            setattr(self, name.split(".")[1], tracer.wrap(name, fn) if tracer else fn)


def digest(obj) -> str:
    """Short sha256 of the canonical JSON form of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cells(L, r) -> int:
    """Assignments a check evaluated: all of them, or up to the witness."""
    if r.holds:
        return r.assignments
    rank = 0
    for v in r.witness.values():
        rank = rank * L.n + v
    return rank + 1


# -- sweep: a few very large identity sweeps ----------------------------------

# Q is the seven-point poset of the (*) construction with the free relations
# 0<a, b<3, a<b and c<b added; Co(Q) has 45 elements and fails (*).
Q_EXTRA = (("0", "a"), ("b", "3"), ("a", "b"), ("c", "b"))


def sweep_setup(api, smoke):
    chain = 4 if smoke else 6
    co_n = api.co_lattice(poset.Poset.chain(chain))
    Q = poset.Poset.from_covers(star.LABELS, star.FORCED + Q_EXTRA)
    if smoke:
        # Q without c: Co(P) has 31 elements and fails (*) within a second
        Q = Q.restrict([i for i, lab in enumerate(star.LABELS) if lab != "c"])
    co_q = api.co_lattice(Q)
    idents = {name: api.builtin(name) for name in ("E", "P", "HS")}
    idents["STAR"] = api.star_identity()
    jobs = [(f"{name}@co{chain}", partial(_sweep_job, co_n, ident))
            for name, ident in idents.items()]
    jobs.append((f"STAR@co{'P' if smoke else 'Q'}",
                 partial(_sweep_job, co_q, idents["STAR"])))
    return jobs


def _sweep_job(L, ident, api, state):
    # Co(Q) has 45**6 assignments, over the default guard; the sweep stops early
    r = api.check(L, ident, force=True)
    answer = {
        "holds": r.holds,
        "assignments": r.assignments,
        "witness": r.witness,
        "witness_labels": None if r.holds else [L.labels[v] for v in r.witness.values()],
    }
    return answer, {"terms.check_calls": 1, "terms.cells": _cells(L, r)}


# -- corpus: every small lattice through the whole decision pipeline ----------


# lattices per size up to isomorphism (OEIS A006966); they name the corpus jobs
A006966 = (1, 1, 1, 2, 5, 15, 53, 222)


def corpus_setup(api, smoke):
    sizes = A006966[:6 if smoke else 8]
    idents = {name: api.builtin(name) for name in ("E", "P", "HS")}
    jobs = [("enumerate", partial(_enumerate_job, len(sizes)))]
    for n, count in enumerate(sizes, start=1):
        jobs += [(f"n{n}#{i}", partial(_corpus_job, idents, n, i)) for i in range(count)]
    return jobs


def _enumerate_job(max_size, api, state):
    found = [api.lattices_of_size(n) for n in range(1, max_size + 1)]
    state["lattices"] = found
    answer = {"sizes": [len(ls) for ls in found],
              "digest": digest([[L.up for L in ls] for ls in found])}
    return answer, {"lattice.lattices": sum(len(ls) for ls in found)}


def _corpus_job(idents, n, i, api, state):
    L = state["lattices"][n - 1][i]
    counts = {}
    res = api.decide_sub_lo(L)
    answer = {"accepted": res.accepted, "anchor": res.anchor}
    counts["membership.accepted"] = int(res.accepted)
    if res.accepted:
        answer["certificate_ok"] = api.verify_certificate(L, res.certificate)
    for name, ident in idents.items():
        r = api.check(L, ident)
        answer[name] = [r.holds, r.witness]
        counts["terms.check_calls"] = counts.get("terms.check_calls", 0) + 1
        counts["terms.cells"] = counts.get("terms.cells", 0) + _cells(L, r)
        if r.holds:
            s = api.check_sigma(L, name)
            answer[f"{name}_sigma"] = [s.holds, s.witness]
    if res.accepted:
        mono = api.monolith(L)
        answer["monolith"] = None if mono is None else mono.block_of
        reports = api.check_dependency_invariants(L) + [api.interval_value_check(L)]
        answer["invariants"] = [[rep.name, rep.ok, rep.witness] for rep in reports]
        if mono is not None:
            si = api.classify_si(L)
            answer["classify_si"] = [si.tag, si.params]
            counts["catalog.classified"] = 1
    if L.n <= 7:
        agree = api.brute_force_oracle(L) == res.accepted
        answer["oracle_agrees"] = agree
        counts["membership.oracle_runs"] = 1
        counts["membership.oracle_agree"] = int(agree)
    return answer, counts


# -- census: surjections onto SI targets, each split by a section -------------


def census_setup(api, smoke):
    cap = 11 if smoke else 28
    base = {f"co{n}": api.co_chain(n) for n in (2, 3, 4, 5)}
    base["pentagon"] = api.l_mn(1, 1)
    base["l12"] = api.l_mn(1, 2)
    sources = dict(base)
    names = list(base)
    for i, a in enumerate(names):
        for b in names[i:]:
            if base[a].n * base[b].n <= cap:
                sources[f"{a}x{b}"] = api.direct_product(base[a], base[b])
    sources = {name: K for name, K in sources.items() if K.n <= cap}
    targets = {
        "co3": (base["co3"], ("co_chain", 3)),
        "pentagon": (base["pentagon"], ("lmn", 1, 1)),
        "l12": (base["l12"], ("lmn", 1, 2)),
    }
    return [(f"{kname}->{tname}", partial(_census_job, K, T, target))
            for kname, K in sources.items() for tname, (T, target) in targets.items()]


def _census_job(K, T, target, api, state):
    maps = api.surjection_search(K, T)
    sections = 0
    for pi in maps:
        phi = api.retract_section(K, pi, target)
        if any(pi.values[phi.values[x]] != x for x in range(T.n)):
            raise AssertionError(f"section is not split by the surjection {pi.values}")
        sections += 1
    answer = {"surjections": len(maps), "digest": digest(sorted(pi.values for pi in maps))}
    counts = {"lattice.surjections": len(maps), "lattice.hits": int(bool(maps)),
              "project.sections": sections}
    return answer, counts


SETUP = {"sweep": sweep_setup, "corpus": corpus_setup, "census": census_setup}


def summarise(workload, answers):
    """Totals over one pass's answers, recorded beside the golden answers."""
    if workload == "sweep":
        return {"holds": sum(a["holds"] for a in answers.values()),
                "assignments": sum(a["assignments"] for a in answers.values())}
    if workload == "census":
        per_target = {}
        for name, a in answers.items():
            target = name.split("->")[1]
            per_target[target] = per_target.get(target, 0) + a["surjections"]
        return {"jobs": len(answers),
                "jobs_with_surjections": sum(a["surjections"] > 0 for a in answers.values()),
                "surjections": per_target}
    jobs = [a for name, a in answers.items() if name != "enumerate"]
    tags = {}
    for a in jobs:
        if "classify_si" in a:
            tag = a["classify_si"][0]
            tags[tag] = tags.get(tag, 0) + 1
    return {
        "sizes": answers["enumerate"]["sizes"],
        "accepted": sum(a["accepted"] for a in jobs),
        "certificates_ok": sum(a.get("certificate_ok", False) for a in jobs),
        "holds": {name: sum(a[name][0] for a in jobs) for name in ("E", "P", "HS")},
        "sigma_holds": {name: sum(a.get(f"{name}_sigma", [False])[0] for a in jobs)
                        for name in ("E", "P", "HS")},
        "oracle_agrees": sum(a.get("oracle_agrees", False) for a in jobs),
        "oracle_runs": sum("oracle_agrees" in a for a in jobs),
        "classify_si": tags,
    }
