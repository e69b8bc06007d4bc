"""Micro benchmark: wall time of identity checks, the membership oracle,
enumeration and search_pq.

    python3 bench/run.py OUT.json

Run it from the repository root; it imports colat from ./src and needs
nothing else outside the standard library.  Each row runs its call
REPEAT times and records every time and the median.  The identity rows
run ``check`` with one worker and record the verdict: E, P, HS and (*)
on Co(6), the 22 convex subsets of a 6-element chain, which hold; (*),
E and HS on the 45-element Co(Q) and P, (*), E and HS on the 31-element
Co(P), which fail and stop at their least witnesses; and D2DUAL on
M_40, where the demand search gives up and the sweep decides.  Three
rows, check(E)@Co(10), check(HS)@Co(10) and check(P)@Co(12), run
``check`` at its default budget on Co(2k) for a k-variable identity,
which holds there iff it holds in all of SUB(LO); all three hold, and
the demand search alone proves them.  Three
rows run ``check`` of E, P and HS on each of the 1,078 lattices of size
9, the corpus of the paper's claims at n = 9, and record how many hold
(1030, 467 and 185).  Three rows run ``decide_identity`` of E, P and HS,
the demand search alone, on each of the 222 lattices of size 8 and
record how many hold (219, 137 and 64).  One row runs ``brute_force_oracle`` on each of
the 222 lattices of size 8 and records how many it accepts (63).  One
row runs ``decide_sub_lo`` on each of the 1,078 lattices of size 9 and
records how many it accepts (179).  Two rows run ``decide_sub_lo`` on
Co(12) and Co(14), where the dependency sets of the anchors reach 12 and
14 join-irreducibles, and one on the 484-element Co(6) x Co(6); each
records the verdict and the longest certificate chain.  Two rows take
those 179: one
runs ``congruence_lattice`` on each and records the congruence count
(6,190), the other runs ``surjection_search`` from each onto Co(1), Co(3),
L(1,1), L(1,2) and L(2,1), the SI targets of the paper's claim (3), and
records the maps found per target (713, 36, 306, 8 and 1).  Two
rows time ``lattices_of_size`` at sizes 8 and 9 and record the lattice
counts.  Two rows time the table builds of the 484-element
``direct_product(co_chain(6), co_chain(6))`` and the 79-element
``Poset.chain(12).co_lattice()`` and record their sizes.  A last row
times the exhaustive ``search_pq(limit=None)`` and lists |Co(Q)| of the
pairs it finds.  OUT.json records the machine
(nproc, CPU model, Python and numpy versions) and every timing.
"""

import importlib.metadata
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from colat import catalog, lattice, membership, poset, star, terms  # noqa: E402

REPEAT = 3

# Q is the seven-point poset of the (*) construction with the free relations
# 0<a, b<3, a<b and c<b added, as in the benchmark's sweep workload; P is Q
# without c
Q_EXTRA = (("0", "a"), ("b", "3"), ("a", "b"), ("c", "b"))


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def cases():
    co6 = poset.Poset.chain(6).co_lattice()[0]
    Q = poset.Poset.from_covers(star.LABELS, star.FORCED + Q_EXTRA)
    co_q = Q.co_lattice()[0]
    co_p = Q.restrict([i for i, label in enumerate(Q.labels) if label != "c"]).co_lattice()[0]
    # M_40: a bottom, 40 atoms and a top
    m40 = lattice.FinLattice(((1 << 42) - 1,) + tuple(1 << i | 1 << 41 for i in range(1, 41))
                             + (1 << 41,))
    for name in ("E", "P", "HS", "STAR"):
        yield f"{name}@Co(6)", co6, terms.builtin(name)
    for name in ("STAR", "E", "HS"):
        yield f"{name}@Co(Q)", co_q, terms.builtin(name)
    for name in ("P", "STAR", "E", "HS"):
        yield f"{name}@Co(P)", co_p, terms.builtin(name)
    yield "D2DUAL@M_40", m40, terms.builtin("D2DUAL")


def timed(call):
    """The last result of call() over REPEAT runs, its times and their median."""
    seconds = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - start)
    median = statistics.median(seconds)
    return result, {"seconds": [round(s, 4) for s in seconds], "median_s": round(median, 4)}


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python3 bench/run.py OUT.json", file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    rows = []
    for name, L, ident in cases():
        result, times = timed(lambda: terms.check(L, ident, force=True))
        rows.append({"case": name, "n": L.n, "vars": len(ident.variables),
                     "holds": result.holds, **times})
        print(f"{name:12s} n={L.n:2d} holds={result.holds!s:5s} median={times['median_s']:7.3f} s")
    for name, k in (("E", 10), ("HS", 10), ("P", 12)):
        L, ident = catalog.co_chain(k), terms.builtin(name)
        result, times = timed(lambda: terms.check(L, ident))
        rows.append({"case": f"check({name})@Co({k})", "n": L.n, "vars": len(ident.variables),
                     "holds": result.holds, **times})
        print(f"{rows[-1]['case']:24s} n={L.n:2d} holds={result.holds!s:5s} "
              f"median={times['median_s']:7.3f} s")
    size9 = lattice.lattices_of_size(9)
    for name in ("E", "P", "HS"):
        ident = terms.builtin(name)
        holds, times = timed(lambda: sum(terms.check(L, ident).holds for L in size9))
        rows.append({"case": f"{name}@lattices_of_size(9)", "lattices": len(size9),
                     "holds": holds, **times})
        print(f"{rows[-1]['case']:24s} holds={holds:4d} median={times['median_s']:7.3f} s")
    size8 = lattice.lattices_of_size(8)
    for name in ("E", "P", "HS"):
        ident = terms.builtin(name)
        holds, times = timed(lambda: sum(terms.decide_identity(L, ident) for L in size8))
        rows.append({"case": f"decide_identity({name})@lattices_of_size(8)",
                     "lattices": len(size8), "holds": holds, **times})
        print(f"{rows[-1]['case']:24s} holds={holds:4d} median={times['median_s']:7.3f} s")
    accepted, times = timed(lambda: sum(membership.brute_force_oracle(L) for L in size8))
    rows.append({"case": "brute_force_oracle@lattices_of_size(8)", "lattices": len(size8),
                 "accepted": accepted, **times})
    print(f"{rows[-1]['case']:24s} accepted={accepted:4d} median={times['median_s']:7.3f} s")
    accepted, times = timed(lambda: sum(membership.decide_sub_lo(L).accepted for L in size9))
    rows.append({"case": "decide_sub_lo@lattices_of_size(9)", "lattices": len(size9),
                 "accepted": accepted, **times})
    print(f"{rows[-1]['case']:24s} accepted={accepted:4d} median={times['median_s']:7.3f} s")
    co6 = catalog.co_chain(6)
    for name, L in (("co_chain(12)", catalog.co_chain(12)), ("co_chain(14)", catalog.co_chain(14)),
                    ("co_chain(6)^2", lattice.direct_product(co6, co6))):
        result, times = timed(lambda: membership.decide_sub_lo(L))
        rows.append({"case": f"decide_sub_lo@{name}", "n": L.n, "accepted": result.accepted,
                     "longest": max(result.certificate.chain_sizes), **times})
        print(f"{rows[-1]['case']:24s} longest={rows[-1]['longest']:2d} median={times['median_s']:7.3f} s")
    members9 = [L for L in size9 if membership.decide_sub_lo(L).accepted]
    count, times = timed(lambda: sum(len(lattice.congruence_lattice(L)) for L in members9))
    rows.append({"case": "congruence_lattice@members(9)", "lattices": len(members9),
                 "congruences": count, **times})
    print(f"{rows[-1]['case']:24s} congruences={count:5d} median={times['median_s']:7.3f} s")
    targets = [catalog.co_chain(1), catalog.co_chain(3), catalog.l_mn(1, 1),
               catalog.l_mn(1, 2), catalog.l_mn(2, 1)]
    split, times = timed(lambda: [sum(len(list(lattice.surjection_search(L, T)))
                                      for L in members9) for T in targets])
    rows.append({"case": "surjection_search@members(9)", "lattices": len(members9),
                 "surjections": split, **times})
    print(f"{rows[-1]['case']:24s} surjections={split} median={times['median_s']:7.3f} s")
    for n in (8, 9):
        found, times = timed(lambda: lattice.lattices_of_size(n))
        rows.append({"case": f"lattices_of_size({n})", "lattices": len(found), **times})
        print(f"{rows[-1]['case']:20s} lattices={len(found):5d} median={times['median_s']:7.3f} s")
    for name, build in (("direct_product(co_chain(6),co_chain(6))",
                         lambda: lattice.direct_product(co6, co6)),
                        ("Poset.chain(12).co_lattice()",
                         lambda: poset.Poset.chain(12).co_lattice()[0])):
        L, times = timed(build)
        rows.append({"case": name, "n": L.n, **times})
        print(f"{name:24s} n={L.n:3d} median={times['median_s']:7.3f} s")
    found, times = timed(lambda: star.search_pq(limit=None))
    rows.append({"case": "search_pq(limit=None)",
                 "pairs": [w.Q.co_lattice()[0].n for w in found], **times})
    print(f"{'search_pq':12s} pairs={rows[-1]['pairs']} median={times['median_s']:7.3f} s")
    report = {"machine": machine(), "repeat": REPEAT, "cases": rows}
    out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
