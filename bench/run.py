"""Micro benchmark: wall time of identity checks, the membership oracle,
enumeration and search_pq.

    python3 bench/run.py OUT.json

Run it from the repository root; it imports colat from ./src and needs
nothing else outside the standard library.  Each row runs its call
REPEAT times and records every time and the median.  Two start-up rows
come first, each over STARTS fresh interpreters, alternating: the
seconds that ``import colat`` takes inside the interpreter, with whether
numpy was loaded after it, and the wall seconds of ``python -m
colat.cli co 4``.  The identity rows
run ``check`` with one worker and record the verdict: E, P, HS and (*)
on Co(6), the 22 convex subsets of a 6-element chain, which hold; (*),
E and HS on the 45-element Co(Q) and P, (*), E and HS on the 31-element
Co(P), which fail and stop at their least witnesses; and D2DUAL on
M_40, where the demand search gives up and the sweep decides.  A cold
row checks E, P, HS and (*) in turn, each on a Co(6) built for that call
alone, so the demand search finds none of its minimal covers, widths or
branch templates kept from an earlier check of the same lattice.  Three
rows, check(E)@Co(10), check(HS)@Co(10) and check(P)@Co(12), run
``check`` at its default budget on Co(2k) for a k-variable identity,
which holds there iff it holds in all of SUB(LO); all three hold.  The
demand search alone proves HS and P; on E it gives up within its budget
of 1/1024 of the swept cells, and the sweep decides.  One row runs
``decide_identity`` of the inclusion (v x0 ... x2999) <= (^ x0 ...
x2999), which fails, on Co(3): its 3,000-child join goal has 3,000
one-child branches.  Three rows run ``check`` of E, P and HS on each of
the 1,078 lattices of size 9, the corpus of the paper's claims at n = 9,
and record how many hold (1030, 467 and 185) and the sha256 of the
compact JSON list of their witnesses, null where the identity holds.
Three rows run ``decide_identity`` of E, P and HS, the demand search alone, on each of the 222 lattices of size 8 and
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
records the maps found per target (713, 36, 306, 8 and 1).  One row
runs ``verify_certificate`` on the 179 certificates of those members and
records how many verify (179).  Three rows time ``lattices_of_size`` at
sizes 8, 9 and 10 and record the lattice counts (222, 1,078 and 5,994).
Two rows time the table builds of the 484-element
``direct_product(co_chain(6), co_chain(6))`` and the 79-element
``Poset.chain(12).co_lattice()`` and record their sizes.  A last row
times the exhaustive ``search_pq(limit=None)`` and lists |Co(Q)| of the
pairs it finds.  OUT.json records the machine
(nproc, CPU model, Python and numpy versions) and every timing.
"""

import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from colat import catalog, lattice, membership, poset, star, terms  # noqa: E402

REPEAT = 3
STARTS = 11

# run in a fresh interpreter: the seconds that import colat takes there, and
# whether numpy came with it
IMPORT_PROBE = """import sys, time
start = time.perf_counter()
import colat
print(time.perf_counter() - start, "numpy" in sys.modules)
"""

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


def spread(seconds) -> dict:
    """Every time, rounded, and their median."""
    return {"seconds": [round(s, 4) for s in seconds],
            "median_s": round(statistics.median(seconds), 4)}


def timed(call):
    """The last result of call() over REPEAT runs, its times and their median."""
    seconds = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - start)
    return result, spread(seconds)


def start_up() -> list[dict]:
    """The two start-up rows, over STARTS fresh interpreters each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    imports, walls = [], []
    for _ in range(STARTS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        imports.append(float(out[0]))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "colat.cli", "co", "4"], cwd=ROOT, env=env,
                       capture_output=True, check=True)
        walls.append(time.perf_counter() - start)
    return [{"case": "import colat", "interpreters": STARTS, "numpy_loaded": out[1] == "True",
             **spread(imports)},
            {"case": "python -m colat.cli co 4", "interpreters": STARTS, **spread(walls)}]


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python3 bench/run.py OUT.json", file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    rows = start_up()
    for row in rows:
        print(f"{row['case']:24s} median={row['median_s']:7.3f} s")
    for name, L, ident in cases():
        result, times = timed(lambda: terms.check(L, ident, force=True))
        rows.append({"case": name, "n": L.n, "vars": len(ident.variables),
                     "holds": result.holds, **times})
        print(f"{name:12s} n={L.n:2d} holds={result.holds!s:5s} median={times['median_s']:7.3f} s")
    idents = [terms.builtin(name) for name in ("E", "P", "HS", "STAR")]
    fresh = iter([poset.Poset.chain(6).co_lattice()[0] for _ in range(REPEAT * len(idents))])
    holds, times = timed(lambda: [terms.check(next(fresh), ident, force=True).holds
                                  for ident in idents])
    rows.append({"case": "cold E,P,HS,STAR@Co(6)", "n": 22, "holds": holds, **times})
    print(f"{rows[-1]['case']:24s} holds={holds} median={times['median_s']:7.3f} s")
    for name, k in (("E", 10), ("HS", 10), ("P", 12)):
        L, ident = catalog.co_chain(k), terms.builtin(name)
        result, times = timed(lambda: terms.check(L, ident))
        rows.append({"case": f"check({name})@Co({k})", "n": L.n, "vars": len(ident.variables),
                     "holds": result.holds, **times})
        print(f"{rows[-1]['case']:24s} n={L.n:2d} holds={result.holds!s:5s} "
              f"median={times['median_s']:7.3f} s")
    xs = [terms.var(f"x{i}") for i in range(3000)]
    wide = terms.Identity("wide", tuple(f"x{i}" for i in range(3000)), "leq",
                          terms.join(*xs), terms.meet(*xs))
    holds, times = timed(lambda: terms.decide_identity(catalog.co_chain(3), wide))
    rows.append({"case": "decide_identity(wide)@Co(3)", "vars": 3000, "holds": holds, **times})
    print(f"{rows[-1]['case']:24s} holds={holds!s:5s} median={times['median_s']:7.3f} s")
    size9 = lattice.lattices_of_size(9)
    for name in ("E", "P", "HS"):
        ident = terms.builtin(name)
        results, times = timed(lambda: [terms.check(L, ident) for L in size9])
        holds = sum(r.holds for r in results)
        witnesses = json.dumps([r.witness for r in results], separators=(",", ":"))
        rows.append({"case": f"{name}@lattices_of_size(9)", "lattices": len(size9),
                     "holds": holds,
                     "witnesses_sha256": hashlib.sha256(witnesses.encode()).hexdigest(), **times})
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
    certs9 = [(L, r.certificate) for L in size9 if (r := membership.decide_sub_lo(L)).accepted]
    members9 = [L for L, _ in certs9]
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
    verified, times = timed(lambda: sum(membership.verify_certificate(L, cert)
                                        for L, cert in certs9))
    rows.append({"case": "verify_certificate@members(9)", "certificates": len(certs9),
                 "verified": verified, **times})
    print(f"{rows[-1]['case']:24s} verified={verified:4d} median={times['median_s']:7.3f} s")
    for n in (8, 9, 10):
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
