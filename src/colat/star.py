"""The identity (*) and the poset pair (P, Q) it separates.

Co(P) and Co(Q) can satisfy different lattice identities even when P is
an induced subposet of Q.  The witness pair lives on seven points: a
four point chain 0 < 1 < 2 < 3, a point b above 1, a point a below 2,
and a point c squeezed strictly between 1 and 2.  Removing c gives P.
The identity (*) fails in Co(P) at the all-singletons assignment but
holds in Co(Q), where every convex set around the gap must pick up c.

search_pq reconstructs the pair from the forced relations alone by
sweeping all consistent order completions, so the pair is a computed
object, not a transcribed one.
"""

from dataclasses import dataclass
from itertools import product

from .lattice import _restrict
from .poset import Poset, poset_to_json
from .terms import CheckResult, Identity, builtin, check, decide_identity, eval_term

__all__ = [
    "SeparationWitness",
    "SeparationReport",
    "star_identity",
    "search_pq",
    "verify_separation",
]

LABELS = ("0", "1", "2", "3", "a", "b", "c")

# relations forced by the construction; everything else is completed freely
FORCED = (("0", "1"), ("1", "2"), ("2", "3"), ("1", "b"), ("a", "2"),
          ("1", "c"), ("c", "2"))
FREE = (("0", "a"), ("b", "3"), ("a", "b"), ("a", "c"), ("c", "b"))
INCOMPARABLE = (("1", "a"), ("2", "b"))


def star_identity() -> Identity:
    """The one-sided identity (*) in x0, x1, x2, x3, xa, xb.

    The left side is the second stage of the mutual recursion
    x1' = x1 ^ (x0 v x2') ^ (x0 v xb),  x2' = x2 ^ (x3 v x1') ^ (x3 v xa)
    started from x1 and x2; the right side joins s and the six meets
    of t.  See the term-engine builtin for the transcription.
    """
    return builtin("STAR")


@dataclass(frozen=True)
class SeparationWitness:
    """A pair of posets split by (*), with the verdict evidence.

    P is Q with the point `removed` deleted; Co(Q) satisfies (*) while
    Co(P) fails it at failing_assignment (variable, set label) pairs.
    """

    Q: Poset
    removed: str
    P: Poset
    co_q_holds: bool
    co_p_holds: bool
    failing_assignment: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SeparationReport:
    co_p: CheckResult
    co_q: CheckResult
    separated: bool
    note: str


_NOTE = (
    "identity-level report: when Co(P) fails (*) and Co(Q) satisfies it, "
    "Co(P) lies outside the variety generated by Co(Q); that variety "
    "consequence is implied by the verdicts, not computed directly"
)


def _completions():
    """All posets on the seven points consistent with the forced relations.

    Each of the five undetermined pairs is either related in its only
    admissible direction or left incomparable; completions whose closure
    contradicts a choice are dropped.  Returned with the choice vector.
    """
    idx = {lab: i for i, lab in enumerate(LABELS)}
    out = []
    for bits in product((0, 1), repeat=len(FREE)):
        chosen = [p for p, b in zip(FREE, bits) if b]
        Q = Poset.from_covers(LABELS, list(FORCED) + chosen)
        apart = INCOMPARABLE + tuple(p for p in FREE if p not in chosen)
        if not any(Q.leq(idx[x], idx[y]) or Q.leq(idx[y], idx[x]) for x, y in apart):
            out.append((bits, Q))
    return out


def _singleton_assignment(star: Identity, P: Poset, masks):
    at = {s: e for e, s in enumerate(masks)}
    env = {}
    for v in star.variables:
        env[v] = at[1 << P.labels.index(v[1:])]
    return env


def search_pq(limit: int | None = None) -> list[SeparationWitness]:
    """Sweep the order completions and return the separating pairs.

    A completion Q qualifies when Co(P) with P = Q minus c fails (*) at
    the all-singletons assignment (left side {1}, right side empty) and
    Co(Q) satisfies (*) over every assignment.  Completions are tried
    with the smallest Co(Q) first; the order is fixed, so the result
    list is deterministic.  The Co(Q) verdict is decide_identity's, which
    needs no witness and so never sweeps: all 28 completions take about
    a second, and limit=None returns the four separating pairs, with
    |Co(Q)| = 40, 45, 45 and 51.  An empty result signals a
    transcription error in the forced relations.
    """
    if limit is not None and limit <= 0:
        return []
    star = star_identity()
    removed = LABELS.index("c")
    keep = [i for i in range(len(LABELS)) if i != removed]
    ranked = []
    for bits, Q in _completions():
        coQ, _ = Q.co_lattice()
        ranked.append((coQ.n, bits, Q, coQ))
    ranked.sort(key=lambda r: (r[0], r[1]))

    found = []
    for _, bits, Q, coQ in ranked:
        P = Q.restrict(keep)
        coP, masks = P.co_lattice()
        env = _singleton_assignment(star, P, masks)
        lv = eval_term(coP, star.lhs, env)
        rv = eval_term(coP, star.rhs, env)
        if coP.labels[lv] != "{1}" or rv != coP.bottom:
            continue
        if not decide_identity(coQ, star):
            continue
        assignment = tuple((v, coP.labels[env[v]]) for v in star.variables)
        found.append(SeparationWitness(
            Q=Q, removed="c", P=P,
            co_q_holds=True, co_p_holds=False,
            failing_assignment=assignment,
        ))
        if limit is not None and len(found) >= limit:
            break
    return found


def _induced_subposet(P: Poset, Q: Poset) -> bool:
    try:
        positions = [Q.labels.index(lab) for lab in P.labels]
    except ValueError:
        return False
    return _restrict(Q.up, positions) == P.up


def verify_separation(P: Poset, Q: Poset, workers: int = 1,
                      force: bool = False) -> SeparationReport:
    """Check (*) on Co(P) and Co(Q) and report the separation verdict.

    P must be an induced subposet of Q, matched by labels.  The note in
    the report spells out that the verdict is about the identity; the
    variety consequence follows from it but is not computed here.
    """
    if not isinstance(P, Poset) or not isinstance(Q, Poset):
        raise ValueError("expected two posets")
    if not _induced_subposet(P, Q):
        raise ValueError("P is not an induced subposet of Q under its labels")
    star = star_identity()
    coP, _ = P.co_lattice()
    coQ, _ = Q.co_lattice()
    rp = check(coP, star, workers=workers, force=force)
    rq = check(coQ, star, workers=workers, force=force)
    return SeparationReport(
        co_p=rp, co_q=rq,
        separated=rq.holds and not rp.holds,
        note=_NOTE,
    )


def witness_to_json(w: SeparationWitness) -> dict:
    return {
        "Q": poset_to_json(w.Q),
        "removed": w.removed,
        "P": poset_to_json(w.P),
        "co_q_holds": w.co_q_holds,
        "co_p_holds": w.co_p_holds,
        "failing_assignment": {v: lab for v, lab in w.failing_assignment},
    }
