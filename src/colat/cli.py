"""Command line front end.

Every subcommand reads JSON from files or stdin ('-'), prints a
deterministic report, and exits 0 when the property holds or the object
is accepted, 1 when it fails or is rejected (with a witness in the
output), and 2 on usage or input errors.  Worker counts and guards only
affect speed and admission, never verdicts, so reports are byte
identical across runs.
"""

import argparse
import hashlib
import json
import sys
import time

from .catalog import classify_si, co_chain, l_mn
from .depend import check_dependency_invariants, interval_value_check, weak_bitracks
from .lattice import (
    FinLattice,
    LatticeError,
    LatticeMap,
    embedding_search,
    lattice_from_json,
    lattice_to_json,
)
from .membership import (
    certificate_from_json,
    certificate_to_json,
    decide_sub_lo,
    decide_sub_n,
    verify_certificate,
)
from .poset import Poset, PosetError, poset_from_json, poset_to_json
from .project import retract_section
from .star import search_pq, verify_separation, witness_to_json
from .terms import TermError, builtin, builtin_names, check, check_sigma, load_identity


def _read_text(path: str) -> tuple[str, str]:
    """Return (text, name) for a path or '-' for stdin."""
    if path == "-":
        return sys.stdin.read(), "stdin"
    with open(path, encoding="utf-8") as fh:
        return fh.read(), path


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Inputs:
    """Collects input digests for the report."""

    def __init__(self):
        self.digests: dict[str, str] = {}

    def json(self, path: str):
        text, name = _read_text(path)
        self.digests[name] = _digest(text)
        if not text.strip():
            raise ValueError(f"empty input from {name}")
        return json.loads(text)

    def lattice(self, path: str) -> FinLattice:
        return lattice_from_json(self.json(path))

    def poset(self, path: str) -> Poset:
        return poset_from_json(self.json(path))


def _emit(ns, payload: dict, lines: list[str]) -> None:
    if ns.timing:
        payload["seconds"] = round(time.time() - ns.started, 3)
        lines = lines + [f"seconds: {payload['seconds']}"]
    if getattr(ns, "json", False):
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _witness_labels(L: FinLattice, witness) -> dict | None:
    if witness is None:
        return None
    return {v: L.labels[i] for v, i in witness.items()}


def _format_witness(labeled: dict | None) -> str:
    if not labeled:
        return ""
    return " ".join(f"{v}={labeled[v]}" for v in labeled)


# -- subcommands -------------------------------------------------------------------


def _cmd_co(ns) -> int:
    inputs = _Inputs()
    if ns.input.isdigit():
        P = Poset.chain(int(ns.input))
    else:
        P = inputs.poset(ns.input)
    L, _ = P.co_lattice()
    print(json.dumps(lattice_to_json(L), indent=1, sort_keys=True))
    return 0


def _cmd_catalog(ns) -> int:
    if ns.family == "co":
        if len(ns.params) != 1:
            raise ValueError("catalog co takes one parameter")
        L = co_chain(ns.params[0])
    else:
        if len(ns.params) != 2:
            raise ValueError("catalog lmn takes two parameters")
        L = l_mn(ns.params[0], ns.params[1])
    print(json.dumps(lattice_to_json(L), indent=1, sort_keys=True))
    return 0


def _load_identity_arg(name: str):
    if name in builtin_names():
        return builtin(name)
    return load_identity(name)


def _cmd_check(ns) -> int:
    inputs = _Inputs()
    L = inputs.lattice(ns.lattice)
    ident = _load_identity_arg(ns.identity)
    res = check(L, ident, workers=ns.workers, force=ns.force)
    labeled = _witness_labels(L, res.witness)
    payload = {
        "command": "check",
        "identity": ident.name,
        "inputs": inputs.digests,
        "holds": res.holds,
        "witness": labeled,
        "assignments": res.assignments,
    }
    if res.holds:
        lines = [f"{ident.name}: holds ({res.assignments} assignments)"]
    else:
        lines = [f"{ident.name}: fails at {_format_witness(labeled)}"]
    _emit(ns, payload, lines)
    return 0 if res.holds else 1


def _cmd_check_sigma(ns) -> int:
    inputs = _Inputs()
    L = inputs.lattice(ns.lattice)
    res = check_sigma(L, ns.which)
    labeled = _witness_labels(L, res.witness)
    payload = {
        "command": "check-sigma",
        "which": ns.which,
        "inputs": inputs.digests,
        "holds": res.holds,
        "witness": labeled,
    }
    if res.holds:
        lines = [f"{res.name}: holds"]
    else:
        lines = [f"{res.name}: fails at {_format_witness(labeled)}"]
    _emit(ns, payload, lines)
    return 0 if res.holds else 1


def _parse_variety(text: str):
    if text == "sub-lo":
        return None
    if text.startswith("sub-") and text[4:].isdigit():
        return int(text[4:])
    raise ValueError(f"unknown variety {text!r}; use sub-lo or sub-N")


def _cmd_member(ns) -> int:
    inputs = _Inputs()
    L = inputs.lattice(ns.lattice)
    bound = _parse_variety(ns.variety)
    if bound is not None:
        ok = decide_sub_n(L, bound, workers=ns.workers)
        payload = {
            "command": "member",
            "variety": ns.variety,
            "inputs": inputs.digests,
            "accepted": ok,
        }
        verdict = "member of" if ok else "not a member of"
        _emit(ns, payload, [f"{verdict} SUB({bound})"])
        return 0 if ok else 1
    res = decide_sub_lo(L, workers=ns.workers)
    payload = {
        "command": "member",
        "variety": "sub-lo",
        "inputs": inputs.digests,
        "accepted": res.accepted,
    }
    if res.accepted:
        cert = res.certificate
        payload["certificate"] = certificate_to_json(L, cert)
        total = sum(len(w.chain) for w in cert.witnesses)
        lines = [
            "accepted: embeds into a product of convex-set lattices of chains",
            f"anchors: {len(cert.witnesses)}  total chain size: {total}",
        ]
        _emit(ns, payload, lines)
        return 0
    payload["anchor"] = L.labels[res.anchor]
    payload["diagnostics"] = [
        {"name": d.name, "witness": _witness_labels(L, d.witness)}
        for d in res.diagnostics
    ]
    lines = [f"rejected: no chain order at anchor {L.labels[res.anchor]}"]
    for d in res.diagnostics:
        lines.append(
            f"  {d.name} fails at {_format_witness(_witness_labels(L, d.witness))}"
        )
    _emit(ns, payload, lines)
    return 1


def _cmd_embed(ns) -> int:
    inputs = _Inputs()
    K = inputs.lattice(ns.source)
    L = inputs.lattice(ns.target)
    emb = embedding_search(K, L)
    payload = {
        "command": "embed",
        "inputs": inputs.digests,
        "found": emb is not None,
    }
    if emb is None:
        _emit(ns, payload, ["no embedding"])
        return 1
    payload["values"] = [L.labels[v] for v in emb.values]
    lines = ["embedding found"]
    lines.extend(
        f"  {K.labels[i]} -> {L.labels[v]}" for i, v in enumerate(emb.values)
    )
    _emit(ns, payload, lines)
    return 0


def _cmd_verify_cert(ns) -> int:
    inputs = _Inputs()
    L = inputs.lattice(ns.lattice)
    cert = certificate_from_json(L, inputs.json(ns.certificate))
    ok = verify_certificate(L, cert)
    payload = {"command": "verify-cert", "inputs": inputs.digests, "valid": ok}
    _emit(ns, payload, ["certificate verifies" if ok else "certificate INVALID"])
    return 0 if ok else 1


def _cmd_classify(ns) -> int:
    inputs = _Inputs()
    L = inputs.lattice(ns.lattice)
    cls = classify_si(L)
    if cls.tag == "co_chain":
        name = f"Co({cls.params[0]})"
    elif cls.tag == "lmn":
        name = f"Lmn({cls.params[0]},{cls.params[1]})"
    else:
        name = cls.tag.replace("_", "-")
    payload = {
        "command": "classify",
        "inputs": inputs.digests,
        "tag": cls.tag,
        "params": list(cls.params),
        "name": name,
    }
    _emit(ns, payload, [name])
    return 1 if cls.tag == "not_member" else 0


def _cmd_tracks(ns) -> int:
    inputs = _Inputs()
    L = inputs.lattice(ns.lattice)
    m, n = ns.index
    found = []
    for t in weak_bitracks(L, m, n):
        found.append(t)
        if ns.limit and len(found) >= ns.limit:
            break
    payload = {
        "command": "tracks",
        "inputs": inputs.digests,
        "index": [m, n],
        "count": len(found),
        "bitracks": [
            {
                "first": [L.labels[x] for x in t.first.entries],
                "first_side": L.labels[t.first.side],
                "second": [L.labels[x] for x in t.second.entries],
                "second_side": L.labels[t.second.side],
            }
            for t in found
        ],
    }
    lines = []
    for t in found:
        first = ",".join(L.labels[x] for x in t.first.entries)
        second = ",".join(L.labels[x] for x in t.second.entries)
        lines.append(
            f"[{first}] side={L.labels[t.first.side]}"
            f" | [{second}] side={L.labels[t.second.side]}"
        )
    lines.append(f"count: {len(found)}")
    _emit(ns, payload, lines)
    return 0


def _parse_target(text: str):
    kind, _, rest = text.partition(":")
    if kind == "co" and rest.isdigit():
        return ("co_chain", int(rest))
    if kind == "lmn":
        parts = rest.split(",")
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            return ("lmn", int(parts[0]), int(parts[1]))
    raise ValueError(f"bad target {text!r}; use co:N or lmn:M,N")


def _cmd_retract(ns) -> int:
    inputs = _Inputs()
    Lp = inputs.lattice(ns.lattice)
    target = _parse_target(ns.target)
    T = co_chain(target[1]) if target[0] == "co_chain" else l_mn(target[1], target[2])
    data = inputs.json(ns.pi)
    values = data.get("values") if isinstance(data, dict) else None
    if (not isinstance(values, list) or len(values) != Lp.n
            or not all(isinstance(v, int) and 0 <= v < T.n for v in values)):
        raise ValueError("pi JSON needs a 'values' list mapping every element")
    pi = LatticeMap(Lp, T, tuple(values))
    phi = retract_section(Lp, pi, target)
    payload = {
        "command": "retract",
        "inputs": inputs.digests,
        "target": ns.target,
        "section": [Lp.labels[v] for v in phi.values],
        "verified": True,
    }
    lines = ["section verified: pi o phi = identity"]
    lines.extend(
        f"  {T.labels[x]} -> {Lp.labels[phi.values[x]]}" for x in range(T.n)
    )
    _emit(ns, payload, lines)
    return 0


def _cmd_find_pq(ns) -> int:
    limit = ns.limit if ns.limit > 0 else None
    found = search_pq(limit=limit, workers=ns.workers)
    payload = {
        "command": "find-pq",
        "count": len(found),
        "witnesses": [witness_to_json(w) for w in found],
    }
    lines = []
    for k, w in enumerate(found):
        lines.append(f"witness {k}:")
        lines.append("  Q: " + json.dumps(poset_to_json(w.Q), sort_keys=True))
        lines.append("  P: " + json.dumps(poset_to_json(w.P), sort_keys=True))
        assignment = " ".join(f"{v}={lab}" for v, lab in w.failing_assignment)
        lines.append(f"  Co(Q) satisfies (*); Co(P) fails at {assignment}")
    lines.append(f"witnesses: {len(found)}")
    _emit(ns, payload, lines)
    return 0 if found else 1


def _cmd_verify_separation(ns) -> int:
    inputs = _Inputs()
    P = inputs.poset(ns.p)
    Q = inputs.poset(ns.q)
    rep = verify_separation(P, Q, workers=ns.workers, force=ns.force)
    coP, _ = P.co_lattice()
    coQ, _ = Q.co_lattice()
    payload = {
        "command": "verify-separation",
        "inputs": inputs.digests,
        "co_p_holds": rep.co_p.holds,
        "co_p_witness": _witness_labels(coP, rep.co_p.witness),
        "co_q_holds": rep.co_q.holds,
        "co_q_witness": _witness_labels(coQ, rep.co_q.witness),
        "separated": rep.separated,
        "note": rep.note,
    }
    lines = []
    for tag, res, co in (("Co(P)", rep.co_p, coP), ("Co(Q)", rep.co_q, coQ)):
        if res.holds:
            lines.append(f"{tag}: satisfies (*)")
        else:
            labeled = _witness_labels(co, res.witness)
            lines.append(f"{tag}: fails (*) at {_format_witness(labeled)}")
    lines.append("separated: " + ("yes" if rep.separated else "no"))
    lines.append(rep.note)
    _emit(ns, payload, lines)
    return 0 if rep.separated else 1


def _cmd_invariants(ns) -> int:
    inputs = _Inputs()
    L = inputs.lattice(ns.lattice)
    reports = list(check_dependency_invariants(L))
    reports.append(interval_value_check(L))
    payload = {
        "command": "invariants",
        "inputs": inputs.digests,
        "reports": [
            {
                "name": r.name,
                "ok": r.ok,
                "witness": None if r.witness is None
                else [L.labels[x] for x in r.witness],
            }
            for r in reports
        ],
    }
    lines = []
    for r in reports:
        if r.ok:
            lines.append(f"{r.name}: ok")
        else:
            labs = ",".join(L.labels[x] for x in r.witness)
            lines.append(f"{r.name}: FAIL at ({labs})")
    _emit(ns, payload, lines)
    return 0 if all(r.ok for r in reports) else 1


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(data: dict) -> str:
    """Hasse diagram of a poset or lattice JSON object as DOT text."""
    if not isinstance(data, dict):
        raise ValueError("dot input must be a JSON object")
    if "elements" in data and "covers" in data:
        P = poset_from_json(data)
        labels = P.labels
        edges = sorted(P.cover_pairs())
    elif "leq_pairs" in data and "size" in data:
        L = lattice_from_json(data)
        labels = L.labels
        edges = sorted(
            (i, j) for i in range(L.n) for j in L.upper_covers[i]
        )
    else:
        raise ValueError("input is neither poset nor lattice JSON")
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines.extend(f'  "{_dot_escape(lab)}";' for lab in labels)
    lines.extend(
        f'  "{_dot_escape(labels[i])}" -> "{_dot_escape(labels[j])}";'
        for i, j in edges
    )
    lines.append("}")
    return "\n".join(lines)


def _cmd_dot(ns) -> int:
    inputs = _Inputs()
    print(export_dot(inputs.json(ns.input)))
    return 0


# -- parser ------------------------------------------------------------------------


def _add_common(sub, workers=False, force=False):
    sub.add_argument("--json", action="store_true", help="machine readable output")
    sub.add_argument("--timing", action="store_true",
                     help="append wall time (excluded by default so reports "
                          "are byte identical)")
    if workers:
        sub.add_argument("--workers", type=int, default=1, metavar="N",
                         help="parallel sweep processes")
    if force:
        sub.add_argument("--force", action="store_true",
                         help="bypass the assignment space guard")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colat",
        description="decision procedures for lattices of order-convex "
                    "subsets of chains",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("co", help="convex-set lattice of a poset (or an "
                                   "integer for a chain)")
    s.add_argument("input", help="poset JSON path, '-', or a chain length")
    s.set_defaults(func=_cmd_co)

    s = subs.add_parser("catalog", help="emit a catalog lattice")
    s.add_argument("family", choices=["co", "lmn"])
    s.add_argument("params", type=int, nargs="+")
    s.set_defaults(func=_cmd_catalog)

    s = subs.add_parser("check", help="exhaustively check an identity")
    s.add_argument("lattice", help="lattice JSON path or '-'")
    s.add_argument("--identity", required=True,
                   help=f"builtin ({', '.join(builtin_names())}) or JSON path")
    _add_common(s, workers=True, force=True)
    s.set_defaults(func=_cmd_check)

    s = subs.add_parser("check-sigma",
                        help="check the join-irreducible interpretation")
    s.add_argument("lattice")
    s.add_argument("--which", required=True, choices=["E", "P", "HS"])
    _add_common(s)
    s.set_defaults(func=_cmd_check_sigma)

    s = subs.add_parser("member", help="decide membership, with certificate")
    s.add_argument("lattice")
    s.add_argument("--variety", default="sub-lo", metavar="sub-lo|sub-N")
    _add_common(s, workers=True)
    s.set_defaults(func=_cmd_member)

    s = subs.add_parser("embed", help="search for a lattice embedding")
    s.add_argument("source")
    s.add_argument("target")
    _add_common(s)
    s.set_defaults(func=_cmd_embed)

    s = subs.add_parser("verify-cert", help="verify an embedding certificate")
    s.add_argument("lattice")
    s.add_argument("certificate")
    _add_common(s)
    s.set_defaults(func=_cmd_verify_cert)

    s = subs.add_parser("classify", help="match against the catalog of "
                                         "subdirectly irreducible members")
    s.add_argument("lattice")
    _add_common(s)
    s.set_defaults(func=_cmd_classify)

    s = subs.add_parser("tracks", help="enumerate weak bi-tracks of an index")
    s.add_argument("lattice")
    s.add_argument("--index", type=int, nargs=2, required=True,
                   metavar=("M", "N"))
    s.add_argument("--limit", type=int, default=0,
                   help="stop after this many (0 = all)")
    _add_common(s)
    s.set_defaults(func=_cmd_tracks)

    s = subs.add_parser("retract", help="section of a surjection onto a "
                                        "catalog lattice")
    s.add_argument("lattice", help="the lattice being retracted")
    s.add_argument("--pi", required=True,
                   help="JSON with 'values': images of every element")
    s.add_argument("--target", required=True, help="co:N or lmn:M,N")
    _add_common(s)
    s.set_defaults(func=_cmd_retract)

    s = subs.add_parser("find-pq", help="search the order completions for "
                                        "separating pairs")
    s.add_argument("--limit", type=int, default=1,
                   help="witnesses to collect (0 = sweep all completions)")
    _add_common(s, workers=True)
    s.set_defaults(func=_cmd_find_pq)

    s = subs.add_parser("verify-separation",
                        help="check (*) on Co(P) and Co(Q)")
    s.add_argument("p")
    s.add_argument("q")
    _add_common(s, workers=True, force=True)
    s.set_defaults(func=_cmd_verify_separation)

    s = subs.add_parser("invariants", help="join-dependency invariant suite")
    s.add_argument("lattice")
    _add_common(s)
    s.set_defaults(func=_cmd_invariants)

    s = subs.add_parser("dot", help="Hasse diagram as DOT text")
    s.add_argument("input", help="poset or lattice JSON path or '-'")
    s.set_defaults(func=_cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    ns.started = time.time()
    try:
        return ns.func(ns)
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, PosetError, TermError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
