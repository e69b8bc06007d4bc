"""Command line front end.

Every subcommand reads JSON from files or stdin ('-'), prints a
deterministic report, and exits 0 when the property holds or the object
is accepted, 1 when it fails or is rejected (with a witness in the
output), and 2 on usage or input errors.  Worker counts and guards only
affect speed and admission, never verdicts, so reports are byte
identical across runs.

Each _cmd_* reads its inputs through _Inputs, computes once and returns
(exit code, payload, text lines), the lines formatted from the payload's
labelled values.  main alone adds "command", "inputs" and "seconds",
prints the report and maps errors to exit codes: 1 for a LatticeError
from the computation, 2 for any other error, including every input that
does not load.
"""

import argparse
import hashlib
import json
import sys
import time
from itertools import islice

from .catalog import _catalog_target, classify_si, co_chain, l_mn
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
from .poset import Poset, convex_bound, poset_from_json
from .project import retract_section
from .star import search_pq, verify_separation, witness_to_json
from .terms import builtin, builtin_names, check, check_sigma, identity_from_json


def _read_text(path: str) -> tuple[str, str]:
    """Return (text, name) for a path or '-' for stdin."""
    if path == "-":
        return sys.stdin.read(), "stdin"
    with open(path, encoding="utf-8") as fh:
        return fh.read(), path


def _loaded(parse, data):
    """parse(data), raising a plain ValueError on anything that does not load.

    A LatticeError here means input that is no lattice, so main exits 2 on
    it and keeps exit 1 for the LatticeErrors that a computation raises.
    """
    try:
        return parse(data)
    except LatticeError as exc:
        raise ValueError(str(exc)) from None


class _Inputs:
    """Reads the input files and keeps the sha256 of each for the report."""

    def __init__(self):
        self.digests: dict[str, str] = {}

    def json(self, path: str):
        text, name = _read_text(path)
        self.digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if not text.strip():
            raise ValueError(f"empty input from {name}")
        return _loaded(json.loads, text)

    def lattice(self, path: str) -> FinLattice:
        return _loaded(lattice_from_json, self.json(path))

    def poset(self, path: str) -> Poset:
        # Co(P) is built: refuse a large poset before closing its order
        data = self.json(path)
        if isinstance(data, dict) and isinstance(data.get("elements"), list):
            convex_bound(len(data["elements"]))
        return _loaded(poset_from_json, data)

    def identity(self, name: str):
        """A builtin by name, else an identity file, digested like any input."""
        if name in builtin_names():
            return builtin(name)
        return _loaded(identity_from_json, self.json(name))


def _labelled(L: FinLattice, witness) -> dict | None:
    return None if witness is None else {v: L.labels[i] for v, i in witness.items()}


def _format_witness(labelled: dict | None) -> str:
    return " ".join(f"{v}={lab}" for v, lab in (labelled or {}).items())


# -- subcommands: each returns (exit code, payload, text lines) ----------------------
#
# co, catalog and dot return their artifact: lattice JSON as the payload with
# no lines, or DOT text as the one line.


def _cmd_co(ns, inputs):
    if ns.input.isdigit():
        L = co_chain(int(ns.input))
    else:
        L, _ = inputs.poset(ns.input).co_lattice()
    return 0, lattice_to_json(L), None


def _cmd_catalog(ns, inputs):
    if ns.family == "co" and len(ns.params) != 1:
        raise ValueError("catalog co takes one parameter")
    if ns.family == "lmn" and len(ns.params) != 2:
        raise ValueError("catalog lmn takes two parameters")
    L = co_chain(*ns.params) if ns.family == "co" else l_mn(*ns.params)
    return 0, lattice_to_json(L), None


def _cmd_check(ns, inputs):
    L = inputs.lattice(ns.lattice)
    ident = inputs.identity(ns.identity)
    res = check(L, ident, workers=ns.workers, force=ns.force)
    payload = {"identity": ident.name, "holds": res.holds,
               "witness": _labelled(L, res.witness), "assignments": res.assignments}
    if res.holds:
        return 0, payload, [f"{ident.name}: holds ({res.assignments} assignments)"]
    return 1, payload, [f"{ident.name}: fails at {_format_witness(payload['witness'])}"]


def _cmd_check_sigma(ns, inputs):
    L = inputs.lattice(ns.lattice)
    res = check_sigma(L, ns.which)
    payload = {"which": ns.which, "holds": res.holds, "witness": _labelled(L, res.witness)}
    if res.holds:
        return 0, payload, [f"{res.name}: holds"]
    return 1, payload, [f"{res.name}: fails at {_format_witness(payload['witness'])}"]


def _parse_variety(text: str):
    if text == "sub-lo":
        return None
    if text.startswith("sub-") and text[4:].isdigit():
        return int(text[4:])
    raise ValueError(f"unknown variety {text!r}; use sub-lo or sub-N")


def _cmd_member(ns, inputs):
    L = inputs.lattice(ns.lattice)
    bound = _parse_variety(ns.variety)
    if bound is not None:
        ok = decide_sub_n(L, bound, workers=ns.workers)
        verdict = "member of" if ok else "not a member of"
        return int(not ok), {"variety": ns.variety, "accepted": ok}, [f"{verdict} SUB({bound})"]
    res = decide_sub_lo(L, workers=ns.workers)
    payload = {"variety": ns.variety, "accepted": res.accepted}
    if res.accepted:
        payload["certificate"] = cert = certificate_to_json(L, res.certificate)
        total = sum(len(entry["chain"]) for entry in cert)
        return 0, payload, [
            "accepted: embeds into a product of convex-set lattices of chains",
            f"anchors: {len(cert)}  total chain size: {total}",
        ]
    payload["anchor"] = L.labels[res.anchor]
    failing = [r for r in (check_sigma(L, name) for name in ("E", "P", "HS")) if not r.holds]
    payload["diagnostics"] = [{"name": r.name, "witness": _labelled(L, r.witness)}
                              for r in failing]
    lines = [f"rejected: no chain order at anchor {payload['anchor']}"]
    lines.extend(f"  {d['name']} fails at {_format_witness(d['witness'])}"
                 for d in payload["diagnostics"])
    return 1, payload, lines


def _cmd_embed(ns, inputs):
    K = inputs.lattice(ns.source)
    L = inputs.lattice(ns.target)
    emb = embedding_search(K, L)
    if emb is None:
        return 1, {"found": False}, ["no embedding"]
    payload = {"found": True, "source": list(K.labels),
               "values": [L.labels[v] for v in emb.values]}
    lines = ["embedding found"]
    lines.extend(f"  {k} -> {v}" for k, v in zip(payload["source"], payload["values"]))
    return 0, payload, lines


def _cmd_verify_cert(ns, inputs):
    L = inputs.lattice(ns.lattice)
    cert = certificate_from_json(L, inputs.json(ns.certificate))
    ok = verify_certificate(L, cert)
    return int(not ok), {"valid": ok}, ["certificate verifies" if ok else "certificate INVALID"]


def _cmd_classify(ns, inputs):
    cls = classify_si(inputs.lattice(ns.lattice))
    if cls.tag == "co_chain":
        name = f"Co({cls.params[0]})"
    elif cls.tag == "lmn":
        name = f"Lmn({cls.params[0]},{cls.params[1]})"
    else:
        name = cls.tag.replace("_", "-")
    payload = {"tag": cls.tag, "params": list(cls.params), "name": name}
    return int(cls.tag == "not_member"), payload, [name]


def _cmd_tracks(ns, inputs):
    L = inputs.lattice(ns.lattice)
    found = islice(weak_bitracks(L, *ns.index), ns.limit or None)
    bitracks = [{"first": [L.labels[x] for x in t.first.entries],
                 "first_side": L.labels[t.first.side],
                 "second": [L.labels[x] for x in t.second.entries],
                 "second_side": L.labels[t.second.side]} for t in found]
    payload = {"index": ns.index, "count": len(bitracks), "bitracks": bitracks}
    lines = [f"[{','.join(b['first'])}] side={b['first_side']}"
             f" | [{','.join(b['second'])}] side={b['second_side']}" for b in bitracks]
    lines.append(f"count: {len(bitracks)}")
    return 0, payload, lines


def _parse_target(text: str):
    kind, _, rest = text.partition(":")
    if kind == "co" and rest.isdigit():
        return ("co_chain", int(rest))
    if kind == "lmn":
        parts = rest.split(",")
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            return ("lmn", int(parts[0]), int(parts[1]))
    raise ValueError(f"bad target {text!r}; use co:N or lmn:M,N")


def _cmd_retract(ns, inputs):
    Lp = inputs.lattice(ns.lattice)
    target = _parse_target(ns.target)
    T, _ = _catalog_target(target[0], target[1:])
    data = inputs.json(ns.pi)
    values = data.get("values") if isinstance(data, dict) else None
    if (not isinstance(values, list) or len(values) != Lp.n
            or not all(type(v) is int and 0 <= v < T.n for v in values)):
        raise ValueError("pi JSON needs a 'values' list mapping every element")
    phi = retract_section(Lp, LatticeMap(Lp, T, tuple(values)), target)
    payload = {"target": ns.target, "source": list(T.labels),
               "section": [Lp.labels[v] for v in phi.values], "verified": True}
    lines = ["section verified: pi o phi = identity"]
    lines.extend(f"  {t} -> {v}" for t, v in zip(payload["source"], payload["section"]))
    return 0, payload, lines


def _cmd_find_pq(ns, inputs):
    found = [witness_to_json(w) for w in search_pq(limit=ns.limit or None)]
    lines = []
    for k, w in enumerate(found):
        lines.append(f"witness {k}:")
        lines.append("  Q: " + json.dumps(w["Q"], sort_keys=True))
        lines.append("  P: " + json.dumps(w["P"], sort_keys=True))
        lines.append("  Co(Q) satisfies (*); Co(P) fails at "
                     + _format_witness(w["failing_assignment"]))
    lines.append(f"witnesses: {len(found)}")
    return int(not found), {"count": len(found), "witnesses": found}, lines


def _cmd_verify_separation(ns, inputs):
    P = inputs.poset(ns.p)
    Q = inputs.poset(ns.q)
    rep = verify_separation(P, Q, workers=ns.workers, force=ns.force)
    payload = {"separated": rep.separated, "note": rep.note}
    lines = []
    for key, tag, poset, res in (("co_p", "Co(P)", P, rep.co_p), ("co_q", "Co(Q)", Q, rep.co_q)):
        payload[f"{key}_holds"] = res.holds
        payload[f"{key}_witness"] = labelled = _labelled(poset.co_lattice()[0], res.witness)
        lines.append(f"{tag}: satisfies (*)" if res.holds
                     else f"{tag}: fails (*) at {_format_witness(labelled)}")
    lines.append("separated: " + ("yes" if rep.separated else "no"))
    lines.append(rep.note)
    return int(not rep.separated), payload, lines


def _cmd_invariants(ns, inputs):
    L = inputs.lattice(ns.lattice)
    reports = [*check_dependency_invariants(L), interval_value_check(L)]
    payload = {"reports": [
        {"name": r.name, "ok": r.ok,
         "witness": None if r.witness is None else [L.labels[x] for x in r.witness]}
        for r in reports
    ]}
    lines = [f"{r['name']}: ok" if r["ok"] else f"{r['name']}: FAIL at ({','.join(r['witness'])})"
             for r in payload["reports"]]
    return int(not all(r.ok for r in reports)), payload, lines


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
        edges = sorted((i, j) for i in range(L.n) for j in L.upper_covers[i])
    else:
        raise ValueError("input is neither poset nor lattice JSON")
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines.extend(f'  "{_dot_escape(lab)}";' for lab in labels)
    lines.extend(f'  "{_dot_escape(labels[i])}" -> "{_dot_escape(labels[j])}";'
                 for i, j in edges)
    lines.append("}")
    return "\n".join(lines)


def _cmd_dot(ns, inputs):
    return 0, None, [_loaded(export_dot, inputs.json(ns.input))]


# -- parser ------------------------------------------------------------------------


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_common(sub, workers=False, force=False):
    sub.add_argument("--json", action="store_true", help="machine readable output")
    sub.add_argument("--timing", action="store_true",
                     help="append wall time (excluded by default so reports are byte identical)")
    if workers:
        sub.add_argument("--workers", type=int, default=1, metavar="N",
                         help="parallel sweep processes, at most the CPU count")
    if force:
        sub.add_argument("--force", action="store_true",
                         help="bypass the assignment space guard")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colat",
        description="decision procedures for lattices of order-convex subsets of chains")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("co", help="convex-set lattice of a poset (or an integer for a chain)")
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

    s = subs.add_parser("check-sigma", help="check the join-irreducible interpretation, "
                        "a necessary condition for the identity only")
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

    s = subs.add_parser("classify",
                        help="match against the catalog of subdirectly irreducible members")
    s.add_argument("lattice")
    _add_common(s)
    s.set_defaults(func=_cmd_classify)

    s = subs.add_parser("tracks", help="enumerate weak bi-tracks of an index")
    s.add_argument("lattice")
    s.add_argument("--index", type=int, nargs=2, required=True, metavar=("M", "N"))
    s.add_argument("--limit", type=_count, default=0, help="stop after this many (0 = all)")
    _add_common(s)
    s.set_defaults(func=_cmd_tracks)

    s = subs.add_parser("retract", help="section of a surjection onto a catalog lattice")
    s.add_argument("lattice", help="the lattice being retracted")
    s.add_argument("--pi", required=True, help="JSON with 'values': images of every element")
    s.add_argument("--target", required=True, help="co:N or lmn:M,N")
    _add_common(s)
    s.set_defaults(func=_cmd_retract)

    s = subs.add_parser("find-pq", help="search the order completions for separating pairs")
    s.add_argument("--limit", type=_count, default=1,
                   help="witnesses to collect (0 = sweep all completions)")
    _add_common(s)
    s.set_defaults(func=_cmd_find_pq)

    s = subs.add_parser("verify-separation", help="check (*) on Co(P) and Co(Q)")
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
    """Run one subcommand; the only place that stamps, prints and picks exit codes."""
    ns = build_parser().parse_args(argv)
    started = time.time()
    inputs = _Inputs()
    try:
        code, payload, lines = ns.func(ns, inputs)
    except (OSError, ValueError, RecursionError) as exc:
        # a RecursionError comes from JSON nested too deeply for its
        # decoder, so it is an input error too
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, LatticeError) else 2
    if "json" in ns:  # a report; co, catalog and dot print their artifact as is
        payload["command"] = ns.command
        if inputs.digests:
            payload["inputs"] = inputs.digests
        if ns.timing:
            payload["seconds"] = round(time.time() - started, 3)
            lines.append(f"seconds: {payload['seconds']}")
    if lines is None or getattr(ns, "json", False):
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
