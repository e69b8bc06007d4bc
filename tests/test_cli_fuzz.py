"""Fuzz the CLI's I/O contract on every subcommand that reads a file.

Each case feeds one file argument either a random JSON value or a valid
input with one node deleted, replaced, wrapped or nudged.  Whatever the
input, the command exits 0, 1 or 2 without an uncaught exception, and
exit 2 prints nothing on stdout and exactly one `error:` line on stderr.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from colat import cli
from colat.catalog import co_chain, l_mn
from colat.lattice import lattice_to_json
from colat.membership import certificate_to_json, decide_sub_lo
from colat.terms import builtin, identity_to_json

PENT = l_mn(1, 1)
VALID = {
    "pent": lattice_to_json(PENT),
    "co2": lattice_to_json(co_chain(2)),
    "cert": certificate_to_json(PENT, decide_sub_lo(PENT).certificate),
    "pi": {"values": [0, 1, 2, 3]},
    "c2": {"elements": ["0", "1"], "covers": [["0", "1"]]},
    "c3": {"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]},
    "ident": identity_to_json(builtin("E")),
}

# argv with F for the fuzzed file, and the valid input that F mutates
CASES = [
    ("co F", "c3"),
    ("dot F", "pent"),
    ("dot F", "c3"),
    ("check F --identity HS", "pent"),
    ("check co2.json --identity F", "ident"),
    ("check-sigma F --which P", "pent"),
    ("member F", "pent"),
    ("member F --variety sub-2", "pent"),
    ("embed F pent.json", "co2"),
    ("embed co2.json F", "pent"),
    ("verify-cert pent.json F", "cert"),
    ("verify-cert F cert.json", "pent"),
    ("classify F", "pent"),
    ("tracks F --index 1 1", "pent"),
    ("retract F --pi pi.json --target co:2", "co2"),
    ("retract co2.json --pi F --target co:2", "pi"),
    ("verify-separation F c3.json", "c2"),
    ("verify-separation c2.json F", "c3"),
    ("invariants F", "pent"),
]

KEYS = ("size", "leq_pairs", "labels", "elements", "covers", "values", "anchor",
        "chain", "map", "name", "vars", "relation", "lhs", "rhs", "{0}", "0")
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats(-2, 8)
    | st.text("ab01{},(x", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text("ab0", max_size=2), inner, max_size=3),
    max_leaves=8,
)


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate(doc, path, how, new):
    if not path:
        return new
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if how == "delete":
        del parent[path[-1]]
    elif how == "wrap":
        parent[path[-1]] = [old]
    elif how == "nudge" and isinstance(old, int) and not isinstance(old, bool):
        parent[path[-1]] = old + 1
    else:
        parent[path[-1]] = new
    return doc


@st.composite
def documents(draw, valid):
    if draw(st.booleans()):
        return draw(JSON)
    path = draw(st.sampled_from(list(_paths(valid))))
    how = draw(st.sampled_from(["delete", "replace", "wrap", "nudge"]))
    return _mutate(valid, path, how, draw(JSON))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    for name, data in VALID.items():
        (tmp / f"{name}.json").write_text(json.dumps(data))
    return tmp


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    return rc, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize("template,valid", CASES, ids=[c[0] for c in CASES])
def test_contract_on_any_input(workdir, monkeypatch, template, valid):
    monkeypatch.chdir(workdir)
    argv = ["fuzzed.json" if arg == "F" else arg for arg in template.split()]
    forms = [[]] if argv[0] in ("co", "dot") else [[], ["--json"]]

    @settings(max_examples=25, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(documents(VALID[valid]))
    def contract(doc):
        (workdir / "fuzzed.json").write_text(json.dumps(doc))
        for form in forms:
            rc, out, err = _run(argv + form)
            assert rc in (0, 1, 2)
            assert "Traceback" not in err
            if rc == 2:
                assert out == ""
                assert err.startswith("error: ") and err.count("\n") == 1, err

    contract()
