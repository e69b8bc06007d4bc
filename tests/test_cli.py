"""End-to-end tests of the command line interface."""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from colat import cli, terms
from colat.lattice import lattice_from_json
from colat.star import SeparationReport, search_pq
from colat.terms import CheckResult
from colat.poset import poset_to_json


def source_env():
    """The environment of a fresh interpreter that imports colat from src."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def nested_identity(levels):
    """x v y v ... v y = x ^ y ^ ... ^ y, with the given number of joins and meets."""
    lhs = rhs = "x"
    for _ in range(levels):
        lhs, rhs = f"(v {lhs} y)", f"(^ {rhs} y)"
    return {"vars": ["x", "y"], "relation": "eq", "lhs": lhs, "rhs": rhs}


@pytest.fixture
def pent(tmp_path, capsys):
    rc, out, _ = run(capsys, "catalog", "lmn", "1", "1")
    assert rc == 0
    path = tmp_path / "pent.json"
    path.write_text(out)
    return str(path)


@pytest.fixture
def m3(tmp_path):
    data = {
        "size": 5,
        "leq_pairs": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 4], [2, 4], [3, 4]],
        "labels": ["0", "a", "b", "c", "1"],
    }
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def co3(tmp_path, capsys):
    rc, out, _ = run(capsys, "co", "3")
    assert rc == 0
    path = tmp_path / "co3.json"
    path.write_text(out)
    return str(path)


class TestCoAndCatalog:
    def test_co_chain_size(self, capsys):
        rc, out, _ = run(capsys, "co", "3")
        assert rc == 0
        assert json.loads(out)["size"] == 7

    def test_co_poset_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(
            {"elements": ["x", "y"], "covers": [["x", "y"]]}))
        rc, out, _ = run(capsys, "co", str(path))
        assert rc == 0
        assert json.loads(out)["size"] == 4

    def test_co_poset_beyond_bound(self, tmp_path, capsys):
        # a 9-element antichain has 512 convex sets, over the 256 bound
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"elements": list("abcdefghi"), "covers": []}))
        rc, out, err = run(capsys, "co", str(path))
        assert (rc, out) == (2, "")
        assert err == "error: Co(P) has 512 elements; limited to 256\n"

    def test_co_stdin(self, capsys, monkeypatch):
        payload = json.dumps({"elements": ["x"], "covers": []})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        rc, out, _ = run(capsys, "co", "-")
        assert rc == 0
        assert json.loads(out)["size"] == 2

    def test_catalog_param_count(self, capsys):
        rc, _, err = run(capsys, "catalog", "co", "1", "2")
        assert rc == 2
        assert "one parameter" in err

    def test_catalog_lmn_param_count(self, capsys):
        rc, out, err = run(capsys, "catalog", "lmn", "1")
        assert (rc, out, err) == (2, "", "error: catalog lmn takes two parameters\n")

    def test_catalog_pipe_to_classify(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, "catalog", "lmn", "1", "2")
        assert rc == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        rc, out, _ = run(capsys, "classify", "-")
        assert rc == 0
        assert out.strip() == "Lmn(1,2)"


    def test_chain_bound_checked_first(self):
        # the bound is checked before the chain is built, which alone takes
        # minutes at this length
        proc = subprocess.run([sys.executable, "-m", "colat.cli", "co", "100000"],
                              capture_output=True, text=True, timeout=5, env=source_env())
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: convex-set enumeration limited to 16 elements\n"

    @pytest.mark.parametrize("command", ["co", "verify-separation"])
    def test_poset_bound_checked_first(self, tmp_path, capsys, monkeypatch, command):
        # the element count is refused before the order is closed, which
        # takes minutes for a chain of a few thousand elements
        def closed(*args):
            raise AssertionError("the order was closed")

        monkeypatch.setattr("colat.poset._transitive_close", closed)
        path = tmp_path / "chain.json"
        labels = [str(i) for i in range(17)]
        path.write_text(json.dumps({"elements": labels, "covers": list(zip(labels, labels[1:]))}))
        rc, out, err = run(capsys, command, *[str(path)] * (1 if command == "co" else 2))
        assert (rc, out, err) == (2, "", "error: convex-set enumeration limited to 16 elements\n")

    def test_only_a_sweep_loads_numpy(self, tmp_path):
        # numpy loads at the first sweep and multiprocessing with a worker
        # pool, so import and the commands that run neither load them;
        # check sweeps Co(4), which shows the probe can see numpy
        script = f"""
import contextlib, io, sys
import colat
from colat import cli

def loaded():
    print(",".join(m for m in ("numpy", "multiprocessing") if m in sys.modules))

def step(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(list(argv)) == 0
    loaded()
    return out.getvalue()

loaded()
with open({str(tmp_path / "co4.json")!r}, "w") as f:
    f.write(step("co", "4"))
step("member", f.name)
step("check", "--identity", "E", f.name)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=30, env=source_env())
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == ["", "", "", "numpy"]

    @pytest.mark.parametrize("argv", [["catalog", "lmn", "9", "9"],
                                      ["catalog", "co", "4000"]])
    def test_catalog_bound(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert "limited to 16 elements" in err

    def test_poset_elements_must_be_a_list(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"elements": "ab", "covers": []}))
        rc, out, err = run(capsys, "co", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: bad poset JSON")

    @pytest.mark.parametrize("argv", [["co", "3"], ["catalog", "co", "3"]])
    def test_json_flag_not_accepted(self, capsys, argv):
        # these commands print lattice JSON already and take no report flags
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--json"])
        assert exc.value.code == 2


class TestCheck:
    def test_holds(self, co3, capsys):
        rc, out, _ = run(capsys, "check", "--identity", "E", co3)
        assert rc == 0
        assert "E: holds" in out

    def test_fails_with_witness(self, m3, capsys):
        rc, out, _ = run(capsys, "check", "--identity", "HS", m3)
        assert rc == 1
        assert "HS: fails at" in out

    def test_identity_from_file(self, co3, tmp_path, capsys):
        from colat.terms import builtin, identity_to_json
        path = tmp_path / "ident.json"
        path.write_text(json.dumps(identity_to_json(builtin("P"))))
        rc, out, _ = run(capsys, "check", "--identity", str(path), co3)
        assert rc == 0

    def test_unknown_identity(self, co3, capsys):
        rc, _, err = run(capsys, "check", "--identity", "nope.json", co3)
        assert rc == 2

    @pytest.mark.parametrize("stem", ["S", "U", "B", "Ht_n", "Ht_mn"])
    def test_placeholder_files_rejected(self, co3, capsys, stem):
        import pathlib
        path = pathlib.Path(__file__).resolve().parents[1] / "identities"
        rc, _, err = run(capsys, "check", "--identity",
                         str(path / f"{stem}.json"), co3)
        assert rc == 2
        assert "placeholder" in err

    @pytest.mark.parametrize("data,message", [
        (["x"], "must be an object"),
        ({"name": "X", "relation": "eq", "lhs": "x", "rhs": "x"}, "'vars'"),
        ({"name": "X", "vars": "x", "relation": "eq", "lhs": "x", "rhs": "x"},
         "'vars'"),
        ({"name": "X", "vars": [1], "relation": "eq", "lhs": "x", "rhs": "x"},
         "'vars'"),
        ({"name": "X", "vars": ["x"], "lhs": "x", "rhs": "x"}, "'relation'"),
        ({"name": "X", "vars": ["x"], "relation": "eq", "lhs": 5, "rhs": "x"},
         "term strings"),
        ({"name": ["n"], "vars": ["x"], "relation": "eq", "lhs": "x", "rhs": "x"},
         "'name'"),
    ])
    def test_malformed_identity_file(self, co3, tmp_path, capsys, data, message):
        path = tmp_path / "ident.json"
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "check", "--identity", str(path), co3)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err

    def test_deeply_nested_identity(self, co3, tmp_path, capsys):
        # no term walk recurses, so 2,000 levels on each side, past the
        # recursion limit, are parsed and checked: x v y = x ^ y fails at
        # x = {}, y = {0}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(nested_identity(2000)))
        rc, out, err = run(capsys, "check", co3, "--identity", str(path))
        assert (rc, out, err) == (1, ": fails at x={} y={0}\n", "")

    def test_deeply_nested_json(self, co3, tmp_path, capsys):
        # JSON nested past the recursion limit of its decoder is an input
        # error, not a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        rc, out, err = run(capsys, "check", co3, "--identity", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "recursion" in err and "Traceback" not in err

    def test_nested_identity_fails_with_witness(self, co3, tmp_path, capsys):
        # Whitman's algorithm walks an explicit stack, so 200 levels are
        # checked; x v y = x ^ y fails at x = {}, y = {0}
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(nested_identity(200)))
        rc, out, err = run(capsys, "check", co3, "--identity", str(path))
        assert (rc, err) == (1, "")
        assert out.count("\n") == 1 and "fails at" in out

    def test_guard_refuses_large_sweep(self, tmp_path, capsys, monkeypatch):
        # the guard applies once the demand search gives up, made to here
        monkeypatch.setattr(terms._Demand, "refutes", lambda *args: None)
        rc, out, _ = run(capsys, "co", "10")
        big = tmp_path / "co10.json"
        big.write_text(out)
        rc, _, err = run(capsys, "check", "--identity", "STAR", str(big))
        assert rc == 2
        assert "force" in err

    def test_search_settles_large_check(self, tmp_path, capsys):
        # 56^6 assignments, beyond the guard, but the demand search
        # proves (*) without sweeping, so no --force is needed
        rc, out, _ = run(capsys, "co", "10")
        big = tmp_path / "co10.json"
        big.write_text(out)
        rc, out, err = run(capsys, "check", "--identity", "STAR", str(big))
        assert (rc, out, err) == (0, f"STAR: holds ({56 ** 6} assignments)\n", "")

    def test_workers_byte_identical(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "co", "6")
        path = tmp_path / "co6.json"
        path.write_text(out)
        outs = []
        for w in ("1", "2"):
            rc, out, _ = run(capsys, "check", "--identity", "E", str(path),
                             "--json", "--workers", w)
            assert rc == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_json_has_digests(self, co3, capsys):
        rc, out, _ = run(capsys, "check", "--identity", "E", co3, "--json")
        payload = json.loads(out)
        assert payload["holds"] is True
        assert co3 in payload["inputs"]
        assert len(payload["inputs"][co3]) == 64

    def test_json_digests_identity_file(self, co3, tmp_path, capsys):
        from colat.terms import builtin, identity_to_json
        path = tmp_path / "ident.json"
        path.write_text(json.dumps(identity_to_json(builtin("P"))))
        rc, out, _ = run(capsys, "check", "--identity", str(path), co3, "--json")
        assert rc == 0
        inputs = json.loads(out)["inputs"]
        assert sorted(inputs) == sorted([co3, str(path)])
        assert inputs[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_timing_flag(self, co3, capsys):
        rc, out, _ = run(capsys, "check", "--identity", "E", co3, "--timing")
        assert "seconds:" in out


class TestCheckSigma:
    def test_holds(self, pent, capsys):
        rc, out, _ = run(capsys, "check-sigma", "--which", "E", pent)
        assert rc == 0

    def test_fails(self, m3, capsys):
        rc, out, _ = run(capsys, "check-sigma", "--which", "HS", m3)
        assert rc == 1
        assert "fails at" in out


class TestMember:
    def test_accept_with_certificate(self, pent, capsys):
        rc, out, _ = run(capsys, "member", pent, "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["accepted"] is True
        # one block per join irreducible of the pentagon
        assert len(payload["certificate"]) == 3

    def test_reject(self, m3, capsys):
        rc, out, _ = run(capsys, "member", m3)
        assert rc == 1
        assert "rejected" in out

    def test_reject_lists_failing_sigma_conditions(self, m3, capsys):
        rc, out, _ = run(capsys, "member", m3, "--json")
        assert rc == 1
        listed = json.loads(out)["diagnostics"]
        assert "HS_sigma" in {d["name"] for d in listed}
        L = lattice_from_json(json.loads(pathlib.Path(m3).read_text()))
        assert all(not terms.check_sigma(L, d["name"].split("_")[0]).holds for d in listed)

    def test_sub_n(self, pent, capsys):
        rc, out, _ = run(capsys, "member", pent, "--variety", "sub-2")
        assert rc == 1
        rc, out, _ = run(capsys, "member", pent, "--variety", "sub-3")
        assert rc == 0

    def test_bad_variety(self, pent, capsys):
        rc, _, err = run(capsys, "member", pent, "--variety", "sub-lattices")
        assert rc == 2


class TestEmbedAndCert:
    def test_embed_found(self, co3, tmp_path, capsys):
        rc, out, _ = run(capsys, "co", "2")
        small = tmp_path / "co2.json"
        small.write_text(out)
        rc, out, _ = run(capsys, "embed", str(small), co3)
        assert rc == 0
        assert "embedding found" in out

    def test_embed_json_names_the_source(self, co3, tmp_path, capsys):
        rc, out, _ = run(capsys, "co", "2")
        small = tmp_path / "co2.json"
        small.write_text(out)
        rc, out, _ = run(capsys, "embed", str(small), co3, "--json")
        payload = json.loads(out)
        assert payload["source"] == ["{}", "{0}", "{1}", "{0,1}"]
        assert len(payload["values"]) == 4

    def test_embed_missing(self, co3, tmp_path, capsys):
        rc, out, _ = run(capsys, "co", "2")
        small = tmp_path / "co2.json"
        small.write_text(out)
        rc, out, _ = run(capsys, "embed", co3, str(small))
        assert rc == 1
        assert "no embedding" in out

    def test_verify_cert_round_trip(self, pent, tmp_path, capsys):
        rc, out, _ = run(capsys, "member", pent, "--json")
        cert = json.loads(out)["certificate"]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        rc, out, _ = run(capsys, "verify-cert", pent, str(path))
        assert rc == 0

    def test_verify_cert_tampered(self, pent, tmp_path, capsys):
        rc, out, _ = run(capsys, "member", pent, "--json")
        cert = json.loads(out)["certificate"]
        victim = cert[0]["map"]
        key = sorted(victim)[0]
        victim[key] = [0] if victim[key] != [0] else [1]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        rc, out, _ = run(capsys, "verify-cert", pent, str(path))
        assert rc == 1
        assert "INVALID" in out

    def test_verify_cert_malformed(self, pent, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps([{"anchor": "a"}]))
        rc, _, err = run(capsys, "verify-cert", pent, str(path))
        assert rc == 2

    @pytest.mark.parametrize("data", [
        [{"anchor": "{0}", "chain": ["{0}"], "map": []}],
        [{"anchor": "{0}", "chain": ["{0}"], "map": {"{0}": 5}}],
        [5],
        {"a": 1},
    ])
    def test_verify_cert_bad_shape(self, co3, tmp_path, capsys, data):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "verify-cert", co3, str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: malformed certificate: ") and err.count("\n") == 1


class TestClassify:
    def test_not_si(self, tmp_path, capsys):
        rc, out, _ = run(capsys, "co", "2")
        path = tmp_path / "co2.json"
        path.write_text(out)
        rc, out, _ = run(capsys, "classify", str(path))
        assert rc == 0
        assert out.strip() == "not-si"

    def test_not_member(self, m3, capsys):
        rc, out, _ = run(capsys, "classify", m3)
        assert rc == 1
        assert out.strip() == "not-member"

    @pytest.mark.parametrize("data", [
        {"size": 3, "leq_pairs": [1, 2]},
        {"size": 2, "leq_pairs": [[0, 1]], "labels": ["a", "a"]},
    ])
    def test_malformed_lattice(self, tmp_path, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "classify", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["dot", "bad.json"],
        ["embed", "bad.json", "ok.json"],
        ["embed", "ok.json", "bad.json"],
        ["check", "bad.json", "--identity", "E"],
        ["member", "bad.json", "--json"],
        ["retract", "bad.json", "--pi", "pi.json", "--target", "co:2"],
    ])
    def test_non_lattice_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        # JSON that parses but is no lattice is an input error, not a rejection
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text(json.dumps(
            {"size": 3, "leq_pairs": [[0, 1], [0, 2]]}))
        (tmp_path / "ok.json").write_text(json.dumps({"size": 1, "leq_pairs": []}))
        (tmp_path / "pi.json").write_text(json.dumps({"values": [0, 1, 2]}))
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == "error: elements 1,2 have no upper bound\n"


class TestTracks:
    def test_pentagon_index11(self, pent, capsys):
        rc, out, _ = run(capsys, "tracks", pent, "--index", "1", "1")
        assert rc == 0
        assert "count: 2" in out

    def test_limit(self, pent, capsys):
        rc, out, _ = run(capsys, "tracks", pent, "--index", "1", "1",
                         "--limit", "1")
        assert rc == 0
        assert "count: 1" in out

    def test_negative_limit(self, pent, capsys):
        # a negative limit is an input error, not "stop after one"
        with pytest.raises(SystemExit) as exc:
            cli.main(["tracks", pent, "--index", "1", "1", "--limit", "-1"])
        assert exc.value.code == 2
        assert "--limit: must be at least 0" in capsys.readouterr().err


class TestRetract:
    @pytest.fixture
    def product(self, tmp_path, capsys):
        from colat.catalog import co_chain
        from colat.lattice import direct_product, lattice_to_json
        L = direct_product(co_chain(3), co_chain(2))
        lat = tmp_path / "prod.json"
        lat.write_text(json.dumps(lattice_to_json(L)))
        pi = tmp_path / "pi.json"
        pi.write_text(json.dumps({"values": [i // 4 for i in range(L.n)]}))
        return str(lat), str(pi)

    def test_section(self, product, capsys):
        lat, pi = product
        rc, out, _ = run(capsys, "retract", lat, "--pi", pi,
                         "--target", "co:3")
        assert rc == 0
        assert "pi o phi = identity" in out

    def test_section_json_names_the_source(self, product, capsys):
        lat, pi = product
        rc, out, _ = run(capsys, "retract", lat, "--pi", pi, "--target", "co:3", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["source"] == ["{}", "{0}", "{1}", "{0,1}", "{2}", "{1,2}", "{0,1,2}"]
        assert len(payload["section"]) == 7

    def test_short_values(self, product, tmp_path, capsys):
        lat, _ = product
        pi = tmp_path / "short.json"
        pi.write_text(json.dumps({"values": [0, 1]}))
        rc, _, err = run(capsys, "retract", lat, "--pi", str(pi),
                         "--target", "co:3")
        assert rc == 2

    def test_bool_values(self, product, tmp_path, capsys):
        # true and false are not element indices, though Python counts them as ints
        lat, _ = product
        pi = tmp_path / "bools.json"
        pi.write_text(json.dumps({"values": [i // 4 > 2 for i in range(28)]}))
        rc, out, err = run(capsys, "retract", lat, "--pi", str(pi), "--target", "co:3")
        assert (rc, out) == (2, "")
        assert err == "error: pi JSON needs a 'values' list mapping every element\n"

    def test_pi_not_an_object(self, product, tmp_path, capsys):
        lat, _ = product
        pi = tmp_path / "list.json"
        pi.write_text(json.dumps([0, 1]))
        rc, out, err = run(capsys, "retract", lat, "--pi", str(pi),
                           "--target", "co:3")
        assert rc == 2
        assert out == ""
        assert err == "error: pi JSON needs a 'values' list mapping every element\n"

    def test_not_surjective(self, product, tmp_path, capsys):
        lat, _ = product
        pi = tmp_path / "const.json"
        pi.write_text(json.dumps({"values": [0] * 28}))
        rc, _, err = run(capsys, "retract", lat, "--pi", str(pi),
                         "--target", "co:3")
        assert rc == 1
        assert "surjective" in err

    def test_bad_target(self, product, capsys):
        lat, pi = product
        rc, _, err = run(capsys, "retract", lat, "--pi", pi,
                         "--target", "co-3")
        assert rc == 2


class TestFindPQ:
    def test_emits_witness(self, capsys, monkeypatch):
        fixture = search_pq(limit=1)[0]
        monkeypatch.setattr(cli, "search_pq",
                            lambda limit: [fixture])
        rc, out, _ = run(capsys, "find-pq")
        assert rc == 0
        assert "witnesses: 1" in out
        assert '"elements"' in out

    def test_negative_limit(self, capsys, monkeypatch):
        # a negative limit is an input error, not "sweep every completion"
        monkeypatch.setattr(cli, "search_pq", lambda limit: pytest.fail())
        with pytest.raises(SystemExit) as exc:
            cli.main(["find-pq", "--limit", "-1"])
        assert exc.value.code == 2
        assert "--limit: must be at least 0" in capsys.readouterr().err

    def test_none_found(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "search_pq", lambda limit: [])
        rc, out, _ = run(capsys, "find-pq")
        assert rc == 1


class TestVerifySeparation:
    def test_chains_not_separated(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text(json.dumps(
            {"elements": ["0", "1", "2"],
             "covers": [["0", "1"], ["1", "2"]]}))
        q.write_text(json.dumps(
            {"elements": ["0", "1", "2", "3", "4"],
             "covers": [["0", "1"], ["1", "2"], ["2", "3"], ["3", "4"]]}))
        rc, out, _ = run(capsys, "verify-separation", str(p), str(q))
        assert rc == 1
        assert "separated: no" in out

    def test_not_subposet(self, tmp_path, capsys):
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text(json.dumps({"elements": ["0", "1"], "covers": []}))
        q.write_text(json.dumps(
            {"elements": ["0", "1"], "covers": [["0", "1"]]}))
        rc, _, err = run(capsys, "verify-separation", str(p), str(q))
        assert rc == 2

    def test_separated_report(self, tmp_path, capsys, monkeypatch):
        w = search_pq(limit=1)[0]
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text(json.dumps(poset_to_json(w.P)))
        q.write_text(json.dumps(poset_to_json(w.Q)))
        fake = SeparationReport(
            co_p=CheckResult("STAR", False,
                             dict.fromkeys(
                                 ("x0", "x1", "x2", "x3", "xa", "xb"), 1),
                             31 ** 6),
            co_q=CheckResult("STAR", True, None, 40 ** 6),
            separated=True,
            note="n",
        )
        monkeypatch.setattr(
            cli, "verify_separation",
            lambda P, Q, workers, force: fake)
        rc, out, _ = run(capsys, "verify-separation", str(p), str(q))
        assert rc == 0
        assert "separated: yes" in out
        assert "Co(P): fails (*)" in out


class TestInvariantsAndDot:
    def test_invariants_ok(self, pent, capsys):
        rc, out, _ = run(capsys, "invariants", pent)
        assert rc == 0
        assert out.count(": ok") == 5

    def test_dot_poset(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(
            {"elements": ["0", "1", "2"],
             "covers": [["0", "1"], ["1", "2"]]}))
        rc, out, _ = run(capsys, "dot", str(path))
        assert rc == 0
        assert out.count("->") == 2

    def test_dot_pentagon_lattice(self, pent, capsys):
        rc, out, _ = run(capsys, "dot", pent)
        assert rc == 0
        body = [ln for ln in out.splitlines() if ln.startswith('  "')]
        nodes = [ln for ln in body if "->" not in ln]
        edges = [ln for ln in body if "->" in ln]
        assert len(nodes) == 5
        assert len(edges) == 5

    def test_dot_empty_input(self, tmp_path, capsys):
        path = tmp_path / "e.json"
        path.write_text("")
        rc, _, err = run(capsys, "dot", str(path))
        assert rc == 2

    def test_dot_wrong_shape(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"foo": 1}))
        rc, _, err = run(capsys, "dot", str(path))
        assert rc == 2

    def test_dot_garbage(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text("not json")
        rc, _, err = run(capsys, "dot", str(path))
        assert rc == 2
