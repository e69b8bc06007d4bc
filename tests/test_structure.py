"""Source-level guards that keep each merged idiom in one place."""

import ast
import pathlib
import re

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "colat").glob("*.py"))


def test_bit_loop_only_in_bits():
    # every join and meet table is read off keyed up- and down-sets, so
    # bits() in lattice.py holds the only bit loop
    counts = {p.name: p.read_text().count("bit_length() - 1") for p in SOURCES}
    assert sum(counts.values()) == 1, counts
    assert counts["lattice.py"] == 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_worker_pool_only_in_pool_module(path):
    # multiprocessing lives in pool.py alone, and no module keeps global
    # state: the workers receive fn and shared through the fork
    text = path.read_text()
    in_pool = path.name == "pool.py"
    assert ("import multiprocessing" in text or "from multiprocessing" in text) == in_pool
    assert not any(isinstance(n, ast.Global) for n in ast.walk(ast.parse(text)))


def test_one_backtracker_in_lattice():
    # _order_embeddings holds the only backtracking extend of lattice.py
    text = (SOURCES[0].parent / "lattice.py").read_text()
    assert text.count("def extend") == 1


def test_one_backtracker_in_membership():
    # _permutation_chain holds the only backtracking extend of membership.py;
    # the oracle reads embedding_search
    text = (SOURCES[0].parent / "membership.py").read_text()
    assert text.count("def extend") == 1


@pytest.mark.parametrize("name", ["_derived_hom", "_config_source", "_resolve_target",
                                  "_bipartition_chain", "_block_sort", "_intervals_of",
                                  "_intervals_are_hom", "_chain_is_valid", "by_least",
                                  "_split_pairs", '"plain"', '"split"',
                                  "structural_predicates", "StructuralFlags",
                                  "_meet_pairs", "_covered", "variety_position",
                                  "VarietyPosition", "_separating_hom", "_co_chain",
                                  "_extreme_of", "label_of", "def blocks", "is_zero",
                                  "is_all", "def component", "least[up",
                                  "canonical_bitrack", "track_embedding", "load_pq_fixture",
                                  "witness_from_json", "pq_witness"])
def test_merged_map_builders_gone(name):
    # replaced by _ji_extension and catalog._catalog_target; the chain
    # search's bipartition guess and leaf re-check by its exact prunes,
    # the interval traces by position masks, and min_covers' cross-cover
    # filter by the lower-cover test; Lambda configurations name their
    # catalog lattice by its _catalog_target tag, and the structural flags
    # are checks of identities; the Lambda relations are read off the
    # generator masks, and the variety position was a wrapper of
    # decide_sub_n and embedding_search; the oracle's homomorphism search
    # into Co(|J(L)|) by embedding_search from the SI quotients; the table
    # builders' extreme search by _keyed, and the test-only label_of,
    # blocks, is_zero and is_all by labels[i] and block_of; the verifier's
    # injectivity test (component) and the enumerator's join test
    # (least[up...]) are decided by the checks beside them; only tests read
    # the canonical bi-track, its embedding and the shipped (P, Q) fixture,
    # which they now write from labels, embedding_search and search_pq
    assert not [p.name for p in SOURCES if name in p.read_text()]


@pytest.mark.parametrize("message", ["self-verification", "disagrees with convex hull",
                                     "disagrees with intersection", "no stable tuple",
                                     "section verification failed", "failed validation"])
def test_proved_rechecks_gone(message):
    # decide_sub_lo's certificate, co_lattice's tables, and retract_section's
    # loop bound and section are correct by their construction; each
    # docstring states the proof and the tests check it
    assert not [p.name for p in SOURCES if message in p.read_text()]


def test_no_term_walk_recurses():
    # every walk over a term loops over _flatten's list or an explicit stack,
    # so depth costs no recursion
    tree = ast.parse((SOURCES[0].parent / "terms.py").read_text())
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    recursive = set()
    for f in ast.walk(tree):
        if isinstance(f, ast.FunctionDef):
            # a method calls itself as self.name, a function by its bare name
            own = "self." + f.name if id(f) in methods else f.name
            if any(isinstance(call, ast.Call) and ast.unparse(call.func) == own
                   for call in ast.walk(f)):
                recursive.add(f.name)
    assert recursive == set()


def test_lambda_conditions_name_no_family():
    # every Lambda relation comes from catalog._generators, so project.py
    # never branches on a catalog tag
    text = (SOURCES[0].parent / "project.py").read_text()
    assert not re.search(r'== "(lmn|co_chain)"', text)


def test_imports_at_module_level_and_acyclic():
    # a function body imports only numpy in terms.py, for the sweep, and
    # multiprocessing in pool.py, for a worker pool, and neither is imported
    # anywhere else, so "import colat" loads neither; the graph of the
    # package's "from .x import" lines is the whole import graph of the
    # package, and it has no cycle
    deferred = {"terms.py": ["numpy"], "pool.py": ["multiprocessing"]}
    graph = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        inner = set()
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for n in ast.walk(f):
                    if isinstance(n, (ast.Import, ast.ImportFrom)):
                        assert isinstance(n, ast.Import), (path.name, f.name)
                        assert [a.name for a in n.names] == deferred.get(path.name), \
                            (path.name, f.name)
                        inner.add(n)
        outer = [n for n in ast.walk(tree) if isinstance(n, ast.Import) and n not in inner
                 and {a.name for a in n.names} & {"numpy", "multiprocessing"}]
        assert not outer, path.name
        graph[path.stem] = {n.module for n in tree.body
                            if isinstance(n, ast.ImportFrom) and n.level == 1}
    done: set = set()
    while len(done) < len(graph):
        ready = {m for m, deps in graph.items() if m not in done and deps <= done}
        assert ready, {m: deps - done for m, deps in graph.items() if m not in done}
        done |= ready

def test_oracles_use_no_private_lattice_names():
    # the reference implementations must not run on the code they check
    oracles = pathlib.Path(__file__).with_name("oracles.py").read_text()
    imports = re.findall(r"from colat\.lattice import ([^\n]+)", oracles)
    names = [n.strip() for line in imports for n in line.split(",")]
    assert names and not [n for n in names if n.startswith("_")]


def test_one_sweep_kernel_in_terms():
    # one scan, no switch between kernels, and the reference sweep
    # naive_check beside the tests, not in the package
    text = (SOURCES[0].parent / "terms.py").read_text()
    assert text.count("def scan") == 1
    assert not re.search(r"\bos\.|environ|getenv|import os\b", text)
    tree = ast.parse(text)
    checks = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and "check" in node.name}
    assert checks == {"check", "check_sigma"}
    tests = sorted(pathlib.Path(__file__).parent.glob("*.py"))
    refs = [p.name for p in SOURCES + tests
            if re.search(r"^def naive_check\b", p.read_text(), re.M)]
    assert refs == ["oracles.py"]


def test_identity_checks_take_no_one_sided_option():
    # a check is a function of the lattice and the identity alone; an
    # inclusion is an identity with relation "leq"
    assert not [p.name for p in SOURCES if "one_sided" in p.read_text()]


def test_readme_python_blocks_run(monkeypatch):
    root = SOURCES[0].parents[2]
    text = (root / "README.md").read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    monkeypatch.syspath_prepend(str(root / "src"))
    for block in blocks:
        # padded so that a traceback names the README's own line
        padding = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(padding + block[1], "README.md", "exec"), {})


def test_cli_reports_take_one_path():
    # every _cmd_* returns (code, payload, lines); main alone stamps the
    # report keys and prints
    text = (SOURCES[0].parent / "cli.py").read_text()
    tree = ast.parse(text)
    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys += [k.value for k in node.keys if isinstance(k, ast.Constant)]
        elif isinstance(node, ast.Assign):
            keys += [t.slice.value for t in node.targets
                     if isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Constant)]
    assert [keys.count(k) for k in ("command", "inputs", "seconds")] == [1, 1, 1]
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert text.count("print(") == ast.get_source_segment(text, functions["main"]).count("print(")
    commands = [f for name, f in functions.items() if name.startswith("_cmd_")]
    assert len(commands) == 14
    for f in commands:
        returns = [n.value for n in ast.walk(f) if isinstance(n, ast.Return)]
        assert returns and all(isinstance(r, ast.Tuple) and len(r.elts) == 3
                               for r in returns), f.name
