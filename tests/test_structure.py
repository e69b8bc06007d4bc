"""Source-level guards that keep each merged idiom in one place."""

import ast
import pathlib
import re

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "colat").glob("*.py"))


def test_bit_loop_only_in_bits_and_hot_loops():
    # bits() in lattice.py, plus the inline copy kept in _extreme_of, the
    # inner loop of every join and meet table
    counts = {p.name: p.read_text().count("bit_length() - 1") for p in SOURCES}
    assert sum(counts.values()) == 2, counts
    assert counts["lattice.py"] == 2


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_worker_pool_only_in_pool_module(path):
    # multiprocessing and the worker-side global state live in pool.py alone
    text = path.read_text()
    in_pool = path.name == "pool.py"
    assert ("import multiprocessing" in text or "from multiprocessing" in text) == in_pool
    assert ("global " in text) == in_pool


def test_one_backtracker_in_lattice():
    # _order_embeddings holds the only backtracking extend of lattice.py
    text = (SOURCES[0].parent / "lattice.py").read_text()
    assert text.count("def extend") == 1


@pytest.mark.parametrize("name", ["_derived_hom", "_config_source", "_resolve_target",
                                  "_bipartition_chain", "_block_sort", "_intervals_of",
                                  "_intervals_are_hom", "_chain_is_valid", "by_least"])
def test_merged_map_builders_gone(name):
    # replaced by _ji_extension and catalog._catalog_target; the chain
    # search's bipartition guess and leaf re-check by its exact prunes,
    # the interval traces by position masks, and min_covers' cross-cover
    # filter by the lower-cover test
    assert not [p.name for p in SOURCES if name in p.read_text()]


def test_oracles_use_no_private_lattice_names():
    # the reference implementations must not run on the code they check
    oracles = pathlib.Path(__file__).with_name("oracles.py").read_text()
    imports = re.findall(r"from colat\.lattice import ([^\n]+)", oracles)
    names = [n.strip() for line in imports for n in line.split(",")]
    assert names and not [n for n in names if n.startswith("_")]


def test_one_sweep_kernel_in_terms():
    # one scan, no switch between kernels, and naive_check the only reference
    text = (SOURCES[0].parent / "terms.py").read_text()
    assert text.count("def scan") == 1
    assert not re.search(r"\bos\.|environ|getenv|import os\b", text)
    tree = ast.parse(text)
    checks = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and "check" in node.name}
    assert checks == {"check", "naive_check", "check_sigma"}
    refs = [p.name for p in SOURCES if "def naive_check" in p.read_text()]
    assert refs == ["terms.py"]


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
