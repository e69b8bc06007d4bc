"""Source-level guards that keep each merged idiom in one place."""

import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "colat").glob("*.py"))


def test_bit_loop_only_in_bits_and_hot_loops():
    # bits() in lattice.py, plus the inline copies kept in _extreme_of,
    # the down-closure test of _lattice_extensions and _canonical_key
    counts = {p.name: p.read_text().count("bit_length() - 1") for p in SOURCES}
    assert sum(counts.values()) == 4, counts
    assert counts["lattice.py"] == 4


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_worker_pool_only_in_pool_module(path):
    # multiprocessing and the worker-side global state live in pool.py alone
    text = path.read_text()
    in_pool = path.name == "pool.py"
    assert ("import multiprocessing" in text or "from multiprocessing" in text) == in_pool
    assert ("global " in text) == in_pool
