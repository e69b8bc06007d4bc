"""The ordered worker pool: item order at any worker count, early close."""

import multiprocessing
from contextlib import closing

from colat.pool import ordered_map


def _shifted_square(offset, x):
    return offset + x * x


def test_ordered_map_keeps_item_order():
    items = list(range(20))
    want = [1 + x * x for x in items]
    assert list(ordered_map(_shifted_square, 1, items, 1)) == want
    assert list(ordered_map(_shifted_square, 1, items, 2)) == want


def test_closing_early_terminates_the_pool():
    with closing(ordered_map(_shifted_square, 0, range(10_000), 2)) as results:
        assert next(results) == 0
    assert multiprocessing.active_children() == []
