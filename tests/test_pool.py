"""The ordered worker pool: item order at any worker count, early close."""

import multiprocessing
import os
import time
from contextlib import closing

import pytest

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


def _slow_after_first(offset, x):
    if x:
        time.sleep(60)
    return offset + x


def test_closing_early_terminates_busy_workers():
    # the second worker is still busy when the caller stops
    start = time.monotonic()
    with closing(ordered_map(_slow_after_first, 0, range(4), 2)) as results:
        assert next(results) == 0
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def _fails_on_three(offset, x):
    if x == 3:
        raise ValueError(x)
    return offset + x


def test_worker_error_reaches_the_caller():
    results = ordered_map(_fails_on_three, 0, range(6), 2)
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ValueError):
        next(results)
    assert multiprocessing.active_children() == []


def test_repeated_early_close_never_hangs():
    # a pool whose workers share one result queue can hang here, rarely:
    # terminating a worker mid-send leaves the queue's lock held
    for _ in range(200):
        with closing(ordered_map(_shifted_square, 0, range(100), 2)) as results:
            assert next(results) == 0
    assert multiprocessing.active_children() == []


def _pid(shared, x):
    return os.getpid()


def test_workers_are_capped_at_the_cpu_count():
    pids = set(ordered_map(_pid, None, range(32), 8))
    assert len(pids) <= multiprocessing.cpu_count()
    assert multiprocessing.active_children() == []
