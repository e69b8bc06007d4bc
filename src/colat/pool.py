"""One ordered worker pool for the first-hit searches.

The identity sweep and the membership decision both map a function over
a list of items and stop at the first interesting result in item order.
Results arrive in item order whatever the worker count, so the first hit
is the same one a serial run finds.
"""

from __future__ import annotations

import multiprocessing

_SHARED = None


def _init(fn, shared) -> None:
    global _SHARED
    _SHARED = (fn, shared)


def _call(item):
    fn, shared = _SHARED
    return fn(shared, item)


def ordered_map(fn, shared, items, workers: int):
    """Yield fn(shared, item) for each item, in item order.

    With workers <= 1 the calls run here, one by one.  Otherwise a fork
    pool of that many processes runs them; fn and shared reach the
    workers through the fork rather than by pickling, and only items and
    results cross the pipe.  Closing the generator early, as a caller
    that stops at its first hit does, terminates the pool.
    """
    if workers <= 1:
        for item in items:
            yield fn(shared, item)
        return
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers, initializer=_init, initargs=(fn, shared)) as pool:
        yield from pool.imap(_call, items, chunksize=1)
