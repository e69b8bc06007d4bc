"""One ordered worker pool for the first-hit searches.

The identity sweep and the membership decision both map a function over
a list of items and stop at the first interesting result in item order.
Results arrive in item order whatever the worker count, so the first hit
is the same one a serial run finds.
"""

from __future__ import annotations

import itertools
import os


def _serve(conn, fn, shared) -> None:
    """Worker loop: answer each item from conn, in order, until it closes."""
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        try:
            conn.send((True, fn(shared, item)))
        except Exception as exc:
            conn.send((False, exc))


def ordered_map(fn, shared, items, workers: int):
    """Yield fn(shared, item) for each item, in item order.

    workers is capped at os.cpu_count() (1 when unknown): results come in
    item order at any count, so more workers would only add processes.
    With workers <= 1 after the cap the calls run here, one by one, and
    multiprocessing is not imported.  Otherwise that many forked workers
    run them; fn and shared reach the workers through the fork rather than
    by pickling.  Item i goes to worker i % workers over its own pipe, at
    most two items per worker ahead of the result awaited.  Closing the
    generator early, as a caller that stops at its first hit does,
    terminates the workers.  No lock or queue is shared, so a worker
    terminated mid-send cannot leave one held, as it can under
    multiprocessing.Pool.terminate.
    """
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        for item in items:
            yield fn(shared, item)
        return
    import multiprocessing
    ctx = multiprocessing.get_context("fork")
    pipes, procs = [], []
    try:
        for _ in range(workers):
            here, there = ctx.Pipe()
            procs.append(ctx.Process(target=_serve, args=(there, fn, shared), daemon=True))
            procs[-1].start()
            there.close()
            pipes.append(here)
        items, sent = iter(items), 0
        for done in itertools.count():
            for item in itertools.islice(items, done + 2 * workers - sent):
                pipes[sent % workers].send(item)
                sent += 1
            if done == sent:
                return
            ok, got = pipes[done % workers].recv()
            if not ok:
                raise got
            yield got
    finally:
        for here, proc in zip(pipes, procs):
            here.close()
            proc.terminate()
            proc.join()
