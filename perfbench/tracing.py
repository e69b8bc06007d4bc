"""In-memory spans around calls into colat, and the self times they imply.

A span is ``[name, start_ns, end_ns, parent, job]``, where ``parent`` is
the index of the enclosing span or -1.  The benchmark opens one root
span per job (name ``job``) and every traced public call opens a child
span named ``<module>.<function>``.  Spans stay in memory until the run
writes them out.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, job=None):
        parent = self._open[-1] if self._open else -1
        if job is None and parent >= 0:
            job = self.spans[parent][4]
        index = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent, job]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def self_times(spans, keep):
    """Seconds and calls per span name over the spans that keep() accepts;
    a span's self time is its duration minus that of its children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    seconds, calls = {}, {}
    for span, inner in zip(spans, child_ns):
        if keep(span):
            name, start, end = span[:3]
            seconds[name] = seconds.get(name, 0.0) + (end - start - inner) / 1e9
            calls[name] = calls.get(name, 0) + 1
    return seconds, calls
