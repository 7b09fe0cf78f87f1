"""Spans around the calls into the package's layers, kept in memory.

The traced run swaps selected module attributes for timing wrappers, from
the benchmark's side: the package itself carries no tracing.  A wrapper is
installed on the name a caller looks up, for example ``circuits.rank``
rather than ``exact_linalg.rank``, so only calls made from that module are
timed.  Every worker is a fresh process, so wrappers are never removed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator


class Tracer:
    """Spans as ``[name, start, end, parent_index]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def patch(
        self,
        module: object,
        attr: str,
        name: str | Callable[[], str],
        observe: Callable[[tuple, object], None] | None = None,
    ) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``name`` may be a callable, evaluated per call, for a call site whose
        span name depends on call order.  ``observe(args, result)`` runs
        after the span has closed, so its cost lands in no layer.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name() if callable(name) else name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        setattr(module, attr, traced)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for (_, start, end, parent) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, float]:
        """Calls, busy time and self time per span name, plus the counters."""
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += own
        out.update(self.counts)
        return out


class NullTracer:
    """The untraced run: spans cost one context-manager entry and nothing else."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield
