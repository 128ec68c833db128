"""In-memory spans for the traced run.

A span records its name, start, end and parent. Spans opened with
``memory=True`` also record the peak resident memory during the span above
the resident memory at its start, sampled from /proc/self/statm by a
background thread. (tracemalloc would give Python-heap peaks instead, but
it slows this allocation-heavy pipeline about 5.6x, which pushes a traced
run of the mesh workloads past the benchmark's time limit.) Nothing is
written until :meth:`Tracer.dump` is called.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext

_PAGE = os.sysconf("SC_PAGE_SIZE")


def resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class _RssSampler:
    """Tracks the largest resident size seen since the last reset."""

    def __init__(self, interval: float = 0.002):
        self._interval = interval
        self._lock = threading.Lock()
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(self._interval):
            rss = resident_bytes()
            with self._lock:
                self._peak = max(self._peak, rss)

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def reset(self) -> int:
        rss = resident_bytes()
        with self._lock:
            self._peak = rss
        return rss

    def peak(self) -> int:
        rss = resident_bytes()
        with self._lock:
            self._peak = max(self._peak, rss)
            return self._peak


class Tracer:
    """Collects spans; a context manager that runs the memory sampler."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._sampler = _RssSampler()

    def __enter__(self):
        self._sampler.start()
        return self

    def __exit__(self, *exc):
        self._sampler.stop()

    @contextmanager
    def span(self, name: str, memory: bool = False):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        base = self._sampler.reset() if memory else 0
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if memory:
                rec["peak_mb"] = (self._sampler.peak() - base) / 1e6
            self._stack.pop()

    def total(self, prefix: str) -> float:
        """Summed duration of the spans whose name starts with ``prefix``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"].startswith(prefix))

    def peak_mb(self, prefix: str) -> float:
        """Largest memory peak among the spans whose name starts with ``prefix``."""
        return max((s["peak_mb"] for s in self.spans
                    if s["name"].startswith(prefix) and "peak_mb" in s), default=0.0)

    def dump(self, path, **header) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh, indent=1)


class NullTracer:
    """Stand-in for untraced runs: every span is a no-op."""

    def span(self, name: str, memory: bool = False):
        return nullcontext()
