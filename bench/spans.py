"""In-memory spans around the public functions of mpvesd's modules.

The tracer patches each function at the name its callers look up, records
a span (name, start, end, parent) per call, and restores the originals on
exit.  Spans stay in memory until the benchmark writes them out.  A span's
self time is its duration minus the durations of its direct children;
calls run in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager


def _size(shape) -> int:
    return math.prod(shape) if isinstance(shape, tuple) else int(shape)


def targets():
    """(owner, attribute, span name, work counter) for every traced function.

    A function that ``experiments`` imports by name is patched in
    ``experiments`` as well as in its home module; a name a module does not
    have is skipped, and its metric reads 0.  ``np.linalg.eigh`` is the
    name the trial kernels look up; nothing else on the benchmark's paths
    calls it or ``scipy.linalg.eigh``.
    """
    import numpy as np
    import scipy.linalg

    from mpvesd import config, ensembles, experiments, law, resolvent, vesd

    return [
        (config, "parse_config", "config.parse_config", None),
        (law, "solve_law", "law.solve_law", None),
        (experiments, "solve_law", "law.solve_law", None),
        (law, "solve_m2c", "law.solve_m2c", None),
        (law.SolvedLaw, "cdf", "law.cdf", lambda a, k: int(np.size(a[1]))),
        (ensembles.EntryLaw, "sample", "ensembles.sample",
         lambda a, k: _size(a[2] if len(a) > 2 else k["size"])),
        (np.linalg, "eigh", "experiments.eigh", None),
        (scipy.linalg, "eigh", "experiments.eigh", None),
        (experiments, "eigh", "experiments.eigh", None),
        (experiments, "run", "experiments.run", None),
        (vesd.WeightedStepCDF, "from_jumps", "vesd.from_jumps",
         lambda a, k: int(np.size(a[1]))),
        (vesd.WeightedStepCDF, "average", "vesd.average", None),
        (vesd, "kolmogorov", "vesd.kolmogorov", None),
        (experiments, "kolmogorov", "vesd.kolmogorov", None),
        (resolvent, "build_resolvent", "resolvent.build_resolvent", None),
        (resolvent, "deterministic_limit", "resolvent.deterministic_limit",
         None),
        (resolvent, "local_law_residuals", "resolvent.local_law_residuals",
         None),
        (experiments, "local_law_residuals", "resolvent.local_law_residuals",
         None),
    ]


class Tracer:
    """Records spans while active; ``spans`` holds them in call order."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, work: int | None = None):
        sid = len(self.spans)
        rec = dict(id=sid, name=name,
                   parent=self._stack[-1] if self._stack else None,
                   start=time.perf_counter(), end=None, work=work)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, counter(args, kwargs) if counter else None):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def active(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in targets():
                raw = owner.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name,
                                                     counter))
                else:
                    patched = self._wrap(raw, name, counter)
                saved.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- summaries ------------------------------------------------------------

    def durations(self, name: str) -> float:
        """Summed duration of outermost spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self._outermost(name))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def work(self, name: str) -> int:
        return sum(s["work"] or 0 for s in self.spans if s["name"] == name)

    def self_time(self, name: str) -> float:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return sum(s["end"] - s["start"] - child[s["id"]]
                   for s in self.spans if s["name"] == name)

    def _outermost(self, name: str):
        for s in self.spans:
            if s["name"] != name:
                continue
            p = s["parent"]
            while p is not None and self.spans[p]["name"] != name:
                p = self.spans[p]["parent"]
            if p is None:
                yield s
