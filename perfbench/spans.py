"""Spans and counters for the traced run.

The benchmark opens a span around every public call it makes (see
``workloads.run_pass``).  Calls the program makes internally are seen
through module-attribute wrappers installed for the traced run only:

* ``gibbslab.transfer.build`` and ``gibbslab.transfer.dominant_eigendata``
  (PressureFamily and verify_model call them as ``transfer.<name>``);
* ``gibbslab.stats.affine_combine`` (PressureFamily);
* ``gibbslab.stats.block_chain`` and ``gibbslab.sampler.block_chain``
  (asymptotic_variance, the DP law and the sampler);
* ``PressureFamily._solve`` for family solves and cache hits.

A ``from ... import`` binding elsewhere is not patched and bypasses the
wrappers: verify_model's own calls to gibbs_measure, gibbs_ratio_scan
and rate_function, and PressureFamily's calls to gibbs_measure and
expectation, count as self time of the enclosing span.

A span's self time is its duration minus the time covered by spans
opened inside it.
"""

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self._stack = []

    @contextmanager
    def span(self, name):
        self._stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            _, child = self._stack.pop()
            self.self_s[name] += dur - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur

    def inside(self, name):
        return any(entry[0] == name for entry in self._stack)

    def count(self, name, n=1):
        self.counters[name] += n


class NullTracer:
    """Untraced runs: spans and counters cost one call each."""

    def span(self, name):
        return nullcontext()

    def count(self, name, n=1):
        pass


def _wrap(tracer, fn, span, on_result=None):
    def wrapper(*args, **kwargs):
        with tracer.span(span):
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.count(span + ".failed")
                raise
        if on_result is not None:
            on_result(out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer):
    """Patch the internal call sites; returns a function that undoes it."""
    from gibbslab import sampler, stats, transfer

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    patch(transfer, "build", _wrap(tracer, transfer.build, "transfer.build"))
    patch(transfer, "dominant_eigendata",
          _wrap(tracer, transfer.dominant_eigendata, "transfer.eigen",
                lambda E: tracer.count("transfer.eigen_iters", E.iterations)))
    patch(stats, "affine_combine",
          _wrap(tracer, stats.affine_combine, "potential.affine"))
    patch(stats, "block_chain", _wrap(tracer, stats.block_chain, "gibbs.block_chain"))
    patch(sampler, "block_chain", _wrap(tracer, sampler.block_chain, "gibbs.block_chain"))

    solve = stats.PressureFamily._solve

    def counted_solve(fam, s):
        tracer.count("stats.family_lookups")
        if s in fam._cache:
            tracer.count("stats.family_hits")
        else:
            tracer.count("stats.family_solves")
            if tracer.inside("stats.rate"):
                tracer.count("stats.rate_solves")
        return solve(fam, s)

    patch(stats.PressureFamily, "_solve", counted_solve)

    def undo():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

    return undo
