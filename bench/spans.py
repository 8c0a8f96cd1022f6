"""Spans and counts recorded around the calls ggff's modules make into each other.

Tracer.install() replaces, from outside the package and only while a traced
round runs, each public function that one ggff module calls in another, in
the namespace the caller looks it up in, with a wrapper that records a span
(id, name, start, end, parent) and counts.  Tracer.restore() puts every
original back.  A span's layer is the part of its name before the first dot;
a layer's self time is its spans' durations minus the time their child spans
cover.  The tracer's own overhead is each recorded span at the measured cost of
a wrapper around a no-op, plus the measured time of the counting callbacks.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SPECTRAL_FUNCTIONS = (
    "laplacian", "twisted_laplacian", "green", "twisted_green", "cover_laplacian",
    "cover_green", "det_ratio", "loop_mass", "twisted_loop_mass",
    "negative_holonomy_mass", "cover_green_relations", "subspace_determinants",
    "gauge_covariance_residual")
GFF_ESTIMATORS = ("estimate_event_probability", "conditional_moment",
                  "two_point_connectivity")


def span_cost(calls: int = 20000, trials: int = 5) -> float:
    """Median seconds that one traced wrapper adds to a call, timed on a no-op."""
    def noop():
        return None

    wrapped = Tracer().traced(noop, "trace.probe")
    costs = []
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        middle = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append(((time.perf_counter() - middle) - (middle - start)) / calls)
    return statistics.median(costs)


class _LinalgProxy:
    """Stands in for scipy.linalg inside ggff.spectral, with cho_factor traced."""

    def __init__(self, module, cho_factor):
        self._module = module
        self.cho_factor = cho_factor

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.largest: dict[str, int] = {}
        self.threads_of: dict[int, int] = {}   # run_batches span id -> threads
        self.callback_s = 0.0                   # time spent in the counting callbacks
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def peak(self, key: str, value: int) -> None:
        with self._lock:
            self.largest[key] = max(self.largest.get(key, value), value)

    def traced(self, fn, name: str, after=None):
        """fn inside a span; after(result, *args, **kwargs) runs outside it."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                start = time.perf_counter()
                after(result, *args, **kwargs)
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.callback_s += elapsed
            return result
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        self._patch(owner, attr, self.traced(getattr(owner, attr), name, after))

    def _wrap_run_batches(self, owner, worker_name: str) -> None:
        original = owner.run_batches

        @functools.wraps(original)
        def run_batches(plan, worker, threads=1):
            with self.span("seeds.run_batches") as sid:
                def traced_worker(i, n):
                    with self.span(worker_name, parent=sid):
                        return worker(i, n)
                result = original(plan, traced_worker, threads)
            self.threads_of[sid] = threads
            self.add("seeds.batches", len(plan))
            return result

        self._patch(owner, "run_batches", run_batches)

    def install(self) -> None:
        from ggff import cli, cover, gff, loopsoup, spectral

        def factored(_, a, *args, **kwargs):
            self.add("spectral.cholesky_calls")
            self.peak("spectral.largest_order", len(a))

        def lap_factored(_, lap):
            factored(None, lap.entries)

        for fn in SPECTRAL_FUNCTIONS:
            self._wrap(spectral, fn, f"spectral.{fn}")
        self._wrap(spectral.LaplacianMatrix, "cholesky", "spectral.cholesky",
                   lap_factored)
        self._patch(spectral, "sla", _LinalgProxy(spectral.sla, self.traced(
            spectral.sla.cho_factor, "spectral.cho_factor", factored)))
        for owner in (cover, spectral, gff):
            self._wrap(owner, "build_double_cover", "cover.build_double_cover",
                       lambda *_, **__: self.add("cover.calls"))
        self._wrap(cli, "subdivide", "network.subdivide",
                   lambda res, *_, **__: self.add("network.subdivided_vertices",
                                                  len(res[0].network.interior)))
        self._wrap(cli, "identity_checks", "cli.identity_checks",
                   lambda res, *_, **__: self.add("cli.checks", len(res)))

        def estimated(rep, *_, **__):
            self.add("gff.samples", rep.n_samples)
            self.add("gff.accepted", rep.n_accepted)

        for fn in GFF_ESTIMATORS:
            self._wrap(gff, fn, f"gff.{fn}", estimated)
        for owner, layer in ((gff, "gff"), (loopsoup, "loopsoup")):
            self._wrap_run_batches(owner, f"{layer}.batch")
            self._wrap(owner, "batch_plan", "seeds.batch_plan")
            self._wrap(owner, "substream", "seeds.substream",
                       lambda *_, **__: self.add("seeds.substreams"))

        def sampled(soup, *_, **__):
            multi = [lp for lp in soup.loops if len(lp.skeleton) > 1]
            self.add("loopsoup.soups")
            self.add("loopsoup.loops", len(multi))
            self.add("loopsoup.jumps", sum(len(lp.skeleton) for lp in multi))

        sampler = loopsoup.LoopSoupSampler
        self._wrap(sampler, "__init__", "loopsoup.init",
                   lambda *_, **__: self.add("loopsoup.init_calls"))
        self._wrap(sampler, "sample_with", "loopsoup.sample_with", sampled)
        self._wrap(sampler, "occupation_vector", "loopsoup.occupation_vector")
        self._wrap(loopsoup, "split_by_holonomy", "loopsoup.split_by_holonomy")
        for fn in ("soup_moments", "kl_isomorphism_check"):
            self._wrap(loopsoup, fn, f"loopsoup.{fn}")
        self._installed.extend(self._patched)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def not_restored(self) -> list[str]:
        """Every wrapped attribute that does not hold its original again."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._installed
                if getattr(owner, attr) is not original]

    def overhead_s(self) -> float:
        """Seconds the wrappers added to the traced calls, in all."""
        return len(self.spans) * span_cost() + self.callback_s

    def self_times(self) -> dict[int, float]:
        """Per span: its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for a, b in sorted(children.get(sid, ())):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out[sid] = (end - start) - covered
        return out

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """The per-layer metrics, per traced round unless the name says otherwise."""
        own = self.self_times()
        layer_self = defaultdict(float)
        name_self = defaultdict(float)
        total = defaultdict(float)
        by_id = {}
        for sid, name, start, end, parent in self.spans:
            layer_self[name.split(".")[0]] += own[sid]
            name_self[name] += own[sid]
            total[name] += end - start
            by_id[sid] = (name, start, end, parent)
        estimators = {f"gff.{fn}" for fn in GFF_ESTIMATORS}
        gff_batches = sum(end - start for name, start, end, parent in by_id.values()
                          if name == "seeds.run_batches"
                          and by_id.get(parent, ("",))[0] in estimators)
        capacity = sum((by_id[sid][2] - by_id[sid][1]) * n
                       for sid, n in self.threads_of.items())
        busy = total["gff.batch"] + total["loopsoup.batch"]
        c = self.counts
        soups = max(c["loopsoup.soups"], 1)
        return {
            "spectral.self_s": layer_self["spectral"] / rounds,
            "spectral.cholesky_calls": c["spectral.cholesky_calls"] / rounds,
            "spectral.largest_order": self.largest.get("spectral.largest_order", 0),
            "network.subdivide_s": layer_self["network"] / rounds,
            "network.subdivided_vertices": c["network.subdivided_vertices"] / rounds,
            "cover.build_s": layer_self["cover"] / rounds,
            "cover.calls": c["cover.calls"] / rounds,
            "cli.identity_checks_s": layer_self["cli"] / rounds,
            "cli.checks": c["cli.checks"] / rounds,
            "gff.setup_s": (sum(total[n] for n in estimators) - gff_batches) / rounds,
            "gff.batch_us_per_sample": 1e6 * gff_batches / max(c["gff.samples"], 1),
            "gff.samples": c["gff.samples"] / rounds,
            "gff.accepted": c["gff.accepted"] / rounds,
            "seeds.batches": c["seeds.batches"] / rounds,
            "seeds.substreams": c["seeds.substreams"] / rounds,
            "seeds.busy_fraction": busy / capacity if capacity else 0.0,
            "loopsoup.init_s": name_self["loopsoup.init"] / rounds,
            "loopsoup.init_calls": c["loopsoup.init_calls"] / rounds,
            "loopsoup.sample_ms_per_soup": 1e3 * total["loopsoup.sample_with"] / soups,
            "loopsoup.loops_per_soup": c["loopsoup.loops"] / soups,
            "loopsoup.jumps_per_soup": c["loopsoup.jumps"] / soups,
            "loopsoup.occupation_s": total["loopsoup.occupation_vector"] / rounds,
            "loopsoup.split_s": total["loopsoup.split_by_holonomy"] / rounds,
            "trace.overhead_s": self.overhead_s() / rounds,
        }

    def dump(self, path, meta: dict) -> None:
        """Write every span and count, once the run has ended."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "counts": dict(self.counts), "largest": self.largest,
                       "spans": [list(s) for s in self.spans]}, fh)
            fh.write("\n")
