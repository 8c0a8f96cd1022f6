"""The benchmark's workloads, operations, correctness checks and metrics.

A round calls each sampling operation (the three estimators and the soups)
`calls` times, interleaved, and then the identity operation once, so that
every operation's timed calls are spread over the whole run.  Before the
timed rounds, a warm-up calls each operation once without timing or
counting it; its results are the reference every later call must reproduce
bit for bit (same inputs, same seed).  Timed rounds run at threads=1, whole
rounds only, until --seconds have passed; each rate is an operation's work
in all its timed calls divided by their seconds.  After them, each sampling
operation runs once more at threads=2, untimed, and must again give the
warm-up's bits.  A traced run (--trace 1) times traced rounds instead and
reports their per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import netgen
import reference
import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
Z = 5.0                 # allowed distance of an estimate from its target, in SEs
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    network: str
    samples: int        # per estimator call
    batch: int          # estimator batch; 4096 is the package default (README)
    soups: int          # per soup_moments call and per kl_isomorphism_check call
    soup_batch: int     # 256 is the package default; the annulus uses less (README)
    calls: int          # calls of each sampling operation per round
    suites: int         # identity suites per round, in one call


WORKLOADS = {
    "pt": Workload("pt", 32768, 4096, 2048, 256, 1, 200),
    "annulus": Workload("annulus", 4096, 2048, 64, 32, 2, 1),
}
TIMED_THREADS = 1
CHECK_THREADS = 2       # the untimed determinism check after the timed rounds

END_TO_END = {
    "event_samples_per_s": "samples/s",
    "moment_samples_per_s": "samples/s",
    "connectivity_samples_per_s": "samples/s",
    "soups_per_s": "soups/s",
    "identities_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "spectral.self_s": "s", "spectral.cholesky_calls": "count",
    "spectral.largest_order": "vertices", "network.subdivide_s": "s",
    "network.subdivided_vertices": "count", "cover.build_s": "s", "cover.calls": "count",
    "cli.identity_checks_s": "s", "cli.checks": "count", "gff.setup_s": "s",
    "gff.batch_us_per_sample": "us", "gff.samples": "count", "gff.accepted": "count",
    "seeds.batches": "count", "seeds.substreams": "count", "seeds.busy_fraction": "ratio",
    "loopsoup.init_s": "s", "loopsoup.init_calls": "count",
    "loopsoup.sample_ms_per_soup": "ms", "loopsoup.loops_per_soup": "count",
    "loopsoup.jumps_per_soup": "count", "loopsoup.occupation_s": "s",
    "loopsoup.split_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Context:
    ggff: object
    workload: Workload
    spec: netgen.Spec
    ref: reference.Reference
    net: object
    gauge: object
    seed: int


def op_event(c: Context, threads: int):
    w = c.workload
    return c.ggff.gff.estimate_event_probability(
        c.net, c.gauge, w.samples, c.seed, threads=threads, batch_size=w.batch)


def op_moment(c: Context, threads: int):
    w = c.workload
    return c.ggff.gff.conditional_moment(
        c.net, c.gauge, c.spec.pair, w.samples, c.seed, threads=threads,
        batch_size=w.batch)


def op_connectivity(c: Context, threads: int):
    w = c.workload
    return c.ggff.gff.two_point_connectivity(
        c.net, c.spec.pair, w.samples, c.seed, threads=threads, batch_size=w.batch)


def op_soups(c: Context, threads: int):
    """What `ggff loopsoup-test` runs: both soup verifications at alpha = 1/2."""
    w, ls = c.workload, c.ggff.loopsoup
    moments = ls.soup_moments(c.net, reference.ALPHA, w.soups, c.seed, gauge=c.gauge,
                              threads=threads, batch_size=w.soup_batch)
    kl = ls.kl_isomorphism_check(c.net, c.gauge, w.soups, c.seed, threads=threads,
                                 batch_size=w.soup_batch)
    return moments, kl


def op_identities(c: Context, threads: int):
    return [c.ggff.cli.identity_checks(c.net, c.gauge) for _ in range(c.workload.suites)]


def _near(label: str, value: float, target: float, se: float) -> list[str]:
    if abs(value - target) <= Z * se:
        return []
    return [f"{label}: {value!r} is more than {Z:g} x {se:.3g} from {target!r}"]


def _same(label: str, value: float, target: float, tol: float = 1e-10) -> list[str]:
    if abs(value - target) <= tol * max(1.0, abs(target)):
        return []
    return [f"{label}: closed form {value!r} differs from the benchmark's {target!r}"]


def check_event(c: Context, rep) -> list[str]:
    p = c.ref.det_ratio
    return (_near("event probability", rep.estimate, p,
                  math.sqrt(p * (1.0 - p) / rep.n_samples))
            + _same("event target", rep.target, p))


def check_moment(c: Context, rep) -> list[str]:
    g = c.ref.g_sigma_pair
    out = (_near("conditional moment", rep.estimate, g, rep.std_error)
           + _same("moment target", rep.target, g))
    if g < 0 <= rep.estimate:
        out.append(f"conditional moment {rep.estimate!r} is not negative like G_sigma")
    return out


def check_connectivity(c: Context, rep) -> list[str]:
    q = c.ref.arcsine
    return (_near("same-cluster probability", rep.estimate, q,
                  math.sqrt(q * (1.0 - q) / rep.n_samples))
            + _same("arcsine target", rep.target, q))


def check_soups(c: Context, result) -> list[str]:
    mom, kl = result
    r = c.ref
    return (_near("multi-vertex loop count", mom.count_mean, r.count, mom.count_se)
            + _same("loop count target", mom.count_target, r.count)
            + _near("holonomy -1 loop count", mom.negative_count_mean,
                    r.negative_count, mom.negative_count_se)
            + _same("holonomy -1 count target", mom.negative_count_target,
                    r.negative_count)
            + _near("total occupation", float(np.sum(mom.occupation_mean)),
                    r.occupation_total, math.sqrt(r.occupation_var / mom.n_soups))
            + _same("occupation target", float(np.sum(mom.occupation_mean_target)),
                    r.occupation_total)
            + _same("occupation second-moment target",
                    float(np.sum(mom.occupation_second_target)), r.occupation_second)
            + _near("isomorphism left total", float(np.sum(kl.left_mean)),
                    r.split_total, math.sqrt(r.split_var / kl.n_soups))
            + _near("isomorphism right total", float(np.sum(kl.right_mean)),
                    r.split_total, math.sqrt(r.split_var / kl.n_soups)))


def check_identities(c: Context, suites: list[list[dict]]) -> list[str]:
    if any(checks != suites[0] for checks in suites):
        return ["repeated identity suites disagree"]
    checks = suites[0]
    out = [f"identity check failed: {ch['name']}" for ch in checks
           if ch["passed"] is False]
    ratio = [ch["value"] for ch in checks if ch["name"] == "det_ratio in (0, 1]"]
    if len(ratio) != 1:
        return out + ["identity suite reports no det_ratio"]
    return out + _same("identity suite det_ratio", ratio[0], c.ref.det_ratio)


# name, operation, its check, and how many operations one call of it counts as
SAMPLING = (
    ("event", op_event, check_event, lambda w: 1),
    ("moment", op_moment, check_moment, lambda w: 1),
    ("connectivity", op_connectivity, check_connectivity, lambda w: 1),
    ("soups", op_soups, check_soups, lambda w: 1),
)
IDENTITIES = ("identities", op_identities, check_identities, lambda w: w.suites)
OPERATIONS = SAMPLING + (IDENTITIES,)


def fingerprint(obj):
    """A value that compares equal exactly when every bit of obj does."""
    if dataclasses.is_dataclass(obj):
        return tuple(fingerprint(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return tuple((k, fingerprint(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(x) for x in obj)
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


@dataclass
class Run:
    """Counts timed operations, keeps their seconds and collects every failed
    check of one benchmark run."""

    ctx: Context
    attempted: int = 0
    failed: int = 0
    seconds: dict = dataclasses.field(default_factory=dict)
    reference_prints: dict = dataclasses.field(default_factory=dict)
    problems: list = dataclasses.field(default_factory=list)

    def call(self, operation, threads: int):
        """Call one operation and check its result; its seconds, or None if it
        raised."""
        name, op, check, _ = operation
        start = time.perf_counter()
        try:
            result = op(self.ctx, threads)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        self.problems += check(self.ctx, result)
        prints = fingerprint(result)
        if self.reference_prints.setdefault(name, prints) != prints:
            self.problems.append(f"{name}: result at threads={threads} differs from "
                                 "the warm-up result")
        return elapsed

    def warm_up(self) -> None:
        """Every operation once, untimed and uncounted; its results become the
        reference.  An operation that raises here is counted when it raises
        in the timed rounds."""
        for operation in OPERATIONS:
            self.call(operation, TIMED_THREADS)

    def round(self) -> None:
        """One timed round: the sampling operations `calls` times, interleaved,
        then the identity suites."""
        w = self.ctx.workload
        for operation in SAMPLING * w.calls + (IDENTITIES,):
            name, _, _, count = operation
            self.attempted += count(w)
            elapsed = self.call(operation, TIMED_THREADS)
            if elapsed is None:
                self.failed += count(w)
            else:
                self.seconds.setdefault(name, []).append(elapsed)

    def check_threads(self) -> None:
        """Each sampling operation that returned in the warm-up, once more at
        CHECK_THREADS, untimed: it must give the warm-up's bits."""
        for operation in SAMPLING:
            name = operation[0]
            if name in self.reference_prints and self.call(operation, CHECK_THREADS) is None:
                self.problems.append(f"{name} raised at threads={CHECK_THREADS} only")


def rates(w: Workload, seconds: dict[str, list[float]]) -> dict[str, float | None]:
    """Each operation's work in all its timed calls per second they took; None
    for an operation none of whose timed calls returned."""
    def seconds_per_unit(name, work):
        spent = seconds.get(name, [])
        return sum(spent) / (work * len(spent)) if spent else None

    def per_second(name, work):
        per_unit = seconds_per_unit(name, work)
        return None if per_unit is None else 1.0 / per_unit

    return {
        "event_samples_per_s": per_second("event", w.samples),
        "moment_samples_per_s": per_second("moment", w.samples),
        "connectivity_samples_per_s": per_second("connectivity", w.samples),
        "soups_per_s": per_second("soups", 2 * w.soups),
        "identities_s": seconds_per_unit("identities", w.suites),
    }


def time_setup(network: str) -> float:
    """Median set-up time of SETUP_REPEATS fresh processes, run one at a time."""
    cmd = [sys.executable, str(HERE / "netgen.py"), "--setup", network, "--out", str(OUT)]
    values = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        values.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def run(workload: str, seed: int, seconds: float, traced: bool, blas_threads: int) -> dict:
    ggff = netgen.use_checkout_package()
    importlib.import_module("ggff.cli")
    w = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    setup_s = None if traced else time_setup(w.network)
    spec = netgen.SPECS[w.network]()
    path = OUT / f"{w.network}-{os.getpid()}.json"
    try:
        net, gauge = netgen.round_trip(spec, path, ggff)
    finally:
        path.unlink(missing_ok=True)
    ctx = Context(ggff, w, spec, reference.reference(spec), net, gauge, seed)
    bench = Run(ctx)
    bench.warm_up()
    deadline = time.perf_counter() + seconds
    rounds = 0
    tracer = spans.Tracer()
    while True:  # whole rounds, until --seconds have passed
        if traced:
            tracer.install()
        try:
            bench.round()
        finally:
            tracer.restore()
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    if traced:
        bench.problems += [f"{name} still wrapped after the traced round"
                           for name in tracer.not_restored()]
        metrics = tracer.layer_metrics(rounds)
        tracer.dump(OUT / f"trace-{workload}-s{seed}.json",
                    {"workload": workload, "seed": seed, "rounds": rounds,
                     "blas_threads": blas_threads})
        units = PER_LAYER
    else:
        metrics = rates(w, bench.seconds)
        bench.problems += [f"{name}: no timed call returned, so it has no value"
                           for name, value in metrics.items() if value is None]
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    bench.check_threads()
    for line in bench.problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"# workload={workload} network={w.network} interior={len(spec.interior)} "
          f"threads={TIMED_THREADS} check_threads={CHECK_THREADS} "
          f"blas_threads={blas_threads} seed={seed} rounds={rounds} traced={int(traced)} "
          f"P(T)={ctx.ref.det_ratio:.6f} G_sigma{spec.pair}={ctx.ref.g_sigma_pair:.6f}")
    return {"correct": not bench.problems, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
