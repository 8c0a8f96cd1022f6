"""Tests of the benchmark itself: its networks, its references and its tracing.

    python3 -m pytest -q bench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import netgen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ggff = netgen.use_checkout_package()
import ggff.cli  # noqa: E402


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    out = tmp_path_factory.mktemp("networks")
    return {name: (make(), *netgen.round_trip(make(), out / f"{name}.json", ggff))
            for name, make in netgen.SPECS.items()}


def _context(loaded, name, workload):
    spec, net, gauge = loaded[name]
    return workloads.Context(ggff, workload, spec, reference.reference(spec), net, gauge, 7)


def test_generator_vertex_counts_and_event_probability(loaded):
    expected = {"pt": (3, math.sqrt(3 / 7)), "annulus": (288, 0.559411)}
    for name, (size, p) in expected.items():
        spec, net, gauge = loaded[name]
        assert len(net.interior) == len(spec.interior) == size
        assert ggff.det_ratio(net, gauge) == pytest.approx(p, abs=1e-6)
        x, y = spec.pair
        assert gauge.sign(x, y) == -1  # the pair straddles the cut


def test_reference_on_pendant_triangle(loaded):
    ref = reference.reference(loaded["pt"][0])
    assert ref.det_ratio == pytest.approx(math.sqrt(3 / 7), abs=1e-14)
    assert ref.g_sigma_pair == pytest.approx(-2 / 7, abs=1e-14)


def test_reference_agrees_with_package_closed_forms(loaded):
    sp = ggff.spectral
    for spec, net, gauge in loaded.values():
        ref = reference.reference(spec)
        g = sp.green(net)
        x, y = spec.pair
        assert ref.det_ratio == pytest.approx(sp.det_ratio(net, gauge), rel=1e-10)
        assert ref.g_sigma_pair == pytest.approx(
            sp.twisted_green(net, gauge).value(x, y), rel=1e-10)
        assert ref.count == pytest.approx(reference.ALPHA * sp.loop_mass(net), rel=1e-10)
        assert ref.negative_count == pytest.approx(
            reference.ALPHA * sp.negative_holonomy_mass(net, gauge), rel=1e-10)
        assert ref.occupation_total == pytest.approx(
            reference.ALPHA * np.trace(g.entries), rel=1e-10)
        assert ref.occupation_second == pytest.approx(
            reference.ALPHA * (1 + reference.ALPHA) * np.sum(np.diag(g.entries) ** 2),
            rel=1e-10)


def test_soup_total_variances_match_sampled_soups(loaded):
    """The closed-form variances behind the benchmark's soup checks."""
    spec, net, gauge = loaded["pt"]
    ref = reference.reference(spec)
    sampler = ggff.LoopSoupSampler(net, reference.ALPHA)
    rng = np.random.default_rng(3)
    totals, plus = [], []
    for _ in range(20000):
        soup = sampler.sample_with(rng, 0)
        totals.append(sampler.occupation_vector(soup).sum())
        plus.append(sampler.occupation_vector(ggff.split_by_holonomy(soup, gauge)[0]).sum())
    assert np.mean(totals) == pytest.approx(ref.occupation_total, rel=0.03)
    assert np.var(totals) == pytest.approx(ref.occupation_var, rel=0.1)
    assert np.mean(plus) == pytest.approx(ref.split_total, rel=0.03)
    assert np.var(plus) == pytest.approx(ref.split_var, rel=0.1)


def test_self_time_subtracts_the_union_of_children():
    tracer = spans.Tracer()
    tracer.spans = [(1, "a.f", 0.0, 10.0, None), (2, "b.g", 1.0, 3.0, 1),
                    (3, "b.g", 2.0, 5.0, 1), (4, "c.h", 7.0, 8.0, 1)]
    assert tracer.self_times() == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


@pytest.mark.parametrize("phase", ["round", "check_threads"])
def test_traced_calls_restore_everything_and_change_no_bit(loaded, phase):
    """A traced timed round (threads=1) or a traced determinism check
    (threads=2) gives the warm-up's bits and leaves every original in place."""
    w = workloads.Workload("pt", 8192, 4096, 64, 16, 1, 2)
    bench = workloads.Run(_context(loaded, "pt", w))
    originals = [ggff.gff.estimate_event_probability, ggff.gff.run_batches,
                 ggff.loopsoup.LoopSoupSampler.__init__, ggff.spectral.sla,
                 ggff.spectral.LaplacianMatrix.cholesky, ggff.cli.subdivide]
    bench.warm_up()
    tracer = spans.Tracer()
    tracer.install()
    try:
        getattr(bench, phase)()
    finally:
        tracer.restore()
    assert bench.problems == []  # includes the bitwise comparison with the warm-up
    assert tracer.not_restored() == []
    assert [ggff.gff.estimate_event_probability, ggff.gff.run_batches,
            ggff.loopsoup.LoopSoupSampler.__init__, ggff.spectral.sla,
            ggff.spectral.LaplacianMatrix.cholesky, ggff.cli.subdivide] == originals
    metrics = tracer.layer_metrics(1)
    assert set(metrics) == set(workloads.PER_LAYER)
    assert metrics["gff.samples"] == 3 * 8192
    assert metrics["loopsoup.init_calls"] == 2
    layers = {name.split(".")[0] for _, name, *_ in tracer.spans}
    if phase == "round":
        assert layers == {"spectral", "network", "cover", "cli", "gff", "seeds",
                          "loopsoup"}
        assert metrics["cli.checks"] == 2 * 15
        assert 0 < metrics["trace.overhead_s"] < metrics["cli.identity_checks_s"] + 1.0
    else:  # two batches per call, so the thread pool ran them
        assert metrics["cli.checks"] == 0
        assert set(tracer.threads_of.values()) == {workloads.CHECK_THREADS}


def test_wrapper_cost_is_positive_and_small():
    assert 0 < spans.span_cost(calls=2000) < 1e-3


@pytest.mark.parametrize("traced", [False, True])
def test_an_operation_that_always_fails_still_gives_a_result(monkeypatch, capsys, traced):
    def overflow(c, threads):
        raise OverflowError("math range error")

    identities = ("identities", overflow) + workloads.IDENTITIES[2:]
    monkeypatch.setattr(workloads, "IDENTITIES", identities)
    monkeypatch.setattr(workloads, "OPERATIONS", workloads.SAMPLING + (identities,))
    monkeypatch.setitem(workloads.WORKLOADS, "pt",
                        workloads.Workload("pt", 4096, 4096, 64, 32, 1, 3))
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "pt", "--seed", "5", "--seconds", "0",
                     "--trace", str(int(traced))]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] == 4 + 3  # one timed round; the warm-up is not counted
    assert result["failed"] == 3
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if traced:
        assert set(values) == set(workloads.PER_LAYER)
        assert result["correct"] is True and values["cli.checks"] == 0
    else:
        assert set(values) == set(workloads.END_TO_END)
        assert result["correct"] is False and values["identities_s"] is None
        assert all(v > 0 for name, v in values.items() if name != "identities_s")


def test_generated_files_run_under_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(netgen.SRC)}
    subprocess.run([sys.executable, str(BENCH / "netgen.py"), "--out", str(tmp_path)],
                   check=True, capture_output=True)
    for name, samples in (("pt", 20000), ("annulus", 2048)):
        done = subprocess.run(
            [sys.executable, "-m", "ggff.cli", "verify-theorem1", "--network",
             str(tmp_path / f"{name}.json"), "--samples", str(samples), "--seed", "0"],
            capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stdout + done.stderr


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "tests", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "pt", "--seed",
                           "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
