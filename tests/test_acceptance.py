"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Monte Carlo tolerances are stated in standard errors of the estimator; exact
identities run at 1e-10 (1e-8 where two independent solves are compared).
"""

import math

import numpy as np

import ggff
from ggff import (GaugeField, conditional_moment, detect_event,
                  estimate_event_probability, green, is_cover_connected,
                  is_trivial, kl_isomorphism_check, two_point_connectivity)
from ggff.cli import identity_checks
from ggff.cover import build_double_cover
from ggff.loopsoup import soup_moments

from conftest import pendant_triangle, random_network, random_trivial_gauge
from test_gff import random_configuration


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_theorem1_monte_carlo_vs_determinant():
    net, gauge = pendant_triangle()
    rep = estimate_event_probability(net, gauge, 100_000, seed=0)
    target = math.sqrt(3 / 7)
    dev = abs(rep.estimate - target) / rep.std_error
    report("criterion 1 (event probability = det ratio, 3 SE)",
           dev <= 3.0,
           f"estimate {rep.estimate:.6f} vs {target:.6f}, {dev:.2f} SE")


def test_criterion_2_exact_identity_suite():
    net, gauge = pendant_triangle()
    cases = [("PT", net, gauge)]
    rng = np.random.default_rng(2024)
    for k in range(20):
        n, g = random_network(rng, max_interior=12)
        if k % 5 == 0:
            g = random_trivial_gauge(rng, n)
        cases.append((f"random-{k}", n, g))
    failures = []
    for name, n, g in cases:
        for check in identity_checks(n, g):
            if check["passed"] is False:
                failures.append(f"{name}: {check['name']} = {check.get('value')}")
    report("criterion 2 (exact identities at 1e-10 / 1e-8 on PT + 20 random)",
           not failures, f"{len(cases)} networks, failures: {failures or 'none'}")


def test_criterion_3_conditional_law_moments():
    net, gauge = pendant_triangle()
    rep_xx = conditional_moment(net, gauge, ("x", "x"), 100_000, seed=1)
    rep_yz = conditional_moment(net, gauge, ("y", "z"), 100_000, seed=2)
    dev_xx = abs(rep_xx.estimate - 3 / 7) / rep_xx.std_error
    dev_yz = abs(rep_yz.estimate - (-2 / 7)) / rep_yz.std_error
    report("criterion 3 (conditional moments: 3/7 and -2/7, 3 SE)",
           dev_xx <= 3.0 and dev_yz <= 3.0,
           f"E[phi_x^2|T] {rep_xx.estimate:.5f} ({dev_xx:.2f} SE), "
           f"flipped two-point {rep_yz.estimate:.5f} ({dev_yz:.2f} SE), "
           f"accepted {rep_xx.n_accepted}/{rep_xx.n_samples}")


def test_criterion_4_cover_connectivity_iff_nontrivial():
    rng = np.random.default_rng(4)
    agree = 0
    total = 200
    for k in range(total):
        net, gauge = random_network(rng, max_interior=8)
        if k % 3 == 0:
            gauge = random_trivial_gauge(rng, net)
        elif k % 7 == 0:
            gauge = GaugeField.all_plus(net)
        trivial, _ = is_trivial(gauge)
        connected = is_cover_connected(build_double_cover(net, gauge))
        agree += connected == (not trivial)
    report("criterion 4 (cover connected iff gauge non-trivial, 200 pairs)",
           agree == total, f"{agree}/{total} agreements")


def test_criterion_5_event_detector_equivalence():
    rng = np.random.default_rng(5)
    total = 10_000
    agree = 0
    pairs = [random_network(rng, max_interior=7) for _ in range(500)]
    for k in range(total):
        net, gauge = pairs[k % len(pairs)]
        cfg = random_configuration(rng, net)
        a = detect_event(cfg, gauge, method="parity")
        b = detect_event(cfg, gauge, method="cover")
        c = detect_event(cfg, gauge, method="cycles")
        agree += (a == b == c)
    report("criterion 5 (parity / cover / cycle detectors, 10^4 configs)",
           agree == total, f"{agree}/{total} agreements")


def test_criterion_6_arcsine_connectivity():
    net, _ = pendant_triangle()
    rep = two_point_connectivity(net, ("x", "y"), 100_000, seed=6)
    target = (2 / math.pi) * math.asin(math.sqrt(3 / 5))
    dev = abs(rep.estimate - target) / rep.std_error
    report("criterion 6 (arcsine two-point connectivity, 3 SE)",
           dev <= 3.0, f"estimate {rep.estimate:.5f} vs {target:.5f}, {dev:.2f} SE")


def test_criterion_7_loop_soup():
    net, gauge = pendant_triangle()
    mom = soup_moments(net, 0.5, 10_000, seed=7, gauge=gauge)
    dev_count = abs(mom.count_mean - mom.count_target) / mom.count_se
    dev_mean = np.abs(mom.occupation_mean - mom.occupation_mean_target) \
        / mom.occupation_mean_se
    dev_second = np.abs(mom.occupation_second - mom.occupation_second_target) \
        / mom.occupation_second_se
    kl = kl_isomorphism_check(net, gauge, 10_000, seed=8)
    ok = (dev_count <= 3.0 and np.all(dev_mean <= 3.0) and np.all(dev_second <= 4.0)
          and np.all(np.abs(kl.mean_diff_se) <= 4.0)
          and np.all(np.abs(kl.second_diff_se) <= 4.0))
    report("criterion 7 (loop soup: counts, occupation moments, isomorphism)",
           ok,
           f"count {dev_count:.2f} SE; occupation mean max {dev_mean.max():.2f} SE; "
           f"second moment max {dev_second.max():.2f} SE; isomorphism mean max "
           f"{np.abs(kl.mean_diff_se).max():.2f} SE, second max "
           f"{np.abs(kl.second_diff_se).max():.2f} SE")


def test_criterion_8_thread_count_determinism():
    net, gauge = pendant_triangle()
    results = []
    for threads in (1, 2, 5):
        ev = estimate_event_probability(net, gauge, 30_000, seed=9, threads=threads)
        cm = conditional_moment(net, gauge, ("y", "z"), 20_000, seed=10, threads=threads)
        cn = two_point_connectivity(net, ("x", "y"), 20_000, seed=11, threads=threads)
        mm = soup_moments(net, 0.5, 2_000, seed=12, gauge=gauge, threads=threads)
        kl = kl_isomorphism_check(net, gauge, 1_000, seed=13, threads=threads)
        results.append((ev.estimate, ev.std_error, cm.estimate, cm.std_error,
                        cn.estimate, mm.count_mean, float(np.sum(mm.occupation_mean)),
                        float(np.sum(kl.left_mean)), float(np.sum(kl.mean_diff_se))))
    ok = results[0] == results[1] == results[2]
    report("criterion 8 (estimates bit-identical across thread counts)",
           ok, f"threads 1/2/5 tuples equal: {ok}")
