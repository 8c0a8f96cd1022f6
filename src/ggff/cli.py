"""Experiment runner: loads a network, dispatches computations and Monte
Carlo estimators, and writes machine-readable JSON reports.

Every numeric verdict names its tolerance and whether it is a closed-form
identity or a Monte Carlo comparison.  The process exits 0 exactly when all
verdicts pass.  Reports are byte-identical across reruns with the same
configuration and seed, except for the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import gff, loopsoup, spectral
from .gauge import apply_gauge_transform, are_gauge_equivalent, is_trivial
from .network import (ElectricalNetwork, GaugeField, InvalidNetworkError,
                      NetworkFormatError, VertexSigns, cached_on, load_network, subdivide)

EXACT_TOL = 1e-10
SUBDIVISION_TOL = 1e-8
DEGENERATE_TOL = 1e-12  # for estimators with zero standard error


def _verdict(name: str, kind: str, passed, tolerance: str | None = None, **fields) -> dict:
    """A report's check: name, kind, fields, tolerance and passed, in that
    order.  Only a diagnostic, whose passed is None, has no tolerance."""
    tol = {} if kind == "diagnostic" else {"tolerance": tolerance}
    return {"name": name, "kind": kind, **fields, **tol,
            "passed": None if passed is None else bool(passed)}


def _check_exact(name: str, residual: float, tol: float = EXACT_TOL) -> dict:
    return _verdict(name, "closed-form", abs(residual) <= tol, f"abs <= {tol:g}", value=residual)


def _check_mc(name: str, estimate: float, target: float, se: float,
              k: float = 3.0, n: int | None = None, poisson: bool = False) -> dict:
    """With n, the estimate is the mean of n samples, a proportion or, with
    poisson, a Poisson count: when its sample standard error is 0 (no sample,
    or every sample, in the event; the same count in every sample), the
    target's own standard error takes its place, sqrt(q(1-q)/n) for a
    proportion q and sqrt(m/n) for a count of mean m."""
    if se == 0 and n is not None:
        if poisson:
            se = math.sqrt(max(target, 0.0) / n)
            tol = f"{k:g} standard errors of the target, sqrt(m/n) (zero sample standard error)"
        else:
            se = math.sqrt(max(target * (1.0 - target), 0.0) / n)
            tol = (f"{k:g} standard errors of the target, sqrt(q(1-q)/n) "
                   "(zero Wald standard error)")
        passed = abs(estimate - target) <= k * se
    elif se > 0:
        passed = abs(estimate - target) <= k * se
        tol = f"{k:g} standard errors"
    else:
        passed = abs(estimate - target) <= DEGENERATE_TOL
        tol = f"abs <= {DEGENERATE_TOL:g} (zero standard error)"
    return _verdict(name, "monte-carlo", passed, tol, estimate=estimate, target=target,
                    std_error=se)


def _alternating(net: ElectricalNetwork, gauge: GaugeField) -> tuple[VertexSigns, GaugeField]:
    """The alternating vertex signs vs, in sorted id order, and vs.sigma."""
    vs = VertexSigns(net, {v: (1 if i % 2 == 0 else -1)
                           for i, v in enumerate(sorted(net.vertices))})
    return vs, apply_gauge_transform(vs, gauge)


def identity_checks(net: ElectricalNetwork, gauge: GaugeField) -> list[dict]:
    """The exact-identity suite at tolerance 1e-10 (1e-8 across two solves).

    Each distinct operator is assembled and factored once per gauge: L on net;
    L_sigma, L_{vs.sigma} for the alternating vertex signs vs, the cover's and
    the four subdivided Laplacians through what gauge caches.  Only the cover
    Laplacian's two sheet-symmetric blocks are factored on every call.
    """
    from .cover import build_double_cover

    cov = build_double_cover(net, gauge)  # refuses a gauge of another network
    vs, gauge_vs = cached_on(gauge, "_alternating", lambda: _alternating(net, gauge))
    lap, lap_s = spectral.laplacian(net), spectral.twisted_laplacian(net, gauge)
    lap_db = spectral.cover_laplacian(cov)

    checks: list[dict] = []
    ratio = spectral.det_ratio(net, gauge)
    neg_mass = spectral.negative_holonomy_mass(net, gauge)
    checks.append(_check_exact("det_ratio = exp(-negative_holonomy_mass)",
                               ratio - math.exp(-neg_mass)))
    checks.append(_verdict("det_ratio in (0, 1]", "closed-form", 0.0 < ratio <= 1.0 + 1e-12,
                           "0 < value <= 1 + 1e-12", value=ratio))

    # determinant identities as log-determinant differences: the determinants
    # themselves overflow once a log-det passes about 709.8
    ld_m, ld_ms = lap.log_det(), lap_s.log_det()
    ld_plus, ld_minus = spectral.subspace_log_determinants_of(cov, lap_db)
    checks.append(_check_exact("subspace det_plus = 1/det G (relative)",
                               math.expm1(ld_plus - ld_m)))
    checks.append(_check_exact("subspace det_minus = 1/det G_sigma (relative)",
                               math.expm1(ld_minus - ld_ms)))
    checks.append(_check_exact("det_plus * det_minus = cover det (relative)",
                               math.expm1(ld_plus + ld_minus - lap_db.log_det())))

    g, gs = spectral.green_of(lap), spectral.green_of(lap_s)
    rep = spectral.cover_green_relations_of(cov, g, gs, spectral.green_of(lap_db))
    checks.append(_check_exact("cover Green sheet-sum residual", rep.residual_untwisted))
    checks.append(_check_exact("cover Green sheet-difference residual", rep.residual_twisted))
    checks.append(_check_exact("cover Green deck symmetry residual", rep.residual_deck))

    checks.append(_check_exact("gauge covariance residual (alternating transform)",
                               spectral.gauge_covariance_residual_of(
                                   vs, gs, spectral.twisted_green(net, gauge_vs))))
    checks.append(_check_exact("det_ratio gauge invariance",
                               spectral.det_ratio(net, gauge_vs) - ratio))

    checks.append(_check_exact("twisted Green diagonal positivity margin",
                               min(0.0, float(np.min(np.diag(gs.entries))))))
    for n_sub in (3, 5):
        sub, gauge_n = subdivide(net, gauge, n_sub)
        gn = spectral.restricted_green(sub.network, g.interior_order)
        gns = spectral.restricted_green(sub.network, g.interior_order, gauge_n)
        res_u = float(np.max(np.abs(gn.entries - g.entries)))
        res_t = float(np.max(np.abs(gns.entries - gs.entries)))
        checks.append(_check_exact(f"subdivision N={n_sub} Green restriction residual",
                                   res_u, SUBDIVISION_TOL))
        checks.append(_check_exact(f"subdivision N={n_sub} twisted Green restriction residual",
                                   res_t, SUBDIVISION_TOL))
    return checks


def _resolve_seed(args) -> int:
    """--seed, else the GGFF_SEED environment variable, else 0."""
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    env = os.environ.get("GGFF_SEED", "0")
    if not env.isdecimal():
        raise ValueError(f"GGFF_SEED must be a non-negative integer, got {env!r}")
    return int(env)


def _emit(report: dict, args) -> int:
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    return 0 if report.get("all_passed", True) else 1


def _envelope(args, network_name: str, parameters: dict) -> dict:
    return {
        "command": args.command,
        "network_file": args.network,
        "seed": args.seed,
        "threads": args.threads,
        "parameters": parameters,
        "network_name": network_name,
    }


def _finish(report: dict, checks: list[dict]) -> dict:
    report["checks"] = checks
    report["all_passed"] = all(c["passed"] for c in checks if c["passed"] is not None)
    return report


def cmd_validate(args) -> int:
    try:
        net, _ = load_network(args.network)
        problems, name = [], net.name
    except InvalidNetworkError as exc:
        problems, name = exc.problems, ""
    report = _envelope(args, name, {})
    report["problems"] = problems
    report["all_passed"] = not problems
    report["checks"] = [_verdict("network invariants", "closed-form", not problems,
                                 "no violations", value=problems)]
    return _emit(report, args)


def cmd_identities(args) -> int:
    net, gauge = load_network(args.network)
    report = _envelope(args, net.name, {"dump_matrices": args.dump_matrices})
    if args.dump_matrices:
        os.makedirs(args.dump_matrices, exist_ok=True)
        lap, lap_s = spectral.laplacian(net), spectral.twisted_laplacian(net, gauge)
        for label, mat in (("laplacian", lap), ("twisted_laplacian", lap_s),
                           ("green", spectral.green_of(lap)),
                           ("twisted_green", spectral.green_of(lap_s))):
            spectral.write_csv(mat, os.path.join(args.dump_matrices, f"{label}.csv"))
    return _emit(_finish(report, identity_checks(net, gauge)), args)


def cmd_estimator(args) -> int:
    """verify-theorem1, conditional-moments and connectivity: one estimate
    and its Monte Carlo verdict, the two proportions with their sample count
    for the zero-standard-error case."""
    net, gauge = load_network(args.network)
    parameters = {"samples": args.samples}
    if args.command == "verify-theorem1":
        est = gff.estimate_event_probability(net, gauge, args.samples, args.seed,
                                             threads=args.threads)
        name, n = "event probability = sqrt(det G_sigma / det G)", est.n_samples
    else:
        x, y = args.vertices
        parameters["vertices"] = [x, y]
        if args.command == "conditional-moments":
            est = gff.conditional_moment(net, gauge, (x, y), args.samples, args.seed,
                                         threads=args.threads)
            name, n = f"conditioned flipped moment at ({x},{y}) = G_sigma({x},{y})", None
        else:
            est = gff.two_point_connectivity(net, (x, y), args.samples, args.seed,
                                             threads=args.threads)
            name, n = f"same-cluster probability at ({x},{y}) = arcsine formula", est.n_samples
    report = _envelope(args, net.name, parameters)
    report["estimator"] = est.to_json_dict()
    checks = [_check_mc(name, est.estimate, est.target, est.std_error, 3.0, n)]
    return _emit(_finish(report, checks), args)


def cmd_loopsoup_test(args) -> int:
    net, gauge = load_network(args.network)
    mom = loopsoup.soup_moments(net, args.alpha, args.soups, args.seed, gauge=gauge,
                                threads=args.threads)
    checks = [_check_mc("multi-vertex loop count mean = alpha * loop_mass",
                        mom.count_mean, mom.count_target, mom.count_se, 3.0,
                        mom.n_soups, poisson=True)]
    checks.append(_verdict("multi-vertex loop count variance (Poisson: equals mean)",
                           "diagnostic", None, value=mom.count_var, target=mom.count_mean))
    checks.append(_check_mc("holonomy -1 loop count mean = alpha * negative_holonomy_mass",
                            mom.negative_count_mean, mom.negative_count_target,
                            mom.negative_count_se, 3.0, mom.n_soups, poisson=True))
    for i, v in enumerate(mom.vertices):
        checks.append(_check_mc(f"occupation mean at {v} = alpha * G({v},{v})",
                                float(mom.occupation_mean[i]),
                                float(mom.occupation_mean_target[i]),
                                float(mom.occupation_mean_se[i]), 3.0))
        checks.append(_check_mc(f"occupation second moment at {v}",
                                float(mom.occupation_second[i]),
                                float(mom.occupation_second_target[i]),
                                float(mom.occupation_second_se[i]), 4.0))
    kl = loopsoup.kl_isomorphism_check(net, gauge, args.soups, args.seed,
                                       threads=args.threads)
    for i, v in enumerate(kl.vertices):
        checks.append(_verdict(f"split-soup isomorphism mean at {v}", "monte-carlo",
                               abs(kl.mean_diff_se[i]) <= 4.0, "4 standard errors",
                               estimate=float(kl.left_mean[i]),
                               target=float(kl.right_mean[i]), std_error=None,
                               discrepancy_se=float(kl.mean_diff_se[i])))
        checks.append(_verdict(f"split-soup isomorphism second moment at {v}", "monte-carlo",
                               abs(kl.second_diff_se[i]) <= 4.0, "4 standard errors",
                               discrepancy_se=float(kl.second_diff_se[i])))
    checks.append(_verdict("stochastic domination of twisted square field", "monte-carlo",
                           kl.domination_margin_se >= -4.0, ">= -4 standard errors",
                           worst_decile_margin_se=kl.domination_margin_se))
    report = _envelope(args, net.name, {"soups": args.soups, "alpha": args.alpha})
    return _emit(_finish(report, checks), args)


def cmd_gauge(args) -> int:
    net, gauge = load_network(args.network)
    report = _envelope(args, net.name, {"other": args.other})
    checks: list[dict] = []
    trivial, cert = is_trivial(gauge)
    report["trivial"] = trivial
    report["triviality_certificate"] = ({v: cert.signs[v] for v in sorted(cert.signs)}
                                        if cert else None)
    if cert is not None:
        resid = 0 if apply_gauge_transform(cert, gauge).signs == GaugeField.all_plus(net).signs \
            else 1
        checks.append(_check_exact("triviality certificate verifies exactly", float(resid), 0.0))
    if args.other:
        net2, gauge2 = load_network(args.other)
        if (net2.vertex_set != net.vertex_set or net2.boundary != net.boundary
                or set(net2.edge_map) != set(net.edge_map)
                or any(net2.edge_map[k].conductance != net.edge_map[k].conductance
                       for k in net.edge_map)):
            raise NetworkFormatError("second file describes a different network")
        other = GaugeField(net, {k: gauge2.signs[k] for k in net.sorted_edge_keys})
        cert2 = are_gauge_equivalent(gauge, other)
        report["equivalent"] = cert2 is not None
        report["equivalence_certificate"] = ({v: cert2.signs[v] for v in sorted(cert2.signs)}
                                             if cert2 else None)
        if cert2 is not None:
            ok = apply_gauge_transform(cert2, gauge).signs == other.signs
            checks.append(_check_exact("equivalence certificate verifies exactly",
                                       0.0 if ok else 1.0, 0.0))
    return _emit(_finish(report, checks), args)


def cmd_metric_grid(args) -> int:
    net, gauge = load_network(args.network)
    grid = gff.sample_metric_field(net, gauge, args.grid_points, args.seed)
    edges_out = {}
    worst = 0.0
    for k, ef in grid.edges.items():
        d = {"positions": [float(p) for p in ef.positions],
             "values": [float(x) for x in ef.values]}
        if ef.middle_limits is not None:
            lo, hi = ef.middle_limits
            d["middle_limit_below"] = lo
            d["middle_limit_above"] = hi
            worst = max(worst, abs(lo + hi))
        edges_out[f"{k[0]}--{k[1]}"] = d
    report = _envelope(args, net.name, {"grid_points": args.grid_points})
    report["vertex_values"] = {v: grid.vertex_values[v] for v in net.interior}
    report["edges"] = edges_out
    checks = [_check_exact("middle limits are exact negatives (abs-field continuity)",
                           worst, 0.0)]
    return _emit(_finish(report, checks), args)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ggff",
        description="Gauge-twisted Gaussian free fields on electrical networks: "
                    "exact identities and Monte Carlo verification.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, samples_default=None):
        sp.add_argument("--network", required=True, help="network JSON file")
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed (default: GGFF_SEED env var, else 0)")
        sp.add_argument("--threads", type=int, default=1,
                        help="worker count; results are independent of it")
        sp.add_argument("--output", default=None, help="report file (default: stdout)")
        if samples_default is not None:
            sp.add_argument("--samples", type=int, default=samples_default)

    sp = sub.add_parser("validate", help="check network invariants")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("identities", help="exact determinant/Green identity suite")
    common(sp)
    sp.add_argument("--dump-matrices", default=None, metavar="DIR",
                    help="also write Laplacian/Green matrices as CSV into DIR")
    sp.set_defaults(func=cmd_identities)

    sp = sub.add_parser("verify-theorem1",
                        help="Monte Carlo event probability vs the determinant ratio")
    common(sp, samples_default=100_000)
    sp.set_defaults(func=cmd_estimator)

    sp = sub.add_parser("conditional-moments",
                        help="conditioned second moments vs the twisted Green function")
    common(sp, samples_default=100_000)
    sp.add_argument("--vertices", nargs=2, required=True, metavar=("X", "Y"))
    sp.set_defaults(func=cmd_estimator)

    sp = sub.add_parser("connectivity", help="two-point sign-cluster connectivity")
    common(sp, samples_default=100_000)
    sp.add_argument("--vertices", nargs=2, required=True, metavar=("X", "Y"))
    sp.set_defaults(func=cmd_estimator)

    sp = sub.add_parser("loopsoup-test", help="loop soup count/occupation/isomorphism checks")
    common(sp)
    sp.add_argument("--soups", type=int, default=10_000)
    sp.add_argument("--alpha", type=float, default=0.5,
                    help="soup intensity of the loop count and occupation checks; the "
                         "split-soup isomorphism checks run at alpha = 1/2 whatever it is")
    sp.set_defaults(func=cmd_loopsoup_test)

    sp = sub.add_parser("gauge", help="triviality/equivalence with certificates")
    common(sp)
    sp.add_argument("--other", default=None, help="second gauge file to compare")
    sp.set_defaults(func=cmd_gauge)

    sp = sub.add_parser("metric-grid", help="dump a gridded metric-field sample")
    common(sp)
    sp.add_argument("--grid-points", type=int, default=8)
    sp.set_defaults(func=cmd_metric_grid)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        args.seed = _resolve_seed(args)
        return args.func(args)
    except (NetworkFormatError, InvalidNetworkError, ValueError, RuntimeError,
            ArithmeticError, np.linalg.LinAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
