import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ggff import GaugeField, cli, load_network, save_network, spectral
from ggff.cli import main

from conftest import (duplicate_edge_id_pt, factor_orders, holed_grid, polar_annulus,
                      with_conductances)

NETWORKS = Path(__file__).resolve().parent.parent / "networks"

PT_FILE_CONTENT = {
    "vertices": ["b", "x", "y", "z"],
    "boundary": ["b"],
    "edges": [
        {"id": "bx", "u": "b", "v": "x", "conductance": 1.0},
        {"id": "xy", "u": "x", "v": "y", "conductance": 1.0},
        {"id": "yz", "u": "y", "v": "z", "conductance": 1.0, "sigma": -1},
        {"id": "zx", "u": "z", "v": "x", "conductance": 1.0},
    ],
    "name": "PT",
}


@pytest.fixture
def pt_file(tmp_path):
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(PT_FILE_CONTENT))
    return str(path)


def run(args, out):
    code = main(args + ["--output", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def test_validate_ok_and_failing(tmp_path, pt_file):
    code, rep = run(["validate", "--network", pt_file], tmp_path / "v.json")
    assert code == 0 and rep["all_passed"]
    bad = dict(PT_FILE_CONTENT)
    bad["boundary"] = []
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(bad))
    code, rep = run(["validate", "--network", str(bad_file)], tmp_path / "vb.json")
    assert code == 1 and not rep["all_passed"]
    assert any("empty boundary" in p for p in rep["problems"])


def test_duplicate_edge_ids_fail_validate_and_exit_2(tmp_path, capsys):
    """validate names the id and fails; a command that needs the network exits 2."""
    network = tmp_path / "dup.json"
    network.write_text(json.dumps(duplicate_edge_id_pt()))
    code, rep = run(["validate", "--network", str(network)], tmp_path / "v.json")
    assert code == 1 and rep["problems"] == ["duplicate edge id 'e1'"]
    assert main(["identities", "--network", str(network),
                 "--output", str(tmp_path / "i.json")]) == 2
    err = capsys.readouterr().err
    assert "duplicate edge id 'e1'" in err and "Traceback" not in err


def test_malformed_file_exits_2(tmp_path):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    assert main(["validate", "--network", str(f)]) == 2


def test_identities_all_pass(tmp_path, pt_file):
    code, rep = run(["identities", "--network", pt_file], tmp_path / "i.json")
    assert code == 0 and rep["all_passed"]
    named = {c["name"]: c for c in rep["checks"]}
    assert "det_ratio = exp(-negative_holonomy_mass)" in named
    assert all("tolerance" in c for c in rep["checks"])


def test_verify_theorem1_report(tmp_path, pt_file):
    code, rep = run(["verify-theorem1", "--network", pt_file,
                     "--samples", "20000", "--seed", "0"], tmp_path / "t.json")
    assert code == 0 and rep["all_passed"]
    c = rep["checks"][0]
    assert c["kind"] == "monte-carlo"
    assert c["target"] == pytest.approx((3 / 7) ** 0.5, abs=1e-12)
    assert abs(c["estimate"] - c["target"]) <= 3 * c["std_error"]
    assert rep["estimator"]["n_samples"] == 20000


def test_verify_theorem1_trivial_gauge_exact(tmp_path):
    data = json.loads(json.dumps(PT_FILE_CONTENT))
    for e in data["edges"]:
        e.pop("sigma", None)
    f = tmp_path / "triv.json"
    f.write_text(json.dumps(data))
    code, rep = run(["verify-theorem1", "--network", str(f), "--samples", "500"],
                    tmp_path / "tt.json")
    assert code == 0
    c = rep["checks"][0]
    assert c["estimate"] == 1.0 and c["target"] == pytest.approx(1.0, abs=1e-12)


def test_reports_identical_up_to_timestamp(tmp_path, pt_file):
    _, rep1 = run(["verify-theorem1", "--network", pt_file, "--samples", "5000",
                   "--seed", "3"], tmp_path / "a.json")
    _, rep2 = run(["verify-theorem1", "--network", pt_file, "--samples", "5000",
                   "--seed", "3"], tmp_path / "b.json")
    rep1.pop("timestamp")
    rep2.pop("timestamp")
    assert json.dumps(rep1) == json.dumps(rep2)


def test_threads_do_not_change_estimates(tmp_path, pt_file):
    """Whole reports but for the timestamp and the thread count, at 1 and 3
    threads.  Each run has three batches, so a reduction that added them out
    of plan order would change a floating-point sum."""
    annulus = str(NETWORKS / "annulus-6x8.json")
    runs = [["verify-theorem1", "--network", pt_file, "--samples", "9000"],
            ["conditional-moments", "--network", annulus, "--vertices", "r03s07", "r03s00",
             "--samples", "12288"],
            ["loopsoup-test", "--network", annulus, "--soups", "520"]]
    for i, args in enumerate(runs):
        reports = []
        for threads in (1, 3):
            out = tmp_path / f"{i}-{threads}.json"
            code = main([*args, "--seed", "1", "--threads", str(threads), "--output", str(out)])
            text = out.read_text()
            assert f'"threads": {threads}' in text
            reports.append((code, _without(text, "timestamp", "threads")))
        assert reports[0] == reports[1]


def test_seed_env_override(tmp_path, pt_file, monkeypatch):
    monkeypatch.setenv("GGFF_SEED", "77")
    _, rep = run(["verify-theorem1", "--network", pt_file, "--samples", "1000"],
                 tmp_path / "a.json")
    assert rep["seed"] == 77
    _, rep = run(["verify-theorem1", "--network", pt_file, "--samples", "1000",
                  "--seed", "5"], tmp_path / "b.json")
    assert rep["seed"] == 5  # explicit flag beats the environment


def test_validate_reports_the_resolved_seed(tmp_path, pt_file, monkeypatch):
    _, rep = run(["validate", "--network", pt_file, "--seed", "5"], tmp_path / "a.json")
    assert rep["seed"] == 5
    monkeypatch.setenv("GGFF_SEED", "77")
    _, rep = run(["validate", "--network", pt_file], tmp_path / "b.json")
    assert rep["seed"] == 77


def test_conditional_moments_cli(tmp_path, pt_file):
    code, rep = run(["conditional-moments", "--network", pt_file,
                     "--vertices", "y", "z", "--samples", "20000"], tmp_path / "c.json")
    assert code == 0 and rep["all_passed"]
    assert rep["checks"][0]["target"] == pytest.approx(-2 / 7, abs=1e-12)


def test_connectivity_cli(tmp_path, pt_file):
    code, rep = run(["connectivity", "--network", pt_file,
                     "--vertices", "x", "y", "--samples", "20000"], tmp_path / "c.json")
    assert code == 0 and rep["all_passed"]
    import math

    assert rep["checks"][0]["target"] == pytest.approx(
        (2 / math.pi) * math.asin(math.sqrt(3 / 5)), abs=1e-12)


def test_loopsoup_cli(tmp_path, pt_file):
    code, rep = run(["loopsoup-test", "--network", pt_file, "--soups", "2000"],
                    tmp_path / "l.json")
    assert code == 0 and rep["all_passed"]
    names = [c["name"] for c in rep["checks"]]
    assert any("loop count mean" in n for n in names)
    assert any("isomorphism mean" in n for n in names)
    assert any("domination" in n for n in names)


def test_gauge_cli_trivial_and_equivalence(tmp_path, pt_file):
    code, rep = run(["gauge", "--network", pt_file], tmp_path / "g.json")
    assert code == 0 and rep["trivial"] is False
    # an equivalent gauge: flip vertex y, so -1 moves between edges
    other = json.loads(json.dumps(PT_FILE_CONTENT))
    for e in other["edges"]:
        flips = sum(1 for v in (e["u"], e["v"]) if v == "y")
        s = e.get("sigma", 1) * (-1) ** flips
        e["sigma"] = s
    other_file = tmp_path / "other.json"
    other_file.write_text(json.dumps(other))
    code, rep = run(["gauge", "--network", pt_file, "--other", str(other_file)],
                    tmp_path / "g2.json")
    assert code == 0 and rep["equivalent"] is True
    cert = rep["equivalence_certificate"]
    assert cert["y"] == -1 and sum(1 for s in cert.values() if s == -1) == 1
    # an inequivalent one: trivial gauge
    plain = json.loads(json.dumps(PT_FILE_CONTENT))
    for e in plain["edges"]:
        e.pop("sigma", None)
    plain_file = tmp_path / "plain.json"
    plain_file.write_text(json.dumps(plain))
    code, rep = run(["gauge", "--network", pt_file, "--other", str(plain_file)],
                    tmp_path / "g3.json")
    assert rep["equivalent"] is False and rep["equivalence_certificate"] is None


def test_metric_grid_cli(tmp_path, pt_file):
    code, rep = run(["metric-grid", "--network", pt_file, "--grid-points", "6",
                     "--seed", "2"], tmp_path / "m.json")
    assert code == 0 and rep["all_passed"]
    edge = rep["edges"]["y--z"]
    assert len(edge["positions"]) == 6
    assert edge["middle_limit_below"] == -edge["middle_limit_above"]
    assert "middle_limit_below" not in rep["edges"]["x--y"]


def child_env(**extra: str) -> dict:
    """The environment, ggff's source directory first on PYTHONPATH, and extra:
    pytest's pythonpath setting does not reach child processes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            **extra}


def test_console_script_entry_point(tmp_path, pt_file):
    out = tmp_path / "r.json"
    proc = subprocess.run([sys.executable, "-m", "ggff.cli", "identities",
                           "--network", pt_file, "--output", str(out)],
                          env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["all_passed"]


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_RUNS = {
    "verify-theorem1": ["--samples", "4000"],
    "conditional-moments": ["--vertices", "y", "z", "--samples", "4000"],
    "connectivity": ["--vertices", "x", "y", "--samples", "4000"],
    "loopsoup-test": ["--soups", "400"],
    # polar_annulus(6, 8) of conftest: 48 interior vertices, two batches of
    # 4,096 samples, several cluster-labelling chunks per batch
    "annulus-6x8/verify-theorem1": ["--samples", "8192"],
    "annulus-6x8/conditional-moments": ["--vertices", "r03s07", "r03s00",
                                        "--samples", "8192"],
    "annulus-6x8/connectivity": ["--vertices", "r03s07", "r03s00", "--samples", "8192"],
    "annulus-6x8/loopsoup-test": ["--soups", "400"],
    "identities": [],
    "annulus-6x8/identities": [],
    "validate": [],
    "gauge": [],
    "annulus-6x8/gauge": [],
    "metric-grid": ["--grid-points", "4"],
}


# the annulus sampling goldens have two batches each; they are also run at
# two threads
THREADED_GOLDEN_RUNS = ("annulus-6x8/verify-theorem1", "annulus-6x8/conditional-moments",
                        "annulus-6x8/connectivity", "annulus-6x8/loopsoup-test")


def _without(text: str, *keys: str) -> list[str]:
    return [line for line in text.splitlines()
            if not line.lstrip().startswith(tuple(f'"{k}"' for k in keys))]


def numeric_diff(golden: str, fresh: str, *keys: str) -> str:
    """One line per numeric field, keys left out, whose value differs between
    two reports: its path (a check by its name), the golden and the fresh
    value, and their absolute and relative difference."""
    lines = []

    def walk(path: str, a, b) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for k in a:
                if k in b and k not in keys:
                    walk(f"{path}.{k}" if path else k, a[k], b[k])
        elif isinstance(a, list) and isinstance(b, list):
            for i, (x, y) in enumerate(zip(a, b)):
                label = x.get("name", i) if isinstance(x, dict) else i
                walk(f"{path}[{label}]", x, y)
        elif (all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
              and a != b):
            gap = abs(b - a)
            rel = gap / abs(a) if a else float("inf")
            lines.append(f"{path}: golden {a!r}, fresh {b!r}, abs {gap:.3g}, rel {rel:.3g}")

    walk("", json.loads(golden), json.loads(fresh))
    return "\n".join(["numeric fields that differ:", *lines])


_GOLDEN_CHILD = """
import json, sys
from ggff.cli import main
runs, out = json.loads(sys.argv[1]), sys.argv[2]
codes = []
for i, (command, args) in enumerate(runs):
    network, _, name = command.rpartition("/")
    codes.append(main([name, "--network", f"{network or 'pt'}.json", "--seed", "11",
                       *args, "--output", f"{out}/{i}.json"]))
print(json.dumps(codes))
"""


@pytest.fixture(scope="module")
def golden_reports(tmp_path_factory):
    """Every golden run's exit code and report text by (command, threads),
    made in one child process with one BLAS thread: the identity residuals'
    last bits depend on how OpenBLAS splits a factorization over threads,
    which follows the host's core count unless it is fixed before numpy
    loads."""
    out = tmp_path_factory.mktemp("golden")
    env = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    keys = [(command, 1) for command in sorted(GOLDEN_RUNS)]
    keys += [(command, 2) for command in THREADED_GOLDEN_RUNS]
    runs = [(command, [*GOLDEN_RUNS[command], "--threads", str(threads)])
            for command, threads in keys]
    proc = subprocess.run([sys.executable, "-c", _GOLDEN_CHILD, json.dumps(runs), str(out)],
                          cwd=NETWORKS, env=env, capture_output=True, text=True, check=True)
    codes = json.loads(proc.stdout)
    return {key: (code, (out / f"{i}.json").read_text())
            for i, (key, code) in enumerate(zip(keys, codes))}


@pytest.mark.parametrize("command", sorted(GOLDEN_RUNS))
def test_reports_match_golden_up_to_timestamp(golden_reports, command):
    """The reports on PT (and, where the run's name has a network prefix, on
    that network) at seed 11 keep every byte but the timestamp of
    tests/golden/, which an earlier version recorded."""
    code, text = golden_reports[command, 1]
    golden = (GOLDEN / f"{command}.json").read_text()
    assert code == 0
    assert _without(text, "timestamp") == _without(golden, "timestamp"), \
        numeric_diff(golden, text, "timestamp")


@pytest.mark.parametrize("command", THREADED_GOLDEN_RUNS)
def test_golden_reports_hold_at_two_threads(golden_reports, command):
    """At --threads 2 the two batches run on two workers; every line but the
    timestamp and the thread count keeps the golden's bytes."""
    code, text = golden_reports[command, 2]
    golden = (GOLDEN / f"{command}.json").read_text()
    assert code == 0 and '"threads": 2' in text
    assert _without(text, "timestamp", "threads") == _without(golden, "timestamp", "threads"), \
        numeric_diff(golden, text, "timestamp", "threads")


def test_identities_pass_past_the_float_range_of_determinants(tmp_path):
    """384 interior vertices: the cover log-det is about 904, so the cover
    determinant itself would overflow a float."""
    net, gauge = polar_annulus(24, 16)
    assert len(net.interior) == 384
    path = tmp_path / "annulus.json"
    save_network(net, path, gauge)
    code, rep = run(["identities", "--network", str(path)], tmp_path / "i.json")
    assert code == 0 and rep["all_passed"]
    assert len(rep["checks"]) == 15 and all(c["passed"] for c in rep["checks"])


def test_identities_pass_on_grid20_by_the_banded_route(tmp_path, monkeypatch):
    """holed_grid(20, 0): 400 interior vertices, subdivisions of 2,080 and
    3,760.  The four subdivided Laplacians take the banded route; L, L_sigma,
    L_{vs.sigma}, the cover Laplacian and its two blocks are factored densely."""
    net, gauge = holed_grid(20, 0)
    path = tmp_path / "grid20.json"
    save_network(net, path, gauge)
    dense = factor_orders(monkeypatch, "cho_factor")
    banded = factor_orders(monkeypatch, "cholesky_banded")
    code, rep = run(["identities", "--network", str(path)], tmp_path / "i.json")
    assert code == 0 and rep["all_passed"]
    assert len(rep["checks"]) == 15 and all(c["passed"] for c in rep["checks"])
    assert banded == [2080, 2080, 3760, 3760]
    assert len(dense) == 6 and max(dense) <= spectral.DENSE_MAX_ORDER


@pytest.mark.parametrize("case", ["pt", "annulus-6x8", "holed_grid(20, 0)"])
def test_a_repeated_suite_matches_a_fresh_one_byte_for_byte(case):
    """A second suite on one gauge reads the cover, the subdivisions and
    vs.sigma that the first cached on it, and reports the bytes of a suite on
    a freshly loaded network.  holed_grid(20, 0)'s subdivisions are banded."""
    def fresh():
        return holed_grid(20, 0) if case.startswith("holed") else load_network(
            NETWORKS / f"{case}.json")

    net, gauge = fresh()
    first = json.dumps(cli.identity_checks(net, gauge))
    assert json.dumps(cli.identity_checks(net, gauge)) == first
    assert json.dumps(cli.identity_checks(*fresh())) == first


def test_non_positive_definite_subdivision_on_the_banded_route_exits_2(
        tmp_path, pt_file, monkeypatch, capsys):
    real = cli.subdivide

    def negated(net, gauge, n):
        sub, gauge_n = real(net, gauge, n)
        bad = with_conductances(sub.network, [-e.conductance for e in sub.network.edges])
        return dataclasses.replace(sub, network=bad), GaugeField(bad, dict(gauge_n.signs))

    monkeypatch.setattr(cli, "subdivide", negated)
    monkeypatch.setattr(spectral, "DENSE_MAX_ORDER", 0)
    assert main(["identities", "--network", pt_file,
                 "--output", str(tmp_path / "i.json")]) == 2
    err = capsys.readouterr().err
    assert "error: untwisted Laplacian is not positive definite" in err
    assert "Traceback" not in err and not (tmp_path / "i.json").exists()


def test_arithmetic_error_exits_2(tmp_path, pt_file, monkeypatch, capsys):
    def overflow(net, gauge):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "identity_checks", overflow)
    assert main(["identities", "--network", pt_file,
                 "--output", str(tmp_path / "i.json")]) == 2
    assert "error: math range error" in capsys.readouterr().err
    assert not (tmp_path / "i.json").exists()


@pytest.mark.parametrize("case", ["missing network", "unwritable output", "number vertices",
                                  "string vertices", "object edges"])
def test_bad_files_exit_2_without_a_traceback(tmp_path, pt_file, capsys, case):
    network, output = pt_file, tmp_path / "r.json"
    if case == "missing network":
        network = str(tmp_path / "missing.json")
    elif case == "unwritable output":
        output = tmp_path / "no-such-dir" / "r.json"
    else:
        field, value = {"number vertices": ("vertices", 5),
                        "string vertices": ("vertices", "bxyz"),
                        "object edges": ("edges", {})}[case]
        network = tmp_path / "bad.json"
        network.write_text(json.dumps({**PT_FILE_CONTENT, field: value}))
    for command in (["validate"], ["verify-theorem1", "--samples", "10"]):
        assert main([*command, "--network", str(network), "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not output.exists()


def test_dump_matrices_writes_the_four_operators(tmp_path, pt_file):
    """Each CSV is byte-equal to write_csv of laplacian, twisted_laplacian,
    green or twisted_green, on PT and on the 6 x 8 annulus."""
    for name, path in (("pt", pt_file), ("annulus", str(NETWORKS / "annulus-6x8.json"))):
        dump, ref = tmp_path / f"{name}-dump", tmp_path / f"{name}-ref"
        ref.mkdir()
        assert main(["identities", "--network", path, "--dump-matrices", str(dump),
                     "--output", str(tmp_path / f"{name}-report.json")]) == 0
        net, gauge = load_network(path)
        for label, mat in (("laplacian", spectral.laplacian(net)),
                           ("twisted_laplacian", spectral.twisted_laplacian(net, gauge)),
                           ("green", spectral.green(net)),
                           ("twisted_green", spectral.twisted_green(net, gauge))):
            spectral.write_csv(mat, ref / f"{label}.csv")
            assert (dump / f"{label}.csv").read_bytes() == (ref / f"{label}.csv").read_bytes()
        assert sorted(p.name for p in dump.iterdir()) == sorted(p.name for p in ref.iterdir())


def test_binomial_verdict_with_zero_wald_error_uses_the_target_error():
    q = 1.0 - 4.1e-8
    check = cli._check_mc("event", 1.0, q, 0.0, 3.0, n=4096)
    assert check["passed"] and check["std_error"] == pytest.approx((q * (1 - q) / 4096) ** 0.5)
    # a wrong target still fails: 0.01 away is more than 3 target SEs (4.7e-3)
    assert not cli._check_mc("event", 1.0, 0.99, 0.0, 3.0, n=4096)["passed"]
    assert not cli._check_mc("event", 0.0, 0.01, 0.0, 3.0, n=4096)["passed"]
    # an estimate that is not a proportion keeps the absolute fallback
    assert not cli._check_mc("count", 1.0, q, 0.0, 3.0)["passed"]


def test_count_verdict_with_zero_sample_error_uses_the_target_error():
    n = 4000
    check = cli._check_mc("count", 0.0, 2.07e-8, 0.0, 3.0, n, poisson=True)
    assert check["passed"] and check["std_error"] == pytest.approx((2.07e-8 / n) ** 0.5)
    assert "sqrt(m/n)" in check["tolerance"]
    # a zero count passes targets up to k^2/n = 9/n, and no further
    assert cli._check_mc("count", 0.0, 8.9 / n, 0.0, 3.0, n, poisson=True)["passed"]
    assert not cli._check_mc("count", 0.0, 9.1 / n, 0.0, 3.0, n, poisson=True)["passed"]
    assert not cli._check_mc("count", 0.0, 0.01, 0.0, 3.0, n, poisson=True)["passed"]
    # the same count in every soup, far from the target, fails
    assert not cli._check_mc("count", 2.0, 1.0, 0.0, 3.0, n, poisson=True)["passed"]
    # a positive sample error and a proportion keep their verdicts and bytes
    for poisson in (False, True):
        assert (cli._check_mc("count", 1.0, 1.1, 0.05, 3.0, n, poisson=poisson)
                == cli._check_mc("count", 1.0, 1.1, 0.05, 3.0))
    assert cli._check_mc("event", 1.0, 0.999, 0.0, 3.0, n) == \
        cli._check_mc("event", 1.0, 0.999, 0.0, 3.0, n, poisson=False)


def test_holonomy_count_of_zero_passes_a_tiny_target(tmp_path):
    """On the holed grid no soup holds a holonomy -1 loop (target 2.07e-8 per
    soup), so that count's sample standard error is 0.  Only this verdict is
    asserted: at 3 SE the per-vertex occupation checks may fail by chance."""
    net, gauge = holed_grid()
    path = tmp_path / "holed.json"
    save_network(net, path, gauge)
    _, rep = run(["loopsoup-test", "--network", str(path), "--soups", "200", "--seed", "3"],
                 tmp_path / "s.json")
    check = next(c for c in rep["checks"] if c["name"].startswith("holonomy -1 loop count"))
    assert check["estimate"] == 0.0 and check["target"] == pytest.approx(2.074e-8, rel=1e-3)
    assert check["std_error"] == pytest.approx((check["target"] / 200) ** 0.5)
    assert check["passed"]


def test_event_in_every_sample_passes_and_a_wrong_target_fails(tmp_path, monkeypatch):
    """On the holed grid every sample lands in the event (P(T) = 1 - 4.1e-8),
    so the Wald standard error is 0."""
    net, gauge = holed_grid()
    path = tmp_path / "holed.json"
    save_network(net, path, gauge)
    args = ["verify-theorem1", "--network", str(path), "--samples", "1024"]
    code, rep = run(args, tmp_path / "t.json")
    assert rep["estimator"]["estimate"] == 1.0 and rep["estimator"]["std_error"] == 0.0
    assert code == 0 and rep["all_passed"]

    estimate = cli.gff.estimate_event_probability

    def wrong_target(*a, **kw):
        return dataclasses.replace(estimate(*a, **kw), target=0.99)

    monkeypatch.setattr(cli.gff, "estimate_event_probability", wrong_target)
    code, rep = run(args, tmp_path / "w.json")
    assert code == 1 and not rep["all_passed"]


@pytest.mark.parametrize("args, words", [
    (["verify-theorem1", "--samples", "0"], "at least 1, got 0"),
    (["conditional-moments", "--vertices", "y", "z", "--samples", "0"], "at least 1, got 0"),
    (["connectivity", "--vertices", "x", "y", "--samples", "0"], "at least 1, got 0"),
    (["connectivity", "--vertices", "x", "y", "--samples", "-3"], "at least 1, got -3"),
    (["loopsoup-test", "--soups", "0"], "at least 1, got 0"),
    (["loopsoup-test", "--alpha", "nan"], "alpha must be positive and finite, got nan"),
    (["loopsoup-test", "--alpha", "inf"], "alpha must be positive and finite, got inf"),
    (["loopsoup-test", "--alpha=-inf"], "alpha must be positive and finite, got -inf"),
    (["verify-theorem1", "--samples", "10", "--threads", "0"],
     "--threads must be at least 1, got 0"),
    (["connectivity", "--vertices", "x", "y", "--threads", "-2"],
     "--threads must be at least 1, got -2"),
    (["identities", "--seed", "-1"], "--seed must be a non-negative integer, got -1")])
def test_bad_sample_counts_and_alpha_exit_2(tmp_path, pt_file, capsys, args, words):
    assert main([*args, "--network", pt_file, "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and words in err


@pytest.mark.parametrize("value", ["abc", "-4"])
def test_bad_seed_environment_exits_2(tmp_path, pt_file, capsys, monkeypatch, value):
    monkeypatch.setenv("GGFF_SEED", value)
    out = tmp_path / "r.json"
    assert main(["verify-theorem1", "--network", pt_file, "--samples", "10",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: GGFF_SEED must be a non-negative integer, got {value!r}\n"
    assert not out.exists()


SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "report.schema.json"
FRESH_RUNS = {
    "validate": [],
    "identities": [],
    "verify-theorem1": ["--samples", "500"],
    "conditional-moments": ["--vertices", "y", "z", "--samples", "500"],
    "connectivity": ["--vertices", "x", "y", "--samples", "500"],
    "loopsoup-test": ["--soups", "50"],
    "gauge": [],
    "metric-grid": ["--grid-points", "3"],
}


@pytest.mark.parametrize("command", sorted(GOLDEN_RUNS))
def test_golden_reports_match_the_schema(command):
    jsonschema = pytest.importorskip("jsonschema")
    report = json.loads((GOLDEN / f"{command}.json").read_text())
    jsonschema.validate(report, json.loads(SCHEMA.read_text()))


@pytest.mark.parametrize("command", sorted(FRESH_RUNS))
def test_fresh_reports_match_the_schema(tmp_path, pt_file, command):
    jsonschema = pytest.importorskip("jsonschema")
    code, report = run([command, "--network", pt_file, *FRESH_RUNS[command]],
                       tmp_path / "r.json")
    assert code in (0, 1)
    jsonschema.validate(report, json.loads(SCHEMA.read_text()))


def test_schema_requires_a_tolerance_on_every_verdict():
    jsonschema = pytest.importorskip("jsonschema")
    report = json.loads((GOLDEN / "loopsoup-test.json").read_text())
    assert report["checks"][0]["kind"] == "monte-carlo"
    del report["checks"][0]["tolerance"]
    with pytest.raises(jsonschema.ValidationError, match="'tolerance' is a required property"):
        jsonschema.validate(report, json.loads(SCHEMA.read_text()))
