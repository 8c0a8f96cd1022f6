import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ggff import cli, save_network
from ggff.cli import main

from conftest import holed_grid, polar_annulus


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
    _, rep1 = run(["verify-theorem1", "--network", pt_file, "--samples", "9000",
                   "--seed", "1", "--threads", "1"], tmp_path / "a.json")
    _, rep4 = run(["verify-theorem1", "--network", pt_file, "--samples", "9000",
                   "--seed", "1", "--threads", "4"], tmp_path / "b.json")
    assert rep1["estimator"]["estimate"] == rep4["estimator"]["estimate"]


def test_seed_env_override(tmp_path, pt_file, monkeypatch):
    monkeypatch.setenv("GGFF_SEED", "77")
    _, rep = run(["verify-theorem1", "--network", pt_file, "--samples", "1000"],
                 tmp_path / "a.json")
    assert rep["seed"] == 77
    _, rep = run(["verify-theorem1", "--network", pt_file, "--samples", "1000",
                  "--seed", "5"], tmp_path / "b.json")
    assert rep["seed"] == 5  # explicit flag beats the environment


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


def test_console_script_entry_point(tmp_path, pt_file):
    out = tmp_path / "r.json"
    proc = subprocess.run([sys.executable, "-m", "ggff.cli", "identities",
                           "--network", pt_file, "--output", str(out)],
                          capture_output=True, text=True)
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


def _without_timestamp(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.lstrip().startswith('"timestamp"')]


_GOLDEN_CHILD = """
import json, sys
from ggff.cli import main
runs, out = json.loads(sys.argv[1]), sys.argv[2]
codes = {}
for i, (command, args) in enumerate(sorted(runs.items())):
    network, _, name = command.rpartition("/")
    codes[command] = main([name, "--network", f"{network or 'pt'}.json", "--seed", "11",
                           *args, "--output", f"{out}/{i}.json"])
print(json.dumps(codes))
"""


@pytest.fixture(scope="module")
def golden_reports(tmp_path_factory):
    """Every golden run's exit code and report text, made in one child process
    with one BLAS thread: the identity residuals' last bits depend on how
    OpenBLAS splits a factorization over threads, which follows the host's
    core count unless it is fixed before numpy loads."""
    out = tmp_path_factory.mktemp("golden")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _GOLDEN_CHILD, json.dumps(GOLDEN_RUNS), str(out)],
                          cwd=Path(__file__).resolve().parent.parent / "networks", env=env,
                          capture_output=True, text=True, check=True)
    codes = json.loads(proc.stdout)
    return {command: (codes[command], (out / f"{i}.json").read_text())
            for i, command in enumerate(sorted(GOLDEN_RUNS))}


@pytest.mark.parametrize("command", sorted(GOLDEN_RUNS))
def test_reports_match_golden_up_to_timestamp(golden_reports, command):
    """The reports on PT (and, where the run's name has a network prefix, on
    that network) at seed 11 keep every byte but the timestamp of
    tests/golden/, which an earlier version recorded."""
    code, text = golden_reports[command]
    golden = (GOLDEN / f"{command}.json").read_text()
    assert code == 0
    assert _without_timestamp(text) == _without_timestamp(golden)


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


def test_arithmetic_error_exits_2(tmp_path, pt_file, monkeypatch, capsys):
    def overflow(net, gauge):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "identity_checks", overflow)
    assert main(["identities", "--network", pt_file,
                 "--output", str(tmp_path / "i.json")]) == 2
    assert "error: math range error" in capsys.readouterr().err
    assert not (tmp_path / "i.json").exists()


def test_binomial_verdict_with_zero_wald_error_uses_the_target_error():
    q = 1.0 - 4.1e-8
    check = cli._check_mc("event", 1.0, q, 0.0, 3.0, n=4096)
    assert check["passed"] and check["std_error"] == pytest.approx((q * (1 - q) / 4096) ** 0.5)
    # a wrong target still fails: 0.01 away is more than 3 target SEs (4.7e-3)
    assert not cli._check_mc("event", 1.0, 0.99, 0.0, 3.0, n=4096)["passed"]
    assert not cli._check_mc("event", 0.0, 0.01, 0.0, 3.0, n=4096)["passed"]
    # an estimate that is not a proportion keeps the absolute fallback
    assert not cli._check_mc("count", 1.0, q, 0.0, 3.0)["passed"]


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
