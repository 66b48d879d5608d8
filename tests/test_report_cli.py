import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lossmc import (
    ExperimentConfig,
    ReportRow,
    RiskReport,
    emit_report,
    parse_report,
    reproduce_table1,
    run_experiment,
)
from lossmc.cli import main

SIGMA05_MODEL = {
    "frequency": {"kind": "poisson", "lambda": 2.0},
    "severity": {"kind": "lognormal", "mu": 2.0, "sigma": 0.5},
}
SIGMA1_MODEL = {
    "frequency": {"kind": "poisson", "lambda": 2.0},
    "severity": {"kind": "lognormal", "mu": 2.0, "sigma": 1.0},
}


def _config(model=SIGMA05_MODEL, method=None, levels=(0.5, 0.9), **kw):
    return ExperimentConfig(model=model, method=method or {"kind": "sla"},
                            levels=list(levels), **kw)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        _config(model={"frequency": {"kind": "poisson", "lambda": 2.0}})
    with pytest.raises(ValueError):
        _config(method={"kind": "bootstrap"})
    with pytest.raises(ValueError):
        _config(levels=[])
    with pytest.raises(ValueError):
        _config(levels=[0.5, 1.5])
    with pytest.raises(ValueError):
        _config(output="xml")


def test_config_sorts_levels():
    cfg = _config(levels=[0.99, 0.5, 0.9])
    assert cfg.levels == [0.5, 0.9, 0.99]


def test_config_from_json_rejects_unknown_fields(tmp_path):
    doc = {"model": SIGMA05_MODEL, "method": {"kind": "sla"},
           "levels": [0.9], "budget": 100}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_json(str(path))


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def test_sla_run_hits_benchmark_level():
    report = run_experiment(_config(model=SIGMA1_MODEL, levels=[0.99]))
    assert report.rows[0].method == "sla"
    assert math.floor(report.rows[0].var) == 97


def test_mc_run_with_zero_rate_is_all_zero():
    model = {"frequency": {"kind": "poisson", "lambda": 0.0},
             "severity": {"kind": "lognormal", "mu": 2.0, "sigma": 0.5}}
    report = run_experiment(_config(model=model, method={"kind": "mc", "T": 10},
                                    levels=[0.5, 0.9, 0.99]))
    assert all(row.var == 0.0 for row in report.rows)


def test_runs_are_deterministic(tmp_path):
    cfg = dict(model=SIGMA05_MODEL, method={"kind": "mc", "T": 2000},
               levels=[0.5, 0.9], seed=4711)
    paths = []
    for i in range(2):
        report = run_experiment(_config(**cfg))
        p = tmp_path / f"run{i}.csv"
        emit_report(report, "csv", str(p))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_repeated_runs_emit_identical_bytes(tmp_path):
    """Two runs of one config serialize to the same CSV and JSON bytes; the
    recursion takes long enough that any wall time in the report shows."""
    method = {"kind": "panjer", "step": 0.01, "x_max": 120.0}
    for fmt in ("csv", "json"):
        paths = [tmp_path / f"run{i}.{fmt}" for i in range(2)]
        for p in paths:
            report = run_experiment(_config(method=method, levels=[0.5, 0.99], seed=99))
            emit_report(report, fmt, str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_particle_interval_top_is_clamped_at_unit_mass():
    """At this seed the noisy cumulative mass passes 1 below the grid top,
    so the upper CI level exceeds 1; the bound reads the grid top."""
    method = {"kind": "particle", "x_max": 400.0, "n_per_point": 200}
    report = run_experiment(_config(model=SIGMA1_MODEL, method=method,
                                    levels=[0.5, 0.9, 0.99, 0.999, 0.9995], seed=10))
    assert len(report.rows) == 5
    for row in report.rows:
        assert math.isfinite(row.var) and row.var_lo <= row.var <= row.var_hi
    assert report.rows[-1].var_hi == 400.0


def test_particle_rows_leave_spectral_measure_unset(tmp_path):
    """No method config defines a spectrum, so particle rows print srm as
    n/a, like every other route, instead of the model mean."""
    method = {"kind": "particle", "x_max": 120.0, "n_per_point": 200}
    report = run_experiment(_config(method=method, levels=[0.5, 0.9, 0.99], seed=3))
    assert all(row.srm is None for row in report.rows)
    path = tmp_path / "particle.csv"
    emit_report(report, "csv", str(path))
    assert [line.split(",")[6] for line in path.read_text().splitlines()[1:]] == ["n/a"] * 3


RARE_EVENT = {"kind": "rare-event", "n_particles": 1000, "mh_steps": 2, "replicates": 8}


def test_rare_event_thresholds_share_one_ladder_run():
    """Every threshold's estimate comes from one replicated ladder run, so
    they cannot increase with the threshold.  With one independent run per
    threshold, P(Z > 50.5) came out above P(Z > 50) at this seed and the
    report failed its VaR monotonicity check."""
    method = dict(RARE_EVENT, thresholds=[50.0, 50.5])
    report = run_experiment(_config(method=method, seed=0))
    diag = report.meta["diagnostics"]
    assert 0.0 < diag["p_exceed_50.5"] <= diag["p_exceed_50"]
    assert [row.var for row in report.rows] == [50.0, 50.5]
    assert report.rows[0].alpha <= report.rows[1].alpha


def test_rare_event_thresholds_match_oracle_tail(sigma05_pmf):
    thresholds = [40.0, 50.0, 60.0, 70.0]
    method = dict(RARE_EVENT, thresholds=thresholds, n_particles=2000,
                  mh_steps=3, replicates=16)
    diag = run_experiment(_config(method=method, seed=31)).meta["diagnostics"]
    grid = sigma05_pmf.grid()
    for z in thresholds:
        truth = float(sigma05_pmf.masses[grid > z].sum())
        p_hat, rse = diag[f"p_exceed_{z:g}"], diag[f"rse_{z:g}"]
        assert abs(p_hat - truth) <= 4.0 * rse * p_hat


def test_readme_config_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S)
    assert block is not None
    report = run_experiment(ExperimentConfig(**json.loads(block.group(1))))
    assert [row.method for row in report.rows] == ["sla"] * 3


def test_report_validation_rejects_nonmonotone_var():
    rows = [ReportRow(alpha=0.5, method="mc", var=10.0),
            ReportRow(alpha=0.9, method="mc", var=8.0)]
    with pytest.raises(ValueError, match="nondecreasing"):
        RiskReport(rows=rows, meta={}).validate()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_csv_layout_and_round_trip(tmp_path):
    report = run_experiment(_config(levels=[0.9, 0.99, 0.999]))
    path = tmp_path / "report.csv"
    emit_report(report, "csv", str(path))
    first = path.read_text().splitlines()[0]
    assert first == "alpha,method,var,var_lo,var_hi,es,srm,stderr"
    back = parse_report(str(path), "csv")
    assert len(back.rows) == 3
    for row, orig in zip(back.rows, report.rows):
        assert row.method == orig.method
        assert row.alpha == pytest.approx(orig.alpha)
        assert row.var == pytest.approx(orig.var, rel=1e-5)
        assert row.var_lo is None and row.srm is None


def test_json_layout_and_round_trip(tmp_path):
    report = run_experiment(_config(method={"kind": "mc", "T": 500},
                                    levels=[0.5, 0.95]))
    path = tmp_path / "report.json"
    emit_report(report, "json", str(path))
    doc = json.loads(path.read_text())
    assert set(doc) == {"meta", "rows"}
    assert doc["meta"]["method"] == "mc"
    back = parse_report(str(path), "json")
    for row, orig in zip(back.rows, report.rows):
        assert row.var == pytest.approx(orig.var, rel=1e-5)
        assert row.var_lo == pytest.approx(orig.var_lo, rel=1e-5)


def test_emission_is_bit_stable(tmp_path):
    report = run_experiment(_config(levels=[0.9, 0.99]))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, "json", str(p1))
    emit_report(report, "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    with pytest.raises(ValueError):
        emit_report(report, "yaml", str(tmp_path / "c.yaml"))


# ---------------------------------------------------------------------------
# benchmark table
# ---------------------------------------------------------------------------

def test_table_smoke_run_shape_and_meta():
    report = reproduce_table1("sigma05", scale=1e-4)
    assert len(report.rows) == 21
    methods = [row.method for row in report.rows]
    assert methods.count("mc") == methods.count("particle") == \
        methods.count("sla") == 7
    assert report.meta["preset"] == "sigma05"
    assert report.meta["scale"] == 1e-4
    assert report.meta["seed"] == 82105
    assert report.meta["mc_T"] == 5000
    assert "version" in report.meta
    # the closed-form column is budget-independent
    sla = {row.alpha: row.var for row in report.rows if row.method == "sla"}
    assert tuple(math.floor(sla[a]) for a in (0.99, 0.999, 0.9995)) == (26, 38, 42)


def test_table_simulation_column_at_tenth_budget():
    report = reproduce_table1("sigma1", scale=0.1)
    mc = {row.alpha: row for row in report.rows if row.method == "mc"}
    assert abs(mc[0.95].var - 77.0) <= 2.0
    assert mc[0.95].var_lo <= mc[0.95].var <= mc[0.95].var_hi


def test_table_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reproduce_table1("sigma2")
    with pytest.raises(ValueError):
        reproduce_table1("sigma05", scale=0.0)
    with pytest.raises(ValueError):
        reproduce_table1("sigma05", scale=2.0)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _write_config(tmp_path, method, levels=(0.5, 0.9), model=SIGMA05_MODEL):
    doc = {"model": model, "method": method, "levels": list(levels)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_sla_run(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"kind": "sla"})
    out = tmp_path / "out.json"
    rc = main(["sla", "--config", cfg, "--out", "json", "--path", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(out)
    doc = json.loads(out.read_text())
    assert {row["method"] for row in doc["rows"]} == {"sla"}


def test_cli_table1_smoke(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    rc = main(["table1", "--preset", "sigma05", "--scale", "1e-4",
               "--path", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == str(out)
    assert out.read_text().count("\n") == 22  # header + 21 rows


def test_cli_requires_config(capsys):
    rc = main(["sla"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "requires --config" in err["detail"]


def test_cli_rejects_method_kind_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"kind": "mc", "T": 100})
    rc = main(["sla", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_cli_seed_override_controls_output(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"kind": "mc", "T": 2000})
    paths = [tmp_path / f"r{i}.csv" for i in range(3)]
    seeds = ("77", "77", "78")
    for p, s in zip(paths, seeds):
        assert main(["simulate", "--config", cfg, "--seed", s,
                     "--path", str(p)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("block,key", [("frequency", "lambda"), ("severity", "sigma")])
def test_cli_rejects_non_finite_parameters(tmp_path, capsys, bad, block, key):
    model = copy.deepcopy(SIGMA05_MODEL)
    model[block][key] = bad
    cfg = _write_config(tmp_path, {"kind": "sla"}, model=model)
    rc = main(["sla", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "must be finite" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("x_max", [0, -5.0])
def test_cli_rejects_empty_panjer_lattice(tmp_path, capsys, x_max):
    """x_max <= 0 leaves no lattice cell; it must not fall back to the default."""
    cfg = _write_config(tmp_path, {"kind": "panjer", "step": 0.5, "x_max": x_max})
    rc = main(["panjer", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ValueError"
    assert "need at least one lattice cell" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command,method,typo", [
    ("simulate", {"kind": "mc", "T": 100, "ci_levl": 0.9}, "ci_levl"),
    ("sla", {"kind": "sla", "ordr": 2}, "ordr"),
    ("panjer", {"kind": "panjer", "stepp": 0.5, "x_max": 50.0}, "stepp"),
    ("particle", {"kind": "particle", "x_max": 5.0, "n_per_point": 10,
                  "grid_widht": 0.5}, "grid_widht"),
    ("rare-event", {"kind": "rare-event", "thresholds": [20.0], "n_particles": 100,
                    "replicates": 2, "mh_step": 1}, "mh_step"),
], ids=["mc", "sla", "panjer", "particle", "rare-event"])
def test_cli_rejects_misspelled_method_key(tmp_path, capsys, command, method, typo):
    """A misspelled key must not fall back to the key's default."""
    cfg = _write_config(tmp_path, method)
    rc = main([command, "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and repr(typo) in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


def test_cli_truncated_panjer_lattice_names_x_max(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"kind": "panjer", "step": 0.5, "x_max": 10.0},
                        levels=[0.99])
    rc = main(["panjer", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "TruncationError"
    assert "x_max" in doc["detail"] and "M = 20" in doc["detail"]


def test_python_dash_m_runs_the_cli(tmp_path):
    cfg = _write_config(tmp_path, {"kind": "sla"})
    out = tmp_path / "out.csv"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "lossmc", "sla", "--config", cfg, "--path", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(out)
    assert out.read_text().startswith("alpha,")
