import argparse
import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from lossmc import (
    ExperimentConfig,
    PcgStream,
    ReportRow,
    RiskReport,
    emit_report,
    empirical_quantile_ci,
    estimate_density_grid,
    oracle_tail_stats,
    parse_report,
    reproduce_table1,
    risk_measures_from_measure,
    run_experiment,
    simulate_compound_parallel,
)
from lossmc import distributions
from lossmc import panjer as panjer_module
from lossmc import report as report_module
from lossmc.asymptotics import _c_tilde
from lossmc.cli import build_parser, main
from lossmc.config import REQUIRED
from lossmc.errors import ExtinctionError

from conftest import NumericError

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


def test_mc_rows_read_every_level_off_one_call(monkeypatch):
    """The MC runner sorts its sample once: one quantile call serves every
    level, and each row is bitwise what a call for its level alone gives,
    with the ES the mean of the unsorted batch at or above the VaR."""
    levels, T, seed = [0.5, 0.9, 0.99, 0.999], 12345, 7
    calls = []

    def counted(*args):
        calls.append(args)
        return empirical_quantile_ci(*args)

    monkeypatch.setattr(report_module, "empirical_quantile_ci", counted)
    cfg = _config(method={"kind": "mc", "T": T, "ci_level": 0.9}, levels=levels, seed=seed)
    rows = run_experiment(cfg).rows
    assert len(calls) == 1
    batch = simulate_compound_parallel(cfg.build_model(), T, seed)
    for row, alpha in zip(rows, levels):
        [(point, lo, hi)] = empirical_quantile_ci(batch, [alpha], 0.9)
        es = float(batch.values[batch.values >= point].mean())
        assert (row.alpha, row.var, row.var_lo, row.var_hi, row.es) == (alpha, point, lo, hi, es)


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
    """At this seed the tail start puts more mass beyond x_max than the
    0.9999 row's upper CI level leaves, so that quantile lies beyond the
    grid and the bound reads the grid top, the last cell's upper edge."""
    method = {"kind": "particle", "x_max": 400.0, "n_per_point": 200}
    report = run_experiment(_config(model=SIGMA1_MODEL, method=method,
                                    levels=[0.5, 0.9, 0.99, 0.999, 0.9999], seed=10))
    assert len(report.rows) == 5
    for row in report.rows:
        assert math.isfinite(row.var) and row.var_lo <= row.var <= row.var_hi
    assert report.rows[-1].var_hi == 400.5


def test_particle_rows_leave_spectral_measure_unset(tmp_path):
    """No method config defines a spectrum, so particle rows print srm as
    n/a, like every other route, instead of the model mean."""
    method = {"kind": "particle", "x_max": 120.0, "n_per_point": 200}
    report = run_experiment(_config(method=method, levels=[0.5, 0.9, 0.99], seed=3))
    assert all(row.srm is None for row in report.rows)
    path = tmp_path / "particle.csv"
    emit_report(report, "csv", str(path))
    assert [line.split(",")[6] for line in path.read_text().splitlines()[1:]] == ["n/a"] * 3


def test_particle_diagnostics_carry_the_es_stderr():
    """Each particle row is the one ``risk_measures_from_measure`` reads,
    and its ES has its standard error in the diagnostics, since
    ``stderr`` is the VaR's; a row whose quantile lies beyond the grid has
    no ES and no entry, and reads the grid top."""
    method = {"kind": "particle", "x_max": 400.0, "n_per_point": 200}
    cfg = _config(model=SIGMA1_MODEL, method=method, levels=[0.5, 0.99, 0.99999], seed=10)
    report = run_experiment(cfg)
    diag = report.meta["diagnostics"]
    assert [row.es is None for row in report.rows] == [False, False, True]
    assert sorted(k for k in diag if k.startswith("es_stderr")) == ["es_stderr_0.5",
                                                                    "es_stderr_0.99"]
    measure = estimate_density_grid(cfg.build_model(), np.arange(1.0, 400.5),
                                    200, diag["p_d"], PcgStream(10))
    for row, alpha in zip(report.rows, (0.5, 0.99)):
        read = risk_measures_from_measure(measure, alpha)
        assert diag[f"es_stderr_{alpha:g}"] == read.pop("es_stderr")
        assert (row.var, row.var_lo, row.var_hi, row.es, row.stderr) == tuple(read.values())
        assert 0.0 < diag[f"es_stderr_{alpha:g}"] < math.inf
    assert report.rows[-1].var == 400.5
    # the tail's ES is the noisier
    assert diag["es_stderr_0.99"] > diag["es_stderr_0.5"]


def test_particle_mass_balance_hand_trace():
    """At p_d = 1 every path is its first term, so a cell holds
    g(x) = P(N = 1) f_X(x) times its width and the tail start
    P(N = 1) sf_X(top), each without spread: the balance is P(N = 0) +
    P(N = 1) (sum of f_X(x) w + sf_X(61)), and its SE is rounding."""
    method = {"kind": "particle", "grid_width": 2.0, "x_max": 60.0, "n_per_point": 10,
              "p_d": 1.0}
    diag = run_experiment(_config(method=method, seed=4)).meta["diagnostics"]
    severity = stats.lognorm(0.5, scale=math.exp(2.0))
    p0, p1 = math.exp(-2.0), 2.0 * math.exp(-2.0)
    by_hand = p0 + p1 * (2.0 * severity.pdf(np.arange(2.0, 61.0, 2.0)).sum() + severity.sf(61.0))
    assert diag["mass_balance"] == pytest.approx(by_hand, rel=1e-12)
    # near P(N <= 1) = 0.4060, less what the midpoint sum misses
    assert diag["mass_balance"] == pytest.approx(0.4056696962, rel=1e-9)
    assert 0.0 <= diag["mass_balance_stderr"] <= 1e-15


def test_particle_mass_balance_of_benchmark_op():
    """The benchmark's particle op at its seed 83111 (sigma = 1, grid
    1..400, 5000 paths per point) holds its whole law: the balance lies
    within 4 SE of 1."""
    method = {"kind": "particle", "grid_width": 1.0, "x_max": 400.0, "n_per_point": 5000}
    diag = run_experiment(_config(model=SIGMA1_MODEL, method=method, levels=[0.5],
                                  seed=83_111)).meta["diagnostics"]
    assert 0.0 < diag["mass_balance_stderr"] < 0.01
    assert abs(diag["mass_balance"] - 1.0) <= 4.0 * diag["mass_balance_stderr"]


RARE_EVENT = {"kind": "rare-event", "n_particles": 1000, "mh_steps": 2, "replicates": 8}


def test_rare_event_diagnostics_name_the_pilot():
    """The report records the first-level potential the pilot chose and
    both pilot relative variances, the same for the same seed."""
    method = dict(RARE_EVENT, thresholds=[100.0, 200.0])
    first, again = (run_experiment(_config(model=SIGMA1_MODEL, method=method, seed=5))
                    .meta["diagnostics"] for _ in range(2))
    assert first == again
    assert first["pilot_potential"] == "random"
    assert 0.0 < first["pilot_relvar_random"] < first["pilot_relvar_largest"] < math.inf


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


def _readme_kind(kind):
    """A value kind as the README's config table prints it."""
    if isinstance(kind, tuple):
        return " or ".join(f"`{json.dumps(v)}`" for v in kind)
    return kind


def _readme_default(default):
    """A default as the README's config table prints it; None for one the
    run derives from the model, which the table describes in words."""
    if default is REQUIRED or default is dataclasses.MISSING:
        return "required"
    return None if default is None else f"`{json.dumps(default)}`"


def test_readme_config_table_lists_the_reader_tables():
    """The README's config table lists exactly the keys, kinds and defaults
    the reader's tables hold: top-level, model, method and law blocks."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme[readme.index("| block | key | kind | default |"):].split("\n\n")[0]
    rows = []
    for line in table.splitlines()[2:]:
        block, key, kind, default = (c.strip() for c in line.strip("|").split("|"))
        # a derived default is described in words, not printed as a value
        derived = not default.startswith("`") and default != "required"
        rows.append((block, key, kind, None if derived else default))

    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    expected = [("config", "model", "model block", "required"),
                ("config", "method", "method block", "required")]
    expected += [("config", key, _readme_kind(kind), _readme_default(defaults[key]))
                 for key, kind in report_module._CONFIG.items()]
    expected += [("model", key, f"{key} block", "required") for key in report_module._MODEL]
    expected += [(method, key, _readme_kind(kind), _readme_default(default))
                 for method, (_, table) in report_module._METHODS.items()
                 for key, (kind, default) in table.items()]
    expected += [(law, key, kind, "required")
                 for laws in (distributions._FREQUENCIES, distributions._SEVERITIES)
                 for law, (_, args) in laws.items() for key, (_, kind) in args.items()]
    assert rows == expected


def test_readme_python_examples_run():
    """Both python blocks run in order in one namespace, as a reader would,
    and the particle quick start's 0.9995 quantile, read between grid
    points, lies within one grid width of the recursion oracle's."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), ns)
    assert ns["lo"] <= ns["q99"] <= ns["hi"]
    assert abs(ns["q9995"] - oracle_tail_stats(ns["pmf"], [0.9995])[0][0]) <= 1.0


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_column_round_trips_at_six_digits(tmp_path, fmt):
    """A row with every optional column filled comes back from its file as
    each value read at 6 significant digits."""
    rows = [ReportRow(alpha=0.99, method="mc", var=123.4567891, var_lo=120.0000049,
                      var_hi=127.1234567, es=150.9876543, srm=140.5555555,
                      stderr=1.234567891),
            ReportRow(alpha=0.9995, method="mc", var=1.234567891e5, var_lo=1e-7 / 3,
                      var_hi=2.718281828e5, es=3.141592653e5, srm=2.5e5 + 0.5,
                      stderr=0.1 + 0.2)]
    path = tmp_path / f"report.{fmt}"
    emit_report(RiskReport(rows=rows), fmt, str(path))
    back = parse_report(str(path), fmt).rows
    assert [row.method for row in back] == ["mc", "mc"]
    for row, orig in zip(back, rows):
        for col in dataclasses.fields(ReportRow):
            value = getattr(orig, col.name)
            if col.name != "method":
                assert getattr(row, col.name) == float(f"{value:.6g}"), col.name


def test_readme_quotes_the_emitted_csv_header(tmp_path):
    """The column list the README's command-line section quotes is the
    header emit_report writes."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Command line"):readme.index("## Testing")]
    quoted = re.search(r"emitted as CSV \(`([^`]*)`\)", section).group(1)
    path = tmp_path / "report.csv"
    emit_report(RiskReport(rows=[ReportRow(alpha=0.5, method="sla", var=1.0)]), "csv",
                str(path))
    assert path.read_text().splitlines()[0] == quoted


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

def _write_config(tmp_path, method, levels=(0.5, 0.9), model=SIGMA05_MODEL, **fields):
    doc = {"model": model, "method": method, "levels": list(levels), **fields}
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


@pytest.mark.parametrize("flags", [["--seed", "3"], ["--threads", "2"],
                                   ["--config", "cfg.json"]])
def test_cli_table1_refuses_the_flags_it_ignores(tmp_path, capsys, flags):
    """table1 runs fixed presets: a config, seed or thread count would be
    dropped, so each is a usage error that writes no report."""
    out = tmp_path / "t1.csv"
    rc = main(["table1", "--preset", "sigma05", "--scale", "1e-4", *flags,
               "--path", str(out)])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ArgumentError" and flags[0] in doc["detail"]
    assert not out.exists()


@pytest.mark.parametrize("argv,detail", [
    (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
    (["simulate", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["table1"], "the following arguments are required: --preset"),
    ([], "the following arguments are required: command"),
], ids=["unknown-flag", "bad-int", "missing-preset", "no-command"])
def test_cli_usage_errors_print_one_json_line(capsys, argv, detail):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "ArgumentError", "detail": detail}


def test_cli_surface_is_pinned():
    """The subcommands, in order; --threads on simulate alone; and the two
    table1 presets."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["simulate", "sla", "panjer", "particle", "rare-event",
                                 "table1"]
    with_threads = [name for name, p in sub.choices.items()
                    if any("--threads" in a.option_strings for a in p._actions)]
    assert with_threads == ["simulate"]
    preset = next(a for a in sub.choices["table1"]._actions if "--preset" in a.option_strings)
    assert list(preset.choices) == ["sigma05", "sigma1"]


def test_cli_help_exits_zero(capsys):
    assert main(["table1", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: lossmc table1") and captured.err == ""


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


def test_cli_rejects_count_law_past_table_cap(tmp_path, capsys):
    """A Poisson rate whose count table would pass its cap exits 2 instead of
    drawing from a truncated table."""
    model = copy.deepcopy(SIGMA05_MODEL)
    model["frequency"]["lambda"] = 2e6
    cfg = _write_config(tmp_path, {"kind": "mc", "T": 100}, model=model)
    rc = main(["simulate", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ValueError" and "count table" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


def test_cli_particle_rejects_generalized_poisson(tmp_path, capsys):
    """The particle route has no Volterra kernel for a generalized Poisson
    count, so the CLI exits 2 instead of printing wrong quantiles."""
    model = copy.deepcopy(SIGMA05_MODEL)
    model["frequency"] = {"kind": "genpoisson", "lambda": 2.0, "theta": 0.3}
    cfg = _write_config(tmp_path, {"kind": "particle", "x_max": 40.0, "n_per_point": 10},
                        model=model)
    rc = main(["particle", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "UnsupportedModelError" and "genpoisson" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


def test_cli_second_order_sla_refuses_a_point_mass(tmp_path, capsys):
    """A point mass has no survival above the first-order VaR, so the
    second-order g1 has no value: exit 2 naming the cause, where a
    ZeroDivisionError used to escape.  Order 1 still reads the atom."""
    model = dict(SIGMA05_MODEL, severity={"kind": "degenerate", "atom": 3})
    cfg = _write_config(tmp_path, {"kind": "sla", "order": 2}, model=model)
    rc = main(["sla", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "UnsupportedModelError" and "point mass" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()

    cfg = _write_config(tmp_path, {"kind": "sla", "order": 1}, model=model)
    out = tmp_path / "x.json"
    assert main(["sla", "--config", cfg, "--out", "json", "--path", str(out)]) == 0
    assert [row["var"] for row in json.loads(out.read_text())["rows"]] == ["3", "3"]


@pytest.mark.parametrize("frequency,alpha,orders", [
    ({"kind": "poisson", "lambda": 2.0}, 0.9999999999999999, (1, 2)),
    # E[N] = 1000 and a large second-order factor
    ({"kind": "negbinomial", "r": 1.0, "beta": 1000.0}, 0.99999999999, (2,)),
], ids=["both-orders", "second-order-only"])
def test_cli_sla_serves_a_level_whose_cdf_level_rounds_to_one(tmp_path, capsys,
                                                              frequency, alpha, orders):
    """1 - (1 - alpha)/E[N] (divided by the second-order factor) rounds to 1,
    but the SLA reads isf at the survival level, which does not: each row
    is isf at its shifted level and no lower than the row below it.  A
    point mass reads its atom there at order 1."""
    model = dict(SIGMA05_MODEL, frequency=frequency)
    built = ExperimentConfig(model=model, method={"kind": "sla"}, levels=[0.5]).build_model()
    sev, en = built.severity, built.frequency.mean()
    for order in orders:
        cfg = _write_config(tmp_path, {"kind": "sla", "order": order},
                            levels=(0.5, alpha), model=model)
        out = tmp_path / "x.json"
        assert main(["sla", "--config", cfg, "--out", "json", "--path", str(out)]) == 0
        capsys.readouterr()
        expected = []
        for level in (0.5, alpha):
            shifted = (1.0 - level) / en
            if order == 2:
                q1 = sev.isf(shifted)
                k, ratio = _c_tilde(built)
                shifted /= 1.0 + ratio * (k * (sev.pdf(q1) / sev.sf(q1)))
            assert level == 0.5 or 1.0 - shifted == 1.0
            expected.append(f"{float(sev.isf(shifted)):.6g}")
        rows = [row["var"] for row in json.loads(out.read_text())["rows"]]
        assert rows == expected
        assert float(rows[1]) >= float(rows[0])

    model = dict(model, severity={"kind": "degenerate", "atom": 3})
    cfg = _write_config(tmp_path, {"kind": "sla"}, levels=(0.5, alpha), model=model)
    out = tmp_path / "x.json"
    assert main(["sla", "--config", cfg, "--out", "json", "--path", str(out)]) == 0
    assert [row["var"] for row in json.loads(out.read_text())["rows"]] == ["3", "3"]


_PARETO_HALF = {"kind": "pareto", "a": 0.5, "s": 1.0}
_LN21 = {"kind": "lognormal", "mu": 2.0, "sigma": 1.0}


@pytest.mark.parametrize("lam,severity,order,levels", [
    # isf overflows: (5e-301)^(-2) and (1e-155)^(-2)
    (1e300, _PARETO_HALF, 1, (0.5, 0.99)),
    (1e150, _PARETO_HALF, 2, (0.99999,)),
    # (1 - alpha)/E[N] underflows to 0, whose isf is inf
    (1e308, _LN21, 1, (0.9999999999999999,)),
], ids=["pareto-overflow", "pareto-overflow-order2", "survival-level-underflow"])
def test_cli_sla_refuses_a_var_that_is_not_finite(tmp_path, capsys, lam, severity,
                                                  order, levels):
    """An infinite VaR was written as inf with exit 0; it exits 2 with one
    JSON line that names the level, E[N] and the survival level."""
    model = {"frequency": {"kind": "poisson", "lambda": lam}, "severity": severity}
    cfg = _write_config(tmp_path, {"kind": "sla", "order": order}, levels=levels, model=model)
    rc = main(["sla", "--config", cfg, "--out", "json", "--path", str(tmp_path / "x.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError"
    assert f"alpha {levels[0]!r} is not finite: E[N] = {lam:g}" in doc["detail"]
    assert "survival level" in doc["detail"]
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("lam,order,var", [
    (1e308, 1, "1.51464e+17"),
    # E[N(N-1)] = 1e300 still fits a float
    (1e150, 2, "5.03279e+16"),
], ids=["order1", "order2"])
def test_cli_sla_serves_a_huge_mean_count_at_a_finite_var(tmp_path, capsys, lam, order, var):
    """E[N] = 1e308 at alpha 0.5 leaves a survival level of 5e-309, whose
    lognormal isf is finite."""
    model = {"frequency": {"kind": "poisson", "lambda": lam}, "severity": _LN21}
    cfg = _write_config(tmp_path, {"kind": "sla", "order": order}, levels=(0.5,), model=model)
    out = tmp_path / "x.json"
    assert main(["sla", "--config", cfg, "--out", "json", "--path", str(out)]) == 0
    assert [row["var"] for row in json.loads(out.read_text())["rows"]] == [var]


def test_cli_second_order_sla_serves_a_model_whose_c_tilde_overflows(tmp_path, capsys):
    """c_tilde = E[X] E[N(N-1)] / E[N] = 1.67e304 x 1e5 overflows, yet
    E[X] g1 = 0.092: the factor 9203 leaves the survival level 5.43e-10,
    where the run exited 2 on 'severity survival level 0'."""
    model = {"frequency": {"kind": "poisson", "lambda": 1e5},
             "severity": {"kind": "lognormal", "mu": 700.0, "sigma": 1.0}}
    cfg = _write_config(tmp_path, {"kind": "sla", "order": 2}, levels=(0.5,), model=model)
    out = tmp_path / "x.json"
    assert main(["sla", "--config", cfg, "--out", "json", "--path", str(out)]) == 0
    assert [row["var"] for row in json.loads(out.read_text())["rows"]] == ["4.50461e+306"]


@pytest.mark.parametrize("lam", [1e155, 1e200])
def test_cli_second_order_sla_refuses_a_factorial_moment_that_overflows(tmp_path, capsys,
                                                                         lam):
    """lam ** 2 raised a bare OverflowError, '(34, 'Numerical result out of
    range')'; it exits 2 naming E[N(N-1)] and the count law."""
    model = {"frequency": {"kind": "poisson", "lambda": lam}, "severity": _LN21}
    cfg = _write_config(tmp_path, {"kind": "sla", "order": 2}, levels=(0.5,), model=model)
    rc = main(["sla", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "UnsupportedModelError"
    assert "E[N(N-1)]" in doc["detail"] and f"PoissonFrequency(lam={lam:g})" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("order", [1, 2])
def test_cli_sla_refuses_a_zero_mean_count(tmp_path, capsys, order):
    """Poisson(0) used to drop every level and write a header-only report
    with exit 0."""
    model = dict(SIGMA05_MODEL, frequency={"kind": "poisson", "lambda": 0.0})
    cfg = _write_config(tmp_path, {"kind": "sla", "order": order}, model=model)
    rc = main(["sla", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "UnsupportedModelError"
    assert "positive mean count" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


def test_cli_panjer_serves_underdispersed_generalized_poisson(tmp_path, capsys):
    """theta < 0 goes through the transform like every other count law,
    on the polynomial pgf of its finite support."""
    model = copy.deepcopy(SIGMA05_MODEL)
    model["frequency"] = {"kind": "genpoisson", "lambda": 2.0, "theta": -0.3}
    cfg = _write_config(tmp_path, {"kind": "panjer", "step": 0.05, "x_max": 200.0},
                        levels=[0.5, 0.99], model=model)
    out = tmp_path / "x.json"
    assert main(["panjer", "--config", cfg, "--out", "json", "--path", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    rows = parse_report(str(out), "json").rows
    assert [row.alpha for row in rows] == [0.5, 0.99]
    assert 0.0 < rows[0].var < rows[1].var < rows[1].es < 200.0


def test_cli_panjer_serves_generalized_poisson_with_a_vanishing_negative_theta(tmp_path,
                                                                             capsys):
    """GP(2, -1e-10) has 2e10 counts of positive rate: a pgf polynomial over
    all of them asked for 149 GiB.  It ends where the sampling table ends,
    at 205 counts, and the run answers near Poisson(2)'s 14.41 at 0.5."""
    model = dict(SIGMA05_MODEL, frequency={"kind": "genpoisson", "lambda": 2.0,
                                           "theta": -1e-10})
    cfg = _write_config(tmp_path, {"kind": "panjer"}, levels=[0.5, 0.9, 0.99, 0.999],
                        model=model)
    out = tmp_path / "x.json"
    assert main(["panjer", "--config", cfg, "--out", "json", "--path", str(out)]) == 0
    rows = parse_report(str(out), "json").rows
    var = [row.var for row in rows]
    assert all(math.isfinite(v) for row in rows for v in (row.var, row.es))
    assert var == sorted(set(var)) and all(row.var < row.es for row in rows)
    assert var[0] == pytest.approx(14.41, abs=0.01)
    built = ExperimentConfig(model=model, method={"kind": "sla"}, levels=[0.5]).build_model()
    assert built.frequency._cdf_table()[0].size == 205


@pytest.mark.parametrize("method", [
    {"kind": "panjer", "step": 0.5},
    {"kind": "particle", "n_per_point": 2},
], ids=["panjer", "particle"])
def test_unset_x_max_defaults_to_forty_model_means(method):
    """The recursion lattice and the particle grid end at the same
    40 * max(E[Z], 1) when the config leaves x_max out."""
    cfg = _config(method=method, levels=[0.5])
    x_max = 40.0 * max(cfg.build_model().mean(), 1.0)
    diagnostics = run_experiment(cfg).meta["diagnostics"]
    if method["kind"] == "panjer":
        assert diagnostics["masses"] == math.ceil(x_max / 0.5) + 1
    else:
        assert diagnostics["x_max"] == x_max


@pytest.mark.parametrize("command,method,lam,a,mean", [
    ("panjer", {"kind": "panjer", "step": 0.05}, 2.0, 0.5, "inf"),
    ("panjer", {"kind": "panjer", "step": 0.05}, 2.0, 1.0, "inf"),
    # E[N] E[X] = 0 * inf
    ("panjer", {"kind": "panjer", "step": 0.05}, 0.0, 0.5, "nan"),
    ("particle", {"kind": "particle", "n_per_point": 2}, 2.0, 0.5, "inf"),
], ids=["pareto-half", "pareto-one", "poisson0", "particle"])
def test_cli_refuses_a_default_x_max_that_is_not_finite(tmp_path, capsys, command, method,
                                                        lam, a, mean):
    """40 max(E[Z], 1) with E[Z] infinite or NaN failed on a bare
    OverflowError or numpy's 'Maximum allowed size exceeded'."""
    model = {"frequency": {"kind": "poisson", "lambda": lam},
             "severity": {"kind": "pareto", "a": a, "s": 1.0}}
    cfg = _write_config(tmp_path, method, model=model)
    rc = main([command, "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError"
    assert f"x_max = 40 max(E[Z], 1) is not finite at E[Z] = {mean}" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


def test_cli_panjer_serves_an_infinite_mean_severity_at_a_set_x_max(tmp_path, capsys):
    model = {"frequency": {"kind": "poisson", "lambda": 2.0},
             "severity": {"kind": "pareto", "a": 0.5, "s": 1.0}}
    cfg = _write_config(tmp_path, {"kind": "panjer", "step": 0.05, "x_max": 2000.0},
                        levels=(0.5, 0.8), model=model)
    out = tmp_path / "x.json"
    assert main(["panjer", "--config", cfg, "--out", "json", "--path", str(out)]) == 0
    assert [row["var"] for row in json.loads(out.read_text())["rows"]] == ["9.45", "93"]


def test_cli_refuses_a_panjer_lattice_larger_than_memory(tmp_path, capsys, monkeypatch):
    """Poisson(1e6) puts the default x_max at 4.9e8, M = 4.9e10 cells of
    step 0.01: numpy failed to allocate, or the process was killed.  It
    exits 2 at once, before the lattice is formed."""
    def no_lattice(*args):
        raise AssertionError("formed the lattice")
    monkeypatch.setattr(panjer_module, "discretize_severity", no_lattice)
    model = {"frequency": {"kind": "poisson", "lambda": 1e6}, "severity": _LN21}
    cfg = _write_config(tmp_path, {"kind": "panjer"}, model=model)
    rc = main(["panjer", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError"
    assert "step 0.01 to x_max 4.873e+08 makes M = 4.87e+10" in doc["detail"]
    assert "physical memory" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("x_max,points", [(1e12, "1e+12"), (1e20, "1e+20")])
def test_cli_refuses_a_particle_grid_larger_than_memory(tmp_path, capsys, x_max, points):
    """x_max 1e20 failed on numpy's 'Maximum allowed size exceeded', and
    1e12 points would start allocating; both exit 2 before the grid is
    formed, naming grid_width, x_max and the point count."""
    cfg = _write_config(tmp_path, {"kind": "particle", "x_max": x_max, "n_per_point": 2})
    rc = main(["particle", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError"
    assert f"grid_width 1 to x_max {x_max:g} makes {points} grid points" in doc["detail"]
    assert "physical memory" in doc["detail"]
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


def test_cli_refuses_a_panjer_step_above_the_severity_median(tmp_path, capsys):
    """step 1e300 left a one-cell lattice and reported VaR 0 with exit 0."""
    cfg = _write_config(tmp_path, {"kind": "panjer", "step": 1e300, "x_max": 200.0})
    rc = main(["panjer", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "step 1e+300 exceeds the severity median" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


def test_cli_refuses_more_losses_than_memory(tmp_path, capsys, monkeypatch):
    """T = 9e18 ran without end while it spawned substreams; it exits 2 at
    once, before any spawn (a spawn here fails the run with another error)."""
    def no_spawn(self, n):
        raise AssertionError(f"spawned {n} streams")
    monkeypatch.setattr(PcgStream, "spawn", no_spawn)
    cfg = _write_config(tmp_path, {"kind": "mc", "T": 9 * 10**18})
    rc = main(["simulate", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "T = 9000000000000000000" in doc["detail"]
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


@pytest.mark.parametrize("command,method,message", [
    ("rare-event", dict(RARE_EVENT, thresholds=[20.0], n_particles=100, replicates=1),
     "two replicates"),
    ("rare-event", dict(RARE_EVENT, thresholds=[20.0], n_particles=100, mh_steps=-1),
     "mutation steps"),
    # the particle route has one proposal: its old selector keys are unknown
    ("particle", {"kind": "particle", "x_max": 5.0, "n_per_point": 10,
                  "proposal": "beta", "beta_a": float("nan")},
     "unknown particle method keys ['beta_a', 'proposal']"),
    ("particle", {"kind": "particle", "x_max": 5.0, "n_per_point": 10,
                  "grid_width": 0.0}, "grid_width"),
    ("particle", {"kind": "particle", "x_max": 5.0, "n_per_point": 10,
                  "grid_width": -1.0}, "grid_width"),
    ("particle", {"kind": "particle", "x_max": 0.4, "n_per_point": 10}, "x_max"),
    # grid [500]: a lone unit cell read VaR 0.5 = 0 with exit 0
    ("particle", {"kind": "particle", "grid_width": 500.0, "x_max": 400.0,
                  "n_per_point": 10}, "two points, got grid_width 500.0, x_max 400.0"),
    ("particle", {"kind": "particle", "x_max": -5.0, "n_per_point": 10}, "x_max"),
    ("particle", {"kind": "particle", "x_max": float("nan"), "n_per_point": 10},
     "x_max"),
    ("particle", {"kind": "particle", "x_max": float("inf"), "n_per_point": 10},
     "x_max"),
    ("rare-event", dict(RARE_EVENT, thresholds=[100.0, float("nan")]),
     "thresholds must be finite"),
    ("rare-event", dict(RARE_EVENT, thresholds=[100.0, float("inf")]),
     "thresholds must be finite"),
    ("sla", {"kind": "sla", "order": 5}, "order must be 1 or 2"),
    ("sla", {"kind": "sla", "order": 0}, "order must be 1 or 2"),
    ("sla", {"kind": "sla", "order": -1}, "order must be 1 or 2"),
    # counts are whole numbers; int() used to truncate 2.7 to 2 paths
    ("simulate", {"kind": "mc", "T": 100.5}, "T must be a whole number"),
    ("particle", {"kind": "particle", "x_max": 5.0, "n_per_point": 2.7},
     "n_per_point must be a whole number"),
    ("rare-event", dict(RARE_EVENT, thresholds=[20.0], n_particles=100.5),
     "n_particles must be a whole number"),
    ("rare-event", dict(RARE_EVENT, thresholds=[20.0], mh_steps=1.5),
     "mh_steps must be a whole number"),
    ("rare-event", dict(RARE_EVENT, thresholds=[20.0], replicates=2.5),
     "replicates must be a whole number"),
    ("particle", {"kind": "particle", "x_max": 5.0, "n_per_point": float("nan")},
     "n_per_point must be a whole number"),
    # int(True) is 1: a 1-draw report, or SLA order 1, used to run
    ("simulate", {"kind": "mc", "T": True}, "T must be a whole number"),
    ("rare-event", dict(RARE_EVENT, thresholds=[20.0], mh_steps=True),
     "mh_steps must be a whole number"),
    ("sla", {"kind": "sla", "order": True}, "order must be 1 or 2"),
    # float() read true as 1.0: a unit lattice, or p_d = 1 (every path absorbed)
    ("simulate", {"kind": "mc", "T": 100, "ci_level": True}, "ci_level must be a number"),
    ("panjer", {"kind": "panjer", "step": True, "x_max": 10.0}, "step must be a number"),
    ("panjer", {"kind": "panjer", "step": 0.5, "x_max": True}, "x_max must be a number"),
    ("particle", {"kind": "particle", "x_max": 5.0, "n_per_point": 10, "p_d": True},
     "p_d must be a number"),
    ("particle", {"kind": "particle", "x_max": 5.0, "n_per_point": 10, "grid_width": True},
     "grid_width must be a number"),
    ("particle", {"kind": "particle", "x_max": True, "n_per_point": 10}, "x_max must be a number"),
    # int("100") is 100: a count must be a JSON number
    ("simulate", {"kind": "mc", "T": "100"}, "T must be a whole number"),
    # np.asarray(..., dtype=float) read [true] as a ladder at 1 and ["20"] at 20
    ("rare-event", dict(RARE_EVENT, thresholds=[True]), "thresholds must be a number"),
    ("rare-event", dict(RARE_EVENT, thresholds=["20"]), "thresholds must be a number"),
    # int(nan) used to fail with "cannot convert float NaN to integer"
    ("simulate", {"kind": "mc", "T": 100, "ci_level": float("nan")}, "ci_level must be finite"),
    ("panjer", {"kind": "panjer", "step": float("nan"), "x_max": 10.0}, "step must be finite"),
    # math.ceil(inf) used to raise OverflowError
    ("panjer", {"kind": "panjer", "step": 0.5, "x_max": float("inf")}, "x_max must be finite"),
    ("particle", {"kind": "particle", "x_max": 5.0, "n_per_point": 10, "p_d": float("nan")},
     "p_d must be finite"),
    # x_max / step used to raise ZeroDivisionError before the step was checked
    ("panjer", {"kind": "panjer", "step": 0, "x_max": 10.0}, "step must be positive"),
    # local moments is the only lattice, so the key that chose it is gone
    ("panjer", {"kind": "panjer", "step": 0.5, "x_max": 10.0,
                "discretization": "local_moments"}, "unknown panjer method keys"),
], ids=["replicates-1", "mh_steps-negative", "beta_a-nan", "grid_width-0",
        "grid_width-negative", "x_max-below-half-width", "one-point-grid", "x_max-negative",
        "x_max-nan", "x_max-inf", "thresholds-nan", "thresholds-inf",
        "sla-order-5", "sla-order-0", "sla-order-negative", "T-fraction",
        "n_per_point-fraction", "n_particles-fraction", "mh_steps-fraction",
        "replicates-fraction", "n_per_point-nan", "T-bool", "mh_steps-bool",
        "sla-order-bool", "ci_level-bool", "step-bool", "panjer-x_max-bool", "p_d-bool",
        "grid_width-bool", "particle-x_max-bool", "T-string", "thresholds-bool",
        "thresholds-string", "ci_level-nan", "step-nan", "panjer-x_max-inf", "p_d-nan",
        "step-0", "discretization-key"])
def test_cli_rejects_bad_method_values(tmp_path, capsys, command, method, message):
    """Values no run can use must exit 2, not run quietly or fail deep inside."""
    cfg = _write_config(tmp_path, method)
    rc = main([command, "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and message in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


# a valid method block of each kind and the subcommand that runs it
_VALID_METHODS = {
    "simulate": {"kind": "mc", "T": 100},
    "sla": {"kind": "sla"},
    "panjer": {"kind": "panjer", "step": 0.5, "x_max": 50.0},
    "particle": {"kind": "particle", "x_max": 5.0, "n_per_point": 10},
    "rare-event": dict(RARE_EVENT, thresholds=[20.0]),
}


@pytest.mark.parametrize("command,key,bad", [
    pytest.param(command, key, bad, id=f"{command}-{key}-{json.dumps(bad)}")
    for command, method in _VALID_METHODS.items()
    for key, (kind, _) in report_module._METHODS[method["kind"]][1].items()
    for bad in ([[True], ["20"], [float("nan")]] if kind == "reals"
                else [True, "1", float("nan")] + ([1e300] if kind == "count" else []))
])
def test_cli_rejects_bool_string_and_nan_for_every_method_key(tmp_path, capsys,
                                                              command, key, bad):
    """No method value is read by int() or float(): true, "1" and NaN exit 2
    for every key the method table lists, and so does a count past int64,
    which would make mh_steps loop without end."""
    cfg = _write_config(tmp_path, dict(_VALID_METHODS[command], **{key: bad}))
    rc = main([command, "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and f"{key} must be" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


_LN_0_40 = {"severity": {"kind": "lognormal", "mu": 0.0, "sigma": 40.0}}
_LN_MEAN_OVERFLOW = "E[X] = exp(mu + sigma^2/2) overflows the float range at mu = 0, sigma = 40"


@pytest.mark.parametrize("model,message,method", [
    # float(true) is 1.0 and float("2") is 2.0: both used to run
    ({"frequency": {"kind": "poisson", "lambda": True}}, "lambda must be a number", None),
    ({"frequency": {"kind": "poisson", "lambda": "2"}}, "lambda must be a number", None),
    # int(2.7) used to run as m = 2
    ({"frequency": {"kind": "binomial", "m": 2.7, "q": 0.3}}, "m must be a whole number",
     None),
    # keys the law does not read used to be dropped without a word
    ({"frequency": {"kind": "poisson", "lambda": 2.0, "theta": 0.3}},
     "unknown poisson frequency keys ['theta']", None),
    ({"severity": {"kind": "lognormal", "mu": 2.0, "sigm": 0.5}},
     "unknown lognormal severity keys ['sigm']", None),
    ({"copula": "gumbel"}, "unknown model keys ['copula']", None),
    # a bare OverflowError, 'math range error', named no parameter
    (_LN_0_40, _LN_MEAN_OVERFLOW, {"kind": "sla", "order": 2}),
    (_LN_0_40, _LN_MEAN_OVERFLOW, {"kind": "particle", "n_per_point": 2}),
], ids=["lambda-bool", "lambda-string", "binomial-m-fraction", "poisson-theta",
        "sigma-typo", "model-extra-key", "lognormal-mean-overflow-sla2",
        "lognormal-mean-overflow-particle"])
def test_cli_rejects_bad_model_values(tmp_path, capsys, model, message, method):
    """Each case runs the sla method unless it names its own."""
    method = method or {"kind": "sla"}
    cfg = _write_config(tmp_path, method, model={**SIGMA05_MODEL, **model})
    rc = main([method["kind"], "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and message in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("field,value,message", [
    # float("0.9") used to run the level as 0.9
    ("levels", ["0.9"], "levels must be a number"),
    ("levels", [True], "levels must be a number"),
    ("levels", 0.9, "levels must be a nonempty list"),
    ("output", True, "output must be 'csv' or 'json'"),
], ids=["levels-string", "levels-bool", "levels-scalar", "output-bool"])
def test_cli_rejects_bad_config_values(tmp_path, capsys, field, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": SIGMA05_MODEL, "method": {"kind": "sla"},
                               "levels": [0.5], field: value}))
    rc = main(["sla", "--config", str(cfg), "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and message in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("field,value", [("seed", 3.5), ("threads", 1.5), ("seed", "7")])
def test_cli_rejects_non_integral_seed_and_threads(tmp_path, capsys, field, value):
    cfg = _write_config(tmp_path, {"kind": "mc", "T": 100}, **{field: value})
    rc = main(["simulate", "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "ValueError" and f"{field} must be a whole number" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


def test_cli_accepts_integral_float_counts(tmp_path, capsys):
    """5000.0 is a whole number: it runs as 5000, as before."""
    method = {"kind": "particle", "x_max": 5.0, "n_per_point": 20.0}
    cfg = _write_config(tmp_path, method, seed=7.0, threads=1.0)
    out = tmp_path / "x.json"
    assert main(["particle", "--config", cfg, "--out", "json", "--path", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["seed"] == 7 and meta["threads"] == 1
    assert meta["diagnostics"]["n_per_point"] == 20


@pytest.mark.parametrize("fields,flags", [({}, ["--threads", "0"]), ({"threads": -3}, [])],
                         ids=["flag-0", "config-negative"])
def test_cli_rejects_thread_counts_below_one(tmp_path, capsys, fields, flags):
    """A thread count below 1 exits 2 instead of running serially and
    writing the bad count into the report meta."""
    cfg = _write_config(tmp_path, {"kind": "mc", "T": 100}, **fields)
    rc = main(["simulate", "--config", cfg, *flags, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "threads must be at least 1" in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", list(_VALID_METHODS))
@pytest.mark.parametrize("fields,flags", [({"seed": -5}, []), ({}, ["--seed", "-5"])],
                         ids=["config", "flag"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, command, fields, flags):
    """A negative seed exits 2 naming the key on every method, where sla
    and panjer wrote it into the report meta and the sampling routes
    failed on a message that named no key."""
    cfg = _write_config(tmp_path, _VALID_METHODS[command], **fields)
    rc = main([command, "--config", cfg, *flags, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError",
                               "detail": "seed must be nonnegative, got -5"}
    assert not (tmp_path / "x.csv").exists()


_NOT_MC = ["sla", "panjer", "particle", "rare-event"]


@pytest.mark.parametrize("command", _NOT_MC)
def test_cli_threads_flag_is_simulate_only(tmp_path, capsys, command):
    """Only crude Monte Carlo reads a thread count: on any other method
    --threads is a usage error that writes no report."""
    cfg = _write_config(tmp_path, _VALID_METHODS[command])
    rc = main([command, "--config", cfg, "--threads", "2", "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ArgumentError",
                               "detail": "unrecognized arguments: --threads 2"}
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", _NOT_MC)
def test_cli_rejects_threads_in_a_non_mc_config(tmp_path, capsys, command):
    """A thread count other than 1 in a config that no thread reads exits 2
    instead of being written into the report meta."""
    cfg = _write_config(tmp_path, _VALID_METHODS[command], threads=4)
    rc = main([command, "--config", cfg, "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "threads applies to the mc method only" \
        in doc["detail"]
    assert not (tmp_path / "x.csv").exists()


class _TwoArgumentError(RuntimeError):
    """An exception whose constructor cannot be called with a message alone."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@pytest.mark.parametrize("make,field,value", [
    (lambda: _TwoArgumentError("bad block", 7), "code", 7),
    (lambda: ExtinctionError("every particle died"), "args", ("every particle died",)),
    (lambda: NumericError("no convergence", achieved=1e-3), "achieved", 1e-3),
], ids=["two-argument", "extinction", "numeric-achieved"])
def test_runner_errors_keep_class_and_fields(tmp_path, capsys, monkeypatch,
                                             make, field, value):
    """run_experiment re-raises the runner's own exception object."""
    raised = []

    def failing_runner(model, cfg, values):
        raised.append(make())
        raise raised[-1]

    monkeypatch.setitem(report_module._METHODS, "sla",
                        (failing_runner, report_module._METHODS["sla"][1]))
    with pytest.raises(Exception) as info:
        run_experiment(_config())
    assert info.value is raised[-1]
    assert getattr(info.value, field) == value

    rc = main(["sla", "--config", _write_config(tmp_path, {"kind": "sla"}),
               "--path", str(tmp_path / "x.csv")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc == {"error": type(raised[-1]).__name__,
                   "detail": f"sla run failed: {raised[-1]}"}


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
