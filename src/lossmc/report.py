"""Experiment configuration, orchestration and report emission.

A single JSON document describes a run: the model block, a method
block (mc | sla | panjer | particle | rare-event) and the quantile
levels.  Reports carry one row per level with fixed columns and are
serialized bit-stably (fixed field order, floats at 6 significant
digits) so golden-file comparisons are meaningful.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .asymptotics import sla_var_first_order, sla_var_second_order
from .compound import (
    CompoundModel,
    SampleBatch,
    empirical_quantile_ci,
    simulate_compound_parallel,
    tail_probability_mc,
)
from .distributions import build_frequency, build_severity
from .errors import LevelRangeError, TruncationError
from .panjer import (
    LOCAL_MOMENTS,
    compound_cdf_quantile,
    oracle_compound_pmf,
    oracle_tail_stats,
)
from .rare_event import LevelSequence, replicate_smc
from .rng import PcgStream
from .volterra import (
    PathSamplerConfig,
    BetaProposal,
    SizeBiasedProposal,
    default_absorption,
    estimate_density_grid,
    quantile_from_measure,
    risk_measures_from_measure,
)

# The keys each method kind reads besides "kind"; any other key is a typo
# that would otherwise fall back to a default silently.
_METHOD_KEYS = {
    "mc": {"T", "ci_level"},
    "sla": {"order"},
    "panjer": {"step", "x_max", "discretization"},
    "particle": {"grid_width", "x_max", "n_per_point", "proposal", "beta_a",
                 "beta_b", "p_d", "use_all_states"},
    "rare-event": {"thresholds", "n_particles", "mh_steps", "replicates"},
}
_METHODS = tuple(_METHOD_KEYS)
_LEVELS_TABLE1 = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9995)


@dataclass
class ExperimentConfig:
    """Validated description of one experiment."""

    model: dict
    method: dict
    levels: list
    seed: int = 20250814
    output: str = "csv"
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.model, dict) or "frequency" not in self.model \
                or "severity" not in self.model:
            raise ValueError("model block must contain frequency and severity")
        kind = self.method.get("kind") if isinstance(self.method, dict) else None
        if kind not in _METHODS:
            raise ValueError(f"method.kind must be one of {_METHODS}, got {kind!r}")
        unknown = set(self.method) - _METHOD_KEYS[kind] - {"kind"}
        if unknown:
            raise ValueError(f"unknown {kind} method keys {sorted(unknown)}; "
                             f"allowed: {sorted(_METHOD_KEYS[kind])}")
        levels = [float(a) for a in self.levels]
        if not levels or any(not (0.0 < a < 1.0) for a in levels):
            raise ValueError("levels must be probabilities in (0, 1)")
        self.levels = sorted(levels)
        if self.output not in ("csv", "json"):
            raise ValueError("output must be csv or json")
        self.threads = int(self.threads)
        self.seed = int(self.seed)

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            doc = json.load(fh)
        known = {"model", "method", "levels", "seed", "output", "threads"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def build_model(self) -> CompoundModel:
        return CompoundModel(
            frequency=build_frequency(self.model["frequency"]),
            severity=build_severity(self.model["severity"]),
        )


@dataclass
class ReportRow:
    alpha: float
    method: str
    var: float
    var_lo: float | None = None
    var_hi: float | None = None
    es: float | None = None
    srm: float | None = None
    stderr: float | None = None


@dataclass
class RiskReport:
    rows: list
    meta: dict = field(default_factory=dict)

    def validate(self):
        by_method = {}
        for row in self.rows:
            by_method.setdefault(row.method, []).append(row)
        for method, rows in by_method.items():
            rows = sorted(rows, key=lambda r: r.alpha)
            vars_ = [r.var for r in rows]
            if any(b < a for a, b in zip(vars_, vars_[1:])):
                raise ValueError(f"VaR not nondecreasing in alpha for {method}")
        return self


def _sig6(value):
    if value is None:
        return "n/a"
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return f"{value:.6g}"


# ---------------------------------------------------------------------------
# Method runners
# ---------------------------------------------------------------------------

def _run_mc(model, cfg: ExperimentConfig):
    m = cfg.method
    T = int(m.get("T", 1_000_000))
    ci_level = float(m.get("ci_level", 0.95))
    batch = simulate_compound_parallel(model, T, cfg.seed, threads=cfg.threads)
    rows = []
    for alpha in cfg.levels:
        point, lo, hi = empirical_quantile_ci(batch, alpha, ci_level)
        tail = batch.values[batch.values >= point]
        es = float(tail.mean()) if tail.size else None
        rows.append(ReportRow(alpha=alpha, method="mc", var=point,
                              var_lo=lo, var_hi=hi, es=es))
    return rows, {"T": T, "ci_level": ci_level}


def _run_sla(model, cfg: ExperimentConfig):
    order = int(cfg.method.get("order", 1))
    rows = []
    for alpha in cfg.levels:
        try:
            if order >= 2:
                res = sla_var_second_order(model, alpha)
                var = res.var_second if res.var_second is not None else res.var_first
            else:
                var = sla_var_first_order(model, alpha)
        except LevelRangeError:
            continue
        rows.append(ReportRow(alpha=alpha, method="sla", var=float(var)))
    return rows, {"order": order}


def _run_panjer(model, cfg: ExperimentConfig):
    m = cfg.method
    step = float(m.get("step", 0.01))
    x_max = m.get("x_max")
    pmf = oracle_compound_pmf(model, step=step,
                              x_max=None if x_max is None else float(x_max),
                              method=m.get("discretization", LOCAL_MOMENTS))
    rows = []
    for alpha in cfg.levels:
        q, es = oracle_tail_stats(pmf, alpha)
        rows.append(ReportRow(alpha=alpha, method="panjer", var=q, es=es))
    return rows, {"step": step, "masses": len(pmf.masses)}


def _particle_config(model, m: dict) -> PathSamplerConfig:
    proposal_kind = m.get("proposal", "sizebias")
    if proposal_kind == "sizebias":
        proposal = SizeBiasedProposal(model.severity)
    elif proposal_kind == "beta":
        proposal = BetaProposal(float(m.get("beta_a", 1.0)), float(m.get("beta_b", 1.2)))
    else:
        raise ValueError(f"unknown proposal {proposal_kind!r}")
    p_d = float(m.get("p_d", default_absorption(model)))
    return PathSamplerConfig(
        proposal=proposal, p_d=p_d, initial=None,
        use_all_states=bool(m.get("use_all_states", True)),
    )


def _run_particle(model, cfg: ExperimentConfig):
    m = cfg.method
    width = float(m.get("grid_width", 1.0))
    x_max = float(m.get("x_max", 40.0 * max(model.mean(), 1.0)))
    grid = np.arange(width, x_max + 0.5 * width, width)
    n_per_point = int(m.get("n_per_point", 50_000))
    pcfg = _particle_config(model, m)
    measure = estimate_density_grid(model, grid, n_per_point, pcfg,
                                    PcgStream(cfg.seed))
    rows = []
    locs, w = measure.probability_atoms()
    cum = np.cumsum(w)
    widths = measure._cell_widths()
    # align per-cell mass SEs with the atoms (zero atom contributes no noise)
    se_mass = np.concatenate([[0.0], measure.stderr * widths])
    se_cum = np.sqrt(np.cumsum(se_mass ** 2))
    for alpha in cfg.levels:
        try:
            var = quantile_from_measure(measure, alpha)
        except TruncationError:
            # tiny budgets can leave the accumulated mass below alpha;
            # report the top of the grid (a lower bound) with no spread
            rows.append(ReportRow(alpha=alpha, method="particle",
                                  var=float(locs[-1])))
            continue
        _, es, _ = risk_measures_from_measure(measure, alpha)
        i = min(int(np.searchsorted(cum, alpha, side="left")), len(cum) - 1)
        cell_w = widths[max(i - 1, 0)] if i >= 1 else 1.0
        dens = max(w[i] / max(cell_w, 1e-300), 1e-300)
        se_f = float(se_cum[i])
        # delta-method standard error of the quantile: SE(F_hat)/density
        se_q = se_f / dens
        lo = quantile_from_measure(measure, max(alpha - 1.96 * se_f, 1e-9))
        hi_level = alpha + 1.96 * se_f
        # the noisy cumulative mass can pass 1 before the grid top
        hi = (quantile_from_measure(measure, hi_level)
              if hi_level < min(float(cum[-1]), 1.0) else float(locs[-1]))
        rows.append(ReportRow(alpha=alpha, method="particle", var=var,
                              var_lo=lo, var_hi=hi, es=es, stderr=se_q))
    return rows, {"grid_width": width, "x_max": x_max, "n_per_point": n_per_point,
                  "p_d": pcfg.p_d}


def _run_rare_event(model, cfg: ExperimentConfig):
    m = cfg.method
    thresholds = m.get("thresholds")
    if not thresholds:
        raise ValueError("rare-event method requires a thresholds list")
    levels = LevelSequence(thresholds=np.asarray(thresholds, dtype=float))
    N = int(m.get("n_particles", 10_000))
    steps = int(m.get("mh_steps", 5))
    reps = int(m.get("replicates", 16))
    rows = []
    diag = {}
    estimates = replicate_smc(model, levels, steps, N, PcgStream(cfg.seed), reps)
    for z, est in zip(levels.thresholds, estimates):
        alpha = 1.0 - est.estimate
        rows.append(ReportRow(alpha=alpha, method="rare-event", var=float(z)))
        diag[f"p_exceed_{z:g}"] = est.estimate
        diag[f"rse_{z:g}"] = est.replicate_rse
    return rows, diag


def run_experiment(config: ExperimentConfig) -> RiskReport:
    """Dispatch one configured run and assemble the report."""
    model = config.build_model()
    kind = config.method["kind"]
    runner = {
        "mc": _run_mc,
        "sla": _run_sla,
        "panjer": _run_panjer,
        "particle": _run_particle,
        "rare-event": _run_rare_event,
    }[kind]
    try:
        rows, diagnostics = runner(model, config)
    except Exception as exc:
        raise type(exc)(f"{kind} run failed: {exc}") from exc
    meta = {
        "model": config.model,
        "method": kind,
        "seed": config.seed,
        "version": __version__,
        "threads": config.threads,
        "diagnostics": diagnostics,
    }
    return RiskReport(rows=rows, meta=meta).validate()


def reproduce_table1(preset: str, scale: float = 1.0) -> RiskReport:
    """Three-method comparison at the benchmark presets.

    ``preset`` selects the lognormal shape (sigma05 or sigma1); scale
    multiplies both simulation budgets (5e7 crude draws, 5e4 particles
    per unit grid point at scale 1).  The 0.999 level stands in for the
    mislabeled 99.5% row of the original comparison; see the particle
    module notes.
    """
    if preset not in ("sigma05", "sigma1"):
        raise ValueError("preset must be sigma05 or sigma1")
    if not (0.0 < scale <= 1.0):
        raise ValueError("scale must lie in (0, 1]")
    sigma = 0.5 if preset == "sigma05" else 1.0
    x_max = 120.0 if preset == "sigma05" else 400.0
    model_block = {
        "frequency": {"kind": "poisson", "lambda": 2.0},
        "severity": {"kind": "lognormal", "mu": 2.0, "sigma": sigma},
    }
    levels = list(_LEVELS_TABLE1)
    seed = 821_05 if preset == "sigma05" else 821_10

    rows = []
    mc_cfg = ExperimentConfig(model=model_block,
                              method={"kind": "mc", "T": max(1000, int(5e7 * scale))},
                              levels=levels, seed=seed)
    mc_report = run_experiment(mc_cfg)
    rows.extend(mc_report.rows)

    particle_cfg = ExperimentConfig(
        model=model_block,
        method={"kind": "particle", "grid_width": 1.0, "x_max": x_max,
                "n_per_point": max(100, int(5e4 * scale))},
        levels=levels, seed=seed + 1,
    )
    rows.extend(run_experiment(particle_cfg).rows)

    sla_cfg = ExperimentConfig(model=model_block, method={"kind": "sla"},
                               levels=levels, seed=seed)
    rows.extend(run_experiment(sla_cfg).rows)

    meta = {
        "model": model_block,
        "method": "table1",
        "preset": preset,
        "scale": scale,
        "seed": seed,
        "version": __version__,
        "mc_T": mc_cfg.method["T"],
        "particle_n_per_point": particle_cfg.method["n_per_point"],
    }
    return RiskReport(rows=rows, meta=meta).validate()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "alpha,method,var,var_lo,var_hi,es,srm,stderr"


def _format_rows(report: RiskReport):
    for row in report.rows:
        yield [
            _sig6(row.alpha), row.method, _sig6(row.var), _sig6(row.var_lo),
            _sig6(row.var_hi), _sig6(row.es), _sig6(row.srm), _sig6(row.stderr),
        ]


def emit_report(report: RiskReport, format: str, path: str) -> None:
    """Write the report with a fixed field order and 6-significant-digit
    floats, so identical reports serialize to identical bytes."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for fields in _format_rows(report):
            writer.writerow(fields)
        text = buf.getvalue()
    elif format == "json":
        def clean_meta(obj):
            if isinstance(obj, dict):
                return {k: clean_meta(v) for k, v in sorted(obj.items())}
            if isinstance(obj, float):
                return float(_sig6(obj)) if math.isfinite(obj) else repr(obj)
            if isinstance(obj, (np.floating, np.integer)):
                return clean_meta(float(obj))
            return obj
        doc = {
            "meta": clean_meta(report.meta),
            "rows": [dict(zip(CSV_HEADER.split(","),
                              [f if f != "n/a" else None for f in fields]))
                     for fields in _format_rows(report)],
        }
        text = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    else:
        raise ValueError("format must be csv or json")
    with open(path, "w") as fh:
        fh.write(text)


def parse_report(path: str, format: str) -> RiskReport:
    """Read back an emitted report (for round-trip checks)."""
    def undo(v):
        if v in (None, "n/a", ""):
            return None
        return float(v)

    rows = []
    if format == "csv":
        with open(path) as fh:
            reader = csv.DictReader(fh)
            for rec in reader:
                rows.append(ReportRow(
                    alpha=float(rec["alpha"]), method=rec["method"],
                    var=float(rec["var"]), var_lo=undo(rec["var_lo"]),
                    var_hi=undo(rec["var_hi"]), es=undo(rec["es"]),
                    srm=undo(rec["srm"]), stderr=undo(rec["stderr"]),
                ))
        return RiskReport(rows=rows, meta={})
    with open(path) as fh:
        doc = json.load(fh)
    for rec in doc["rows"]:
        rows.append(ReportRow(
            alpha=float(rec["alpha"]), method=rec["method"],
            var=float(rec["var"]), var_lo=undo(rec["var_lo"]),
            var_hi=undo(rec["var_hi"]), es=undo(rec["es"]),
            srm=undo(rec["srm"]), stderr=undo(rec["stderr"]),
        ))
    return RiskReport(rows=rows, meta=doc.get("meta", {}))
