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
    empirical_quantile_ci,
    require_memory,
    simulate_compound_parallel,
)
from .config import COUNT, REAL, REALS, REQUIRED, check_keys, read_block, read_value
from .distributions import build_frequency, build_severity
from .errors import LevelRangeError, TruncationError
from .panjer import oracle_compound_pmf, oracle_tail_stats
from .rare_event import LevelSequence, replicate_smc
from .rng import PcgStream
from .volterra import default_absorption, estimate_density_grid, risk_measures_from_measure
# no caller here: benchmarks/tracing.py patches report.quantile_from_measure by name
from .volterra import quantile_from_measure  # noqa: F401

# key -> (kind, default) of each method block besides "kind"; a default of
# None is the model's own (see the runner)
_METHODS = {
    "mc": {"T": (COUNT, 1_000_000), "ci_level": (REAL, 0.95)},
    "sla": {"order": ((1, 2), 1)},
    "panjer": {"step": (REAL, 0.01), "x_max": (REAL, None)},
    "particle": {"grid_width": (REAL, 1.0), "x_max": (REAL, None),
                 "n_per_point": (COUNT, 50_000), "p_d": (REAL, None)},
    "rare-event": {"thresholds": (REALS, REQUIRED), "n_particles": (COUNT, 10_000),
                   "mh_steps": (COUNT, 5), "replicates": (COUNT, 16)},
}
# Bytes a particle grid point needs at least: the grid and the estimate
# and SE arrays (8 B each) and its spawned PcgStream, about 1000 B by
# tracemalloc over 20,000 spawns (numpy 2.4).
_GRID_POINT_BYTES = 1024
_MODEL = {"frequency": (build_frequency, REQUIRED), "severity": (build_severity, REQUIRED)}
# kind of each top-level config value besides the model and method blocks
_CONFIG = {"levels": REALS, "seed": COUNT, "output": ("csv", "json"), "threads": COUNT}
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
        check_keys(self.model, _MODEL, "model")
        kind = self.method.get("kind") if isinstance(self.method, dict) else None
        if kind not in _METHODS:
            raise ValueError(f"method.kind must be one of {tuple(_METHODS)}, got {kind!r}")
        # values are read when the run starts (_method_values)
        check_keys(self.method, _METHODS[kind], f"{kind} method", kinded=True)
        for key, vkind in _CONFIG.items():
            setattr(self, key, read_value(getattr(self, key), vkind, key))
        if any(not (0.0 < a < 1.0) for a in self.levels):
            raise ValueError("levels must be probabilities in (0, 1)")
        self.levels.sort()
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if kind != "mc" and self.threads != 1:
            raise ValueError(f"threads applies to the mc method only, got {self.threads} "
                             f"for {kind}")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            doc = json.load(fh)
        unknown = set(doc) - {"model", "method", *_CONFIG}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def build_model(self) -> CompoundModel:
        return CompoundModel(**read_block(self.model, _MODEL, "model"))


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

def _method_values(cfg: ExperimentConfig) -> dict:
    kind = cfg.method["kind"]
    return read_block(cfg.method, _METHODS[kind], f"{kind} method", kinded=True)


def _x_max(model, m: dict) -> float:
    """``x_max``, by default 40 max(E[Z], 1); a ValueError where that default
    is not finite (E[Z] infinite, or NaN for E[N] = 0 times E[X] = inf)."""
    if m["x_max"] is not None:
        return m["x_max"]
    mean = model.mean()
    x_max = 40.0 * max(mean, 1.0)
    if not math.isfinite(x_max):
        raise ValueError(f"the default x_max = 40 max(E[Z], 1) is not finite at "
                         f"E[Z] = {mean:g}; set x_max")
    return x_max


def _run_mc(model, cfg: ExperimentConfig):
    m = _method_values(cfg)
    batch = simulate_compound_parallel(model, m["T"], cfg.seed, threads=cfg.threads)
    rows = []
    stats = empirical_quantile_ci(batch, cfg.levels, m["ci_level"])
    for alpha, (point, lo, hi) in zip(cfg.levels, stats):
        # the VaR is a sample value, so the tail holds it at least
        es = float(batch.values[batch.values >= point].mean())
        rows.append(ReportRow(alpha=alpha, method="mc", var=point,
                              var_lo=lo, var_hi=hi, es=es))
    return rows, m


def _run_sla(model, cfg: ExperimentConfig):
    m = _method_values(cfg)
    sla = sla_var_second_order if m["order"] == 2 else sla_var_first_order
    rows = []
    for alpha in cfg.levels:
        try:
            var = sla(model, alpha)
        except LevelRangeError:
            continue
        rows.append(ReportRow(alpha=alpha, method="sla", var=var))
    return rows, m


def _run_panjer(model, cfg: ExperimentConfig):
    m = _method_values(cfg)
    pmf = oracle_compound_pmf(model, m["step"], _x_max(model, m))
    rows = [ReportRow(alpha=alpha, method="panjer", var=q, es=es)
            for alpha, (q, es) in zip(cfg.levels, oracle_tail_stats(pmf, cfg.levels))]
    return rows, {"step": m["step"], "masses": len(pmf.masses)}


def _run_particle(model, cfg: ExperimentConfig):
    m = _method_values(cfg)
    width = m["grid_width"]
    x_max = _x_max(model, m)
    points = x_max / width if width > 0.0 else 0.0  # a float: it may overflow to inf
    require_memory(_GRID_POINT_BYTES * points, f"grid_width {width:g} to x_max {x_max:g} "
                   f"makes {points:.3g} grid points, which")
    # a lone point has no neighbour to set its cell width, so its cell is
    # the unit one around it and the measure misses the mass below it
    grid = np.arange(width, x_max + 0.5 * width, width) if width > 0.0 else []
    if len(grid) < 2:
        raise ValueError(f"need grid_width > 0 and 1.5 grid_width < x_max so the grid has "
                         f"two points, got grid_width {width}, x_max {x_max}")
    p_d = default_absorption(model) if m["p_d"] is None else m["p_d"]
    measure = estimate_density_grid(model, grid, m["n_per_point"], p_d, PcgStream(cfg.seed))
    knots, surv, se_surv = measure.survival()
    rows = []
    # zero mass + cells + tail mass, 1 for a measure that holds the whole
    # law; its SE is that of the survival above the atom at zero
    diag = {"grid_width": width, "x_max": x_max, "n_per_point": m["n_per_point"], "p_d": p_d,
            "mass_balance": measure.zero_mass + float(surv[0]),
            "mass_balance_stderr": float(se_surv[0])}
    for alpha in cfg.levels:
        try:
            row = risk_measures_from_measure(measure, alpha)
        except TruncationError:
            # the quantile lies beyond the grid; report its top (a lower
            # bound) with no spread
            rows.append(ReportRow(alpha=alpha, method="particle", var=float(knots[-1])))
            continue
        # ``stderr`` is the VaR's; the ES's goes with the diagnostics
        diag[f"es_stderr_{alpha:g}"] = row.pop("es_stderr")
        rows.append(ReportRow(alpha=alpha, method="particle", **row))
    return rows, diag


def _run_rare_event(model, cfg: ExperimentConfig):
    m = _method_values(cfg)
    levels = LevelSequence(thresholds=m["thresholds"])
    rows = []
    diag = {}
    estimates, pilot = replicate_smc(model, levels, m["mh_steps"], m["n_particles"],
                                     PcgStream(cfg.seed), m["replicates"])
    diag.update({f"pilot_{key}": value for key, value in pilot.items()})
    for z, (p_exceed, rse) in zip(levels.thresholds, estimates):
        rows.append(ReportRow(alpha=1.0 - p_exceed, method="rare-event", var=float(z)))
        diag[f"p_exceed_{z:g}"] = p_exceed
        diag[f"rse_{z:g}"] = rse
    return rows, diag


def run_experiment(config: ExperimentConfig) -> RiskReport:
    """Dispatch one configured run and assemble the report.

    A runner's exception propagates as the same object, with an exception
    note naming the method kind."""
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
        # set by hand: BaseException.add_note is Python 3.11+
        exc.__notes__ = [*getattr(exc, "__notes__", ()), f"{kind} run failed"]
        raise
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

    mc_cfg = ExperimentConfig(model=model_block,
                              method={"kind": "mc", "T": max(1000, int(5e7 * scale))},
                              levels=levels, seed=seed)
    particle_cfg = ExperimentConfig(
        model=model_block,
        method={"kind": "particle", "grid_width": 1.0, "x_max": x_max,
                "n_per_point": max(100, int(5e4 * scale))},
        levels=levels, seed=seed + 1,
    )
    sla_cfg = ExperimentConfig(model=model_block, method={"kind": "sla"},
                               levels=levels, seed=seed)
    rows = [row for cfg in (mc_cfg, particle_cfg, sla_cfg) for row in run_experiment(cfg).rows]

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

    def row(rec):
        return ReportRow(alpha=float(rec["alpha"]), method=rec["method"],
                         var=float(rec["var"]),
                         **{k: undo(rec[k]) for k in ("var_lo", "var_hi", "es", "srm", "stderr")})

    with open(path) as fh:
        if format == "csv":
            return RiskReport(rows=[row(rec) for rec in csv.DictReader(fh)], meta={})
        doc = json.load(fh)
    return RiskReport(rows=[row(rec) for rec in doc["rows"]], meta=doc.get("meta", {}))
