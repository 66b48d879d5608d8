"""The four benchmark workloads: their inputs, one operation, and its checks.

Every workload uses the table1 ``sigma1`` severity (lognormal mu=2, sigma=1)
and goes through the public entry points ``lossmc.report.run_experiment``
and ``lossmc.report.emit_report``, the path the CLI takes.  One operation
is the list of experiment configs below, each run and emitted as a JSON
report.  The emitted files are parsed back and checked against the values
in ``references.json``; nothing is recomputed during a timed run.

Operation ``k`` of a run started with ``--seed s`` uses the experiment seed
``BASE_SEED[workload] + SEED_STRIDE * s + k``, so ``--seed 0`` op 0 of the
``mc`` and ``particle`` workloads reproduces the rows of
``reproduce_table1("sigma1", 0.1)``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lossmc.report as report

LEVELS = [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9995]
SEVERITY = {"kind": "lognormal", "mu": 2.0, "sigma": 1.0}
MODELS = {
    "poisson": {"frequency": {"kind": "poisson", "lambda": 2.0}, "severity": SEVERITY},
    "negbinomial": {"frequency": {"kind": "negbinomial", "r": 2.0, "beta": 1.0},
                    "severity": SEVERITY},
    "genpoisson": {"frequency": {"kind": "genpoisson", "lambda": 1.5, "theta": 0.3},
                   "severity": SEVERITY},
}
X_MAX = 400.0
THRESHOLDS = [100.0, 200.0, 300.0]
PANJER_STEP = 0.01

WORKLOADS = ("mc", "particle", "recursion", "splitting")
BASE_SEED = {"mc": 821_10, "particle": 821_11, "recursion": 821_12, "splitting": 821_13}
SEED_STRIDE = 1000

# Median time of one untraced operation on the reference machine (see
# provenance.json).  A run holds as many operations as take ``--seconds`` at
# these times; it does not watch the clock, so the operations a run attempts
# depend on its arguments only.
NOMINAL_OP_S = {"mc": 1.8, "particle": 3.3, "recursion": 5.0, "splitting": 1.55}
MIN_OPS = 3     # operations per untraced run, at least
MIN_PAIRS = 2   # untraced + traced pairs per traced run, at least

# An estimate further than this many standard errors from the reference
# counts as an oracle miss (the tier-1 tests gate at 3-4 SE).
MISS_SE = 4.0
# A deterministic recursion row misses when it is off by more than two
# lattice steps of the workload's lattice.
MISS_LATTICE = 2 * PANJER_STEP
# Gross errors make a run incorrect: further than GROSS_SE standard errors
# and more than GROSS_REL of the reference (GROSS_REL_RARE for splitting,
# whose deepest level has a relative SE near 0.1).
GROSS_SE = 8.0
GROSS_REL = 0.1
GROSS_REL_RARE = 0.5
# The recursion is the oracle: a tail error above this is a broken program.
RECURSION_TAIL_TOL = 0.01

REFERENCES = Path(__file__).resolve().parent / "references.json"


def load_references(path: Path = REFERENCES) -> dict:
    """Load the checked-in references and check they describe our models."""
    doc = json.loads(path.read_text())
    if doc["levels"] != LEVELS or doc["x_max"] != X_MAX:
        raise ValueError(f"{path} was made for other levels or x_max")
    for name, block in MODELS.items():
        entry = doc["models"][name]
        if entry["model"] != block:
            raise ValueError(f"{path}: model {name} differs from the workload model")
    if sorted(float(z) for z in doc["models"]["poisson"]["exceedance"]) != THRESHOLDS:
        raise ValueError(f"{path}: exceedance thresholds differ from the workload")
    return doc["models"]


def op_configs(workload: str, seed: int, k: int) -> list:
    """Experiment configs of operation ``k`` for a run at ``seed``."""
    s = BASE_SEED[workload] + SEED_STRIDE * int(seed) + int(k)
    poisson = MODELS["poisson"]
    if workload == "mc":
        return [report.ExperimentConfig(model=poisson, levels=LEVELS, seed=s,
                                        method={"kind": "mc", "T": 5_000_000})]
    if workload == "particle":
        return [report.ExperimentConfig(
            model=poisson, levels=LEVELS, seed=s,
            method={"kind": "particle", "grid_width": 1.0, "x_max": X_MAX,
                    "n_per_point": 5000})]
    if workload == "recursion":
        panjer = {"kind": "panjer", "step": PANJER_STEP, "x_max": X_MAX}
        cfgs = [report.ExperimentConfig(model=MODELS[name], method=panjer,
                                        levels=LEVELS, seed=s)
                for name in ("poisson", "negbinomial", "genpoisson")]
        cfgs.append(report.ExperimentConfig(model=poisson, method={"kind": "sla"},
                                            levels=LEVELS, seed=s))
        return cfgs
    if workload == "splitting":
        return [report.ExperimentConfig(
            model=poisson, levels=LEVELS, seed=s,
            method={"kind": "rare-event", "thresholds": THRESHOLDS,
                    "n_particles": 10_000, "mh_steps": 5, "replicates": 32})]
    raise ValueError(f"unknown workload {workload!r}")


def ops_per_run(workload: str, seconds: float, traced: bool = False) -> int:
    """Operations in a run (untraced + traced pairs when ``traced``)."""
    if traced:
        return max(MIN_PAIRS, round(seconds / (2 * NOMINAL_OP_S[workload])))
    return max(MIN_OPS, round(seconds / NOMINAL_OP_S[workload]))


def setup(workload: str, seed: int):
    """Everything a run needs before its first operation: references, the
    first operation's configs and their models (which validates them)."""
    refs = load_references()
    cfgs = op_configs(workload, seed, 0)
    for cfg in cfgs:
        cfg.build_model()
    return refs, cfgs


def run_op(cfgs: list, out_dir: str) -> list:
    """One operation: run and emit every config.  Returns the report paths."""
    paths = []
    for i, cfg in enumerate(cfgs):
        path = os.path.join(out_dir, f"report-{i}.json")
        rep = report.run_experiment(cfg)
        report.emit_report(rep, "json", path)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass
class OpCheck:
    """What the checks found in one operation's emitted reports."""

    failure: str | None = None      # why the operation failed, if it did
    gross: list = field(default_factory=list)   # rows with a gross error
    misses: int = 0                 # rows off by more than MISS_SE / MISS_LATTICE
    rows: int = 0                   # rows compared against a reference
    max_rel_err: float = 0.0        # largest |estimate - ref| / ref
    truncated: int = 0              # particle rows read at the grid top
    tail_rse: float | None = None   # relative SE (or error) of the tail answer,
                                    # P(Z > tail_point), also compared as a row


def _finite(v) -> bool:
    return v is None or math.isfinite(v)


def _structure_failure(rep) -> str | None:
    """A non-finite emitted value or a VaR column that is not monotone."""
    by_method = {}
    for row in rep.rows:
        if not all(_finite(v) for v in (row.alpha, row.var, row.var_lo, row.var_hi,
                                        row.es, row.srm, row.stderr)):
            return f"non-finite value in {row.method} row at alpha={row.alpha}"
        by_method.setdefault(row.method, []).append(row)
    for method, rows in by_method.items():
        rows.sort(key=lambda r: r.alpha)
        if any(b.var < a.var for a, b in zip(rows, rows[1:])):
            return f"{method} VaR not monotone in alpha"
    return None


def _compare(check: OpCheck, label: str, est: float, ref: float, se: float,
             gross_rel: float = GROSS_REL, target: float | None = None) -> None:
    """Count a miss against the reference ``ref``; flag a gross error against
    ``target``, what the estimator aims at (``ref`` unless it is known to
    cover only part of the answer)."""
    err = abs(est - ref)
    check.rows += 1
    check.max_rel_err = max(check.max_rel_err, err / ref)
    check.misses += err > MISS_SE * se
    target = ref if target is None else target
    if abs(est - target) > max(GROSS_SE * se, gross_rel * target):
        check.gross.append(f"{label}: {est:.6g} vs {target:.6g} (SE {se:.3g})")


def _survival(pmf, z: float) -> float:
    """P(Z > z) = 1 - F(z) on the lattice, as the references compute it."""
    return 1.0 - float(pmf.masses[:int(round(z / pmf.step)) + 1].sum())


def check_op(workload: str, paths: list, refs: dict, captured: dict) -> OpCheck:
    """Check one operation's emitted reports against the references.

    ``captured`` holds what the run's capture hooks saw (see
    :class:`Capture`): the Monte Carlo batch, the particle measure or the
    recursion pmfs, from which the tail answer's error is read.
    """
    check = OpCheck()
    reports = [report.parse_report(p, "json") for p in paths]
    for rep in reports:
        check.failure = check.failure or _structure_failure(rep)
    if check.failure:
        return check
    poisson = refs["poisson"]
    q_ref = poisson["quantiles"]
    z_tail = poisson["tail_point"]

    if workload == "mc":
        for row in reports[0].rows:
            se = (row.var_hi - row.var_lo) / (2 * 1.959964)
            _compare(check, f"mc {row.alpha:g}", row.var, q_ref[f"{row.alpha:g}"], se)
        values = captured["batch"].values
        p_hat = np.count_nonzero(values > z_tail) / len(values)
        se = math.sqrt(p_hat * (1.0 - p_hat) / len(values))
        _compare(check, f"mc P(Z>{z_tail:g})", p_hat, poisson["tail_prob"], se)
        check.tail_rse = se / p_hat if p_hat > 0.0 else math.inf
    elif workload == "particle":
        for row in reports[0].rows:
            ref = q_ref[f"{row.alpha:g}"]
            if row.stderr is None:
                # The grid ends at x_max and its mass fell short of alpha,
                # so the report gave the grid top with no spread.  This is a
                # known defect of the deep-tail readout: it counts as a miss,
                # not as a gross error.
                check.rows += 1
                check.misses += 1
                check.truncated += 1
                check.max_rel_err = max(check.max_rel_err, abs(row.var - ref) / ref)
                continue
            _compare(check, f"particle {row.alpha:g}", row.var, ref, row.stderr)
        m = captured["measure"]
        widths = np.gradient(m.locations) if len(m.locations) > 1 else np.ones(1)
        above = m.locations > z_tail
        p_hat = float(np.sum(m.weights[above] * widths[above]))
        se = float(np.sqrt(np.sum((m.stderr[above] * widths[above]) ** 2)))
        # The grid stops at x_max and drops the mass beyond it (about 9 % of
        # this tail), a known defect: it counts as a miss against the whole
        # tail, while gross errors are judged against the part on the grid.
        _compare(check, f"particle P(Z>{z_tail:g})", p_hat, poisson["tail_prob"], se,
                 target=poisson["tail_prob"] - poisson["mass_deficit"])
        check.tail_rse = se / p_hat if p_hat > 0.0 else math.inf
    elif workload == "recursion":
        errs = []
        for name, rep, pmf in zip(("poisson", "negbinomial", "genpoisson"),
                                  reports, captured["pmfs"]):
            ref = refs[name]
            for row in rep.rows:
                target = ref["quantiles"][f"{row.alpha:g}"]
                err = abs(row.var - target)
                check.rows += 1
                check.max_rel_err = max(check.max_rel_err, err / target)
                check.misses += err > MISS_LATTICE
                if err > GROSS_REL * target:
                    check.gross.append(f"{name} panjer {row.alpha:g}: {row.var:.6g} "
                                       f"vs reference {target:.6g}")
            p_hat = _survival(pmf, ref["tail_point"])
            errs.append(abs(p_hat - ref["tail_prob"]) / ref["tail_prob"])
        check.tail_rse = max(errs)
        if check.tail_rse > RECURSION_TAIL_TOL:
            check.gross.append(f"recursion tail error {check.tail_rse:.3g}")
        if len(reports[3].rows) != len(LEVELS):
            check.failure = "sla report lost rows"
    elif workload == "splitting":
        diag = reports[0].meta["diagnostics"]
        for z in THRESHOLDS:
            p_hat, rse = diag[f"p_exceed_{z:g}"], diag[f"rse_{z:g}"]
            _compare(check, f"splitting P(Z>{z:g})", p_hat,
                     poisson["exceedance"][f"{z:g}"], rse * p_hat, GROSS_REL_RARE)
        check.tail_rse = diag[f"rse_{THRESHOLDS[-1]:g}"]
    if check.tail_rse is None or not math.isfinite(check.tail_rse) or check.tail_rse <= 0.0:
        check.failure = f"tail answer has no finite positive error: {check.tail_rse}"
    return check
