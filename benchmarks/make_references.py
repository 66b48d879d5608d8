"""Generate the reference values the benchmark checks every run against.

Usage (from the repository root):

    python3 benchmarks/make_references.py

For each model the workloads use, the discrete recursion runs on a lattice
four times finer than the ``recursion`` workload (step 0.0025 against 0.01)
and gives:

* ``quantiles``: the lattice quantile at the seven table1 levels;
* ``tail_point`` / ``tail_prob``: z_tail = round(q(0.999)) and P(Z > z_tail),
  the tail answer whose standard error ``tail_rse`` reports;
* ``exceedance``: P(Z > z) at the splitting thresholds (Poisson model only);
* ``mass_deficit``: P(Z > x_max), the tail a grid ending at x_max cannot see.

Timed runs load ``references.json`` and never recompute it.  The file
records the command, the lattice and the git commit it was made from.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from lossmc.report import ExperimentConfig  # noqa: E402
from lossmc.panjer import oracle_compound_pmf  # noqa: E402

from workloads import LEVELS, MODELS, THRESHOLDS, X_MAX  # noqa: E402

STEP = 0.0025


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def survival(pmf, z: float) -> float:
    """P(Z > z) = 1 - F(z) on the lattice.  Summing the masses above z
    would drop the mass beyond x_max; the masses at or below z are exact."""
    return 1.0 - float(pmf.masses[:int(round(z / pmf.step)) + 1].sum())


def main() -> int:
    models = {}
    for name, block in MODELS.items():
        model = ExperimentConfig(model=block, method={"kind": "panjer"},
                                 levels=LEVELS).build_model()
        pmf = oracle_compound_pmf(model, step=STEP, x_max=X_MAX)
        cdf = pmf.cdf()
        quantiles = {f"{a:g}": float(cdf.searchsorted(a) * STEP) for a in LEVELS}
        tail_point = float(round(quantiles["0.999"]))
        entry = {
            "model": block,
            "quantiles": quantiles,
            "tail_point": tail_point,
            "tail_prob": survival(pmf, tail_point),
            "mass_deficit": float(1.0 - cdf[-1]),
        }
        if name == "poisson":
            entry["exceedance"] = {f"{z:g}": survival(pmf, z) for z in THRESHOLDS}
        models[name] = entry
        print(name, json.dumps(entry), flush=True)
    doc = {
        "command": "python3 benchmarks/make_references.py",
        "git_sha": git_sha(),
        "step": STEP,
        "x_max": X_MAX,
        "discretization": "local_moments",
        "levels": LEVELS,
        "models": models,
    }
    (HERE / "references.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
