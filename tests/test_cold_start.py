"""Importing lossmc and running the default routes loads no heavy scipy module.

``scipy.stats`` pulls in ``scipy.optimize``, ``scipy.linalg`` and
``scipy.sparse``; with ``scipy.integrate`` they take most of a cold
import.  Only the MC quantile interval and the convolution-tail
diagnostic use them, and each imports them where it is called.  A fresh
interpreter shows both halves: the routes leave the modules unloaded, and
the lazy calls load them and still give the in-process answers.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from lossmc import (
    LogNormalSeverity,
    SampleBatch,
    empirical_quantile_ci,
    subexp_tail_ratio,
)

CHILD = r"""
import json
import sys

import numpy as np

import lossmc
import lossmc.cli
from lossmc.report import ExperimentConfig, run_experiment

MODEL = {"frequency": {"kind": "poisson", "lambda": 2.0},
         "severity": {"kind": "lognormal", "mu": 2.0, "sigma": 1.0}}
for method in ({"kind": "panjer", "step": 0.5, "x_max": 200.0},
               {"kind": "sla"},
               {"kind": "particle", "x_max": 5.0, "n_per_point": 10},
               {"kind": "rare-event", "thresholds": [20.0], "n_particles": 100,
                "mh_steps": 1, "replicates": 2}):
    run_experiment(ExperimentConfig(model=MODEL, method=method, levels=[0.5, 0.9]))
loaded = [m for m in ("scipy.stats", "scipy.integrate", "scipy.optimize",
                      "scipy.linalg") if m in sys.modules]

batch = lossmc.SampleBatch(values=np.arange(1.0, 101.0))
got = {
    "loaded": loaded,
    "quantile_ci": lossmc.empirical_quantile_ci(batch, 0.9, 0.95),
    "tail_ratio": lossmc.subexp_tail_ratio(lossmc.LogNormalSeverity(2.0, 1.0), 50.0),
}
got["loaded_after"] = [m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules]
print(json.dumps(got))
"""


def test_fresh_process_loads_heavy_scipy_only_on_use():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["loaded"] == []
    assert got["loaded_after"] == ["scipy.stats", "scipy.integrate"]

    # the lazily imported paths give the same numbers as in this process
    assert got["quantile_ci"] == list(empirical_quantile_ci(
        SampleBatch(values=np.arange(1.0, 101.0)), 0.9, 0.95))
    assert got["tail_ratio"] == subexp_tail_ratio(LogNormalSeverity(2.0, 1.0), 50.0)
