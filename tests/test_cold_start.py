"""Importing lossmc and running every route loads no heavy scipy module.

``scipy.stats`` pulls in ``scipy.optimize``, ``scipy.linalg``,
``scipy.sparse`` and ``scipy.integrate``; they take most of a cold import.
No package module imports ``scipy.stats``, ``scipy.integrate`` or
``scipy.fft``: the MC quantile interval takes its binomial ranks from
``scipy.special``, and the oracle runs its transforms on ``numpy.fft`` with
a length of its own.  A fresh
interpreter runs the other four routes and then the interval, finds none of
those modules loaded after either, and gets the in-process interval.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from lossmc import SampleBatch, empirical_quantile_ci

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
                      "scipy.linalg", "scipy.fft") if m in sys.modules]

batch = lossmc.SampleBatch(values=np.arange(1.0, 101.0))
got = {
    "loaded": loaded,
    "quantile_ci": lossmc.empirical_quantile_ci(batch, [0.9], 0.95),
}
got["loaded_after"] = [m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules]
print(json.dumps(got))
"""


def test_fresh_process_loads_no_heavy_scipy_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["loaded"] == []
    assert got["loaded_after"] == []

    # the fresh process gives the same numbers as this one
    assert got["quantile_ci"] == [list(ci) for ci in empirical_quantile_ci(
        SampleBatch(values=np.arange(1.0, 101.0)), [0.9], 0.95)]

    imported = set()
    for path in Path(src, "lossmc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    for heavy in ("scipy.stats", "scipy.integrate", "scipy.fft"):
        assert not [m for m in imported if m == heavy or m.startswith(heavy + ".")], heavy
