"""Golden reports: each CLI method's report on a small fixed config, byte
for byte.

``test_repeated_runs_emit_identical_bytes`` checks that one run repeats
itself; these files check that a change to the code leaves the bytes of
every route's report as they were.  They pin bytes, not correctness: a
known fault that shows in a report is pinned with the rest, and its file
changes when the fault is mended (the particle rows moved when they came
to be read between grid points instead of at them).

A change that is meant to move a report regenerates the files with

    PYTHONPATH=src python tests/test_golden_reports.py

and names every regenerated file, with its reason, in CHANGES.md.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from lossmc.cli import main

GOLDEN = Path(__file__).parent / "golden"

_LN05 = {"kind": "lognormal", "mu": 2.0, "sigma": 0.5}
_POISSON2 = {"kind": "poisson", "lambda": 2.0}
_NEGBIN = {"kind": "negbinomial", "r": 2.0, "beta": 1.0}
_LEVELS = [0.5, 0.9, 0.99, 0.999]


def _simulate(frequency):
    return {"model": {"frequency": frequency, "severity": _LN05},
            "method": {"kind": "mc", "T": 20_000},
            "levels": _LEVELS, "seed": 11}


def _rare_event(frequency, severity=_LN05, thresholds=(40.0, 60.0, 80.0)):
    return {"model": {"frequency": frequency, "severity": severity},
            "method": {"kind": "rare-event", "thresholds": list(thresholds),
                       "n_particles": 500, "mh_steps": 2, "replicates": 4},
            "levels": [0.9], "seed": 5}


def _panjer(frequency, severity=_LN05, step=0.05, x_max=150.0):
    return {"model": {"frequency": frequency, "severity": severity},
            "method": {"kind": "panjer", "step": step, "x_max": x_max},
            "levels": _LEVELS}


# golden file stem -> (subcommand, config); each config runs in well under
# a second
CONFIGS = {
    "simulate": ("simulate", _simulate(_POISSON2)),
    "simulate_binomial": ("simulate", _simulate({"kind": "binomial", "m": 5, "q": 0.4})),
    "simulate_negbinomial": ("simulate", _simulate(_NEGBIN)),
    "simulate_genpoisson": ("simulate", _simulate({"kind": "genpoisson", "lambda": 1.5,
                                                   "theta": 0.3})),
    "simulate_genpoisson_under": ("simulate", _simulate({"kind": "genpoisson",
                                                         "lambda": 1.8, "theta": -0.36})),
    "sla_order1": ("sla", {"model": {"frequency": _POISSON2, "severity": _LN05},
                           "method": {"kind": "sla", "order": 1},
                           "levels": _LEVELS + [0.9999]}),
    "sla_order2": ("sla", {"model": {"frequency": _NEGBIN,
                                     "severity": {"kind": "pareto", "a": 0.8, "s": 1.0}},
                           "method": {"kind": "sla", "order": 2},
                           "levels": _LEVELS + [0.9999]}),
    "sla_order2_lognormal": ("sla", {"model": {"frequency": _POISSON2, "severity": _LN05},
                                     "method": {"kind": "sla", "order": 2},
                                     "levels": _LEVELS + [0.9999]}),
    "panjer_poisson": ("panjer", _panjer(_POISSON2)),
    "panjer_poisson0": ("panjer", _panjer({"kind": "poisson", "lambda": 0.0})),
    "panjer_binomial": ("panjer", _panjer({"kind": "binomial", "m": 5, "q": 0.4})),
    "panjer_negbinomial": ("panjer", _panjer(_NEGBIN)),
    "panjer_genpoisson": ("panjer", _panjer({"kind": "genpoisson", "lambda": 1.5,
                                             "theta": 0.3})),
    "panjer_genpoisson_under": ("panjer", _panjer({"kind": "genpoisson", "lambda": 2.0,
                                                   "theta": -0.3})),
    "panjer_pareto": ("panjer", _panjer(_POISSON2, {"kind": "pareto", "a": 2.0, "s": 1.0})),
    "panjer_point_mass": ("panjer", _panjer(_POISSON2, {"kind": "degenerate", "atom": 2.0},
                                            step=0.5, x_max=40.0)),
    "particle": ("particle", {"model": {"frequency": _NEGBIN,
                                        "severity": {"kind": "lognormal", "mu": 2.0,
                                                     "sigma": 1.0}},
                              "method": {"kind": "particle", "grid_width": 2.0,
                                         "x_max": 200.0, "n_per_point": 200},
                              "levels": [0.5, 0.9, 0.99, 0.9999], "seed": 7}),
    "rare_event": ("rare-event", _rare_event(_POISSON2)),
    "rare_event_negbinomial": ("rare-event", _rare_event(_NEGBIN)),
    "rare_event_pareto": ("rare-event", _rare_event(_POISSON2, {"kind": "pareto", "a": 1.5,
                                                                "s": 1.0},
                                                    (10.0, 20.0, 40.0))),
}
# golden file -> table1 arguments
TABLES = {
    "table1_sigma05.json": ["--preset", "sigma05", "--scale", "0.0001", "--out", "json"],
    "table1_sigma1.csv": ["--preset", "sigma1", "--scale", "0.0001", "--out", "csv"],
}


def _emit(name: str, out: Path, workdir: Path) -> None:
    """Write the report that the golden file ``name`` pins to ``out``."""
    if name in TABLES:
        argv = ["table1", *TABLES[name]]
    else:
        command, doc = CONFIGS[Path(name).stem]
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg), "--out", "json"]
    assert main([*argv, "--path", str(out)]) == 0


NAMES = [f"{stem}.json" for stem in CONFIGS] + list(TABLES)


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden_bytes(tmp_path, capsys, name):
    out = tmp_path / name
    _emit(name, out, tmp_path)
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            _emit(name, GOLDEN / name, Path(tmp))
