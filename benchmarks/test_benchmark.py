"""Self-tests of the benchmark harness.

Run from the repository root (about a minute):

    python3 -m pytest -q benchmarks
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import lossmc.report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Capture, Tracer, instrument, op_layers, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNTS = ("rng.uniforms", "volterra.steps", "compound.simulate_calls",
          "rare_event.level_passes")


def _namespaces() -> dict:
    """Every attribute of every lossmc module and lossmc class."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "lossmc" or modname.startswith("lossmc."):
            snap[modname] = dict(vars(mod))
            for name, obj in vars(mod).items():
                if isinstance(obj, type) and obj.__module__.startswith("lossmc"):
                    snap[f"{modname}.{name}"] = dict(vars(obj))
    return snap


def _assert_same_objects(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys(), owner
        changed = [a for a, v in attrs.items() if after[owner][a] is not v]
        assert not changed, f"{owner}: {changed} not restored"


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def test_self_time_with_nested_and_back_to_back_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],      # a and b are back to back
        ["b", 3.0, 6.0, 0],
        ["a1", 1.5, 2.0, 1],     # nested inside a
        ["c", 8.0, 9.5, 0],
        ["next", 10.0, 11.0, -1],
    ]
    assert self_times(spans) == pytest.approx([3.5, 1.5, 3.0, 0.5, 1.5, 1.0])
    # self times partition the top-level spans
    assert sum(self_times(spans)) == pytest.approx(11.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 4.0, 7.0, 0],
             ["z", 9.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


# ---------------------------------------------------------------------------
# Traced operations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Operation 0 at seed 0 of every workload, traced twice."""
    refs = workloads.load_references()
    out = {}
    for workload in workloads.WORKLOADS:
        before = _namespaces()
        runs = []
        for _ in range(2):
            tracer = Tracer()
            with Capture() as capture, instrument(tracer):
                paths = workloads.run_op(workloads.op_configs(workload, 0, 0),
                                         str(tmp_path_factory.mktemp(workload)))
                seen = capture.take()
            check = workloads.check_op(workload, paths, refs, seen)
            runs.append((tracer, op_layers(tracer), check))
        out[workload] = (before, _namespaces(), runs)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_restores_every_wrapped_attribute(traced_twice, workload):
    before, after, _ = traced_twice[workload]
    _assert_same_objects(before, after)


def test_patches_are_restored_when_the_operation_raises():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with Capture(), instrument(Tracer()):
            raise RuntimeError("boom")
    _assert_same_objects(before, _namespaces())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly_at_one_seed(traced_twice, workload):
    (_, (first, _), _), (_, (second, _), _) = traced_twice[workload][2]
    for name in COUNTS:
        assert first[name] == second[name], name
    assert first["volterra.steps"] > 0 or workload != "particle"
    assert first["rare_event.level_passes"] > 0 or workload != "splitting"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_cover_the_top_level_spans(traced_twice, workload):
    tracer, (_, self_sum), check = traced_twice[workload][2][0]
    top = sum(e - s for _, s, e, parent in tracer.spans if parent < 0)
    assert self_sum == pytest.approx(top, rel=1e-9)
    assert check.failure is None and not check.gross


# ---------------------------------------------------------------------------
# Metric names and the output contract
# ---------------------------------------------------------------------------

def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert {m["name"] for m in SPEC["per_layer"]} == set(LAYER_METRICS) | {
        "trace.overhead_s", "trace.unattributed_s", "trace.spans"}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_carries_exactly_the_declared_metrics(trace):
    cmd = SPEC["command"] + ["--workload", "splitting", "--seed", "3",
                             "--seconds", "1", "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(m["value"] > 0 and math.isfinite(m["value"])
                   for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "mc", "--seed", "0", "--seconds", "1",
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# ---------------------------------------------------------------------------
# Checks and failure accounting
# ---------------------------------------------------------------------------

def test_an_operation_that_raises_counts_as_failed(tmp_path):
    cfg = lossmc.report.ExperimentConfig(
        model=workloads.MODELS["poisson"], levels=workloads.LEVELS,
        method={"kind": "rare-event", "thresholds": []})
    walls = []
    with Capture() as capture:
        check = run.timed_op(workloads, "splitting", [cfg], {}, capture, str(tmp_path), walls)
    assert check.failure and "thresholds" in check.failure
    assert len(walls) == 1


def test_a_run_attempts_the_same_operations_however_long_they_take(tmp_path):
    """The operation count comes from the arguments, not the clock, so two
    runs at one seed attempt and fail the same operations."""
    import time
    from types import SimpleNamespace

    def run_op(cfgs, out_dir):
        time.sleep(0.001 * (cfgs[0] % 3))
        if cfgs[0] == 2:
            raise ValueError("op 2 fails")
        return []

    fake = SimpleNamespace(ops_per_run=workloads.ops_per_run,
                           op_configs=lambda workload, seed, k: [k],
                           run_op=run_op, OpCheck=workloads.OpCheck,
                           check_op=lambda *args: workloads.OpCheck(tail_rse=0.1))
    for seconds in (0.001, 20.0):
        walls, checks = run.run_untraced(fake, "splitting", 0, seconds, {}, [0],
                                         str(tmp_path))
        n = workloads.ops_per_run("splitting", seconds)
        assert len(walls) == len(checks) == n >= workloads.MIN_OPS
        assert [c.failure is not None for c in checks] == [k == 2 for k in range(n)]


def test_non_monotone_or_non_finite_reports_fail():
    Row = lossmc.report.ReportRow
    bad_order = lossmc.report.RiskReport(rows=[Row(0.5, "mc", 10.0), Row(0.9, "mc", 9.0)])
    bad_value = lossmc.report.RiskReport(rows=[Row(0.5, "mc", 10.0, es=math.nan)])
    good = lossmc.report.RiskReport(rows=[Row(0.5, "mc", 9.0), Row(0.9, "mc", 10.0)])
    assert "monotone" in workloads._structure_failure(bad_order)
    assert "non-finite" in workloads._structure_failure(bad_value)
    assert workloads._structure_failure(good) is None


def test_mc_and_particle_rows_equal_table1_at_default_seeds():
    table = lossmc.report.reproduce_table1("sigma1", 0.1)
    for workload in ("mc", "particle"):
        (cfg,) = workloads.op_configs(workload, 0, 0)
        rows = lossmc.report.run_experiment(cfg).rows
        assert rows == [r for r in table.rows if r.method == workload]
