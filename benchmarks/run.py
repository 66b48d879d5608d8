"""Route-by-route benchmark of lossmc on the table1 sigma=1 model.

Usage, from the repository root:

    python3 benchmarks/run.py --workload splitting --seed 0 --seconds 30 --trace 0

Workloads: ``mc``, ``particle``, ``recursion`` and ``splitting`` (see
``workloads.py``); ``BENCHMARK.json`` lists the last three, and ``mc``, whose
layers ``splitting`` also measures, is run by hand.  A run repeats one operation of the workload, each time
on the next input drawn from ``--seed``, in one single-threaded process.
The number of operations is fixed by the workload and ``--seconds`` alone
(``workloads.ops_per_run``: as many as take ``--seconds`` at the
operation's nominal time, at least three), not by the clock, so a run at
one seed always attempts the same operations on the same inputs and its
``attempted`` and ``failed`` repeat exactly.  Every operation's emitted
reports are checked against ``references.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones:

* ``setup_s``: median over fresh processes of the time from process start
  until the first operation is ready (import, configs, references);
* ``wall_s``: median time of one operation.  A run holds too few
  operations for any percentile above the median to have ten samples
  beyond it, so only the median is reported; the line before the result
  lists every sample;
* ``peak_rss_mb``: peak resident memory of the benchmark process;
* ``tail_rse``: relative standard error of the route's tail answer, per
  operation (pooled over the run's operations as the root mean square);
  for ``recursion``, a deterministic route, the relative error of its
  P(Z > z_tail) against the finer-lattice reference.

An operation fails when it raises, emits a non-finite value or a VaR
column that is not monotone; ``failed`` counts those.  ``correct`` is false
when an operation that completed is grossly wrong against the references
(see ``workloads.py``).

The line before the result (``{"detail": ...}``) reports ``oracle_rel_err``,
``oracle_misses`` (rows per operation more than 4 SE from the reference)
and ``fail_rate``, which are zero in a healthy run and so are not
bounded metrics; ``failed`` / ``attempted`` in the result carry the
fail rate too.  It also reports ``time_to_1pct_s``, ``wall_s * (tail_rse /
0.01) ** 2``: the time the route needs for a 1 %-accurate tail answer
(``wall_s`` for ``recursion``, whose single answer is already within
1 %).  It is not a bounded metric: for ``splitting`` the square of an SE
estimated from a few hundred replicates moves by about 15 % from seed to
seed, on top of the machine's drift in ``wall_s``; its two factors are
bounded each.

With ``--trace 1`` each operation runs once untraced and once with spans
around every public lossmc function (``tracing.py``); the metrics are the
per-layer ones plus ``trace.overhead_s`` (traced minus untraced wall time)
and ``trace.unattributed_s`` (traced wall time minus the sum of all span
self times, which must be within the overhead).  The spans of the first
traced operation are written to ``.bench_run/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One process, one thread: the BLAS dot products in the recursion must not
# fan out over the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
N_SETUP = 3        # fresh processes timed for setup_s
PROBE_TIMEOUT = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc", "particle", "recursion", "splitting"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)  # internal: one setup_s sample
    return p.parse_args(argv)


def import_program():
    """Import lossmc from this checkout's src/, or fail."""
    if not (SRC / "lossmc" / "__init__.py").is_file():
        raise RuntimeError(f"no lossmc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lossmc

    if Path(lossmc.__file__).resolve().parent != SRC / "lossmc":
        raise RuntimeError(f"imported lossmc from {lossmc.__file__}, not {SRC}")
    import workloads

    return workloads


def probe_setup(workload: str, seed: int) -> list:
    """setup_s samples: spawn fresh processes that stop once set up."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    for _ in range(N_SETUP):
        started = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=PROBE_TIMEOUT)
        samples.append(float(out.stdout.split()[-1]) - started)
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(wl, workload, seed, seconds, refs, first_cfgs, work_dir):
    from tracing import Capture

    walls, checks = [], []
    with Capture() as capture:
        for k in range(wl.ops_per_run(workload, seconds)):
            cfgs = first_cfgs if k == 0 else wl.op_configs(workload, seed, k)
            checks.append(timed_op(wl, workload, cfgs, refs, capture, work_dir, walls))
    return walls, checks


def timed_op(wl, workload, cfgs, refs, capture, work_dir, walls):
    start = time.perf_counter()
    try:
        paths = wl.run_op(cfgs, work_dir)
    except Exception as exc:  # an operation that raises counts as failed
        walls.append(time.perf_counter() - start)
        capture.take()
        return wl.OpCheck(failure=f"{type(exc).__name__}: {exc}")
    walls.append(time.perf_counter() - start)
    try:
        return wl.check_op(workload, paths, refs, capture.take())
    except (KeyError, TypeError, ValueError) as exc:  # unreadable output
        return wl.OpCheck(failure=f"check failed: {type(exc).__name__}: {exc}")


def run_traced(wl, workload, seed, seconds, refs, first_cfgs, work_dir):
    from tracing import Capture, Tracer, instrument, op_layers

    walls, traced_walls, checks, layers, unattributed = [], [], [], [], []
    first = None
    with Capture() as capture:
        for k in range(wl.ops_per_run(workload, seconds, traced=True)):
            cfgs = first_cfgs if k == 0 else wl.op_configs(workload, seed, k)
            checks.append(timed_op(wl, workload, cfgs, refs, capture, work_dir, walls))
            tracer = Tracer(op=k)
            with instrument(tracer):
                checks.append(timed_op(wl, workload, cfgs, refs, capture, work_dir,
                                       traced_walls))
            values, self_sum = op_layers(tracer)
            layers.append(values)
            unattributed.append(traced_walls[-1] - self_sum)
            first = first or tracer
    return walls, traced_walls, checks, layers, unattributed, first


def write_spans(tracer, workload, seed) -> Path:
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    path = OUT / f"trace-{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed, "op": tracer.op,
           "fields": ["name", "start_s", "end_s", "parent"],
           "spans": [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans]}
    path.write_text(json.dumps(doc, separators=(",", ":")))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        wl = import_program()
        refs, first_cfgs = wl.setup(args.workload, args.seed)
    except Exception as exc:
        print(f"benchmark setup failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(time.monotonic())
        return 0

    OUT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=OUT)
    try:
        if args.trace:
            result, detail = traced_result(wl, args, refs, first_cfgs, work_dir)
        else:
            result, detail = untraced_result(wl, args, refs, first_cfgs, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def summarize_checks(checks) -> dict:
    failures = [c.failure for c in checks if c.failure]
    gross = [g for c in checks for g in c.gross]
    ok = [c for c in checks if not c.failure]
    return {
        "attempted": len(checks),
        "failed": len(failures),
        "fail_rate": len(failures) / len(checks),
        "failures": failures[:5],
        "gross_errors": gross[:5],
        "oracle_rel_err": max((c.max_rel_err for c in ok), default=None),
        "oracle_misses": (sum(c.misses for c in ok) / len(ok)) if ok else None,
        "truncated_rows": sum(c.truncated for c in ok),
        "rows_checked_per_op": ok[0].rows if ok else 0,
        "tail_rse_samples": [c.tail_rse for c in ok],
    }


def untraced_result(wl, args, refs, first_cfgs, work_dir):
    walls, checks = run_untraced(wl, args.workload, args.seed, args.seconds, refs,
                                 first_cfgs, work_dir)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = probe_setup(args.workload, args.seed)
    summary = summarize_checks(checks)
    rses = summary["tail_rse_samples"]
    wall = statistics.median(walls)
    tail_rse = math.sqrt(statistics.fmean(r * r for r in rses)) if rses else None
    if tail_rse is None:
        to_1pct = None
    elif args.workload == "recursion":
        to_1pct = wall
    else:
        to_1pct = wall * (tail_rse / 0.01) ** 2
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "tail_rse": metric(tail_rse, "1"),
    }
    correct = not summary["gross_errors"]
    detail = dict(summary, workload=args.workload, seed=args.seed, time_to_1pct_s=to_1pct,
                  wall_s_samples=walls, wall_s_max=max(walls), setup_s_samples=setup)
    return ({"correct": correct, "attempted": summary["attempted"],
             "failed": summary["failed"], "metrics": metrics}, detail)


def traced_result(wl, args, refs, first_cfgs, work_dir):
    from tracing import LAYER_METRICS

    walls, traced_walls, checks, layers, unattributed, first = run_traced(
        wl, args.workload, args.seed, args.seconds, refs, first_cfgs, work_dir)
    summary = summarize_checks(checks)
    overhead = statistics.median(t - u for t, u in zip(traced_walls, walls))
    metrics = {}
    for name, (unit, _) in LAYER_METRICS.items():
        # times are medians over the traced operations; counts and ratios
        # come from the first one, whose input is fixed by the seed
        value = (statistics.median(v[name] for v in layers) if unit == "s"
                 else layers[0][name])
        metrics[name] = metric(value, unit)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.unattributed_s"] = metric(statistics.median(unattributed), "s")
    metrics["trace.spans"] = metric(len(first.spans), "count")
    # the spans' self times must add up to the traced wall time, up to the
    # tracing overhead (plus 5 ms of clock and call slack)
    attributed = all(abs(u) <= max(overhead, 0.0) + 0.005 for u in unattributed)
    correct = not summary["gross_errors"] and attributed
    detail = dict(summary, workload=args.workload, seed=args.seed,
                  wall_s_samples=walls, traced_wall_s_samples=traced_walls,
                  unattributed_s_samples=unattributed,
                  spans_file=str(write_spans(first, args.workload, args.seed).relative_to(ROOT)))
    return ({"correct": correct, "attempted": summary["attempted"],
             "failed": summary["failed"], "metrics": metrics}, detail)


if __name__ == "__main__":
    sys.exit(main())
