"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 benchmarks/spread.py --workloads mc splitting --seeds 10

For every workload and end-to-end metric it prints the median of the
per-run values and their spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  The last line is the
whole table as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        failed = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 check=True, timeout=300)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect run\n{out.stdout}", file=sys.stderr)
                return 1
            failed.append(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        table[workload] = {"fail_rate": statistics.fmean(failed)}
        print(f"  {workload:10s} fail_rate        mean {table[workload]['fail_rate']:.4f}")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            table[workload][name] = {"median": med, "spread": spread, "bound": bounds[name],
                                     "values": vals}
            print(f"  {workload:10s} {name:16s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]}", flush=True)
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
