#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 benchmark/record.py --seeds 10
    python3 benchmark/record.py --workloads analytic_cold --seeds 5
    python3 benchmark/record.py --seeds 1 --trace --label traced

Runs use seeds 1..N and BENCHMARK.json's run_seconds. For every workload
and end-to-end metric it prints the median over the seeds and the spread:
the distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. With --out it appends the summary, labelled, to
a trajectory file (a JSON list, one entry per recorded point).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.time()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return report, result, time.time() - t0


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--label", default="")
    ap.add_argument("--out", help="trajectory file to append the summary to")
    opts = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in opts.workloads.split(","):
        values, contexts, walls = {}, [], []
        for seed in range(1, opts.seeds + 1):
            report, result, wall = run_once(spec["command"], workload, seed,
                                            spec["run_seconds"], opts.trace)
            walls.append(wall)
            contexts.append(report["context"])
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            if "setup_s" in result["metrics"]:
                # The first scaled set-up alone, to compare its spread with
                # that of the median of all set-ups.
                first = values.setdefault("setup_s.first", ("s", []))[1]
                first.append(report["setup_scaled_s"][0])
        rows = {}
        print(f"{workload}: {opts.seeds} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, (unit, vals) in values.items():
            med, spr = spread(vals)
            bound = bounds.get(name)
            flag = "" if bound is None or spr < bound / 3 else "  <-- spread >= bound/3"
            if not opts.trace:
                print(f"  {name:32} {med:14.4f} {unit:6} spread {spr:6.3f}"
                      f" bound {bound}{flag}")
            rows[name] = {"unit": unit, "median": med, "spread": spr, "runs": vals}
        if opts.trace:
            for name, r in rows.items():
                print(f"  {name:36} {r['median']:14.4f} {r['unit']}")
        summary[workload] = {"metrics": rows, "context": contexts[0],
                             "loadavg_1m": [c["loadavg_1m_at_start"] for c in contexts]}
    if opts.out:
        path = os.path.join(ROOT, opts.out)
        points = json.load(open(path)) if os.path.exists(path) else []
        points.append({"label": opts.label, "trace": opts.trace,
                       "seconds": spec["run_seconds"], "seeds": [1, opts.seeds],
                       "workloads": summary})
        with open(path, "w") as f:
            json.dump(points, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
