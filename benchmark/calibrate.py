#!/usr/bin/env python3
"""Calibrates the benchmark the way the driver judges it and records the result.

Runs the command of BENCHMARK.json, from the root of the checkout, as two
interleaved sets of RUNS untraced runs per workload (every run with another
seed) plus one traced run per workload and set. For every end-to-end metric
it takes the distance between the first and the third quartile of a set's
values as a share of their median (`statistics.quantiles(values, n=4)`), and
compares the two sets' medians. A spread (except that of setup_s) or a shift
between the medians beyond the metric's bound fails the calibration.

    python3 benchmark/calibrate.py [--runs 10] [--out benchmark/baseline.json]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.time()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}, time.time() - started


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def filesystem(path):
    best = ("", "?")
    with open("/proc/mounts") as mounts:
        for line in mounts:
            _, mount, kind = line.split()[:3]
            if path.startswith(mount) and len(mount) > len(best[0]):
                best = (mount, kind)
    return best[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload and set")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    sets = ("first", "second")
    wall = []
    record = {
        "recorded": time.strftime("%Y-%m-%d"),
        "environment": {
            "nproc": os.cpu_count(),
            "kernel": platform.release(),
            "machine": platform.machine(),
            "filesystem": filesystem(HERE),
            "transport": "loopback TCP, closed loop, 1 connection / 1 daemon worker",
        },
        "run_seconds": spec["run_seconds"],
        "runs_per_set": args.runs,
        "workloads": {},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        values = {s: {m["name"]: [] for m in spec["end_to_end"]} for s in sets}
        # Alternate the sets run by run, so a drift of the machine lands on both.
        for i in range(args.runs):
            for k, s in enumerate(sets):
                metrics, seconds = run(spec, workload, 1 + i + k * args.runs, 0)
                wall.append(seconds)
                for name, value in metrics.items():
                    values[s][name].append(value)
                print(f"{workload} {s} run {i + 1}/{args.runs}: {seconds:.1f} s", flush=True)
        entry = {"end_to_end": {}, "per_layer": {}}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (summary(values[s][name]) for s in sets)
            worse = second["median"] / first["median"] - 1.0
            if metric["better"] == "higher":
                worse = first["median"] / second["median"] - 1.0
            entry["end_to_end"][name] = {
                "unit": metric["unit"], "bound": bound,
                "first": first, "second": second, "second_worse_by": worse,
            }
            for s, part in zip(sets, (first, second)):
                if name != "setup_s" and part["spread"] > bound:
                    failures.append(f"{workload} {name}: {s} spread {part['spread']:.3f} > bound {bound}")
            if worse > bound:
                failures.append(f"{workload} {name}: second median worse by {worse:.3f} > bound {bound}")
            print(f"  {name:<16} median {first['median']:.4g} / {second['median']:.4g} {metric['unit']:<5}"
                  f" spread {first['spread']:.3f} / {second['spread']:.3f}  shift {worse:+.3f}  bound {bound}",
                  flush=True)
        for k, s in enumerate(sets):
            metrics, seconds = run(spec, workload, 1 + k, 1)
            wall.append(seconds)
            entry["per_layer"][s] = metrics
        record["workloads"][workload] = entry
    record["wall_seconds"] = {"runs": len(wall), "total": sum(wall), "longest": max(wall)}
    record["failures"] = failures
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}: {len(wall)} runs, {sum(wall):.0f} s, longest {max(wall):.1f} s")
    if failures:
        sys.exit("calibration failed:\n  " + "\n  ".join(failures))


if __name__ == "__main__":
    main()
