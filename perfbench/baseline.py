"""Measure a baseline: every workload on seeds 1-10, untraced, plus two
traced runs per workload.  Run from the root of a checkout:

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For each end-to-end metric it records the median, the quartiles, and the
spread (the distance between the quartiles as a share of the median).
`statistics.quantiles(values, n=4)` gives the quartiles.  For the traced runs
it records the per-layer metrics of the first run, and the exact counts
that differed between the two runs (there should be none).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import selfcheck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(workload, seed, seconds, trace):
    proc = selfcheck.bench(os.getcwd(), workload, seed, seconds, trace)
    proc.check_returncode()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]
    seeds = list(range(1, 11))
    report = {"git_sha": git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for w in workloads.WORKLOADS:
        values, attempted, failed = {}, 0, 0
        for seed in seeds:
            result, metrics = bench(w, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for k, v in metrics.items():
                values.setdefault(k, []).append(v)
            print(w, seed, metrics, file=sys.stderr, flush=True)
        entry = {"attempted": attempted, "cert_fail_ratio": failed / attempted,
                 "end_to_end": {k: summary(v) for k, v in values.items()}}
        a = bench(w, seeds[0], seconds, 1)[1]
        b = bench(w, seeds[0], seconds, 1)[1]
        entry["per_layer"] = a
        entry["exact_counts_differing"] = [m for m in tracing.EXACT if a[m] != b[m]]
        report["workloads"][w] = entry
        for k, s in entry["end_to_end"].items():
            print(f"{w} {k}: median {s['median']:.4f} spread {s['spread']:.4f}",
                  file=sys.stderr, flush=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
