"""Self-check of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names exactly the metrics run.py prints.
2. Two traced runs of cli-mix, seed 7, are correct and report the same
   exact counts.  (Every workload process also proves the content gate:
   it feeds tampered copies of its certificates, such as rank 40 or one
   failing check, through the failure tally and stops if any is not
   counted as failed.  Every traced pass also checks that the self times
   of its span tree add up to the traced pass time.)
3. In a directory holding only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKLOAD, SEED, SECONDS = "cli-mix", 7, 2


def bench(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def main():
    root = os.getcwd()
    failures = []

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if [m["name"] for m in spec["per_layer"]] != [m for m, _, _ in tracing.PER_LAYER]:
        failures.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")

    results = []
    for _ in range(2):
        proc = bench(root, WORKLOAD, SEED, SECONDS, 1)
        if proc.returncode != 0:
            failures.append(f"traced run exited {proc.returncode}: {proc.stderr[-500:]}")
            break
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if len(results) == 2:
        for r in results:
            if not r["correct"]:
                failures.append(f"traced run not correct: {r['failed']} failed")
        a, b = ({k: v["value"] for k, v in r["metrics"].items()} for r in results)
        differ = [m for m in tracing.EXACT if a[m] != b[m]]
        if differ:
            failures.append(f"exact counts differ between traced runs: {differ}")
    proc = bench(root, WORKLOAD, SEED, SECONDS, 0)
    if proc.returncode != 0:
        failures.append(f"untraced run exited {proc.returncode}")
    else:
        got = set(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
        if got != {m["name"] for m in spec["end_to_end"]}:
            failures.append(f"end-to-end metrics {sorted(got)} differ from BENCHMARK.json")

    bare = os.path.join(root, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    proc = bench(bare, WORKLOAD, SEED, SECONDS, 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("run.py did not refuse a directory without src/")

    for f in failures:
        print("FAIL", f)
    print("selfcheck", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
