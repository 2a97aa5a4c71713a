"""Benchmark runner for the `coble` certificates.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 15 --trace 0

It runs the workload in passes (see workloads.py and README.md), each in a
fresh Python process (worker.py) that imports `coble.cli` from `src/`, so no
state of the program carries over from one measured pass to the next.
PROBES more processes before the passes and PROBES after them only import
and exit.  Set-up time is the median, over all these processes, of the time
from spawn until the process reports that `coble.cli` is imported, scaled
by the median time of a reference process that imports the modules `coble`
imports but nothing of `coble` (see README.md).
The last line of standard output is the result JSON; with --trace 0 it
holds the end-to-end metrics, with --trace 1 the per-layer metrics.
Exit code 0 means the run completed; certificate failures are reported
in the result, not in the exit code.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

PROBES = 6
# The reference process for set-up time: a Python start-up that imports the
# modules `coble` imports, numpy included, and nothing of `coble` itself.
REFERENCE = ["-c", "import argparse, fractions, hashlib, json, math, numpy"]
REFERENCE_NOMINAL_S = 0.2
READY_TIMEOUT_S = 60
RUN_LIMIT_S = 170
OUTDIR = ".perfbench"


class BenchError(Exception):
    pass


def reference_spawn(root):
    """Wall time of one run of the reference process."""
    t0 = time.perf_counter()
    # With its output on a pipe, run() waits for the process on select();
    # without one, a timeout makes it poll in steps of up to 50 ms.
    subprocess.run([sys.executable] + REFERENCE, cwd=root, check=True,
                   capture_output=True, timeout=READY_TIMEOUT_S)
    return time.perf_counter() - t0


def spawn_worker(root, setups):
    """Starts a worker, waits until it is ready and appends its set-up time
    to `setups`."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")], cwd=root, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline().decode() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"workload process did not start (said {line!r})")
    setups.append(setup)
    return proc


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def probe_setup(root, setups, references):
    """One reference process, then one worker that only starts and quits."""
    references.append(reference_spawn(root))
    proc = spawn_worker(root, setups)
    try:
        proc.communicate(b"quit\n", timeout=READY_TIMEOUT_S)
    finally:
        stop(proc)


def run_passes(root, job, seconds, deadline, setups):
    """Passes, each in a fresh worker, until `seconds` have gone by (at
    least one).  Returns the workers' results."""
    results = []
    start = time.perf_counter()
    while True:
        proc = spawn_worker(root, setups)
        try:
            out, _ = proc.communicate(
                json.dumps(job).encode() + b"\n",
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"the run took longer than {RUN_LIMIT_S} s")
        finally:
            stop(proc)
        lines = out.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload process failed (exit {proc.returncode})")
        results.append(json.loads(lines[-1]))
        if time.perf_counter() - start >= seconds:
            return results


def run(args, root):
    deadline = time.perf_counter() + RUN_LIMIT_S
    build, uses_seed, calibrate = workloads.WORKLOADS[args.workload]
    plan = build(args.seed)
    job = {"workload": args.workload, "seed": args.seed, "trace": 0,
           "outdir": os.path.join(root, OUTDIR)}
    seconds = args.seconds / (2 if args.trace else 1)
    # Probes before and after the passes spread the set-up samples over the
    # whole run, so one slow moment of the machine moves the median less.
    setups, references = [], []
    for _ in range(PROBES):
        probe_setup(root, setups, references)
    passes = run_passes(root, job, seconds, deadline, setups)
    traced = (run_passes(root, dict(job, trace=1), seconds, deadline, setups)
              if args.trace else [])
    for _ in range(PROBES):
        probe_setup(root, setups, references)
    raw_setup = statistics.median(setups)
    reference = statistics.median(references)

    def median_time(results, key, calibrated=calibrate):
        return statistics.median(
            p[key] * (p["calibration"] if calibrated else 1.0) for p in results)

    wall = median_time(passes, "wall_s")
    if args.trace:
        metrics, unsteady = tracing.combine_passes([p["per_layer"] for p in traced])
        if unsteady:
            raise BenchError(f"exact counts differ between passes: {unsteady}")
        metrics["proc.cpu_s"] = median_time(passes, "cpu_s")
        metrics["proc.trace_overhead_s"] = median_time(traced, "wall_s") - wall
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {
            "setup_s": raw_setup * REFERENCE_NOMINAL_S / reference,
            "wall_s": wall,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

    record = {
        "workload": args.workload, "seed": args.seed, "seed_used": uses_seed,
        "trace": args.trace, "plan": plan,
        "setup_s_raw": raw_setup, "setup_s_reference": reference,
        "setup_s_samples": setups, "setup_s_references": references,
        # Raw and calibrated median pass times side by side, whichever of
        # them the workload reports.
        "wall_s_raw": median_time(passes, "wall_s", False),
        "wall_s_calibrated": median_time(passes, "wall_s", True),
        "passes": [{k: v for k, v in p.items() if k != "per_layer"}
                   for p in passes],
        "traced_passes": [{k: v for k, v in p.items() if k != "per_layer"}
                          for p in traced],
        "metrics": metrics,
    }
    with open(os.path.join(root, OUTDIR, f"run-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    attempted = sum(p["attempted"] for p in passes + traced)
    failed = sum(p["failed"] for p in passes + traced)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seed_used": uses_seed, "plan": plan}))
    print(json.dumps({"setup_s_raw": raw_setup, "setup_s_reference": reference}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "coble", "cli.py")):
        print("perfbench: run from the root of a coble checkout "
              "(src/coble/cli.py not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUTDIR), exist_ok=True)
    try:
        run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
