"""One measured pass in a fresh process.  Started by run.py with PYTHONPATH=src.

Protocol on stdin/stdout: the worker imports `coble.cli`, prints `ready`,
then reads one JSON job line (or `quit`).  It sends every argument list of
the job's plan once through `coble.cli.main(argv)`, traced if the job says
so, checks every certificate, feeds tampered copies of them through the
content gate, and prints one JSON result line.  run.py starts a new worker
for every pass, so whatever `coble` keeps in its process between requests
never carries over from one measured pass to the next.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

import coble.cli

import checks
import speed
import tracing
import workloads


def run_cert(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = coble.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_pass(plan, tally, samples, tracer=None):
    """Every certificate of the plan, requested and checked.  Returns raw
    wall and CPU seconds, the pass's speed calibration factor, and the
    index of the root span of the pass when a tracer is given."""
    root = None
    with speed.SpeedSampler() as sampler:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        if tracer:
            root = tracer.open("bench.pass")
        for argv in plan:
            rc, text = run_cert(argv)
            if tally.record(argv, rc, text):
                samples.setdefault(checks.label(argv), (argv, text))
        if tracer:
            tracer.close(root)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return wall, cpu, sampler.factor, root


def traced_pass(plan, tally, samples, scale, spans_path):
    """run_pass under the tracer.  Returns run_pass's result, the per-layer
    metrics of the pass (span times multiplied by `scale`), the 20 largest
    self times, and the functions that could not be wrapped."""
    tracer = tracing.Tracer()
    untraced = tracing.install(tracer)
    wall, cpu, factor, root = run_pass(plan, tally, samples, tracer)
    spans = tracing.PassSpans(tracer, root, len(tracer.name))
    by_name, problems = spans.self_times()
    total = sum(by_name.values())
    if total != spans.dur(root):
        problems.append(f"self times add up to {total} ns, root span is "
                        f"{spans.dur(root)} ns")
    if abs(total * 1e-9 - wall) > 0.01 * wall + 0.002:
        problems.append(f"self times add up to {total * 1e-9:.4f} s, "
                        f"traced pass took {wall:.4f} s")
    if problems:
        raise SystemExit("span tree is inconsistent: " + "; ".join(problems))
    s = 1e-9 * (factor if scale else 1.0)
    metrics = tracing.pass_metrics(spans, tracer.counters, s)
    top = sorted(by_name.items(), key=lambda kv: -kv[1])[:20]
    tracer.dump(spans_path)
    return (wall, cpu, factor), metrics, {n: ns * 1e-9 for n, ns in top}, untraced


def main():
    src = os.path.realpath("src")
    if not os.path.realpath(coble.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"coble was imported from {coble.cli.__file__}, not {src}")
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if line in ("", "quit"):
        return
    job = json.loads(line)
    build, _, calibrate = workloads.WORKLOADS[job["workload"]]
    plan = build(job["seed"])
    tally, samples = checks.Tally(), {}
    result = {}
    if job["trace"]:
        spans_path = os.path.join(job["outdir"], f"spans-{job['workload']}.json")
        (wall, cpu, factor), result["per_layer"], result["self_s_top"], \
            result["untraced_functions"] = traced_pass(plan, tally, samples,
                                                       calibrate, spans_path)
    else:
        wall, cpu, factor, _ = run_pass(plan, tally, samples)
    leaks = checks.tamper_test(samples)
    if leaks:
        raise SystemExit(f"the content gate passed tampered certificates: {leaks}")
    result.update({
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.examples, "wall_s": wall, "cpu_s": cpu,
        "calibration": factor,
        # The speed kernel's chain stays resident through the whole pass.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                        - speed.CHAIN_BYTES) / 2**20,
    })
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
