#!/usr/bin/env python3
"""End-to-end benchmark of the sleeping-model MST simulator.

    python3 perfbench/run.py --workload ring-randomized --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (and with it the smst library from src/) in Release
mode under .bench_build/perfbench, runs one workload with the
perfbench_e2e runner, checks every output, and prints as its last line
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from spans taken around each public call, plus wake-time tracing).
Every reported time is scaled to the host's quiet speed by a speed
probe timed between runs (see scaled() below).
Metric definitions, workload parameters and pinned model counters are in
perfbench/spec.json. The line before the result is the run's record of
deterministic fields; the full record, with wall-clock samples, goes to
.bench_build/records/ and, for --trace 1, the spans to .bench_build/spans/.
Exits non-zero when any run fails or any check does not hold.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
WORKLOADS = ("ring-randomized", "er-deterministic", "ring-sharded",
             "dense-chatter")
RUN_TIMEOUT_S = 170  # after the build, an invocation must end within 180 s
# The speed probe's median time on the 4-vCPU Xeon VM in a quiet period:
# the host speed every reported time is scaled to.
PROBE_QUIET_S = 0.0018


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench_e2e")


def scaled(sample, key):
    """sample[key] in host seconds at the host's quiet speed.

    On a shared host (a 4-vCPU Xeon VM, measured) the same code runs up
    to 1.5x slower for minutes at a time, longer than a whole invocation,
    so no statistic of raw times within one invocation is steady across
    invocations. The runner times a fixed speed probe between runs
    (SpeedProbe in e2e.cpp); dividing by it removes most of a slow
    period, and multiplying by PROBE_QUIET_S keeps the unit seconds.
    Unprobed runs (probe_s 0: ring-sharded, see e2e.cpp) stay raw."""
    if sample["probe_s"] == 0:
        return sample[key]
    return sample[key] / sample["probe_s"] * PROBE_QUIET_S


def per_instance(samples, key, scale=True):
    """{instance: lower quartile of scaled(sample, key) over that
    instance's runs}: its undisturbed time, robust to one noisy probe
    (the smallest time with fewer than four runs). scale=False for a
    count."""
    runs = {}
    for s in samples:
        runs.setdefault(s["instance"], []).append(
            scaled(s, key) if scale else s[key])
    return {i: sorted(v)[len(v) // 4] for i, v in runs.items()}


def pool_mean(samples, key, scale=True):
    """Mean over the instance pool of each instance's value: the cost of
    one run of the pool's average instance. Equal weights keep a run
    that ends mid-cycle unbiased."""
    values = per_instance(samples, key, scale)
    return sum(values.values()) / len(values)


def setup_time(samples):
    """10th percentile of the run's scaled generation times. Every
    instance's generator does about the same work, so the low tail is
    the undisturbed set-up cost."""
    times = [scaled(s, "generate_s") for s in samples]
    return statistics.quantiles(times, n=10)[0] if len(times) > 1 else times[0]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, untraced):
    models = [i["model"] for i in raw["instances"]]
    sim_s = per_instance(untraced, "sim_s")
    return {
        "run_s": metric(pool_mean(untraced, "run_s"), "s"),
        "setup_s": metric(setup_time(untraced), "s"),
        "awake_node_rounds_per_s": metric(
            sum(models[i]["awake_node_rounds"] for i in sim_s) /
            sum(sim_s.values()), "1/s"),
        "peak_rss_mb": metric(raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(raw, untraced, traced):
    inst = raw["instances"]
    models = [i["model"] for i in inst]
    wakes = [i["wake"] for i in inst]
    awake = sum(m["awake_node_rounds"] for m in models)
    active = sum(w["active_rounds"] for w in wakes)
    sim_s = per_instance(untraced, "sim_s")
    traced_sim_s = per_instance(traced, "sim_s")
    return {
        "graph.generate_s": metric(pool_mean(untraced, "generate_s"), "s"),
        "sim.call_s": metric(pool_mean(untraced, "sim_s"), "s"),
        "graph.verify_s": metric(pool_mean(untraced, "verify_s"), "s"),
        "sim.allocs": metric(pool_mean(untraced, "allocs", scale=False),
                             "count"),
        "trace.us_per_active_round": metric(
            1e6 * sum(sim_s.values()) /
            sum(wakes[i]["active_rounds"] for i in sim_s), "us"),
        "trace.ns_per_awake_node_round": metric(
            1e9 * sum(sim_s.values()) /
            sum(models[i]["awake_node_rounds"] for i in sim_s), "ns"),
        "trace.overhead_frac": metric(
            sum(traced_sim_s.values()) /
            sum(sim_s[i] for i in traced_sim_s) - 1.0, "ratio"),
        "trace.span_coverage_frac": metric(
            min(s["covered_s"] / s["run_s"] for s in untraced + traced),
            "ratio"),
        "trace.active_rounds": metric(active, "count"),
        "trace.awake_per_active_round": metric(awake / active, "count"),
        "trace.active_le8_frac": metric(
            sum(w["active_le8"] for w in wakes) / active, "ratio"),
        "model.awake_node_rounds": metric(awake, "count"),
        "model.max_awake": metric(max(m["max_awake"] for m in models),
                                  "count"),
        "model.rounds": metric(sum(m["rounds"] for m in models), "count"),
        "model.messages": metric(sum(m["messages"] for m in models),
                                 "count"),
        "model.bits": metric(sum(m["bits"] for m in models), "count"),
        "model.phases": metric(sum(m["phases"] for m in models), "count"),
        "model.fragments": metric(
            sum(sum(m["fragments_per_phase"]) for m in models), "count"),
        "model.blue": metric(
            sum(sum(m["blue_per_phase"]) for m in models), "count"),
        "graph.n": metric(raw["params"]["n"], "count"),
        "graph.m": metric(sum(i["m"] for i in inst) / len(inst), "count"),
    }


def deterministic_record(raw):
    """The fields that repeat exactly for a seed: a later change's
    "counters unchanged" check is a diff of two of these."""
    return {"workload": raw["workload"], "seed": raw["seed"],
            "params": raw["params"], "instances": raw["instances"]}


def check(raw, untraced, traced, trace):
    """Benchmark-side checks beyond the runner's; returns problems."""
    problems = []
    if any(i["model"] is None for i in raw["instances"]):
        problems.append("an instance never completed a run")
    if trace and any(i["wake"] is None for i in raw["instances"]):
        problems.append("an instance never completed a traced run")
    if not untraced:
        problems.append("no untraced run completed")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: self-test sizes (perfbench/selftest.py)")
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                    help="1: corrupt every output before it is checked")
    args = ap.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != "full":
        tag += f"-{args.scale}"
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--traced", str(args.trace),
           "--scale", args.scale, "--corrupt", str(args.corrupt)]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, "spans", tag + ".jsonl")]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, check=True,
            timeout=RUN_TIMEOUT_S)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError,
            IndexError) as e:
        log(f"perfbench: runner failed: {e}")
        return 2

    untraced = [s for s in raw["samples"] if not s["traced"]]
    traced = [s for s in raw["samples"] if s["traced"]]
    problems = check(raw, untraced, traced, args.trace)
    attempted = raw["attempted"]
    failed = max(raw["failed"], 1 if problems else 0)
    correct = failed == 0
    for e in raw["errors"] + problems:
        log(f"perfbench: FAILED: {e}")

    metrics = {}
    if correct:
        metrics = (per_layer(raw, untraced, traced) if args.trace
                   else end_to_end(raw, untraced))
    record = deterministic_record(raw)
    with open(os.path.join(OUT, "records", tag + ".json"), "w") as f:
        json.dump({"deterministic": record,
                   "wall_clock": {"peak_rss_kb": raw["peak_rss_kb"],
                                  "samples": raw["samples"],
                                  "metrics": metrics},
                   "attempted": attempted, "failed": failed,
                   "errors": raw["errors"] + problems}, f, indent=1)
    print(json.dumps({"record": record}, separators=(",", ":")))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
