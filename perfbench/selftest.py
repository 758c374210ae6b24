#!/usr/bin/env python3
"""Self-test of the benchmark itself, in about a minute:

    python3 perfbench/selftest.py

For tiny-n versions of all four workloads (spec.json) it checks that
  * run.py prints every metric BENCHMARK.json names, with its unit, for
    --trace 0 (end-to-end) and --trace 1 (per-layer);
  * the model counters equal the values pinned in spec.json
    ("pinned_tiny_seed1");
  * a deliberately corrupted output (--corrupt 1) is counted as failed
    and makes run.py exit non-zero;
and that run.py fails without printing a result in a directory holding
only BENCHMARK.json and perfbench/ (no sources to build).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, corrupt=0, run_py=RUN):
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
         "--corrupt", str(corrupt)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if result is not None and "correct" not in result:
        result = None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    pinned = spec["pinned_tiny_seed1"]
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
        print(("ok   " if cond else "FAIL ") + what, flush=True)

    # spec.json's list: BENCHMARK.json's workloads plus ring-sharded,
    # which run.py keeps but BENCHMARK.json does not gate.
    for w in (x["name"] for x in spec["workloads"]):
        for trace, names in ((0, bench["end_to_end"]),
                             (1, bench["per_layer"])):
            code, res = run(w, trace)
            expect(code == 0 and res and res["correct"] and
                   res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} --trace {trace}: correct, exit 0")
            metrics = res["metrics"] if res else {}
            missing = [m["name"] for m in names
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]
                       or not isinstance(metrics[m["name"]]["value"],
                                         (int, float))]
            expect(not missing, f"{w} --trace {trace}: every metric with "
                   f"its unit (missing/wrong: {missing})")
            if trace == 1:
                got = {k: metrics.get(k, {}).get("value")
                       for k in pinned[w]}
                expect(got == pinned[w],
                       f"{w}: model counters match pinned values"
                       + ("" if got == pinned[w] else f" (got {got})"))
        code, res = run(w, 0, corrupt=1)
        expect(code != 0 and res is not None and not res["correct"] and
               res["failed"] >= 1,
               f"{w} --corrupt 1: counted as failed, exit non-zero")

    # A directory with only BENCHMARK.json and perfbench/: must fail
    # before printing a result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res = run("ring-randomized", 0,
                    run_py=os.path.join(bare, "perfbench", "run.py"))
    expect(code != 0 and res is None,
           "without sources: exit non-zero, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
