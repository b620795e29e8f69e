#!/usr/bin/env python3
"""Self-test of the benchmark program at tiny sizes.

Runs every workload twice (untraced and traced) at tiny scale and checks:
  * each end-to-end and per-layer metric of BENCHMARK.json is emitted with
    its unit, and every output check passes;
  * the deterministic quantities repeat exactly across two runs: event and
    message counts, checkpoint bytes and model_rel_err;
  * a corrupted checkpoint byte is reported as a failed check (failed
    operations, exit code 0), not a crash.

Usage: python3 perfbench/selftest.py --binary <path to sppnet_perfbench>
(ctest runs it from the benchmark's own build tree).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_sweep", "sim_flood", "sim_stack"]
# Metrics in these units must repeat exactly for a fixed seed (with
# model_rel_err); times, memory and ratios of times need not.
DETERMINISTIC_UNITS = {"count", "bytes"}


def run(binary, workload, *extra):
    cmd = [binary, "--workload", workload, "--seed", "3",
           "--tiny"] + list(extra)
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if res.returncode != 0:
        raise AssertionError("%s exited %d: %s"
                             % (" ".join(cmd), res.returncode, res.stderr))
    return json.loads(res.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # Reported by run.py from two processes, not by the program.
    per_layer.pop("trace.overhead")
    # The layers each workload exercises (README.md, layer map).
    layer_prefixes = {
        "paper_sweep": ("model.trials.", "model.evaluator."),
        "sim_flood": ("model.instance.", "sim.construct_s", "sim.run.",
                      "sim.events.", "sim.queue.", "sim.state.",
                      "sim.shard."),
        "sim_stack": ("sim.adaptive.", "sim.faults.", "sim.churn.",
                      "sim.capacity.", "sim.stream.", "io.checkpoint."),
    }
    errors = []

    def expect(cond, what):
        if not cond:
            errors.append(what)

    for workload in WORKLOADS:
        plain = run(args.binary, workload, "--check-model", "1")
        first = run(args.binary, workload, "--trace", "1", "--check-model", "1")
        second = run(args.binary, workload, "--trace", "1", "--check-model",
                     "1")
        for result in (plain, first, second):
            expect(not result["check_failures"],
                   "%s: checks failed: %s"
                   % (workload, result["check_failures"]))
            expect(result["attempted"] > 0 and result["failed"] == 0,
                   "%s: attempted %d failed %d"
                   % (workload, result["attempted"], result["failed"]))
        for name, unit in end_to_end.items():
            got = plain["metrics"].get(name)
            expect(got is not None and got["unit"] == unit,
                   "%s: end-to-end metric %s missing or not in %s"
                   % (workload, name, unit))
        for name, got in first["metrics"].items():
            unit = per_layer.get(name, end_to_end.get(name))
            expect(unit == got["unit"],
                   "%s: metric %s emitted in %s, BENCHMARK.json says %s"
                   % (workload, name, got["unit"], unit))
        for name in per_layer:
            if name.startswith(layer_prefixes[workload]):
                expect(name in first["metrics"],
                       "%s: per-layer metric %s missing" % (workload, name))
        for name, got in first["metrics"].items():
            deterministic = (got["unit"] in DETERMINISTIC_UNITS
                             or name == "model_rel_err")
            if deterministic:
                expect(second["metrics"][name]["value"] == got["value"],
                       "%s: %s differs across runs: %r vs %r"
                       % (workload, name, got["value"],
                          second["metrics"][name]["value"]))

    corrupt = run(args.binary, "sim_stack", "--corrupt-checkpoint")
    expect(corrupt["check_failures"] and
           corrupt["failed"] == corrupt["attempted"] > 0,
           "a corrupted checkpoint was not reported as failed operations")

    for error in errors:
        print("FAIL: " + error)
    print("perfbench selftest: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
