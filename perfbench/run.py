#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the benchmark program from source (perfbench/CMakeLists.txt), runs
one workload for a fixed measuring time and prints every metric by name
with its unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_flood --seed 7 --trace 0
    python3 perfbench/run.py --workload all --seed 7
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json
(medians over the measuring processes); with --trace 1 they are the
per-layer metrics of one traced process, and a Chrome trace-event file is
written under the build directory. Each run also writes a result record
with the machine fingerprint; --compare refuses records whose
fingerprints differ. The exit code is 0 only when every output check
passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_sweep", "sim_flood", "sim_stack"]
# Every run measures at least this many processes, even past --seconds.
MIN_PROCESSES = 2
# Per-process time limit; a hung process fails the run instead of the driver.
PROCESS_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail_setup(message):
    log("perfbench: " + message)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail_setup("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isdir(os.path.join(ROOT, "src", "sppnet")):
        fail_setup("library sources (src/sppnet) not found; run from a full "
                   "source checkout")
    if shutil.which("cmake") is None:
        fail_setup("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail_setup("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail_setup("build failed")
    binary = os.path.join(out, "sppnet_perfbench")
    if not os.path.isfile(binary):
        fail_setup("benchmark binary missing after build")
    return binary


def source_commit():
    """Git commit of the checkout, else a digest of the sources."""
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_process(binary, workload, seed, commit, trace, check_model,
                trace_out=None):
    """Runs one benchmark process; returns its parsed JSON or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0",
           "--check-model", "1" if check_model else "0",
           "--commit", commit]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s seed %d timed out" % (workload, seed))
        return None
    if res.returncode != 0:
        log(res.stderr)
        log("perfbench: %s seed %d exited with %d"
            % (workload, seed, res.returncode))
        return None
    try:
        return json.loads(res.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("perfbench: unreadable output from %s seed %d" % (workload, seed))
        return None


def metric_table(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(spec, binary, commit, workload, seed, seconds, trace):
    """One benchmark run; returns (result line, record)."""
    processes = []
    problems = []
    if trace:
        # The untraced process gives the baseline for trace.overhead.
        plain = run_process(binary, workload, seed, commit, False, False)
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir,
                                  "%s-seed%d.trace.json" % (workload, seed))
        traced = run_process(binary, workload, seed, commit, True, True,
                             trace_out=trace_path)
        processes = [p for p in (plain, traced) if p is not None]
        if plain is None or traced is None:
            problems.append("a benchmark process failed")
        wanted = metric_table(spec, "per_layer")
    else:
        start = time.monotonic()
        while (len(processes) < MIN_PROCESSES
               or time.monotonic() - start < seconds):
            p = run_process(binary, workload, seed, commit, False,
                            check_model=not processes)
            if p is None:
                problems.append("a benchmark process failed")
                break
            processes.append(p)
        wanted = metric_table(spec, "end_to_end")

    attempted = sum(p["attempted"] for p in processes)
    failed = sum(p["failed"] for p in processes)
    for p in processes:
        problems.extend(p["check_failures"])

    metrics = {}
    if trace and len(processes) == 2:
        values = dict(processes[1]["metrics"])
        overhead = (values["wall_s"]["value"]
                    / processes[0]["metrics"]["wall_s"]["value"] - 1.0)
        values["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        for name, unit in wanted.items():
            got = values.get(name)
            if got is None:
                # A layer this workload does not exercise reads 0.
                got = {"value": 0.0, "unit": unit}
            if got["unit"] != unit:
                problems.append("%s emitted in %s, expected %s"
                                % (name, got["unit"], unit))
            metrics[name] = {"value": got["value"], "unit": unit}
    elif not trace and processes:
        for name, unit in wanted.items():
            samples = [p["metrics"][name] for p in processes
                       if name in p["metrics"]]
            if not samples:
                problems.append("metric %s missing" % name)
                continue
            if any(s["unit"] != unit for s in samples):
                problems.append("%s emitted in the wrong unit" % name)
            metrics[name] = {
                "value": statistics.median(s["value"] for s in samples),
                "unit": unit}

    # A failed output check fails every operation of the run.
    attempted = max(attempted, 1)
    if problems:
        failed = attempted
    line = {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds,
        "fingerprint": processes[0]["fingerprint"] if processes else None,
        "problems": problems, "result": line,
        "processes": processes,
    }
    return line, record


def write_record(record):
    out = os.path.join(build_dir(), "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%d-trace%d.json"
                        % (record["workload"], record["seed"],
                           1 if record["trace"] else 0))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return path


def print_human(record):
    fp = record["fingerprint"] or {}
    print("%s seed %d: nproc %s, %s, %s, commit %s"
          % (record["workload"], record["seed"], fp.get("nproc"),
             fp.get("compiler"), fp.get("build_type"), fp.get("commit")))
    for name, m in sorted(record["result"]["metrics"].items()):
        print("  %-40s %.6g %s" % (name, m["value"], m["unit"]))
    for problem in record["problems"]:
        print("  CHECK FAILED: " + problem)


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    keys = ("nproc", "compiler", "build_type")
    fa = {k: (a.get("fingerprint") or {}).get(k) for k in keys}
    fb = {k: (b.get("fingerprint") or {}).get(k) for k in keys}
    if fa != fb or a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        log("perfbench: refusing to compare: fingerprints or workloads "
            "differ: %s vs %s" % (fa, fb))
        return 2
    for name in sorted(a["result"]["metrics"]):
        va = a["result"]["metrics"][name]["value"]
        vb = b["result"]["metrics"].get(name, {}).get("value")
        if vb is None:
            continue
        ratio = vb / va if va else float("nan")
        print("%-40s %.6g -> %.6g  (x%.4f)" % (name, va, vb, ratio))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    commit = source_commit()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    lines = {}
    for workload in workloads:
        line, record = run_workload(spec, binary, commit, workload, args.seed,
                                    seconds, bool(args.trace))
        record_path = write_record(record)
        print_human(record)
        print("  record: " + os.path.relpath(record_path, ROOT))
        lines[workload] = line
    if args.workload == "all":
        summary = {"correct": all(l["correct"] for l in lines.values()),
                   "attempted": sum(l["attempted"] for l in lines.values()),
                   "failed": sum(l["failed"] for l in lines.values()),
                   "metrics": {"%s.%s" % (w, n): m
                               for w, l in lines.items()
                               for n, m in l["metrics"].items()}}
    else:
        summary = lines[args.workload]
    sys.stdout.flush()
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
