#!/usr/bin/env python3
"""Validate BENCH_<name>.json files against the bench report schema.

The schema is documented in EXPERIMENTS.md and produced by
bench/bench_util.h (BenchRun::Write). CI's bench-smoke job runs every
bench binary with SPPNET_BENCH_SMOKE=1 and then runs this validator
over the emitted files, so a bench that silently stops writing a
parseable, schema-complete report fails the build rather than rotting.

Usage: validate_bench_json.py FILE [FILE...]
Exits non-zero and prints one line per violation.
"""

import json
import sys


def validate(path):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top-level value is not an object"]

    # bench/micro_benchmarks delegates its report to Google Benchmark's
    # --benchmark_out, whose schema we accept as-is: a 'context' object
    # plus a non-empty 'benchmarks' array.
    if "context" in doc and "benchmarks" in doc:
        if not isinstance(doc["context"], dict):
            err("'context' must be an object")
        if not isinstance(doc["benchmarks"], list) or not doc["benchmarks"]:
            err("'benchmarks' must be a non-empty array")
        return errors

    for key in ("schema_version", "bench", "config", "tables", "metrics",
                "timings"):
        if key not in doc:
            err(f"missing required key '{key}'")
    if errors:
        return errors

    if doc["schema_version"] != 1:
        err(f"schema_version is {doc['schema_version']!r}, expected 1")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        err("'bench' must be a non-empty string")
    elif f"BENCH_{doc['bench']}.json" not in path.replace("\\", "/"):
        err(f"'bench' is {doc['bench']!r} but the filename disagrees")
    if not isinstance(doc["config"], dict):
        err("'config' must be an object")

    if not isinstance(doc["tables"], list) or not doc["tables"]:
        err("'tables' must be a non-empty array")
    else:
        for i, table in enumerate(doc["tables"]):
            where = f"tables[{i}]"
            if not isinstance(table, dict):
                err(f"{where} is not an object")
                continue
            for key in ("name", "columns", "rows"):
                if key not in table:
                    err(f"{where} missing '{key}'")
            if not isinstance(table.get("columns"), list) or not table.get(
                    "columns"):
                err(f"{where}.columns must be a non-empty array")
                continue
            width = len(table["columns"])
            rows = table.get("rows")
            if not isinstance(rows, list):
                err(f"{where}.rows must be an array")
                continue
            for j, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != width:
                    err(f"{where}.rows[{j}] does not have {width} cells")

    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        err("'metrics' must be an object")
    else:
        for section in ("counters", "gauges", "histograms", "timers"):
            if section not in metrics:
                err(f"'metrics' missing '{section}' section")

    timings = doc["timings"]
    if not isinstance(timings, dict) or "wall_seconds" not in timings:
        err("'timings' must be an object with 'wall_seconds'")
    elif not isinstance(timings["wall_seconds"], (int, float)):
        err("'timings.wall_seconds' must be a number")

    validate_windowed_stream(doc, err)
    validate_sharded_rows(doc, err)
    validate_index_consistency(doc, err)
    validate_capacity_mix(doc, err)

    return errors


def validate_windowed_stream(doc, err):
    """Windowed-snapshot schema for streaming benches.

    A bench that reports any `stream.*` gauge is a streaming serving-
    layer run (bench/sustained_throughput) and must carry the full
    windowed surface: the per-decile table, one events_per_sec and one
    rss_bytes gauge per decile, the window/event totals, and the
    checkpoint-restore verdict plus the two flatness ratios in config.
    """
    gauges = doc.get("metrics", {}).get("gauges")
    if not isinstance(gauges, dict) or not any(
            key.startswith("stream.") for key in gauges):
        return

    for key in ("stream.windows", "stream.events_total"):
        if not isinstance(gauges.get(key), (int, float)):
            err(f"streaming bench missing numeric gauge '{key}'")
    for decile in range(1, 11):
        for stem in ("stream.events_per_sec", "stream.rss_bytes"):
            key = f"{stem}.decile{decile}"
            value = gauges.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                err(f"streaming bench gauge '{key}' missing or not > 0")

    tables = {t.get("name"): t for t in doc.get("tables", [])
              if isinstance(t, dict)}
    deciles = tables.get("deciles")
    if deciles is None:
        err("streaming bench missing the 'deciles' table")
    elif len(deciles.get("rows", [])) != 10:
        err("'deciles' table must have exactly 10 rows")

    config = doc.get("config", {})
    if config.get("restore_ok") != "true":
        err("streaming bench config.restore_ok must be \"true\" "
            "(checkpoint/restore replay diverged or never ran)")
    for key in ("window_seconds", "target_events",
                "events_per_sec_last_over_first",
                "rss_last_over_post_warmup"):
        value = config.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            err(f"streaming bench config.{key} missing or not > 0")


def validate_index_consistency(doc, err):
    """Consistency-sweep schema for bench/index_consistency.

    A bench that reports any `sim.consistency.*` counter ran the
    index-consistency layer and must carry the full sweep surface: the
    main rate x scheme table with both engines' stale-hit columns, the
    replication trade table, a non-zero change counter, and the
    freshness-latency histogram.
    """
    counters = doc.get("metrics", {}).get("counters")
    if not isinstance(counters, dict) or not any(
            key.startswith("sim.consistency.") for key in counters):
        return

    changes = counters.get("sim.consistency.changes")
    if not isinstance(changes, (int, float)) or changes <= 0:
        err("consistency bench counter 'sim.consistency.changes' "
            "missing or not > 0")
    for key in ("sim.consistency.stale_results",
                "sim.consistency.fresh_results"):
        if not isinstance(counters.get(key), (int, float)):
            err(f"consistency bench missing counter '{key}'")

    histograms = doc.get("metrics", {}).get("histograms", {})
    if "sim.consistency.freshness_latency_seconds" not in histograms:
        err("consistency bench missing the "
            "'sim.consistency.freshness_latency_seconds' histogram")

    tables = {t.get("name"): t for t in doc.get("tables", [])
              if isinstance(t, dict)}
    main = tables.get("main")
    if main is None:
        err("consistency bench missing the 'main' sweep table")
    else:
        columns = main.get("columns", [])
        for column in ("Scheme", "Stale-hit (sim)", "Stale-hit (model)",
                       "Maint B/s"):
            if column not in columns:
                err(f"consistency sweep table missing column '{column}'")
        if len(main.get("rows", [])) < 4:
            err("consistency sweep table must cover at least the four "
                "maintenance schemes")
    replication = tables.get("replication")
    if replication is None:
        err("consistency bench missing the 'replication' trade table")
    elif len(replication.get("rows", [])) < 2:
        err("'replication' table must compare off vs on")


def validate_capacity_mix(doc, err):
    """Capacity-sweep schema for bench/capacity_mix.

    A bench that reports any `sim.capacity.*` counter ran the
    heterogeneous-capacity layer and must carry the full sweep surface:
    non-zero utilization windows and super-peer samples, the super-peer
    utilization histogram, and the mixture x election table with a
    blind and an aware row per mixture (the pairing the bench's
    dominance gate compares).
    """
    counters = doc.get("metrics", {}).get("counters")
    if not isinstance(counters, dict) or not any(
            key.startswith("sim.capacity.") for key in counters):
        return

    for key in ("sim.capacity.windows", "sim.capacity.peer_samples",
                "sim.capacity.sp_samples"):
        value = counters.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            err(f"capacity bench counter '{key}' missing or not > 0")
    if "sim.capacity.overload_episodes" not in counters:
        err("capacity bench missing counter 'sim.capacity.overload_episodes'")

    gauges = doc.get("metrics", {}).get("gauges", {})
    for key in ("sim.capacity.sp_p99_utilization",
                "sim.capacity.mean_utilization"):
        if not isinstance(gauges.get(key), (int, float)):
            err(f"capacity bench missing numeric gauge '{key}'")

    histograms = doc.get("metrics", {}).get("histograms", {})
    if "sim.capacity.sp_utilization" not in histograms:
        err("capacity bench missing the 'sim.capacity.sp_utilization' "
            "histogram")

    tables = {t.get("name"): t for t in doc.get("tables", [])
              if isinstance(t, dict)}
    main = tables.get("main")
    if main is None:
        err("capacity bench missing the 'main' sweep table")
        return
    columns = main.get("columns", [])
    for column in ("Mixture", "Election", "SP p99 util", "SPs overloaded %"):
        if column not in columns:
            err(f"capacity sweep table missing column '{column}'")
    try:
        mixture_col = columns.index("Mixture")
        election_col = columns.index("Election")
    except ValueError:
        return
    rows = [r for r in main.get("rows", [])
            if isinstance(r, list) and len(r) == len(columns)]
    mixtures = {r[mixture_col] for r in rows}
    if not mixtures:
        err("capacity sweep table has no complete rows")
    for mixture in sorted(mixtures):
        policies = {r[election_col] for r in rows if r[mixture_col] == mixture}
        for policy in ("blind", "aware"):
            if policy not in policies:
                err(f"capacity sweep table has no '{policy}' row for "
                    f"mixture '{mixture}'")


# bench/sim_scale runs the legacy loop at every N up to this size.
LEGACY_MAX_N = 100000


def validate_sharded_rows(doc, err):
    """Sharded-row schema for the scale sweep.

    A bench that reports any `sim_scale.sharded.*` gauge ran the
    sharded conservative-window discipline and must carry the full
    sharded surface: a speedup gauge paired with every events_per_sec
    gauge (and vice versa), the shard plan in config, the sequential
    and sharded table rows per size, and the bit-identity verdict. At
    every size up to LEGACY_MAX_N it must also carry the legacy
    calendar+dense row, the fastest sequential engine the sharded rows
    are read against.
    """
    gauges = doc.get("metrics", {}).get("gauges")
    if not isinstance(gauges, dict) or not any(
            key.startswith("sim_scale.sharded.") for key in gauges):
        return

    sizes = set()
    for stem in ("sim_scale.sharded.events_per_sec",
                 "sim_scale.sharded.speedup"):
        for key, value in gauges.items():
            if not key.startswith(stem + ".n"):
                continue
            sizes.add(key[len(stem) + 2:])
            if not isinstance(value, (int, float)) or value <= 0:
                err(f"sharded gauge '{key}' missing or not > 0")
    if not sizes:
        err("sharded bench reports sim_scale.sharded.* gauges but no "
            "per-size entries")
    for size in sorted(sizes):
        for stem in ("sim_scale.sharded.events_per_sec",
                     "sim_scale.sharded.speedup"):
            if f"{stem}.n{size}" not in gauges:
                err(f"sharded bench missing gauge '{stem}.n{size}'")

    config = doc.get("config", {})
    for key in ("shard_count", "shard_threads"):
        value = config.get(key)
        if not isinstance(value, (int, float)) or value < 1:
            err(f"sharded bench config.{key} missing or not >= 1")
    if config.get("sharded_identity_ok") != "true":
        err("sharded bench config.sharded_identity_ok must be \"true\" "
            "(sharded run drifted from the sequential reference or "
            "never ran)")

    tables = {t.get("name"): t for t in doc.get("tables", [])
              if isinstance(t, dict)}
    scale = tables.get("sim_scale")
    if scale is None:
        err("sharded bench missing the 'sim_scale' table")
        return
    columns = scale.get("columns", [])
    try:
        engine_col = columns.index("engine")
        n_col = columns.index("N")
    except ValueError:
        err("'sim_scale' table missing 'N'/'engine' columns")
        return
    for size in sorted(sizes):
        rows = [r for r in scale.get("rows", [])
                if isinstance(r, list) and len(r) == len(columns)
                and r[n_col] == size]
        engines = {r[engine_col] for r in rows}
        if not any(e.startswith("disc(") for e in engines):
            err(f"'sim_scale' table has no sequential disc row at N={size}")
        if not any(e.startswith("sharded(") for e in engines):
            err(f"'sim_scale' table has no sharded row at N={size}")
        if int(size) <= LEGACY_MAX_N and "calendar+dense" not in engines:
            err(f"'sim_scale' table has no legacy calendar+dense row at "
                f"N={size}")


def main(argv):
    if len(argv) < 2:
        print("usage: validate_bench_json.py FILE [FILE...]", file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        errors = validate(path)
        if errors:
            failures += 1
            for line in errors:
                print(line, file=sys.stderr)
        else:
            print(f"{path}: ok")
    if failures:
        print(f"{failures} of {len(argv) - 1} files failed validation",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
