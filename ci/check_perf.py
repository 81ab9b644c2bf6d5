#!/usr/bin/env python3
"""CI perf guard for the Quick figures sweep.

Checks the sweep JSON written by `figures all --json PATH` against the
checked-in baseline:

1. total wall clock must stay within 3x the baseline (catches an accidental
   O(n^2) reintroduction, not CI-runner noise);
2. the elastic-membership experiments (`rebalance`, `decommission`) must be
   present and every row that reports an `errors` column must report 0 —
   live shard migration and graceful shrink are required to be invisible to
   clients (freeze-window drops are absorbed by retransmission, stale maps
   refresh via WrongOwner);
3. the `metrics` experiment (the one run with the flight recorder ON) must
   be present with the core unified-registry rows, prove that the
   tracing-enabled run completed (`client.ops_issued` > 0 and
   `obs.events_recorded` > 0), satisfy the WAL watermark invariant
   (`wal.bytes_flushed` <= `wal.bytes_appended`), and keep the WAL's
   deterministic work count flat (`wal.records_visited` <= 2 x
   `wal.appends`: a flush visits each record once and a mark visits each
   record once, so a reintroduced whole-log scan fails here on any machine
   instead of hiding inside the wall-clock budget).

Usage: check_perf.py [SWEEP_JSON] [BASELINE_JSON]
"""

import json
import sys

ELASTIC_EXPERIMENTS = ("rebalance", "decommission")
WALL_CLOCK_FACTOR = 3.0
# Records the WAL may visit per append: one flush visit plus one mark.
WAL_VISITS_PER_APPEND = 2
# Named rows the unified metrics registry must always expose.
REQUIRED_METRICS = (
    "client.ops_issued",
    "client.ops_ok",
    "kv.gets",
    "kv.puts",
    "net.delivered",
    "net.sent",
    "obs.events_evicted",
    "obs.events_recorded",
    "server.ops_completed",
    "switch.packets",
    "wal.appends",
    "wal.bytes_appended",
    "wal.bytes_flushed",
    "wal.records_visited",
)


def main() -> int:
    sweep_path = sys.argv[1] if len(sys.argv) > 1 else "bench-smoke.json"
    base_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_PR2.json"
    with open(sweep_path) as f:
        sweep = json.load(f)
    with open(base_path) as f:
        base = json.load(f)

    failures = []

    measured = sweep["total_wall_clock_secs"]
    reference = base["quick_sweep"]["post_change"]["reference_total_wall_clock_secs"]
    budget = WALL_CLOCK_FACTOR * reference
    print(f"sweep took {measured:.1f}s, budget {budget:.1f}s")
    if measured > budget:
        failures.append(f"wall clock {measured:.1f}s exceeds budget {budget:.1f}s")

    experiments = {e.get("name"): e for e in sweep.get("experiments", [])}
    for name in ELASTIC_EXPERIMENTS:
        exp = experiments.get(name)
        if exp is None:
            failures.append(f"experiment '{name}' missing from the sweep")
            continue
        for row in exp.get("rows", []):
            errors = row.get("errors")
            if errors is None:
                continue
            label = row.get("label", "?")
            print(f"{name} / {label}: errors={errors:g}")
            if errors != 0:
                failures.append(f"{name} / {label}: {errors:g} errors (must be 0)")

    metrics_exp = experiments.get("metrics")
    if metrics_exp is None:
        failures.append("experiment 'metrics' missing from the sweep")
    else:
        values = {
            row.get("label"): row.get("value") for row in metrics_exp.get("rows", [])
        }
        missing = [name for name in REQUIRED_METRICS if name not in values]
        if missing:
            failures.append(f"metrics registry rows missing: {', '.join(missing)}")
        else:
            issued = values["client.ops_issued"]
            recorded = values["obs.events_recorded"]
            print(
                f"metrics: {len(values)} rows, ops_issued={issued:g}, "
                f"trace events recorded={recorded:g}"
            )
            if issued <= 0:
                failures.append("metrics: tracing-enabled run issued no ops")
            if recorded <= 0:
                failures.append(
                    "metrics: flight recorder was enabled but recorded nothing"
                )
            if values["wal.bytes_flushed"] > values["wal.bytes_appended"]:
                failures.append(
                    "metrics: wal.bytes_flushed exceeds wal.bytes_appended "
                    "(flush watermark overran the append counter)"
                )
            visited = values["wal.records_visited"]
            appends = values["wal.appends"]
            print(f"metrics: wal.records_visited={visited:g}, wal.appends={appends:g}")
            if visited > WAL_VISITS_PER_APPEND * appends:
                failures.append(
                    f"metrics: wal.records_visited {visited:g} exceeds "
                    f"{WAL_VISITS_PER_APPEND} x wal.appends {appends:g} "
                    "(a WAL call is scanning the whole log)"
                )

    if failures:
        for f_ in failures:
            print(f"perf smoke FAILED: {f_}", file=sys.stderr)
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
