"""Per-layer metrics from the spans of one traced pass.

Standard library only.  Each process of a traced pass writes
``spans-<pid>.json`` (see ``probes.py``): span names plus rows of
``[name, start, end, parent, value]``.  Busy times and counts below sum
over every process of the pass.  The ``<layer>.self_s`` accounting rows
cover the campaign process only, whose spans nest inside one root span
(``bench.workload``).  ``startup.self_s`` runs from the pass's launch to
that root (interpreter start-up, imports, probe install) and
``exit.self_s`` from the root's end to the process's exit (result file,
span write, interpreter exit).  The layer self times, ``other.self_s``
and those two rows add up to ``trace.wall_s``, the traced pass's wall
time that ``run.py`` measures from launch to exit.  Once every span
lies inside its parent and the root inside the pass, that sum holds by
construction, so the check on it is a check of the nesting and of the
shared clock.  Time that worker processes spend shows in the busy rows,
not in the accounting.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: Span name prefix -> accounting layer.
LAYER_OF_PREFIX = {
    "benchmarks.": "benchmarks",
    "supervisor.": "supervisor",
    "prefixcache.": "prefixcache",
    "shmstore.": "prefixcache",
    "flipscript.": "flipscript",
    "batchrunner.": "batchrunner",
    "isolation.": "isolation",
    "engine.": "engine",
    "scheduler.": "engine",
    "service.": "service",
    "broker.": "service",
    "wire.": "wire",
    "jsonlog.": "jsonlog",
    "beam.": "beam",
    "machine.": "beam",
    "bench.": "other",
}

ACCOUNTING = (
    "benchmarks",
    "supervisor",
    "prefixcache",
    "flipscript",
    "batchrunner",
    "isolation",
    "engine",
    "service",
    "wire",
    "jsonlog",
    "beam",
)

RUN_SPANS = ("supervisor.run_one", "batchrunner.run_many", "beam.run_trial")

#: (layer, modules, metrics, what the metrics should move).
ROWS = (
    ("benchmarks", "repro.benchmarks",
     ("benchmarks.step_calls", "benchmarks.step_s", "benchmarks.steps_per_run",
      "benchmarks.step_batch_calls", "benchmarks.step_batch_s", "benchmarks.step_batch_members"),
     "runs_per_s on carolfi-serial and beam"),
    ("snapshot restore", "carolfi.prefixcache + carolfi.shmstore",
     ("prefixcache.materialize_calls", "prefixcache.materialize_s", "prefixcache.steps_skipped_ratio",
      "shmstore.publish_s", "shmstore.attach_hits", "shmstore.attach_misses"),
     "runs_per_s on carolfi-serial; setup_s, rss_peak_mb on carolfi-sandbox; none on beam"),
    ("fault injection", "carolfi.flipscript",
     ("flipscript.inject_calls", "flipscript.inject_s"),
     "runs_per_s on carolfi-serial"),
    ("supervisor", "carolfi.supervisor",
     ("supervisor.init_calls", "supervisor.init_s", "supervisor.run_one_calls",
      "supervisor.run_one_self_s", "supervisor.run_one_p50_ms", "supervisor.run_one_p99_ms",
      "supervisor.run_one_samples", "supervisor.classify_calls", "supervisor.classify_s"),
     "init: setup_s on CAROL-FI workloads; run_one, classify: runs_per_s on carolfi-serial"),
    ("batching", "carolfi.batchrunner",
     ("batchrunner.run_many_s", "batchrunner.vectorized_ratio"),
     "runs_per_s on carolfi-serial and carolfi-sandbox (zero at batch_size=1)"),
    ("isolation", "carolfi.isolation",
     ("isolation.sandbox_spawns", "isolation.run_s", "isolation.worker_deaths"),
     "runs_per_s on carolfi-sandbox"),
    ("coordinator", "carolfi.engine + service.scheduler",
     ("scheduler.busy_s", "scheduler.wait_s", "scheduler.leases", "scheduler.retries",
      "scheduler.quarantines", "scheduler.steals", "engine.checkpoint_writes",
      "engine.checkpoint_write_s"),
     "runs_per_s, wall_s on carolfi-sandbox and carolfi-broker; none on carolfi-serial"),
    ("IPC frames", "service.wire",
     ("wire.frames", "wire.bytes", "wire.encode_s", "wire.decode_s"),
     "runs_per_s on carolfi-broker, less on carolfi-sandbox"),
    ("lease execution", "service.local + service.broker + service.worker",
     ("broker.worker_start_s", "worker.run_s"),
     "worker_start: setup_s on carolfi-broker; worker.run_s: runs_per_s on carolfi-broker"),
    ("record encoding", "util.jsonlog",
     ("jsonlog.appends", "jsonlog.bytes", "jsonlog.append_s"),
     "runs_per_s on carolfi-serial and carolfi-sandbox"),
    ("strike simulation", "beam.experiment + phi.machine",
     ("beam.init_s", "beam.run_trial_self_s", "beam.occupied_ratio",
      "machine.apply_strike_calls", "machine.apply_strike_s"),
     "init: setup_s on beam; the rest: runs_per_s on beam only"),
)

UNITS: dict[str, str] = {}
for _layer, _modules, _names, _moves in ROWS:
    for _name in _names:
        if _name.endswith("_ms"):
            UNITS[_name] = "ms"
        elif _name.endswith("_s"):
            UNITS[_name] = "s"
        elif _name.endswith("_ratio"):
            UNITS[_name] = "ratio"
        elif _name.endswith("bytes"):
            UNITS[_name] = "bytes"
        elif _name.endswith("steps_per_run"):
            UNITS[_name] = "steps/run"
        else:
            UNITS[_name] = "count"
for _layer in (*ACCOUNTING, "other", "startup", "exit"):
    UNITS[f"{_layer}.self_s"] = "s"
UNITS["trace.wall_s"] = "s"
UNITS["trace.overhead_ratio"] = "ratio"


def _layer(name: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX.items():
        if name.startswith(prefix):
            return layer
    return "other"


class _Stats:
    __slots__ = ("count", "dur", "self_s", "durations", "values")

    def __init__(self) -> None:
        self.count = 0
        self.dur = 0.0
        self.self_s = 0.0
        self.durations: list[float] = []
        self.values: list = []


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = q * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def aggregate(spans_dir: Path, child: dict, records: int, launch: float, ended: float) -> dict:
    """Per-layer metrics of one traced pass (plus ``_problems``); the pass
    process ran from ``launch`` to ``ended`` on the monotonic clock."""
    problems: list[str] = []
    stats: dict[str, _Stats] = {}
    accounting = {layer: 0.0 for layer in (*ACCOUNTING, "other", "startup", "exit")}
    wall = ended - launch
    roots = 0
    in_run_steps = in_run_members = skipped = 0
    checkpoint_append_s = 0.0
    checkpoint_shards = 0
    worker_run_s = 0.0
    for path in sorted(spans_dir.glob("spans-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        names = data["names"]
        rows = data["spans"]
        is_main = data["pid"] == child.get("pid")
        child_time = [0.0] * len(rows)
        for row in rows:
            if row[3] >= 0:
                child_time[row[3]] += row[2] - row[1]
        in_run = [False] * len(rows)
        in_ckpt = [False] * len(rows)
        in_root = [False] * len(rows)
        for i, (name_id, start, end, parent, value) in enumerate(rows):
            name = names[name_id]
            if parent >= 0:
                if start < rows[parent][1] - 1e-6 or end > rows[parent][2] + 1e-6:
                    problems.append(f"span {name} in pid {data['pid']} lies outside its parent")
                pname = names[rows[parent][0]]
                in_run[i] = in_run[parent] or pname in RUN_SPANS
                in_ckpt[i] = in_ckpt[parent] or (pname == "service.execute_shard" and rows[parent][4] == 1)
                in_root[i] = in_root[parent]
            elif name == "bench.workload":
                in_root[i] = True
                if is_main:
                    roots += 1
                    accounting["startup"] += start - launch
                    accounting["exit"] += ended - end
            dur = end - start
            own = dur - child_time[i]
            if own < -1e-6:
                problems.append(f"span {name} in pid {data['pid']} has negative self time {own:.6f} s")
            st = stats.setdefault(name, _Stats())
            st.count += 1
            st.dur += dur
            st.self_s += own
            if value is not None:
                st.values.append(value)
            if name == "supervisor.run_one":
                st.durations.append(dur)
            if in_run[i]:
                if name == "benchmarks.step":
                    in_run_steps += 1
                elif name == "benchmarks.step_batch":
                    in_run_members += value
                elif name == "prefixcache.materialize":
                    skipped += value
            if in_ckpt[i] and name == "jsonlog.append":
                checkpoint_append_s += dur
            if name == "service.execute_shard":
                if value == 1:
                    checkpoint_shards += 1
                if data["role"] == "broker-worker":
                    worker_run_s += dur
            if is_main and in_root[i]:
                accounting[_layer(name)] += own
    if roots != 1:
        problems.append(f"the campaign process wrote {roots} root spans, not one")
    if accounting["startup"] < 0 or accounting["exit"] < 0:
        problems.append("the campaign process's root span lies outside the pass's launch and exit")

    def get(name: str) -> _Stats:
        return stats.get(name, _Stats())

    def by_value(name: str, *wanted: str) -> int:
        return sum(1 for v in get(name).values if v in wanted)

    run_one = sorted(get("supervisor.run_one").durations)
    offered = sum(v[0] for v in get("batchrunner.run_many").values)
    vectorized = sum(v[1] for v in get("batchrunner.run_many").values)
    executed = in_run_steps + in_run_members
    trials = get("beam.run_trial")
    table = {
        "benchmarks.step_calls": get("benchmarks.step").count,
        "benchmarks.step_s": get("benchmarks.step").dur,
        "benchmarks.steps_per_run": executed / records if records else 0.0,
        "benchmarks.step_batch_calls": get("benchmarks.step_batch").count,
        "benchmarks.step_batch_s": get("benchmarks.step_batch").dur,
        "benchmarks.step_batch_members": sum(get("benchmarks.step_batch").values),
        "prefixcache.materialize_calls": get("prefixcache.materialize").count,
        "prefixcache.materialize_s": get("prefixcache.materialize").dur,
        "prefixcache.steps_skipped_ratio": skipped / (skipped + executed) if skipped + executed else 0.0,
        "shmstore.publish_s": get("shmstore.publish").dur,
        "shmstore.attach_hits": sum(get("shmstore.attach").values),
        "shmstore.attach_misses": get("shmstore.attach").count - sum(get("shmstore.attach").values),
        "flipscript.inject_calls": get("flipscript.inject").count,
        "flipscript.inject_s": get("flipscript.inject").dur,
        "supervisor.init_calls": get("supervisor.init").count,
        "supervisor.init_s": get("supervisor.init").dur,
        "supervisor.run_one_calls": get("supervisor.run_one").count,
        "supervisor.run_one_self_s": get("supervisor.run_one").self_s,
        "supervisor.run_one_p50_ms": 1000.0 * _percentile(run_one, 0.50),
        "supervisor.run_one_p99_ms": 1000.0 * _percentile(run_one, 0.99),
        "supervisor.run_one_samples": len(run_one),
        "supervisor.classify_calls": get("supervisor.classify").count,
        "supervisor.classify_s": get("supervisor.classify").dur,
        "batchrunner.run_many_s": get("batchrunner.run_many").dur,
        "batchrunner.vectorized_ratio": vectorized / offered if offered else 0.0,
        "isolation.sandbox_spawns": get("isolation.sandbox_main").count,
        "isolation.run_s": get("isolation.run").dur,
        "isolation.worker_deaths": by_value("isolation.event", "sandbox_death"),
        "scheduler.busy_s": get("scheduler.run_shards").self_s,
        "scheduler.wait_s": get("scheduler.wait").dur,
        "scheduler.leases": get("service.submit").count,
        "scheduler.retries": by_value("engine.event", "retry"),
        "scheduler.quarantines": by_value("engine.event", "quarantine", "sandbox_quarantine"),
        "scheduler.steals": by_value("engine.event", "steal"),
        "engine.checkpoint_writes": get("engine.checkpoint_write").count + checkpoint_shards,
        "engine.checkpoint_write_s": get("engine.checkpoint_write").dur + checkpoint_append_s,
        "wire.frames": get("wire.encode").count,
        "wire.bytes": sum(get("wire.encode").values),
        "wire.encode_s": get("wire.encode").dur,
        "wire.decode_s": get("wire.decode").dur + get("wire.feed").self_s,
        "broker.worker_start_s": get("broker.worker_start").dur,
        "worker.run_s": worker_run_s,
        "jsonlog.appends": get("jsonlog.append").count,
        "jsonlog.bytes": 0,
        "jsonlog.append_s": get("jsonlog.append").dur,
        "beam.init_s": get("beam.init").dur,
        "beam.run_trial_self_s": trials.self_s,
        "beam.occupied_ratio": sum(trials.values) / trials.count if trials.count else 0.0,
        "machine.apply_strike_calls": get("machine.apply_strike").count,
        "machine.apply_strike_s": get("machine.apply_strike").dur,
        "trace.wall_s": wall,
    }
    for layer, seconds in accounting.items():
        table[f"{layer}.self_s"] = seconds
    covered = sum(accounting.values())
    if abs(covered - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"accounting rows sum to {covered:.6f} s, traced wall_s is {wall:.6f} s")
    table["_problems"] = problems
    return table


def median_table(tables: list[dict]) -> dict:
    names = [n for n in tables[0] if not n.startswith("_")]
    return {n: statistics.median(t[n] for t in tables) for n in names}


def print_table(values: dict, workload: str) -> None:
    for layer, modules, names, moves in ROWS:
        print(f"  [{layer}] {modules} -> moves {moves}")
        for name in names:
            print(f"    {name:<34} {values[name]:>14.6g} {UNITS[name]}")
    wall = values["trace.wall_s"]
    print(f"  self-time accounting, campaign process of {workload} (traced wall_s {wall:.3f} s, launch to exit):")
    total = 0.0
    for layer in ("startup", *ACCOUNTING, "other", "exit"):
        seconds = values[f"{layer}.self_s"]
        total += seconds
        share = seconds / wall if wall else 0.0
        print(f"    {layer + '.self_s':<34} {seconds:>14.6f} s  {100 * share:5.1f}%")
    print(f"    {'sum':<34} {total:>14.6f} s  (medians of passes; each pass sums exactly)")
    print(f"    {'trace.overhead_ratio':<34} {values['trace.overhead_ratio']:>14.4f} traced/untraced wall_s")
