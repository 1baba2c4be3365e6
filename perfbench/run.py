"""End-to-end campaign benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload carolfi-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

For ``--seconds`` it runs the workload's campaign plan again and again,
each pass a cold campaign in a fresh process (closed loop, one client).
Every record of every pass is checked against a reference log computed
for the seed on the plain execution path.  With ``--trace 0`` it prints
the end-to-end metrics (medians over the passes); with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer table.
The last line of standard output is one JSON object.  The exit code is
0 only when every output was correct.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CACHE = HERE / ".cache"
ANCHOR = HERE / "anchor.json"

#: Host properties that must match the anchor's for its digests to apply.
ANCHOR_HOST_KEYS = ("nproc", "cpu_model", "cpu_flags_sha1", "numpy", "scipy")

#: Program environment that would make a pass warm or change its path.
CLEARED_ENV = (
    "REPRO_GOLDEN_CACHE",
    "REPRO_SHM",
    "REPRO_SHM_DIR",
    "REPRO_WORKERS",
    "REPRO_WORKER_DIE_AFTER",
    "REPRO_WORKER_SLOW_S",
)

#: A pass that takes longer than this is killed and counted as failed.
PASS_TIMEOUT_S = 60.0

#: A pass during which the hypervisor took more than this share of the
#: VM's CPU time (``steal``) is verified but left out of the medians,
#: and the run measures another pass in its place.
STEAL_LIMIT = 0.05

#: A run whose window holds no pass under ``STEAL_LIMIT`` goes on
#: while another pass fits in this multiple of ``--seconds``; then it
#: reports every pass and says that it is unsteady.
STEADY_WAIT = 1.5

END_TO_END = {
    "runs_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "cpu_ms_per_run": "ms",
    "rss_peak_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a failed output)."""


# -- processes and leaks -------------------------------------------------------


def _become_subreaper() -> None:
    # Orphaned descendants of a pass are re-parented to this process, so
    # a leaked worker can be found, killed and reaped here.
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _tagged_pids(token: str) -> list[int]:
    """Live processes whose environment carries this pass's token."""
    needle = f"PERFBENCH_TOKEN={token}".encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                env = fh.read().split(b"\0")
            with open(f"/proc/{entry}/stat", "rb") as fh:
                state = fh.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in env and state not in (b"Z", b"X"):
            pids.append(int(entry))
    return pids


def _kill_tagged(token: str) -> list[int]:
    leaked = _tagged_pids(token)
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10
    while _tagged_pids(token) and time.monotonic() < deadline:
        _reap_orphans()
        time.sleep(0.05)
    _reap_orphans()
    return leaked


def _shm_dir() -> Path:
    # Mirrors repro.carolfi.shmstore.shm_dir() with REPRO_SHM_DIR cleared.
    dev_shm = Path("/dev/shm")
    if dev_shm.is_dir() and os.access(dev_shm, os.W_OK):
        return dev_shm
    return Path(tempfile.gettempdir())


def _shm_segments(*extra: Path) -> set[Path]:
    found = set()
    for directory in (_shm_dir(), *extra):
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        found.update(directory / n for n in names if n.startswith("repro-shm-") or n.endswith(".seg.tmp"))
    return found


# -- one pass ------------------------------------------------------------------


def _cpu_ticks() -> list[int]:
    """The host's aggregate CPU tick counters (``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def _steal_frac(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took from this VM (field 8)."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def _pass_env(token: str, work: Path, traced: bool) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV and not k.startswith("PERFBENCH_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), str(HERE)) if p)
    env["TMPDIR"] = str(work / "tmp")
    env["PERFBENCH_TOKEN"] = token
    env["PERFBENCH_PROBES"] = str(work / "probes")
    if traced:
        env["PERFBENCH_SPANS"] = str(work / "spans")
    return env


def run_pass(workload: str, seed: int, traced: bool = False) -> dict:
    """Run one cold pass; return its raw observations (logs stay on disk
    in ``result["work"]`` until :func:`cleanup`)."""
    token = f"{os.getpid()}-{time.monotonic_ns()}"
    work = WORK / token
    for sub in ("tmp", "probes", "spans", "logs"):
        (work / sub).mkdir(parents=True)
    env = _pass_env(token, work, traced)
    shm_before = _shm_segments()
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    own0 = resource.getrusage(resource.RUSAGE_SELF)
    ticks0 = _cpu_ticks()
    launch = time.monotonic()
    problems: list[str] = []
    with open(work / "child.out", "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload, str(seed), str(work)],
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
            problems.append(f"pass exceeded {PASS_TIMEOUT_S:.0f} s and was killed")
    ended = time.monotonic()
    steal = _steal_frac(ticks0, _cpu_ticks())
    leaked = _kill_tagged(token)
    if leaked:
        problems.append(f"{len(leaked)} process(es) left behind: {leaked}")
    new_segments = _shm_segments(work / "tmp") - shm_before
    for path in new_segments:
        try:
            path.unlink()
        except OSError:
            pass
    if new_segments:
        problems.append(f"shared-memory segment(s) left behind: {sorted(map(str, new_segments))}")
    if code != 0:
        tail = (work / "child.out").read_text(encoding="utf-8", errors="replace")[-2000:]
        problems.append(f"pass exited with code {code}:\n{tail}")
    result = {}
    result_path = work / "result.json"
    if result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    own1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (
        (cpu1.ru_utime - cpu0.ru_utime)
        + (cpu1.ru_stime - cpu0.ru_stime)
        + (own1.ru_utime - own0.ru_utime)
        + (own1.ru_stime - own0.ru_stime)
    )
    return {
        "work": work,
        "launch": launch,
        "ended": ended,
        "cpu_s": cpu_s,
        "problems": problems,
        "child": result,
        "first_runs": _first_runs(work / "probes"),
        "steal_frac": steal,
    }


def _first_runs(directory: Path) -> dict[str, float]:
    first: dict[str, float] = {}
    for path in directory.glob("first-run-*"):
        for line in path.read_text(encoding="utf-8").splitlines():
            name, stamp = line.split()
            first[name] = min(first.get(name, float("inf")), float(stamp))
    return first


def cleanup(observed: dict) -> None:
    shutil.rmtree(observed["work"], ignore_errors=True)


# -- references ----------------------------------------------------------------


def _line_hash(line: bytes) -> str:
    return hashlib.sha1(line).hexdigest()


def _summarise_logs(logs: Path, kind: str) -> dict:
    digests, lines, counts = {}, {}, {}
    for name in plan.benchmarks(kind):
        data = (logs / f"{name}.jsonl").read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        rows = data.splitlines()
        lines[name] = [_line_hash(row) for row in rows]
        tally = {"masked": 0, "sdc": 0, "due": 0}
        for row in rows:
            tally[json.loads(row)["outcome"]] += 1
        counts[name] = tally
    return {"digests": digests, "lines": lines, "counts": counts}


def host_record() -> dict:
    cpu, flags = platform.processor() or "", ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and not flags:
                    cpu = value.strip()
                elif key.strip() == "flags":
                    flags = value.strip()
                    break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "?"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "cpu_flags_sha1": hashlib.sha1(flags.encode()).hexdigest()[:12],
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def reference(kind: str, seed: int, host: dict) -> dict:
    """The reference logs' summary for ``(kind, seed)``, computed on the
    plain path and kept in ``perfbench/.cache`` once it passed the
    anchor check.  ``problems`` lists anchor mismatches."""
    path = CACHE / f"ref-{kind}-n{plan.runs_per_benchmark(kind)}-seed{seed}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    observed = run_pass(f"reference-{kind}", seed)
    try:
        if observed["problems"]:
            raise BenchError(f"reference {kind} seed {seed} failed: " + "; ".join(observed["problems"]))
        ref = _summarise_logs(observed["work"] / "logs", kind)
    finally:
        cleanup(observed)
    ref["problems"] = _anchor_problems(kind, seed, ref, host)
    if not ref["problems"]:
        CACHE.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(ref), encoding="utf-8")
    return ref


def _anchor_problems(kind: str, seed: int, ref: dict, host: dict) -> list[str]:
    """Committed digests for the anchor seed catch a change that alters
    records on every path at once, the plain reference path included."""
    anchor = json.loads(ANCHOR.read_text(encoding="utf-8"))
    if seed != anchor["seed"] or plan.runs_per_benchmark(kind) != anchor["runs"][kind]:
        return []
    recorded = anchor["host"]
    if any(recorded[k] != host[k] for k in ANCHOR_HOST_KEYS):
        print(f"anchor: not checked, digests were recorded on {recorded}", flush=True)
        return []
    return [
        f"reference {name} log for anchor seed {seed} differs from perfbench/anchor.json"
        for name, digest in ref["digests"].items()
        if anchor["digests"][kind].get(name) != digest
    ]


# -- verification and metrics ----------------------------------------------------


def verify(observed: dict, kind: str, ref: dict) -> dict:
    """Compare every record of a pass with the reference; count failures.

    The reference comes from the in-process plain path, which has no
    sandbox and no quarantine, so an infrastructure DUE (a ``sandbox:``
    detail or a quarantine) never equals its reference record and is
    counted here like any other mismatch."""
    planned = plan.runs_per_benchmark(kind)
    failed = 0
    digests = {}
    problems = []
    logs = observed["work"] / "logs"
    for name in plan.benchmarks(kind):
        path = logs / f"{name}.jsonl"
        data = path.read_bytes() if path.exists() else b""
        digests[name] = hashlib.sha256(data).hexdigest()
        rows = data.splitlines()
        want = ref["lines"][name]
        bad = [index for index in range(planned) if index >= len(rows) or _line_hash(rows[index]) != want[index]]
        if bad or len(rows) != planned or digests[name] != ref["digests"][name]:
            problems.append(f"{name}: {len(rows)} records, runs {bad[:8]} differ from the reference")
        failed += max(len(bad), int(digests[name] != ref["digests"][name]))
    total = planned * len(plan.benchmarks(kind))
    if observed["problems"]:
        failed = total
    return {"attempted": total, "failed": failed, "digests": digests, "problems": problems}


def pass_metrics(observed: dict, check: dict, kind: str) -> dict:
    """End-to-end metrics of one verified pass.  Its wall time ends when
    the pass process has exited, before ``run.py``'s own checks."""
    ended = observed["ended"]
    wall = ended - observed["launch"]
    starts = dict(observed["child"].get("campaign_start", {}))
    first = observed["first_runs"]
    setup = 0.0
    for position, name in enumerate(plan.benchmarks(kind)):
        begin = observed["launch"] if position == 0 else starts.get(name, observed["launch"])
        setup += max(0.0, first.get(name, ended) - begin)
    records = check["attempted"] - check["failed"]
    run_phase = max(wall - setup, 1e-9)
    jsonl_bytes = sum(p.stat().st_size for p in observed["work"].rglob("*.jsonl"))
    return {
        "runs_per_s": records / run_phase,
        "wall_s": wall,
        "setup_s": setup,
        "cpu_ms_per_run": 1000.0 * observed["cpu_s"] / check["attempted"],
        "rss_peak_mb": observed["child"].get("rss_peak_kb", 0) / 1024.0,
        "failed_frac": check["failed"] / check["attempted"],
        "steal_frac": observed["steal_frac"],
        "jsonl_bytes": jsonl_bytes,
    }


# -- the closed loop -------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, host: dict) -> dict:
    """Run passes for about ``seconds``: another pass starts only if the
    mean pass so far fits in what is left of the window.  Untraced
    passes under ``STEAL_LIMIT`` are the steady ones the medians use."""
    kind = plan.WORKLOADS[workload]
    anchor_seed = int(json.loads(ANCHOR.read_text(encoding="utf-8"))["seed"])
    problems = list(reference(kind, anchor_seed, host)["problems"])
    ref = reference(kind, seed, host)
    passes: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    attempted = failed = 0
    digests_seen: set[str] = set()
    started = time.monotonic()
    while True:
        do_trace = trace and len(passes) > len(traced)
        observed = run_pass(workload, seed, traced=do_trace)
        try:
            check = verify(observed, kind, ref)
            metrics = pass_metrics(observed, check, kind)
            if do_trace:
                table = layers.aggregate(
                    observed["work"] / "spans", observed["child"], check["attempted"],
                    observed["launch"], observed["ended"],
                )
                table["jsonlog.bytes"] = metrics["jsonl_bytes"]
                problems.extend(table.pop("_problems"))
                traced.append(table)
            else:
                metrics["steady"] = metrics["steal_frac"] <= STEAL_LIMIT
                passes.append(metrics)
        finally:
            cleanup(observed)
        problems.extend(observed["problems"] + check["problems"])
        attempted += check["attempted"]
        failed += check["failed"]
        digests_seen.add(json.dumps(check["digests"], sort_keys=True))
        durations.append(observed["ended"] - observed["launch"])
        finish = time.monotonic() - started + statistics.mean(durations)
        steady = any(p["steady"] for p in passes) or finish > STEADY_WAIT * seconds
        if steady and (traced or not trace) and finish > seconds:
            break
    return {
        "workload": workload,
        "kind": kind,
        "passes": passes,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": [json.loads(d) for d in sorted(digests_seen)],
        "counts": ref["counts"],
        "elapsed_s": time.monotonic() - started,
    }


# -- output ---------------------------------------------------------------------


def print_outcomes(run: dict) -> None:
    print(f"outcomes per benchmark ({run['kind']}, reference log):")
    for name, tally in run["counts"].items():
        print(f"  {name:<8} Masked {tally['masked']:>3}  SDC {tally['sdc']:>3}  DUE {tally['due']:>3}")


def _medians(run: dict) -> list[dict]:
    """The passes whose medians are reported: the steady ones, or every
    untraced pass when none was steady."""
    return [p for p in run["passes"] if p["steady"]] or run["passes"]


def print_end_to_end(run: dict) -> dict:
    rows = _medians(run)
    steady = sum(p["steady"] for p in run["passes"])
    shown = [*END_TO_END.items(), ("failed_frac", "ratio"), ("steal_frac", "ratio")]
    values = {name: statistics.median(row[name] for row in rows) for name, _ in shown}
    print(f"{run['workload']}: {steady} steady pass(es) of {len(run['passes'])} in {run['elapsed_s']:.1f} s, medians:")
    for name, unit in shown:
        per_pass = ", ".join(f"{row[name]:.4g}" + ("" if row["steady"] else "*") for row in run["passes"])
        print(f"  {name:<16} {values[name]:>12.4f} {unit:<6} [{per_pass}]")
    if not steady:
        print(f"UNSTEADY: every pass of {run['workload']} ran with steal_frac above {STEAL_LIMIT}")
    elif steady < len(run["passes"]):
        print(f"  * steal_frac above {STEAL_LIMIT}: verified, left out of the medians")
    return values


def print_layers(run: dict) -> dict:
    values = layers.median_table(run["traced"])
    untraced = statistics.median(row["wall_s"] for row in _medians(run))
    values["trace.overhead_ratio"] = values["trace.wall_s"] / untraced
    print(f"{run['workload']}: per-layer metrics, median of {len(run['traced'])} traced pass(es)")
    layers.print_table(values, run["workload"])
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end campaign benchmark.")
    parser.add_argument("--workload", required=True, choices=[*plan.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    _become_subreaper()
    host = host_record()
    host["seed"] = args.seed
    print("host: " + json.dumps(host, sort_keys=True), flush=True)
    workloads = list(plan.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        runs = [measure(w, args.seed, args.seconds, bool(args.trace), host) for w in workloads]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass

    problems: list[str] = []
    metrics: dict[str, dict] = {}
    for run in runs:
        print_outcomes(run)
        values = print_layers(run) if args.trace else print_end_to_end(run)
        for name, value in values.items():
            if args.trace:
                unit = layers.UNITS[name]
            elif name in END_TO_END:
                unit = END_TO_END[name]
            else:
                continue
            key = name if len(runs) == 1 else f"{run['workload']}.{name}"
            metrics[key] = {"value": value, "unit": unit}
        problems.extend(f"{run['workload']}: {p}" for p in run["problems"])
        if len(run["digests"]) != 1:
            problems.append(f"{run['workload']}: passes of one seed produced different logs")
    carolfi = [r["digests"][0] for r in runs if r["kind"] == "carolfi" and r["digests"]]
    if any(d != carolfi[0] for d in carolfi):
        problems.append("carolfi workloads produced different campaign.jsonl bytes for one seed")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and not problems
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"records: {attempted - failed} verified of {attempted} ({failed} failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
