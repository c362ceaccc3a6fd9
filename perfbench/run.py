"""Run one benchmark workload and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload tpch_ladder --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced, then again with layer spans
installed (see ``spans.py``), and reports the per-layer metrics.  The
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every result is checked against the
single-node ``repro.frame`` oracle, and every simulated number and every
call count traced on the accounting thread must repeat exactly for one
seed — within a run and across runs of the same code (recorded under
``perfbench/.state/``).  A failed determinism or tracer-coverage check
exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE_DIR = HERE / ".state"

#: set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3
#: traced main-thread self times must cover the traced wall this well.
COVERAGE_TOLERANCE = 0.05
#: main-thread layers whose self time is the per-subtask control plane.
CONTROL_PLANE = ("actors", "storage", "shuffle", "graph", "executor",
                 "tiling", "scheduling", "lifecycle", "meta")
#: main-thread layers reported as ``<layer>.self_s`` (the dispatch
#: layer's self time is ``dispatch.wait_s``).
LAYERS = CONTROL_PLANE + ("session", "kernels")
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import repro\n"
    "print(time.perf_counter() - t)\n"
)


class CheckFailed(Exception):
    """A correctness, determinism or coverage self-check failed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# resident memory
# ---------------------------------------------------------------------------

def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # the peak then covers the whole process


def peak_rss_mib() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_seconds() -> float:
    """``import repro`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(workload, tables, first_import_s: float) -> float:
    """Median of import + ``Session`` creation + source ingest."""
    imports = [first_import_s] + [
        import_seconds() for _ in range(SETUP_SAMPLES - 1)
    ]
    samples = []
    for imported in imports:
        start = perf_counter()
        session, _ = workload.open(tables)
        samples.append(imported + perf_counter() - start)
        session.close()
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_units(workload, tables, expected, timer, budget_s: float,
              count: int | None = None, tracer=None):
    """Units until the budget would be overrun (or exactly ``count``).

    Returns ``(units, peak_rss_mib, per-unit traced snapshots)``.
    """
    units, snaps, peaks = [], [], []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        reset_peak_rss()
        units.append(workload.run(tables, expected, timer))
        peaks.append(peak_rss_mib())
        if tracer is not None:
            snaps.append(tracer.snapshot())
        if count is not None:
            if len(units) >= count:
                break
            continue
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(units) > budget_s:
            break
    return units, max(peaks), snaps


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def check_repeats(label: str, records: list[dict]) -> None:
    """Every record of one seed must equal the first."""
    first = records[0]
    for i, record in enumerate(records[1:], start=1):
        for key in sorted(set(first) | set(record)):
            if first.get(key) != record.get(key):
                raise CheckFailed(
                    f"determinism: {label} {key!r} was {first.get(key)!r} "
                    f"in unit 0 but {record.get(key)!r} in unit {i}")


def source_fingerprint() -> str:
    """Digest of the engine and benchmark sources.

    Runs compare their numbers only with earlier runs of the same code:
    a change to the engine may move virtual metrics and traced counts.
    """
    digest = hashlib.blake2b(digest_size=8)
    for root in (SRC, HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_state(workload: str, seed: int, section: str, record: dict) -> None:
    """Compare against (then extend) what earlier runs of this seed saw."""
    path = STATE_DIR / f"{workload}-seed{seed}-{source_fingerprint()}.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    seen = state.setdefault(section, {})
    for key, value in record.items():
        if key in seen and seen[key] != value:
            raise CheckFailed(
                f"determinism: {section} {key!r} of {workload} seed {seed} "
                f"was {seen[key]!r} in an earlier run, now {value!r}")
        seen[key] = value
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)


def log_units(label: str, units) -> None:
    for i, unit in enumerate(units):
        print(f"perfbench: {label} unit {i}: wall {unit.wall_s:.3f} s, "
              f"cpu {unit.cpu_s:.3f} s", file=sys.stderr)
        for problem in unit.problems:
            print(f"perfbench: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(units, setup_s: float, peak_mib: float) -> dict:
    jobs = sum(u.jobs for u in units)
    return {
        "wall_s": statistics.median(u.wall_s for u in units),
        "setup_s": setup_s,
        "virtual_makespan_s": units[0].virtual["makespan_s"],
        "peak_rss_mib": peak_mib,
        "ok_frac": 1.0 - sum(u.first_try_failed for u in units) / jobs,
    }


def layer_metrics(unit, snap: dict) -> dict:
    """Per-layer numbers of one traced unit."""
    from spans import MAIN, POOL

    selfs = snap["self"]
    counts = Counter(snap["counts"][MAIN]) + Counter(snap["counts"][POOL])

    def self_s(kind, layer):
        return selfs.get((kind, layer), (0.0, 0.0))[0]

    v = unit.virtual
    subtasks = max(v["subtasks"], 1)
    storage_calls = sum(n for label, n in counts.items()
                        if label.startswith(("StorageService.",
                                             "WorkerStorage.")))
    pool_busy = sum(w for (kind, _), (w, _) in selfs.items() if kind == POOL)
    pool_cpu = sum(c for (kind, _), (_, c) in selfs.items() if kind == POOL)
    main_total = sum(w for (kind, _), (w, _) in selfs.items()
                     if kind == MAIN)
    control = sum(self_s(MAIN, layer) for layer in CONTROL_PLANE)
    capacity = v["bands"] * v["makespan_s"]
    out = {f"{layer}.self_s": self_s(MAIN, layer) for layer in LAYERS}
    out.update({
        "actors.messages": counts.get("ActorSystem.deliver", 0),
        "actors.messages_per_subtask":
            counts.get("ActorSystem.deliver", 0) / subtasks,
        "actors.storage_unit_messages":
            counts.get("actors.storage_unit_messages", 0),
        "storage.calls_per_subtask": storage_calls / subtasks,
        "storage.transferred_mib": v["transferred_bytes"] / 2**20,
        "storage.spilled_mib": v["spilled_bytes"] / 2**20,
        "storage.forced_spill_mib": v["forced_spill_bytes"] / 2**20,
        "shuffle.mib": v["shuffle_bytes"] / 2**20,
        "shuffle.combine_dropped_rows": v["combine_dropped_rows"],
        "graph.chunk_nodes": v["chunk_nodes"],
        "graph.chunk_nodes_per_subtask": v["chunk_nodes"] / subtasks,
        "graph.add_node_calls": counts.get("DAG.add_node", 0),
        "graph.add_node_per_chunk_node":
            counts.get("DAG.add_node", 0) / max(v["chunk_nodes"], 1),
        "graph.topo_sorts": counts.get("DAG.topological_order", 0),
        "executor.stages": counts.get("GraphExecutor.execute", 0),
        "executor.subtasks": v["subtasks"],
        "executor.retries": v["retries"],
        "tiling.tile_calls": counts.get("TilingEngine.tile", 0),
        "tiling.yields": v["yields"],
        "tiling.retiles": v["retiles"],
        "scheduling.admission_wait_virtual_s": v["admission_wait_s"],
        "scheduling.degraded_subtasks": v["degraded_subtasks"],
        "scheduling.oom_retries": v["oom_retries"],
        "kernels.pool_s": self_s(POOL, "kernels"),
        "kernels.cpu_s": sum(c for (_, layer), (_, c) in selfs.items()
                             if layer == "kernels"),
        "kernels.calls": counts.get("runner.run_subtask_kernels", 0),
        "kernels.inline_fallbacks": counts.get("kernels.inline_fallbacks", 0),
        "dispatch.wait_s": self_s(MAIN, "dispatch"),
        "dispatch.parallel_stages": counts.get("dispatch.parallel_stages", 0),
        "pool.busy_s": pool_busy,
        "pool.cpu_s": pool_cpu,
        "pool.gil_wait_s": pool_busy - pool_cpu,
        "cluster.band_util": (v["band_busy_s"] / capacity
                              if capacity > 0 else 0.0),
        "control_plane.self_frac": control / main_total,
        "trace.coverage_frac": main_total / unit.wall_s,
    })
    return out


def per_layer(untraced, traced, snaps) -> dict:
    rows = [layer_metrics(u, s) for u, s in zip(traced, snaps)]
    out = {key: statistics.median(row[key] for row in rows)
           for key in rows[0]}
    for unit, row in zip(traced, rows):
        if abs(row["trace.coverage_frac"] - 1.0) > COVERAGE_TOLERANCE:
            raise CheckFailed(
                f"trace coverage: main-thread self times cover "
                f"{row['trace.coverage_frac']:.3f} of the traced wall "
                f"({unit.wall_s:.3f} s)")
    wall_untraced = statistics.median(u.wall_s for u in untraced)
    out["dispatch.cpu_util"] = (sum(u.cpu_s for u in untraced)
                                / sum(u.wall_s for u in untraced))
    out["trace.overhead_frac"] = (
        statistics.median(u.wall_s for u in traced) / wall_untraced - 1.0)
    return out


def emit(spec: list[dict], metrics: dict, units) -> None:
    names = [m["name"] for m in spec]
    if set(names) != set(metrics):
        raise CheckFailed(
            f"metric set differs from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(names))}")
    for m in spec:
        print(f"{m['name']:40s} {metrics[m['name']]:>16.6g} {m['unit']}")
    failed = sum(u.failed for u in units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(u.jobs for u in units),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in spec},
    }))


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import repro  # noqa: F401  (timed: import cost is part of set-up)
    first_import_s = perf_counter() - start

    import spans
    from suite import WORKLOADS, Timer

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tables = workload.inputs(args.seed)
    expected = workload.oracle(tables)

    try:
        if not args.trace:
            setup_s = measure_setup(workload, tables, first_import_s)
            units, peak, _ = run_units(workload, tables, expected, Timer(),
                                       args.seconds)
            log_units("untraced", units)
            check_repeats("virtual", [u.virtual for u in units])
            check_state(workload.name, args.seed, "virtual", units[0].virtual)
            emit(spec["end_to_end"], end_to_end(units, setup_s, peak), units)
            return 0
        untraced, _, _ = run_units(workload, tables, expected, Timer(),
                                   args.seconds / 2)
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            traced, _, snaps = run_units(
                workload, tables, expected, Timer(tracer), args.seconds / 2,
                count=len(untraced), tracer=tracer)
        finally:
            uninstall()
        log_units("untraced", untraced)
        log_units("traced", traced)
        units = untraced + traced
        check_repeats("virtual", [u.virtual for u in units])
        check_repeats("traced count", [s["counts"][spans.MAIN] for s in snaps])
        check_state(workload.name, args.seed, "virtual", units[0].virtual)
        check_state(workload.name, args.seed, "counts",
                    snaps[0]["counts"][spans.MAIN])
        emit(spec["per_layer"], per_layer(untraced, traced, snaps), units)
        return 0
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
