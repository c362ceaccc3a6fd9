"""CI smoke for actor-plane chaos: message faults must be invisible.

Runs TPC-H q5, TPC-H q1 and a groupby shuffle twice per execution mode
(serial, thread): once fault-free and once under 2% message
drop/delay/duplicate chaos plus one scripted service-actor kill and one
scripted runner death.  The chaos run must produce byte-identical
results and a bit-identical ``SimReport`` — at-least-once delivery over
idempotent endpoints, supervised restarts and lineage recovery are the
machinery under test, end-to-end on a fresh interpreter.

Run: ``PYTHONPATH=src python tools/chaos_smoke.py``
"""

from __future__ import annotations

import sys

import numpy as np

from repro import frame as pf
from repro.config import Config
from repro.core import Session
from repro.dataframe import from_frame
from repro.services import LIFECYCLE_UID, runner_uid
from repro.workloads.tpch import ALL_QUERIES, generate_tables
from repro.workloads.tpch.queries import materialize

CHAOS_SEED = 20240806
CHAOS_RATES = {"drop_rate": 0.02, "delay_rate": 0.02,
               "duplicate_rate": 0.02}

MODES = [
    ("serial", {"parallel_execution": False}),
    ("thread", {"parallel_execution": True}),
]


def make_session(mode_overrides: dict, chunk_limit: int,
                 chaos: bool) -> Session:
    cfg = Config()
    cfg.chunk_store_limit = chunk_limit
    cfg.parallel_min_subtasks = 2
    cfg.parallel_min_cores = 1
    for name, value in mode_overrides.items():
        setattr(cfg, name, value)
    if chaos:
        cfg.message_faults.seed = CHAOS_SEED
        for name, value in CHAOS_RATES.items():
            setattr(cfg.message_faults, name, value)
    return Session(cfg)


def tpch_query(name: str, sf: float):
    def workload(session: Session):
        tables = generate_tables(sf=sf, seed=7)
        handles = {
            n: from_frame(frame, session) for n, frame in tables.items()
        }
        return materialize(ALL_QUERIES[name](handles))
    return workload


def groupby_shuffle(session: Session):
    rng = np.random.default_rng(11)
    local = pf.DataFrame({
        "k": rng.integers(0, 200, 4_000),
        "v": rng.normal(size=4_000),
    })
    return from_frame(local, session).groupby("k").agg({"v": "sum"}).fetch()


WORKLOADS = [
    ("tpch_q5", tpch_query("q5", 0.25), 64 * 1024),
    ("tpch_q1", tpch_query("q1", 0.25), 64 * 1024),
    ("groupby_shuffle", groupby_shuffle, 4_000),
]


def report_tuple(session: Session):
    report = session.executor.report
    return (
        report.makespan,
        report.total_compute_seconds,
        report.total_transfer_bytes,
        report.total_shuffle_bytes,
        report.n_subtasks,
        report.n_graph_nodes,
        report.retries,
        report.recomputed_subtasks,
        report.recovery_bytes,
        report.backoff_time,
        tuple(sorted(report.peak_memory.items())),
        tuple(sorted(report.band_busy.items())),
    )


def same_value(a, b) -> bool:
    if hasattr(a, "equals"):
        return bool(a.equals(b))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def run(name: str, workload, chunk_limit: int) -> int:
    failures = 0
    fired_by_mode = {}
    for mode, overrides in MODES:
        with make_session(overrides, chunk_limit, chaos=False) as clean:
            expected = workload(clean)
            baseline = report_tuple(clean)

        with make_session(overrides, chunk_limit, chaos=True) as session:
            band = session.cluster.bands[0].name
            session.faults.script_actor_kill(0, 0, LIFECYCLE_UID)
            session.faults.script_actor_kill(0, 1, runner_uid(band))
            result = workload(session)
            chaotic = report_tuple(session)
            chaos = session.cluster.actor_system.chaos
            fired = chaos.total_fired if chaos is not None else 0
            plane = session.cluster.supervision
            kills = plane.supervisor.total_kills
            restarts = plane.supervisor.total_restarts

        if not same_value(result, expected):
            print(f"FAIL {name}/{mode}: chaos result diverged")
            failures += 1
        elif chaotic != baseline:
            print(f"FAIL {name}/{mode}: SimReport diverged under chaos")
            failures += 1
        elif kills != 2 or restarts < 2:
            print(f"FAIL {name}/{mode}: expected 2 kills + restarts, "
                  f"got {kills}/{restarts}")
            failures += 1
        else:
            fired_by_mode[mode] = fired
            print(f"OK {name}/{mode}: bit-identical under chaos "
                  f"({fired} message faults, {restarts} restarts)")
    if len(set(fired_by_mode.values())) > 1:
        print(f"FAIL {name}: fault counts diverged across modes "
              f"({fired_by_mode})")
        failures += 1
    return failures


def main() -> int:
    failures = 0
    for name, workload, chunk_limit in WORKLOADS:
        failures += run(name, workload, chunk_limit)
    if failures:
        print(f"{failures} chaos smoke failure(s)")
        return 1
    print("chaos smoke passed: message faults and actor deaths invisible")
    return 0


if __name__ == "__main__":
    sys.exit(main())
