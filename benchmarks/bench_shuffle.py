"""Shuffle data-plane benchmark: vectorized partition kernels end to end.

Every shuffle-map operator partitions its chunk with the vectorized
kernels (``repro.dataframe.partition``): a handful of NumPy sweeps per
chunk. This bench records the real elapsed seconds of shuffle-heavy
merge and groupby pipelines, and checks on each pipeline's input that
the vectorized kernels route every row exactly like the scalar
reference kernels (called directly, ``vectorized=False``).

It also quantifies mapper-side combine: a low-cardinality groupby runs
with the combiner off and on, reporting the shuffle-byte reduction and
the rows dropped before the wire.

Writes ``benchmarks/results/BENCH_shuffle.json``. Run standalone::

    PYTHONPATH=src python benchmarks/bench_shuffle.py [--smoke]

``--smoke`` shrinks the inputs for CI.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from harness import format_table, RESULTS_DIR, save_bench_json  # noqa: E402

import numpy as np  # noqa: E402

from repro.config import default_config  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.dataframe import from_frame  # noqa: E402
from repro.dataframe.partition import (  # noqa: E402
    assign_hash_partitions,
    assign_range_partitions,
    split_by_assignment,
)
from repro import frame as pf  # noqa: E402

RESULT_PATH = os.path.join(RESULTS_DIR, "BENCH_shuffle.json")

#: partition count of the direct kernel parity check.
PARITY_PARTS = 16


def _shuffle_config(*, combine: bool = True, shuffle_reduce: bool = False):
    cfg = default_config()
    cfg.cluster.n_workers = 4
    cfg.cluster.memory_limit = 512 * 1024 * 1024
    cfg.mapper_side_combine = combine
    if shuffle_reduce:
        # groupby picks shuffle-reduce during dynamic tiling once the
        # sampled size clears the threshold; make any size clear it.
        cfg.tree_reduce_threshold = 1
    else:
        # merges without dynamic tiling always take the static hash
        # shuffle plan (no broadcast fast path).
        cfg.dynamic_tiling = False
    return cfg


def _kernels_match(frame, key: str, hash_mode: bool) -> bool:
    """Vectorized vs scalar kernels on ``frame``: same rows, same order."""
    keys = frame[key].values
    if hash_mode:
        fast = assign_hash_partitions(keys, PARITY_PARTS)
        slow = assign_hash_partitions(keys, PARITY_PARTS, vectorized=False)
    else:
        ranks = np.linspace(0, 1, PARITY_PARTS + 1)[1:-1]
        boundaries = [float(b) for b in np.quantile(keys, ranks)]
        fast = assign_range_partitions(keys, boundaries)
        slow = assign_range_partitions(keys, boundaries, vectorized=False)
    if not np.array_equal(fast, slow):
        return False
    fast_parts = split_by_assignment(frame, fast, PARITY_PARTS)
    slow_parts = split_by_assignment(frame, slow, PARITY_PARTS,
                                     vectorized=False)
    return all(a.equals(b) for a, b in zip(fast_parts, slow_parts))


def _merge_tables(n_rows: int, str_keys: bool, seed: int = 29):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_rows // 4, n_rows)
    dim_keys = np.arange(n_rows // 4)
    if str_keys:
        keys = np.array([f"cust-{k:07d}" for k in keys], dtype=object)
        dim_keys = np.array(
            [f"cust-{k:07d}" for k in dim_keys], dtype=object
        )
    fact = pf.DataFrame({
        "k": keys,
        "v": rng.normal(size=n_rows),
        "w": rng.normal(size=n_rows),
    })
    dim = pf.DataFrame({
        "k": dim_keys,
        "label": rng.integers(0, 100, len(dim_keys)),
    })
    return fact, dim


def _run_merge(n_rows: int, str_keys: bool):
    fact, dim = _merge_tables(n_rows, str_keys)
    cfg = _shuffle_config()
    cfg.chunk_store_limit = max(fact.nbytes // 16, 8 * 1024)
    with Session(cfg) as session:
        left = from_frame(fact, session)
        right = from_frame(dim, session)
        joined = left.merge(right, on="k", how="inner")
        start = time.perf_counter()
        joined.fetch()
        seconds = time.perf_counter() - start
        shuffle_bytes = session.last_report.shuffle_bytes
    return seconds, shuffle_bytes, _kernels_match(fact, "k", hash_mode=True)


def _run_groupby(n_rows: int):
    rng = np.random.default_rng(31)
    local = pf.DataFrame({
        "k": rng.integers(0, n_rows // 2, n_rows),  # high cardinality
        "v": rng.normal(size=n_rows),
        "w": rng.normal(size=n_rows),
    })
    cfg = _shuffle_config(shuffle_reduce=True)
    cfg.chunk_store_limit = max(local.nbytes // 16, 8 * 1024)
    with Session(cfg) as session:
        df = from_frame(local, session)
        agg = df.groupby("k").agg({"v": "mean", "w": "sum"})
        start = time.perf_counter()
        agg.fetch()
        seconds = time.perf_counter() - start
        shuffle_bytes = session.last_report.shuffle_bytes
    return seconds, shuffle_bytes, _kernels_match(local, "k", hash_mode=False)


def _run_combine_experiment(n_rows: int) -> dict:
    """Low-cardinality groupby with the mapper-side combiner off vs on."""
    rng = np.random.default_rng(37)
    local = pf.DataFrame({
        "k": rng.integers(0, 16, n_rows),
        "v": rng.normal(size=n_rows),
        "w": rng.normal(size=n_rows),
    })
    results = {}
    for combine in (False, True):
        cfg = _shuffle_config(combine=combine, shuffle_reduce=True)
        cfg.chunk_store_limit = max(local.nbytes // 16, 8 * 1024)
        with Session(cfg) as session:
            df = from_frame(local, session)
            value = df.groupby("k").agg({"v": "sum", "w": "max"}).fetch()
            report = session.last_report
            results[combine] = (
                value, report.shuffle_bytes, report.combine_dropped_rows
            )
    plain, bytes_off, _ = results[False]
    combined, bytes_on, dropped = results[True]
    if not combined.equals(plain):
        raise AssertionError("mapper-side combine changed the groupby result")
    if dropped <= 0 or bytes_on >= bytes_off:
        raise AssertionError(
            f"combine ineffective: {bytes_off} -> {bytes_on} bytes, "
            f"{dropped} rows dropped"
        )
    return {
        "workload": "groupby_low_cardinality",
        "shuffle_bytes_off": int(bytes_off),
        "shuffle_bytes_on": int(bytes_on),
        "reduction": round(bytes_off / bytes_on, 2),
        "combine_dropped_rows": int(dropped),
    }


def build_workloads(smoke: bool):
    n = 20_000 if smoke else 400_000
    return [
        ("merge_int_keys", lambda: _run_merge(n, False)),
        ("merge_str_keys", lambda: _run_merge(n // 2, True)),
        ("groupby_range_shuffle", lambda: _run_groupby(n)),
    ]


def run_shuffle_bench(smoke: bool) -> tuple[list[dict], dict]:
    rows: list[dict] = []
    repeats = 1 if smoke else 2  # best-of-n: damp timer noise at full scale
    for name, runner in build_workloads(smoke):
        seconds, shuffle_bytes, parity = runner()
        for _ in range(repeats - 1):
            seconds = min(seconds, runner()[0])
        if not parity:
            raise AssertionError(
                f"{name}: vectorized kernels diverged from the scalar ones")
        rows.append({"workload": name, "seconds": round(seconds, 4),
                     "shuffle_bytes": int(shuffle_bytes)})
    combine = _run_combine_experiment(5_000 if smoke else 200_000)
    return rows, combine


def save_and_render(rows: list[dict], combine: dict, smoke: bool) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    payload = {
        "benchmark": "shuffle_vectorized",
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "rows": rows,
        "mapper_side_combine": combine,
    }
    save_bench_json("BENCH_shuffle.json", payload)

    table_rows = [
        [row["workload"], f"{row['seconds']:.3f}s", f"{row['shuffle_bytes']}"]
        for row in rows
    ]
    table_rows.append([
        "combine (bytes)",
        f"{combine['shuffle_bytes_off']} -> {combine['shuffle_bytes_on']}",
        f"{combine['reduction']:.2f}x less",
    ])
    return format_table(
        "Shuffle data plane: vectorized partition kernels",
        ["workload", "seconds", "shuffle bytes"], table_rows,
        note=("row routing verified identical to the scalar reference "
              "kernels; combine row drops "
              f"{combine['combine_dropped_rows']} pre-shuffle rows"),
    )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    rows, combine = run_shuffle_bench(smoke)
    print(save_and_render(rows, combine, smoke))
    return 0


def test_shuffle_smoke(benchmark=None):
    """Pytest entry: kernel parity + combine reduction at smoke scale."""
    rows, combine = run_shuffle_bench(smoke=True)
    save_and_render(rows, combine, smoke=True)
    assert combine["reduction"] > 1.0
    assert combine["combine_dropped_rows"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
