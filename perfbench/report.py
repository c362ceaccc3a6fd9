"""Print every metric of every workload in one table.

Usage, from the root of a repository checkout::

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Runs ``run.py`` once untraced (end-to-end metrics) and once traced
(per-layer metrics) for each workload in ``BENCHMARK.json``, each in a
fresh process, so the oracle and determinism checks run too.  Exits
non-zero if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} failed "
                         f"(exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    results = {name: [run(name, args.seed, seconds, trace)
                      for trace in (0, 1)] for name in names}

    width = max(len(n) for n in names) + 2
    print(f"{'metric':40s} {'unit':14s}"
          + "".join(f"{n:>{width}s}" for n in names))
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        print(f"-- {section}")
        for metric in spec[section]:
            row = f"{metric['name']:40s} {metric['unit']:14s}"
            for name in names:
                value = results[name][trace]["metrics"][metric["name"]]
                row += f"{value['value']:>{width}.6g}"
            print(row)
    print("-- oracle check (untraced run; traced run)")
    for name in names:
        parts = [f"correct={r['correct']} attempted={r['attempted']} "
                 f"failed={r['failed']}" for r in results[name]]
        print(f"{name:{width}s} " + "; ".join(parts))
    return 0 if all(r["correct"] for rs in results.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
