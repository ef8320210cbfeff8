"""Steadiness mode: repeat workloads and report the spread of every metric.

    python3 bench/steady.py [--runs 10] [--workload W ...] [--corpus-seed 2]

Each repetition is a fresh ``run.py --trace 0`` process with its own
``--seed``, run one after another.  For every end-to-end metric the report
gives the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median next to the metric's bound in
``BENCHMARK.json``; a spread below a third of the bound is marked ok.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import corpus  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int = 0,
             corpus_seed: int = corpus.DEFAULT_SEED) -> dict:
    """One run.py process; returns its parsed result line."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--corpus-seed", str(corpus_seed)]
    proc = subprocess.run(cmd, cwd=corpus.ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((corpus.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=corpus.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--corpus-seed", type=int, default=corpus.DEFAULT_SEED)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workload or corpus.WORKLOADS:
        values: dict[str, list] = {name: [] for name in bounds}
        errors = 0
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, spec["run_seconds"],
                              corpus_seed=args.corpus_seed)
            errors += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {args.runs} runs, {errors} failed documents")
        print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bounds[name] / 3
            steady &= ok or name == "setup_s"
            print(f"{name:14s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {bounds[name]:6.2f} {'ok' if ok else 'WIDE'}")
        print("values: " + json.dumps(values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
