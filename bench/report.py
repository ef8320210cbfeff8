"""Layer report: per-layer metrics of every workload next to the end-to-end
metric each should move.

    python3 bench/report.py [--corpus-seed 2]

Runs every workload once untraced (end-to-end metrics) and once traced
(per-layer metrics), each in its own ``run.py`` process, one after another,
and prints one row per metric.  A change to one layer can cite the row of
the metric it moves and the workload named in the last column.
"""

from __future__ import annotations

import argparse
import json
import sys

sys.dont_write_bytecode = True

import corpus  # noqa: E402
import layers  # noqa: E402
from steady import run_once  # noqa: E402


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def main(argv=None) -> int:
    spec = json.loads((corpus.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus-seed", type=int, default=corpus.DEFAULT_SEED)
    args = parser.parse_args(argv)

    results = {}
    for workload in corpus.WORKLOADS:
        seconds = spec["run_seconds"]
        plain = run_once(workload, 1, seconds, 0, args.corpus_seed)
        traced = run_once(workload, 1, seconds, 1, args.corpus_seed)
        results[workload] = (plain, traced)

    width = max(len(w) for w in corpus.WORKLOADS) + 2
    header = f"{'metric':30s} {'unit':6s}" + "".join(
        f"{w:>{width}s}" for w in corpus.WORKLOADS
    )
    print(header + "  should move (workloads)")
    rows = [("error_rate", "ratio", None, lambda r: r["failed"] / r["attempted"])]
    rows += [(m["name"], m["unit"], 0, None) for m in spec["end_to_end"]]
    rows += [(m["name"], m["unit"], 1, None) for m in spec["per_layer"]]
    for name, unit, which, derive in rows:
        cells = []
        for workload in corpus.WORKLOADS:
            plain, traced = results[workload]
            if derive is not None:
                value = max(derive(plain), derive(traced))
            else:
                value = (plain, traced)[which]["metrics"][name]["value"]
            cells.append(f"{_fmt(value):>{width}s}")
        target = ""
        if which == 1:
            e2e, workloads = layers.moves(name)
            target = f"  {e2e} ({workloads})"
        print(f"{name:30s} {unit:6s}" + "".join(cells) + target)
    return 0


if __name__ == "__main__":
    sys.exit(main())
