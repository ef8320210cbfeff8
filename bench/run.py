"""Run one workload of the pfol benchmark and print its metrics as JSON.

    python3 bench/run.py --workload log_space --seed 1 --seconds 20 --trace 0

Documents of the workload's corpus go one after another through
``pfol.cli.main(argv)`` in this process (one client, closed loop), with the
document on standard input and stdout captured; every output and exit code
is compared byte for byte with its golden.  ``--seed`` sets the order of
the documents in each pass; ``--corpus-seed`` picks the corpus.

With ``--trace 0`` passes over the corpus repeat until ``--seconds`` is
used (at least one pass) and the end-to-end metrics are reported.  With
``--trace 1`` one untraced pass is followed by one pass with every layer
wrapped (see ``layers.py``), and the per-layer metrics are reported; the
spans go to ``.bench_out/`` in the checkout.  The last line of stdout is
the JSON result.  Without ``src/pfol`` in the checkout the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave the checkout as it was; keep imports cold

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import corpus  # noqa: E402
import layers  # noqa: E402

SETUP_REPEATS = 10


def setup(workload: str, corpus_seed: int):
    """Import the engine cold and load the corpus, SETUP_REPEATS times.

    Returns (cli module, corpus entries, median set-up seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = corpus.load_pfol()
        entries = corpus.load_corpus(workload, corpus_seed)
        times.append(time.perf_counter() - t0)
    return cli, entries, statistics.median(times)


class Loop:
    """Closed-loop runner: one document at a time, outputs checked."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None  # set for the traced pass
        self.doc_times: dict[str, list] = {}  # document id -> its times
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, order) -> float:
        gc.collect()
        start = time.perf_counter()
        for entry in order:
            if self.tracer is not None:
                self.tracer.doc = entry["id"]
            t0 = time.perf_counter()
            stdout, code, error = corpus.execute(self.cli.main, entry)
            self.doc_times.setdefault(entry["id"], []).append(time.perf_counter() - t0)
            self.attempted += 1
            if error or code != entry["exit"] or stdout != entry["stdout"]:
                what = "stdout differs" if stdout != entry["stdout"] else ""
                self.failures.append(
                    f"{entry['id']}: exit {code} (golden {entry['exit']}) {what} {error}"
                )
        return time.perf_counter() - start


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="orders the documents of each pass")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=corpus.DEFAULT_SEED,
                        help=f"corpus to run (held out: {corpus.HELDOUT_SEED})")
    args = parser.parse_args(argv)

    try:
        cli, entries, setup_s = setup(args.workload, args.corpus_seed)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(f"{args.workload}:{args.seed}")

    def shuffled():
        order = list(entries)
        rng.shuffle(order)
        return order

    loop = Loop(cli)
    if args.trace:
        order = shuffled()
        untraced = loop.run_pass(order)
        tracer = layers.Tracer()
        wrapped = tracer.install(layers.pfol_modules())
        loop.tracer = tracer
        traced = loop.run_pass(order)
        metrics = layers.per_layer_metrics(tracer)
        metrics["trace.overhead_s"] = metric(traced - untraced, "s")
        out_dir = corpus.ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"{args.workload}: untraced pass {untraced:.3f} s, traced pass "
              f"{traced:.3f} s, {wrapped} callables wrapped, "
              f"{len(tracer.spans)} spans in {spans_path.relative_to(corpus.ROOT)}")
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(loop.run_pass(shuffled()))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.fmean(passes) > args.seconds:
                break
        # On a shared host the speed drifts between states that last tens of
        # seconds.  Means over the passes of a run average over the states,
        # where a median would jump from one state to the other.
        doc_means = [statistics.fmean(t) for t in loop.doc_times.values()]
        metrics = {
            "wall_s": metric(statistics.fmean(passes), "s"),
            "doc_p50_s": metric(statistics.median(doc_means), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mib": metric(peak_rss_mib(), "MiB"),
        }
        print(f"{args.workload}: {len(passes)} passes of {len(entries)} documents "
              f"({', '.join(f'{t:.3f}' for t in passes)} s), "
              f"error_rate {len(loop.failures) / loop.attempted:.4f}")
    for failure in loop.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
