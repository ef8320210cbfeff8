"""The benchmark's default corpus, replayed byte for byte through the CLI.

Every entry of ``bench/corpus/seed1/<workload>.json`` holds the argument
list of one ``pfol`` call, its input document and the stdout bytes and exit
code the engine produced when the corpus was written.  The benchmark's own
``load_pfol`` re-imports ``pfol`` from scratch, which would give later tests
fresh copies of the classes; here the entries run through the ``pfol`` that
the test session already imported.
"""

import importlib.util
from pathlib import Path

import pytest

from pfol import rings
from pfol.cli import main

CORPUS_PY = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


def _load_corpus_module():
    spec = importlib.util.spec_from_file_location("pfol_bench_corpus", CORPUS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _load_corpus_module()


def mismatches(workload: str) -> list:
    """The entries of one pass over the default corpus that differ from
    their goldens."""
    found = []
    for entry in corpus.load_corpus(workload, corpus.DEFAULT_SEED):
        stdout, code, error = corpus.execute(main, entry)
        if error or stdout != entry["stdout"] or code != entry["exit"]:
            found.append((entry["id"], code, entry["exit"], error))
    return found


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_default_corpus_reproduces_goldens(workload):
    assert mismatches(workload) == []


@pytest.mark.parametrize("workload", ["prime_scan", "log_space"])
def test_passes_with_kept_fields_reproduce_goldens(monkeypatch, workload):
    # the benchmark repeats passes in one process: GF keeps a field from its
    # second call on, so the second pass keeps what the first asked for and
    # the third takes every field from the table and builds none
    monkeypatch.setattr(rings, "_FIELDS", {})
    monkeypatch.setattr(rings, "_held", 0)
    assert [mismatches(workload), mismatches(workload)] == [[], []]
    builds = []
    build = rings.GF.__init__
    monkeypatch.setattr(rings.GF, "__init__", lambda F, *args: builds.append(args) or build(F, *args))
    assert mismatches(workload) == [] and builds == []
