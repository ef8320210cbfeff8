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

from pfol.cli import main

CORPUS_PY = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"


def _load_corpus_module():
    spec = importlib.util.spec_from_file_location("pfol_bench_corpus", CORPUS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _load_corpus_module()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_default_corpus_reproduces_goldens(workload):
    mismatches = []
    for entry in corpus.load_corpus(workload, corpus.DEFAULT_SEED):
        stdout, code, error = corpus.execute(main, entry)
        if error or stdout != entry["stdout"] or code != entry["exit"]:
            mismatches.append((entry["id"], code, entry["exit"], error))
    assert mismatches == []
