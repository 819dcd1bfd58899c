"""Ablation A1 — stored embeddings vs re-embedding the corpus per query.

The paper's §3.1.1 design claim: "Storing these embeddings allows us to
perform efficient semantic code searches ... without the need to
re-calculate them every time a user initiates a search.  This re-use of
embeddings significantly enhances the responsiveness of our system."
This benchmark quantifies exactly that claim on a Figure-7-sized
registry and asserts the speedup is real.
"""

from __future__ import annotations

import pytest

from repro.datasets.codebank import PROBLEMS
from repro.ml.models import UnixCoderCodeSearch
from repro.registry.entities import PERecord
from repro.search import KIND_DESC, SemanticSearcher, exact_scan

QUERY = "a PE that checks if a number is prime"


def search(searcher, records):
    """The exact scan's top 5 for QUERY: the query is embedded per
    search, and a record with no stored vector is embedded too."""
    return exact_scan(
        KIND_DESC,
        records,
        searcher.embed_query(QUERY),
        5,
        searcher.embed_queries,
    )


@pytest.fixture(scope="module")
def registry_pes():
    """A registry population with descriptions from the code bank."""
    searcher = SemanticSearcher(UnixCoderCodeSearch())
    records = []
    for i, problem in enumerate(PROBLEMS, 1):
        record = PERecord(
            pe_id=i,
            pe_name=problem.key,
            description=problem.docstring,
            pe_code="eA==",
        )
        record.desc_embedding = searcher.embed_description(record.description)
        records.append(record)
    return searcher, records


def test_search_with_stored_embeddings(benchmark, registry_pes):
    benchmark.group = "embedding-reuse"
    searcher, records = registry_pes
    hits = benchmark(lambda: search(searcher, records))
    assert hits[0][0].pe_name == "is_prime"


def test_search_recomputing_embeddings(benchmark, registry_pes):
    benchmark.group = "embedding-reuse"
    searcher, records = registry_pes

    def recompute_path():
        # fresh embedding-less records every iteration: the scan
        # caches fallback vectors back onto records, so reusing one
        # stripped list would only re-embed on the first query
        stripped = [
            PERecord(
                pe_id=r.pe_id,
                pe_name=r.pe_name,
                description=r.description,
                pe_code=r.pe_code,
            )
            for r in records
        ]
        return search(searcher, stripped)

    hits = benchmark(recompute_path)
    assert hits[0][0].pe_name == "is_prime"


def test_reuse_speedup_report(benchmark, registry_pes, record):
    import time

    searcher, records = registry_pes
    stripped = [
        PERecord(
            pe_id=r.pe_id, pe_name=r.pe_name,
            description=r.description, pe_code=r.pe_code,
        )
        for r in records
    ]

    def measure():
        t0 = time.perf_counter()
        for _ in range(20):
            search(searcher, records)
        stored = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(20):
            # re-strip every query: the scan caches fallback vectors
            # back onto records, and this arm measures the paper's
            # counterfactual of re-embedding the corpus per query
            for r in stripped:
                r.desc_embedding = None
            search(searcher, stripped)
        recomputed = time.perf_counter() - t0
        return stored, recomputed

    stored, recomputed = benchmark.pedantic(measure, rounds=1, iterations=1)
    record(
        "ablation_embedding_reuse",
        "Semantic search over a %d-PE registry (20 queries):\n"
        "  stored embeddings (paper design): %.4fs\n"
        "  re-embedding per query:           %.4fs\n"
        "  speedup: %.1fx" % (len(records), stored, recomputed, recomputed / stored),
    )
    assert stored < recomputed
