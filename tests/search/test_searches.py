"""Tests for the three registry search mechanisms (§4.1-4.3)."""

import numpy as np
import pytest

from repro.ml.models import ReACCRetriever, UnixCoderCodeSearch
from repro.registry.entities import PERecord, WorkflowRecord
from repro.search import (
    KIND_CODE,
    KIND_DESC,
    CodeHit,
    CodeSearcher,
    SemanticSearcher,
    exact_scan,
    text_search_records,
)
from repro.search.text_search import normalize


def scan(searcher, kind, query, records, k=None):
    """The exact scan of ``records`` for ``query`` (``(record, score)``)."""
    return exact_scan(
        kind, records, searcher.embed_queries([query])[0], k,
        searcher.embed_queries,
    )


def wf(wid, entry, description=""):
    return WorkflowRecord(
        workflow_id=wid,
        workflow_name=entry,
        entry_point=entry,
        description=description,
        workflow_code="eA==",
    )


def pe(pid, name, description="", source=""):
    return PERecord(
        pe_id=pid,
        pe_name=name,
        description=description,
        pe_code="eA==",
        pe_source=source,
    )


class TestTextSearch:
    def test_figure_6_partial_match(self):
        """Querying 'prime' finds the workflow named 'isPrime'."""
        workflows = [
            wf(1, "wordcount", "counts words"),
            wf(2, "isPrime", "Workflow that prints random prime numbers"),
        ]
        hits = text_search_records("prime", workflows)
        assert hits and hits[0].entity_id == 2
        assert "name" in hits[0].matched_on

    def test_description_only_match(self):
        hits = text_search_records(
            "galaxies", [wf(1, "astro", "computes extinction of galaxies")]
        )
        assert hits and hits[0].matched_on == "description"

    def test_no_match_empty(self):
        assert text_search_records("nothing", [wf(1, "abc", "xyz")]) == []

    def test_case_insensitive(self):
        hits = text_search_records("ISPRIME", [wf(1, "isPrime")])
        assert hits

    def test_pe_search(self):
        hits = text_search_records(
            "producer", [pe(1, "NumberProducer", "makes numbers"), pe(2, "Sink")]
        )
        assert [h.entity_id for h in hits] == [1]

    def test_normalize_expands_subtokens(self):
        assert "prime" in normalize("isPrime").split()

    def test_ranking_prefers_name_hits(self):
        hits = text_search_records(
            "filter",
            [pe(1, "Widget", "a filter of things"), pe(2, "FilterColumns", "")],
        )
        assert hits[0].entity_id == 2

    def test_hit_json_shape(self):
        [hit] = text_search_records("prime", [wf(2, "isPrime")])
        body = hit.to_json()
        assert body["kind"] == "workflow" and body["id"] == 2


@pytest.fixture(scope="module")
def semantic():
    return SemanticSearcher(UnixCoderCodeSearch())


class TestSemanticSearch:
    def _pes(self, searcher):
        records = [
            pe(1, "NumberProducer", "Random numbers producer"),
            pe(2, "IsPrime", "A PE that checks if a number is prime"),
            pe(3, "WordCounter", "Counts word occurrences in sentences"),
        ]
        for record in records:
            record.desc_embedding = searcher.embed_description(record.description)
        return records

    def test_figure_7_ranking(self, semantic):
        hits = scan(
            semantic,
            KIND_DESC,
            "A PE that checks if a number is prime",
            self._pes(semantic),
        )
        assert hits[0][0].pe_id == 2
        assert hits[0][1] > hits[-1][1]

    def test_stored_embeddings_used(self, semantic):
        records = self._pes(semantic)
        # poison one stored embedding: the scan must honour it
        records[1].desc_embedding = np.zeros_like(records[1].desc_embedding)
        hits = scan(semantic, KIND_DESC, "checks if a number is prime", records)
        assert hits[0][0].pe_id != 2

    def test_missing_embedding_recomputed(self, semantic):
        records = self._pes(semantic)
        records[1].desc_embedding = None
        hits = scan(semantic, KIND_DESC, "checks if a number is prime", records)
        assert hits[0][0].pe_id == 2

    def test_k_truncates(self, semantic):
        hits = scan(semantic, KIND_DESC, "numbers", self._pes(semantic), k=2)
        assert len(hits) == 2

    def test_empty_registry(self, semantic):
        assert scan(semantic, KIND_DESC, "anything", []) == []

    def test_client_supplied_query_embedding(self, semantic):
        """The scan ranks by the vector it is given, whatever text the
        request carried."""
        records = self._pes(semantic)
        qvec = semantic.embed_query("checks if a number is prime")
        hits = exact_scan(
            KIND_DESC, records, qvec, None, semantic.embed_queries
        )
        assert hits[0][0].pe_id == 2


@pytest.fixture(scope="module")
def code_searcher():
    return CodeSearcher(ReACCRetriever())


class TestCodeSearch:
    def _pes(self, searcher):
        producer_src = (
            "class NumberProducer(ProducerPE):\n"
            "    def _process(self):\n"
            "        result = random.randint(1, 1000)\n"
            "        return result\n"
        )
        prime_src = (
            "class IsPrime(IterativePE):\n"
            "    def _process(self, num):\n"
            "        if all(num % i != 0 for i in range(2, num)):\n"
            "            return num\n"
        )
        records = [
            pe(1, "NumberProducer", "producer", producer_src),
            pe(2, "IsPrime", "prime check", prime_src),
        ]
        for record in records:
            record.code_embedding = searcher.embed_code(record.pe_source)
        return records

    def test_figure_8_ranking(self, code_searcher):
        hits = scan(
            code_searcher,
            KIND_CODE,
            "random.randint(1, 1000)",
            self._pes(code_searcher),
        )
        assert hits[0][0].pe_id == 1

    def test_continuation_present(self, code_searcher):
        query = "random.randint(1, 1000)"
        [(record, score)] = scan(
            code_searcher, KIND_CODE, query, self._pes(code_searcher), k=1
        )
        # non-empty suffix
        assert CodeHit.of(record, score, query).continuation

    def test_empty_registry(self, code_searcher):
        assert scan(code_searcher, KIND_CODE, "x", []) == []

    def test_json_shape(self, code_searcher):
        [(record, score)] = scan(
            code_searcher, KIND_CODE, "num", self._pes(code_searcher), k=1
        )
        body = CodeHit.of(record, score, "num").to_json()
        assert {"peId", "peName", "score", "continuation"} <= set(body)
