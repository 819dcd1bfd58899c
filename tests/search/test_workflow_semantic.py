"""Tests for workflow-level semantic search (the §8 extension)."""

import pytest

from repro.ml.models import UnixCoderCodeSearch
from repro.registry.entities import WorkflowRecord
from repro.search import (
    KIND_WORKFLOW,
    SemanticSearcher,
    WorkflowSemanticHit,
    exact_scan,
)
from repro.workflows.isprime import build_isprime_graph
from tests.helpers import build_pipeline_graph


@pytest.fixture(scope="module")
def searcher():
    return SemanticSearcher(UnixCoderCodeSearch())


def wf(wid, entry, description, searcher=None):
    record = WorkflowRecord(
        workflow_id=wid,
        workflow_name=entry,
        entry_point=entry,
        description=description,
        workflow_code="eA==",
    )
    if searcher is not None:
        record.desc_embedding = searcher.embed_description(description)
    return record


def scan(searcher, query, workflows):
    """The exact scan of the workflow shard kind (``(record, score)``)."""
    return exact_scan(
        KIND_WORKFLOW,
        workflows,
        searcher.embed_query(query),
        None,
        searcher.embed_queries,
    )


class TestSearcher:
    def test_ranks_by_description_similarity(self, searcher):
        workflows = [
            wf(1, "isPrime", "prints random prime numbers", searcher),
            wf(2, "astro", "computes the internal extinction of galaxies", searcher),
        ]
        hits = scan(searcher, "a workflow about galaxy dust extinction", workflows)
        assert hits[0][0].workflow_id == 2

    def test_missing_embedding_recomputed(self, searcher):
        workflows = [
            wf(1, "isPrime", "prints random prime numbers"),
            wf(2, "astro", "computes the internal extinction of galaxies"),
        ]
        hits = scan(searcher, "prime numbers", workflows)
        assert hits[0][0].workflow_id == 1
        assert all(w.desc_embedding is not None for w in workflows)

    def test_empty_list(self, searcher):
        assert scan(searcher, "anything", []) == []

    def test_json_shape(self, searcher):
        [(record, score)] = scan(
            searcher, "primes", [wf(1, "isPrime", "prints primes", searcher)]
        )
        body = WorkflowSemanticHit.of(record, score).to_json()
        assert {"workflowId", "entryPoint", "description", "score"} <= set(body)


class TestThroughTheStack:
    def test_semantic_workflow_search(self, stack_client):
        client = stack_client
        client.register_Workflow(
            build_isprime_graph(), "isPrime",
            "Workflow that prints random prime numbers",
        )
        client.register_Workflow(
            build_pipeline_graph(), "pipeline",
            "Adds ten to a stream of numbers and collects the results",
        )
        hits = client.search_Registry(
            "a workflow that finds prime numbers", "workflow", "semantic"
        )
        assert hits[0]["entryPoint"] == "isPrime"

    def test_semantic_both_mixes_pes_and_workflows(self, stack_client):
        client = stack_client
        client.register_Workflow(
            build_isprime_graph(), "isPrime",
            "Workflow that prints random prime numbers",
        )
        hits = client.search_Registry(
            "prime numbers", "both", "semantic", k=10
        )
        kinds = {("workflow" if "workflowId" in h else "pe") for h in hits}
        assert kinds == {"pe", "workflow"}
        # scores sorted descending across both kinds
        scores = [h["score"] for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_text_query_type_keeps_paper_behaviour(self, stack_client):
        """query_type='text' on workflows stays Figure-6 text matching."""
        client = stack_client
        client.register_Workflow(
            build_isprime_graph(), "isPrime",
            "Workflow that prints random prime numbers",
        )
        hits = client.search_Registry("prime", "workflow", "text")
        assert hits[0]["name"] == "isPrime"
        assert "matchedOn" in hits[0]
