"""Text-based registry search (paper §4.1).

Matches user text queries against workflow/PE names and descriptions
with support for partial matching: querying ``prime`` finds the
registered ``isPrime`` workflow (Figure 6).  Query and stored text are
normalized in a preprocessing step (lowercasing, splitting identifiers)
exactly as footnote 14 describes.

Searches are served by the DAO's FTS5/BM25 index
(``SqliteDAO.text_topk_pes``/``text_topk_workflows``) on both API
generations; this module builds that index's documents and query terms
and labels each hit's ``matchedOn``.  :func:`text_search_pes` and
:func:`text_search_workflows` are the brute-force reference scorer over
a full listing — no route calls them; tests pin the indexed path's
match sets to theirs, as ``SemanticSearcher.search`` is the reference
for the vector index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.ml.tokenize import split_subtokens, tokenize_text
from repro.registry.entities import PERecord, WorkflowRecord


@dataclass
class TextMatch:
    """One text-search hit."""

    kind: str  # "pe" | "workflow"
    entity_id: int
    name: str
    description: str
    matched_on: str  # "name" | "description" | "name+description"
    score: float

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "id": self.entity_id,
            "name": self.name,
            "description": self.description,
            "matchedOn": self.matched_on,
            "score": round(self.score, 4),
        }


def normalize(text: str) -> str:
    """Lowercased, subtoken-expanded view used for matching.

    ``isPrime`` -> ``isprime is prime`` so both the raw name and its word
    parts are searchable.
    """
    raw = text.lower()
    words = []
    for token in text.replace("-", " ").replace(".", " ").split():
        words.extend(split_subtokens(token))
    return " ".join([raw, *words])


def fts_pe_document(name: str, description: str) -> tuple[str, str]:
    """``(name_norm, desc_doc)`` columns for the PE text side table.

    ``name_norm`` is the :func:`normalize` view of the name — it doubles
    as the whole-query substring arm (LIKE / ``in``) and as the FTS5
    name document; ``desc_doc`` is the normalized description.
    """
    return normalize(name), normalize(description or "")


def fts_workflow_document(
    entry_point: str, workflow_name: str, description: str
) -> tuple[str, str]:
    """``(name_norm, desc_doc)`` columns for the workflow side table.

    The two name arms are joined with a newline: ``\\n`` is a tokenizer
    separator (so BM25 sees both arms' tokens) and cannot occur inside
    a stripped query needle, so the substring arm never matches across
    the arm boundary.
    """
    name_norm = normalize(entry_point) + "\n" + normalize(workflow_name)
    return name_norm, normalize(description or "")


def match_terms(query: str) -> list[str]:
    """Sorted distinct scorer words — the BM25 ``MATCH`` vocabulary.

    Exactly the words :func:`_match_score` tests for per-word hits
    (pure ASCII ``[a-z]+``, no synonyms/stemming), so a term-level FTS5
    match agrees with the reference scorer's word-hit conditions.
    """
    return sorted(
        {w for w in tokenize_text(query, synonyms=False, stemming=False) if w}
    )


def pe_match_label(query: str, record: PERecord) -> str:
    """``matchedOn`` label for an FTS-ranked PE hit.

    Falls back to ``name+description`` if the reference scorer does not
    match a hit the index found.  The parity suite
    (``tests/registry/test_text_candidates.py``, punctuation-embedded
    camelCase such as ``a+bCd`` included, where unicode61 token runs
    could differ from subtoken splits) finds no such hit, so the
    fallback only keeps the label total.
    """
    return (
        _match_score(query, record.pe_name, record.description)[1]
        or "name+description"
    )


def workflow_match_label(query: str, record: WorkflowRecord) -> str:
    """``matchedOn`` label for an FTS-ranked workflow hit (best arm)."""
    best, label = 0.0, ""
    for name in (record.entry_point, record.workflow_name):
        score, matched = _match_score(query, name, record.description)
        if score > best:
            best, label = score, matched
    return label or "name+description"


def _match_score(query: str, name: str, description: str) -> tuple[float, str]:
    """Score a (name, description) pair against the normalized query.

    Name substring hits dominate; description hits contribute per-word.
    Returns (score, matched_on); score 0 means no match.
    """
    query_words = [
        w for w in tokenize_text(query, synonyms=False, stemming=False) if w
    ]
    name_norm = normalize(name)
    desc_norm = normalize(description or "")

    score = 0.0
    matched = []
    if query.lower().strip() and query.lower().strip() in name_norm:
        score += 2.0
        matched.append("name")
    name_hits = sum(1 for w in query_words if w in name_norm.split())
    if name_hits and "name" not in matched:
        score += 1.0 + 0.25 * name_hits
        matched.append("name")
    desc_hits = sum(1 for w in query_words if w in desc_norm.split())
    if desc_hits:
        score += 0.5 * desc_hits
        matched.append("description")
    return score, "+".join(matched) if matched else ""


def text_search_workflows(
    query: str, workflows: Sequence[WorkflowRecord]
) -> list[TextMatch]:
    """Brute-force reference: rank ``workflows`` by partial text match
    on names/descriptions (best of the entry-point and workflow-name
    arms).  No route serves it; tests compare the FTS ranking's match
    set with it."""
    hits: list[TextMatch] = []
    for record in workflows:
        best = 0.0
        matched_on = ""
        for name in (record.entry_point, record.workflow_name):
            score, matched = _match_score(query, name, record.description)
            if score > best:
                best, matched_on = score, matched
        if best > 0:
            hits.append(
                TextMatch(
                    kind="workflow",
                    entity_id=record.workflow_id,
                    name=record.entry_point,
                    description=record.description,
                    matched_on=matched_on,
                    score=best,
                )
            )
    hits.sort(key=lambda h: (-h.score, h.entity_id))
    return hits


def text_search_pes(query: str, pes: Sequence[PERecord]) -> list[TextMatch]:
    """Brute-force reference: rank ``pes`` by partial text match on
    names/descriptions.  No route serves it; tests compare the FTS
    ranking's match set with it."""
    hits: list[TextMatch] = []
    for record in pes:
        score, matched_on = _match_score(query, record.pe_name, record.description)
        if score > 0:
            hits.append(
                TextMatch(
                    kind="pe",
                    entity_id=record.pe_id,
                    name=record.pe_name,
                    description=record.description,
                    matched_on=matched_on,
                    score=score,
                )
            )
    hits.sort(key=lambda h: (-h.score, h.entity_id))
    return hits
