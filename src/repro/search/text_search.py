"""Text-based registry search (paper §4.1).

Matches user text queries against workflow/PE names and descriptions
with support for partial matching: querying ``prime`` finds the
registered ``isPrime`` workflow (Figure 6).  Query and stored text are
normalized in a preprocessing step (lowercasing, splitting identifiers)
exactly as footnote 14 describes.

Searches are served by the DAO's FTS5/BM25 index
(``SqliteDAO.text_topk_pes``/``text_topk_workflows``) on both API
generations; this module builds that index's documents and query terms
and labels each hit's ``matchedOn``, for either record kind from the
names ``RECORD_KINDS`` lists.  :func:`text_search_records` is the brute-force
reference scorer over a full listing — no route calls it; tests pin
the indexed path's match sets to its, as
:func:`~repro.search.serving.exact_scan` is the reference for the
vector index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.ml.tokenize import split_subtokens, tokenize_text
from repro.registry.entities import RECORD_KINDS, PERecord, WorkflowRecord


@dataclass
class TextMatch:
    """One text-search hit."""

    kind: str  # "pe" | "workflow"
    entity_id: int
    name: str
    description: str
    matched_on: str  # "name" | "description" | "name+description"
    score: float

    @classmethod
    def of(
        cls, record: PERecord | WorkflowRecord, matched_on: str, score: float
    ) -> "TextMatch":
        spec = RECORD_KINDS[type(record)]
        return cls(
            kind=spec.kind,
            entity_id=getattr(record, spec.id_field),
            name=getattr(record, spec.name_field),
            description=record.description,
            matched_on=matched_on,
            score=score,
        )

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


def fts_document(*texts: str) -> tuple[str, str]:
    """``(name_norm, desc_doc)``: a record's documents in the text
    index, from its name arms (``RECORD_KINDS``' ``text_names``: a PE's
    name; a workflow's entry point, then its name) and its description.

    ``name_norm`` joins the :func:`normalize` view of each arm with a
    newline — it doubles as the whole-query substring arm (LIKE / ``in``)
    and as the FTS5 name document.  ``\n`` is a tokenizer separator (so
    BM25 sees every arm's tokens) and cannot occur inside a stripped
    query needle, so the substring arm never matches across an arm
    boundary.  ``desc_doc`` is the normalized description.
    """
    *names, description = texts
    return "\n".join(map(normalize, names)), normalize(description or "")


def match_terms(query: str) -> list[str]:
    """Sorted distinct scorer words — the BM25 ``MATCH`` vocabulary.

    Exactly the words :func:`_match_score` tests for per-word hits
    (pure ASCII ``[a-z]+``, no synonyms/stemming), so a term-level FTS5
    match agrees with the reference scorer's word-hit conditions.
    """
    return sorted(
        {w for w in tokenize_text(query, synonyms=False, stemming=False) if w}
    )


def match_label(query: str, record: PERecord | WorkflowRecord) -> str:
    """``matchedOn`` label for an FTS-ranked hit (its best name arm).

    Falls back to ``name+description`` if the reference scorer does not
    match a hit the index found.  The parity suite
    (``tests/registry/test_text_candidates.py``, punctuation-embedded
    camelCase such as ``a+bCd`` included, where unicode61 token runs
    could differ from subtoken splits) finds no such hit, so the
    fallback only keeps the label total.
    """
    return _best_match(query, record)[1] or "name+description"


def _best_match(
    query: str, record: PERecord | WorkflowRecord
) -> tuple[float, str]:
    """The reference score and label of ``record``'s best name arm."""
    best, label = 0.0, ""
    for name in RECORD_KINDS[type(record)].text_names:
        score, matched = _match_score(
            query, getattr(record, name), record.description
        )
        if score > best:
            best, label = score, matched
    return best, label


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


def text_search_records(
    query: str, records: Sequence[PERecord | WorkflowRecord]
) -> list[TextMatch]:
    """Brute-force reference: rank ``records`` by partial text match on
    their names and descriptions (a workflow's best name arm).  No
    route serves it; tests compare the FTS ranking's match set with
    it."""
    hits: list[TextMatch] = []
    for record in records:
        score, matched_on = _best_match(query, record)
        if score > 0:
            hits.append(TextMatch.of(record, matched_on, score))
    hits.sort(key=lambda h: (-h.score, h.entity_id))
    return hits
