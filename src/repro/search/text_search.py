"""Text-based registry search (paper §4.1).

Matches user text queries against workflow/PE names and descriptions
with support for partial matching: querying ``prime`` finds the
registered ``isPrime`` workflow (Figure 6).  Query and stored text are
normalized in a preprocessing step (lowercasing, splitting identifiers)
exactly as footnote 14 describes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from repro.ml.tokenize import split_subtokens, tokenize_text
from repro.registry.entities import PERecord, WorkflowRecord

_ALNUM_RUN = re.compile(r"[a-z0-9]+")


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
    match agrees with the legacy scorer's word-hit conditions.
    """
    return sorted(
        {w for w in tokenize_text(query, synonyms=False, stemming=False) if w}
    )


def pe_match_label(query: str, record: PERecord) -> str:
    """``matchedOn`` label for an FTS-ranked PE hit.

    Falls back to ``name+description`` for the rare hits the indexed
    path finds but the legacy scorer would miss (punctuation-embedded
    camelCase, where unicode61 runs differ from subtoken splits).
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


def candidate_patterns(query: str) -> list[str] | None:
    """Substring patterns whose LIKE union over-approximates the scorer.

    Only the **legacy Table-3 parity adapter** still consumes these
    (``SqliteDAO.pes_owned_by_matching`` feeding the byte-identical
    legacy text route).  The v1 ``queryType=text`` path ranks directly
    in the FTS5 index (``SqliteDAO.text_topk_pes``) and never builds
    patterns.  Kept because the legacy route's contract is the *exact*
    Python scorer output, which wants the exact candidate superset: a
    record can only score above zero in :func:`_match_score` if at
    least one of these patterns occurs as a case-insensitive substring
    of its raw name or description.  That holds because every token
    :func:`normalize` produces (the raw lowercase words and all
    identifier subtokens) is a contiguous lowercase substring of the
    stored text, and every scorer condition — whole-query containment,
    per-word name hits, per-word description hits — requires one of the
    query's words or alphanumeric runs to land inside such a token.
    Patterns are pure ASCII (both tokenizers are), matching SQLite's
    ASCII-only case folding for ``LIKE``.

    Returns ``None`` when the query yields no usable pattern (e.g. pure
    punctuation); the caller must then scan the full owned listing.
    """
    patterns = {
        word
        for word in tokenize_text(query, synonyms=False, stemming=False)
        if word
    }
    patterns.update(_ALNUM_RUN.findall(query.lower()))
    if not patterns:
        return None
    return sorted(patterns)


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
    """Rank workflows by partial text match on names/descriptions."""
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
    """Rank PEs by partial text match on names/descriptions."""
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
