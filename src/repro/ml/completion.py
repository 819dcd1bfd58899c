"""Suffix alignment for retrieval-based code completion (§2.5, §4.3).

Completion is served by registry code search (``queryType: "code"``,
:mod:`repro.search.code_search`): the ReACC-style retriever ranks the
registered PE codes against a partial snippet, and each hit carries its
*continuation* — the suffix of the retrieved code after the region that
matches the query, computed here.  This mirrors ReACC's
retrieve-then-reuse design: the retriever finds lexically/semantically
similar code, and the reused fragment completes the user's input.
"""

from __future__ import annotations

import re

_TOKEN_SPANS = re.compile(
    r"'[^'\n]*'|\"[^\"\n]*\"|\d+(?:\.\d+)?|[A-Za-z_][A-Za-z0-9_]*"
    r"|==|!=|<=|>=|->|\*\*|//|[-+*/%<>=!&|^~@.,:;()\[\]{}]"
)


def _token_spans(source: str) -> list[tuple[str, int, int]]:
    return [
        (match.group(), match.start(), match.end())
        for match in _TOKEN_SPANS.finditer(source)
    ]


#: how many of the query's trailing tokens are aligned
_WINDOW = 8


def align_continuation(query: str, candidate: str) -> str:
    """Suffix of ``candidate`` after its best alignment with ``query``.

    Slides the query's trailing ``_WINDOW`` tokens over the candidate's
    token stream and picks the position with maximal token agreement; the
    continuation starts after the aligned region.  Falls back to the
    whole candidate when nothing aligns (the query may be functionality
    description-ish rather than a literal prefix).
    """
    query_tokens = [t for t, _s, _e in _token_spans(query)][-_WINDOW:]
    if not query_tokens:
        return candidate
    cand_spans = _token_spans(candidate)
    if not cand_spans:
        return candidate
    cand_tokens = [t for t, _s, _e in cand_spans]
    best_score = 0
    best_end = 0  # character offset into candidate
    w = len(query_tokens)
    for start in range(len(cand_tokens)):
        stop = min(start + w, len(cand_tokens))
        agree = sum(
            1
            for i, token in enumerate(cand_tokens[start:stop])
            if token == query_tokens[i]
        )
        if agree > best_score:
            best_score = agree
            best_end = cand_spans[stop - 1][2]
    if best_score == 0:
        return candidate
    return candidate[best_end:].lstrip("\n")
