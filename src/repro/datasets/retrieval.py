"""Common container for retrieval evaluation datasets."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RetrievalDataset:
    """A (queries, corpus, relevance) triple for ranking evaluation.

    ``relevant[i]`` is the set of corpus indices considered correct for
    query ``i``.  ``exclude[i]`` optionally names one corpus index to be
    masked during ranking — used by the clone-detection dataset to hide
    the program a partial query was cut from (retrieving your own source
    is not clone detection).
    """

    name: str
    queries: list[str]
    corpus: list[str]
    relevant: list[set[int]]
    corpus_keys: list[str] = field(default_factory=list)
    exclude: list[int | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.queries) != len(self.relevant):
            raise ValueError("queries and relevant must align")
        if self.exclude and len(self.exclude) != len(self.queries):
            raise ValueError("exclude must align with queries")
        if not self.exclude:
            self.exclude = [None] * len(self.queries)
        for i, rel in enumerate(self.relevant):
            bad = [j for j in rel if not 0 <= j < len(self.corpus)]
            if bad:
                raise ValueError(f"query {i}: relevant indices out of range: {bad}")

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    @property
    def n_corpus(self) -> int:
        return len(self.corpus)
