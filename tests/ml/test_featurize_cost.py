"""What featurizing a record costs, counted rather than timed.

The twin of ``tests/registry/test_write_cost.py`` for the model work of
one registration: Python-level function calls (``sys.setprofile``
``call`` events) and blake2b digests over the two embeddings of each of
200 fixed records.  The scalar loop this kernel replaced entered two
frames per *feature* — 476 calls a record on this corpus (about 230
features each) — so the ceilings below leave no room for a per-feature
frame to come back, while NumPy's own Python-level wrappers, which
differ between releases, fit in the slack.
"""

import sys

from repro.ml.bundle import ModelBundle
from repro.search import CodeSearcher, SemanticSearcher
from tests.helpers import e2e_style_functions

RECORDS = [
    (source, doc or "A PE that processes streaming data.")
    for source, doc in e2e_style_functions(200)
]

#: measured 162.9: 69.8 on the hit path + 2 frames per distinct feature
#: (46.5 new ones a record here: the miss and its IDF weight)
COLD_CALLS_PER_RECORD = 185
#: measured 69.8: tokenizers, n-gram builders, the kernel, normalization
WARM_CALLS_PER_RECORD = 85


def embed_all(semantic, code) -> tuple[float, int]:
    """``(Python calls per record, blake2b digests)`` of one pass."""
    calls = digests = 0

    def profile(_frame, event, arg):
        nonlocal calls, digests
        if event == "call":
            calls += 1
        elif (
            event == "c_call"
            and getattr(arg, "__qualname__", "") == "blake2b.digest"
        ):
            digests += 1

    sys.setprofile(profile)
    try:
        for source, description in RECORDS:
            semantic.embed_description(description)
            code.embed_code(source)
    finally:
        sys.setprofile(None)
    return calls / len(RECORDS), digests


def test_calls_per_record_and_one_digest_per_distinct_feature():
    bundle = ModelBundle.default(fit=False)
    semantic = SemanticSearcher(bundle.code_search)
    code = CodeSearcher(bundle.completion)
    distinct = len(
        {f for source, _d in RECORDS
         for f, _w in bundle.completion.features(source, "code")}
    ) + len(
        {f for _s, description in RECORDS
         for f, _w in bundle.code_search.features(description, "text")}
    )

    cold_calls, cold_digests = embed_all(semantic, code)
    assert cold_digests == distinct
    assert cold_calls <= COLD_CALLS_PER_RECORD

    warm_calls, warm_digests = embed_all(semantic, code)
    assert warm_digests == 0
    assert warm_calls <= WARM_CALLS_PER_RECORD
