"""The scatter-add kernel is bit-for-bit the scalar loop it replaced.

``reference_embed`` below is that loop, frozen: one blake2b, one
float64 product and one float32 scalar read-modify-write per feature,
then ``l2_normalize`` on the dense row.  Every stored embedding was
written by it, so "equal" here means equal bytes.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ml import vectorize
from repro.ml.models import MODEL_REGISTRY, get_model
from repro.ml.vectorize import l2_normalize
from tests.helpers import e2e_style_functions

#: generated fragments reach ``ast.parse`` with stray backslashes
pytestmark = pytest.mark.filterwarnings("ignore:invalid escape sequence")

FIT_CORPUS = [source for source, _doc in e2e_style_functions(40, seed=5)]
KINDS = ("code", "text")


def reference_hash(feature: str, salt: str) -> tuple[int, float]:
    digest = hashlib.blake2b(
        feature.encode("utf-8", "replace"),
        digest_size=8,
        person=salt.encode("utf-8")[:16],
    ).digest()
    value = int.from_bytes(digest, "big")
    return value >> 1, 1.0 if value & 1 else -1.0


def reference_embed(model, text: str, kind: str) -> np.ndarray:
    vec = np.zeros(model.dim, dtype=np.float32)
    use_idf = model._idf.is_fitted
    space = model.effective_dim or model.dim
    for feature, weight in model.features(text, kind):
        if use_idf:
            weight *= model._idf.weight(feature)
        index, sign = reference_hash(feature, model.name)
        vec[index % space] += sign * weight
    out = np.zeros((1, model.dim), dtype=np.float32)
    out[0] = vec
    return l2_normalize(out)[0]


def build(name: str, fitted: bool):
    model = get_model(name)
    return model.fit(FIT_CORPUS, kind="code") if fitted else model


def assert_bitwise(model, texts) -> None:
    for kind in KINDS:
        expected = [reference_embed(model, t, kind).tobytes() for t in texts]
        many = model.embed_many(texts, kind)
        batch = model.embed(texts, kind)
        for i, text in enumerate(texts):
            assert model.embed_one(text, kind).tobytes() == expected[i]
            assert many[i].tobytes() == expected[i]
            assert batch[i].tobytes() == expected[i]


# -- inputs -------------------------------------------------------------------
_NAMES = st.sampled_from(
    ["x", "total", "readRaDec", "is_prime", "_tmp2", "self", "HTTPServer",
     "Ünï", "λ", "数据", "items"]
)
_WORDS = st.sampled_from(
    ["find", "the", "maximum", "values", "sorting", "checks", "whether",
     "prime", "naïve", "résumé", "数据", "Stream", "numbers", "a", "PE"]
)
_PROSE = st.lists(_WORDS | st.text(max_size=8), max_size=14).map(" ".join)
_LINES = st.one_of(
    st.builds("def {}({}, limit={}):".format, _NAMES, _NAMES, st.integers(0, 999)),
    st.builds("    {} = {} + {}".format, _NAMES, _NAMES, st.integers(0, 99)),
    st.builds("    for {} in {}:".format, _NAMES, _NAMES),
    st.builds("        if {} > {!r}:".format, _NAMES, st.floats(allow_nan=False)),
    st.builds("    return {}({!r}, \"{}\")".format, _NAMES, st.text(max_size=6), _WORDS),
    st.builds('    """{}"""'.format, _PROSE),
    st.builds("class {}({}):".format, _NAMES, _NAMES),
    st.builds("    # {}".format, _PROSE),
    st.text(max_size=24),
)
_CODE = st.lists(_LINES, max_size=10).map("\n".join)
#: code cut anywhere: completion queries are fragments that do not parse
_FRAGMENTS = st.builds(lambda code, cut: code[: cut % (len(code) + 1)],
                       _CODE, st.integers(0, 10_000))
TEXTS = st.one_of(_CODE, _FRAGMENTS, _PROSE, st.text(max_size=40))

#: > 4 000 code tokens, parseable (the lenient parser's prefix search is
#: quadratic in lines on text that never parses)
LONG = "\n".join(f"value_{i} = value_{i - 1} * {i} + offset" for i in range(1, 700))


@pytest.mark.parametrize("fitted", [False, True], ids=["unfitted", "fitted"])
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
class TestKernelIsTheScalarLoop:
    @settings(max_examples=10, deadline=None)
    @given(texts=st.lists(TEXTS, min_size=1, max_size=3))
    @example(texts=[""])
    @example(texts=["def f(:\n    return", "    return x + 1\n  y = 2"])
    @example(texts=["λ = 'ü' + \"数据\"\nreturn λ", "naïve résumé 数据"])
    @example(texts=[LONG])
    def test_every_entry_point(self, name, fitted, texts):
        assert_bitwise(build(name, fitted), texts)


#: sha256 over ``repr(model.features(text, kind))`` of PINNED_TEXTS, both
#: kinds, taken from the list-building featurizers before they became
#: runs: the reference above reads ``features()``, so this is what shows
#: that the runs still spell the same features in the same order
FEATURE_DIGESTS = {
    "bge-large-en": "a29e1c3409f4fcda71fe520d28bcf966",
    "codebert": "b5972784959c533431e334a80ff18f17",
    "graphcodebert": "170cae9e20c35f46fbecbea52af763a3",
    "gte-large": "0c514b2379e06b135354503b706d4c85",
    "reacc-py-retriever": "ce8c21b60df5c9da7600f03473ea961e",
    "unixcoder-base": "8ddaa858af6e7b7141d90673d7d0dc4f",
    "unixcoder-clone-detection": "605359b4a58f780b6223d8e29928a6a2",
    "unixcoder-code-search": "e0cb33e6038627710592907153dd7e80",
}
PINNED_TEXTS = [
    text for pair in e2e_style_functions(60, seed=2) for text in pair
] + [
    "def f(:\n    return",
    "λ = 'ü' + \"数据\"\nreturn λ",
    "find the Maximum values",
]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="structural features name the interpreter's ast node types",
)
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_runs_spell_the_features_the_lists_did(name):
    model = get_model(name)
    digest = hashlib.sha256()
    for kind in KINDS:
        for text in PINNED_TEXTS:
            digest.update(repr(model.features(text, kind)).encode())
    assert digest.hexdigest()[:32] == FEATURE_DIGESTS[name]


class TestSlotTable:
    CORPUS = [text for pair in e2e_style_functions(12, seed=3) for text in pair]

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_results_do_not_change_across_evictions(self, name, monkeypatch):
        monkeypatch.setattr(vectorize, "SLOT_TABLE_MAX", 8)
        model = build(name, fitted=True)
        # twice: the second pass meets a table the first one churned
        assert_bitwise(model, self.CORPUS + self.CORPUS)
        assert 0 < len(model._vectorizer._table) <= 8

    def test_fit_starts_a_new_table(self):
        model = get_model("reacc-py-retriever")
        before = model.embed_one(FIT_CORPUS[0], "code")
        model.fit(FIT_CORPUS, kind="code")
        after = model.embed_one(FIT_CORPUS[0], "code")
        assert before.tobytes() != after.tobytes()
        assert after.tobytes() == reference_embed(
            model, FIT_CORPUS[0], "code"
        ).tobytes()

    def test_four_threads_sharing_one_small_table(self, monkeypatch):
        """Lookups take no lock: racing misses and clears may recompute
        an entry, never hand out a wrong one."""
        monkeypatch.setattr(vectorize, "SLOT_TABLE_MAX", 32)
        model = build("reacc-py-retriever", fitted=True)
        texts = [source for source, _doc in e2e_style_functions(24, seed=9)]
        expected = [reference_embed(model, t, "code").tobytes() for t in texts]
        wrong: list[int] = []

        def hammer(offset: int) -> None:
            for round_ in range(6):
                for i in range(len(texts)):
                    j = (i * (offset + 1) + round_) % len(texts)
                    if model.embed_one(texts[j], "code").tobytes() != expected[j]:
                        wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
