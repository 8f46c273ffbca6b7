"""Differential tests: the bit-parallel edit distance against the classic DP."""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_synthetic_doc, reference_prefix_distances
from sectionid.align import align_headers
from sectionid.prediction import Prediction
from sectionid.textdist import edit_ratio, levenshtein, max_edits, prefix_distances


# a small alphabet makes matches, and so every delta pattern, frequent
small_text = st.text(alphabet="abcAé Σς\n", max_size=40)
long_text = st.text(alphabet="abcdxy", min_size=65, max_size=150)


@given(st.text(), st.text())
def test_prefix_distances_equal_dp_on_arbitrary_text(needle, haystack):
    assert prefix_distances(needle, haystack) == reference_prefix_distances(needle, haystack)


@given(small_text, small_text)
def test_prefix_distances_equal_dp_on_small_alphabet(needle, haystack):
    assert prefix_distances(needle, haystack) == reference_prefix_distances(needle, haystack)


@settings(max_examples=50)
@given(long_text, st.one_of(small_text, long_text))
def test_prefix_distances_equal_dp_past_64_characters(needle, haystack):
    assert prefix_distances(needle, haystack) == reference_prefix_distances(needle, haystack)
    assert prefix_distances(haystack, needle) == reference_prefix_distances(haystack, needle)


@given(st.one_of(small_text, st.text()), st.one_of(small_text, st.text()))
def test_levenshtein_equals_dp_and_is_symmetric(a, b):
    expected = reference_prefix_distances(a, b)[-1]
    assert levenshtein(a, b) == expected == levenshtein(b, a)
    longest = max(len(a), len(b))
    assert edit_ratio(a, b) == (expected / longest if longest else 0.0)


@given(
    st.integers(1, 300),
    st.one_of(st.sampled_from((0.0, 0.15, 0.29, 0.58, 0.7)), st.floats(0.0, 1.0, exclude_max=True)),
)
def test_max_edits_is_the_largest_distance_the_ratio_test_accepts(length, ratio):
    edits = max_edits(length, ratio)
    assert edits / length <= ratio < (edits + 1) / length


def test_max_edits_counts_past_float_rounding():
    # 0.29 * 100 is 28.999999999999996, yet 29 / 100 <= 0.29
    assert max_edits(100, 0.29) == 29
    assert max_edits(50, 0.58) == 29
    # 0.8999999999999999 * 10 is 9.0, yet 9 / 10 > 0.8999999999999999
    assert max_edits(10, 0.8999999999999999) == 8
    assert max_edits(6, 0.8333333333333333) == 4


def test_empty_strings():
    assert prefix_distances("", "") == [0]
    assert prefix_distances("", "abc") == [0, 1, 2, 3]
    assert prefix_distances("abc", "") == [3]
    assert levenshtein("", "abc") == levenshtein("abc", "") == 3


PARAPHRASES = [
    "Patient Background",
    "What Happens Next",
    "Reactions To Drugs",
    "Overall Summary",
    "Medicines Taken",
]


def _typo(rng: random.Random, header: str) -> str:
    pos = rng.randrange(len(header))
    edit = rng.choice(("substitute", "insert", "delete"))
    if edit == "delete" and len(header) > 1:
        return header[:pos] + header[pos + 1:]
    char = rng.choice("abcdefghijklmnopqrstuvwxyz")
    if edit == "insert":
        return header[:pos] + char + header[pos:]
    return header[:pos] + char + header[pos + 1:]


def _model_headers(rng: random.Random, gold: list[str]) -> list[str]:
    """Gold headers as a model returns them: verbatim, lowercased, one typo, paraphrased."""
    out = []
    for header in gold:
        kind = rng.choice(("verbatim", "lower", "typo", "paraphrase"))
        if kind == "lower":
            header = header.lower()
        elif kind == "typo":
            header = _typo(rng, header)
        elif kind == "paraphrase":
            header = rng.choice(PARAPHRASES)
        out.append(header)
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.1, 0.2, 0.35]),
)
def test_alignment_unchanged_against_dp_oracle(seed, max_edit_ratio):
    rng = random.Random(seed)
    doc = make_synthetic_doc(rng, "d", min_sections=1, max_sections=10)
    pred = Prediction(headers=_model_headers(rng, doc.header_texts()))

    def outcome():
        result = align_headers(doc.document, pred, max_edit_ratio=max_edit_ratio)
        return (
            [(m.prediction_index, m.span, m.match_kind) for m in result.matches],
            result.unmatched_predictions,
        )

    fast = outcome()
    with mock.patch("sectionid.align.prefix_distances", reference_prefix_distances):
        assert outcome() == fast
