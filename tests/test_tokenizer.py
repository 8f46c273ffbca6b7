from __future__ import annotations

import random
import re
import sys

import pytest
from hypothesis import example, given, strategies as st

from sectionid.errors import LengthMismatch, MalformedTags, OverlapError
from sectionid.tokenizer import (
    B, I, O, Token, _ASCII_CLASSES, _TOKEN_RE, _TokenClasses, iob_to_spans, is_well_formed,
    spans_to_iob, tokenize, tokens_before,
)


def test_tokenize_word_colon_word():
    tokens = tokenize("Allergies: none")
    assert [(t.text, t.start, t.end) for t in tokens] == [
        ("Allergies", 0, 9), (":", 9, 10), ("none", 11, 15),
    ]


def test_token_fields_immutability_and_repr():
    tok = Token("Plan", 0, 4)
    assert tuple(tok) == ("Plan", 0, 4)
    assert (tok.text, tok.start, tok.end) == ("Plan", 0, 4)
    assert repr(tok) == "Token(text='Plan', start=0, end=4)"
    with pytest.raises(AttributeError):
        tok.start = 1  # type: ignore[misc]
    assert hash(tok) == hash(Token("Plan", 0, 4))
    assert tokenize("Plan")[0] == tok


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_mixed_punctuation():
    assert [t.text for t in tokenize("HPI:61M w/")] == ["HPI", ":", "61M", "w", "/"]


def test_tokenize_slices_reconstruct_text():
    text = "Plan:  rest, fluids\n\tfollow-up in 2d"
    for tok in tokenize(text):
        assert text[tok.start:tok.end] == tok.text


def test_tokenize_unicode_and_underscore():
    tokens = tokenize("naïve_café ✓")
    assert [t.text for t in tokens] == ["naïve", "_", "café", "✓"]


def test_spans_to_iob_basic():
    tokens = tokenize("Allergies: none")
    assert spans_to_iob(tokens, [(0, 10)]) == [B, I, O]


def test_spans_to_iob_no_spans_is_all_outside():
    tokens = tokenize("just some words here")
    assert spans_to_iob(tokens, []) == [O, O, O, O]


def test_spans_to_iob_adjacent_spans_each_get_b():
    # "Alpha Beta Gam Delta": spans cover "Alpha Bet"-ish boundaries cut
    # through tokens; overlap semantics still tags them
    text = "abc defg hi"
    tokens = tokenize(text)  # abc(0,3) defg(4,8) hi(9,11)
    tags = spans_to_iob(tokens, [(0, 3), (4, 8)])
    assert tags == [B, B, O]


def test_spans_to_iob_span_cutting_token_claims_it():
    tokens = tokenize("abcdef ghi")
    assert spans_to_iob(tokens, [(2, 4)]) == [B, O]


def test_spans_to_iob_rejects_overlap():
    tokens = tokenize("one two three")
    with pytest.raises(OverlapError):
        spans_to_iob(tokens, [(0, 10), (5, 12)])
    with pytest.raises(OverlapError):
        spans_to_iob(tokens, [(5, 12), (0, 4)])


def test_iob_to_spans_basic_and_inverse():
    tokens = tokenize("Allergies: none")
    assert iob_to_spans(tokens, [B, I, O]) == [(0, 10)]
    assert iob_to_spans(tokens, [O, O, O]) == []
    assert iob_to_spans(tokens, [B, O, B]) == [(0, 9), (11, 15)]


def test_iob_to_spans_errors():
    tokens = tokenize("a b c")
    with pytest.raises(LengthMismatch):
        iob_to_spans(tokens, [B, O])
    with pytest.raises(MalformedTags):
        iob_to_spans(tokens, [I, O, O])
    with pytest.raises(MalformedTags):
        iob_to_spans(tokens, [B, O, I])
    with pytest.raises(MalformedTags, match="only B, I and O, and no I first or after O"):
        iob_to_spans(tokens, [B, O, "X"])


def _random_token_aligned_spans(rng: random.Random, tokens: list[Token]) -> list[tuple[int, int]]:
    spans = []
    i = 0
    while i < len(tokens):
        if rng.random() < 0.35:
            length = rng.randint(1, min(3, len(tokens) - i))
            spans.append((tokens[i].start, tokens[i + length - 1].end))
            i += length
        else:
            i += 1
    return spans


def test_roundtrip_random_token_aligned_spans():
    rng = random.Random(7)
    words = ["alpha", "Beta", "x9", "plan", "HPI", "##", "level", "two"]
    for _ in range(300):
        text = " ".join(rng.choices(words, k=rng.randint(0, 30)))
        tokens = tokenize(text)
        spans = _random_token_aligned_spans(rng, tokens)
        tags = spans_to_iob(tokens, spans)
        assert is_well_formed(tags)
        assert iob_to_spans(tokens, tags) == spans


@given(st.text(max_size=200))
def test_tokenize_total_and_deterministic(text):
    first = tokenize(text)
    second = tokenize(text)
    assert first == second
    prev_end = 0
    for tok in first:
        assert tok.start < tok.end
        assert tok.start >= prev_end
        assert text[tok.start:tok.end] == tok.text
        assert not any(c.isspace() for c in tok.text)
        prev_end = tok.end


# `İ` lowercases to two characters, `_` is a word character that is no
# alphanumeric, and a text may hold no token at all
@given(
    st.text(alphabet=st.sampled_from("aZ9 \n\t_.:-İıßΣς") | st.characters(), max_size=60),
    st.integers(min_value=0, max_value=60),
    st.none() | st.integers(min_value=0, max_value=60),
)
@example("", 0, None)
@example(" \n\t ", 1, 3)
@example("İİ_x", 1, None)
@example("a_b__c", 2, 5)
@example("Σς: İstanbul", 5, 2)
def test_tokens_before_equals_tokenize_of_the_slice(text, start, end):
    start = min(start, len(text))
    end = None if end is None else min(end, len(text))
    offsets = [start] if end is None else [start, end]
    # a token cut at an offset counts once, for its part before the offset
    assert tokens_before(text, offsets) == {
        p: len(tokenize(text[:p])) for p in (0, *offsets, len(text))
    }


def test_token_classes_are_the_token_pattern_classes():
    # every code point, surrogates too: alphanumeric where the pattern's
    # [^\W_] matches, space where \s matches, else a token of its own
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    expected = re.sub(r"\s", " ", re.sub(r"[^\w\s]|_", "p", re.sub(r"[^\W_]", "a", chars)))
    assert _TOKEN_RE.pattern == r"[^\W_]+|[^\w\s]|_"
    assert chars.translate(_TokenClasses()) == expected
    # the prefilled table each text starts from
    assert chars[:128].translate(_ASCII_CLASSES) == expected[:128]


@given(st.data())
def test_spans_to_iob_always_well_formed(data):
    text = data.draw(st.text(alphabet="ab c.X\n", min_size=0, max_size=60))
    tokens = tokenize(text)
    bounds = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=max(len(text), 1)),
                max_size=6, unique=True,
            )
        )
    )
    spans = [
        (s, e) for s, e in zip(bounds[::2], bounds[1::2]) if s < e
    ]
    assert is_well_formed(spans_to_iob(tokens, spans))
