from __future__ import annotations

import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sectionid.align import align_headers
from sectionid.corpus import Document
from sectionid.errors import ParseError
from sectionid.llm import parse_llm_response, parsing
from sectionid.prediction import Prediction


def test_json_array_of_objects():
    raw = '[{"section_title": "Allergies"}, {"section_title": "Plan"}]'
    assert parse_llm_response(raw) == ["Allergies", "Plan"]


def test_newline_separated_objects():
    raw = '{"section_title": "HPI"}\n{"section_title": "Impression"}\n'
    assert parse_llm_response(raw) == ["HPI", "Impression"]


def test_newline_objects_with_trailing_commas():
    raw = '[\n{"section_title": "HPI"},\n{"section_title": "Plan"},\n]'
    assert parse_llm_response(raw) == ["HPI", "Plan"]


def test_fenced_block_with_prose():
    raw = 'Here you go:\n```json\n{"section_title": "HPI"}\n```\nHope that helps!'
    assert parse_llm_response(raw) == ["HPI"]


def test_fenced_block_array():
    raw = "```\n[{\"section_title\": \"A\"}, {\"section_title\": \"B\"}]\n```"
    assert parse_llm_response(raw) == ["A", "B"]


def test_plain_string_array_for_close_ended_runs():
    assert parse_llm_response('["Allergies", "Plan", "None"]') == ["Allergies", "Plan", "None"]


def test_cot_fields_ignored():
    raw = (
        '[{"section_title": "Allergies", "CoT": "the first line looks like a header"},'
        ' {"section_title": "Plan", "CoT": "ends the note"}]'
    )
    assert parse_llm_response(raw) == ["Allergies", "Plan"]


def test_array_embedded_in_prose():
    raw = 'The sections are ["Allergies", "Plan"] as requested.'
    assert parse_llm_response(raw) == ["Allergies", "Plan"]


def test_consecutive_duplicates_kept():
    # a note with one Plan grounds the first and lists the repeat as unmatched
    raw = '[{"section_title": "Plan"}, {"section_title": "Plan"}, {"section_title": "HPI"}]'
    headers = parse_llm_response(raw)
    assert headers == ["Plan", "Plan", "HPI"]
    result = align_headers(Document("d", "Plan: rest\nHPI: none\n"), Prediction(headers=headers))
    assert [(m.prediction_index, m.span) for m in result.matches] == [(0, (0, 4)), (2, (11, 14))]
    assert result.unmatched_predictions == [1]


def test_empty_and_whitespace_titles_dropped():
    raw = '[{"section_title": ""}, {"section_title": "  "}, {"section_title": "Plan"}]'
    assert parse_llm_response(raw) == ["Plan"]


def test_empty_array_is_valid_and_empty():
    assert parse_llm_response("[]") == []


def test_objects_without_titles_are_skipped():
    assert parse_llm_response('[{"note": "nothing here"}]') == []


def test_prose_only_raises():
    with pytest.raises(ParseError):
        parse_llm_response("Sure! The sections are lovely.")


def test_never_returns_blank_headers():
    samples = [
        '[{"section_title": "Plan"}]',
        '["", "Plan", "   "]',
        '{"section_title": "Solo"}',
    ]
    for raw in samples:
        for header in parse_llm_response(raw):
            assert header.strip() == header and header


def test_nesting_past_the_recursion_limit_is_not_json():
    # json.loads raises RecursionError here; the parser must not leak it
    for raw in ("[" * 5000 + "]" * 5000, '{"a":' * 5000 + "1" + "}" * 5000):
        try:
            headers = parse_llm_response(raw)
        except ParseError:
            continue
        assert headers == []


_RESPONSE_PIECES = st.sampled_from([
    "[", "]", "{", "}", ",", ":", '"', "\n", " ", "```", "```json\n",
    '"section_title"', '"Plan"', "null", "1", "prose",
])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=200), st.lists(_RESPONSE_PIECES, max_size=60).map("".join)))
def test_arbitrary_text_yields_headers_or_parse_error(raw):
    try:
        headers = parse_llm_response(raw)
    except ParseError:
        return
    assert all(isinstance(h, str) and h and h == h.strip() for h in headers)


def _reference_embedded_array(text: str) -> list[str] | None:
    """Oracle: ``parsing._try_embedded_array`` before its depth bound."""
    opened: list[int] = []
    close_of: dict[int, int] = {}
    for m in re.finditer(r"[\[\]]", text):
        if m.group() == "[":
            opened.append(m.start())
        elif opened:
            close_of[opened.pop()] = m.start()
    for start in sorted(close_of):
        result = parsing._try_json(text[start:close_of[start] + 1])
        if result is not None:
            return result
    return None


def _bracket_depth(text: str) -> int:
    depth = deepest = 0
    for char in text:
        if char == "[":
            depth += 1
            deepest = max(deepest, depth)
        elif char == "]" and depth:
            depth -= 1
    return deepest


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, parsing._MAX_ARRAY_DEPTH),
    st.one_of(st.text(max_size=100), st.lists(_RESPONSE_PIECES, max_size=40).map("".join)),
    st.sampled_from(["", "prose ", '"Plan"', '{"section_title": "HPI"}']),
)
def test_embedded_array_matches_unbounded_walk_within_depth(nesting, inner, tail):
    text = "[" * nesting + inner + "]" * nesting + tail
    assume(_bracket_depth(text) <= parsing._MAX_ARRAY_DEPTH)
    assert parsing._try_embedded_array(text) == _reference_embedded_array(text)


def test_deep_nesting_costs_a_bounded_number_of_parses(monkeypatch):
    calls = []
    real_loads = json.loads

    def counting_loads(text, *args, **kwargs):
        calls.append(len(text))
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(parsing.json, "loads", counting_loads)
    n = 10_000
    assert parse_llm_response("[" * n + "]" * n) == []
    # one parse of the whole response, one of the deepest span within bounds
    assert len(calls) == 2
    assert calls[1] == 2 * parsing._MAX_ARRAY_DEPTH
