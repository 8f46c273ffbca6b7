from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_synthetic_corpus, reference_keyword_segment
from sectionid.baselines import (
    HeaderLexicon,
    keyword_segment,
    load_lexicon,
    load_ruleset,
    regex_segment,
    rule_segment,
)
from sectionid.corpus import Document
from sectionid.errors import InvalidPattern

LEX = HeaderLexicon(entries={"Allergies", "Family History", "Social History", "Plan"})


def test_keyword_basic_match():
    pred = keyword_segment(Document("d", "Allergies: none\n"), LEX)
    assert pred.headers == ["Allergies"]
    assert pred.spans == [(0, 9)]


def test_keyword_no_entries_present():
    pred = keyword_segment(Document("d", "nothing to see here\n"), LEX)
    assert pred.headers == []


def test_keyword_line_initial_only():
    pred = keyword_segment(Document("d", "Family History Social History\n"), LEX)
    assert pred.headers == ["Family History"]


def test_keyword_longest_match_wins():
    lex = HeaderLexicon(entries={"Family", "Family History"})
    pred = keyword_segment(Document("d", "Family History: none\n"), lex)
    assert pred.headers == ["Family History"]


def test_keyword_word_boundary():
    pred = keyword_segment(Document("d", "Planning ahead\nPlan: rest\n"), LEX)
    assert pred.headers == ["Plan"]
    assert pred.spans == [(15, 19)]


def test_keyword_case_insensitive_by_default():
    pred = keyword_segment(Document("d", "ALLERGIES: none\n"), LEX)
    assert pred.headers == ["ALLERGIES"]


def test_keyword_match_stays_inside_its_line():
    # 'İ' lowercases to 'i' + U+0307, two characters, so the lowercased line
    # starts with the entry although the line is one character long.
    pred = keyword_segment(Document("d", "İ\nİ"), HeaderLexicon(entries={"i\u0307"}))
    assert (pred.headers, pred.spans) == ([], [])
    pred = keyword_segment(
        Document("d", "İİ\nA: x"), HeaderLexicon(entries={"i\u0307i\u0307", "A"})
    )
    assert (pred.headers, pred.spans) == (["A"], [(3, 4)])


def test_keyword_match_is_lowercased_alone():
    # Lowercased with the rest of the line, the 'Σ' is medial ('σ'); on its
    # own it is final ('ς'), as in the lowercased entry.
    pred = keyword_segment(Document("d", "ΟΣ:K"), HeaderLexicon(entries={"ΟΣ"}))
    assert (pred.headers, pred.spans) == (["ΟΣ"], [(0, 2)])


def test_lexicon_rejects_empty_and_blank():
    with pytest.raises(ValueError):
        HeaderLexicon(entries=set())
    with pytest.raises(ValueError):
        HeaderLexicon(entries={"ok", "  "})


def test_load_lexicon_comments(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# comment\nAllergies\nPlan  # inline\n\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert lex.entries == {"Allergies", "Plan"}


def test_regex_titlecase_colon():
    pred = regex_segment(Document("d", "Chief Complaint:\n"))
    assert pred.headers == ["Chief Complaint"]
    assert pred.spans == [(0, 15)]


def test_regex_allcaps_line():
    pred = regex_segment(Document("d", "PHYSICAL EXAM\n"))
    assert pred.headers == ["PHYSICAL EXAM"]


def test_regex_rejects_prose_colon():
    pred = regex_segment(Document("d", "He said: come back tomorrow\n"))
    assert pred.headers == []


def test_regex_minor_words_allowed():
    pred = regex_segment(Document("d", "Medication List at End of Visit:\n"))
    assert pred.headers == ["Medication List at End of Visit"]


def test_regex_token_budget():
    long_line = " ".join(f"Word{i}" for i in range(12)) + ":"
    assert regex_segment(Document("d", long_line + "\n")).headers == []
    eight = " ".join(f"Word{i}" for i in range(8))
    assert regex_segment(Document("d", eight + ":\n")).headers == [eight]


def test_ruleset_file_and_invalid_pattern(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{"name": "num", "pattern": r"\d+\. ([A-Z][a-z]+)"}]))
    config = load_ruleset(path)
    pred = regex_segment(Document("d", "1. Plan\n"), config)
    assert pred.headers == ["Plan"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"name": "broken", "pattern": "("}]))
    with pytest.raises(InvalidPattern):
        load_ruleset(bad)


def test_rule_segment_dedups_keyword_wins():
    # "Allergies:" matches both the lexicon and the titlecase rule
    pred = rule_segment(Document("d", "Allergies: none\n"), LEX)
    assert pred.headers == ["Allergies"]
    assert pred.spans == [(0, 9)]


def test_rule_segment_union_in_document_order():
    doc = Document("d", "PLAN\nsome text\nAllergies: none\n")
    pred = rule_segment(doc, LEX)
    assert pred.headers == ["PLAN", "Allergies"]
    assert pred.spans is not None and pred.spans == sorted(pred.spans)


def test_rule_segment_empty_doc():
    pred = rule_segment(Document("d", ""), LEX)
    assert pred.headers == []


def test_segmenters_invariants_on_synthetic_corpus():
    rng = random.Random(31)
    corpus = make_synthetic_corpus(rng, 25, max_sections=5)
    lex = HeaderLexicon(entries=set().union(*[set(d.header_texts()) for d in corpus if d.sections]) or {"Plan"})
    for doc in corpus:
        for pred in (
            keyword_segment(doc.document, lex),
            regex_segment(doc.document),
            rule_segment(doc.document, lex),
        ):
            assert pred.spans is not None
            prev_end = 0
            for (start, end), header in zip(pred.spans, pred.headers):
                assert 0 <= start < end <= len(doc.text)
                assert start >= prev_end
                assert doc.text[start:end] == header
                prev_end = end
        kw = set(keyword_segment(doc.document, lex).spans or [])
        combined = set(rule_segment(doc.document, lex).spans or [])
        assert kw <= combined
        for span in regex_segment(doc.document).spans or []:
            assert span in combined or any(
                span[0] < c_end and c_start < span[1] for c_start, c_end in combined
            )


def test_segmenters_deterministic():
    doc = Document("d", "Chief Complaint: pain\nPLAN\nAllergies: none\n")
    assert regex_segment(doc) == regex_segment(doc)
    assert keyword_segment(doc, LEX) == keyword_segment(doc, LEX)
    assert rule_segment(doc, LEX) == rule_segment(doc, LEX)


# Pieces of lexicon entries. Some are prefixes of others, some start with
# punctuation, and some fold in awkward ways: 'İ' lowercases to two
# characters, 'ẞ' to 'ß', the Kelvin sign to 'k', and final and medial sigma
# both uppercase to 'Σ'.
_ATOMS = [
    "Plan", "Pl", "plan", "PLAN", "Plan of Care", "A", "Assessment", "Hx", "(Hx)",
    "- Meds", "#1", "1.", "İd", "i\u0307d", "ß", "SS", "ẞ", "\u212a", "K", "k",
    "Σ", "σ", "ς", "ΟΣ", "Straße",
]
# Phrases of one to three pieces, some led by a space or punctuation.
_ENTRIES = st.builds(
    lambda lead, atoms: lead + " ".join(atoms),
    st.sampled_from(["", "", " ", "-", "("]),
    st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=3),
)
_CHARS = "aZ9 :-.(\tİiıßẞ\u212akKΣσς\u0307\u2028"
_CASES = [str, str.upper, str.lower, str.title, str.swapcase, str.casefold]


@st.composite
def _lexicon_and_text(draw):
    entries = draw(st.lists(_ENTRIES, min_size=1, max_size=8, unique=True))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        indent = draw(st.sampled_from(["", " ", "\t ", "   "]))
        if draw(st.booleans()):
            head = draw(st.sampled_from(_CASES))(draw(st.sampled_from(entries)))
        else:
            head = draw(st.text(_CHARS, max_size=6))
        lines.append(indent + head + draw(st.text(_CHARS, max_size=4)))
    return entries, "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_lexicon_and_text())
def test_keyword_segment_equals_linear_scan(lexicon_and_text):
    entries, text = lexicon_and_text
    lexicon = HeaderLexicon(entries=set(entries))
    doc = Document("d", text)
    assert keyword_segment(doc, lexicon) == reference_keyword_segment(doc, lexicon)
