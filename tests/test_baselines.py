from __future__ import annotations

import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    make_synthetic_corpus,
    reference_keyword_segment,
    reference_regex_segment,
    reference_rule_segment,
)
from sectionid import baselines
from sectionid.align import line_starts
from sectionid.baselines import (
    _WORD_RE,
    DEFAULT_RULES,
    _line_words,
    _regex_rule,
    HeaderLexicon,
    keyword_segment,
    load_lexicon,
    load_ruleset,
    regex_segment,
    rule_segment,
)
from sectionid.corpus import Document
from sectionid.errors import InvalidPattern
from sectionid.tokenizer import tokenize

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


def test_lexicon_indexes_each_distinct_match_once():
    # 'İd' lowercases to 'i̇d', three characters, so it and 'i̇d' differ in length
    lexicon = HeaderLexicon(entries={"Plan", "PLAN", "plan", "İd", "i\u0307d"})
    assert lexicon.by_word == {
        "plan": [("PLAN", "plan")],
        "i": [("i\u0307d", "i\u0307d"), ("İd", "i\u0307d")],
    }
    doc = Document("d", "plan: x\nİd 1\ni\u0307d 2\nİD\nPlanning")
    assert keyword_segment(doc, lexicon) == reference_keyword_segment(doc, lexicon)
    assert keyword_segment(doc, lexicon).headers == ["plan", "İd", "i\u0307d", "İD"]


def test_lexicon_entries_without_a_word_follow_every_bucket():
    lexicon = HeaderLexicon(entries={"Plan", "- Plan", "--", "#", "ΟΣ"})
    assert lexicon.by_word == {
        "plan": [("- Plan", "- plan"), ("Plan", "plan"), ("--", "--"), ("#", "#")],
        "": [("--", "--"), ("#", "#")],
        "οσ": [("ΟΣ", "ος"), ("--", "--"), ("#", "#")],
    }
    doc = Document("d", "-- Plan\n- Plan: x\n# 1\nΟΣ:K\nplanning")
    assert keyword_segment(doc, lexicon) == reference_keyword_segment(doc, lexicon)
    assert keyword_segment(doc, lexicon).headers == ["--", "- Plan", "#", "ΟΣ"]


# A note of body lines and a few lines that a matcher could take, each
# marked with the matchers that could: K the lexicon (its first word starts
# an entry of LEX), T the Title-Case rule (a ':'), C the ALL-CAPS rule (the
# line equals its uppercase form).
_WORK_NOTE = [
    ("Allergies: none", "KT"),
    ("the patient reports mild pain", ""),
    ("PHYSICAL EXAM", "C"),
    ("he said: come back", "T"),
    ("plan to follow up in two weeks", "K"),
    ("  family history is noncontributory", "K"),
    ("continue current tablets daily", ""),
    ("", "C"),
    ("- 12 mg at night\r", ""),
    ("1. 2.", "C"),
    ("stable since the last visit", ""),
]


def _checked_lines(monkeypatch, segment, *args):
    """The lines ``segment`` checks, as ``_lines_to_check`` hands them over."""
    checked = []
    real = baselines._lines_to_check

    def spy(*spy_args):
        rows = list(real(*spy_args))
        checked.extend(line for _, line, _ in rows)
        return rows

    monkeypatch.setattr(baselines, "_lines_to_check", spy)
    segment(*args)
    monkeypatch.undo()
    return checked


def test_segmenters_check_only_the_lines_that_could_match(monkeypatch):
    lines = [line for line, _ in _WORK_NOTE]
    doc = Document("d", "\n".join(lines))

    def marked(marks):
        return [line for line, mark in _WORK_NOTE if set(mark) & set(marks)]

    assert _checked_lines(monkeypatch, keyword_segment, doc, LEX) == marked("K")
    assert _checked_lines(monkeypatch, regex_segment, doc) == marked("TC")
    assert _checked_lines(monkeypatch, regex_segment, doc, DEFAULT_RULES[:1]) == marked("T")
    assert _checked_lines(monkeypatch, regex_segment, doc, DEFAULT_RULES[1:]) == marked("C")
    assert _checked_lines(monkeypatch, regex_segment, doc, ()) == []
    assert _checked_lines(monkeypatch, rule_segment, doc, LEX) == marked("KTC")
    rows = list(baselines._lines_to_check(doc.text, LEX, DEFAULT_RULES))
    starts = line_starts(doc.text.split("\n"))
    words = _line_words(doc.text)
    assert rows == [(starts[i], lines[i], words[i]) for i, (_, m) in enumerate(_WORK_NOTE) if m]

    # One custom rule or one lexicon entry with no letter or digit makes
    # every line get checked; a note holding an 'İ' is filtered like any
    # other, as its lines keep their first words.
    custom = _regex_rule("numbered", r"\d+\. (\w+)")
    assert _checked_lines(monkeypatch, regex_segment, doc, [custom]) == lines
    assert _checked_lines(monkeypatch, rule_segment, doc, LEX, [*DEFAULT_RULES, custom]) == lines
    unkeyed = HeaderLexicon(entries={"Plan", "--"})
    assert _checked_lines(monkeypatch, keyword_segment, doc, unkeyed) == lines
    dotted = Document("d", doc.text + "\nİd 2")
    assert _checked_lines(monkeypatch, keyword_segment, dotted, LEX) == marked("K")
    assert _checked_lines(monkeypatch, regex_segment, dotted) == marked("TC")
    assert list(baselines._lines_to_check(doc.text, unkeyed, ())) == list(
        zip(starts, lines, words)
    )


def test_default_rules_skip_the_lines_the_lexicon_matched(monkeypatch):
    # Both default rules match where a lexicon match starts, so after one
    # they cannot add a span; a custom rule may match further on, so it
    # runs on every line.
    lines = [line for line, _ in _WORK_NOTE]
    doc = Document("d", "\n".join(lines))
    tried: dict[str, list[str]] = {}

    def spying(name, rule):
        def spy(line):
            tried.setdefault(name, []).append(line)
            return rule(line)
        return spy

    titlecase, allcaps = (spying(rule.__name__, rule) for rule in DEFAULT_RULES)
    monkeypatch.setattr(baselines, "_match_titlecase_colon", titlecase)
    monkeypatch.setattr(baselines, "_match_allcaps_line", allcaps)
    assert rule_segment(doc, LEX, (titlecase, allcaps)) == reference_rule_segment(doc, LEX)
    # lines 0, 4 and 5 hold the lexicon's matches, so only the other checked
    # lines are tried
    assert keyword_segment(doc, LEX).headers == ["Allergies", "plan", "family history"]
    unmatched = ["PHYSICAL EXAM", "he said: come back", "", "1. 2."]
    assert tried == {"_match_titlecase_colon": unmatched, "_match_allcaps_line": unmatched}

    tried.clear()
    numbered = _regex_rule("numbered", r"\d+\. (\w+)")
    custom = spying("numbered", numbered)
    assert rule_segment(doc, LEX, [custom, titlecase, allcaps]) == reference_rule_segment(
        doc, LEX, [numbered, *DEFAULT_RULES]
    )
    assert tried["numbered"] == lines


_EVERY_CHARACTER = list(map(chr, range(sys.maxunicode + 1)))


def test_no_whitespace_character_has_a_case_mapping():
    # _lines_to_check compares a whole line with its uppercase form where
    # _match_allcaps_line compares the stripped line with its own
    assert [c for c in _EVERY_CHARACTER if c.isspace() and c.upper() != c] == []


def test_only_dotted_capital_i_lowercases_to_more_than_one_character():
    # a note without 'İ' lowercases to a string of its own length
    assert [c for c in _EVERY_CHARACTER if len(c.lower()) != 1] == ["\u0130"]


def test_lowercasing_makes_no_character_alphanumeric():
    # a lexicon match ends before a character that is not alphanumeric, so
    # the first word of the lowercased line ends inside the match
    assert [
        c for c in _EVERY_CHARACTER if not c.isalnum() and any(x.isalnum() for x in c.lower())
    ] == []


@given(st.one_of(st.text(), st.text("aZ9_ :-\n\r\t\x1c\x85\u2028\u3000İiΣσςß\u0307²")))
def test_line_words_are_each_lines_first_word(text):
    expected = []
    for line in text.split("\n"):
        match = _WORD_RE.search(line.lower().replace("ς", "σ"))
        expected.append(match.group() if match else "")
    assert _line_words(text) == expected


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
    # a header is at most 8 words long
    eight = "HISTORY OF THE PRESENT ILLNESS AND REVIEW OF"
    nine = "HISTORY OF THE PRESENT ILLNESS AND REVIEW OF SYSTEMS"
    pred = regex_segment(Document("d", f"{eight}\n{nine}\n"))
    assert pred.headers == [eight]


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
# punctuation, some have no letter or digit, and some fold in awkward ways:
# 'İ' lowercases to two characters, 'ẞ' to 'ß', the Kelvin sign to 'k', and
# final and medial sigma both uppercase to 'Σ'.
_ATOMS = [
    "Plan", "Pl", "plan", "PLAN", "Plan of Care", "A", "Assessment", "Hx", "(Hx)",
    "- Meds", "#1", "1.", "İd", "i\u0307d", "ß", "SS", "ẞ", "\u212a", "K", "k",
    "Σ", "σ", "ς", "ΟΣ", "Straße", "--", "#",
]
# Phrases of one to three pieces, some led by a space or punctuation.
_ENTRIES = st.builds(
    lambda lead, atoms: lead + " ".join(atoms),
    st.sampled_from(["", "", " ", "-", "("]),
    st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=3),
)
_CHARS = "aZ9 :-.(#\tİiıßẞ\u212akKΣσς\u0307\u2028\x1c\x85\u3000\r"
_CASES = [str, str.upper, str.lower, str.title, str.swapcase, str.casefold]
# Indentation, Unicode whitespace among it; str.split("\n") keeps the others.
_INDENTS = ["", "", " ", "\t", "  ", "\x1c", "\x85 ", "\u2028", "\u3000", "\t\u3000"]


def _add_dotted_line(draw, lines):
    # 'İ' lowercases to two characters, so the lowercased note is longer
    # than the note; the line filter must still pick the right lines
    if draw(st.booleans()):
        line = draw(st.sampled_from(["İ", "xİ", "a İd"]))
        lines.insert(draw(st.integers(0, len(lines))), line)


@st.composite
def _lexicon_and_text(draw):
    entries = draw(st.lists(_ENTRIES, min_size=1, max_size=8, unique=True))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        indent = draw(st.sampled_from(_INDENTS))
        if draw(st.booleans()):
            head = draw(st.sampled_from(_CASES))(draw(st.sampled_from(entries)))
        else:
            head = draw(st.text(_CHARS, max_size=6))
        end = draw(st.sampled_from(["", "\r"]))
        lines.append(indent + head + draw(st.text(_CHARS, max_size=4)) + end)
    _add_dotted_line(draw, lines)
    return entries, "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_lexicon_and_text())
def test_keyword_segment_equals_linear_scan(lexicon_and_text):
    entries, text = lexicon_and_text
    lexicon = HeaderLexicon(entries=set(entries))
    doc = Document("d", text)
    assert keyword_segment(doc, lexicon) == reference_keyword_segment(doc, lexicon)


# Rules beside the two default ones: a group after a colon, so a line can
# hold a keyword match and a disjoint rule match; a group that starts inside
# the line's first word; a group that trims to nothing, which still ends the
# line's rule search; and an optional group that can sit out the match,
# which then matches nothing.
_RULES = [
    *DEFAULT_RULES,
    _regex_rule("after_colon", r"[^:]*:\s*(\w+)"),
    _regex_rule("mid_word", r"\W*\w(\w+)"),
    _regex_rule("colons", r"\s*(:+\s*)"),
    _regex_rule("numbered", r"(?:(\d+)\.)?\s*[A-ZΣİ]"),
]
_NOTE_ATOMS = [
    "Plan", "PLAN", "Hx", "A", "#", "-", "--", "(Hx)", "Σ", "ς", "σ", "ΟΣ", "İd", "1.",
]


@st.composite
def _segmenter_inputs(draw):
    entries = draw(st.lists(st.sampled_from(_NOTE_ATOMS), min_size=1, max_size=6, unique=True))
    pieces = st.one_of(
        st.sampled_from(_NOTE_ATOMS),
        st.sampled_from(_NOTE_ATOMS).map(str.lower),
        st.text("aZ9 :-.İΣςσ\x1c\x85\u3000", max_size=5),
    )
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        indent = draw(st.sampled_from(_INDENTS))
        words = draw(st.lists(pieces, max_size=3))
        colon = draw(st.sampled_from(["", ":", ": ", " : ", "::"]))
        tail = draw(st.lists(pieces, max_size=2))
        end = draw(st.sampled_from(["", "\r"]))
        lines.append(indent + " ".join(words) + colon + " ".join(tail) + end)
    _add_dotted_line(draw, lines)
    # the default rules alone, in any order and number, or mixed with the others
    pool = draw(st.sampled_from([DEFAULT_RULES, _RULES]))
    rules = draw(st.permutations(pool))[:draw(st.integers(0, len(pool)))]
    return HeaderLexicon(entries=set(entries)), Document("d", "\n".join(lines)), rules


@settings(max_examples=300, deadline=None)
@given(_segmenter_inputs())
def test_segmenters_equal_their_references(inputs):
    lexicon, doc, rules = inputs
    assert keyword_segment(doc, lexicon) == reference_keyword_segment(doc, lexicon)
    assert regex_segment(doc, rules) == reference_regex_segment(doc, rules)
    assert rule_segment(doc, lexicon, rules) == reference_rule_segment(doc, lexicon, rules)
    assert rule_segment(doc, lexicon) == reference_rule_segment(doc, lexicon)


@given(st.text(alphabet="aZ9_.:-, \tİßΣ\u0301\u0307é²½", max_size=40))
def test_header_words_are_the_alphanumeric_tokens(text):
    # the line rules count words without building tokens
    assert _WORD_RE.findall(text) == [t.text for t in tokenize(text) if t.text[0].isalnum()]
