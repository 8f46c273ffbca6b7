from __future__ import annotations

import random
import re
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    BODY_WORDS,
    HEADER_VOCAB,
    make_synthetic_corpus,
    make_synthetic_doc,
    perturb_header,
    reference_fuzzy_line_match,
)
from sectionid import align
from sectionid.align import (
    CASE_INSENSITIVE,
    DEFAULT_MAX_EDIT_RATIO,
    EXACT,
    FUZZY,
    AlignmentResult,
    HeaderMatch,
    _fold,
    _fuzzy_line_match,
    _NoteLines,
    align_headers,
    line_starts,
    sections_from_alignment,
)
from sectionid.corpus import AnnotatedDocument, Document, validate_corpus
from sectionid.prediction import Prediction, load_predictions, prediction_line
from sectionid.textdist import edit_ratio, levenshtein


def test_levenshtein_basics():
    assert levenshtein("", "") == 0
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("Allergles", "Allergies") == 1
    assert levenshtein("kitten", "sitting") == 3
    assert edit_ratio("Allergles", "Allergies") == pytest.approx(1 / 9)


@given(st.text(alphabet="a\n\r ", max_size=50))
def test_line_starts_follow_every_newline(text):
    assert line_starts(text.split("\n")) == [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]


def test_exact_alignment_in_order():
    doc = Document("d", "HPI: 61M with pain\nPlan: rest\n")
    result = align_headers(doc, Prediction(headers=["HPI", "Plan"]))
    assert [(m.span, m.match_kind) for m in result.matches] == [
        ((0, 3), EXACT), ((19, 23), EXACT),
    ]
    assert result.unmatched_predictions == []


def test_case_insensitive_fallback():
    doc = Document("d", "ALLERGIES: none\n")
    result = align_headers(doc, Prediction(headers=["Allergies"]))
    assert result.matches[0].span == (0, 9)
    assert result.matches[0].match_kind == CASE_INSENSITIVE


def test_fuzzy_recovers_misspelled_header():
    doc = Document("d", "Allergies: none\n")
    result = align_headers(doc, Prediction(headers=["Allergles"]))
    assert result.matches[0].span == (0, 9)
    assert result.matches[0].match_kind == FUZZY


def test_summarized_title_stays_unmatched():
    doc = Document("d", "Chief Complaint: headache\nAssessment: tension\n")
    pred = Prediction(headers=["Patient Information and Visit Details"])
    result = align_headers(doc, pred)
    assert result.matches == []
    assert result.unmatched_predictions == [0]


@pytest.mark.parametrize("text, header, span", [
    ("İSTANBUL NOTES: x", "istanbul notex", (0, 14)),
    ("İİİ Medications: x", "iii medicationz", (0, 15)),
    ("Plan: a\nİİ Histroy: b", "ii history", (8, 18)),
])
def test_fuzzy_span_counts_dotted_capital_i_once(text, header, span):
    # 'İ' lowercases to two characters; the span is still cut in the
    # original line, one character per 'İ'
    result = align_headers(Document("d", text), Prediction(headers=[header]))
    assert [(m.span, m.match_kind) for m in result.matches] == [(span, FUZZY)]


def _assert_fold_keeps_every_offset(text):
    folded = _fold(text)
    assert len(folded) == len(text)
    # so a line's folded prefix is as long, and as blank, as its raw prefix
    assert [c.isspace() for c in folded] == [c.isspace() for c in text]
    if "İ" not in text:
        assert folded == text.lower()


@given(st.text(st.one_of(st.sampled_from("İiIßẞΣσς\u0307"), st.characters()), max_size=30))
def test_fold_keeps_every_offset(text):
    _assert_fold_keeps_every_offset(text)


def test_fold_keeps_every_offset_of_every_code_point():
    # outside hypothesis, whose deadline one fold of all 1,114,112 code
    # points comes near on a busy machine
    _assert_fold_keeps_every_offset("".join(map(chr, range(0x110000))))


# Lines of a few letters, so that near matches are common, with cased and
# folding-sensitive letters ('İ', final sigma, 'ß', the Kelvin sign), tabs
# and lines longer than the 80-character prefix the DP reads.
_NOTE_ALPHABET = "aeostAEOST :-\tİΣσςßẞK\u212a"


@st.composite
def _note_and_headers(draw):
    """A multi-line note and stripped headers that are line prefixes with up
    to four edits, recased line prefixes, strings of 1-3 characters, or
    unplaceable strings (some with a '\n')."""
    lines = draw(st.lists(st.text(_NOTE_ALPHABET, max_size=100), min_size=1, max_size=10))
    headers = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("typo", "recased", "short", "unplaceable")))
        line = draw(st.sampled_from(lines))
        prefix = line[:draw(st.integers(1, 95))]
        if kind == "typo":
            chars = list(prefix)
            for _ in range(draw(st.integers(0, 4))):
                pos = draw(st.integers(0, len(chars)))
                edit = draw(st.sampled_from(("substitute", "insert", "delete")))
                char = draw(st.sampled_from(_NOTE_ALPHABET + "\nxyz"))
                if edit == "insert":
                    chars.insert(pos, char)
                elif pos < len(chars):
                    chars[pos:pos + 1] = [char] if edit == "substitute" else []
            header = "".join(chars)
        elif kind == "recased":
            header = prefix.swapcase()
        elif kind == "short":
            header = draw(st.text(_NOTE_ALPHABET + "xyz", min_size=1, max_size=3))
        else:
            header = draw(st.text(_NOTE_ALPHABET + "\nxyz", min_size=1, max_size=40))
        if header.strip():
            headers.append(header.strip())
    assume(headers)
    return "\n".join(lines), headers


@settings(max_examples=500, deadline=None)
@given(
    _note_and_headers(),
    st.one_of(
        st.sampled_from((0.0, 0.2, 0.29, 0.58, 0.7)),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
    st.data(),
)
def test_filtered_line_search_equals_the_full_scan(case, ratio, data):
    # 0.29, 0.58 and 0.7 are ratios where floor(ratio * n) undercounts the
    # budget; one _NoteLines serves every header, as in align_headers
    text, headers = case
    lines = _NoteLines(text)
    starts = line_starts(text.split("\n"))
    for header in headers:
        cursor = data.draw(st.integers(0, len(text) + 1))
        assert _fuzzy_line_match(lines, header, cursor, ratio) == (
            reference_fuzzy_line_match(text, starts, header, cursor, ratio)
        )


def test_filtered_line_search_skips_most_dps():
    # the work-count guard: a filter that silently stops filtering fails
    # here, with no timing involved
    rng = random.Random(5)
    text = "\n".join(
        rng.choice(HEADER_VOCAB) + ":" if i % 8 == 0
        else " ".join(rng.choices(BODY_WORDS, k=rng.randint(2, 12)))
        for i in range(200)
    )
    headers = [
        "Patient Information and Visit Details",
        "Disposition Summary",
        "Nursing Handoff Notes",
        "Advance Directive Status",
        "Code Status Discussion",
    ]
    lines = _NoteLines(text)
    starts = line_starts(text.split("\n"))
    with mock.patch.object(align, "prefix_distances", wraps=align.prefix_distances) as filtered, \
            mock.patch.object(conftest, "prefix_distances", wraps=conftest.prefix_distances) as full:
        for header in headers:
            assert _fuzzy_line_match(lines, header, 0, DEFAULT_MAX_EDIT_RATIO) is None
            assert reference_fuzzy_line_match(text, starts, header, 0, DEFAULT_MAX_EDIT_RATIO) is None
    assert full.call_count >= 800
    assert filtered.call_count < 0.1 * full.call_count


def test_cursor_skips_earlier_text():
    # the second "Plan" must ground to the second occurrence
    doc = Document("d", "Plan: follow the plan\nPlan B: alternate\n")
    result = align_headers(doc, Prediction(headers=["Plan", "Plan B"]))
    assert result.matches[0].span == (0, 4)
    assert result.matches[1].span == (22, 28)


def test_matches_strictly_increase():
    rng = random.Random(3)
    for doc in make_synthetic_corpus(rng, 20, min_sections=1):
        pred = Prediction(headers=doc.header_texts())
        result = align_headers(doc.document, pred)
        spans = result.matched_spans()
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
        assert all(a[0] < b[0] for a, b in zip(spans, spans[1:]))


# Texts with line breaks, header punctuation and letters whose case mapping
# changes length ("İ", "ß") or depends on context ("Σ").
_ALIGN_ALPHABET = "abAB \n\r\t:-İßΣσ"


@st.composite
def _text_and_headers(draw):
    """A text and headers drawn from its substrings, case-flipped
    substrings and random strings."""
    text = draw(st.text(alphabet=_ALIGN_ALPHABET, max_size=80))
    headers = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("substring", "swapcase", "random")))
        if kind == "random" or not text:
            headers.append(draw(st.text(alphabet=_ALIGN_ALPHABET, max_size=10)))
            continue
        start = draw(st.integers(0, len(text) - 1))
        piece = text[start:draw(st.integers(start + 1, len(text)))]
        headers.append(piece.swapcase() if kind == "swapcase" else piece)
    return text, headers


@settings(max_examples=300, deadline=None)
@given(_text_and_headers(), st.sampled_from((0.0, 0.2, 0.5)))
def test_matched_spans_are_in_bounds_sorted_and_disjoint(case, ratio):
    text, headers = case
    spans = align_headers(Document("d", text), Prediction(headers=headers), ratio).matched_spans()
    assert all(0 <= start < end <= len(text) for start, end in spans)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


@settings(max_examples=300, deadline=None)
@given(_text_and_headers(), st.sampled_from((0.0, 0.2, 0.5)))
def test_every_header_is_matched_or_unmatched_never_both(case, ratio):
    text, headers = case
    result = align_headers(Document("d", text), Prediction(headers=headers), ratio)
    matched = [m.prediction_index for m in result.matches]
    assert sorted(matched + result.unmatched_predictions) == list(range(len(headers)))


@settings(max_examples=300, deadline=None)
@given(_text_and_headers(), st.floats(0.0, 1.0, exclude_max=True))
def test_every_prediction_segment_writes_reads_back(tmp_path_factory, case, ratio):
    # segment writes an aligned prediction with its grounding, and a
    # grounded one (the rules segmenters') with its spans, each of which
    # slices to its header, as an exact match does
    text, headers = case
    doc = Document("d", text)
    pred = Prediction(headers=headers)
    result = align_headers(doc, pred, ratio)
    spans: list[tuple[int, int] | None] = [None] * len(headers)
    for m in result.matches:
        spans[m.prediction_index] = m.span
    exact = [m for m in result.matches if m.match_kind == EXACT]
    grounded = Prediction([headers[m.prediction_index] for m in exact], [m.span for m in exact])
    lines = prediction_line("aligned", pred, ["UNKNOWN"] * len(headers), result) + (
        prediction_line("grounded", grounded, ["UNKNOWN"] * len(grounded.headers))
    )
    path = tmp_path_factory.getbasetemp() / "written.jsonl"
    path.write_text(lines, encoding="utf-8")
    docs = [AnnotatedDocument(Document(doc_id, text)) for doc_id in ("aligned", "grounded")]
    read = load_predictions(path, docs)
    assert read == {"aligned": Prediction(headers, spans), "grounded": grounded}


@pytest.mark.parametrize("pred, alignment", [
    # "spans": [[0, 1], null], refused as not a [start, end] pair
    (Prediction(["A", "B"], [(0, 1), None]), None),
    # both 'spans' and 'grounding', refused as setting both
    (Prediction(["A"], [(0, 1)]), AlignmentResult([HeaderMatch(0, (0, 1), EXACT)])),
])
def test_writer_refuses_a_line_the_reader_refuses(pred, alignment):
    with pytest.raises(ValueError, match="grounded prediction"):
        prediction_line("d", pred, ["X"] * len(pred.headers), alignment)


@settings(max_examples=300, deadline=None)
@given(_text_and_headers())
def test_exact_match_slices_to_the_stripped_header(case):
    text, headers = case
    for m in align_headers(Document("d", text), Prediction(headers=headers)).matches:
        if m.match_kind == EXACT:
            assert text[m.span[0]:m.span[1]] == headers[m.prediction_index].strip()


def test_gold_echo_recovers_gold_spans_exactly():
    rng = random.Random(17)
    for doc in make_synthetic_corpus(rng, 50):
        pred = Prediction(headers=doc.header_texts())
        result = align_headers(doc.document, pred)
        assert result.matched_spans() == doc.header_spans()
        assert result.unmatched_predictions == []
        assert all(m.match_kind == EXACT for m in result.matches)


def test_raising_ratio_never_loses_matches():
    rng = random.Random(29)
    doc = make_synthetic_doc(rng, "d", min_sections=3, max_sections=6)
    noisy = [perturb_header(rng, h) for h in doc.header_texts()]
    pred = Prediction(headers=noisy)
    last = -1
    for ratio in (0.0, 0.1, 0.2, 0.3, 0.4):
        count = len(align_headers(doc.document, pred, max_edit_ratio=ratio).matches)
        assert count >= last
        last = count


def test_max_edit_ratio_validation():
    doc = Document("d", "x")
    # the CLI's check: a bool and a string are not numbers
    for ratio in (1.0, 1, -0.1, float("nan"), False, True, "0.2", None):
        message = f"max_edit_ratio must be a number in [0, 1), got {ratio!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            align_headers(doc, Prediction(headers=[]), max_edit_ratio=ratio)
    for ratio in (0, 0.0, 0.99):
        assert align_headers(doc, Prediction(headers=["x"]), max_edit_ratio=ratio).matches


def test_empty_headers_unmatched():
    doc = Document("d", "Plan: rest\n")
    result = align_headers(doc, Prediction(headers=["", "  ", "Plan"]))
    assert result.unmatched_predictions == [0, 1]
    assert result.matches[0].prediction_index == 2


def test_sections_from_alignment_bodies():
    text = "A" * 4 + "b" * 16 + "C" * 4 + "d" * 6
    doc = Document("d", text)
    pred = Prediction(headers=["AAAA", "CCCC"])
    alignment = align_headers(doc, pred)
    assert alignment.matched_spans() == [(0, 4), (20, 24)]
    sections = sections_from_alignment(doc, pred, alignment)
    assert [s.body_span for s in sections] == [(4, 20), (24, 30)]


def test_sections_from_alignment_edge_cases():
    doc = Document("d", "AAAA" + "b" * 26)
    pred = Prediction(headers=["AAAA"])
    sections = sections_from_alignment(doc, pred, align_headers(doc, pred))
    assert sections[0].body_span == (4, 30)

    empty = align_headers(doc, Prediction(headers=[]))
    assert sections_from_alignment(doc, Prediction(headers=[]), empty) == []


def test_derived_sections_satisfy_corpus_invariants():
    rng = random.Random(41)
    for doc in make_synthetic_corpus(rng, 20, min_sections=1):
        pred = Prediction(headers=doc.header_texts())
        alignment = align_headers(doc.document, pred)
        from sectionid.corpus import AnnotatedDocument

        derived = AnnotatedDocument(
            doc.document, sections_from_alignment(doc.document, pred, alignment)
        )
        assert validate_corpus([derived]) == []


def test_noise_recovery_rate_is_high():
    rng = random.Random(53)
    total = recovered = 0
    for i in range(50):
        doc = make_synthetic_doc(rng, f"n{i}", min_sections=2, max_sections=6)
        noisy = [perturb_header(rng, h) for h in doc.header_texts()]
        result = align_headers(doc.document, Prediction(headers=noisy))
        matched = {m.prediction_index: m.span for m in result.matches}
        for idx, gold_span in enumerate(doc.header_spans()):
            total += 1
            recovered += matched.get(idx) == gold_span
    assert recovered / total >= 0.95
