"""End-to-end: recorded responses -> extraction -> alignment -> scores."""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HEADER_VOCAB,
    NoteLinesKeepingText,
    StaticClient,
    make_synthetic_corpus,
    reference_categorize,
    reference_exact_match_count,
    reference_fuzzy_line_search,
    reference_keyword_segment,
    reference_load_ontology,
    reference_regex_segment,
    reference_rule_segment,
    reference_span_counts,
)
from sectionid import align, baselines, cli, metrics, ontology
from sectionid.cli import OK, PARTIAL, SEGMENTERS, main
from sectionid.corpus import AnnotatedDocument, Document, SectionAnnotation, save_gold_corpus
from sectionid.llm import (
    LLMConfig,
    PromptStrategy,
    RecordingClient,
    ReplayClient,
    extract_corpus,
    extract_headers,
)
from sectionid.metrics import evaluate_run, render_report
from sectionid.ontology import default_lexicon_entries


def run_pipeline(gold_small, replay_store, replay_llm_config):
    client = ReplayClient(replay_store)
    predictions, failures = extract_corpus(
        [d.document for d in gold_small],
        PromptStrategy.zero_shot(),
        replay_llm_config,
        client,
    )
    assert failures == []
    return evaluate_run(gold_small, predictions, method="gpt-4 zero-shot (replay)")


def test_replay_extraction_headers(gold_small, replay_store, replay_llm_config):
    client = ReplayClient(replay_store)
    predictions, failures = extract_corpus(
        [d.document for d in gold_small],
        PromptStrategy.zero_shot(),
        replay_llm_config,
        client,
    )
    assert failures == []
    assert predictions["fx1"].headers == ["Allergies", "Plan"]
    assert predictions["fx2"].headers == ["HPI", "Plan"]
    assert predictions["fx3"].headers == [
        "Chief Complaint", "Patient Information and Visit Details", "Assessment",
    ]
    assert predictions["fx4"].headers == ["Vitals", "Medications", "Plan"]
    assert predictions["fx5"].headers == ["Allergies", "Famly History"]


def test_replay_pipeline_deterministic(gold_small, replay_store, replay_llm_config):
    first = run_pipeline(gold_small, replay_store, replay_llm_config)
    second = run_pipeline(gold_small, replay_store, replay_llm_config)
    assert first == second
    for fmt in ("json", "csv", "table_text"):
        assert render_report(first, fmt) == render_report(second, fmt)


def test_replay_per_doc_scores(gold_small, replay_store, replay_llm_config):
    run = run_pipeline(gold_small, replay_store, replay_llm_config)
    by_id = {d.doc_id: d for d in run.per_doc}
    assert by_id["fx1"].em == 1.0
    assert by_id["fx2"].em == 2 / 3
    assert by_id["fx3"].em == 1.0
    assert by_id["fx4"].em == 1.0
    assert by_id["fx5"].em == 0.5
    assert by_id["fx3"].unmatched_headers == ["Patient Information and Visit Details"]


def test_rules_cli_outputs_equal_reference_scan_and_counts(tmp_path, monkeypatch):
    """``segment --segmenter rules`` then ``evaluate`` writes the same bytes
    with the bucketed lexicon and the span-run counter as with the linear
    scan and the per-token loops."""
    docs = make_synthetic_corpus(random.Random(11), 12, min_sections=4, max_sections=10)
    lexicon = baselines.HeaderLexicon(entries=default_lexicon_entries())
    buckets = {
        h[0].lower() for d in docs for h in baselines.keyword_segment(d.document, lexicon).headers
    }
    assert len(buckets) >= 5
    corpus = tmp_path / "corpus.jsonl"
    save_gold_corpus(docs, corpus)

    def run(out):
        assert main([
            "segment", "--corpus", str(corpus), "--segmenter", "rules", "--out", str(out / "s"),
        ]) == OK
        assert main([
            "evaluate", "--corpus", str(corpus), "--segmenter", "rules",
            "--predictions", str(out / "s" / "predictions.jsonl"), "--out", str(out / "e"),
        ]) == OK
        return [(out / name).read_bytes() for name in ("s/predictions.jsonl", "e/report.json")]

    outputs = run(tmp_path / "fast")
    monkeypatch.setattr(baselines, "keyword_segment", reference_keyword_segment)
    monkeypatch.setattr(metrics, "span_counts", reference_span_counts)
    assert run(tmp_path / "reference") == outputs


# Every fast path that a whole run takes, each with the oracle that stands
# for it, patched where the name is looked up
_ORACLES = (
    (baselines, "keyword_segment", reference_keyword_segment),
    (baselines, "regex_segment", reference_regex_segment),
    (baselines, "rule_segment", reference_rule_segment),
    (align, "_NoteLines", NoteLinesKeepingText),
    (align, "_fuzzy_line_match", reference_fuzzy_line_search),
    (ontology, "categorize", reference_categorize),
    (metrics, "categorize", reference_categorize),
    (ontology, "load_ontology", reference_load_ontology),
    (metrics, "span_counts", reference_span_counts),
    (metrics, "exact_match_count", reference_exact_match_count),
)

# The characters where the filters have edge cases: 'İ' lowers to two
# characters, final sigma, 'ß' uppers to two, the Kelvin sign lowers to
# ASCII 'k', a titlecase letter, line breaks other than '\n' that
# str.splitlines takes, an ideographic space, a lone CR and the colon
_SPECIALS = "İΣςß\u212aǅ\x85\x1c　\r:"
_NOTE_HEADERS = (
    *HEADER_VOCAB, "HPI", "PLAN", "İmpression", "SOCIAL HİSTORY", "ΣΥΝΟΨΗ", "Straße",
    "\u212aidney Function", "ǅuro Notes", "Assessment  and Plan", "Past Medical Hx", "Exam", "History",
)
# body text, with words of the headers that a filter must not be fooled by
_BODY = st.lists(
    st.sampled_from([
        "a", "e", "s", "x", " ", "--", "plan", "history", "exam", "allergies", "chief", *_SPECIALS,
    ]),
    max_size=8,
).map("".join)
_CAPS = st.text(st.sampled_from("ABPLSİΣ :"), min_size=1, max_size=10)


@st.composite
def _headers(draw):
    """A known header, or one with a character swapped for a special one."""
    header = draw(st.sampled_from(_NOTE_HEADERS))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(header) - 1))
        header = header[:at] + draw(st.sampled_from(["q", "e", *_SPECIALS])) + header[at + 1:]
    return header


# A gold header line (indent, header, what follows it; half the lines), at
# times after a body line that names the header in lowercase, glued to a word
# or not; an all-caps line that no gold header marks; or a body line, at
# times after "-- "
_HEADER_LINES = st.tuples(
    st.sampled_from([None, "see ", "re"]), st.sampled_from(["", " ", "　"]), _headers(),
    st.sampled_from(["", ":", " :", ":\r", ": "]), _BODY,
)
_LINES = st.one_of(
    _HEADER_LINES, _HEADER_LINES, _CAPS,
    st.tuples(st.sampled_from(["", "-- "]), _BODY).map("".join),
)


def _note(doc_id: str, lines: list) -> AnnotatedDocument:
    parts: list[str] = []
    sections: list[SectionAnnotation] = []
    pos = 0
    for line in lines:
        if isinstance(line, tuple):
            mention, indent, header, after, body = line
            if mention is not None:
                parts.append(mention + header.lower())
                pos += len(parts[-1]) + 1
            start = pos + len(indent)
            sections.append(SectionAnnotation(header, (start, start + len(header)), header))
            line = indent + header + after + body
        parts.append(line)
        pos += len(line) + 1
    return AnnotatedDocument(Document(doc_id, "\n".join(parts)), sections)


# Ruleset patterns: a colon phrase and an all-caps line, as the default
# rules find them, and the first word after a colon, which can follow a
# keyword match on its line
_RULES = (r"\s*([A-ZİΣ][^:]*):", r"\s*[A-ZİΣ ]{3,}$", r"[^:]*: *(\w+)")
_LEXICON = (*_NOTE_HEADERS[::2], "plan", "--")

# How the fake model answers for one gold header
_ANSWERS = {
    "same": lambda h: h,
    "upper": str.upper,
    "lower": str.lower,
    "substituted": lambda h: h[:-2] + "q" + h[-1:],
    "shortened": lambda h: h[:1] + h[2:],
    "lengthened": lambda h: h[:1] + "x" + h[1:],
    "invented": lambda h: "Patient Information and Visit Details",
}
# the answers that only the fuzzy stage can place, drawn twice as often
_ANSWER_DRAWS = (*_ANSWERS, "substituted", "shortened", "lengthened")


def _pipeline(work: Path, baseline_flags: list[str]) -> dict[str, bytes]:
    """Every command's exit code, stdout and stderr, and every file it
    writes, run from the inputs under ``work``, the segmenters but the llm
    one given ``baseline_flags``; the outputs are removed."""
    cli._bundled_ontology.cache_clear()
    cli._default_lexicon.cache_clear()
    corpus = ["--corpus", str(work / "corpus.jsonl")]
    runs = []
    for segmenter in SEGMENTERS:
        inputs = ["--replay", str(work / "store")] if segmenter == "llm" else baseline_flags
        out = work / "out" / segmenter
        predictions = ["--predictions", str(out / "segment" / "predictions.jsonl")]
        runs += [
            ["segment", *corpus, "--segmenter", segmenter, *inputs, "--out", str(out / "segment")],
            ["evaluate", *corpus, *predictions, "--out", str(out / "open")],
        ]
        if segmenter == "llm":
            runs.append([
                "evaluate", *corpus, *predictions, "--close-ended", "--out", str(out / "closed"),
            ])
    names = ["--names", str(work / "names.txt"), "--out", str(work / "out" / "names")]
    runs.append(["normalize", *names])
    seen: dict[str, bytes] = {}
    for i, argv in enumerate(runs):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (OK, PARTIAL), stderr.getvalue()
        seen[f"{i} {argv[0]}"] = f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}".encode()
    for path in sorted((work / "out").rglob("*")):
        if path.is_file():
            seen[str(path.relative_to(work))] = path.read_bytes()
    shutil.rmtree(work / "out")
    return seen


@settings(max_examples=12, deadline=None)
@given(
    notes=st.lists(st.lists(_LINES, max_size=10), min_size=1, max_size=3),
    answers=st.lists(st.sampled_from(_ANSWER_DRAWS), min_size=10, max_size=10),
    missing=st.integers(0, 5),
    names=st.lists(st.one_of(_headers(), _CAPS, _BODY), max_size=4),
    rules=st.none() | st.lists(st.sampled_from(_RULES), min_size=1, max_size=3, unique=True),
    lexicon=st.booleans(),
)
def test_whole_pipeline_equals_the_oracles(notes, answers, missing, names, rules, lexicon):
    """Every command, run as shipped and run with each filtered fast path
    swapped for its oracle, writes the same bytes and exits the same way:
    segment with each segmenter (the llm one from a store a fake model
    recorded, missing a note's record at times), then evaluate (the llm
    run's answers close-ended too), then normalize on every header seen."""
    docs = [_note(f"d{i}", lines) for i, lines in enumerate(notes)]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        save_gold_corpus(docs, work / "corpus.jsonl")
        config = LLMConfig()
        answered = []
        for i, doc in enumerate(docs):
            answer = [_ANSWERS[how](s.raw_header) for s, how in zip(doc.sections, answers)]
            answered += answer
            client = StaticClient(json.dumps([{"section_title": h} for h in answer]))
            # note ``missing``, if there is one, has no record in the store
            if i != missing:
                client = RecordingClient(client, work / "store")
            extract_headers(doc.document, PromptStrategy.zero_shot(), config, client)
        (work / "store").mkdir(exist_ok=True)
        baseline_flags = []
        if rules is not None:
            ruleset = [{"name": f"r{i}", "pattern": pattern} for i, pattern in enumerate(rules)]
            (work / "rules.json").write_text(json.dumps(ruleset), encoding="utf-8")
            baseline_flags += ["--ruleset", str(work / "rules.json")]
        if lexicon:
            # "--" holds no word, so every line is a keyword candidate
            (work / "lexicon.txt").write_text("\n".join(_LEXICON) + "\n", encoding="utf-8")
            baseline_flags += ["--lexicon", str(work / "lexicon.txt")]
        (work / "names.txt").write_text(
            "\n".join([*(s.raw_header for d in docs for s in d.sections), *answered, *names]),
            encoding="utf-8",
        )
        try:
            shipped = _pipeline(work, baseline_flags)
            with pytest.MonkeyPatch.context() as patch:
                for module, name, oracle in _ORACLES:
                    patch.setattr(module, name, oracle)
                assert _pipeline(work, baseline_flags) == shipped
        finally:
            # no later test may get a taxonomy or lexicon that an oracle built
            cli._bundled_ontology.cache_clear()
            cli._default_lexicon.cache_clear()
