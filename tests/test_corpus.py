from __future__ import annotations

import inspect
import json
import os
import random
import re
import stat
import statistics
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sectionid
from conftest import FIXTURES, make_synthetic_corpus, make_synthetic_doc
from sectionid.baselines import HeaderLexicon
from sectionid.cli import FATAL, OK, main
from sectionid.corpus import (
    BODY_SPAN_INVALID,
    DUPLICATE_ID,
    OVERLAPPING_SPANS,
    SUBSTRING_MISMATCH,
    UNSORTED_SECTIONS,
    AnnotatedDocument,
    CorpusStats,
    Document,
    SectionAnnotation,
    ValidationIssue,
    corpus_stats,
    load_gold_corpus,
    save_gold_corpus,
    validate_corpus,
    write_output,
)
from sectionid.errors import EmptyCorpus, FormatError, SpanError
from sectionid.llm.client import ChatResult, LLMConfig
from sectionid.llm.extract import ExtractionFailure
from sectionid.llm.prompts import PromptStrategy
from sectionid.metrics import Counts, DocScore, IAAReport, MetricsReport, RunReport, TokenMetrics
from sectionid.ontology import CategoryCount, CategoryStats, Ontology
from sectionid.prediction import AlignmentResult, HeaderMatch, Prediction


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def test_load_minimal_document(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id":"d1","text":"Allergies: none",'
        '"sections":[{"label":"Allergies","header_span":[0,10]}]}\n',
        encoding="utf-8",
    )
    docs = load_gold_corpus(path)
    assert len(docs) == 1
    assert docs[0].id == "d1"
    assert docs[0].document.source_kind == "ehr_clean"
    assert docs[0].sections[0].raw_header == "Allergies:"


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("label", [None, ["Plan"], 3])
def test_load_refuses_a_label_that_is_not_a_string(tmp_path, strict, label):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [{"id": "d1", "text": "Plan: rest", "sections": [
        {"label": label, "header_span": [0, 4]},
    ]}])
    with pytest.raises(FormatError, match=(
        f"^{re.escape(str(path))} line 1: section 'label' must be a string \\(document 'd1'\\)$"
    )):
        load_gold_corpus(path, strict=strict)


_ID_MUST_BE = "'id' must be a non-empty string"


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("fields, message", [
    ({"text": "Plan: rest"}, _ID_MUST_BE),
    ({"id": "", "text": "Plan: rest"}, _ID_MUST_BE),
    ({"id": 7, "text": "Plan: rest"}, _ID_MUST_BE),
    ({"id": "d1"}, "'text' must be a string"),
    ({"id": "d1", "text": ["Plan: rest"]}, "'text' must be a string"),
    ({"id": "d1", "text": "Plan: rest", "sections": {"label": "Plan"}}, "'sections' must be a list"),
], ids=["no_id", "empty_id", "int_id", "no_text", "list_text", "dict_sections"])
def test_load_refuses_a_document_field_of_the_wrong_type(tmp_path, strict, fields, message):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [fields])
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path} line 1: {message}')}$"):
        load_gold_corpus(path, strict=strict)


@pytest.mark.parametrize("span", [[0], [0, 4, 5], [0, 4.0], [0, True], "0-4", None])
def test_load_refuses_a_header_span_that_is_not_a_pair_of_ints(tmp_path, span):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [{"id": "d1", "text": "Plan: rest", "sections": [
        {"label": "Plan", "header_span": span},
    ]}])
    with pytest.raises(FormatError, match=(
        f"^{re.escape(str(path))} line 1: header_span must be a \\[start, end\\] pair of ints$"
    )):
        load_gold_corpus(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_gold_corpus(path) == []


def test_load_out_of_bounds_span_names_document(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [
        {"id": "d1", "text": "short text here", "sections": [
            {"label": "X", "header_span": [0, 99]},
        ]},
    ])
    with pytest.raises(SpanError, match="d1"):
        load_gold_corpus(path, strict=True)


def test_lenient_mode_drops_bad_sections_keeps_documents(tmp_path):
    path = tmp_path / "mixed.jsonl"
    write_jsonl(path, [
        {"id": "d1", "text": "Plan: rest", "sections": [
            {"label": "Plan", "header_span": [0, 4]},
            {"label": "Bad", "header_span": [3, 2]},
        ]},
    ])
    docs = load_gold_corpus(path, strict=False)
    assert len(docs) == 1
    assert [s.label for s in docs[0].sections] == ["Plan"]


def test_strict_mode_refuses_a_duplicate_document_id(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_jsonl(path, [{"id": "d1", "text": "a"}, {"id": "d1", "text": "b"}])
    with pytest.raises(FormatError, match="line 2: duplicate document id 'd1'"):
        load_gold_corpus(path, strict=True)


def test_lenient_mode_drops_a_repeated_document_id(tmp_path, capsys):
    path = tmp_path / "dup.jsonl"
    records = [{"id": "d1", "text": "a"}, {"id": "d2", "text": "b"}, {"id": "d1", "text": "c"}]
    write_jsonl(path, records)
    docs = load_gold_corpus(path, strict=False)
    assert [(d.id, d.text) for d in docs] == [("d1", "a"), ("d2", "b")]
    assert capsys.readouterr().err == (
        f"warning: {path} line 3: dropping document 'd1': its id repeats an earlier line\n"
    )
    assert validate_corpus(docs) == []
    # the repeat is still checked before it is dropped
    records[2]["sections"] = [{"label": "X"}]
    write_jsonl(path, records)
    with pytest.raises(FormatError, match="line 3: section needs 'label' and 'header_span'"):
        load_gold_corpus(path, strict=False)


def test_lenient_mode_skips_a_malformed_json_line(tmp_path, capsys):
    # a blank or all-space line is skipped without a warning, and still counted
    path = tmp_path / "broken.jsonl"
    path.write_text(
        '{"id": "d1", "text": "a"}\n\n{oops\n \t\n{"id": "d2", "text": "b"}\n', encoding="utf-8"
    )
    docs = load_gold_corpus(path, strict=False)
    assert [d.id for d in docs] == ["d1", "d2"]
    assert capsys.readouterr().err == f"warning: {path} line 3: skipping malformed JSON line\n"


def test_load_rejects_malformed_json_with_line_number(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"id": "d1", "text": "ok", "sections": []}\n{oops\n', encoding="utf-8")
    with pytest.raises(FormatError, match="line 2"):
        load_gold_corpus(path)


def test_load_rejects_raw_header_mismatch(tmp_path):
    path = tmp_path / "mismatch.jsonl"
    write_jsonl(path, [
        {"id": "d1", "text": "Plan: rest", "sections": [
            {"label": "Plan", "header_span": [0, 4], "raw_header": "Plam"},
        ]},
    ])
    with pytest.raises(SpanError, match="d1"):
        load_gold_corpus(path)


def test_load_rejects_unknown_source_kind_strict(tmp_path):
    path = tmp_path / "kind.jsonl"
    write_jsonl(path, [{"id": "d1", "text": "x", "source_kind": "scan", "sections": []}])
    with pytest.raises(FormatError):
        load_gold_corpus(path)
    docs = load_gold_corpus(path, strict=False)
    assert docs[0].document.source_kind == "ehr_clean"


def test_load_rejects_body_running_past_next_header(tmp_path):
    path = tmp_path / "body.jsonl"
    write_jsonl(path, [
        {"id": "d1", "text": "Alpha: one\nBeta: two\n", "sections": [
            {"label": "Alpha", "header_span": [0, 5], "body_span": [7, 15]},
            {"label": "Beta", "header_span": [11, 15]},
        ]},
    ])
    with pytest.raises(SpanError, match="d1"):
        load_gold_corpus(path, strict=True)
    docs = load_gold_corpus(path, strict=False)
    assert docs[0].sections[0].body_span is None
    assert len(docs[0].sections) == 2


def test_roundtrip_save_load(tmp_path):
    rng = random.Random(11)
    corpus = make_synthetic_corpus(rng, 20)
    path = tmp_path / "roundtrip.jsonl"
    save_gold_corpus(corpus, path)
    reloaded = load_gold_corpus(path)
    assert reloaded == corpus
    # and a second cycle is byte-stable
    path2 = tmp_path / "again.jsonl"
    save_gold_corpus(reloaded, path2)
    assert path.read_text(encoding="utf-8") == path2.read_text(encoding="utf-8")


def test_validate_clean_corpus_is_empty(gold_small):
    assert validate_corpus(gold_small) == []


def _doc(doc_id="d1", text="Alpha: one\nBeta: two\n", spans=((0, 5), (11, 15))):
    sections = [
        SectionAnnotation(label=text[s:e], header_span=(s, e), raw_header=text[s:e])
        for s, e in spans
    ]
    return AnnotatedDocument(Document(doc_id, text), sections)


def test_validate_duplicate_id():
    issues = validate_corpus([_doc("d1"), _doc("d1")])
    assert [i.kind for i in issues] == [DUPLICATE_ID]


def test_validate_overlapping_spans():
    doc = _doc(spans=((0, 10), (5, 12)))
    doc.sections[0].raw_header = doc.text[0:10]
    doc.sections[1].raw_header = doc.text[5:12]
    issues = validate_corpus([doc])
    assert [i.kind for i in issues] == [OVERLAPPING_SPANS]


def test_validate_unsorted_sections():
    doc = _doc()
    doc.sections.reverse()
    issues = validate_corpus([doc])
    assert [i.kind for i in issues] == [UNSORTED_SECTIONS]


def test_validate_substring_mismatch():
    doc = _doc()
    doc.sections[0].raw_header = "Nope"
    issues = validate_corpus([doc])
    assert [i.kind for i in issues] == [SUBSTRING_MISMATCH]


def test_validate_reports_one_issue_per_mutation():
    mutations = {
        DUPLICATE_ID: lambda docs: docs.append(_doc("d0")),
        SUBSTRING_MISMATCH: lambda docs: setattr(docs[0].sections[0], "raw_header", "zz"),
        OVERLAPPING_SPANS: lambda docs: setattr(
            docs[0].sections[1], "header_span", (3, 15)
        ) or setattr(docs[0].sections[1], "raw_header", docs[0].text[3:15]),
        UNSORTED_SECTIONS: lambda docs: docs[0].sections.reverse(),
    }
    for expected_kind, mutate in mutations.items():
        docs = [_doc("d0")]
        mutate(docs)
        kinds = {issue.kind for issue in validate_corpus(docs)}
        assert kinds == {expected_kind}, f"mutation {expected_kind} produced {kinds}"


def test_corpus_stats_two_docs():
    # token counts 10 and 20 -> mean 15.0, population stddev 5.0
    docs = [
        AnnotatedDocument(Document("a", "alpha " * 10), []),
        AnnotatedDocument(Document("b", "alpha " * 20), []),
    ]
    stats = corpus_stats(docs)
    assert stats.document_count == 2
    assert stats.mean_token_length == 15.0
    assert stats.stddev_token_length == 5.0


def test_corpus_stats_single_doc_sections():
    doc = _doc()
    doc.sections.append(
        SectionAnnotation(label="two", header_span=(17, 20), raw_header=doc.text[17:20])
    )
    stats = corpus_stats([doc])
    assert stats.mean_sections_per_doc == 3.0
    assert stats.stddev_sections_per_doc == 0.0


def test_corpus_stats_empty_corpus():
    with pytest.raises(EmptyCorpus):
        corpus_stats([])


def test_corpus_stats_matches_brute_force():
    rng = random.Random(23)
    from sectionid.tokenizer import tokenize

    for trial in range(10):
        corpus = make_synthetic_corpus(rng, rng.randint(1, 50))
        stats = corpus_stats(corpus)
        token_counts = [len(tokenize(d.text)) for d in corpus]
        section_counts = [len(d.sections) for d in corpus]

        def mean(xs):
            return sum(xs) / len(xs)

        def pstd(xs):
            m = mean(xs)
            return (sum((x - m) ** 2 for x in xs) / len(xs)) ** 0.5

        assert stats.document_count == len(corpus)
        assert stats.mean_token_length == pytest.approx(mean(token_counts), abs=1e-9)
        assert stats.stddev_token_length == pytest.approx(pstd(token_counts), abs=1e-9)
        assert stats.mean_sections_per_doc == pytest.approx(mean(section_counts), abs=1e-9)
        assert stats.stddev_sections_per_doc == pytest.approx(pstd(section_counts), abs=1e-9)


def test_synthetic_corpora_are_valid():
    rng = random.Random(5)
    corpus = make_synthetic_corpus(rng, 30)
    assert validate_corpus(corpus) == []
    assert statistics.fmean([len(d.sections) for d in corpus]) >= 0


def _with_bodies(doc):
    """Give each section the body from its header's end to the next header."""
    nexts = [sec.header_span[0] for sec in doc.sections[1:]] + [len(doc.text)]
    for sec, nxt in zip(doc.sections, nexts):
        if sec.header_span[1] < nxt:
            sec.body_span = (sec.header_span[1], nxt)
    return doc


def _mutate(rng, doc):
    """Break one span invariant of ``doc``, or none, at random."""
    n = len(doc.text)
    i = rng.randrange(len(doc.sections))
    sec = doc.sections[i]
    what = rng.randrange(5)
    if what == 0:  # move the header anywhere, half the time keeping raw_header in step
        start, end = rng.randint(-2, n + 2), rng.randint(-2, n + 2)
        sec.header_span = (start, end)
        if rng.random() < 0.5 and 0 <= start:
            sec.raw_header = doc.text[start:end]
    elif what == 1:  # nudge the header by a few characters
        start, end = (p + rng.randint(-3, 3) for p in sec.header_span)
        sec.header_span = (start, end)
        if 0 <= start:
            sec.raw_header = doc.text[start:end]
    elif what == 2:  # move the body anywhere
        sec.body_span = (rng.randint(-2, n + 2), rng.randint(-2, n + 2))
    elif what == 3 and sec.body_span is not None:  # nudge the body
        sec.body_span = tuple(p + rng.randint(-3, 3) for p in sec.body_span)
    else:  # swap two sections
        j = rng.randrange(len(doc.sections))
        doc.sections[i], doc.sections[j] = doc.sections[j], doc.sections[i]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 6))
def test_load_agrees_with_validate_on_mutated_notes(tmp_path_factory, rng, n_mutations):
    docs = [_with_bodies(make_synthetic_doc(rng, f"d{k}", min_sections=1)) for k in range(3)]
    for _ in range(n_mutations):
        _mutate(rng, rng.choice(docs))
    issues = validate_corpus(docs)
    path = tmp_path_factory.mktemp("mutated") / "corpus.jsonl"
    save_gold_corpus(docs, path)

    if issues:
        with pytest.raises(SpanError):
            load_gold_corpus(path, strict=True)
    else:
        assert load_gold_corpus(path, strict=True) == docs

    flagged = {(issue.doc_id, issue.section, issue.kind == BODY_SPAN_INVALID) for issue in issues}
    expected = [
        AnnotatedDocument(doc.document, [
            SectionAnnotation(
                sec.label, sec.header_span, sec.raw_header,
                None if (doc.id, i, True) in flagged else sec.body_span,
            )
            for i, sec in enumerate(doc.sections)
            if (doc.id, i, False) not in flagged
        ])
        for doc in docs
    ]
    lenient = load_gold_corpus(path, strict=False)
    assert lenient == expected
    assert validate_corpus(lenient) == []


def test_lenient_load_drops_overlapping_section_with_bad_body(tmp_path):
    text = "Alpha: one\nBeta: two\n"
    doc = AnnotatedDocument(Document("d1", text), [
        SectionAnnotation("Alpha", (0, 10), text[0:10]),
        SectionAnnotation("Beta", (5, 15), text[5:15], body_span=(2, 3)),
    ])
    assert [(i.kind, i.section) for i in validate_corpus([doc])] == [(OVERLAPPING_SPANS, 1)]
    path = tmp_path / "overlap.jsonl"
    save_gold_corpus([doc], path)
    with pytest.raises(SpanError, match=f"{path} line 1: document 'd1': section 1 "):
        load_gold_corpus(path, strict=True)
    docs = load_gold_corpus(path, strict=False)
    assert [s.label for s in docs[0].sections] == ["Alpha"]


def test_only_corpus_decodes_user_files():
    """Every reader opens a user file through ``corpus.open_text``, so no other
    module meets a decode error or calls ``json.load`` on a file itself."""
    package = Path(sectionid.__file__).parent
    sources = {path.relative_to(package).as_posix(): path.read_text(encoding="utf-8")
               for path in package.rglob("*.py")}
    for token in ("UnicodeDecodeError", "json.load("):
        assert [name for name, code in sources.items() if token in code] == ["corpus.py"]


NEW_TEXT = "Allergies: n\u00f6ne\nPlan: rest\n"


@pytest.mark.parametrize("old", [None, b"x" * 100, b"x"], ids=["new", "longer", "shorter"])
def test_write_output_leaves_exactly_the_new_bytes(tmp_path, old):
    path = tmp_path / "out.txt"
    if old is not None:
        path.write_bytes(old)
    write_output(path, NEW_TEXT)
    assert path.read_bytes() == NEW_TEXT.encode("utf-8")


def test_write_output_writes_through_a_symlink(tmp_path):
    target = tmp_path / "target.txt"
    target.write_bytes(b"an old output, longer than the new one\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    write_output(link, NEW_TEXT)
    assert link.is_symlink()
    assert target.read_bytes() == NEW_TEXT.encode("utf-8")


def test_write_output_keeps_hard_links(tmp_path):
    first = tmp_path / "first.txt"
    first.write_bytes(b"an old output, longer than the new one\n")
    second = tmp_path / "second.txt"
    os.link(first, second)
    write_output(second, NEW_TEXT)
    assert first.read_bytes() == second.read_bytes() == NEW_TEXT.encode("utf-8")
    assert first.stat().st_ino == second.stat().st_ino


def test_write_output_keeps_the_mode(tmp_path):
    path = tmp_path / "private.txt"
    path.write_bytes(b"old\n")
    path.chmod(0o600)
    write_output(path, NEW_TEXT)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_write_output_refuses_text_utf8_cannot_hold(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_bytes(b"old\n")
    message = f"{path} line 2: cannot be written as UTF-8: '\\ud800' (surrogates not allowed)"
    with pytest.raises(FormatError, match=re.escape(message)):
        write_output(path, '{"id": "a"}\n{"id": "b\ud800"}\n')
    assert path.read_bytes() == b"old\n"


def test_normalize_writes_to_a_device(capsys):
    assert main(["normalize", "--names", str(FIXTURES / "order_variants.txt"),
                 "--out", os.devnull]) == OK
    assert capsys.readouterr().out


def test_normalize_out_naming_a_directory_is_fatal(tmp_path, capsys):
    code = main(["normalize", "--names", str(FIXTURES / "order_variants.txt"),
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err.startswith("error: ") and err.count("\n") == 1


# Every record of the package, the arguments to build one, and its
# constructor's parameters as they were when the records were dataclasses:
# a default by its repr, and "<factory>" for a fresh object per instance.
_RECORDS = [
    (Document, ("d", "Plan: rest"), "id, text, source_kind='ehr_clean'"),
    (SectionAnnotation, ("Plan", (0, 5), "Plan:"), "label, header_span, raw_header, body_span=None"),
    (AnnotatedDocument, (Document("d", "x"),), "document, sections=<factory>"),
    (
        CorpusStats, (1, 2.0, 0.0, 1.0, 0.0),
        "document_count, mean_token_length, stddev_token_length, mean_sections_per_doc, "
        "stddev_sections_per_doc",
    ),
    (ValidationIssue, (DUPLICATE_ID, "d", "repeated"), "kind, doc_id, message, section=None"),
    (HeaderMatch, (0, (0, 4), "exact"), "prediction_index, span, match_kind"),
    (AlignmentResult, (), "matches=<factory>, unmatched_predictions=<factory>"),
    (Prediction, (["Plan"],), "headers, spans=None"),
    (Ontology, ({"UNKNOWN", "A"}, {"a": "A"}), "categories, surface_map, levels=<factory>"),
    (CategoryCount, (1, 2, 50.0), "section_count, frequency, frequency_pct"),
    (CategoryStats, ({}, 0), "rows, total_sections"),
    (HeaderLexicon, ({"Plan"},), "entries"),
    (
        Counts, (),
        "tp=0, fp=0, fn=0, gold_tokens=0, pred_tokens=0, gold_headers=0, matched_exact=0, "
        "role_correct=0, total_tokens=0, equal_tokens=0",
    ),
    (TokenMetrics, (Counts(),), "counts"),
    (DocScore, (Counts(), "d"), "counts, doc_id, unmatched_headers=<factory>"),
    (MetricsReport, (Counts(), 1.0), "counts, em"),
    (RunReport, ("rules", "corpus", MetricsReport(Counts(), 1.0), []), "method, corpus, report, per_doc"),
    (IAAReport, (1.0, []), "mean_jaccard, per_pair"),
    (
        LLMConfig, (),
        "endpoint_url='', model_name='gpt-4', temperature=0.0, frequency_penalty=0.0, "
        "presence_penalty=0.0, max_tokens=1000, timeout=60.0, max_retries=3, max_in_flight=4, "
        "backoff_base=0.5, api_key_env='SECTIONID_API_TOKEN', max_context_chars=None",
    ),
    (ChatResult, (200, {}), "status, body"),
    (ExtractionFailure, ("d", "ReplayMiss: none"), "doc_id, error"),
    (
        PromptStrategy, ("zero_shot",),
        "kind, example_doc=None, example_headers=<factory>, label_set=<factory>",
    ),
]


@pytest.mark.parametrize("cls, args, parameters", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_record_keeps_its_dataclass_semantics(cls, args, parameters):
    a, b = cls(*args), cls(*args)
    rendered = []
    for p in inspect.signature(cls).parameters.values():
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        if p.default is p.empty:
            rendered.append(p.name)
        elif p.default is None and getattr(a, p.name) is not None:
            # an empty container of its own, as a default_factory gave
            value = getattr(a, p.name)
            assert value == type(value)() and value is not getattr(b, p.name)
            rendered.append(f"{p.name}=<factory>")
        else:
            rendered.append(f"{p.name}={p.default!r}")
    assert ", ".join(rendered) == parameters
    assert cls._fields == tuple(inspect.signature(cls).parameters)

    assert a == b and not a != b
    for name in cls._fields:
        changed = cls(*args)
        setattr(changed, name, object())
        assert changed != a and a != changed
    other = type("Other", (cls,), {})(*args)
    assert a != other and other != a
    assert a.__eq__(object()) is NotImplemented

    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls._fields)
    assert repr(a) == f"{cls.__name__}({fields})"
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    # slotted, unless it keeps attributes outside its fields
    assert hasattr(a, "__dict__") == (cls in (Ontology, HeaderLexicon))


@pytest.mark.parametrize("cls", [r[0] for r in _RECORDS], ids=[r[0].__name__ for r in _RECORDS])
def test_record_defaults_name_its_fields(cls):
    assert set(cls._defaults) <= set(cls._fields)


def test_record_repr_is_the_dataclass_format():
    assert repr(Document("d", "x")) == "Document(id='d', text='x', source_kind='ehr_clean')"
    assert repr(DocScore(Counts(tp=1), "d")) == (
        "DocScore(counts=Counts(tp=1, fp=0, fn=0, gold_tokens=0, pred_tokens=0, gold_headers=0, "
        "matched_exact=0, role_correct=0, total_tokens=0, equal_tokens=0), doc_id='d', "
        "unmatched_headers=[])"
    )
    assert repr(HeaderLexicon({"Plan"})) == "HeaderLexicon(entries={'Plan'})"
