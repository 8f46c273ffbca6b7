"""Shared fixtures: synthetic corpora, the replay store, acceptance summary."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from sectionid.align import line_starts
from sectionid.baselines import HeaderLexicon
from sectionid.corpus import AnnotatedDocument, Document, SectionAnnotation, load_gold_corpus
from sectionid.errors import LengthMismatch, MalformedTags
from sectionid.llm import LLMConfig, PromptStrategy, RecordingClient, extract_headers
from sectionid.llm.client import ChatResult
from sectionid.metrics import Counts
from sectionid.prediction import Prediction
from sectionid.tokenizer import B, I, O, is_well_formed, tokenize

FIXTURES = Path(__file__).parent / "fixtures"

# Header vocabulary for synthetic notes. Every entry carries uppercase
# letters while synthetic bodies are strictly lowercase, so an in-order
# exact search can never fire early inside a body.
HEADER_VOCAB = [
    "Allergies",
    "Chief Complaint",
    "Family History",
    "Past Medical History",
    "Physical Exam",
    "Review of Systems",
    "Assessment and Plan",
    "Current Medications",
    "Social History",
    "Hospital Course",
    "Discharge Instructions",
    "Vital Signs",
    "Laboratory Results",
    "Imaging Findings",
    "Plan",
    "Impression",
]

BODY_WORDS = (
    "patient denies reports stable mild severe chronic acute daily noted "
    "continue monitor follow tablet oral history since without improved "
    "unchanged bilateral normal exam today review discussed"
).split()


def make_synthetic_doc(
    rng: random.Random,
    doc_id: str,
    min_sections: int = 0,
    max_sections: int = 6,
    vocab: list[str] | None = None,
) -> AnnotatedDocument:
    """One synthetic note whose gold headers are recoverable by exact search."""
    vocab = vocab if vocab is not None else HEADER_VOCAB
    n = rng.randint(min_sections, max_sections)
    headers = rng.sample(vocab, n)
    parts: list[str] = []
    pos = 0
    sections: list[SectionAnnotation] = []
    if rng.random() < 0.3:
        preamble = " ".join(rng.choices(BODY_WORDS, k=rng.randint(1, 6))) + "\n"
        parts.append(preamble)
        pos += len(preamble)
    for header in headers:
        start = pos
        parts.append(header)
        pos += len(header)
        sections.append(
            SectionAnnotation(label=header, header_span=(start, pos), raw_header=header)
        )
        colon = ":" if rng.random() < 0.8 else ""
        body_words = rng.choices(BODY_WORDS, k=rng.randint(0, 10))
        tail = colon + (" " + " ".join(body_words) if body_words else "") + "\n"
        parts.append(tail)
        pos += len(tail)
    return AnnotatedDocument(Document(doc_id, "".join(parts)), sections)


def make_synthetic_corpus(
    rng: random.Random, n_docs: int, **kwargs: object
) -> list[AnnotatedDocument]:
    return [make_synthetic_doc(rng, f"doc{i}", **kwargs) for i in range(n_docs)]


def perturb_header(rng: random.Random, header: str) -> str:
    """OCR-style character noise: substitutions at 5% of length, at most 2.

    Headers shorter than ten characters stay clean; one flipped character
    there would exceed any reasonable edit budget.
    """
    n_edits = min(2, int(0.05 * len(header) + 0.5))
    chars = list(header)
    for pos in rng.sample(range(len(chars)), k=min(n_edits, len(chars))):
        replacement = rng.choice("abcdefghijklmnopqrstuvwxyz")
        while replacement == chars[pos]:
            replacement = rng.choice("abcdefghijklmnopqrstuvwxyz")
        chars[pos] = replacement
    return "".join(chars)


def reference_keyword_segment(doc: Document, lexicon: HeaderLexicon) -> Prediction:
    """Oracle for ``baselines.keyword_segment``: every line scans the whole
    lexicon, longest entry first. A match is the span ``[indent, indent +
    len(entry))`` of its line, lies inside the line, and lowercases to the
    lowercased entry."""
    ordered = sorted(lexicon.entries, key=lambda e: (-len(e), e))
    headers: list[str] = []
    spans: list[tuple[int, int]] = []
    for line_start, line in zip(line_starts(doc.text), doc.text.split("\n")):
        content = line.lstrip()
        indent = len(line) - len(content)
        for entry in ordered:
            if indent + len(entry) > len(line):
                continue
            if line[indent:indent + len(entry)].lower() != entry.lower():
                continue
            tail = content[len(entry):]
            if tail and tail[0].isalnum():
                continue
            start = line_start + indent
            end = start + len(entry)
            headers.append(doc.text[start:end])
            spans.append((start, end))
            break
    return Prediction(headers=headers, spans=spans)


def reference_spans_to_iob(tokens, header_spans) -> list[str]:
    """Oracle for ``tokenizer.spans_to_iob``: one Python step per token."""
    tags: list[str] = []
    idx = 0
    opened = -1  # index of the span whose B we already emitted
    for tok in tokens:
        while idx < len(header_spans) and header_spans[idx][1] <= tok.start:
            idx += 1
        if idx < len(header_spans) and header_spans[idx][0] < tok.end:
            tags.append(I if opened == idx else B)
            opened = idx
        else:
            tags.append(O)
    return tags


def reference_token_counts(gold_tags, pred_tags) -> Counts:
    """Oracle for ``metrics.token_counts``: one Python step per token pair."""
    if len(gold_tags) != len(pred_tags):
        raise LengthMismatch(f"{len(gold_tags)} gold tags vs {len(pred_tags)} predicted")
    if not is_well_formed(list(gold_tags)) or not is_well_formed(list(pred_tags)):
        raise MalformedTags("tag sequences must be well-formed IOB")
    counts = Counts(total_tokens=len(gold_tags))
    for g, p in zip(gold_tags, pred_tags):
        gold_header = g != O
        pred_header = p != O
        counts.gold_tokens += gold_header
        counts.pred_tokens += pred_header
        counts.tp += gold_header and pred_header
        counts.fp += pred_header and not gold_header
        counts.fn += gold_header and not pred_header
        counts.role_correct += gold_header and g == p
        counts.equal_tokens += g == p
    return counts


def reference_span_counts(text, gold_spans, pred_spans) -> Counts:
    """Oracle for ``metrics.span_counts``: tokens, per-token tags, per-pair counts."""
    tokens = tokenize(text)
    return reference_token_counts(
        reference_spans_to_iob(tokens, gold_spans), reference_spans_to_iob(tokens, pred_spans)
    )


class StaticClient:
    """Chat client that always answers with the same canned content."""

    def __init__(self, content: str):
        self.content = content
        self.calls = 0

    def send(self, payload: dict) -> ChatResult:
        self.calls += 1
        return ChatResult(
            status=200,
            body={
                "choices": [
                    {"message": {"content": self.content}, "finish_reason": "stop"}
                ]
            },
        )


@pytest.fixture(scope="session")
def gold_small() -> list[AnnotatedDocument]:
    return load_gold_corpus(FIXTURES / "gold_small.jsonl")


@pytest.fixture(scope="session")
def replay_llm_config() -> LLMConfig:
    return LLMConfig(model_name="gpt-4", backoff_base=0.0)


@pytest.fixture(scope="session")
def replay_store(tmp_path_factory, gold_small, replay_llm_config) -> Path:
    """Record the canned responses once, then serve every test from the store."""
    store = tmp_path_factory.mktemp("replay")
    strategy = PromptStrategy.zero_shot()
    for doc in gold_small:
        canned = (FIXTURES / "responses" / f"{doc.id}.txt").read_text(encoding="utf-8")
        client = RecordingClient(StaticClient(canned), store)
        extract_headers(doc.document, strategy, replay_llm_config, client)
    return store


ACCEPTANCE_CRITERIA = {
    "test_criterion_1_paper_scale_results_out_of_reach": (
        "1", "paper-scale LLM results need hosted models and licensed corpora; "
        "covered by criteria 2-8 instead"),
    "test_criterion_2_iob_roundtrip": (
        "2", "IOB roundtrip exact on 1000 random span sets in < 5 s"),
    "test_criterion_3_metric_oracle_equivalence": (
        "3", "token metrics match a brute-force counter on 500 random tag pairs"),
    "test_criterion_4_gold_echo": (
        "4", "gold-echo predictions score P=R=F1=EM=1.0 on 100 random corpora"),
    "test_criterion_5_ontology_fixtures": (
        "5", "43/43 medication+order variants categorize; reference row 958 @ 60.98%"),
    "test_criterion_6_alignment_robustness": (
        "6", ">= 95% span recovery under character noise, 100% clean"),
    "test_criterion_7_replay_determinism": (
        "7", "replay pipeline byte-identical and equal to hand-computed metrics"),
    "test_criterion_8_prompt_fidelity": (
        "8", "all four prompt templates carry their anchor phrases verbatim"),
    "test_criterion_9_regex_baseline_sanity": (
        "9", "regex segmenter finds exactly the 6 planted headers with correct spans"),
}

_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if name in ACCEPTANCE_CRITERIA and report.when == "call":
        _acceptance_results[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, (number, description) in ACCEPTANCE_CRITERIA.items():
        outcome = _acceptance_results.get(name)
        if outcome is None:
            continue
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"CRITERION {number}: {status} - {description}")
