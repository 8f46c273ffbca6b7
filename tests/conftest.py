"""Shared fixtures: synthetic corpora, the replay store, acceptance summary."""

from __future__ import annotations

import csv
import math
import random
import threading
from bisect import bisect_left
from itertools import islice
from pathlib import Path
from typing import Sequence

import pytest

from sectionid import ontology
from sectionid.align import _LINE_PREFIX_LIMIT, _fold, line_starts
from sectionid.baselines import DEFAULT_RULES, HeaderLexicon, Rule
from sectionid.corpus import (
    AnnotatedDocument,
    Document,
    SectionAnnotation,
    load_gold_corpus,
    open_text,
)
from sectionid.errors import FormatError
from sectionid.llm import LLMConfig, PromptStrategy, RecordingClient, extract_headers
from sectionid.llm.client import ChatResult
from sectionid.metrics import Counts, token_counts
from sectionid.prediction import Prediction
from sectionid.textdist import edit_ratio, prefix_distances
from sectionid.tokenizer import spans_to_iob, tokenize

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
    for line_start, line in zip(line_starts(doc.text.split("\n")), doc.text.split("\n")):
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


def reference_regex_segment(doc: Document, rules: Sequence[Rule] = DEFAULT_RULES) -> Prediction:
    """Oracle for ``baselines.regex_segment``: per line, the first rule that
    matches wins, trimmed of trailing space and one ':'; a match that trims
    to nothing still ends the line's rule search."""
    headers: list[str] = []
    spans: list[tuple[int, int]] = []
    for line_start, line in zip(line_starts(doc.text.split("\n")), doc.text.split("\n")):
        for rule in rules:
            rel = rule(line)
            if rel is None:
                continue
            start, end = line_start + rel[0], line_start + rel[1]
            text = doc.text[start:end].rstrip()
            text = text[:-1].rstrip() if text.endswith(":") else text
            end = start + len(text)
            if end > start:
                headers.append(doc.text[start:end])
                spans.append((start, end))
            break
    return Prediction(headers=headers, spans=spans)


def reference_rule_segment(
    doc: Document, lexicon: HeaderLexicon, rules: Sequence[Rule] = DEFAULT_RULES
) -> Prediction:
    """Oracle for ``baselines.rule_segment``: both segmenters over the whole
    note, then every regex span that overlaps no keyword span, sorted."""
    kw = reference_keyword_segment(doc, lexicon)
    rx = reference_regex_segment(doc, rules)
    merged = list(zip(kw.spans or [], kw.headers))
    for span, header in zip(rx.spans or [], rx.headers):
        if not any(span[0] < k_end and k_start < span[1] for k_start, k_end in kw.spans or []):
            merged.append((span, header))
    merged.sort(key=lambda item: item[0])
    return Prediction(headers=[h for _, h in merged], spans=[s for s, _ in merged])


def reference_span_counts(text, gold_spans, pred_spans) -> Counts:
    """Oracle for ``metrics.span_counts``: tokens, IOB tags, per-token counts."""
    tokens = tokenize(text)
    return token_counts(spans_to_iob(tokens, gold_spans), spans_to_iob(tokens, pred_spans))


def reference_exact_match_count(gold_headers: Sequence[str], pred_headers: Sequence[str]) -> int:
    """Oracle for ``metrics.exact_match_count``: each gold header, in order,
    removes the first equal normalized prediction left."""
    remaining = [ontology.normalize_surface(p) for p in pred_headers]
    matched = 0
    for gold in gold_headers:
        norm = ontology.normalize_surface(gold)
        try:
            remaining.remove(norm)
        except ValueError:
            continue
        matched += 1
    return matched


def reference_prefix_distances(needle: str, haystack: str) -> list[int]:
    """Oracle for ``textdist.prefix_distances``: the O(len(needle) *
    len(haystack)) Wagner-Fischer table, last row."""
    prev = list(range(len(haystack) + 1))
    for i, ca in enumerate(needle, 1):
        row = [i]
        for j, cb in enumerate(haystack, 1):
            cost = 0 if ca == cb else 1
            row.append(min(row[-1] + 1, prev[j] + 1, prev[j - 1] + cost))
        prev = row
    return prev


def reference_fuzzy_line_match(
    text: str, starts: list[int], header: str, cursor: int, max_edit_ratio: float
) -> tuple[int, int] | None:
    """Oracle for ``align._fuzzy_line_match``: every line from the cursor on
    is sliced, folded and compared by DP, with no filter."""
    needle = _fold(header)
    slack = math.ceil(max_edit_ratio * len(needle)) + 1
    for start in islice(starts, bisect_left(starts, cursor), None):
        newline = text.find("\n", start)
        line_end = len(text) if newline == -1 else newline
        candidate = text[start:min(start + _LINE_PREFIX_LIMIT, line_end)]
        if not candidate.strip():
            continue
        lo = max(1, len(needle) - slack)
        hi = min(len(candidate), len(needle) + slack)
        if lo > hi:
            continue
        row = prefix_distances(needle, _fold(candidate)[:hi])
        best: tuple[float, int, int] | None = None
        for k in range(lo, hi + 1):
            ratio = row[k] / max(len(needle), k)
            key = (ratio, abs(k - len(needle)), k)
            if best is None or key < best:
                best = key
        if best is not None and best[0] <= max_edit_ratio:
            return (start, start + best[2])
    return None


def reference_categorize(name: str, ont: ontology.Ontology) -> str:
    """Oracle for ``ontology.categorize``: an exact lookup, then the edit
    ratio to every surface, with no length or 2-gram filter."""
    surface = ontology.normalize_surface(name)
    if not surface:
        return ontology.UNKNOWN
    hit = ont.surface_map.get(surface)
    if hit is not None:
        return hit
    scored = [(edit_ratio(surface, c), c) for c in ont.surface_map]
    best = min((key for key in scored if key[0] <= ontology.FUZZY_RATIO), default=None)
    return ontology.UNKNOWN if best is None else ont.surface_map[best[1]]


def reference_load_ontology(src: Path) -> ontology.Ontology:
    """Oracle for ``ontology.load_ontology``: the row loop as first written,
    one plain check per refusal."""
    categories: set[str] = set()
    surface_map: dict[str, str] = {}
    levels: dict[str, str] = {}
    with open_text(src) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["surface_form", "category"]:
            raise FormatError(
                f"{src}: taxonomy file must start with a surface_form,category,level header"
            )
        for row_no, row in enumerate(reader, 2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2 or not row[1].strip():
                raise FormatError(f"{src} row {row_no}: missing category")
            category = row[1].strip()
            level = row[2].strip().lower() if len(row) > 2 and row[2].strip() else ontology.COARSE
            if level not in (ontology.COARSE, ontology.FINE):
                raise FormatError(f"{src} row {row_no}: level must be coarse or fine")
            categories.add(category)
            surface = ontology.normalize_surface(row[0])
            if not surface:
                continue
            previous = surface_map.get(surface)
            if previous is not None and previous != category:
                raise FormatError(
                    f"{src} row {row_no}: surface {surface!r} already maps to {previous!r}"
                )
            surface_map[surface] = category
            levels[surface] = level
    if not categories:
        raise FormatError(f"{src}: taxonomy declares no categories, not even {ontology.UNKNOWN!r}")
    categories.add(ontology.UNKNOWN)
    return ontology.Ontology(categories=categories, surface_map=surface_map, levels=levels)


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


def record_thread_starts(monkeypatch) -> list[threading.Thread]:
    """Record every thread started from now on, for work-count guards."""
    started: list[threading.Thread] = []
    original = threading.Thread.start

    def start(self):
        started.append(self)
        original(self)
    monkeypatch.setattr(threading.Thread, "start", start)
    return started


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
