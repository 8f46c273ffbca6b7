from __future__ import annotations

import json
import re
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import StaticClient, record_thread_starts
from sectionid.align import align_headers
from sectionid.corpus import Document
from sectionid.errors import ParseError
from sectionid.llm import LLMConfig, PromptStrategy, chunk_text, extract_corpus, extract_headers
from sectionid.llm.client import ChatResult

CONFIG = LLMConfig(backoff_base=0.0)
ZS = PromptStrategy.zero_shot()


def test_extract_headers_happy_path():
    client = StaticClient('[{"section_title": "Allergies"}, {"section_title": "Plan"}]')
    doc = Document("d", "Allergies: none\nPlan: rest\n")
    pred = extract_headers(doc, ZS, CONFIG, client)
    assert pred.headers == ["Allergies", "Plan"]
    assert not pred.grounded
    assert client.calls == 1


def test_empty_document_skips_endpoint():
    client = StaticClient("[]")
    pred = extract_headers(Document("d", "   \n"), ZS, CONFIG, client)
    assert pred.headers == []
    assert client.calls == 0


def test_parse_error_propagates():
    client = StaticClient("no structure at all")
    with pytest.raises(ParseError):
        extract_headers(Document("d", "Plan: rest\n"), ZS, CONFIG, client)


def test_chunk_text_respects_budget_and_splits_disjointly():
    lines = [f"line {i} with some filler text\n" for i in range(40)]
    text = "".join(lines)
    chunks = chunk_text(text, budget=300)
    assert len(chunks) > 1
    for chunk in chunks:
        assert len(chunk) <= 300
    # disjoint: the chunks join back to the text
    assert "".join(chunks) == text
    # every line no longer than the budget lies whole in exactly one chunk
    offsets = [0]
    for chunk in chunks:
        offsets.append(offsets[-1] + len(chunk))
    start = 0
    for line in lines:
        end = start + len(line)
        holders = [i for i in range(len(chunks)) if offsets[i] <= start and end <= offsets[i + 1]]
        assert len(holders) == 1, line
        start = end


def test_chunk_text_short_input_is_single_chunk():
    assert chunk_text("short", 100) == ["short"]


def test_chunk_text_refuses_a_budget_below_one():
    with pytest.raises(ValueError, match="budget must be >= 1"):
        chunk_text("short", 0)


def _quadratic_chunk_text(text: str, budget: int) -> list[str]:
    """Reference chunker: rescans every line start for each chunk."""
    if len(text) <= budget:
        return [text]
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n" and i + 1 < len(text)]
    chunks: list[str] = []
    begin = 0
    while begin < len(text):
        end = min(begin + budget, len(text))
        if end < len(text):
            candidates = [s for s in starts if begin < s <= end]
            if candidates:
                end = candidates[-1]
        chunks.append(text[begin:end])
        begin = end
    return chunks


@given(st.text(alphabet="ab \n", max_size=300), st.integers(1, 80))
def test_chunk_text_matches_reference_chunker(text, budget):
    assert chunk_text(text, budget) == _quadratic_chunk_text(text, budget)


def test_chunked_extraction_keeps_repeats_at_seams():
    # every chunk answers Plan; the note holds one, so grounding places the
    # first answer and lists the rest as unmatched
    doc = Document("d", ("alpha\n" * 30) + "Plan: rest\n" + ("omega\n" * 30))
    client = StaticClient('[{"section_title": "Plan"}]')
    config = LLMConfig(backoff_base=0.0, max_context_chars=120)
    pred = extract_headers(doc, ZS, config, client)
    assert client.calls > 1
    assert pred.headers == ["Plan"] * client.calls
    result = align_headers(doc, pred)
    plan = doc.text.index("Plan")
    assert [(m.prediction_index, m.span, m.match_kind) for m in result.matches] == [
        (0, (plan, plan + 4), "exact")
    ]
    assert result.unmatched_predictions == list(range(1, client.calls))


@pytest.mark.parametrize("text, answer, spans", [
    ("Plan: a\nHPI: b\nPlan: c\n", ["Plan", "HPI", "Plan"], [(0, 4), (8, 11), (15, 19)]),
    ("Plan: a\nPlan: b\n", ["Plan", "Plan"], [(0, 4), (8, 12)]),
])
def test_repeated_sections_are_all_grounded(text, answer, spans):
    doc = Document("d", text)
    client = StaticClient(json.dumps([{"section_title": h} for h in answer]))
    pred = extract_headers(doc, ZS, CONFIG, client)
    assert pred.headers == answer
    result = align_headers(doc, pred)
    assert [(m.span, m.match_kind) for m in result.matches] == [(s, "exact") for s in spans]
    assert result.unmatched_predictions == []


class EchoClient:
    """Answers each prompt with the header lines (``Name:``) of its note."""

    def send(self, payload):
        content = payload["messages"][-1]["content"]
        note = content[content.index(" ### ") + 5:content.rindex(" ###")]
        titles = [line[:-1] for line in note.split("\n") if line.endswith(":")]
        body = json.dumps([{"section_title": t} for t in titles])
        return ChatResult(200, {"choices": [{"message": {"content": body}, "finish_reason": "stop"}]})


def _echo_headers(text: str, budget: int | None) -> list[str]:
    config = LLMConfig(backoff_base=0.0, max_context_chars=budget)
    return extract_headers(Document("d", text), ZS, config, EchoClient()).headers


ECHO_LINES = ["Plan:", "HPI:", "Allergies:", "rest", "no known drug allergies", ""]


@given(st.lists(st.sampled_from(ECHO_LINES), min_size=1, max_size=40), st.integers(0, 120))
def test_chunked_extraction_equals_unchunked(lines, extra):
    text = "\n".join(lines) + "\n"
    # every line fits the budget with its newline, so no line is cut
    budget = max(len(line) + 1 for line in lines) + extra
    assert _echo_headers(text, budget) == _echo_headers(text, None)


def test_headers_near_a_seam_come_back_once():
    # B1 and C1 both lie in the last 200 characters of the first chunk, the
    # stretch an overlapping chunker would send again with the second one
    filler = "x" * 39 + "\n"
    text = filler * 7 + "B1:\n" + filler * 2 + "C1:\n" + filler * 6 + "D1:\n" + filler * 2
    assert _echo_headers(text, None) == ["B1", "C1", "D1"]
    assert _echo_headers(text, 400) == ["B1", "C1", "D1"]


class SlowCountingClient:
    """Tracks the maximum number of concurrent sends.

    A note ``Sec<i>: ...`` waits ``delay(i)`` seconds, and the notes named in
    ``failing`` get an answer that does not parse.
    """

    def __init__(self, content: str, delay, failing):
        self.content = content
        self.delay = delay
        self.failing = set(failing)
        self.lock = threading.Lock()
        self.active = 0
        self.peak = 0

    def send(self, payload):
        i = int(re.search(r"Sec(\d+):", payload["messages"][-1]["content"]).group(1))
        with self.lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(self.delay(i))
        with self.lock:
            self.active -= 1
        content = "unparsable prose" if i in self.failing else self.content
        return ChatResult(
            200,
            {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]},
        )


def test_batch_respects_max_in_flight_and_order(capsys):
    # early notes wait longest, so the pool finishes them last; the results,
    # the failures and their warning lines still come back in document order
    docs = [Document(f"d{i}", f"Sec{i}: body\n") for i in range(12)]
    client = SlowCountingClient(
        '[{"section_title": "Sec"}]', delay=lambda i: 0.003 * (12 - i), failing=(4, 9),
    )
    config = LLMConfig(backoff_base=0.0, max_in_flight=3)
    predictions, failures = extract_corpus(docs, ZS, config, client)
    assert list(predictions) == [d.id for d in docs]
    assert [predictions[d.id].headers for d in docs] == [
        [] if i in (4, 9) else ["Sec"] for i in range(12)
    ]
    assert [f.doc_id for f in failures] == ["d4", "d9"]
    warned = [line for line in capsys.readouterr().err.splitlines() if "failed" in line]
    assert [line.split(" failed: ")[0] for line in warned] == [
        "warning: document d4", "warning: document d9",
    ]
    assert client.peak <= 3


def test_batch_runs_a_single_document_on_the_calling_thread(monkeypatch):
    # a pool only pays while several requests wait on a network at once
    started = record_thread_starts(monkeypatch)
    config = LLMConfig(backoff_base=0.0, max_in_flight=4)
    client = StaticClient('[{"section_title": "Plan"}]')
    predictions, failures = extract_corpus([Document("d0", "Plan: rest\n")], ZS, config, client)
    assert predictions["d0"].headers == ["Plan"] and failures == []
    assert started == []
    # the counter sees the pool that two documents start
    extract_corpus([Document(f"d{i}", "Plan: rest\n") for i in range(2)], ZS, config, client)
    assert started


def test_batch_records_failures_and_continues():
    docs = [
        Document("good", "Plan: rest\n"),
        Document("bad", "Notes: text\n"),
    ]

    class PickyClient:
        def send(self, payload):
            content = (
                "unparsable prose"
                if "Notes" in payload["messages"][-1]["content"]
                else '[{"section_title": "Plan"}]'
            )
            return ChatResult(
                200,
                {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]},
            )

    predictions, failures = extract_corpus(docs, ZS, CONFIG, PickyClient())
    assert predictions["good"].headers == ["Plan"]
    assert predictions["bad"].headers == []
    assert len(failures) == 1
    assert failures[0].doc_id == "bad"
    assert "ParseError" in failures[0].error
