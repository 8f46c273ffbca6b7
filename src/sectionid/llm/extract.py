"""End-to-end header extraction: prompt, complete, parse, and batch over a corpus."""

from __future__ import annotations

from typing import Iterator

from ..corpus import Document, Record
from ..errors import FormatError, SectionIdError, warn
from ..prediction import Prediction
from .client import ChatClient, LLMConfig, complete
from .parsing import parse_llm_response
from .prompts import PromptStrategy, build_prompt


def chunk_text(text: str, budget: int) -> list[str]:
    """Split text into disjoint pieces of at most ``budget`` chars.

    Each piece ends at the last line start inside its window, so every line
    no longer than ``budget`` lies whole in exactly one piece; only a longer
    line is cut. The pieces join back to ``text``.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if len(text) <= budget:
        return [text]
    chunks: list[str] = []
    begin = 0
    while begin < len(text):
        end = min(begin + budget, len(text))
        if end < len(text):
            # retreat to the last line start in (begin, end]: one past the
            # window's last '\n' before end, or 0 when it holds none
            last = text.rfind("\n", begin, end) + 1
            if last > begin:
                end = last
        chunks.append(text[begin:end])
        begin = end
    return chunks


def extract_headers(
    doc: Document,
    strategy: PromptStrategy,
    config: LLMConfig,
    client: ChatClient,
) -> Prediction:
    """Run prompt -> completion -> parse for one document.

    A document above the configured context budget is sent as disjoint
    chunks (``chunk_text``), and their header lists are concatenated in
    order. Every header the model names is kept, repeats included: a note
    may hold two sections of one name, and grounding places each repeat at
    the next occurrence or lists it as unmatched.
    A note holding text UTF-8 cannot encode (a lone surrogate from a JSON
    escape), which no request body or replay key can hold, raises FormatError
    before any request. Transport and parse errors propagate; batch callers
    turn them into empty predictions plus a failure record.
    """
    if not doc.text.strip():
        return Prediction(headers=[])
    try:
        doc.text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(
            f"text holds {doc.text[exc.start]!r} at offset {exc.start}, which UTF-8 cannot encode"
        ) from exc
    budget = config.max_context_chars
    pieces = (
        [doc.text] if budget is None else chunk_text(doc.text, budget)
    )
    headers: list[str] = []
    for piece in pieces:
        system, user = build_prompt(strategy, Document(doc.id, piece, doc.source_kind))
        headers.extend(parse_llm_response(complete(config, user, client, system=system)))
    return Prediction(headers=headers)


class ExtractionFailure(Record):
    __slots__ = _fields = ("doc_id", "error")


def extract_corpus(
    docs: list[Document],
    strategy: PromptStrategy,
    config: LLMConfig,
    client: ChatClient,
) -> tuple[dict[str, Prediction], list[ExtractionFailure]]:
    """Extract headers for a corpus, at most ``max_in_flight`` requests at once.

    Results come back keyed by document id, in document order; a document
    whose extraction fails contributes an empty prediction and a failure
    record instead of aborting the batch, and a ``warning:`` line on stderr
    names its failure as it finishes. Threads pay only while a request waits
    on a network, so a pool of ``min(max_in_flight, len(docs))`` threads is
    started only when that is more than one; otherwise each document runs in
    turn on the calling thread.
    """
    predictions: dict[str, Prediction] = {}
    failures: list[ExtractionFailure] = []

    def run(doc: Document) -> tuple[str, Prediction, str | None]:
        try:
            return doc.id, extract_headers(doc, strategy, config, client), None
        except SectionIdError as exc:
            return doc.id, Prediction(headers=[]), f"{type(exc).__name__}: {exc}"

    def results() -> Iterator[tuple[str, Prediction, str | None]]:
        # lazy, so that each failure is reported as its document finishes
        workers = min(config.max_in_flight, len(docs))
        if workers <= 1:
            yield from map(run, docs)
            return
        # imported here so that runs which start no thread do not load it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run, docs)

    for doc_id, prediction, error in results():
        predictions[doc_id] = prediction
        if error is not None:
            failures.append(ExtractionFailure(doc_id, error))
            warn(f"document {doc_id} failed: {error}")
    return predictions, failures
