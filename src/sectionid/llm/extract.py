"""End-to-end header extraction: prompt, complete, parse, and batch over a corpus."""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..align import line_starts
from ..corpus import Document
from ..errors import SectionIdError
from ..prediction import Prediction
from .client import ChatClient, LLMConfig, complete
from .parsing import _dedupe_consecutive, parse_llm_response
from .prompts import PromptStrategy, build_prompt

log = logging.getLogger(__name__)

CHUNK_OVERLAP_CHARS = 200


def chunk_text(text: str, budget: int, overlap: int = CHUNK_OVERLAP_CHARS) -> list[str]:
    """Split text at line boundaries into pieces of at most ``budget`` chars.

    Consecutive chunks share roughly ``overlap`` characters so a header
    sitting on a boundary appears whole in at least one chunk. Oversized
    single lines are split hard.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if len(text) <= budget:
        return [text]
    # a start at len(text) is never inside a window that ends before len(text)
    starts = line_starts(text)
    chunks: list[str] = []
    begin = 0
    while begin < len(text):
        end = min(begin + budget, len(text))
        if end < len(text):
            # retreat to the last line boundary inside the window
            last = starts[bisect_right(starts, end) - 1]
            if last > begin:
                end = last
        chunks.append(text[begin:end])
        if end >= len(text):
            break
        # restart at the first line boundary inside the overlap
        first = bisect_left(starts, max(begin + 1, end - overlap))
        begin = starts[first] if first < len(starts) and starts[first] <= end else end
    return chunks


def extract_headers(
    doc: Document,
    strategy: PromptStrategy,
    config: LLMConfig,
    client: ChatClient,
) -> Prediction:
    """Run prompt -> completion -> parse for one document.

    Documents above the configured context budget are chunked with overlap;
    header lists are concatenated in order with seam duplicates dropped.
    Transport and parse errors propagate; batch callers turn them into empty
    predictions plus a failure record.
    """
    if not doc.text.strip():
        return Prediction(headers=[])
    budget = config.max_context_chars
    pieces = (
        [doc.text] if budget is None else chunk_text(doc.text, budget)
    )
    headers: list[str] = []
    for piece in pieces:
        prompt = build_prompt(strategy, Document(doc.id, piece, doc.source_kind))
        content = complete(config, prompt, client)
        headers.extend(parse_llm_response(content))
    return Prediction(headers=_dedupe_consecutive(headers))


@dataclass
class ExtractionFailure:
    doc_id: str
    error: str


def extract_corpus(
    docs: list[Document],
    strategy: PromptStrategy,
    config: LLMConfig,
    client: ChatClient,
) -> tuple[dict[str, Prediction], list[ExtractionFailure]]:
    """Extract headers for a corpus, at most ``max_in_flight`` requests at once.

    Results come back keyed by document id; a document whose extraction fails
    contributes an empty prediction and a failure record instead of aborting
    the batch.
    """
    predictions: dict[str, Prediction] = {}
    failures: list[ExtractionFailure] = []

    def run(doc: Document) -> tuple[str, Prediction, str | None]:
        try:
            return doc.id, extract_headers(doc, strategy, config, client), None
        except SectionIdError as exc:
            return doc.id, Prediction(headers=[]), f"{type(exc).__name__}: {exc}"

    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        for doc_id, prediction, error in pool.map(run, docs):
            predictions[doc_id] = prediction
            if error is not None:
                failures.append(ExtractionFailure(doc_id, error))
                log.warning("document %s failed: %s", doc_id, error)
    return predictions, failures
