"""Segmenter output (``Prediction``), the grounding types ``align`` fills in
(``HeaderMatch``, ``AlignmentResult``) and ``predictions.jsonl``: ``segment``
writes each line with ``prediction_line`` from one alignment, refusing a
grounded prediction with a ``None`` span or an alignment, and ``evaluate``
reads the file with ``load_predictions``, which checks each placed span
against the note it names.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Sequence

from .corpus import AnnotatedDocument, Record, _jsonl_objects, _parse_span
from .errors import FormatError, LengthMismatch, OverlapError, SpanError
from .tokenizer import _check_spans

# How alignment placed a header; ``align`` imports these and the types below.
EXACT = "exact"
CASE_INSENSITIVE = "case_insensitive"
FUZZY = "fuzzy"
MATCH_KINDS = (EXACT, CASE_INSENSITIVE, FUZZY)
# The default bound on a fuzzy placement's edits per header character. It
# lives here, with its check, and ``align`` re-exports it, so that reading
# it loads no grounding code.
DEFAULT_MAX_EDIT_RATIO = 0.2


def _check_edit_ratio(value: object) -> None:
    """Refuse a bound that is not a number in [0, 1); a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < 1:
        raise ValueError(f"max_edit_ratio must be a number in [0, 1), got {value!r}")


class HeaderMatch(Record):
    __slots__ = _fields = ("prediction_index", "span", "match_kind")


class AlignmentResult(Record):
    __slots__ = _fields = ("matches", "unmatched_predictions")
    _defaults = {"matches": list, "unmatched_predictions": list}

    def matched_spans(self) -> list[tuple[int, int]]:
        return [m.span for m in self.matches]


class Prediction(Record):
    """``spans``, when given, holds one entry per header: its span, or
    ``None`` for a header placed nowhere. The placed spans, in header order,
    must be sorted and non-overlapping."""

    __slots__ = _fields = ("headers", "spans")
    _defaults = {"spans": None}

    def _post_init(self) -> None:
        if self.spans is None:
            return
        if len(self.spans) != len(self.headers):
            raise LengthMismatch(f"{len(self.spans)} spans for {len(self.headers)} headers")
        _check_spans(self.placed_spans())

    @property
    def grounded(self) -> bool:
        return self.spans is not None

    def placed_spans(self) -> list[tuple[int, int]]:
        return [span for span in self.spans or () if span is not None]


def prediction_line(
    doc_id: str, pred: Prediction, categories: list[str], alignment: AlignmentResult | None = None
) -> str:
    """One ``predictions.jsonl`` line, newline included, headers in segmenter order.

    An ungrounded prediction (``"spans": null``) carries its ``alignment``;
    a grounded one must place every header and takes none (``ValueError``).
    """
    if pred.spans is not None and alignment is not None:
        raise ValueError(f"{doc_id}: a grounded prediction takes no alignment")
    if pred.spans is not None and None in pred.spans:
        raise ValueError(f"{doc_id}: a grounded prediction must place every header")
    record: dict[str, object] = {
        "id": doc_id, "headers": pred.headers, "spans": pred.spans, "categories": categories,
    }
    if alignment is not None:
        record["grounding"] = [
            {"header_index": m.prediction_index, "span": m.span, "kind": m.match_kind}
            for m in alignment.matches
        ]
        record["unmatched"] = alignment.unmatched_predictions
    return json.dumps(record, ensure_ascii=False) + "\n"


def _line_spans(
    obj: dict, count: int, where: str
) -> tuple[list[tuple[int, int] | None] | None, list[str | None]]:
    """A line's per-header spans: its ``spans``, or those its ``grounding`` and
    ``unmatched`` record; ``None`` for a line with neither. With them, how each
    header was placed: the ``kind`` of each grounding entry, or None for a
    header placed nowhere and for every header of a ``spans`` line."""
    spans, grounding, unmatched = obj.get("spans"), obj.get("grounding"), obj.get("unmatched")
    if spans is not None:
        if not isinstance(spans, list):
            raise FormatError(f"{where}: 'spans' must be a list or null")
        spans = [_parse_span(s, "each span", where) for s in spans]
    if grounding is None and unmatched is None:
        return spans, [None] * count
    if spans is not None:
        raise FormatError(f"{where}: a line sets 'spans' or 'grounding', not both")
    if not isinstance(grounding, list) or not all(isinstance(g, dict) for g in grounding):
        raise FormatError(f"{where}: 'grounding' must be a list of objects")
    carried: list[tuple[int, int] | None] = [None] * count
    kinds: list[str | None] = [None] * count
    for entry in grounding:
        index, kind = entry.get("header_index"), entry.get("kind")
        if type(index) is not int or not 0 <= index < count:
            raise FormatError(
                f"{where}: 'header_index' must be an int in [0, {count}), got {index!r}"
            )
        if carried[index] is not None:
            raise FormatError(f"{where}: header {index} is grounded twice")
        if kind not in MATCH_KINDS:
            raise FormatError(
                f"{where}: 'kind' must be one of {', '.join(MATCH_KINDS)}, got {kind!r}"
            )
        carried[index] = _parse_span(entry.get("span"), "each grounding span", where)
        kinds[index] = kind
    left = [i for i, span in enumerate(carried) if span is None]
    # == alone would take True for 1
    ints = isinstance(unmatched, list) and all(type(i) is int for i in unmatched)
    if not ints or unmatched != left:
        raise FormatError(
            f"{where}: 'unmatched' must list the ungrounded headers {left}, got {unmatched!r}"
        )
    return carried, kinds


def _fits(text: str, header: str, span: tuple[int, int], kind: str | None) -> bool:
    """Whether ``span`` of ``text`` is where ``header`` could have been placed.
    On a ``spans`` line (``kind`` None) the slice is the header up to
    surrounding whitespace: a rules segmenter writes the slice itself,
    indentation included. Grounding of ``kind`` places the header stripped as
    ``align`` strips it: the header itself; the header up to case, by the
    stage's own ``re.IGNORECASE`` search; or, for a fuzzy placement, a line
    prefix that holds no line break (its edit ratio is not checked, as
    ``evaluate`` may be given another bound than ``segment`` was)."""
    start, end = span
    if kind == FUZZY:
        return (start == 0 or text[start - 1] == "\n") and text.find("\n", start, end) < 0
    placed, header = text[start:end], header.strip()
    if kind is None:
        return placed.strip() == header
    if kind == EXACT:
        return placed == header
    return re.fullmatch(re.escape(header), placed, re.IGNORECASE) is not None


def load_predictions(path: str | Path, docs: Sequence[AnnotatedDocument]) -> dict[str, Prediction]:
    """Read predictions JSONL; every bad line fails with the file and line number.

    Only a line with neither ``spans`` nor ``grounding`` is left ungrounded.
    Placed spans must lie within the corpus document the line names, and
    each must hold its header the way it was placed (``_fits``): a span
    that does not, as when the note changed after ``segment`` ran, raises
    SpanError naming the header and what the note reads there. Both checks
    hold in a lenient run too: a corpus that no longer holds the spans cannot
    score them.
    """
    texts = {doc.id: doc.text for doc in docs}
    predictions: dict[str, Prediction] = {}
    first_line: dict[str, int] = {}
    for lineno, where, obj in _jsonl_objects(path):
        doc_id, headers = obj.get("id"), obj.get("headers")
        if not isinstance(doc_id, str):
            raise FormatError(f"{where}: 'id' must be a string")
        if doc_id in first_line:
            raise FormatError(
                f"{where}: duplicate prediction for document {doc_id!r} "
                f"(first on line {first_line[doc_id]})"
            )
        first_line[doc_id] = lineno
        if not isinstance(headers, list) or not all(isinstance(h, str) for h in headers):
            raise FormatError(f"{where}: 'headers' must be a list of strings")
        spans, kinds = _line_spans(obj, len(headers), where)
        try:
            pred = Prediction(headers=headers, spans=spans)
        except (LengthMismatch, OverlapError) as exc:
            raise SpanError(f"{where}: {exc}") from exc
        placed, text = pred.placed_spans(), texts.get(doc_id)
        if placed and text is not None:
            if not (0 <= placed[0][0] and placed[-1][1] <= len(text)):
                raise SpanError(
                    f"{where}: spans must lie within document {doc_id!r} of {len(text)} characters"
                )
            for i, (header, span, kind) in enumerate(zip(headers, spans, kinds)):
                if span is not None and not _fits(text, header, span, kind):
                    raise SpanError(
                        f"{where}: header {i} {header!r} is not at {span}: "
                        f"the note there reads {text[span[0]:span[1]]!r}"
                    )
        predictions[doc_id] = pred
    return predictions
