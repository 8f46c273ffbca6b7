"""Ground predicted header strings to document character spans.

Model output arrives as bare strings in document order. Grounding walks the
document left to right with a cursor: each header is searched for from the
cursor, first verbatim, then case-insensitively, then by fuzzy comparison
against the prefixes of upcoming lines. Fuzzy matching absorbs OCR-style
misspellings; headers that summarize rather than quote the document stay
unmatched and are reported, not guessed at.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice

from .corpus import Document, SectionAnnotation
from .prediction import Prediction
from .textdist import prefix_distances

EXACT = "exact"
CASE_INSENSITIVE = "case_insensitive"
FUZZY = "fuzzy"

DEFAULT_MAX_EDIT_RATIO = 0.2

# Fuzzy candidates are line prefixes; headers longer than this are compared
# against at most the first 80 characters of a line.
_LINE_PREFIX_LIMIT = 80


@dataclass
class HeaderMatch:
    prediction_index: int
    span: tuple[int, int]
    match_kind: str


@dataclass
class AlignmentResult:
    matches: list[HeaderMatch] = field(default_factory=list)
    unmatched_predictions: list[int] = field(default_factory=list)

    def matched_spans(self) -> list[tuple[int, int]]:
        return [m.span for m in self.matches]


def line_starts(text: str) -> list[int]:
    """Offset of every line: 0, then one past each '\n' (len(text) included)."""
    starts = [0]
    pos = text.find("\n")
    while pos != -1:
        starts.append(pos + 1)
        pos = text.find("\n", pos + 1)
    return starts


def _fold(s: str) -> str:
    """``s.lower()`` with 'İ' folded to 'i', so every offset stays in place.

    'İ' (U+0130) is the one character whose lowercase form is two
    characters long; lowering the whole string keeps final sigma right.
    """
    return s.replace("İ", "i").lower()


def _fuzzy_line_match(
    text: str, starts: list[int], header: str, cursor: int, max_edit_ratio: float
) -> tuple[int, int] | None:
    """First line at/after the cursor whose prefix is within the edit budget.

    Prefix length is chosen to minimize the normalized distance, breaking
    ties toward the header's own length: a clean substitution then recovers
    exactly the original span.
    """
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
        # no prefix past hi is read; fold before slicing so a
        # context-dependent mapping (final sigma) sees its right neighbour
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


def align_headers(
    doc: Document,
    pred: Prediction,
    max_edit_ratio: float = DEFAULT_MAX_EDIT_RATIO,
) -> AlignmentResult:
    """Ground each predicted header to its first plausible span after the cursor.

    Already-grounded predictions pass through unchanged, a ``None`` span
    listed as unmatched. Headers that cannot be placed are listed in
    ``unmatched_predictions``; they never raise.
    """
    if not 0 <= max_edit_ratio < 1:
        raise ValueError("max_edit_ratio must be in [0, 1)")
    result = AlignmentResult()
    if pred.grounded:
        for i, span in enumerate(pred.spans or ()):
            if span is None:
                result.unmatched_predictions.append(i)
            else:
                result.matches.append(HeaderMatch(i, span, EXACT))
        return result
    text = doc.text
    starts = line_starts(text)
    cursor = 0
    for i, header in enumerate(pred.headers):
        header = header.strip()
        if not header:
            result.unmatched_predictions.append(i)
            continue
        pos = text.find(header, cursor)
        if pos != -1:
            span = (pos, pos + len(header))
            result.matches.append(HeaderMatch(i, span, EXACT))
            cursor = span[1]
            continue
        m = re.compile(re.escape(header), re.IGNORECASE).search(text, cursor)
        if m is not None:
            result.matches.append(HeaderMatch(i, m.span(), CASE_INSENSITIVE))
            cursor = m.end()
            continue
        fuzzy_span = _fuzzy_line_match(text, starts, header, cursor, max_edit_ratio)
        if fuzzy_span is not None:
            result.matches.append(HeaderMatch(i, fuzzy_span, FUZZY))
            cursor = fuzzy_span[1]
            continue
        result.unmatched_predictions.append(i)
    return result


def sections_from_alignment(
    doc: Document, pred: Prediction, alignment: AlignmentResult
) -> list[SectionAnnotation]:
    """Derive full sections: each matched header owns the text up to the next one."""
    sections: list[SectionAnnotation] = []
    matches = alignment.matches
    for i, match in enumerate(matches):
        start, end = match.span
        body_end = matches[i + 1].span[0] if i + 1 < len(matches) else len(doc.text)
        body = (end, body_end) if body_end > end else None
        sections.append(
            SectionAnnotation(
                label=pred.headers[match.prediction_index],
                header_span=match.span,
                raw_header=doc.text[start:end],
                body_span=body,
            )
        )
    return sections
