"""Ground predicted header strings to document character spans.

Model output arrives as bare strings in document order. Grounding walks the
document left to right with a cursor: each header is searched for from the
cursor, first verbatim, then case-insensitively, then by fuzzy comparison
against the prefixes of upcoming lines. Fuzzy matching absorbs OCR-style
misspellings; headers that summarize rather than quote the document stay
unmatched and are reported, not guessed at. ``prediction`` owns the result
types; its ``prediction_line`` writes one ``AlignmentResult`` per ungrounded
prediction and refuses a grounded one with a ``None`` span or an alignment.

The fuzzy stage reads each line's folded prefix from one per-note
``_NoteLines``, built at the first header that reaches it, and runs a DP
only on the lines an exact pigeonhole filter lets through: a prefix within
``e`` edits of the header holds one of ``e + 1`` pieces of it unchanged, near
its place in the header. Every other line is skipped without changing any
result.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator

from .corpus import Document, SectionAnnotation, line_starts
from .prediction import (
    CASE_INSENSITIVE,
    DEFAULT_MAX_EDIT_RATIO,
    EXACT,
    FUZZY,
    AlignmentResult,
    HeaderMatch,
    Prediction,
    _check_edit_ratio,
)
from .textdist import max_edits, prefix_distances

# Fuzzy candidates are line prefixes; headers longer than this are compared
# against at most the first 80 characters of a line.
_LINE_PREFIX_LIMIT = 80


def _fold(s: str) -> str:
    """``s.lower()`` with 'İ' folded to 'i', so every offset stays in place.

    'İ' (U+0130) is the one character whose lowercase form is two
    characters long; lowering the whole string keeps final sigma right.
    """
    return s.replace("İ", "i").lower()


class _NoteLines:
    """One note's lines as the fuzzy stage reads them, shared by its headers.

    ``folded[i]`` is line ``i``'s first ``_LINE_PREFIX_LIMIT`` characters folded
    on their own, exactly what the DP reads (a final sigma at the cut stays as
    it was), and as long and as blank as the raw prefix.
    ``starts[i]`` is where line ``i`` begins in the note. ``joined`` is the
    folded prefixes joined by '\n', and line ``i`` begins at ``offsets[i]`` in
    it: no folded prefix holds a '\n', so ``line_starts`` serves both.
    """

    def __init__(self, text: str) -> None:
        lines = text.split("\n")
        self.starts = line_starts(lines)
        self.folded = [_fold(line[:_LINE_PREFIX_LIMIT]) for line in lines]
        self.joined = "\n".join(self.folded)
        self.offsets = line_starts(self.folded)

    def lines_holding_a_piece(
        self, needle: str, edits: int, first: int, width: int
    ) -> Iterator[int]:
        """Lines from ``first`` on that can hold a prefix within ``edits``
        edits of the needle, no longer than ``width``.

        Pigeonhole filter (Navarro, ACM Comput. Surv. 33(1), 2001): cut the
        needle into ``edits + 1`` contiguous pieces. Each edit touches at most
        one piece, so such a prefix holds one piece unchanged, shifted from
        its place in the needle by at most ``edits`` characters. One regex
        search over ``joined`` jumps to the next line holding any piece; that
        line is let through only if some piece lies within ``edits``
        characters of its place in the needle, and the search resumes at the
        next line start. Needs ``edits < len(needle)``.
        """
        cuts = [len(needle) * j // (edits + 1) for j in range(edits + 2)]
        pieces = [(needle[a:b], a) for a, b in zip(cuts, cuts[1:])]
        search = re.compile("|".join(re.escape(piece) for piece, _ in pieces)).search
        offsets = self.offsets
        while first < len(offsets):
            hit = search(self.joined, offsets[first])
            if hit is None:
                return
            line = bisect_right(offsets, hit.start()) - 1
            folded = self.folded[line]
            if any(
                folded.find(piece, max(0, a - edits), min(width, a + len(piece) + edits)) != -1
                for piece, a in pieces
            ):
                yield line
            first = line + 1


def _fuzzy_line_match(
    lines: _NoteLines, header: str, cursor: int, max_edit_ratio: float
) -> tuple[int, int] | None:
    """First line at/after the cursor whose prefix is within the edit budget.

    Prefix length is chosen to minimize the normalized distance, breaking
    ties toward the header's own length: a clean substitution then recovers
    exactly the original span. A DP runs only on the lines the pigeonhole
    filter lets through, which are all the lines that can match; when the
    budget allows as many edits as the header has characters, every line
    is compared.
    """
    needle = _fold(header)
    slack = math.ceil(max_edit_ratio * len(needle)) + 1
    width = len(needle) + slack
    # an accepted prefix k <= width has row[k] / max(len(needle), k) <= ratio,
    # hence row[k] / width <= ratio: at most `edits` edits
    edits = max_edits(width, max_edit_ratio)
    first = bisect_left(lines.starts, cursor)
    if edits < len(needle):
        candidates: Iterable[int] = lines.lines_holding_a_piece(needle, edits, first, width)
    else:
        candidates = range(first, len(lines.starts))
    lo = max(1, len(needle) - slack)
    for i in candidates:
        if not lines.folded[i].strip():
            continue
        hi = min(len(lines.folded[i]), width)
        if lo > hi:
            continue
        # no prefix past hi is read
        row = prefix_distances(needle, lines.folded[i][:hi])
        ratio, _, k = min(
            (row[k] / max(len(needle), k), abs(k - len(needle)), k) for k in range(lo, hi + 1)
        )
        if ratio <= max_edit_ratio:
            start = lines.starts[i]
            return (start, start + k)
    return None


def align_headers(
    doc: Document,
    pred: Prediction,
    max_edit_ratio: float = DEFAULT_MAX_EDIT_RATIO,
) -> AlignmentResult:
    """Ground each predicted header to its first plausible span after the cursor.

    Only ``pred.headers`` is read; spans the prediction carries play no
    part. Headers that cannot be placed are listed in
    ``unmatched_predictions``; they never raise. A ``max_edit_ratio`` that
    is not a number in [0, 1) raises ValueError.
    """
    _check_edit_ratio(max_edit_ratio)
    result = AlignmentResult()
    text = doc.text
    lines: _NoteLines | None = None
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
        if lines is None:
            lines = _NoteLines(text)
        fuzzy_span = _fuzzy_line_match(lines, header, cursor, max_edit_ratio)
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
