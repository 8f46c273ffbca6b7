"""Deterministic character-offset tokenization and IOB span conversion.

Tokens carry character offsets into the original text so that span-level
annotations and token-level tags can be converted back and forth without
loss. The tagger uses a single implicit HEADER class: B marks the first
token of a header span, I the rest, O everything else.

Scoring counts tokens without building them: ``tokens_before`` classifies
each character of a note once, with one ``str.translate``, and counts the
token starts between two offsets with C-level ``str.count`` calls.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence

from .errors import LengthMismatch, MalformedTags, OverlapError

B = "B"
I = "I"  # noqa: E741 - conventional IOB name
O = "O"  # noqa: E741

IOB_TAGS = (B, I, O)

# Maximal alphanumeric runs, then any other non-whitespace character alone.
_TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_", re.UNICODE)


class Token(NamedTuple):
    text: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    """Split text into offset-carrying tokens.

    Maximal runs of alphanumeric characters form one token each; every
    other non-whitespace character is its own single-character token.
    Whitespace never appears in a token, so rejoining tokens with the
    original gaps reconstructs the text.
    """
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def _char_class(char: str) -> str:
    return "a" if char.isalnum() else " " if char.isspace() else "p"


class _TokenClasses(dict):
    """A ``str.translate`` table that maps each character to its class.

    ``"a"`` for alphanumeric (``[^\\W_]``), ``" "`` for whitespace (``\\s``)
    and ``"p"`` for any other character, which is a token of its own. A
    class is looked up once per distinct character, on first use; give each
    text its own table, a copy of ``_ASCII_CLASSES``, so that none grows
    with every character a process sees.
    """

    def __missing__(self, code: int) -> str:
        cls = self[code] = _char_class(chr(code))
        return cls


_ASCII_CLASSES = {code: _char_class(chr(code)) for code in range(128)}


def tokens_before(text: str, offsets: Iterable[int] = ()) -> dict[int, int]:
    """Map 0, ``len(text)`` and each offset to ``len(tokenize(text[:offset]))``.

    That is the number of tokens that start before the offset; offsets must
    lie in ``[0, len(text)]``. The text is classified once, and the token
    starts between consecutive offsets are counted in C: every ``p``, and
    every ``a`` after a ``p`` or a space (a leading space stands before the
    first character). No token is built.
    """
    classes = " " + text.translate(_TokenClasses(_ASCII_CLASSES))
    before = {0: 0}
    a = 0
    for b in sorted({*offsets, len(text)}):
        if b > a:
            # classes[i + 1] is the class of text[i]
            before[b] = (
                before[a]
                + classes.count("p", a + 1, b + 1)
                + classes.count(" a", a, b + 1)
                + classes.count("pa", a, b + 1)
            )
            a = b
    return before


def splits_token(text: str, offset: int) -> bool:
    """Whether ``offset`` falls strictly inside a token of ``text``.

    Only a maximal alphanumeric run spans several characters, so an offset
    cuts a token exactly when the characters on both sides are alphanumeric.
    """
    return 0 < offset < len(text) and text[offset - 1].isalnum() and text[offset].isalnum()


def _check_spans(spans: list[tuple[int, int]]) -> None:
    prev_end = None
    for start, end in spans:
        if start >= end:
            raise OverlapError(f"empty or inverted span ({start}, {end})")
        if prev_end is not None and start < prev_end:
            raise OverlapError(
                f"spans must be sorted and non-overlapping, got start {start} before {prev_end}"
            )
        prev_end = end


def spans_to_iob(tokens: list[Token], header_spans: list[tuple[int, int]]) -> list[str]:
    """Tag each token B/I/O against a sorted, non-overlapping span list.

    A token belongs to a span when their character ranges overlap at all,
    so spans that cut through a token still claim it; a token that overlaps
    two spans belongs to the first. The first token of each span gets B,
    later ones I. ``tokens`` are in text order, as ``tokenize`` returns them.
    """
    _check_spans(header_spans)
    tags: list[str] = []
    idx = 0
    opened = -1  # index of the span whose B was already emitted
    for tok in tokens:
        while idx < len(header_spans) and header_spans[idx][1] <= tok.start:
            idx += 1
        if idx < len(header_spans) and header_spans[idx][0] < tok.end:
            tags.append(I if opened == idx else B)
            opened = idx
        else:
            tags.append(O)
    return tags


def iob_to_spans(tokens: list[Token], tags: list[str]) -> list[tuple[int, int]]:
    """Convert a well-formed tag sequence back to character spans.

    Each maximal B,I* run becomes one span, from the run's first token
    start to its last token end.
    """
    if len(tags) != len(tokens):
        raise LengthMismatch(f"{len(tags)} tags for {len(tokens)} tokens")
    if not is_well_formed(tags):
        raise MalformedTags(
            "tags must be well-formed IOB: only B, I and O, and no I first or after O"
        )
    spans: list[tuple[int, int]] = []
    for tok, tag in zip(tokens, tags):
        if tag == B:
            spans.append((tok.start, tok.end))
        elif tag == I:
            spans[-1] = (spans[-1][0], tok.end)
    return spans


def is_well_formed(tags: Sequence[str]) -> bool:
    prev = O
    for tag in tags:
        if tag not in IOB_TAGS:
            return False
        if tag == I and prev == O:
            return False
        prev = tag
    return True
