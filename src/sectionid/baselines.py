"""Non-LLM segmenters: lexicon lookup, line-pattern rules, and their hybrid.

All three work line by line and return grounded predictions (header text
plus character span). Matching is line-initial: clinical headers sit at the
start of a line in the corpora this package targets, and anchoring there
keeps false positives out of prose.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .align import line_starts
from .corpus import Document, comment_lines, read_json
from .errors import FormatError, InvalidPattern
from .prediction import Prediction
from .tokenizer import tokenize

log = logging.getLogger(__name__)

# Lowercase words allowed inside an otherwise Title-Case header phrase.
_MINOR_WORDS = {
    "a", "an", "and", "as", "at", "by", "for", "from", "in", "of",
    "on", "or", "per", "the", "to", "with",
}
# A line-pattern header has at most this many word tokens.
_MAX_HEADER_TOKENS = 8


@dataclass
class HeaderLexicon:
    """Header surface forms, matched case-insensitively.

    ``by_first`` indexes the entries for ``keyword_segment``: each entry and
    its lowercase form, under the first character of that form, longest
    entry first. It is built once, from ``entries`` as given.
    """

    entries: set[str]
    by_first: dict[str, list[tuple[str, str]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("lexicon must contain at least one entry")
        if any(not e.strip() for e in self.entries):
            raise ValueError("lexicon entries must not be whitespace-only")
        self.by_first = {}
        for entry in sorted(self.entries, key=lambda e: (-len(e), e)):
            folded = entry.lower()
            self.by_first.setdefault(folded[:1], []).append((entry, folded))


def load_lexicon(path: str | Path) -> HeaderLexicon:
    """Read a lexicon file: one surface form per line, '#' starts a comment."""
    entries = set(comment_lines(path))
    if not entries:
        raise FormatError(f"{path}: lexicon file has no entries")
    return HeaderLexicon(entries=entries)


def _is_header_word(word: str) -> bool:
    if word.lower() in _MINOR_WORDS:
        return True
    first = word[0]
    return first.isupper() or first.isdigit() or word.isupper()


def _match_titlecase_colon(line: str) -> tuple[int, int] | None:
    # Line-initial Title-Case or ALL-CAPS phrase ending in ':'.
    stripped = line.lstrip()
    offset = len(line) - len(stripped)
    colon = stripped.find(":")
    if colon <= 0:
        return None
    phrase = stripped[:colon].rstrip()
    if not phrase or not any(c.isalpha() for c in phrase):
        return None
    words = [t.text for t in tokenize(phrase) if t.text[0].isalnum()]
    if not words or len(words) > _MAX_HEADER_TOKENS:
        return None
    if words[0].lower() in _MINOR_WORDS and not words[0][0].isupper():
        return None
    if not all(_is_header_word(w) for w in words):
        return None
    return (offset, offset + len(phrase))


def _match_allcaps_line(line: str) -> tuple[int, int] | None:
    # The entire line is ALL-CAPS and short enough to be a header.
    stripped = line.strip()
    if not stripped or not any(c.isalpha() for c in stripped):
        return None
    if stripped != stripped.upper():
        return None
    words = [t.text for t in tokenize(stripped) if t.text[0].isalnum()]
    if not words or len(words) > _MAX_HEADER_TOKENS:
        return None
    offset = len(line) - len(line.lstrip())
    return (offset, offset + len(stripped))


def _regex_rule(name: str, pattern: str) -> Callable[[str], tuple[int, int] | None]:
    try:
        compiled = re.compile(pattern)
    except re.error as exc:
        raise InvalidPattern(f"rule {name!r}: {exc}") from exc

    def match(line: str) -> tuple[int, int] | None:
        m = compiled.match(line)
        if m is None:
            return None
        group = 1 if compiled.groups else 0
        start, end = m.span(group)
        if start == end:
            return None
        return (start, end)

    return match


# A rule maps one line to the (start, end) slice of its header, or None.
DEFAULT_RULES = (_match_titlecase_colon, _match_allcaps_line)


def load_ruleset(path: str | Path) -> list[Callable[[str], tuple[int, int] | None]]:
    """Read a JSON list of {"name": str, "pattern": str} rules.

    A file that is not UTF-8 JSON raises FormatError; an empty list, a list
    of the wrong shape, or a pattern that does not compile, raises
    InvalidPattern. Both name the file.
    """
    raw = read_json(path)
    if not isinstance(raw, list):
        raise InvalidPattern(
            f"{path}: ruleset file must be a JSON list of {{name, pattern}} objects"
        )
    if not raw:
        raise InvalidPattern(f"{path}: ruleset file has no rules")
    rules = []
    for item in raw:
        if not isinstance(item, dict) or "name" not in item or "pattern" not in item:
            raise InvalidPattern(f"{path}: each rule needs 'name' and 'pattern'")
        try:
            rules.append(_regex_rule(str(item["name"]), str(item["pattern"])))
        except InvalidPattern as exc:
            raise InvalidPattern(f"{path}: {exc}") from exc
    return rules


def keyword_segment(doc: Document, lexicon: HeaderLexicon) -> Prediction:
    """Match lexicon entries at line starts, longest entry first.

    An entry matches a line when the line, after its indentation, holds at
    least as many characters as the entry, those characters lowercase to the
    lowercased entry, and the next character, if any, is not alphanumeric, so
    'Plan' never fires inside 'Planning'. The match is exactly those
    characters, so it never leaves its line. At most one match per line.
    """
    # str.lower maps each character on its own, except 'Σ', which lowercases
    # to final 'ς' or to 'σ' depending on its neighbours. So a match, which
    # lowercases to its entry's lowercase form, shares the first character of
    # the lowercased line, and each line scans one bucket of
    # ``lexicon.by_first``; on a line without 'Σ' the match's lowercase form
    # also starts the lowercased line, a cheap test that rejects most entries.
    headers: list[str] = []
    spans: list[tuple[int, int]] = []
    for line_start, line in zip(line_starts(doc.text), doc.text.split("\n")):
        content = line.lstrip()
        folded_content = content.lower()
        screen = "Σ" not in content
        for entry, folded_entry in lexicon.by_first.get(folded_content[:1], ()):
            if screen and not folded_content.startswith(folded_entry):
                continue
            size = len(entry)
            if len(content) < size or content[:size].lower() != folded_entry:
                continue
            if content[size:size + 1].isalnum():
                continue
            start = line_start + len(line) - len(content)
            headers.append(doc.text[start:start + size])
            spans.append((start, start + size))
            break
    return Prediction(headers=headers, spans=spans)


def regex_segment(
    doc: Document, rules: Sequence[Callable[[str], tuple[int, int] | None]] = DEFAULT_RULES
) -> Prediction:
    """Apply the rules per line; the first rule that matches wins the line."""
    headers: list[str] = []
    spans: list[tuple[int, int]] = []
    for line_start, line in zip(line_starts(doc.text), doc.text.split("\n")):
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


def rule_segment(
    doc: Document,
    lexicon: HeaderLexicon,
    rules: Sequence[Callable[[str], tuple[int, int] | None]] = DEFAULT_RULES,
) -> Prediction:
    """Union of keyword and regex matches, keyword winning span-overlap ties."""
    kw = keyword_segment(doc, lexicon)
    rx = regex_segment(doc, rules)
    merged: list[tuple[tuple[int, int], str]] = [
        (span, header) for span, header in zip(kw.spans or [], kw.headers)
    ]
    kw_spans = list(kw.spans or [])
    for span, header in zip(rx.spans or [], rx.headers):
        if any(span[0] < k_end and k_start < span[1] for k_start, k_end in kw_spans):
            continue
        merged.append((span, header))
    merged.sort(key=lambda item: item[0])
    return Prediction(headers=[h for _, h in merged], spans=[s for s, _ in merged])
