"""Non-LLM segmenters: lexicon lookup, line-pattern rules, and their hybrid.

All three return grounded predictions (header text plus character span),
with at most one lexicon match and one rule match per line. The hybrid
drops a line's rule match where it overlaps the line's lexicon match.
Matching is line-initial: clinical headers sit at the start of a line in
the corpora this package targets, and anchoring there keeps false positives
out of prose.

Most lines of a note are body text that nothing can match, so a few C-level
passes over the whole note pick the lines that could match and only those
are checked: lines whose first word starts a lexicon entry, lines with a
':' and ALL-CAPS lines. The output is the same as checking every line.
"""

from __future__ import annotations

import re
from itertools import compress, repeat
from operator import contains, eq
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .corpus import Document, Record, comment_lines, line_starts, read_json
from .errors import FormatError, InvalidPattern
from .prediction import Prediction

# Lowercase words allowed inside an otherwise Title-Case header phrase.
_MINOR_WORDS = {
    "a", "an", "and", "as", "at", "by", "for", "from", "in", "of",
    "on", "or", "per", "the", "to", "with",
}
# A line-pattern header has at most this many word tokens.
_MAX_HEADER_TOKENS = 8
# Word tokens: the maximal alphanumeric runs, which are the tokens
# ``tokenizer.tokenize`` cuts that start with an alphanumeric character.
_WORD_RE = re.compile(r"[^\W_]+")
# A '\n', the characters of the next line before its first word token, and
# that token, or "" when the line has none.
_LINE_WORD_RE = re.compile(r"\n(?:[^\w\n]|_)*([^\W_]*)")


def _line_words(text: str) -> list[str]:
    """The first word token of each line of ``text``, lowercased, with 'ς'
    as 'σ', or "" for a line without one.

    'Σ' lowercases to final 'ς' or to 'σ' depending on its neighbours, so
    text and its slices can lowercase it differently; as 'σ' they agree.
    """
    return _LINE_WORD_RE.findall("\n" + text.lower().replace("ς", "σ"))


class HeaderLexicon(Record):
    """Header surface forms, matched case-insensitively.

    ``by_word`` indexes the entries for the segmenters under their first
    word, as ``_line_words`` gives it: each entry and its lowercase form,
    longest entry first. An entry with no letter or digit goes under the
    key "", and after the own entries of every other key, since it can
    match any line but loses on length to an entry with a word that matches
    the same line. The index is built once, from ``entries`` as given. A
    match depends only on an entry's length and lowercase form, so of the
    entries that share both only the first, in that order, is indexed.
    """

    _fields = ("entries",)

    def _post_init(self) -> None:
        entries = self.entries
        if not entries:
            raise ValueError("lexicon must contain at least one entry")
        if any(not e.strip() for e in entries):
            raise ValueError("lexicon entries must not be whitespace-only")
        first: dict[tuple[int, str], str] = {}
        for entry in sorted(entries, key=lambda e: (-len(e), e)):
            first.setdefault((len(entry), entry.lower()), entry)
        # not a field, so == and repr see only the entries
        self.by_word: dict[str, list[tuple[str, str]]] = {}
        for (_, folded), entry in first.items():
            self.by_word.setdefault(_line_words(entry)[0], []).append((entry, folded))
        unkeyed = self.by_word.get("", [])
        for word, bucket in self.by_word.items():
            if word:
                bucket.extend(unkeyed)


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
    if not any(c.isalpha() for c in phrase):
        return None
    words = _WORD_RE.findall(phrase)
    if len(words) > _MAX_HEADER_TOKENS:
        return None
    if words[0].lower() in _MINOR_WORDS and not words[0][0].isupper():
        return None
    if not all(_is_header_word(w) for w in words):
        return None
    return (offset, offset + len(phrase))


def _match_allcaps_line(line: str) -> tuple[int, int] | None:
    # The entire line is ALL-CAPS and short enough to be a header.
    stripped = line.strip()
    if not any(c.isalpha() for c in stripped):
        return None
    if stripped != stripped.upper():
        return None
    words = _WORD_RE.findall(stripped)
    if len(words) > _MAX_HEADER_TOKENS:
        return None
    offset = len(line) - len(line.lstrip())
    return (offset, offset + len(stripped))


# A rule maps one line to the (start, end) slice of its header, or None.
Rule = Callable[[str], tuple[int, int] | None]


def _regex_rule(name: str, pattern: str) -> Rule:
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


DEFAULT_RULES = (_match_titlecase_colon, _match_allcaps_line)


def _default_rules_only(rules: Sequence[Rule]) -> bool:
    return all(r is _match_titlecase_colon or r is _match_allcaps_line for r in rules)


def load_ruleset(path: str | Path) -> list[Rule]:
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
        if not isinstance(item, dict) or not all(
            isinstance(item.get(key), str) for key in ("name", "pattern")
        ):
            raise InvalidPattern(f"{path}: each rule needs 'name' and 'pattern' strings")
        try:
            rules.append(_regex_rule(item["name"], item["pattern"]))
        except InvalidPattern as exc:
            raise InvalidPattern(f"{path}: {exc}") from exc
    return rules


def _lines_to_check(
    text: str, lexicon: HeaderLexicon | None, rules: Sequence[Rule]
) -> Iterator[tuple[int, str, str]]:
    """(start, line, first word) of each line of ``text`` that the lexicon
    or a rule could match, in order; the word is "" without a lexicon.

    A line is left out only when nothing can match it:
    - a lexicon match follows whitespace, lowercases to its entry, and ends
      the line or comes before a character that is not alphanumeric and
      does not lowercase to one. So the line's first word (``_line_words``)
      is the entry's first word, a key of ``lexicon.by_word``.
    - ``_match_titlecase_colon`` needs a ':'.
    - ``_match_allcaps_line`` needs the line's stripped content to equal its
      uppercase form. ``str.upper`` maps each character on its own and no
      whitespace character has a case mapping, so that holds exactly when
      the whole line equals its uppercase form.
    Every line is kept when the lexicon holds an entry with no letter or
    digit, or when a rule is not one of the two defaults.
    Each test is one C-level pass over the note, and so is ``line_starts``
    over the one split of it that every row reads.
    """
    lines = text.split("\n")
    words = _line_words(text) if lexicon is not None else repeat("")
    rows = zip(line_starts(lines), lines, words)
    if not _default_rules_only(rules):
        return rows
    hits = []
    if lexicon is not None:
        if "" in lexicon.by_word:
            return rows
        hits.append(map(lexicon.by_word.__contains__, words))
    if _match_titlecase_colon in rules:
        hits.append(map(contains, lines, repeat(":")))
    if _match_allcaps_line in rules:
        hits.append(map(eq, lines, text.upper().split("\n")))
    return compress(rows, map(any, zip(*hits)))


def _segment(doc: Document, lexicon: HeaderLexicon | None, rules: Sequence[Rule]) -> Prediction:
    """Each line's lexicon match, then its first rule match unless that
    overlaps the lexicon match, on the lines ``_lines_to_check`` keeps.

    Both default rules match from the line's first non-space character,
    where a lexicon match starts too, so with only those rules no rule is
    tried on a line the lexicon matched.
    """
    by_word = lexicon.by_word if lexicon is not None else {}
    unkeyed = by_word.get("", ())
    rules_after_hit = () if _default_rules_only(rules) else rules
    spans: list[tuple[int, int]] = []
    for line_start, line, word in _lines_to_check(doc.text, lexicon, rules):
        line_rules = rules
        # A lexicon match starts at the line's first non-space character and
        # a rule match ends on a non-space one, so the two overlap unless the
        # rule match starts at or after the lexicon match's end.
        rule_from = line_start
        # the entries that could match: the line's first word's, then those
        # without a word
        bucket = by_word.get(word, unkeyed)
        if bucket:
            content = line.lstrip()
            for entry, folded_entry in bucket:
                size = len(entry)
                if len(content) < size or content[:size].lower() != folded_entry:
                    continue
                if content[size:size + 1].isalnum():
                    continue
                start = line_start + len(line) - len(content)
                rule_from = start + size
                spans.append((start, rule_from))
                line_rules = rules_after_hit
                break
        for rule in line_rules:
            rel = rule(line)
            if rel is None:
                continue
            start = line_start + rel[0]
            text = doc.text[start:line_start + rel[1]].rstrip()
            end = start + len(text[:-1].rstrip() if text.endswith(":") else text)
            if end > start >= rule_from:
                spans.append((start, end))
            break
    return Prediction(headers=[doc.text[start:end] for start, end in spans], spans=spans)


def keyword_segment(doc: Document, lexicon: HeaderLexicon) -> Prediction:
    """Match lexicon entries at line starts, longest entry first.

    An entry matches a line when the line, after its indentation, holds at
    least as many characters as the entry, those characters lowercase to the
    lowercased entry, and the next character, if any, is not alphanumeric, so
    'Plan' never fires inside 'Planning'. The match is exactly those
    characters, so it never leaves its line. At most one match per line.
    """
    return _segment(doc, lexicon, ())


def regex_segment(doc: Document, rules: Sequence[Rule] = DEFAULT_RULES) -> Prediction:
    """Apply the rules per line; the first rule that matches wins the line."""
    return _segment(doc, None, rules)


def rule_segment(
    doc: Document, lexicon: HeaderLexicon, rules: Sequence[Rule] = DEFAULT_RULES
) -> Prediction:
    """Union of keyword and regex matches, keyword winning span-overlap ties."""
    return _segment(doc, lexicon, rules)
