"""Extract header lists from model responses.

Models answer in several shapes: a JSON array of ``{"section_title": ...}``
objects, one JSON object per line, either of those inside a fenced code
block, or (close-ended runs) a bare JSON array of label strings. Everything
else around the structure is prose and gets ignored, as do ``CoT`` fields.
"""

from __future__ import annotations

import json
import re

from ..errors import ParseError

_FENCE_RE = re.compile(r"```[a-zA-Z0-9_-]*\n(.*?)```", re.DOTALL)
_BRACKET_RE = re.compile(r"[\[\]]")
# The deepest bracketed span _try_embedded_array hands to json.loads. The
# answer shapes parsed here nest at most 3 deep; without a bound, a response
# of n nested brackets would cost n parses of up to n characters each.
_MAX_ARRAY_DEPTH = 64


def _headers_from_item(item: object) -> str | None:
    if isinstance(item, str):
        return item.strip() or None
    if isinstance(item, dict):
        title = item.get("section_title")
        if isinstance(title, str) and title.strip():
            return title.strip()
    return None


def _try_json(text: str) -> list[str] | None:
    # nesting deeper than the interpreter's recursion limit counts as no JSON
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        return None
    if isinstance(value, dict):
        header = _headers_from_item(value)
        return [header] if header else []
    if isinstance(value, list):
        return [h for h in (_headers_from_item(item) for item in value) if h]
    return None


def _try_object_lines(text: str) -> list[str] | None:
    found_structure = False
    headers: list[str] = []
    for line in text.splitlines():
        line = line.strip().rstrip(",")
        if not line.startswith("{"):
            continue
        try:
            value = json.loads(line)
        except (json.JSONDecodeError, RecursionError):
            continue
        found_structure = True
        header = _headers_from_item(value)
        if header:
            headers.append(header)
    return headers if found_structure else None


def _try_embedded_array(text: str) -> list[str] | None:
    # pair every '[' with its closing ']' in one pass, noting how deep each
    # bracketed span nests, then try the spans of bounded depth in order of
    # their opening position
    opened: list[list[int]] = []  # [start, deepest nesting inside] per open '['
    close_of: dict[int, int] = {}
    for m in _BRACKET_RE.finditer(text):
        if m.group() == "[":
            opened.append([m.start(), 0])
        elif opened:
            start, inner = opened.pop()
            if inner < _MAX_ARRAY_DEPTH:
                close_of[start] = m.start()
            if opened:
                opened[-1][1] = max(opened[-1][1], inner + 1)
    for start in sorted(close_of):
        result = _try_json(text[start:close_of[start] + 1])
        if result is not None:
            return result
    return None


def parse_llm_response(raw: str) -> list[str]:
    """Pull ordered section titles out of a model response, repeats included.

    Raises ParseError when no JSON structure can be found at all; an empty
    extracted list is a valid result, not an error.
    """
    candidates = [m.group(1) for m in _FENCE_RE.finditer(raw)]
    candidates.append(raw.strip())
    for candidate in candidates:
        for attempt in (_try_json, _try_object_lines, _try_embedded_array):
            result = attempt(candidate)
            if result is not None:
                return result
    raise ParseError(f"no header structure found in response of {len(raw)} chars")
