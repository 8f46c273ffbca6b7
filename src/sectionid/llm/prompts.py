"""Prompt construction for the four header-extraction strategies.

Each strategy has a fixed template of instructions, sent as the system
message; the note goes alone into the user message, between ``###``
markers after a fixed lead sentence. One-shot instructions additionally
embed an example note with its header list, and close-ended ones the
allowed label set plus a 'None' escape hatch.
"""

from __future__ import annotations

import json
import re

from ..corpus import Document, Record
from ..errors import MissingField

ZERO_SHOT = "zero_shot"
ONE_SHOT = "one_shot"
CHAIN_OF_THOUGHT = "chain_of_thought"
CLOSE_ENDED = "close_ended"

_NOTE_LEAD = "Here are some clinical notes of a patient from a doctor."
_SLOT_RE = re.compile(r"\{(sample_text|example_headers|label_set)\}")

_ZERO_SHOT_TEMPLATE = (
    "You are a clinician and you read the given clinical document and identify"
    " section headers from them.\n"
    "Find section headers only from the clinical text.\n"
    "For each section header, return the answer as a JSON object by filling in"
    " the following dictionary.\n"
    "{section_title: // string representing the section header}"
)

_ONE_SHOT_TEMPLATE = (
    "You are a clinician and you read the given clinical document and identify"
    " section headers from them.\n"
    "Find section headers only from the clinical text.\n"
    "Example clinical text: {sample_text}\n"
    "Answer : {example_headers}\n"
    "For each section header return the answer as a JSON object by filling in"
    " the following dictionary.\n"
    "{section_title: // string representing the section header}"
)

_CHAIN_OF_THOUGHT_TEMPLATE = (
    "You are a clinician and you read the given clinical document and identify"
    " section headers from them.\n"
    "Find section headers only from the clinical text.\n"
    "For each section header, return the answer as a JSON object by filling in"
    " the following dictionary.\n"
    "{section_title: // string representing the section header\n"
    "   CoT: // string describing thinking step by step }"
)

_CLOSE_ENDED_TEMPLATE = (
    "You are a clinician and you read the given clinical document and identify"
    " section headers from them.\n"
    "Classify the section headers into one of the following section type labels.\n"
    "section types: {label_set}\n"
    "If the section headers do not belong to any of the above section type"
    " labels, classify them as 'None'.\n"
    "Only print the section types identified in a list."
)

_TEMPLATES = {
    ZERO_SHOT: _ZERO_SHOT_TEMPLATE,
    ONE_SHOT: _ONE_SHOT_TEMPLATE,
    CHAIN_OF_THOUGHT: _CHAIN_OF_THOUGHT_TEMPLATE,
    CLOSE_ENDED: _CLOSE_ENDED_TEMPLATE,
}
STRATEGY_KINDS = tuple(_TEMPLATES)


class PromptStrategy(Record):
    __slots__ = _fields = ("kind", "example_doc", "example_headers", "label_set")
    _defaults = {"example_doc": None, "example_headers": list, "label_set": list}

    def _post_init(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise MissingField(f"unknown strategy kind {self.kind!r}")
        if self.kind == ONE_SHOT and (not self.example_doc or not self.example_headers):
            raise MissingField("one_shot needs example_doc and example_headers")
        if self.kind == CLOSE_ENDED and not self.label_set:
            raise MissingField("close_ended needs a non-empty label_set")

    @classmethod
    def zero_shot(cls) -> "PromptStrategy":
        return cls(ZERO_SHOT)

    @classmethod
    def one_shot(cls, example_doc: str, example_headers: list[str]) -> "PromptStrategy":
        return cls(ONE_SHOT, example_doc=example_doc, example_headers=list(example_headers))

    @classmethod
    def chain_of_thought(cls) -> "PromptStrategy":
        return cls(CHAIN_OF_THOUGHT)

    @classmethod
    def close_ended(cls, label_set: list[str]) -> "PromptStrategy":
        return cls(CLOSE_ENDED, label_set=list(label_set))


def build_prompt(strategy: PromptStrategy, doc: Document) -> tuple[str, str]:
    """The ``(system, user)`` messages that ask for the document's headers.

    The system message is the strategy's instructions, with its example or
    label set filled in; the user message is the note between ``###``
    markers. Each slot is filled once, so text inside a filled-in value is
    sent as written.
    """
    slots = {
        "sample_text": strategy.example_doc or "",
        "example_headers": json.dumps(strategy.example_headers, ensure_ascii=False),
        "label_set": json.dumps(strategy.label_set, ensure_ascii=False),
    }
    system = _SLOT_RE.sub(lambda m: slots[m.group(1)], _TEMPLATES[strategy.kind])
    return system, f"{_NOTE_LEAD} ### {doc.text} ###\n"
