"""Segmenter output: an ordered header list, optionally grounded to spans."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LengthMismatch
from .tokenizer import _check_spans


@dataclass
class Prediction:
    """``spans``, when given, holds one entry per header: its span, or
    ``None`` for a header placed nowhere. The placed spans, in header order,
    must be sorted and non-overlapping."""

    headers: list[str]
    spans: list[tuple[int, int] | None] | None = None

    def __post_init__(self) -> None:
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
