"""Exception types shared across the package, and its one warning path."""

import sys


def warn(message: str) -> None:
    """Write ``warning: <message>`` as one line to the current ``sys.stderr``.

    The stream is looked up on each call, so a redirected stderr receives the
    warnings of its own call; a single write keeps lines from threads whole.
    """
    sys.stderr.write(f"warning: {message}\n")


class SectionIdError(Exception):
    """Base class for all package errors."""


class FormatError(SectionIdError):
    """Malformed input file (bad JSON line, missing field, bad enum value)."""


class SpanError(SectionIdError):
    """A character span violates an invariant (bounds, order, text mismatch)."""


class EmptyCorpus(SectionIdError):
    """An operation that needs at least one document received none."""


class OverlapError(SectionIdError):
    """Spans that must be sorted and non-overlapping are not."""


class LengthMismatch(SectionIdError):
    """Parallel sequences have different lengths."""


class MalformedTags(SectionIdError):
    """An IOB tag sequence is not well-formed (I at start, or I after O)."""


class MissingField(SectionIdError):
    """A prompt strategy is missing a field its kind requires."""


class ParseError(SectionIdError):
    """No header structure could be extracted from a model response."""


class TransportError(SectionIdError):
    """HTTP transport failed, or retries were exhausted."""


class AuthError(SectionIdError):
    """The endpoint rejected our credentials (401/403); never retried."""


class ReplayMiss(SectionIdError):
    """No recorded interaction exists for this request hash."""


class InvalidPattern(SectionIdError):
    """A user-supplied segmentation rule failed to compile."""


class DanglingCategory(SectionIdError):
    """A surface form maps to a category the ontology never declares."""


class EmptyInput(SectionIdError):
    """An aggregate operation received an empty input list."""
