"""Gold corpus loading, validation, serialization, and summary statistics,
with the reader of every user file and the writer of every output file.

The interchange format is UTF-8 JSONL, one document object per line:

    {"id": str, "text": str, "source_kind": "ehr_clean"|"ocr_noisy",
     "sections": [{"label": str, "header_span": [int, int],
                   "body_span": [int, int]}]}

``source_kind`` defaults to ``ehr_clean`` and ``body_span`` is optional.
All offsets are Unicode character offsets into ``text``, end-exclusive.
A ``raw_header`` field per section is accepted (and written back) as a
cross-check; when present it must equal the text slice at ``header_span``.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from itertools import accumulate
from operator import add
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import EmptyCorpus, FormatError, SpanError, warn
from .tokenizer import tokens_before

SOURCE_KINDS = ("ehr_clean", "ocr_noisy")

DUPLICATE_ID = "duplicate_id"
OUT_OF_BOUNDS = "out_of_bounds"
SUBSTRING_MISMATCH = "substring_mismatch"
OVERLAPPING_SPANS = "overlapping_spans"
UNSORTED_SECTIONS = "unsorted_sections"
BODY_SPAN_INVALID = "body_span_invalid"


class Record:
    """Base of the package's records. A record declares its fields once, in
    constructor order, as ``_fields`` (and ``__slots__ = _fields`` when it
    keeps no other attribute); the defaults of its trailing fields in
    ``_defaults``, where ``list`` or ``dict`` stands for a new empty
    container behind a ``None`` default; and at most one ``_post_init``,
    which checks or indexes the fields once they are set. From these each
    record's ``__init__`` is written once, when its class is made at
    import, as the function one would write by hand, with named parameters.
    As with ``@dataclass``, two records are ``==`` when they are of one type
    with equal fields, the ``repr`` is ``Name(field=value, ...)``, and a
    record has no hash. ``dataclasses`` is not used: importing it, and
    making each class with it, slowed the start of every command by a third.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        params, lines = ["self"], []
        for name in cls._fields:
            value = name
            if name in cls._defaults:
                default = cls._defaults[name]
                if default is list or default is dict:
                    params.append(f"{name}=None")
                    value = f"{default()!r} if {name} is None else {name}"
                else:
                    params.append(f"{name}=_defaults[{name!r}]")
            else:
                params.append(name)
            lines.append(f"self.{name} = {value}")
        if hasattr(cls, "_post_init"):
            lines.append("self._post_init()")
        namespace: dict[str, object] = {}
        source = f"def __init__({', '.join(params)}):\n    " + "\n    ".join(lines)
        exec(source, {"_defaults": cls._defaults}, namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, name) for name in self._fields] == [
            getattr(other, name) for name in self._fields
        ]

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Document(Record):
    __slots__ = _fields = ("id", "text", "source_kind")
    _defaults = {"source_kind": "ehr_clean"}


def line_starts(lines: list[str]) -> list[int]:
    r"""Where each line of a note starts, given its lines ``text.split("\n")``:
    after the lines before it and their newlines, so a note ending in '\n'
    has a last, empty line at ``len(text)``."""
    return list(map(add, accumulate(map(len, lines), initial=0), range(len(lines))))


class SectionAnnotation(Record):
    __slots__ = _fields = ("label", "header_span", "raw_header", "body_span")
    _defaults = {"body_span": None}


class AnnotatedDocument(Record):
    __slots__ = _fields = ("document", "sections")
    _defaults = {"sections": list}

    @property
    def id(self) -> str:
        return self.document.id

    @property
    def text(self) -> str:
        return self.document.text

    def header_spans(self) -> list[tuple[int, int]]:
        return [s.header_span for s in self.sections]

    def header_texts(self) -> list[str]:
        return [s.raw_header for s in self.sections]


class CorpusStats(Record):
    __slots__ = _fields = (
        "document_count", "mean_token_length", "stddev_token_length",
        "mean_sections_per_doc", "stddev_sections_per_doc",
    )


class ValidationIssue(Record):
    __slots__ = _fields = ("kind", "doc_id", "message", "section")
    _defaults = {"section": None}


def _issues(doc: AnnotatedDocument) -> Iterator[tuple[int, str, str]]:
    """Yield (section index, kind, message) for each broken invariant of ``doc``.

    A header issue (bounds, ``raw_header``, order, overlap) drops its
    section, so the sections after it are checked against the kept ones
    only. A body issue drops only the body, which must lie in the text,
    start at or after its header's end and end by the next kept header.
    """
    text = doc.text
    prev_start, prev_end = -1, 0
    open_body: tuple[int, int] | None = None  # (index, end) of the last kept body
    for i, sec in enumerate(doc.sections):
        start, end = sec.header_span
        if not 0 <= start < end <= len(text):
            yield i, OUT_OF_BOUNDS, (
                f"section {i}: header_span ({start}, {end}) outside text of length {len(text)}"
            )
            continue
        if text[start:end] != sec.raw_header:
            yield i, SUBSTRING_MISMATCH, (
                f"section {i}: raw_header {sec.raw_header!r} != text slice "
                f"{text[start:end]!r} at ({start}, {end})"
            )
            continue
        if start < prev_start:
            yield i, UNSORTED_SECTIONS, (
                f"section {i} starts at {start}, before previous start {prev_start}"
            )
            continue
        if start < prev_end:
            yield i, OVERLAPPING_SPANS, (
                f"section {i} at ({start}, {end}) overlaps the previous header ending at {prev_end}"
            )
            continue
        if open_body is not None and open_body[1] > start:
            yield open_body[0], BODY_SPAN_INVALID, (
                f"section {open_body[0]}: body_span ends at {open_body[1]} "
                f"past next header start {start}"
            )
        prev_start, prev_end = start, end
        open_body = None
        if sec.body_span is not None:
            b_start, b_end = sec.body_span
            if not 0 <= b_start < b_end <= len(text):
                yield i, BODY_SPAN_INVALID, (
                    f"section {i}: body_span ({b_start}, {b_end}) outside text of length {len(text)}"
                )
            elif b_start < end:
                yield i, BODY_SPAN_INVALID, (
                    f"section {i}: body_span starts at {b_start} before header end {end}"
                )
            else:
                open_body = (i, b_end)


@contextmanager
def open_text(src: str | Path) -> Iterator[TextIO]:
    """Open a user file as UTF-8 text.

    Every reader of a user file opens it here. A leading byte order mark is
    skipped, as editors on some systems write one. A ``UnicodeDecodeError``
    raised inside the ``with`` body becomes a FormatError naming the line and
    offset of the first byte that is not UTF-8. Text mode stays, so a lone
    CR still ends a line.
    """
    with open(src, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise FormatError(_not_utf8(src)) from exc


def encode_output(
    path: str | Path, text: str, encoding: str = "UTF-8", errors: str = "strict"
) -> bytes:
    """``text`` as ``encoding``, to be written to ``path``.

    Text that the encoding cannot hold (for UTF-8, a lone surrogate from a
    JSON escape or an undecodable path) raises FormatError naming ``path``,
    the line and the character.
    """
    try:
        return text.encode(encoding, errors)
    except UnicodeEncodeError as exc:
        # an undecodable path byte is a surrogate too; name it escaped
        where = str(path).encode("utf-8", "backslashreplace").decode("utf-8")
        lineno = text.count("\n", 0, exc.start) + 1
        raise FormatError(
            f"{where} line {lineno}: cannot be written as {encoding}: "
            f"{text[exc.start]!r} ({exc.reason})"
        ) from exc


def write_output(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting the file in place.

    Every output file but a replay record is written here (``RecordingClient``
    moves each record into place). The text is encoded (``encode_output``)
    before the file is opened, so text that UTF-8 cannot hold leaves the
    file as it was. The file is opened without
    truncation and cut to the new length after the write: on ext4,
    truncating a non-empty file to zero makes its close flush the new
    blocks, which costs several times the write. The inode stays, so a
    symlink is followed and hard links, owner and mode are kept; a device
    such as /dev/null is written and not cut. Outputs are not atomic:
    between the write and the cut the file holds the new bytes followed by
    the old tail.
    """
    data = encode_output(path, text)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def read_json(src: str | Path) -> object:
    """``json.load`` a UTF-8 file; malformed JSON raises FormatError naming it.

    JSON nested too deeply for the decoder counts as malformed.
    """
    with open_text(src) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"{src}: malformed JSON: {exc}") from exc


def comment_lines(src: str | Path) -> list[str]:
    """The non-blank lines of a UTF-8 file, '#' comments and surrounding space removed."""
    with open_text(src) as fh:
        return [form for line in fh if (form := line.split("#", 1)[0].strip())]


def _jsonl_objects(
    path: str | Path, skip_malformed: bool = False
) -> Iterator[tuple[int, str, dict]]:
    """(line number, "<path> line <n>", object) per non-blank line of a JSONL file.

    A non-object line fails. A line that is not JSON, or is nested too deeply
    to decode, fails too, unless ``skip_malformed``, which warns and skips it.
    A file that is not UTF-8 fails whatever ``skip_malformed`` says.
    """
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path} line {lineno}"
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                if skip_malformed:
                    warn(f"{where}: skipping malformed JSON line")
                    continue
                raise FormatError(f"{where}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise FormatError(f"{where}: expected a JSON object")
            yield lineno, where, obj


def _not_utf8(path: str | Path) -> str:
    """Name the line and offset of the first byte of ``path`` that is not UTF-8.

    Text mode decodes a block at a time, so the error it raises does not say
    which line holds the byte. Decoding the whole file does, and counting
    line breaks as text mode does (LF, CRLF and a lone CR) gives the line.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        good = data[: exc.start].decode("utf-8")
        lineno = good.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        return (
            f"{path} line {lineno}: not UTF-8: byte 0x{data[exc.start]:02x} "
            f"at offset {exc.start}"
        )
    return f"{path}: not UTF-8"


def _parse_span(value: object, what: str, where: str) -> tuple[int, int]:
    # type() is int, where isinstance would let a bool through
    if isinstance(value, (list, tuple)) and len(value) == 2:
        start, end = value
        if type(start) is int and type(end) is int:
            return (start, end)
    raise FormatError(f"{where}: {what} must be a [start, end] pair of ints")


def load_gold_corpus(path: str | Path, strict: bool = True) -> list[AnnotatedDocument]:
    """Load an annotated corpus from JSONL.

    Every error names the file and line. In strict mode any invariant
    violation raises (FormatError for malformed lines and fields, SpanError
    for span problems, naming the document). In lenient mode a line that is
    not JSON is skipped, and exactly the documents, sections and bodies that
    ``validate_corpus`` flags are dropped with a warning on stderr: a document
    whose id repeats an earlier one is still read and checked, then dropped,
    so the first document with each id is the one kept.
    """
    docs: list[AnnotatedDocument] = []
    seen_ids: set[str] = set()
    for _, where, obj in _jsonl_objects(path, skip_malformed=not strict):
        doc_id = obj.get("id")
        text = obj.get("text")
        if not isinstance(doc_id, str) or not doc_id:
            raise FormatError(f"{where}: 'id' must be a non-empty string")
        if not isinstance(text, str):
            raise FormatError(f"{where}: 'text' must be a string")
        source_kind = obj.get("source_kind", "ehr_clean")
        if source_kind not in SOURCE_KINDS:
            if strict:
                raise FormatError(
                    f"{where}: unknown source_kind {source_kind!r} for document {doc_id!r}"
                )
            warn(f"{where}: document {doc_id}: unknown source_kind {source_kind!r}, using ehr_clean")
            source_kind = "ehr_clean"
        repeated = doc_id in seen_ids
        if repeated and strict:
            raise FormatError(f"{where}: duplicate document id {doc_id!r}")
        seen_ids.add(doc_id)

        raw_sections = obj.get("sections", [])
        if not isinstance(raw_sections, list):
            raise FormatError(f"{where}: 'sections' must be a list")
        sections: list[SectionAnnotation] = []
        for raw in raw_sections:
            if not isinstance(raw, dict) or "label" not in raw or "header_span" not in raw:
                raise FormatError(
                    f"{where}: section needs 'label' and 'header_span' (document {doc_id!r})"
                )
            if not isinstance(raw["label"], str):
                raise FormatError(
                    f"{where}: section 'label' must be a string (document {doc_id!r})"
                )
            start, end = _parse_span(raw["header_span"], "header_span", where)
            raw_header = raw.get("raw_header")
            body_span = raw.get("body_span")
            if body_span is not None:
                body_span = _parse_span(body_span, "body_span", where)
            sections.append(
                SectionAnnotation(
                    label=raw["label"],
                    header_span=(start, end),
                    raw_header=text[start:end] if raw_header is None else raw_header,
                    body_span=body_span,
                )
            )
        doc = AnnotatedDocument(Document(doc_id, text, source_kind), sections)
        dropped: set[int] = set()
        # the walk reads a body before it reports it, so dropping one here is safe
        for i, kind, message in _issues(doc):
            if strict:
                raise SpanError(f"{where}: document {doc_id!r}: {message}")
            if kind == BODY_SPAN_INVALID:
                warn(f"{where}: document {doc_id}: dropping body_span: {message}")
                sections[i].body_span = None
            else:
                warn(f"{where}: document {doc_id}: dropping section: {message}")
                dropped.add(i)
        if dropped:
            doc.sections = [sec for i, sec in enumerate(sections) if i not in dropped]
        if repeated:
            warn(f"{where}: dropping document {doc_id!r}: its id repeats an earlier line")
            continue
        docs.append(doc)
    return docs


def save_gold_corpus(docs: Iterable[AnnotatedDocument], path: str | Path) -> None:
    """Write documents back to the JSONL interchange format, through ``write_output``."""
    lines = []
    for doc in docs:
        sections = []
        for sec in doc.sections:
            entry: dict[str, object] = {
                "label": sec.label,
                "header_span": list(sec.header_span),
                "raw_header": sec.raw_header,
            }
            if sec.body_span is not None:
                entry["body_span"] = list(sec.body_span)
            sections.append(entry)
        record = {
            "id": doc.document.id,
            "text": doc.document.text,
            "source_kind": doc.document.source_kind,
            "sections": sections,
        }
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    write_output(path, "".join(lines))


def validate_corpus(docs: list[AnnotatedDocument]) -> list[ValidationIssue]:
    """Diagnose invariant violations without raising.

    Returns one issue per violation, from the same walk that
    ``load_gold_corpus`` runs; an empty list means the corpus is valid. A
    section with a header issue counts as dropped for the checks after it,
    just as a lenient load drops it.
    """
    issues: list[ValidationIssue] = []
    seen: set[str] = set()
    for doc in docs:
        if doc.id in seen:
            issues.append(ValidationIssue(DUPLICATE_ID, doc.id, f"document id {doc.id!r} repeats"))
        seen.add(doc.id)
        issues.extend(
            ValidationIssue(kind, doc.id, message, i) for i, kind, message in _issues(doc)
        )
    return issues


def corpus_stats(docs: list[AnnotatedDocument]) -> CorpusStats:
    """Mean and population standard deviation of tokens and sections per document."""
    if not docs:
        raise EmptyCorpus("corpus_stats needs at least one document")
    # imported here so that only the stats command loads it
    import statistics

    token_counts = [tokens_before(doc.text)[len(doc.text)] for doc in docs]
    section_counts = [len(doc.sections) for doc in docs]
    return CorpusStats(
        document_count=len(docs),
        mean_token_length=statistics.fmean(token_counts),
        stddev_token_length=statistics.pstdev(token_counts),
        mean_sections_per_doc=statistics.fmean(section_counts),
        stddev_sections_per_doc=statistics.pstdev(section_counts),
    )
