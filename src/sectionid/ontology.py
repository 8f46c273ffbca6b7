"""Canonicalize free-form section names into coarse categories.

The bundled taxonomy (``data/taxonomy.csv``) maps observed real-world
section surface forms to a 25-category coarse scheme that always includes
an ``UNKNOWN`` fallback. A companion file (``data/category_counts.csv``)
ships the reference per-category counts observed when the taxonomy was
built, so the distribution can be reproduced without the source documents.

A name with no exact surface is compared by edit distance only with the
surfaces that pass two exact filters, a length window and a count of shared
distinct 2-grams, so the answer is the one a comparison with every surface
gives. Both read one per-``Ontology`` table, a ``functools.cached_property``
built whole at the first fuzzy lookup: a bit for each distinct 2-gram of the
surfaces; per length, each surface with the bits of its 2-grams and their
count; and the longest surface length, the end of the length window. A name's
2-grams become one int of the same bits, so the shared count is one AND. The
table is built in local variables and published in one attribute store, so
threads may share one ``Ontology``.
"""

from __future__ import annotations

import csv
import functools
import operator
from pathlib import Path
from typing import Callable, Iterator, TextIO

from .corpus import AnnotatedDocument, Record, comment_lines, open_text
from .errors import DanglingCategory, EmptyCorpus, FormatError
from .textdist import edit_ratio, max_edits

UNKNOWN = "UNKNOWN"
COARSE = "coarse"
FINE = "fine"

FUZZY_RATIO = 0.15


def data_path(name: str) -> Path:
    """Path to a bundled data file, in the package's ``data`` directory."""
    return Path(__file__).with_name("data") / name


def normalize_surface(name: str) -> str:
    """Lowercase, collapse whitespace, and strip surrounding punctuation.

    Returns "" only when the input has no alphanumeric characters at all.
    """
    s = " ".join(name.lower().split())
    start = 0
    end = len(s)
    while start < end and not s[start].isalnum():
        start += 1
    while end > start and not s[end - 1].isalnum():
        end -= 1
    return s[start:end]


def _grams(s: str) -> frozenset[str]:
    """The distinct 2-grams of ``s``."""
    return frozenset(map(operator.add, s, s[1:]))


class Ontology(Record):
    _fields = ("categories", "surface_map", "levels")
    _defaults = {"levels": dict}

    def _post_init(self) -> None:
        categories = self.categories
        if UNKNOWN not in categories:
            raise DanglingCategory(f"ontology must declare {UNKNOWN!r}")
        for surface, category in self.surface_map.items():
            if category not in categories:
                raise DanglingCategory(
                    f"surface {surface!r} maps to undeclared category {category!r}"
                )

    @functools.cached_property
    def _fuzzy(self) -> tuple[dict[str, int], dict[int, list[tuple[str, int, int]]], int]:
        """The bit of each distinct 2-gram of the surfaces; per length, each
        surface with the OR of its 2-grams' bits and their count; and the
        longest length. Not a field, so == and repr see only the taxonomy."""
        bits: dict[str, int] = {}
        by_length: dict[int, list[tuple[str, int, int]]] = {}
        for surface in self.surface_map:
            grams = _grams(surface)
            mask = 0
            for gram in grams:
                mask |= bits.setdefault(gram, 1 << len(bits))
            by_length.setdefault(len(surface), []).append((surface, mask, len(grams)))
        return bits, by_length, max(by_length, default=0)

    def coarse_categories(self) -> set[str]:
        fine_only = {
            self.surface_map[s] for s, lvl in self.levels.items() if lvl == FINE
        } - {self.surface_map[s] for s, lvl in self.levels.items() if lvl != FINE}
        return self.categories - fine_only


def _csv_rows(
    src: str | Path, fh: TextIO, accepts: Callable[[list[str]], bool], refusal: str
) -> Iterator[tuple[int, list[str]]]:
    """The number and fields of each non-blank data row of a CSV file, the
    header being row 1.

    A header missing, or refused by ``accepts`` once stripped and lowercased,
    raises FormatError naming the file with ``refusal``. A row the ``csv``
    module refuses, such as one holding a field longer than
    ``csv.field_size_limit()``, raises FormatError naming the file and row.
    """
    rows = enumerate(csv.reader(fh), 1)
    row_no = 0
    try:
        row_no, header = next(rows, (1, None))
        if header is None or not accepts([h.strip().lower() for h in header]):
            raise FormatError(f"{src}: {refusal}")
        for row_no, row in rows:
            if any(map(str.strip, row)):
                yield row_no, row
    except csv.Error as exc:
        raise FormatError(f"{src} row {row_no + 1}: {exc}") from exc


def load_ontology(path: str | Path | None = None) -> Ontology:
    """Parse a taxonomy CSV: ``surface_form,category,level`` with a header row.

    Categories are declared implicitly by appearing in the category column; a
    row with an empty surface form declares its category without mapping any
    surface. ``UNKNOWN`` is always added. Defaults to the bundled taxonomy.
    Every error names the file, and the row where there is one.
    """
    src = data_path("taxonomy.csv") if path is None else path
    categories: set[str] = set()
    surface_map: dict[str, str] = {}
    levels: dict[str, str] = {}
    with open_text(src) as fh:
        for row_no, row in _csv_rows(
            src, fh, lambda header: header[:2] == ["surface_form", "category"],
            "taxonomy file must start with a surface_form,category,level header",
        ):
            if len(row) < 2 or not (category := row[1].strip()):
                raise FormatError(f"{src} row {row_no}: missing category")
            level = (row[2].strip().lower() or COARSE) if len(row) > 2 else COARSE
            if level != COARSE and level != FINE:
                raise FormatError(f"{src} row {row_no}: level must be coarse or fine")
            categories.add(category)
            surface = normalize_surface(row[0])
            if not surface:
                continue  # bare category declaration
            previous = surface_map.setdefault(surface, category)
            if previous != category:
                raise FormatError(
                    f"{src} row {row_no}: surface {surface!r} already maps to {previous!r}"
                )
            levels[surface] = level
    if not categories:
        raise FormatError(f"{src}: taxonomy declares no categories, not even {UNKNOWN!r}")
    categories.add(UNKNOWN)
    return Ontology(categories=categories, surface_map=surface_map, levels=levels)


def categorize(name: str, ont: Ontology) -> str:
    """Map a section name to its canonical category, falling back to UNKNOWN.

    Exact lookup happens on the normalized surface form; failing that, the
    nearest surface by normalized edit distance wins when its ratio is at
    most ``FUZZY_RATIO``, ties going to the surface that sorts first. Two
    exact filters skip the surfaces that cannot pass before any distance is
    computed: the length difference is a lower bound on the distance, and
    strings within ``d`` edits share all but ``2d`` of the distinct 2-grams
    of either one. An edit destroys at most two 2-gram occurrences, and a
    distinct 2-gram is lost only when every occurrence of it is.
    """
    surface = normalize_surface(name)
    if not surface:
        return UNKNOWN
    hit = ont.surface_map.get(surface)
    if hit is not None:
        return hit
    size = len(surface)
    bits, by_length, longest = ont._fuzzy
    mine = _grams(surface)
    my_grams = len(mine)
    # the name's 2-grams that some surface holds, as one int of their bits
    my_bits = 0
    for gram in mine:
        my_bits |= bits.get(gram, 0)
    best: tuple[float, str] | None = None
    # the budget of every length up to the name's own, where the name is the longer
    budget = max_edits(size, FUZZY_RATIO)
    for n in range(max(1, size - budget), longest + 1):
        edits = budget if n <= size else max_edits(n, FUZZY_RATIO)
        # n - size - edits never falls as n grows (the budget grows by at
        # most 1 per character), so no longer surface can pass either
        if n - size > edits:
            break
        for candidate, their_bits, their_grams in by_length.get(n, ()):
            # the bit count is the number of 2-grams the two share
            if (my_bits & their_bits).bit_count() < max(my_grams, their_grams) - 2 * edits:
                continue
            ratio = edit_ratio(surface, candidate)
            if ratio <= FUZZY_RATIO and (best is None or (ratio, candidate) < best):
                best = (ratio, candidate)
    return UNKNOWN if best is None else ont.surface_map[best[1]]


class CategoryCount(Record):
    __slots__ = _fields = ("section_count", "frequency", "frequency_pct")


class CategoryStats(Record):
    __slots__ = _fields = ("rows", "total_sections")


def category_stats(docs: list[AnnotatedDocument], ont: Ontology) -> CategoryStats:
    """Per-category distinct surface forms, occurrences, and percentage share."""
    if not docs:
        raise EmptyCorpus("category_stats needs at least one document")
    # each category's sections, as their normalized labels
    labels: dict[str, list[str]] = {}
    for doc in docs:
        for sec in doc.sections:
            labels.setdefault(categorize(sec.label, ont), []).append(normalize_surface(sec.label))
    if not labels:
        raise EmptyCorpus("category_stats needs at least one section")
    total = sum(map(len, labels.values()))
    return _stats({cat: (len(set(seen)), len(seen)) for cat, seen in labels.items()}, total)


def _stats(counts: dict[str, tuple[int, int]], total: int) -> CategoryStats:
    """Each category's ``(section_count, frequency)`` with its share of ``total``."""
    rows = {cat: CategoryCount(sc, freq, freq / total * 100.0) for cat, (sc, freq) in counts.items()}
    return CategoryStats(rows, total)


def load_reference_counts(path: str | Path | None = None) -> CategoryStats:
    """Load the shipped per-category reference distribution.

    File format: ``category,section_count,frequency`` CSV with a header row,
    one row per category, each count written in the digits 0-9 and no
    section count above its frequency, as ``category_stats`` counts them;
    percentages are recomputed from the frequencies.
    """
    src = data_path("category_counts.csv") if path is None else path
    raw: dict[str, tuple[int, int]] = {}
    with open_text(src) as fh:
        for row_no, row in _csv_rows(
            src, fh, lambda header: header == ["category", "section_count", "frequency"],
            "reference counts need a category,section_count,frequency header",
        ):
            if len(row) < 3:
                raise FormatError(f"{src} row {row_no}: needs category,section_count,frequency")
            if not (category := row[0].strip()):
                raise FormatError(f"{src} row {row_no}: missing category")
            if category in raw:
                raise FormatError(f"{src} row {row_no}: category {category!r} is repeated")
            try:
                counts = int(row[1]), int(row[2])
            except ValueError as exc:
                raise FormatError(f"{src} row {row_no}: {exc}") from exc
            if min(counts) < 0:
                raise FormatError(f"{src} row {row_no}: counts must not be negative")
            if not all(c.strip().isascii() and c.strip().isdigit() for c in row[1:3]):
                raise FormatError(f"{src} row {row_no}: counts must be written in the digits 0-9")
            if counts[0] > counts[1]:
                raise FormatError(f"{src} row {row_no}: section_count exceeds frequency")
            raw[category] = counts
    total = sum(freq for _, freq in raw.values())
    if total == 0:
        raise FormatError(f"{src}: reference counts sum to zero")
    return _stats(raw, total)


def top_section_names() -> list[str]:
    """The bundled most-frequent section names, in file order."""
    return comment_lines(data_path("top50_sections.txt"))


def default_lexicon_entries(bundled: Ontology | None = None) -> set[str]:
    """Top section names plus every surface form in the bundled taxonomy.

    ``bundled`` is the bundled taxonomy if the caller has loaded it already;
    without it, the taxonomy is loaded here.
    """
    entries = set(top_section_names())
    entries.update((load_ontology() if bundled is None else bundled).surface_map.keys())
    return entries
