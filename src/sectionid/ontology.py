"""Canonicalize free-form section names into coarse categories.

The bundled taxonomy (``data/taxonomy.csv``) maps observed real-world
section surface forms to a 25-category coarse scheme that always includes
an ``UNKNOWN`` fallback. A companion file (``data/category_counts.csv``)
ships the reference per-category counts observed when the taxonomy was
built, so the distribution can be reproduced without the source documents.

A name with no exact surface is compared by edit distance only with the
surfaces that pass two exact filters, a length window and a count of shared
distinct 2-grams, so the answer is the one a comparison with every surface
gives. Both read a per-``Ontology`` table of each surface and its 2-gram set,
grouped by length: the surfaces are grouped at the first such lookup, and the
2-gram sets of one length are built when a lookup's window first reaches it.
Each table is stored only once it is complete, so threads may share one
``Ontology``.
"""

from __future__ import annotations

import csv
import operator
from importlib import resources
from pathlib import Path
from typing import Iterator, TextIO

from .corpus import AnnotatedDocument, Record, comment_lines, open_text
from .errors import DanglingCategory, EmptyCorpus, FormatError
from .textdist import edit_ratio, max_edits

UNKNOWN = "UNKNOWN"
COARSE = "coarse"
FINE = "fine"

FUZZY_RATIO = 0.15


def data_path(name: str):
    """Importable path to a bundled data file."""
    return resources.files("sectionid").joinpath("data", name)


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

    def __init__(
        self,
        categories: set[str],
        surface_map: dict[str, str],
        levels: dict[str, str] | None = None,
    ) -> None:
        self.categories = categories
        self.surface_map = surface_map
        self.levels = {} if levels is None else levels
        if UNKNOWN not in categories:
            raise DanglingCategory(f"ontology must declare {UNKNOWN!r}")
        for surface, category in surface_map.items():
            if category not in categories:
                raise DanglingCategory(
                    f"surface {surface!r} maps to undeclared category {category!r}"
                )
        # filled by fuzzy lookups: the surfaces per length and the longest
        # length, at the first one, and per length a lookup has reached, each
        # surface of it with its 2-gram set and that set's size. Not fields,
        # so == and repr see only the taxonomy.
        self._by_length: dict[int, list[str]] | None = None
        self._longest = 0
        self._fuzzy: dict[int, list[tuple[str, frozenset[str], int]]] = {}

    def _longest_surface(self) -> int:
        """The length of the longest surface; groups the surfaces by length first."""
        if self._by_length is None:
            by_length: dict[int, list[str]] = {}
            for surface in self.surface_map:
                by_length.setdefault(len(surface), []).append(surface)
            # published whole, after the length, so a thread sharing this
            # object never reads a part-built table
            self._longest = max(by_length, default=0)
            self._by_length = by_length
        return self._longest

    def _fuzzy_bucket(self, n: int) -> list[tuple[str, frozenset[str], int]]:
        """Each surface of length ``n``, its 2-gram set and that set's size."""
        bucket = self._fuzzy.get(n)
        if bucket is None:
            bucket = []
            for surface in self._by_length.get(n, ()):
                grams = _grams(surface)
                bucket.append((surface, grams, len(grams)))
            self._fuzzy[n] = bucket
        return bucket

    def coarse_categories(self) -> set[str]:
        fine_only = {
            self.surface_map[s] for s, lvl in self.levels.items() if lvl == FINE
        } - {self.surface_map[s] for s, lvl in self.levels.items() if lvl != FINE}
        return self.categories - fine_only


def _csv_rows(src: object, fh: TextIO) -> Iterator[tuple[int, list[str]]]:
    """The number and fields of each row of a CSV file, the header being row 1.

    A row the ``csv`` module refuses, such as one holding a field longer than
    ``csv.field_size_limit()``, raises FormatError naming the file and row.
    """
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(fh), 1):
            yield row_no, row
    except csv.Error as exc:
        raise FormatError(f"{src} row {row_no + 1}: {exc}") from exc


def load_ontology(path: str | Path | object | None = None) -> Ontology:
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
        rows = _csv_rows(src, fh)
        _, header = next(rows, (1, None))
        if header is None or [h.strip().lower() for h in header[:2]] != ["surface_form", "category"]:
            raise FormatError(
                f"{src}: taxonomy file must start with a surface_form,category,level header"
            )
        for row_no, row in rows:
            if not any(map(str.strip, row)):
                continue
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
    mine = _grams(surface)
    my_grams = len(mine)
    best: tuple[float, str] | None = None
    # the budget of every length up to the name's own, where the name is the longer
    budget = max_edits(size, FUZZY_RATIO)
    for n in range(max(1, size - budget), ont._longest_surface() + 1):
        edits = budget if n <= size else max_edits(n, FUZZY_RATIO)
        # n - size - edits never falls as n grows (the budget grows by at
        # most 1 per character), so no longer surface can pass either
        if n - size > edits:
            break
        for candidate, theirs, their_grams in ont._fuzzy_bucket(n):
            if len(mine & theirs) < max(my_grams, their_grams) - 2 * edits:
                continue
            ratio = edit_ratio(surface, candidate)
            if ratio <= FUZZY_RATIO and (best is None or (ratio, candidate) < best):
                best = (ratio, candidate)
    return UNKNOWN if best is None else ont.surface_map[best[1]]


class CategoryCount(Record):
    __slots__ = _fields = ("section_count", "frequency", "frequency_pct")

    def __init__(self, section_count: int, frequency: int, frequency_pct: float) -> None:
        self.section_count = section_count
        self.frequency = frequency
        self.frequency_pct = frequency_pct


class CategoryStats(Record):
    __slots__ = _fields = ("rows", "total_sections")

    def __init__(self, rows: dict[str, CategoryCount], total_sections: int) -> None:
        self.rows = rows
        self.total_sections = total_sections


def category_stats(docs: list[AnnotatedDocument], ont: Ontology) -> CategoryStats:
    """Per-category distinct surface forms, occurrences, and percentage share."""
    if not docs:
        raise EmptyCorpus("category_stats needs at least one document")
    frequency: dict[str, int] = {}
    surfaces: dict[str, set[str]] = {}
    total = 0
    for doc in docs:
        for sec in doc.sections:
            category = categorize(sec.label, ont)
            frequency[category] = frequency.get(category, 0) + 1
            surfaces.setdefault(category, set()).add(normalize_surface(sec.label))
            total += 1
    if total == 0:
        raise EmptyCorpus("category_stats needs at least one section")
    rows = {
        cat: CategoryCount(
            section_count=len(surfaces[cat]),
            frequency=freq,
            frequency_pct=freq / total * 100.0,
        )
        for cat, freq in frequency.items()
    }
    return CategoryStats(rows=rows, total_sections=total)


def load_reference_counts(path: str | Path | object | None = None) -> CategoryStats:
    """Load the shipped per-category reference distribution.

    File format: ``category,section_count,frequency`` CSV with a header row;
    percentages are recomputed from the frequencies.
    """
    src = data_path("category_counts.csv") if path is None else path
    raw: dict[str, tuple[int, int]] = {}
    with open_text(src) as fh:
        rows = _csv_rows(src, fh)
        _, header = next(rows, (1, None))
        if header is None or [h.strip().lower() for h in header] != [
            "category", "section_count", "frequency",
        ]:
            raise FormatError(
                f"{src}: reference counts need a category,section_count,frequency header"
            )
        for row_no, row in rows:
            if not any(map(str.strip, row)):
                continue
            if len(row) < 3:
                raise FormatError(f"{src} row {row_no}: needs category,section_count,frequency")
            try:
                raw[row[0].strip()] = (int(row[1]), int(row[2]))
            except ValueError as exc:
                raise FormatError(f"{src} row {row_no}: {exc}") from exc
    total = sum(freq for _, freq in raw.values())
    if total == 0:
        raise FormatError(f"{src}: reference counts sum to zero")
    rows = {
        cat: CategoryCount(section_count=sc, frequency=freq, frequency_pct=freq / total * 100.0)
        for cat, (sc, freq) in raw.items()
    }
    return CategoryStats(rows=rows, total_sections=total)


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
