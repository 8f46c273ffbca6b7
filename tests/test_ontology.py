from __future__ import annotations

import csv
import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import conftest
from conftest import (
    FIXTURES,
    make_synthetic_corpus,
    reference_categorize,
    reference_prefix_distances,
)
from sectionid import ontology
from sectionid.corpus import AnnotatedDocument, Document, SectionAnnotation
from sectionid.errors import DanglingCategory, EmptyCorpus, FormatError
from sectionid.ontology import (
    UNKNOWN,
    Ontology,
    categorize,
    category_stats,
    load_ontology,
    load_reference_counts,
    normalize_surface,
)


@pytest.fixture(scope="module")
def ont() -> Ontology:
    return load_ontology()


def variant_lines(name: str) -> list[str]:
    return (FIXTURES / name).read_text(encoding="utf-8").strip().splitlines()


def test_normalize_strips_and_lowercases():
    assert normalize_surface("  Medication List at End of Visit:") == (
        "medication list at end of visit"
    )
    assert normalize_surface("HPI") == "hpi"
    assert normalize_surface("***") == ""
    assert normalize_surface("**Plan**") == "plan"
    assert normalize_surface("Review   of\tSystems") == "review of systems"


@given(st.text(max_size=60))
def test_normalize_idempotent(name):
    once = normalize_surface(name)
    assert normalize_surface(once) == once


def test_bundled_taxonomy_shape(ont):
    assert len(ont.categories) == 25
    assert UNKNOWN in ont.categories
    assert len(ont.coarse_categories()) == 25


def test_categorize_exact_and_fuzzy(ont):
    assert categorize("Medication List at End of Visith", ont) == "Medications Section"
    assert categorize("Orders Placed This Encounter", ont) == "Order Info"
    assert categorize("zqx frobnicate", ont) == UNKNOWN
    # one OCR substitution away from "allergies"
    assert categorize("Allergles", ont) == "Allergies"


def test_categorize_blank_is_unknown(ont):
    assert categorize("***", ont) == UNKNOWN


def test_all_medication_variants_map_to_one_category(ont):
    for variant in variant_lines("medication_variants.txt"):
        assert categorize(variant, ont) == "Medications Section", variant


def test_all_order_variants_map_to_one_category(ont):
    for variant in variant_lines("order_variants.txt"):
        assert categorize(variant, ont) == "Order Info", variant


@given(st.text(max_size=40))
def test_categorize_idempotent_under_normalization(name):
    ont = load_ontology()
    assert categorize(normalize_surface(name), ont) == categorize(name, ont)


def test_categorize_finds_a_longer_surface_within_the_ratio():
    # 10 edits in 67 characters is a ratio of 0.149: the length window has
    # to come from the longer string, here the surface
    ont = Ontology(categories={UNKNOWN, "Long"}, surface_map={"a" * 67: "Long"})
    assert categorize("a" * 57, ont) == "Long"
    assert categorize("a" * 56, ont) == UNKNOWN


# A few letters, so that surfaces share 2-grams and near misses are common,
# with letters whose lowercase form differs in length or context.
_SURFACE_ALPHABET = "abcd İΣςßK\u212a"


def _edited(draw, text: str) -> str:
    chars = list(text)
    for _ in range(draw(st.integers(0, 12))):
        pos = draw(st.integers(0, len(chars)))
        char = draw(st.sampled_from(_SURFACE_ALPHABET))
        edit = draw(st.sampled_from(("substitute", "insert", "delete")))
        if edit == "insert":
            chars.insert(pos, char)
        elif pos < len(chars):
            chars[pos:pos + 1] = [char] if edit == "substitute" else []
    return "".join(chars)


@st.composite
def _taxonomy_and_names(draw):
    """A taxonomy of up to 12 surfaces of up to 70 characters, and names that
    are edited surfaces or unrelated strings."""
    surfaces = draw(st.lists(st.text(_SURFACE_ALPHABET, min_size=1, max_size=70), max_size=12))
    surface_map = {normalize_surface(s): f"C{i % 3}" for i, s in enumerate(surfaces)}
    surface_map.pop("", None)
    ont = Ontology(categories={UNKNOWN, "C0", "C1", "C2"}, surface_map=surface_map)
    names = [
        _edited(draw, draw(st.sampled_from(surfaces)))
        if surfaces and draw(st.booleans())
        else draw(st.text(_SURFACE_ALPHABET, max_size=70))
        for _ in range(draw(st.integers(1, 6)))
    ]
    return ont, names


@st.composite
def _text_and_edited(draw):
    """Any text, or text full of repeats, and the same text edited, or any text."""
    text = draw(st.one_of(st.text(max_size=40), st.text("aab", max_size=40)))
    return text, (_edited(draw, text) if draw(st.booleans()) else draw(st.text(max_size=40)))


@given(_text_and_edited())
def test_strings_within_d_edits_share_all_but_2d_distinct_grams(pair):
    # the bound categorize filters on: an edit destroys at most two 2-gram
    # occurrences, and a distinct 2-gram is lost only with all of them
    a, b = pair
    mine, theirs = ontology._grams(a), ontology._grams(b)
    assert mine == {a[i:i + 2] for i in range(len(a) - 1)}
    edits = reference_prefix_distances(a, b)[-1]
    assert len(mine & theirs) >= max(len(mine), len(theirs)) - 2 * edits


@settings(max_examples=300, deadline=None)
@given(
    _taxonomy_and_names(),
    st.one_of(
        st.sampled_from((0.0, ontology.FUZZY_RATIO, 0.29, 0.5, 0.58, 0.7)),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
)
def test_filtered_categorize_equals_the_full_scan(case, ratio):
    ont, names = case
    with mock.patch.object(ontology, "FUZZY_RATIO", ratio):
        for name in names:
            assert categorize(name, ont) == reference_categorize(name, ont)


def test_filtered_categorize_skips_most_edit_ratios(ont):
    # the work-count guard: a filter that silently stops filtering fails
    # here, with no timing involved
    rng = random.Random(11)
    names = []
    for surface in sorted(ont.surface_map)[::3]:
        chars = list(surface)
        for pos in rng.sample(range(len(chars)), k=min(len(chars), rng.randint(1, 2))):
            chars[pos] = rng.choice("abcdefghijklmnopqrstuvwxyz")
        names.append("".join(chars))
    names += ["Patient Information and Visit Details", "Disposition", "zqx frobnicate"]
    with mock.patch.object(ontology, "edit_ratio", wraps=ontology.edit_ratio) as filtered, \
            mock.patch.object(conftest, "edit_ratio", wraps=conftest.edit_ratio) as full:
        for name in names:
            assert categorize(name, ont) == reference_categorize(name, ont)
    assert full.call_count >= 40 * len(ont.surface_map)
    assert filtered.call_count < 0.1 * full.call_count


def test_ontology_keeps_no_shared_state():
    # same surfaces, different categories: each object answers from its own
    # map, and its fuzzy table changes neither ==, repr nor the dataclass fields
    categories = {UNKNOWN, "A", "B"}
    first = Ontology(categories, {"allergies": "A", "medications": "B"})
    second = Ontology(categories, {"allergies": "B", "medications": "A"})
    fresh = load_ontology()
    assert "_fuzzy" not in vars(fresh)
    before = repr(first)
    for _ in range(2):
        assert categorize("Allergles", first) == "A"
        assert categorize("Allergles", second) == "B"
        assert categorize("Medicatons", first) == "B"
        assert categorize("Medicatons", second) == "A"
    assert repr(first) == before
    assert {s for group in first._fuzzy[1].values() for s, _, _ in group} == set(first.surface_map)
    assert first._fuzzy is not second._fuzzy
    assert first == Ontology(categories, {"allergies": "A", "medications": "B"})
    assert Ontology._fields == ("categories", "surface_map", "levels")


def test_fuzzy_table_is_built_whole_at_first_use():
    # the work-count guard of the lazy table: an exact hit builds nothing, the
    # first fuzzy lookup takes the 2-grams of every surface, and later lookups
    # take those of their own name only
    ont = load_ontology()
    social, chief = ont.surface_map["social history"], ont.surface_map["chief complaint"]
    with mock.patch.object(ontology, "_grams", wraps=ontology._grams) as grams:
        assert categorize("SOCIAL HISTORY:", ont) == social
        assert (grams.call_count, "_fuzzy" in vars(ont)) == (0, False)

        assert categorize("Social Histroy", ont) == social
        assert grams.call_count == 1 + len(ont.surface_map)
        table = ont._fuzzy

        grams.reset_mock()
        assert categorize("Social Histroy", ont) == social
        assert categorize("Chief Complaintss", ont) == chief
        assert grams.call_count == 2
        assert ont._fuzzy is table


@settings(max_examples=200, deadline=None)
@given(_taxonomy_and_names(), st.text(_SURFACE_ALPHABET + "xyz", max_size=40))
def test_gram_masks_count_the_shared_grams(case, stranger):
    # the table's bits stand for the 2-gram sets exactly, so one AND counts
    # what the set intersection counts, also for a name with 2-grams (those
    # of "xyz") that no surface holds
    ont, names = case
    bits, by_length, longest = ont._fuzzy
    assert longest == max(map(len, ont.surface_map), default=0)
    gram_of = {bit: gram for gram, bit in bits.items()}
    assert sorted(gram_of) == [1 << i for i in range(len(bits))]
    entries = [(n, *entry) for n, group in by_length.items() for entry in group]
    assert sorted(surface for _, surface, _, _ in entries) == sorted(ont.surface_map)
    for name in [*names, stranger]:
        mine = ontology._grams(normalize_surface(name))
        my_bits = sum(bits.get(gram, 0) for gram in mine)
        for n, surface, mask, count in entries:
            theirs = ontology._grams(surface)
            assert (n, count) == (len(surface), len(theirs))
            assert {gram for bit, gram in gram_of.items() if mask & bit} == theirs
            assert (my_bits & mask).bit_count() == len(mine & theirs)


def test_length_window_stops_at_the_longest_surface():
    # the loop's own break, n - size > edits, comes only near
    # n = size / (1 - ratio): at a ratio near 1, which the property test
    # above draws, only the longest surface keeps the window short
    ont = Ontology({UNKNOWN, "A"}, {"abc": "A"})
    with mock.patch.object(ontology, "FUZZY_RATIO", 0.999), \
            mock.patch.object(ontology, "max_edits", wraps=ontology.max_edits) as budgets:
        assert categorize("zz", ont) == UNKNOWN
    # the budget of the name's own length, then that of length 3, the only
    # longer one
    assert budgets.call_count == 2


def test_an_empty_taxonomy_ends_the_length_window_at_zero():
    ont = Ontology({UNKNOWN}, {})
    assert categorize("plan", ont) == UNKNOWN
    assert ont._fuzzy == ({}, {}, 0)


def test_threads_sharing_a_cold_ontology_all_find_the_fuzzy_match():
    # each thread's first lookup may build the tables another thread is
    # reading; a switch every microsecond makes the overlap near certain
    name, expected, threads = "Assesment and Plan", "Assessment & Plan", 12

    def lookup(ont, start, answers):
        start.wait(timeout=10)
        answers.append(categorize(name, ont))

    wrong = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(100):
            shared = (load_ontology(), threading.Barrier(threads), [])
            workers = [threading.Thread(target=lookup, args=shared) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10)
                assert not worker.is_alive()
            wrong += shared[2] != [expected] * threads
    finally:
        sys.setswitchinterval(interval)
    assert wrong == 0


# The refusals are weighted down, so that most files get past a few rows.
_TAXONOMY_HEADERS = st.sampled_from([
    *[["surface_form", "category", "level"]] * 4, [" Surface_Form ", "CATEGORY"],
    ["surface_form"], ["plan", "A", "coarse"],
])
# Blank and whitespace-only rows, and rows of up to four cells: surfaces
# repeated or conflicting once normalized, bare categories, mixed-case,
# empty and unknown levels, and cells holding commas or quotes.
_TAXONOMY_ROWS = st.one_of(
    st.sampled_from([[], [""], ["  "], ["", " ", ""]]),
    st.builds(
        lambda cells, n: list(cells[:n]),
        st.tuples(
            st.sampled_from(["plan", "Plan:", " PLAN ", "a, b", "A, b", "allergies", 'x "y"', "", "-"]),
            st.sampled_from(["A", "B", " A ", "C, D", "A", "B", "a", ""]),
            st.sampled_from(["coarse", "Coarse", "FINE", " fine ", "", "  ", "coarse", "medium"]),
            st.sampled_from(["", "note"]),
        ),
        st.sampled_from([3, 3, 3, 2, 3, 4, 1, 3]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_TAXONOMY_HEADERS, st.lists(_TAXONOMY_ROWS, max_size=8))
def test_load_ontology_equals_the_first_row_loop(tmp_path_factory, header, rows):
    path = tmp_path_factory.getbasetemp() / "taxonomy.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    try:
        expected = conftest.reference_load_ontology(path)
    except FormatError as exc:
        with pytest.raises(FormatError) as refused:
            load_ontology(path)
        assert str(refused.value) == str(exc)
        return
    got = load_ontology(path)
    assert got == expected
    assert list(got.surface_map.items()) == list(expected.surface_map.items())
    assert list(got.levels.items()) == list(expected.levels.items())


def test_oversized_csv_field_is_a_format_error(tmp_path):
    # a field over csv.field_size_limit() fails with the file and row
    limit = csv.field_size_limit()
    path = tmp_path / "counts.csv"
    path.write_text(f"category,section_count,frequency\nA,1,2\nB,1,{'9' * (limit + 1)}\n")
    with pytest.raises(FormatError) as refused:
        load_reference_counts(path)
    assert str(refused.value) == f"{path} row 3: field larger than field limit ({limit})"


_COUNTS_HEADER = "category,section_count,frequency\n"


@pytest.mark.parametrize("content, message", [
    ("category,count,frequency\nA,1,2\n",
     ": reference counts need a category,section_count,frequency header"),
    ("", ": reference counts need a category,section_count,frequency header"),
    (_COUNTS_HEADER + "A,1,2\nB,one,2\n", " row 3: invalid literal for int() with base 10: 'one'"),
    (_COUNTS_HEADER + "A,1,2.5\n", " row 2: invalid literal for int() with base 10: '2.5'"),
    (_COUNTS_HEADER + "A,1\n", " row 2: needs category,section_count,frequency"),
    (_COUNTS_HEADER + "A,0,0\n\nB,0,0\n", ": reference counts sum to zero"),
    (_COUNTS_HEADER + "A,1,50\nB,1,10\n A ,1,30\n", " row 4: category 'A' is repeated"),
    (_COUNTS_HEADER + "A,1,2\n ,1,2\n", " row 3: missing category"),
    (_COUNTS_HEADER + "A,1,10\nB,1,-5\n", " row 3: counts must not be negative"),
    (_COUNTS_HEADER + "A,-1,10\n", " row 2: counts must not be negative"),
    (_COUNTS_HEADER + "A,1,2\nB,5,2\n", " row 3: section_count exceeds frequency"),
    (_COUNTS_HEADER + "A,1,1_000\n", " row 2: counts must be written in the digits 0-9"),
    (_COUNTS_HEADER + "A,\uff13,3\n", " row 2: counts must be written in the digits 0-9"),
    (_COUNTS_HEADER + "A,-0,3\n", " row 2: counts must be written in the digits 0-9"),
    (_COUNTS_HEADER + "A,1,+3\n", " row 2: counts must be written in the digits 0-9"),
], ids=[
    "header", "empty", "not_int", "float", "short_row", "zero_sum",
    "repeated", "no_category", "negative_frequency", "negative_section_count",
    "section_count_over_frequency", "underscore", "fullwidth_digit", "minus_zero", "plus_sign",
])
def test_bad_reference_counts_are_format_errors(tmp_path, content, message):
    path = tmp_path / "counts.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(FormatError) as refused:
        load_reference_counts(path)
    assert str(refused.value) == f"{path}{message}"


# Mostly good headers and rows, so that most files get past a few rows; the
# rest repeat or blank a category, or hold a negative, non-integer, huge or
# missing count, a count that ``int`` takes but that is not plain digits, or
# a section count above its frequency.
_COUNTS_HEADERS = st.sampled_from([
    *[["category", "section_count", "frequency"]] * 4, [" Category ", "SECTION_COUNT", "frequency"],
    ["category", "count", "frequency"], ["category", "section_count"],
    ["category", "section_count", "frequency", "note"], [],
])
_COUNT = st.one_of(
    st.integers(0, 60).map(str),
    st.integers(-3, -1).map(str),
    st.integers(10**15, 10**40).map(str),
    st.sampled_from([" 7 ", "2.5", "x", "", "1e3", "1_000", "\uff13", "-0", "+4", " \u0661 "]),
)
# (section_count, frequency): mostly a pair that category_stats could give
_GOOD_PAIR = st.lists(st.integers(0, 60), min_size=2, max_size=2).map(
    lambda pair: [str(n) for n in sorted(pair)]
)
_COUNT_PAIR = st.one_of(_GOOD_PAIR, _GOOD_PAIR, _GOOD_PAIR, st.lists(_COUNT, min_size=2, max_size=2))
_COUNTS_ROWS = st.one_of(
    st.sampled_from([[], [""], ["  ", "", " "]]),
    st.builds(
        lambda category, counts, n: [category, *counts][:n],
        st.sampled_from(["A", "B", "C", " A ", "a", "C, D", "", "  "]),
        _COUNT_PAIR,
        st.sampled_from([3, 3, 3, 3, 2, 1]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_COUNTS_HEADERS, st.lists(_COUNTS_ROWS, max_size=8))
def test_reference_counts_are_refused_or_sum_to_their_total(tmp_path_factory, header, rows):
    path = tmp_path_factory.getbasetemp() / "counts.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    try:
        got = load_reference_counts(path)
    except FormatError as exc:
        assert str(exc).startswith((f"{path}: ", f"{path} row "))
        return
    data = [row for row in rows if any(map(str.strip, row))]
    assert list(got.rows) == [row[0].strip() for row in data]
    assert "" not in got.rows
    assert sum(count.frequency for count in got.rows.values()) == got.total_sections
    assert all(0 <= count.section_count <= count.frequency for count in got.rows.values())
    assert all(0 <= count.frequency_pct <= 100 for count in got.rows.values())
    assert sum(count.frequency_pct for count in got.rows.values()) == pytest.approx(100, abs=1e-9)


def test_levels_filtering():
    ont = Ontology(
        categories={"Exam", "Chest Exam", UNKNOWN},
        surface_map={"exam": "Exam", "chest and lung exam": "Chest Exam"},
        levels={"exam": "coarse", "chest and lung exam": "fine"},
    )
    assert categorize("Chest and Lung Exam", ont) == "Chest Exam"
    assert ont.coarse_categories() == {"Exam", UNKNOWN}


def test_ontology_rejects_dangling_category():
    with pytest.raises(DanglingCategory):
        Ontology(categories={UNKNOWN}, surface_map={"plan": "Assessment"})
    with pytest.raises(DanglingCategory):
        Ontology(categories={"Assessment"}, surface_map={})


def test_load_ontology_formats(tmp_path):
    good = tmp_path / "tax.csv"
    good.write_text(
        "surface_form,category,level\nplan,Assessment,coarse\n,Bare Category,\n",
        encoding="utf-8",
    )
    ont = load_ontology(good)
    assert ont.categories == {"Assessment", "Bare Category", UNKNOWN}
    assert ont.surface_map == {"plan": "Assessment"}

    empty = tmp_path / "empty.csv"
    empty.write_text("surface_form,category,level\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_ontology(empty)

    conflict = tmp_path / "conflict.csv"
    conflict.write_text(
        "surface_form,category,level\nplan,A,coarse\nPlan,B,coarse\n", encoding="utf-8"
    )
    with pytest.raises(FormatError):
        load_ontology(conflict)

    headerless = tmp_path / "headerless.csv"
    headerless.write_text("plan,Assessment,coarse\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_ontology(headerless)


def _corpus_with_labels(labels: list[str]) -> list[AnnotatedDocument]:
    text = "".join(f"{label}: body\n" for label in labels)
    sections = []
    pos = 0
    for label in labels:
        sections.append(
            SectionAnnotation(label=label, header_span=(pos, pos + len(label)), raw_header=label)
        )
        pos += len(label) + len(": body\n")
    return [AnnotatedDocument(Document("d1", text), sections)]


def test_category_stats_single_label(ont):
    stats = category_stats(_corpus_with_labels(["Allergies"]), ont)
    assert stats.rows["Allergies"].frequency == 1
    assert stats.rows["Allergies"].frequency_pct == 100.0


def test_category_stats_even_split(ont):
    stats = category_stats(_corpus_with_labels(["Allergies", "Family History"]), ont)
    assert stats.rows["Allergies"].frequency_pct == 50.0
    assert stats.rows["Family History"].frequency_pct == 50.0


def test_category_stats_counts_distinct_surfaces(ont):
    stats = category_stats(
        _corpus_with_labels(["Medications", "Meds", "Medications", "Orders Placed"]), ont
    )
    meds = stats.rows["Medications Section"]
    assert meds.frequency == 3
    assert meds.section_count == 2
    assert stats.total_sections == 4


def test_category_stats_pct_sums_to_100(ont):
    rng = random.Random(13)
    corpus = make_synthetic_corpus(rng, 20, min_sections=1)
    stats = category_stats(corpus, ont)
    assert sum(row.frequency_pct for row in stats.rows.values()) == pytest.approx(100.0, abs=0.1)
    assert sum(row.frequency for row in stats.rows.values()) == stats.total_sections


def test_category_stats_empty():
    with pytest.raises(EmptyCorpus, match="^category_stats needs at least one document$"):
        category_stats([], load_ontology())
    unsectioned = [AnnotatedDocument(Document(f"d{i}", "no headers here")) for i in range(2)]
    with pytest.raises(EmptyCorpus, match="^category_stats needs at least one section$"):
        category_stats(unsectioned, load_ontology())


_BUNDLED_SURFACES = sorted(load_ontology().surface_map)


@st.composite
def _one_letter_typo(draw):
    surface = draw(st.sampled_from(_BUNDLED_SURFACES))
    pos = draw(st.integers(0, len(surface) - 1))
    return surface[:pos] + draw(st.sampled_from("aeiouxz")) + surface[pos + 1:]


# Bundled surfaces upper-cased, one-letter typos of them, names outside the
# taxonomy, and labels that normalize to "" or to one surface.
_STATS_LABELS = st.one_of(
    st.sampled_from(_BUNDLED_SURFACES).map(str.upper),
    _one_letter_typo(),
    st.sampled_from(["Zebra Notes", "None", "", "  plan ", "PLAN:"]),
)


@settings(max_examples=200, deadline=None)
@given(
    # 1-4 notes of 0-5 sections, each label drawn from a small pool so that
    # labels repeat within and across notes
    st.lists(_STATS_LABELS, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.lists(st.sampled_from(pool), max_size=5), min_size=1, max_size=4)
    )
)
def test_category_stats_equals_the_two_dict_tally(ont, notes):
    docs = [doc for labels in notes for doc in _corpus_with_labels(labels)]
    try:
        expected = conftest.reference_category_stats(docs, ont)
    except EmptyCorpus as exc:
        with pytest.raises(EmptyCorpus) as refused:
            category_stats(docs, ont)
        assert str(refused.value) == str(exc)
        return
    got = category_stats(docs, ont)
    assert got == expected
    assert list(got.rows) == list(expected.rows)


def test_reference_counts_shape():
    ref = load_reference_counts()
    assert len(ref.rows) == 25
    assert ref.total_sections == 1571
    top = ref.rows["Assessment & Plan"]
    assert top.section_count == 413
    assert top.frequency == 958
    assert top.frequency_pct == pytest.approx(60.98, abs=0.01)
    assert sum(r.frequency_pct for r in ref.rows.values()) == pytest.approx(100.0, abs=0.1)
    # reference categories line up with the bundled taxonomy
    assert set(ref.rows) == load_ontology().categories
