"""No user file or flag value ends in a traceback.

One property runs ``cli.main`` on a mutated copy of one valid input: a
corpus, a predictions file, IAA pairs, a config, a taxonomy, a lexicon, a
names file, a ruleset or a replay record. The mutation damages the file's
bytes (a BOM, a byte that is not UTF-8, a NUL, a lone CR, a cut) or, in a
JSON file, swaps one value for a hostile one (null, a bool, a huge or
negative int, NaN, an inverted or out-of-range span, 'İ' or 'Σ', a NUL, a
lone surrogate, deep nesting), or, in a corpus, appends a hostile string to
one note's text. Another gives one flag of one command a hostile value (a
NUL, a lone surrogate, 'İ' or 'Σ', an empty string, a value starting with
'-', and for the numeric flags NaN, infinities and huge or negative
numbers). A third runs the ``regex`` and ``rules`` segmenters
with a ruleset drawn from a small grammar of patterns. Whatever the file or
the flag holds, no exception escapes ``main``, the exit code is 0, 1 or 2
(argparse's usage error counts as its exit 2), and an exit 1 writes exactly
one ``error:`` line.

Every run is offline and quick: the LLM segmenter answers from a replay
store, no input names an endpoint or sets a backoff, and no drawn pattern
nests quantifiers, as a regex that backtracks without bound is out of scope.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from sectionid.cli import _options, main

_PAIRS = [
    {"id": "p1", "a": ["Plan", "Allergies"], "b": ["Plan"]},
    {"id": "p2", "a": [], "b": ["HPI"]},
]
_TAXONOMY = (
    "surface_form,category,level\nplan,Plan,coarse\nallergies,Allergies,coarse\n"
    "hpi,History,fine\n,Bare,\n"
)
_LEXICON = "# headers\nPlan\nAllergies\nChief Complaint\nΣΣ\n"
_NAMES = "Plan\nallergies\nHistroy\nno such section\n"
_RULESET = [
    {"name": "colon", "pattern": r"([A-Z][A-Za-z ]+):"},
    {"name": "caps", "pattern": r"[A-Z ]{3,}$"},
]
# "<name>" stands for the path of that input; the keys keep their order, so
# a swap's index names the same value in the template and in the file
_CONFIG = {
    "segmenter": "llm",
    "strategy": "zero_shot",
    "replay": "<store>",
    "ontology": "<taxonomy>",
    "lexicon": "<lexicon>",
    "ruleset": "<ruleset>",
    "strict": True,
    "close_ended_eval": False,
    "alignment": {"max_edit_ratio": 0.2},
    "llm": {"model_name": "gpt-4", "max_context_chars": 4000, "label_set": ["Plan"]},
}

# The commands that read each input, as argv with "<name>" for the path of
# an input and "<out>" for a fresh output directory. An LLM run needs the
# replay store, as no input names an endpoint.
_RUNS = {
    "corpus": [
        ["segment", "--corpus", "<corpus>", "--segmenter", "rules", "--out", "<out>"],
        ["segment", "--corpus", "<corpus>", "--segmenter", "llm", "--replay", "<store>",
         "--out", "<out>"],
        ["evaluate", "--corpus", "<corpus>", "--predictions", "<predictions>", "--out", "<out>"],
        ["stats", "--corpus", "<corpus>", "--out", "<out>"],
    ],
    "predictions": [
        ["evaluate", "--corpus", "<corpus>", "--predictions", "<predictions>", "--out", "<out>"],
        ["evaluate", "--corpus", "<corpus>", "--predictions", "<predictions>", "--close-ended",
         "--out", "<out>"],
    ],
    "pairs": [["iaa", "--pairs", "<pairs>", "--out", "<out>"]],
    "config": [
        ["segment", "--config", "<config>", "--corpus", "<corpus>", "--out", "<out>"],
        ["segment", "--config", "<config>", "--corpus", "<corpus>", "--segmenter", "rules",
         "--out", "<out>"],
        ["evaluate", "--config", "<config>", "--corpus", "<corpus>", "--predictions",
         "<predictions>", "--out", "<out>"],
    ],
    "taxonomy": [
        ["normalize", "--names", "<names>", "--ontology", "<taxonomy>", "--out", "<out>"],
        ["segment", "--corpus", "<corpus>", "--ontology", "<taxonomy>", "--out", "<out>"],
        ["evaluate", "--corpus", "<corpus>", "--predictions", "<predictions>", "--close-ended",
         "--ontology", "<taxonomy>", "--out", "<out>"],
    ],
    "lexicon": [
        ["segment", "--corpus", "<corpus>", "--segmenter", "keyword", "--lexicon", "<lexicon>",
         "--out", "<out>"],
        ["segment", "--corpus", "<corpus>", "--lexicon", "<lexicon>", "--out", "<out>"],
    ],
    "names": [["normalize", "--names", "<names>", "--out", "<out>"]],
    "ruleset": [
        ["segment", "--corpus", "<corpus>", "--segmenter", "regex", "--ruleset", "<ruleset>",
         "--out", "<out>"],
        ["segment", "--corpus", "<corpus>", "--ruleset", "<ruleset>", "--out", "<out>"],
    ],
    "record": [
        ["segment", "--corpus", "<corpus>", "--segmenter", "llm", "--replay", "<store>",
         "--out", "<out>"],
    ],
}
_JSON_LINES = {"corpus", "predictions", "pairs"}
_JSON = _JSON_LINES | {"config", "ruleset", "record"}

# Byte damage: a BOM in front, or one of these inserted, or a cut.
_INSERTS = [
    b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x00", b"\r", "İ".encode(), "Σ".encode(),
]
# Stands for a value nested far deeper than the JSON decoder recurses.
_DEEP = "deep"
_HOSTILE = [
    None, True, False, 10**40, -1, -(10**20), float("nan"), [9, 2], [0, 10**9],
    "İ", "ΣΑΣ", "\u0000", "a\ud800", _DEEP, {},
]


# Hostile flag values: for every flag that takes a value, and for the
# numeric ones the extra values of their type
_FLAG_VALUES = ["\0", "a\0b", "a\ud800", "İ", "ΣΑΣ", "", "-x", "--out"]
_NUMBER_VALUES = {
    "--max-edit-ratio": ["nan", "inf", "-inf", "1e999", "-0.5", "1"],
    "--workers": [str(10**40), "-1", "0", str(-(10**20))],
}
_FLAG_CASES = st.sampled_from([
    (run, flag)
    for run in dict.fromkeys(tuple(run) for runs in _RUNS.values() for run in runs)
    for flag, (_, _, keywords) in _options(run[0])[0].items()
    if keywords is not None
]).flatmap(
    lambda pair: st.tuples(
        st.just(pair), st.sampled_from([*_NUMBER_VALUES.get(pair[1], ()), *_FLAG_VALUES])
    )
)


def _paths(value, prefix=()):
    """Every place in a JSON value, the value itself first, in order."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*prefix, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, (*prefix, i))


def _swap(value, path, new):
    if not path:
        return new
    *parents, last = path
    holder = value
    for key in parents:
        holder = holder[key]
    holder[last] = new
    return value


def _swapped(data: bytes, kind: str, line: int, place: int, new) -> bytes:
    """``data`` with the ``place``-th value of one JSON document set to ``new``:
    the ``line``-th line of a JSONL file, or the whole file."""
    text = data.decode("utf-8")
    documents = text.splitlines() if kind in _JSON_LINES else [text]
    i = line % len(documents)
    value = json.loads(documents[i])
    places = list(_paths(value))
    swapped = json.dumps(_swap(value, places[place % len(places)], new))
    documents[i] = swapped.replace(json.dumps(_DEEP), "[" * 50_000 + "]" * 50_000)
    return "\n".join(documents).encode("utf-8") + b"\n"


def _damaged(data: bytes, op: str, at: int, insert: bytes) -> bytes:
    i = at % (len(data) + 1)
    if op == "bom":
        return b"\xef\xbb\xbf" + data
    if op == "cut":
        return data[:i]
    return data[:i] + insert + data[i:]


_BYTES = st.tuples(
    st.just("bytes"), st.sampled_from(["bom", "insert", "cut"]), st.integers(0, 10**6),
    st.sampled_from(_INSERTS),
)
_SWAP = st.tuples(
    st.just("swap"), st.integers(0, 50), st.integers(0, 10**3), st.sampled_from(_HOSTILE)
)
# A hostile string at the end of one note's text, where it moves no gold
# span, so that strict loading passes and the note reaches every stage
_APPEND = st.tuples(
    st.just("append"), st.integers(0, 50),
    st.sampled_from([h for h in _HOSTILE if isinstance(h, str) and h != _DEEP]),
)
_MUTATIONS = {"corpus": st.one_of(_BYTES, _SWAP, _APPEND)}
_CASES = st.sampled_from(sorted(_RUNS)).flatmap(
    lambda kind: st.tuples(
        st.just(kind),
        st.integers(0, len(_RUNS[kind]) - 1),
        _MUTATIONS.get(kind, st.one_of(_BYTES, _SWAP) if kind in _JSON else _BYTES),
    )
)


def _appended(data: bytes, line: int, new: str) -> bytes:
    """``data``, a corpus, with ``new`` appended to the ``line``-th note's text."""
    notes = data.decode("utf-8").splitlines()
    i = line % len(notes)
    note = json.loads(notes[i])
    note["text"] += new
    notes[i] = json.dumps(note)
    return "\n".join(notes).encode("utf-8") + b"\n"


def _config_case(key: str, run: int, value: str):
    """The case that sets config key ``key`` to ``value`` for run ``run``."""
    return ("config", run, ("swap", 0, list(_paths(_CONFIG)).index((key,)), value))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, replay_store):
    """One valid file of each kind, the predictions written by ``segment``."""
    base = tmp_path_factory.mktemp("inputs")
    paths = {
        kind: base / name for kind, name in [
            ("corpus", "corpus.jsonl"), ("predictions", "run/predictions.jsonl"),
            ("pairs", "pairs.jsonl"), ("config", "config.json"), ("taxonomy", "taxonomy.csv"),
            ("lexicon", "lexicon.txt"), ("names", "names.txt"), ("ruleset", "rules.json"),
        ]
    }
    paths["store"] = replay_store
    shutil.copy(FIXTURES / "gold_small.jsonl", paths["corpus"])
    paths["pairs"].write_text("".join(json.dumps(p) + "\n" for p in _PAIRS), encoding="utf-8")
    paths["taxonomy"].write_text(_TAXONOMY, encoding="utf-8")
    paths["lexicon"].write_text(_LEXICON, encoding="utf-8")
    paths["names"].write_text(_NAMES, encoding="utf-8")
    paths["ruleset"].write_text(json.dumps(_RULESET), encoding="utf-8")
    config = json.dumps(_CONFIG)
    for name, path in paths.items():
        config = config.replace(json.dumps(f"<{name}>"), json.dumps(str(path)))
    paths["config"].write_text(config, encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([
            "segment", "--corpus", str(paths["corpus"]), "--segmenter", "llm",
            "--replay", str(replay_store), "--out", str(paths["predictions"].parent),
        ]) == 0
    return paths


@settings(max_examples=300, deadline=None)
@given(case=_CASES)
# path settings that open() refuses with ValueError
@example(case=_config_case("ontology", 0, "a\u0000b"))
@example(case=_config_case("lexicon", 1, "a\u0000b"))
@example(case=_config_case("ontology", 0, "a\ud800"))
# a note text that no request body or replay key can hold, in an LLM run
@example(case=("corpus", 1, ("append", 0, "a\ud800")))
def test_no_user_file_ends_in_a_traceback(inputs, case):
    kind, run, (how, *mutation) = case
    with tempfile.TemporaryDirectory(dir=inputs["corpus"].parent) as scratch:
        scratch = Path(scratch)
        paths = {**inputs, "out": scratch / "out"}
        if kind == "record":
            paths["store"] = scratch / "store"
            shutil.copytree(inputs["store"], paths["store"])
            records = sorted(paths["store"].iterdir())
            # the mutation's second part is an int either way
            target = records[mutation[1] % len(records)]
        else:
            target = paths[kind] = scratch / inputs[kind].name
            shutil.copy(inputs[kind], target)
        data = target.read_bytes()
        if how == "swap":
            target.write_bytes(_swapped(data, kind, *mutation))
        elif how == "append":
            target.write_bytes(_appended(data, *mutation))
        else:
            target.write_bytes(_damaged(data, *mutation))
        _check_main([str(paths[arg[1:-1]]) if arg[0] == "<" else arg for arg in _RUNS[kind][run]])


def _check_main(argv) -> tuple[int, str]:
    """Run ``main(argv)``: no exception escapes, the exit code is 0, 1 or 2,
    a usage error counting as argparse's exit 2, and an exit 1 writes
    exactly one ``error:`` line. Returns the code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err.getvalue()
    return code, err.getvalue()


def _flag_case(argv: str, flag: str, value: str):
    """The case that sets ``flag`` to ``value`` in the run ``argv``."""
    return ((tuple(argv.split()), flag), value)


@settings(max_examples=300, deadline=None)
@given(case=_FLAG_CASES)
# path flags that open() or mkdir() refuse with ValueError or UnicodeEncodeError
@example(case=_flag_case("normalize --names <names> --out <out>", "--names", "a\0b"))
@example(case=_flag_case("normalize --names <names> --out <out>", "--out", "a\ud800"))
@example(case=_flag_case("iaa --pairs <pairs> --out <out>", "--pairs", "a\0b"))
@example(case=_flag_case("stats --corpus <corpus> --out <out>", "--out", "a\ud800"))
@example(case=_flag_case(
    "segment --config <config> --corpus <corpus> --out <out>", "--config", "a\0b"
))
def test_no_flag_value_ends_in_a_traceback(inputs, case):
    (run, flag), value = case
    argv = list(run)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    cwd = os.getcwd()
    # a relative value, such as an empty --out, names a path in the scratch directory
    with tempfile.TemporaryDirectory(dir=inputs["corpus"].parent) as scratch:
        paths = {**inputs, "out": Path(scratch) / "out"}
        os.chdir(scratch)
        try:
            _check_main([str(paths[arg[1:-1]]) if arg[:1] == "<" else arg for arg in argv])
        finally:
            os.chdir(cwd)


# Ruleset patterns from a small grammar: patterns that do not compile, and
# runs of zero-width assertions, patterns that match a whole line, a newline
# or a colon, a named group, a lookbehind and 'İ' or 'Σ'. A quantifier sits
# only inside an atom, so no draw nests one quantifier in another.
_BROKEN_PATTERNS = ["(", "[A-", "*", "x{2,1}", "(?P<h>", "(?<=P+)", "\\", "(?P<1>x)"]
_PATTERN_ATOMS = [
    "^", "$", "(?=P)", "(?!P)", ".*", "\\n", "\n", ":", " ", "Plan", "[A-Z]+", "(Plan)",
    "(?P<h>Plan)", "(?P<h>[A-Z][a-z]+)", "(?<=P)", "(?<=P)lan", "İ", "Σ", "(?i:σ)",
]
_PATTERNS = st.one_of(
    st.sampled_from(_BROKEN_PATTERNS),
    st.lists(st.sampled_from(_PATTERN_ATOMS), min_size=1, max_size=4).map("".join),
)


@settings(max_examples=100, deadline=None)
@given(patterns=st.lists(_PATTERNS, min_size=1, max_size=3))
@example(patterns=["^", "$", "(?=P)", "\\n", ":", ".*", "(?P<h>Plan):", "P(?<=P)lan"])
def test_no_ruleset_pattern_ends_in_a_traceback(inputs, patterns):
    rules = [{"name": f"r{i}", "pattern": pattern} for i, pattern in enumerate(patterns)]
    with tempfile.TemporaryDirectory(dir=inputs["corpus"].parent) as scratch:
        ruleset = Path(scratch) / "rules.json"
        ruleset.write_text(json.dumps(rules), encoding="utf-8")
        for segmenter in ("regex", "rules"):
            code, err = _check_main([
                "segment", "--corpus", str(inputs["corpus"]), "--segmenter", segmenter,
                "--ruleset", str(ruleset), "--out", str(Path(scratch) / segmenter),
            ])
            # a pattern is refused naming its file; any other ends cleanly
            assert code == 0 or (code == 1 and f"error: {ruleset}: " in err), err
