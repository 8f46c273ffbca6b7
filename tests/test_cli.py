from __future__ import annotations

import argparse
import builtins
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES,
    StaticClient,
    make_synthetic_corpus,
    perturb_header,
    record_thread_starts,
)
from sectionid import baselines, metrics, ontology
from sectionid.cli import (
    _COMMANDS,
    FATAL,
    OK,
    PARTIAL,
    _bundled_ontology,
    _checks,
    _default_lexicon,
    _options,
    _resolved,
    build_parser,
    main,
    parse_args,
)
from sectionid.llm import LLMConfig, PromptStrategy, RecordingClient, extract_headers
from sectionid.prediction import Prediction
from test_metrics import GOLDEN_REPORTS


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def gold_path():
    return str(FIXTURES / "gold_small.jsonl")


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def test_segment_regex_writes_predictions(tmp_path, gold_path):
    out = tmp_path / "run"
    code = main(["segment", "--corpus", gold_path, "--segmenter", "regex", "--out", str(out)])
    assert code == OK
    records = read_jsonl(out / "predictions.jsonl")
    assert [r["id"] for r in records] == ["fx1", "fx2", "fx3", "fx4", "fx5"]
    fx1 = records[0]
    assert fx1["headers"] == ["Allergies", "Plan"]
    assert fx1["spans"] == [[0, 9], [22, 26]]
    assert fx1["categories"] == ["Allergies", "Assessment & Plan"]
    assert (out / "run_config.json").exists()


def test_segment_missing_corpus_is_fatal(tmp_path):
    code = main(["segment", "--corpus", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
    assert code == FATAL


def test_segment_llm_requires_replay_or_endpoint(tmp_path, gold_path):
    code = main([
        "segment", "--corpus", gold_path, "--segmenter", "llm", "--out", str(tmp_path / "o"),
    ])
    assert code == FATAL


def test_segment_llm_replay_deterministic(tmp_path, gold_path, replay_store):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "segment", "--corpus", gold_path, "--segmenter", "llm",
            "--strategy", "zero_shot", "--replay", str(replay_store), "--out", str(out),
        ])
        assert code == OK
        outs.append((out / "predictions.jsonl").read_bytes())
    assert outs[0] == outs[1]
    records = read_jsonl(tmp_path / "a" / "predictions.jsonl")
    fx5 = records[-1]
    assert fx5["headers"] == ["Allergies", "Famly History"]
    assert fx5["grounding"][1]["kind"] == "fuzzy"


def test_segment_records_the_store_it_replays(tmp_path, gold_path, replay_store):
    # with "record" set, each reply is written back as the record it came
    # from, so the new store serves the same predictions
    record = tmp_path / "record"
    config = _write_config(tmp_path, {"record": str(record)})
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([
        "segment", "--config", config, "--corpus", gold_path, "--segmenter", "llm",
        "--replay", str(replay_store), "--out", str(first),
    ]) == OK

    def files(store):
        return {path.name: path.read_bytes() for path in store.iterdir()}

    assert files(record) == files(replay_store)
    assert len(files(record)) == 5
    assert main([
        "segment", "--corpus", gold_path, "--segmenter", "llm",
        "--replay", str(record), "--out", str(second),
    ]) == OK
    assert (second / "predictions.jsonl").read_bytes() == (
        (first / "predictions.jsonl").read_bytes()
    )


# sha256 of segment's predictions.jsonl on gold_small, first 16 hex digits;
# pins every byte of both the grounded (rules) and the aligned (llm) format.
# run_config.json is left out: it holds absolute paths.
GOLDEN_PREDICTIONS = {
    "rules": "d9dd2e7791fc0095",
    "llm": "7d2d1a9e2eda1cf8",
}


@pytest.mark.parametrize("segmenter", list(GOLDEN_PREDICTIONS))
def test_predictions_bytes_are_golden(tmp_path, gold_path, replay_store, segmenter):
    out = tmp_path / "run"
    replay = ["--replay", str(replay_store)] if segmenter == "llm" else []
    assert main([
        "segment", "--corpus", gold_path, "--segmenter", segmenter, *replay, "--out", str(out),
    ]) == OK
    digest = hashlib.sha256((out / "predictions.jsonl").read_bytes()).hexdigest()[:16]
    assert digest == GOLDEN_PREDICTIONS[segmenter]


def _refuse_truncation(monkeypatch):
    """Make every write mode of ``open`` and every ``O_TRUNC`` of ``os.open`` fail."""
    real_open, real_os_open = builtins.open, os.open

    def read_only(file, mode="r", *args, **kwargs):
        assert not set(mode) & set("wax+"), f"open({file!r}, {mode!r}) writes"
        return real_open(file, mode, *args, **kwargs)

    def no_truncate(path, flags, *args, **kwargs):
        assert not flags & os.O_TRUNC, f"os.open({path!r}) truncates"
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", read_only)
    monkeypatch.setattr(io, "open", read_only)  # pathlib opens through io.open
    monkeypatch.setattr(os, "open", no_truncate)


def test_a_rerun_overwrites_its_outputs_without_truncating(
    tmp_path, gold_path, replay_store, monkeypatch, capsys
):
    """Every command writes its outputs in place; a second run into the same
    ``--out`` leaves the golden bytes."""
    monkeypatch.chdir(tmp_path)
    # the report names its corpus as given, and the golden reports name it so
    shutil.copy(gold_path, "gold_small")
    commands = [
        ["segment", "--segmenter", "rules", "--out", "rules"],
        ["segment", "--segmenter", "llm", "--replay", str(replay_store), "--out", "llm"],
        ["evaluate", "--segmenter", "llm", "--predictions", "llm/predictions.jsonl",
         "--out", "eval"],
    ]
    names = ["normalize", "--names", str(FIXTURES / "order_variants.txt"), "--out", "names.tsv"]
    _refuse_truncation(monkeypatch)
    runs = []
    for _ in range(2):
        for argv in commands:
            assert main([*argv, "--corpus", "gold_small"]) == OK
        capsys.readouterr()
        assert main(names) == OK
        assert Path("names.tsv").read_text(encoding="utf-8") == capsys.readouterr().out
        runs.append({path.as_posix(): path.read_bytes()
                     for path in sorted(Path().rglob("*")) if path.is_file()})
    assert runs[1] == runs[0]
    files = runs[1]
    for segmenter, digest in GOLDEN_PREDICTIONS.items():
        predictions = files[f"{segmenter}/predictions.jsonl"]
        assert hashlib.sha256(predictions).hexdigest()[:16] == digest
    reports = b"".join(files[f"eval/report.{ext}"] for ext in ("json", "csv", "txt"))
    assert hashlib.sha256(reports).hexdigest()[:16] == GOLDEN_REPORTS["llm", False]


def test_evaluate_gold_echo_scores_100(tmp_path, gold_path, gold_small, capsys):
    preds_path = tmp_path / "preds.jsonl"
    with open(preds_path, "w", encoding="utf-8") as fh:
        for doc in gold_small:
            fh.write(json.dumps({"id": doc.id, "headers": doc.header_texts()}) + "\n")
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--corpus", gold_path, "--predictions", str(preds_path),
        "--out", str(out),
    ])
    assert code == OK
    stdout = capsys.readouterr().out
    assert "100.00" in stdout
    csv_text = (out / "report.csv").read_text(encoding="utf-8")
    assert csv_text.splitlines()[0] == "method,accuracy,precision,recall,f1,em"
    assert "100.00,100.00,100.00,100.00,100.00" in csv_text
    assert (out / "report.json").exists() and (out / "report.txt").exists()


def test_evaluate_empty_predictions_file_is_partial(tmp_path, gold_path, capsys):
    preds_path = tmp_path / "empty.jsonl"
    preds_path.write_text("", encoding="utf-8")
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--corpus", gold_path, "--predictions", str(preds_path),
        "--out", str(out),
    ])
    assert code == PARTIAL
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["scores"]["em"] == 0.0
    assert report["scores"]["recall"] == 0.0


def test_evaluate_twice_byte_identical(tmp_path, gold_path, gold_small):
    preds_path = tmp_path / "preds.jsonl"
    with open(preds_path, "w", encoding="utf-8") as fh:
        for doc in gold_small:
            fh.write(json.dumps({"id": doc.id, "headers": doc.header_texts()[:-1]}) + "\n")
    blobs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        main([
            "evaluate", "--corpus", gold_path, "--predictions", str(preds_path),
            "--out", str(out),
        ])
        blobs.append(
            (out / "report.json").read_bytes()
            + (out / "report.csv").read_bytes()
            + (out / "report.txt").read_bytes()
        )
    assert blobs[0] == blobs[1]


def test_stats_command(tmp_path, capsys):
    corpus = tmp_path / "two.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "a", "text": "alpha " * 10, "sections": []}) + "\n")
        fh.write(json.dumps({"id": "b", "text": "alpha " * 20, "sections": []}) + "\n")
    code = main(["stats", "--corpus", str(corpus), "--out", str(tmp_path / "s")])
    assert code == OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["document_count"] == 2
    assert payload["mean_token_length"] == 15.0
    assert payload["stddev_token_length"] == 5.0
    assert (tmp_path / "s" / "corpus_stats.json").exists()


def test_normalize_medication_variants(tmp_path, capsys):
    names = FIXTURES / "medication_variants.txt"
    code = main(["normalize", "--names", str(names)])
    assert code == OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 22
    assert all(line.split("\t")[1] == "Medications Section" for line in lines)
    # blank lines and '#' comment lines are skipped
    commented = tmp_path / "commented.txt"
    commented.write_text(
        "# variants\n\n   \n" + names.read_text(encoding="utf-8") + "  # Allergies\n",
        encoding="utf-8",
    )
    assert main(["normalize", "--names", str(commented)]) == OK
    assert capsys.readouterr().out == out


def test_normalize_refuses_a_stdout_that_cannot_hold_a_name(tmp_path, capsys, monkeypatch):
    names = tmp_path / "names.txt"
    names.write_text("Plan\nAntécédents\n", encoding="utf-8")
    out = tmp_path / "names.tsv"
    argv = ["normalize", "--names", str(names), "--out", str(out)]
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
    assert main(argv) == FATAL
    sys.stdout.flush()
    assert raw.getvalue() == b""
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: stdout line 2: cannot be written as ascii: 'é' (ordinal not in range(128))\n"
    )
    # a stream without an encoding holds any name
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(argv) == OK
    expected = "Plan\tAssessment & Plan\nAntécédents\tUNKNOWN\n"
    assert sys.stdout.getvalue() == out.read_text(encoding="utf-8") == expected


def test_iaa_identical_pair(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(
        json.dumps({"id": "p1", "a": ["Plan", "Allergies"], "b": ["Allergies", "Plan"]}) + "\n",
        encoding="utf-8",
    )
    code = main(["iaa", "--pairs", str(pairs), "--out", str(tmp_path / "i")])
    assert code == OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean_jaccard"] == 1.0
    assert payload["per_pair"] == [{"id": "p1", "jaccard": 1.0}]


def test_config_file_with_flag_overrides(tmp_path, gold_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": gold_path,
        "segmenter": "keyword",
        "out": str(tmp_path / "from_config"),
    }), encoding="utf-8")
    code = main(["segment", "--config", str(config), "--segmenter", "regex"])
    assert code == OK
    snapshot = json.loads((tmp_path / "from_config" / "run_config.json").read_text())
    assert snapshot["segmenter"] == "regex"  # flag wins
    assert snapshot["corpus"] == gold_path


def test_segment_llm_partial_failure_exits_2(tmp_path, capsys):
    from conftest import StaticClient
    from sectionid.llm import LLMConfig, PromptStrategy, RecordingClient, extract_headers
    from sectionid.corpus import Document

    corpus_path = tmp_path / "two.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "ok", "text": "Plan: rest\n", "sections": []}) + "\n")
        fh.write(json.dumps({"id": "broken", "text": "Notes: text\n", "sections": []}) + "\n")

    store = tmp_path / "store"
    config = LLMConfig(backoff_base=0.0)
    canned = {"ok": '[{"section_title": "Plan"}]', "broken": "no structure here"}
    for doc_id, text in (("ok", "Plan: rest\n"), ("broken", "Notes: text\n")):
        client = RecordingClient(StaticClient(canned[doc_id]), store)
        try:
            extract_headers(Document(doc_id, text), PromptStrategy.zero_shot(), config, client)
        except Exception:
            pass  # recording still wrote the interaction

    code = main([
        "segment", "--corpus", str(corpus_path), "--segmenter", "llm",
        "--replay", str(store), "--out", str(tmp_path / "o"),
    ])
    assert code == PARTIAL
    assert "broken" in capsys.readouterr().err
    records = read_jsonl(tmp_path / "o" / "predictions.jsonl")
    assert records[0]["headers"] == ["Plan"]
    assert records[1]["headers"] == []


def test_segment_one_shot_uses_bundled_example(tmp_path, gold_path, gold_small):
    # one_shot with no per-run example falls back to the bundled one; the
    # replay store is prepared with exactly that strategy, so a hash match
    # proves the CLI built the same prompts
    from conftest import StaticClient
    from sectionid.corpus import Document
    from sectionid.llm import LLMConfig, PromptStrategy, RecordingClient, extract_headers
    from sectionid.ontology import data_path

    with data_path("one_shot_example.json").open("r", encoding="utf-8") as fh:
        example = json.load(fh)
    strategy = PromptStrategy.one_shot(example["text"], example["headers"])
    config = LLMConfig(backoff_base=0.0)
    store = tmp_path / "store"
    for doc in gold_small:
        client = RecordingClient(StaticClient('[{"section_title": "Plan"}]'), store)
        extract_headers(doc.document, strategy, config, client)

    out = tmp_path / "o"
    code = main([
        "segment", "--corpus", gold_path, "--segmenter", "llm",
        "--strategy", "one_shot", "--replay", str(store), "--out", str(out),
    ])
    assert code == OK
    snapshot = json.loads((out / "run_config.json").read_text())
    assert snapshot["strategy"] == "one_shot"
    records = read_jsonl(out / "predictions.jsonl")
    assert all(r["headers"] == ["Plan"] for r in records)


def test_unknown_segmenter_is_fatal(tmp_path, gold_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": gold_path, "segmenter": "oracle"}))
    code = main(["segment", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == FATAL
    assert "error:" in capsys.readouterr().err


def _evaluate_bad_predictions(tmp_path, gold_path, capsys, lines):
    preds_path = tmp_path / "preds.jsonl"
    preds_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main([
        "evaluate", "--corpus", gold_path, "--predictions", str(preds_path),
        "--out", str(tmp_path / "eval"),
    ])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{preds_path} line 2" in err
    assert not (tmp_path / "eval" / "report.json").exists()
    return err


def test_evaluate_truncated_predictions_line_is_fatal(tmp_path, gold_path, capsys):
    err = _evaluate_bad_predictions(tmp_path, gold_path, capsys, [
        json.dumps({"id": "fx1", "headers": ["Allergies"]}),
        '{"id": "fx2", "headers": ["HPI", "Impr',
    ])
    assert "malformed JSON" in err


def test_evaluate_headers_spans_length_mismatch_is_fatal(tmp_path, gold_path, capsys):
    err = _evaluate_bad_predictions(tmp_path, gold_path, capsys, [
        json.dumps({"id": "fx1", "headers": ["Allergies"]}),
        json.dumps({"id": "fx2", "headers": ["HPI", "Plan"], "spans": [[0, 3]]}),
    ])
    assert "1 spans for 2 headers" in err


def test_evaluate_overlapping_spans_are_fatal(tmp_path, gold_path, capsys):
    err = _evaluate_bad_predictions(tmp_path, gold_path, capsys, [
        json.dumps({"id": "fx1", "headers": ["Allergies"]}),
        json.dumps({"id": "fx2", "headers": ["HPI", "Plan"], "spans": [[0, 3], [2, 6]]}),
    ])
    assert "spans must be sorted and non-overlapping, got start 2 before 3" in err


def test_evaluate_span_past_document_end_is_fatal(tmp_path, gold_path, capsys):
    # fx1 is 44 characters long
    err = _evaluate_bad_predictions(tmp_path, gold_path, capsys, [
        json.dumps({"id": "fx2", "headers": ["HPI"], "spans": [[0, 3]]}),
        json.dumps({"id": "fx1", "headers": ["Allergies"], "spans": [[0, 900]]}),
    ])
    assert "'fx1' of 44 characters" in err


def _generated_llm_run(tmp_path):
    """Generated notes, and a replay store whose answers misspell, recase or
    keep each header and add one the note does not hold."""
    rng = random.Random(41)
    corpus, store = tmp_path / "generated.jsonl", tmp_path / "replay"
    config = LLMConfig(model_name="gpt-4", backoff_base=0.0)
    with open(corpus, "w", encoding="utf-8") as fh:
        for doc in make_synthetic_corpus(rng, 12, min_sections=2):
            sections = [
                {"label": s.label, "header_span": list(s.header_span)} for s in doc.sections
            ]
            fh.write(json.dumps({"id": doc.id, "text": doc.text, "sections": sections}) + "\n")
            answers = [
                rng.choice((perturb_header(rng, h), h.upper(), h)) for h in doc.header_texts()
            ]
            answers.insert(rng.randint(0, len(answers)), "Patient Information and Visit Details")
            canned = json.dumps([{"section_title": a} for a in answers])
            client = RecordingClient(StaticClient(canned), store)
            extract_headers(doc.document, PromptStrategy.zero_shot(), config, client)
    return str(corpus), store


@pytest.mark.parametrize("source", ["fixture", "generated"])
def test_evaluate_of_segment_grounding_equals_aligning_again(
    tmp_path, gold_path, replay_store, source
):
    if source == "fixture":
        corpus, store = gold_path, replay_store
    else:
        corpus, store = _generated_llm_run(tmp_path)
    seg = tmp_path / "seg"
    assert main([
        "segment", "--corpus", corpus, "--segmenter", "llm", "--replay", str(store),
        "--out", str(seg),
    ]) == OK
    records = read_jsonl(seg / "predictions.jsonl")
    assert "fuzzy" in {g["kind"] for r in records for g in r["grounding"]}
    assert any(r["unmatched"] for r in records)
    stripped = tmp_path / "stripped.jsonl"
    stripped.write_text("".join(
        json.dumps({k: v for k, v in r.items() if k not in ("grounding", "unmatched")}) + "\n"
        for r in records
    ), encoding="utf-8")

    def reports(predictions, name):
        out = tmp_path / name
        assert main([
            "evaluate", "--corpus", corpus, "--segmenter", "llm",
            "--predictions", str(predictions), "--out", str(out),
        ]) == OK
        return [(out / f).read_bytes() for f in ("report.json", "report.csv", "report.txt")]

    assert reports(seg / "predictions.jsonl", "read") == reports(stripped, "aligned")


# fx2 is "HPI: 61M with chest pain\nImpression: stable\nPlan: discharge home\n"
_FX2_GROUNDED = {
    "id": "fx2", "headers": ["HPI", "Impression", "Plan"], "spans": None,
    "grounding": [
        {"header_index": 0, "span": [0, 3], "kind": "exact"},
        {"header_index": 2, "span": [44, 48], "kind": "fuzzy"},
    ],
    "unmatched": [1],
}


def _regrounded(first=None, second=None, **fields):
    """``_FX2_GROUNDED`` with fields of its two grounding entries or of the line replaced."""
    line = json.loads(json.dumps(_FX2_GROUNDED))
    line["grounding"][0].update(first or {})
    line["grounding"][1].update(second or {})
    line.update(fields)
    return line


@pytest.mark.parametrize("line, message", [
    (_regrounded({"header_index": "0"}), "'header_index' must be an int in [0, 3), got '0'"),
    (_regrounded({"header_index": True}), "'header_index' must be an int in [0, 3), got True"),
    (_regrounded(second={"header_index": 3}), "'header_index' must be an int in [0, 3), got 3"),
    (_regrounded(second={"header_index": 0}), "header 0 is grounded twice"),
    (_regrounded({"span": [0]}), "each grounding span must be a [start, end] pair of ints"),
    (_regrounded({"span": [0, 3.0]}), "each grounding span must be a [start, end] pair of ints"),
    (_regrounded({"span": [0, True]}), "each grounding span must be a [start, end] pair of ints"),
    (_regrounded(second={"span": [44, 900]}), "spans must lie within document 'fx2' of 65 characters"),
    (_regrounded({"span": [-1, 3]}), "spans must lie within document 'fx2' of 65 characters"),
    (_regrounded({"span": [44, 48]}, {"span": [0, 3]}), "got start 0 before 48"),
    (_regrounded(second={"span": [2, 6]}), "got start 2 before 3"),
    (_regrounded(second={"span": [5, 5]}), "empty or inverted span (5, 5)"),
    (_regrounded(second={"kind": "guess"}), "'kind' must be one of exact, case_insensitive, fuzzy"),
    (_regrounded(unmatched=None), "'unmatched' must list the ungrounded headers [1], got None"),
    (_regrounded(unmatched=[]), "'unmatched' must list the ungrounded headers [1], got []"),
    (_regrounded(unmatched=[1, 2]), "'unmatched' must list the ungrounded headers [1], got [1, 2]"),
    (_regrounded(unmatched=[True]), "'unmatched' must list the ungrounded headers [1], got [True]"),
    (_regrounded(grounding=None), "'grounding' must be a list of objects"),
    (_regrounded(grounding=[[0, [0, 3], "exact"]]), "'grounding' must be a list of objects"),
    (_regrounded(spans=[[0, 3], [25, 35], [44, 48]]), "a line sets 'spans' or 'grounding', not both"),
    (_regrounded(id=2), "'id' must be a string"),
    (_regrounded(headers=["HPI", 1, "Plan"]), "'headers' must be a list of strings"),
    (_regrounded(headers="HPI"), "'headers' must be a list of strings"),
    ({"id": "fx2", "sections": []}, "'headers' must be a list of strings"),
    (_regrounded(spans={"HPI": [0, 3]}), "'spans' must be a list or null"),
    (_regrounded({"span": [25, 28]}), "header 0 'HPI' is not at (25, 28): the note there reads 'Imp'"),
    (_regrounded({"span": [4, 7], "kind": "case_insensitive"}),
     "header 0 'HPI' is not at (4, 7): the note there reads ' 61'"),
    (_regrounded(second={"span": [45, 49]}),
     "header 2 'Plan' is not at (45, 49): the note there reads 'lan:'"),
    ({"id": "fx2", "headers": ["HPI"], "spans": [[1, 4]]},
     "header 0 'HPI' is not at (1, 4): the note there reads 'PI:'"),
], ids=[
    "index-not-int", "index-bool", "index-out-of-range", "index-repeats", "span-not-pair",
    "span-not-ints", "span-bool", "span-past-end", "span-before-start", "unsorted", "overlapping",
    "empty-span", "unknown-kind", "unmatched-missing", "unmatched-short", "unmatched-lists-grounded",
    "unmatched-not-ints", "unmatched-without-grounding", "grounding-not-objects",
    "spans-and-grounding", "id-not-string", "headers-not-strings", "headers-not-list",
    "headers-missing", "spans-not-list", "exact-elsewhere", "case-insensitive-elsewhere",
    "fuzzy-inside-a-line", "spans-elsewhere",
])
def test_evaluate_bad_grounding_is_fatal(tmp_path, gold_path, capsys, line, message):
    err = _evaluate_bad_predictions(tmp_path, gold_path, capsys, [
        json.dumps({"id": "fx1", "headers": ["Allergies"]}),
        json.dumps(line),
    ])
    assert message in err


@pytest.mark.parametrize("line", [
    # each placement that fx2 holds the way its kind places it
    {"id": "fx2", "headers": [" HPI ", "Impression"], "spans": [[0, 3], [25, 35]]},
    _regrounded({"kind": "case_insensitive"}, headers=["hpi", "Impression", "Plan"]),
    _regrounded(headers=["HPI", "Impression", "Plna"]),
    _regrounded(second={"span": [44, 49]}, headers=["HPI", "Impression", "Ploughed"]),
])
def test_evaluate_takes_each_placement_that_fits(tmp_path, gold_path, capsys, line):
    preds_path = tmp_path / "preds.jsonl"
    preds_path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    argv = ["evaluate", "--corpus", gold_path, "--predictions", str(preds_path)]
    assert main([*argv, "--out", str(tmp_path / "eval")]) == PARTIAL
    assert "error:" not in capsys.readouterr().err


def test_evaluate_takes_a_header_written_with_its_indent(tmp_path, capsys):
    # a rule that matches from the start of the line writes the indent into
    # the header; the span holds the header as written
    corpus, ruleset, seg = tmp_path / "c.jsonl", tmp_path / "rules.json", tmp_path / "seg"
    text = "  HPI\ncough for two days\n  PLAN\nrest\n"
    corpus.write_text(json.dumps({"id": "d1", "text": text}) + "\n", encoding="utf-8")
    ruleset.write_text(json.dumps([{"name": "caps", "pattern": "[A-Z ]{3,}$"}]), encoding="utf-8")
    argv = ["--corpus", str(corpus), "--segmenter", "regex", "--ruleset", str(ruleset)]
    assert main(["segment", *argv, "--out", str(seg)]) == OK
    assert read_jsonl(seg / "predictions.jsonl")[0]["headers"] == ["  HPI", "  PLAN"]
    argv = ["evaluate", "--corpus", str(corpus), "--predictions", str(seg / "predictions.jsonl")]
    assert main([*argv, "--out", str(tmp_path / "eval")]) == OK
    assert "error:" not in capsys.readouterr().err


def test_evaluate_refuses_predictions_of_a_changed_corpus(tmp_path, gold_path, capsys):
    # every note now starts with a sentence, and its gold spans moved to
    # match, so no keyword span holds its header any more
    seg = tmp_path / "seg"
    assert main(["segment", "--corpus", gold_path, "--segmenter", "keyword", "--out", str(seg)]) == OK
    lead = "Seen today. "
    notes = read_jsonl(Path(gold_path))
    for note in notes:
        note["text"] = lead + note["text"]
        for section in note["sections"]:
            for key in ("header_span", "body_span"):
                if key in section:
                    section[key] = [i + len(lead) for i in section[key]]
    corpus = tmp_path / "drifted.jsonl"
    corpus.write_text("".join(json.dumps(note) + "\n" for note in notes), encoding="utf-8")
    preds = seg / "predictions.jsonl"
    argv = ["evaluate", "--corpus", str(corpus), "--predictions", str(preds)]
    capsys.readouterr()
    refusal = (
        f"error: {preds} line 1: header 0 'Allergies' is not at (0, 9): "
        "the note there reads 'Seen toda'\n"
    )
    # --no-strict drops bad corpus sections; it scores no span the note
    # no longer holds
    for flags in ([], ["--no-strict"]):
        out = tmp_path / "eval"
        assert main([*argv, *flags, "--out", str(out)]) == FATAL
        assert capsys.readouterr().err == refusal
        assert not out.exists()


def test_evaluate_refuses_a_fuzzy_span_over_a_line_break(tmp_path, gold_path, capsys):
    # a line break put in before fx2's "Plan" leaves a line start under the
    # fuzzy span [44, 48], which now holds that line break
    notes = read_jsonl(Path(gold_path))
    corpus, preds = tmp_path / "edited.jsonl", tmp_path / "preds.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": n["id"], "text": n["text"][:44] + "\n" + n["text"][44:]
                    if n["id"] == "fx2" else n["text"]}) + "\n"
        for n in notes
    ), encoding="utf-8")
    preds.write_text(json.dumps(_FX2_GROUNDED) + "\n", encoding="utf-8")
    argv = ["evaluate", "--corpus", str(corpus), "--predictions", str(preds)]
    assert main([*argv, "--out", str(tmp_path / "eval")]) == FATAL
    assert capsys.readouterr().err == (
        f"error: {preds} line 1: header 2 'Plan' is not at (44, 48): "
        "the note there reads '\\nPla'\n"
    )


def test_evaluate_refuses_a_note_edited_before_a_placed_span(tmp_path, gold_path, replay_store):
    # one character put in or taken out before a placed header moves the
    # text under it; a fuzzy span holds a line prefix, so only an edit
    # strictly before it is sure to move that out of its shape
    notes = {note["id"]: note for note in read_jsonl(Path(gold_path))}
    placed = []
    for segmenter in ("keyword", "llm"):
        seg = tmp_path / segmenter
        argv = ["segment", "--corpus", gold_path, "--segmenter", segmenter, "--out", str(seg)]
        assert main([*argv, "--replay", str(replay_store)] if segmenter == "llm" else argv) == OK
        # the note as segment read it is scored
        argv = ["evaluate", "--corpus", gold_path, "--predictions", str(seg / "predictions.jsonl")]
        assert main([*argv, "--out", str(seg / "eval")]) == OK
        for lineno, r in enumerate(read_jsonl(seg / "predictions.jsonl"), 1):
            for g in r.get("grounding") or [{"span": s, "kind": "exact"} for s in r["spans"]]:
                placed.append((seg / "predictions.jsonl", lineno, r["id"], g["span"][0], g["kind"]))

    fuzzy = next(p for p in placed if p[4] == "fuzzy")

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(placed), st.integers(0, 10**6), st.sampled_from(["", "a", " ", "\n", ":", "İ"])
    )
    # a line break just before a fuzzy span keeps a line start under it
    @example(fuzzy, fuzzy[3] - 1, "\n")
    def check(target, at, insert):
        # "" deletes the character at ``where``
        preds, lineno, doc_id, start, kind = target
        room = start + (1 if insert and kind != "fuzzy" else 0)
        assume(room > 0)
        text = notes[doc_id]["text"]
        where = at % room
        edited = text[:where] + insert + text[where + (0 if insert else 1):]
        # the gold sections are dropped, so that the edited note still loads
        corpus = tmp_path / "edited.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": i, "text": edited if i == doc_id else n["text"]}) + "\n"
            for i, n in notes.items()
        ), encoding="utf-8")
        argv = ["evaluate", "--corpus", str(corpus), "--predictions", str(preds)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([*argv, "--out", str(tmp_path / "eval")]) == FATAL
        assert err.getvalue().startswith(f"error: {preds} line {lineno}: header ")

    check()


def test_evaluate_scores_the_grounding_as_written(tmp_path, gold_path):
    # "Impression" is in fx2, but the line says it was placed nowhere and
    # that "Plan" is at 44-48: evaluate takes both as written
    preds_path = tmp_path / "preds.jsonl"
    preds_path.write_text(json.dumps(_FX2_GROUNDED) + "\n", encoding="utf-8")
    out = tmp_path / "eval"
    main([
        "evaluate", "--corpus", gold_path, "--predictions", str(preds_path),
        "--max-edit-ratio", "0", "--out", str(out),
    ])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    fx2 = next(d for d in report["per_doc"] if d["doc_id"] == "fx2")
    assert fx2["unmatched_headers"] == ["Impression"]
    assert fx2["counts"]["tp"] == 2 and fx2["counts"]["fn"] == 1


def test_evaluate_duplicate_prediction_id_is_fatal(tmp_path, gold_path, capsys):
    err = _evaluate_bad_predictions(tmp_path, gold_path, capsys, [
        json.dumps({"id": "fx1", "headers": ["Allergies"]}),
        json.dumps({"id": "fx1", "headers": []}),
    ])
    assert "line 2: duplicate prediction for document 'fx1' (first on line 1)" in err


@pytest.mark.parametrize("line, message", [
    (json.dumps({"id": "p2", "a": ["Plan"]}), "'b' must be a list of strings"),
    ('{"id": "p2", "a": ["Plan"], "b": ["Pl', "malformed JSON"),
    (json.dumps(["Plan", "Plan"]), "expected a JSON object"),
    (json.dumps({"id": "p2", "a": "Plan", "b": ["Plan"]}), "'a' must be a list of strings"),
    (json.dumps({"id": "p2", "a": ["Plan"], "b": [{"name": "Plan"}]}), "'b' must be a list"),
])
def test_iaa_bad_pair_line_is_fatal(tmp_path, capsys, line, message):
    pairs = tmp_path / "pairs.jsonl"
    good = json.dumps({"id": "p1", "a": ["Plan"], "b": ["Plan"]})
    pairs.write_text(good + "\n" + line + "\n", encoding="utf-8")
    code = main(["iaa", "--pairs", str(pairs), "--out", str(tmp_path / "i")])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{pairs} line 2: {message}" in err
    assert not (tmp_path / "i" / "iaa.json").exists()


def _segment_with_one_broken_record(tmp_path, capsys, break_record):
    """Record a zero-shot answer for two notes, break one record, and check
    that segment fails only that note; return its stderr and the record."""
    from conftest import StaticClient
    from sectionid.corpus import Document
    from sectionid.llm import LLMConfig, PromptStrategy, RecordingClient, extract_headers

    texts = {"good": "Plan: rest\n", "corrupt": "History: none\n"}
    corpus_path = tmp_path / "two.jsonl"
    corpus_path.write_text("".join(
        json.dumps({"id": doc_id, "text": text, "sections": []}) + "\n"
        for doc_id, text in texts.items()
    ), encoding="utf-8")
    store = tmp_path / "store"
    config = LLMConfig(backoff_base=0.0)
    for doc_id, text in texts.items():
        client = RecordingClient(StaticClient('[{"section_title": "Plan"}]'), store)
        extract_headers(Document(doc_id, text), PromptStrategy.zero_shot(), config, client)
    records = sorted(store.glob("*.json"))
    assert len(records) == 2
    broken = next(r for r in records if "History" in r.read_text(encoding="utf-8"))
    break_record(broken)

    code = main([
        "segment", "--corpus", str(corpus_path), "--segmenter", "llm",
        "--replay", str(store), "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == PARTIAL
    assert "Traceback" not in err
    assert "1 document(s) failed: corrupt" in err
    out = read_jsonl(tmp_path / "o" / "predictions.jsonl")
    assert [(r["id"], r["headers"]) for r in out] == [("good", ["Plan"]), ("corrupt", [])]
    return err, broken


def test_segment_corrupt_replay_record_fails_only_its_document(tmp_path, capsys):
    def truncate(record):
        record.write_text(record.read_text(encoding="utf-8")[:40], encoding="utf-8")

    _segment_with_one_broken_record(tmp_path, capsys, truncate)


def test_segment_unreadable_replay_record_fails_only_its_document(tmp_path, capsys):
    def replace_with_directory(record):
        record.unlink()
        record.mkdir()

    err, record = _segment_with_one_broken_record(tmp_path, capsys, replace_with_directory)
    assert (
        f"warning: document corrupt failed: FormatError: {record}: unreadable replay record: "
    ) in err


def test_segment_replay_record_not_utf8_fails_only_its_document(tmp_path, capsys):
    where = {}

    def latin1(record):
        data = record.read_bytes().replace(b"History", b"Hist\xf6ry", 1)
        record.write_bytes(data)
        offset = data.index(b"\xf6")
        where.update(path=record, line=data[:offset].count(b"\n") + 1, offset=offset)

    err, _ = _segment_with_one_broken_record(tmp_path, capsys, latin1)
    assert (
        f"warning: document corrupt failed: FormatError: {where['path']} line {where['line']}: "
        f"not UTF-8: byte 0xf6 at offset {where['offset']}\n"
    ) in err


_DEEP_JSON = "[" * 100_000


@pytest.mark.parametrize("kind", ["corpus", "config", "ruleset", "predictions", "pairs", "replay"])
def test_deeply_nested_json_is_malformed(tmp_path, gold_path, capsys, kind):
    # the decoder gives up with a RecursionError, which is one more way for
    # a file or line not to be JSON
    if kind == "replay":
        err, record = _segment_with_one_broken_record(
            tmp_path, capsys, lambda record: record.write_text(_DEEP_JSON, encoding="utf-8"),
        )
        assert f"warning: document corrupt failed: FormatError: {record}: malformed JSON" in err
        return
    path = tmp_path / "deep"
    first, argv = {
        "corpus": (Path(gold_path).read_text(encoding="utf-8").splitlines()[0],
                   ["stats", "--corpus", str(path)]),
        "config": (None, ["segment", "--corpus", gold_path, "--config", str(path)]),
        "ruleset": (None, ["segment", "--corpus", gold_path, "--ruleset", str(path)]),
        "predictions": (json.dumps({"id": "fx1", "headers": ["Allergies"]}),
                        ["evaluate", "--corpus", gold_path, "--predictions", str(path)]),
        "pairs": (json.dumps({"id": "p1", "a": ["Plan"], "b": ["Plan"]}), ["iaa", "--pairs", str(path)]),
    }[kind]
    path.write_text(("" if first is None else first + "\n") + _DEEP_JSON + "\n", encoding="utf-8")
    code = main([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == FATAL
    where = f"{path}:" if first is None else f"{path} line 2:"
    assert err.startswith(f"error: {where} malformed JSON") and "Traceback" not in err
    if kind == "corpus":
        assert main([*argv, "--no-strict", "--out", str(tmp_path / "lenient")]) == OK
        err = capsys.readouterr().err
        assert f"warning: {path} line 2: skipping malformed JSON line\n" in err
        stats = json.loads((tmp_path / "lenient" / "corpus_stats.json").read_text(encoding="utf-8"))
        assert stats["document_count"] == 1


def test_replay_segment_starts_no_thread(tmp_path, gold_path, replay_store, monkeypatch):
    # a replay store answers from local files, so more workers only contend
    # for the interpreter lock; the configured value is still the one shown
    started = record_thread_starts(monkeypatch)
    out = tmp_path / "run"
    code = main([
        "segment", "--corpus", gold_path, "--segmenter", "llm", "--replay", str(replay_store),
        "--workers", "3", "--out", str(out),
    ])
    assert code == OK
    assert started == []
    snapshot = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
    assert snapshot["llm"]["max_in_flight"] == 3


def test_workers_flag_sets_llm_max_in_flight(tmp_path, gold_path):
    out = tmp_path / "run"
    code = main([
        "segment", "--corpus", gold_path, "--segmenter", "regex",
        "--workers", "3", "--out", str(out),
    ])
    assert code == OK
    snapshot = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
    assert snapshot["llm"]["max_in_flight"] == 3
    assert "seed" not in snapshot and "workers" not in snapshot


@pytest.mark.parametrize("content, message", [
    ('{"corpus": "x", ', "malformed JSON"),
    ('["segmenter", "regex"]', "expected a JSON object"),
    ('{"llm": null}', "'llm' must be a JSON object"),
    ('{"segmentr": "keyword"}', "unknown config key 'segmentr'"),
    ('{"workers": 3}', "unknown config key 'workers'"),
    ('{"llm": {"max_inflight": 2}}', "unknown config key 'llm.max_inflight'"),
    ('{"alignment": {"max_ratio": 0.3}}', "unknown config key 'alignment.max_ratio'"),
])
def test_bad_config_file_is_fatal(tmp_path, gold_path, capsys, content, message):
    config = tmp_path / "config.json"
    config.write_text(content, encoding="utf-8")
    code = main([
        "segment", "--config", str(config), "--corpus", gold_path, "--segmenter", "regex",
        "--workers", "2", "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{config}: {message}" in err


def test_config_accepts_every_declared_key(tmp_path, gold_path):
    settings = {
        "corpus": gold_path, "segmenter": "regex", "strategy": "close_ended",
        "ontology": None, "lexicon": None, "ruleset": None,
        "out": str(tmp_path / "o"), "replay": None, "record": None,
        "strict": True, "close_ended_eval": False,
        "alignment": {"max_edit_ratio": 0.25},
        "llm": {
            "model_name": "m", "max_context_chars": 900,
            "example_doc": "Plan: rest", "example_headers": ["Plan"], "label_set": ["Plan"],
        },
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings), encoding="utf-8")
    assert main(["segment", "--config", str(config)]) == OK
    snapshot = json.loads((tmp_path / "o" / "run_config.json").read_text(encoding="utf-8"))
    assert snapshot == settings


def test_lenient_run_drops_overlapping_section_with_bad_body(tmp_path, capsys):
    # Beta overlaps Alpha and also has a bad body: a lenient load used to
    # keep Beta without its body, and evaluate then refused the gold spans
    corpus = tmp_path / "overlap.jsonl"
    corpus.write_text(json.dumps({
        "id": "d1", "text": "Alpha: one\nBeta: two\n", "sections": [
            {"label": "Alpha", "header_span": [0, 10]},
            {"label": "Beta", "header_span": [5, 15], "body_span": [2, 3]},
        ],
    }) + "\n", encoding="utf-8")
    common = ["--corpus", str(corpus), "--no-strict"]
    assert main(["segment", *common, "--segmenter", "regex", "--out", str(tmp_path / "s")]) == OK
    assert main([
        "evaluate", *common, "--predictions", str(tmp_path / "s" / "predictions.jsonl"),
        "--out", str(tmp_path / "e"),
    ]) == OK
    err = capsys.readouterr().err
    assert (
        f"warning: {corpus} line 1: document d1: dropping section: section 1 at (5, 15)" in err
    )
    assert "body_span" not in err


def test_lenient_run_drops_a_repeated_document_id(tmp_path, capsys):
    # the second note's Plan span, written for both notes, was "ergi" in the first
    corpus = tmp_path / "dup.jsonl"
    corpus.write_text("".join(json.dumps({"id": "d1", "text": text}) + "\n" for text in (
        "Allergies: none", "xx\nPlan: rest and more text",
    )), encoding="utf-8")
    common = ["--corpus", str(corpus), "--no-strict"]
    assert main(["segment", *common, "--segmenter", "regex", "--out", str(tmp_path / "s")]) == OK
    records = read_jsonl(tmp_path / "s" / "predictions.jsonl")
    assert [(r["id"], r["headers"], r["spans"]) for r in records] == [
        ("d1", ["Allergies"], [[0, 9]]),
    ]
    assert main([
        "evaluate", *common, "--predictions", str(tmp_path / "s" / "predictions.jsonl"),
        "--out", str(tmp_path / "e"),
    ]) == OK
    report = json.loads((tmp_path / "e" / "report.json").read_text(encoding="utf-8"))
    assert [doc["doc_id"] for doc in report["per_doc"]] == ["d1"]
    assert capsys.readouterr().err.count(
        f"warning: {corpus} line 2: dropping document 'd1': its id repeats an earlier line\n"
    ) == 2


def test_each_call_writes_its_warnings_to_its_own_stderr(tmp_path):
    # each call warns on the stderr it runs under, not on one an earlier call
    # was given and has since closed
    corpus = tmp_path / "dup.jsonl"
    corpus.write_text("".join(json.dumps({"id": "a", "text": t}) + "\n" for t in "xy"),
                      encoding="utf-8")
    warning = f"warning: {corpus} line 2: dropping document 'a': its id repeats an earlier line\n"
    for call in ("first", "second"):
        err_path = tmp_path / f"{call}.stderr"
        with open(err_path, "w", encoding="utf-8") as err, contextlib.redirect_stderr(err):
            code = main([
                "segment", "--corpus", str(corpus), "--no-strict", "--segmenter", "regex",
                "--out", str(tmp_path / call),
            ])
        assert code == OK
        text = err_path.read_text(encoding="utf-8")
        assert warning in text and "Logging error" not in text


@pytest.mark.parametrize("command", [["stats"], ["segment", "--segmenter", "regex"]])
def test_bad_corpus_error_names_file_and_line(tmp_path, capsys, command):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(
        json.dumps({"id": "d0", "text": "Plan: rest", "sections": []}) + "\n"
        + json.dumps({"id": "d1", "text": "short", "sections": [
            {"label": "X", "header_span": [0, 99]},
        ]}) + "\n",
        encoding="utf-8",
    )
    code = main([*command, "--corpus", str(corpus), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err.startswith(f"error: {corpus} line 2: document 'd1': ")
    assert "header_span (0, 99) outside text of length 5" in err


@pytest.mark.parametrize("content, message", [
    (b'[{"name": "x", ', "malformed JSON"),
    (b'{"name": "x", "pattern": "Plan"}', "ruleset file must be a JSON list"),
    (b'[{"name": "x"}]', "each rule needs 'name' and 'pattern'"),
    (b'[{"name": "r", "pattern": null}]', "each rule needs 'name' and 'pattern' strings"),
    (b'[{"name": "r", "pattern": 5}]', "each rule needs 'name' and 'pattern' strings"),
    (b'[{"name": ["r"], "pattern": "Plan"}]', "each rule needs 'name' and 'pattern' strings"),
])
def test_bad_ruleset_file_is_fatal(tmp_path, gold_path, capsys, content, message):
    ruleset = tmp_path / "rules.json"
    ruleset.write_bytes(content)
    code = main([
        "segment", "--corpus", gold_path, "--segmenter", "rules",
        "--ruleset", str(ruleset), "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err.startswith(f"error: {ruleset}: {message}") and "Traceback" not in err


@pytest.mark.parametrize("source, message", [
    ({"llm": {"max_in_flight": 0}}, "{config}: config key 'llm.max_in_flight': "),
    ({"llm": {"max_tokens": "many"}}, "{config}: config key 'llm.max_tokens': "),
    (["--workers", "0"], "--workers: "),
    ({"llm": {"max_context_chars": "900"}}, "{config}: config key 'llm.max_context_chars': "),
    ({"llm": {"max_context_chars": 0}}, "{config}: config key 'llm.max_context_chars': "),
    ({"llm": {"max_retries": -1}}, "{config}: config key 'llm.max_retries': "),
    ({"llm": {"timeout": "soon"}}, "{config}: config key 'llm.timeout': "),
    # no socket or sleep takes it, or it has no JSON form for
    # run_config.json, which a rules run writes too
    ({"llm": {"timeout": math.inf}}, "{config}: config key 'llm.timeout': timeout must be finite"),
    ({"llm": {"timeout": 1e10}}, "{config}: config key 'llm.timeout': timeout must be <= "),
    ({"llm": {"backoff_base": math.inf}},
     "{config}: config key 'llm.backoff_base': backoff_base must be finite"),
    ({"llm": {"frequency_penalty": math.nan}},
     "{config}: config key 'llm.frequency_penalty': frequency_penalty must be finite"),
    ({"llm": {"presence_penalty": -math.inf}},
     "{config}: config key 'llm.presence_penalty': presence_penalty must be finite"),
    ({"llm": {"temperature": math.inf}},
     "{config}: config key 'llm.temperature': temperature must be finite"),
    ({"segmenter": "rules", "llm": {"frequency_penalty": math.nan}},
     "{config}: config key 'llm.frequency_penalty': frequency_penalty must be finite"),
    ({"segmenter": "rules", "llm": {"temperature": math.inf}},
     "{config}: config key 'llm.temperature': temperature must be finite"),
    # a lone surrogate from a JSON escape, which run_config.json cannot hold
    ({"strategy": "one_shot",
      "llm": {"example_doc": "Plan: a \ud800", "example_headers": ["Plan"]}},
     "{config}: config key 'llm.example_doc' must not hold '\\ud800', which UTF-8 cannot encode\n"),
    ({"strategy": "close_ended", "llm": {"label_set": ["Plan", "HPI \udcff"]}},
     "{config}: config key 'llm.label_set' must not hold '\\udcff', which UTF-8 cannot encode\n"),
])
def test_out_of_range_llm_value_is_fatal(tmp_path, gold_path, replay_store, capsys, source, message):
    config = tmp_path / "config.json"
    settings = {"segmenter": "llm", **(source if isinstance(source, dict) else {})}
    config.write_text(json.dumps(settings), encoding="utf-8")
    flags = source if isinstance(source, list) else []
    code = main([
        "segment", "--config", str(config), "--corpus", gold_path,
        "--replay", str(replay_store), *flags, "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err.startswith("error: " + message.format(config=config)) and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, args", [
    ("--ruleset", ["segment", "--segmenter", "rules"]),
    ("--lexicon", ["segment", "--segmenter", "keyword"]),
    ("--config", ["segment", "--segmenter", "regex"]),
    ("--names", ["normalize"]),
    ("--ontology", ["normalize", "--names", str(FIXTURES / "order_variants.txt")]),
])
def test_text_input_not_utf8_is_fatal(tmp_path, gold_path, capsys, flag, args):
    path = tmp_path / "input"
    path.write_bytes(b"Plan\n\xff\xfe\n")
    corpus = ["--corpus", gold_path, "--out", str(tmp_path / "o")] if args[0] == "segment" else []
    code = main([*args, *corpus, flag, str(path)])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err == f"error: {path} line 2: not UTF-8: byte 0xff at offset 5\n"


def test_segment_id_utf8_cannot_hold_is_fatal(tmp_path, capsys):
    """A JSON escape can put a lone surrogate in an id; it fails the write
    cleanly and leaves the old predictions, and the snapshot of the run that
    made them, as they were."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a\\ud800", "text": "Plan: rest"}\n', encoding="utf-8")
    out = tmp_path / "run"
    out.mkdir()
    (out / "predictions.jsonl").write_bytes(b"old\n")
    (out / "run_config.json").write_bytes(b"old snapshot\n")
    code = main(["segment", "--corpus", str(corpus), "--out", str(out)])
    assert code == FATAL
    assert capsys.readouterr().err == (
        f"error: {out / 'predictions.jsonl'} line 1: cannot be written as UTF-8: "
        "'\\ud800' (surrogates not allowed)\n"
    )
    assert (out / "predictions.jsonl").read_bytes() == b"old\n"
    assert (out / "run_config.json").read_bytes() == b"old snapshot\n"


def test_llm_note_utf8_cannot_hold_fails_alone(tmp_path, gold_path, replay_store, capsys):
    """A JSON escape can put a lone surrogate in a note's text; no request
    body or replay key can hold it, so that note fails and the others run."""
    corpus = tmp_path / "corpus.jsonl"
    bad = '{"id": "d1", "text": "Plan: rest \\ud800 today\\nHPI: cough", "sections": []}\n'
    corpus.write_text(Path(gold_path).read_text(encoding="utf-8") + bad, encoding="utf-8")
    argv = ["segment", "--segmenter", "llm", "--replay", str(replay_store)]
    assert main([*argv, "--corpus", gold_path, "--out", str(tmp_path / "gold")]) == OK
    assert main([*argv, "--corpus", str(corpus), "--out", str(tmp_path / "run")]) == PARTIAL
    assert capsys.readouterr().err == (
        "warning: document d1 failed: FormatError: text holds '\\ud800' at offset 11, "
        "which UTF-8 cannot encode\n1 document(s) failed: d1\n"
    )
    gold, run = (tmp_path / name / "predictions.jsonl" for name in ("gold", "run"))
    written = run.read_text(encoding="utf-8").split(gold.read_text(encoding="utf-8"))
    assert written[0] == "" and json.loads(written[1]) == {
        "id": "d1", "headers": [], "spans": None, "categories": [], "grounding": [], "unmatched": [],
    }


def test_evaluate_id_utf8_cannot_hold_is_fatal(tmp_path, capsys):
    """The per-document report names the id; the refused write leaves the
    old reports and the old snapshot as they were."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a\\ud800", "text": "Plan: rest"}\n', encoding="utf-8")
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text('{"id": "a\\ud800", "headers": ["Plan"]}\n', encoding="utf-8")
    out = tmp_path / "eval"
    out.mkdir()
    (out / "report.json").write_bytes(b"old report\n")
    (out / "run_config.json").write_bytes(b"old snapshot\n")
    code = main([
        "evaluate", "--corpus", str(corpus), "--predictions", str(predictions), "--out", str(out),
    ])
    assert code == FATAL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'report.json'} line ")
    assert err.endswith(": cannot be written as UTF-8: '\\ud800' (surrogates not allowed)\n")
    assert (out / "report.json").read_bytes() == b"old report\n"
    assert (out / "run_config.json").read_bytes() == b"old snapshot\n"


def test_out_path_not_utf8_is_fatal(tmp_path, gold_path, capsys):
    # a byte of argv that is not UTF-8 arrives as a lone surrogate
    out = tmp_path / "o2\udcff"
    code = main(["segment", "--corpus", gold_path, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err.startswith(f"error: {tmp_path}/o2\\udcff/run_config.json line ")
    assert err.endswith(": cannot be written as UTF-8: '\\udcff' (surrogates not allowed)\n")
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    ("surface_form,category,level\nplan,,coarse\n", " row 2: missing category"),
    ("surface_form,category,level\nplan,A,coarse\nrest,A,medium\n",
     " row 3: level must be coarse or fine"),
    ("plan,A,coarse\n", ": taxonomy file must start with a surface_form,category,level header"),
    (f"surface_form,category,level\nplan,A,coarse\n{'x' * (csv.field_size_limit() + 1)},A\n",
     f" row 3: field larger than field limit ({csv.field_size_limit()})"),
], ids=["missing_category", "bad_level", "bad_header", "oversized_field"])
def test_bad_taxonomy_error_names_the_file(tmp_path, capsys, gold_path, rows, message):
    taxonomy = tmp_path / "tax.csv"
    taxonomy.write_text(rows, encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    preds.write_text("", encoding="utf-8")
    # open-mode evaluate does not use the taxonomy but still checks a user's file
    for argv in (
        ["normalize", "--names", str(FIXTURES / "order_variants.txt")],
        ["segment", "--corpus", gold_path, "--segmenter", "keyword", "--out", str(tmp_path)],
        ["evaluate", "--corpus", gold_path, "--predictions", str(preds), "--out", str(tmp_path)],
    ):
        code = main([*argv, "--ontology", str(taxonomy)])
        err = capsys.readouterr().err
        assert code == FATAL
        assert err == f"error: {taxonomy}{message}\n"


# Per user file: its flag, the command reading it, and its contents. Each
# first line holds something the run uses, which a byte order mark read as
# text would break.
_GOLD = str(FIXTURES / "gold_small.jsonl")
_BOM_INPUTS = {
    "corpus": ("--corpus", ["stats"], Path(_GOLD).read_text(encoding="utf-8")),
    "predictions": ("--predictions", ["evaluate", "--corpus", _GOLD],
                    json.dumps({"id": "fx1", "headers": ["Allergies"]}) + "\n"),
    "taxonomy": ("--ontology", ["normalize", "--names", str(FIXTURES / "order_variants.txt")],
                 "surface_form,category,level\norders placed,Orders,coarse\n"),
    "lexicon": ("--lexicon", ["segment", "--corpus", _GOLD, "--segmenter", "keyword"],
                "Plan\nAllergies\n"),
    "ruleset": ("--ruleset", ["segment", "--corpus", _GOLD, "--segmenter", "regex"],
                json.dumps([{"name": "plan", "pattern": "(Plan):"}])),
    "names": ("--names", ["normalize"], "Plan\nallergies\n"),
    "config": ("--config", ["segment", "--corpus", _GOLD], json.dumps({"segmenter": "keyword"})),
    "pairs": ("--pairs", ["iaa"], json.dumps({"id": "p1", "a": ["Plan"], "b": ["Plan"]}) + "\n"),
}


@pytest.mark.parametrize("kind", list(_BOM_INPUTS))
def test_user_file_may_start_with_a_byte_order_mark(tmp_path, capsys, monkeypatch, kind):
    flag, argv, content = _BOM_INPUTS[kind]
    out = "names.tsv" if argv[0] == "normalize" else "out"
    runs = []
    # relative paths in their own directories, so the run_config.json of each is the same
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        Path("input").write_bytes(prefix + content.encode("utf-8"))
        code = main([*argv, flag, "input", "--out", out])
        outputs = {
            path.as_posix(): path.read_bytes()
            for path in sorted(Path().rglob("*")) if path.is_file() and path.name != "input"
        }
        runs.append((code, capsys.readouterr(), outputs))
    assert runs[0][0] != FATAL and runs[0][2]
    assert runs[1] == runs[0]


def test_byte_order_mark_keeps_the_not_utf8_line(tmp_path, capsys):
    names = tmp_path / "names.txt"
    names.write_bytes(b"\xef\xbb\xbfPlan\n\xff\n")
    assert main(["normalize", "--names", str(names)]) == FATAL
    assert capsys.readouterr().err == f"error: {names} line 2: not UTF-8: byte 0xff at offset 8\n"


def test_stats_on_corpus_that_is_not_utf8_is_fatal(tmp_path, capsys):
    corpus = tmp_path / "utf16.jsonl"
    corpus.write_bytes(b"\xff\xfe" + json.dumps({"id": "d", "text": "x"}).encode("utf-16-le"))
    code = main(["stats", "--corpus", str(corpus)])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err == f"error: {corpus} line 1: not UTF-8: byte 0xff at offset 0\n"


def test_evaluate_predictions_not_utf8_names_the_line(tmp_path, gold_path, capsys):
    # a lone CR ends line 1 in text mode, so the Latin-1 byte is on line 2
    first = json.dumps({"id": "fx1", "headers": ["Allergies"]}).encode() + b"\r"
    second = b'{"id": "fx2", "headers": ["caf\xe9"]}\n'
    preds_path = tmp_path / "preds.jsonl"
    preds_path.write_bytes(first + second)
    code = main([
        "evaluate", "--corpus", gold_path, "--predictions", str(preds_path),
        "--out", str(tmp_path / "eval"),
    ])
    err = capsys.readouterr().err
    assert code == FATAL
    offset = len(first) + second.index(b"\xe9")
    assert err == f"error: {preds_path} line 2: not UTF-8: byte 0xe9 at offset {offset}\n"
    assert not (tmp_path / "eval" / "report.json").exists()


@pytest.mark.parametrize("source, message", [
    ({"alignment": {"max_edit_ratio": "x"}}, "{config}: config key 'alignment.max_edit_ratio': "),
    ({"alignment": {"max_edit_ratio": 1.5}}, "{config}: config key 'alignment.max_edit_ratio': "),
    ({"alignment": {"max_edit_ratio": True}}, "{config}: config key 'alignment.max_edit_ratio': "),
    (["--max-edit-ratio", "1.5"], "--max-edit-ratio: "),
    (["--max-edit-ratio", "-0.1"], "--max-edit-ratio: "),
])
@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_out_of_range_edit_ratio_is_fatal(tmp_path, gold_path, capsys, source, message, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(source if isinstance(source, dict) else {}), encoding="utf-8")
    flags = source if isinstance(source, list) else []
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("", encoding="utf-8")
    extra = ["--predictions", str(predictions)] if command == "evaluate" else []
    out = tmp_path / "o"
    code = main([
        command, "--config", str(config), "--corpus", gold_path, "--segmenter", "regex",
        *extra, *flags, "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err.startswith("error: " + message.format(config=config)) and "Traceback" not in err
    assert "max_edit_ratio must be a number in [0, 1)" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("strict", "no"), ("strict", None), ("close_ended_eval", 1), ("close_ended_eval", "false"),
])
def test_config_switch_must_be_boolean(tmp_path, gold_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "o"
    code = main([
        "segment", "--config", str(config), "--corpus", gold_path, "--segmenter", "regex",
        "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err == f"error: {config}: config key {key!r} must be true or false, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, described", [
    ("ontology", 7, "a string or null"),
    ("lexicon", ["a"], "a string or null"),
    ("corpus", 1.5, "a string or null"),
    ("ruleset", {}, "a string or null"),
    ("replay", False, "a string or null"),
    ("record", 0, "a string or null"),
    ("out", None, "a string"),
    ("segmenter", "nope", "one of keyword, regex, rules, llm"),
    ("strategy", "few_shot", "one of zero_shot, one_shot, chain_of_thought, close_ended"),
    ("llm.example_doc", ["Plan: rest"], "a string"),
    ("llm.example_headers", "Plan", "a list of strings"),
    ("llm.label_set", "abc", "a list of strings"),
    ("llm.label_set", ["Plan", 3], "a list of strings"),
])
@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_config_value_of_wrong_type_is_fatal(tmp_path, gold_path, capsys, key, value, described, command):
    top, _, sub = key.partition(".")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({top: {sub: value}} if sub else {top: value}), encoding="utf-8")
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("", encoding="utf-8")
    extra = ["--predictions", str(predictions)] if command == "evaluate" else []
    out = tmp_path / "o"
    code = main([
        command, "--config", str(config), "--corpus", gold_path, "--segmenter", "regex",
        *extra, "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err == f"error: {config}: config key {key!r} must be {described}, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["corpus", "ontology", "lexicon", "ruleset", "replay", "record", "out"])
@pytest.mark.parametrize("command", ["segment", "evaluate"])
@pytest.mark.parametrize("value", ["runs\0x", "runs\ud800"], ids=["nul", "surrogate"])
def test_path_setting_that_names_no_file_is_fatal(tmp_path, gold_path, capsys, key, command, value):
    # open() raises ValueError for a NUL, and for a lone surrogate (from a
    # JSON escape) that the file system cannot encode; the value is refused,
    # config key or flag, before any file is opened
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("", encoding="utf-8")
    extra = ["--predictions", str(predictions)] if command == "evaluate" else []
    out = tmp_path / "o"
    args = [command, "--corpus", gold_path, "--segmenter", "regex", *extra, "--out", str(out)]
    assert main([*args, "--config", str(config)]) == FATAL
    err = capsys.readouterr().err
    refused = "must not hold a NUL character or a character the file system cannot encode"
    assert err == f"error: {config}: config key {key!r} {refused}\n"
    flag = f"--{key}"
    if flag in _options(command)[0]:
        assert main([*args, flag, value]) == FATAL
        assert capsys.readouterr().err == f"error: {flag} {refused}\n"
    assert not out.exists()


# Every flag of each command that names a file
_PATH_FLAGS = {
    "segment": ["--config", "--corpus", "--out", "--ontology", "--lexicon", "--ruleset", "--replay"],
    "evaluate": ["--config", "--corpus", "--out", "--ontology", "--predictions"],
    "stats": ["--corpus", "--out"],
    "normalize": ["--names", "--ontology", "--out"],
    "iaa": ["--pairs", "--out"],
}


def test_path_flags_are_the_flags_that_take_free_text():
    for command, flags in _PATH_FLAGS.items():
        free = {
            flag for flag, (_, _, keywords) in _options(command)[0].items()
            if keywords is not None and not {"type", "choices"} & keywords.keys()
        }
        assert free == set(flags), command


@pytest.mark.parametrize(
    "command, flag", [(command, flag) for command, flags in _PATH_FLAGS.items() for flag in flags]
)
@pytest.mark.parametrize("value", ["runs\0x", "runs\ud800"], ids=["nul", "surrogate"])
def test_path_flag_that_names_no_file_is_fatal(tmp_path, gold_path, capsys, command, flag, value):
    # a caller of main(argv) can pass what no process's argv holds; every
    # such value is refused, whichever command and flag, before any file is
    # opened, in the words of the config-key refusal
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text('{"a": ["Plan"], "b": ["Plan"]}\n', encoding="utf-8")
    names = tmp_path / "names.txt"
    names.write_text("Plan\n", encoding="utf-8")
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("", encoding="utf-8")
    out = tmp_path / "o"
    valid = {
        "--corpus": gold_path, "--predictions": str(predictions), "--names": str(names),
        "--pairs": str(pairs), "--out": str(out),
    }
    argv = [command]
    for name in _PATH_FLAGS[command]:
        if name == flag:
            argv += [flag, value]
        elif name in valid:
            argv += [name, valid[name]]
    assert main(argv) == FATAL
    refused = "must not hold a NUL character or a character the file system cannot encode"
    assert capsys.readouterr() == ("", f"error: {flag} {refused}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", list(_PATH_FLAGS))
def test_empty_out_is_refused_by_every_command(tmp_path, gold_path, capsys, monkeypatch, command):
    # Path("") is the working directory, which an empty --out or 'out' would
    # fill; every command refuses it, and the directory stays empty
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text('{"a": ["Plan"], "b": ["Plan"]}\n', encoding="utf-8")
    names = tmp_path / "names.txt"
    names.write_text("Plan\n", encoding="utf-8")
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text('{"out": ""}', encoding="utf-8")
    args = {
        "segment": ["--corpus", gold_path, "--segmenter", "regex"],
        "evaluate": ["--corpus", gold_path, "--predictions", str(predictions)],
        "stats": ["--corpus", gold_path],
        "normalize": ["--names", str(names)],
        "iaa": ["--pairs", str(pairs)],
    }[command]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([command, *args, "--out", ""]) == FATAL
    assert capsys.readouterr() == ("", "error: --out must not be empty\n")
    if command in ("segment", "evaluate"):
        assert main([command, *args, "--config", str(config)]) == FATAL
        assert capsys.readouterr() == ("", f"error: {config}: config key 'out' must not be empty\n")
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("command, flag, refusal", [
    ("stats", "--corpus", "corpus_stats needs at least one document"),
    ("iaa", "--pairs", "iaa_report needs at least one annotation pair"),
])
def test_empty_input_is_refused_naming_its_file(tmp_path, capsys, command, flag, refusal):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n  \n", encoding="utf-8")
    assert main([command, flag, str(empty)]) == FATAL
    assert capsys.readouterr() == ("", f"error: {empty}: {refusal}\n")


def test_empty_ruleset_file_is_fatal(tmp_path, gold_path, capsys):
    ruleset = tmp_path / "rules.json"
    ruleset.write_text("[]", encoding="utf-8")
    out = tmp_path / "o"
    code = main([
        "segment", "--corpus", gold_path, "--segmenter", "regex",
        "--ruleset", str(ruleset), "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err == f"error: {ruleset}: ruleset file has no rules\n"
    assert not (out / "predictions.jsonl").exists()


def test_empty_lexicon_file_is_fatal(tmp_path, gold_path, capsys):
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("# no entries yet\n\n   \n  # Plan\n", encoding="utf-8")
    out = tmp_path / "o"
    code = main([
        "segment", "--corpus", gold_path, "--segmenter", "keyword",
        "--lexicon", str(lexicon), "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == FATAL
    assert err == f"error: {lexicon}: lexicon file has no entries\n"
    assert not (out / "predictions.jsonl").exists()


def test_keyword_header_longer_once_lowercased_is_not_matched(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        json.dumps({"id": "d", "text": "İİ\nA: x", "sections": []}) + "\n", encoding="utf-8"
    )
    lexicon = tmp_path / "lexicon.txt"
    lexicon.write_text("i\u0307i\u0307\nA\n", encoding="utf-8")
    out = tmp_path / "o"
    code = main([
        "segment", "--corpus", str(corpus), "--segmenter", "keyword",
        "--lexicon", str(lexicon), "--out", str(out),
    ])
    assert capsys.readouterr().err == ""
    assert code == OK
    [record] = read_jsonl(out / "predictions.jsonl")
    assert (record["headers"], record["spans"]) == (["A"], [[3, 4]])


def _write_config(tmp_path, settings):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings), encoding="utf-8")
    return str(config)


@pytest.mark.parametrize("settings, flags", [
    ({}, ["--close-ended"]),
    ({"close_ended_eval": True}, []),
], ids=["flag", "config"])
def test_evaluate_close_ended_from_flag_or_config(tmp_path, gold_path, gold_small, settings, flags):
    preds_path = tmp_path / "preds.jsonl"
    with open(preds_path, "w", encoding="utf-8") as fh:
        for doc in gold_small:
            fh.write(json.dumps({"id": doc.id, "headers": doc.header_texts()}) + "\n")
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--config", _write_config(tmp_path, settings), "--corpus", gold_path,
        "--predictions", str(preds_path), "--out", str(out), *flags,
    ])
    assert code == OK
    predictions = {doc.id: Prediction(headers=doc.header_texts()) for doc in gold_small}
    ont = ontology.load_ontology()

    def expected(close_ended):
        run = metrics.evaluate_run(
            gold_small, predictions, ont, method="rules", corpus_name=gold_path,
            close_ended=close_ended,
        )
        return metrics.render_report(run, "json")

    assert expected(True) != expected(False)
    assert (out / "report.json").read_text(encoding="utf-8") == expected(True)
    snapshot = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
    assert snapshot["close_ended_eval"] is True


def test_no_strict_flag_overrides_config(tmp_path):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(json.dumps({"id": "d1", "text": "short", "sections": [
        {"label": "X", "header_span": [0, 99]},
    ]}) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    config = _write_config(tmp_path, {"strict": True})
    common = ["segment", "--config", config, "--corpus", str(corpus), "--segmenter", "regex"]
    assert main([*common, "--out", str(out)]) == FATAL
    assert main([*common, "--no-strict", "--out", str(out)]) == OK
    snapshot = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
    assert snapshot["strict"] is False


@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_max_edit_ratio_flag_overrides_config(tmp_path, gold_path, command):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("", encoding="utf-8")
    extra = ["--predictions", str(predictions)] if command == "evaluate" else []
    out = tmp_path / "o"
    config = _write_config(tmp_path, {"alignment": {"max_edit_ratio": 0.1}})
    main([
        command, "--config", config, "--corpus", gold_path, "--segmenter", "regex",
        *extra, "--max-edit-ratio", "0.35", "--out", str(out),
    ])
    snapshot = json.loads((out / "run_config.json").read_text(encoding="utf-8"))
    assert snapshot["alignment"] == {"max_edit_ratio": 0.35}


def test_readme_config_table_lists_every_settable_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Config key |", 1)[1].split("\n\n", 1)[0]
    documented = {
        key
        for row in table.splitlines()[2:]
        for key in re.findall(r"`([^`]+)`", row.split("|")[1])
        if not key.startswith("--")
    }
    assert documented == set(_checks())


PARTIAL_EXAMPLE = "one_shot needs llm.example_doc and llm.example_headers together"


@pytest.mark.parametrize("settings, message", [
    ({"strategy": "one_shot", "llm": {"example_doc": "Zebra Notes: striped"}},
     f"config key 'llm.example_doc': {PARTIAL_EXAMPLE}"),
    ({"strategy": "one_shot", "llm": {"example_headers": ["Zebra Notes"]}},
     f"config key 'llm.example_headers': {PARTIAL_EXAMPLE}"),
    ({"llm": {"example_doc": ""}}, "config key 'llm.example_doc' must not be empty"),
    ({"llm": {"example_headers": []}}, "config key 'llm.example_headers' must not be empty"),
    ({"llm": {"label_set": []}}, "config key 'llm.label_set' must not be empty"),
], ids=["doc_only", "headers_only", "empty_doc", "empty_headers", "empty_label_set"])
@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_partial_or_empty_llm_setting_is_fatal(tmp_path, gold_path, capsys, settings, message, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings), encoding="utf-8")
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("", encoding="utf-8")
    extra = ["--predictions", str(predictions)] if command == "evaluate" else []
    out = tmp_path / "o"
    code = main([
        command, "--config", str(config), "--corpus", gold_path, *extra, "--out", str(out),
    ])
    assert code == FATAL
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not out.exists()


def test_partial_example_with_strategy_flag_is_fatal(tmp_path, gold_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"llm": {"example_headers": ["Zebra Notes"]}}), encoding="utf-8")
    out = tmp_path / "o"
    code = main([
        "segment", "--config", str(config), "--corpus", gold_path, "--strategy", "one_shot",
        "--out", str(out),
    ])
    assert code == FATAL
    assert capsys.readouterr().err == (
        f"error: {config}: config key 'llm.example_headers': {PARTIAL_EXAMPLE}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("llm, strategy", [
    ({"example_doc": "Zebra Notes: striped\n", "example_headers": ["Zebra Notes"]},
     PromptStrategy.one_shot("Zebra Notes: striped\n", ["Zebra Notes"])),
    ({"label_set": ["Zebra Notes"]}, PromptStrategy.close_ended(["Zebra Notes"])),
    ({}, PromptStrategy.close_ended(ontology.top_section_names())),
], ids=["one_shot", "close_ended", "close_ended_bundled"])
def test_segment_uses_configured_llm_settings(tmp_path, gold_path, gold_small, llm, strategy):
    # the store holds only the prompts built from the configured values, so
    # a hash match proves the CLI used them and not the bundled ones
    from conftest import StaticClient
    from sectionid.llm import LLMConfig, RecordingClient, extract_headers

    store = tmp_path / "store"
    for doc in gold_small:
        client = RecordingClient(StaticClient('[{"section_title": "Plan"}]'), store)
        extract_headers(doc.document, strategy, LLMConfig(), client)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"strategy": strategy.kind, "llm": llm}), encoding="utf-8")
    out = tmp_path / "o"
    code = main([
        "segment", "--config", str(config), "--corpus", gold_path, "--segmenter", "llm",
        "--replay", str(store), "--out", str(out),
    ])
    assert code == OK
    assert all(r["headers"] == ["Plan"] for r in read_jsonl(out / "predictions.jsonl"))


@pytest.mark.parametrize("command", ["segment", "evaluate"])
def test_segment_and_evaluate_need_a_corpus(tmp_path, capsys, command):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("", encoding="utf-8")
    extra = ["--predictions", str(predictions)] if command == "evaluate" else []
    out = tmp_path / "o"
    code = main([command, *extra, "--out", str(out)])
    assert code == FATAL
    assert capsys.readouterr().err == f"error: {command} needs --corpus\n"
    assert not out.exists()


@pytest.mark.parametrize("is_file", [False, True], ids=["missing", "file"])
def test_segment_replay_store_not_a_directory_is_fatal(tmp_path, gold_path, capsys, is_file):
    store = tmp_path / "nodir"
    if is_file:
        store.write_text("{}", encoding="utf-8")
    out = tmp_path / "o"
    code = main([
        "segment", "--corpus", gold_path, "--segmenter", "llm", "--replay", str(store),
        "--out", str(out),
    ])
    assert code == FATAL
    assert capsys.readouterr().err == f"error: {store}: replay store is missing or not a directory\n"
    assert not out.exists()


def test_evaluate_names_prediction_ids_not_in_corpus(tmp_path, gold_path, gold_small, capsys):
    preds_path = tmp_path / "preds.jsonl"
    with open(preds_path, "w", encoding="utf-8") as fh:
        for doc_id in ("zz", *(doc.id for doc in gold_small), "aa"):
            fh.write(json.dumps({"id": doc_id, "headers": ["Plan"]}) + "\n")
    code = main([
        "evaluate", "--corpus", gold_path, "--predictions", str(preds_path),
        "--out", str(tmp_path / "eval"),
    ])
    assert code == PARTIAL
    assert capsys.readouterr().err == "2 prediction(s) name no corpus document: aa, zz\n"


@pytest.mark.parametrize("command", ["", "segment", "evaluate", "stats", "normalize", "iaa"])
def test_help_text_is_golden(capsys, monkeypatch, command):
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    assert exit_info.value.code == 0
    golden = FIXTURES / "help" / f"{command or 'sectionid'}.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


USAGE_ERRORS = json.loads((FIXTURES / "help" / "usage_errors.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", USAGE_ERRORS, ids=[" ".join(case["argv"]) or "(none)" for case in USAGE_ERRORS]
)
def test_usage_errors_are_golden(capsys, monkeypatch, case):
    # a missing command, an unknown one, a missing required flag, a bad choice
    # or type, and an argument left over after a valid command
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(list(case["argv"]))
    assert exit_info.value.code == case["exit_code"]
    assert capsys.readouterr().err == case["stderr"]


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call appends its arguments to the list returned."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_canonical_command_builds_no_parser(tmp_path, capsys, monkeypatch):
    names = tmp_path / "names.txt"
    names.write_text("Plan\n", encoding="utf-8")
    parsers = _count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    subcommands = _count_calls(monkeypatch, argparse._SubParsersAction, "add_parser")
    arguments = _count_calls(monkeypatch, argparse._ActionsContainer, "add_argument")
    assert main(["normalize", "--names", str(names), "--out", str(tmp_path / "n.tsv")]) == OK
    assert (parsers, subcommands, arguments) == ([], [], [])
    # the full parser, with every subcommand, for help, usage errors and any
    # other form of the arguments: an abbreviated flag, --flag=value or a
    # value starting with "-"
    for argv in (
        ["--help"], ["normalize", "-h"], ["bogus"], ["normalize", "--names", "n.txt", "extra"],
        ["normalize", "--out", "n.tsv"], ["normalize", "--name", "n.txt", "--out=n.tsv"],
        ["normalize", "--names", "--out"], ["normalize", "--names", "-1"],
    ):
        parsers.clear()
        subcommands.clear()
        with contextlib.suppress(SystemExit):
            parse_args(argv)
        assert [args[0].prog for args in parsers[:1]] == ["sectionid"]
        assert [args[1] for args in subcommands] == list(_COMMANDS)


def _argv(command):
    """A strategy for ``command``'s argv: its required flags or not, then
    token groups: a flag with a valid or invalid value, a switch, an
    abbreviated flag, ``-h``, ``--`` or a token the command does not take."""
    parser = argparse.ArgumentParser()
    for flag, keywords in _resolved(_COMMANDS[command][1]):
        parser.add_argument(flag, **keywords)
    required = [[a.option_strings[0], "x.jsonl"] for a in parser._actions if a.required]
    groups = [st.sampled_from([["-h"], ["--"], ["extra"], ["--bogus"], ["-x"], ["--bogus=1"]])]
    for action in parser._actions:
        flag = action.option_strings[-1]
        names = st.sampled_from(action.option_strings)
        if flag.startswith("--"):
            # every prefix of a long flag that argparse might take as it
            names = names | st.integers(3, len(flag)).map(lambda n, flag=flag: flag[:n])
        if action.nargs == 0:
            groups.append(names.map(lambda name: [name]))
            continue
        values = st.sampled_from([*(action.choices or ()), "nope", "3", "0.5", "-1", "x.jsonl", "", "--"])
        groups.append(st.tuples(names, values).map(list))
        groups.append(st.tuples(names, values).map(lambda pair: ["=".join(pair)]))
    return st.tuples(st.sampled_from([[], *required]), st.lists(st.one_of(groups), max_size=5)).map(
        lambda drawn: sum(drawn[1], [command, *drawn[0]])
    )


def _canonical_argv(command):
    """A strategy for ``command``'s argv in the form ``parse_args`` takes
    without a parser: its required flags and any others, repeats included,
    in any order, each by its full name with a valid value, or a switch."""
    parser = argparse.ArgumentParser()
    for flag, keywords in _resolved(_COMMANDS[command][1]):
        parser.add_argument(flag, **keywords)
    plain = st.text(max_size=6).filter(lambda s: not s.startswith("-"))
    values = {float: st.floats(0, 100).map(repr), int: st.integers(0, 99).map(str), None: plain}
    required, groups = [], []
    for action in parser._actions[1:]:  # after -h
        if action.nargs == 0:
            group = st.sampled_from(action.option_strings).map(lambda name: [name])
        else:
            value = st.sampled_from(action.choices) if action.choices else values[action.type]
            group = st.tuples(st.just(action.option_strings[0]), value).map(list)
        (required if action.required else groups).append(group)
    return st.tuples(st.tuples(*required), st.lists(st.one_of(groups), max_size=8)).flatmap(
        lambda drawn: st.permutations([*drawn[0], *drawn[1]])
    ).map(lambda order: sum(order, [command]))


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_canonical_argv_parses_as_the_full_parser_does_without_one(monkeypatch, command):
    parsers = _count_calls(monkeypatch, argparse.ArgumentParser, "__init__")

    @settings(max_examples=50, deadline=None)
    @given(_canonical_argv(command))
    def check(argv):
        expected = vars(build_parser().parse_args(argv))
        parsers.clear()
        assert vars(parse_args(argv)) == expected
        assert parsers == []

    check()


def _parsed(parse, argv):
    """The namespace ``parse(argv)`` gives, or the exit code, stdout and
    stderr it exits with."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_command_parses_as_the_full_parser_does(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")

    @settings(max_examples=50, deadline=None)
    @given(_argv(command))
    def check(argv):
        assert _parsed(parse_args, argv) == _parsed(lambda a: build_parser().parse_args(a), argv)

    check()


def _clear_bundled():
    """Forget the process's bundled taxonomy and default lexicon."""
    _bundled_ontology.cache_clear()
    _default_lexicon.cache_clear()


def test_segment_loads_the_taxonomy_once(tmp_path, gold_path, monkeypatch):
    # once per process: every later command reuses the bundled taxonomy
    _clear_bundled()
    loads = _count_calls(monkeypatch, ontology, "load_ontology")
    for name in ("a", "b"):
        code = main(["segment", "--corpus", gold_path, "--segmenter", "rules", "--out", str(tmp_path / name)])
        assert code == OK
    preds = str(tmp_path / "a" / "predictions.jsonl")
    argv = ["evaluate", "--corpus", gold_path, "--predictions", preds, "--close-ended"]
    assert main([*argv, "--out", str(tmp_path / "e")]) == OK
    assert loads == [()]  # no path: the bundled taxonomy


def test_open_evaluate_loads_no_taxonomy(tmp_path, gold_path, monkeypatch):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"id": "fx1", "headers": ["Allergies"]}) + "\n", encoding="utf-8")
    _clear_bundled()
    loads = _count_calls(monkeypatch, ontology, "load_ontology")
    argv = ["evaluate", "--corpus", gold_path, "--predictions", str(preds)]
    assert main([*argv, "--out", str(tmp_path / "open")]) == PARTIAL
    assert loads == []
    for name in ("closed", "closed_again"):
        assert main([*argv, "--close-ended", "--out", str(tmp_path / name)]) == PARTIAL
    assert loads == [()]


def test_user_files_are_read_by_every_command(tmp_path, gold_path):
    # the same paths, rewritten between two runs in one process
    taxonomy, lexicon, names = tmp_path / "tax.csv", tmp_path / "lex.txt", tmp_path / "names.txt"
    names.write_text("Plan\nHPI\n", encoding="utf-8")
    unknown = ontology.UNKNOWN
    _clear_bundled()
    for category, entries, found in (
        ("Plan", "Plan\n", {("Plan", "Plan")}),
        ("Therapy", "Plan\nHPI\n", {("Plan", "Therapy"), ("HPI", unknown)}),
    ):
        taxonomy.write_text(f"surface_form,category,level\nplan,{category},coarse\n", encoding="utf-8")
        lexicon.write_text(entries, encoding="utf-8")
        out = tmp_path / category
        argv = ["segment", "--corpus", gold_path, "--segmenter", "keyword", "--lexicon", str(lexicon)]
        assert main([*argv, "--ontology", str(taxonomy), "--out", str(out)]) == OK
        records = read_jsonl(out / "predictions.jsonl")
        assert {pair for r in records for pair in zip(r["headers"], r["categories"])} == found
        argv = ["normalize", "--names", str(names), "--ontology", str(taxonomy)]
        assert main([*argv, "--out", str(out / "n.tsv")]) == OK
        assert (out / "n.tsv").read_text(encoding="utf-8") == f"Plan\t{category}\nHPI\t{unknown}\n"
    # a user's taxonomy and lexicon never stand in for the bundled ones
    assert (_bundled_ontology.cache_info().currsize, _default_lexicon.cache_info().currsize) == (0, 0)
    argv = ["segment", "--corpus", gold_path, "--ontology", str(taxonomy), "--out", str(tmp_path / "r")]
    assert main(argv) == OK
    assert _bundled_ontology() == ontology.load_ontology()


def test_the_bundled_taxonomy_and_lexicon_stay_as_loaded(tmp_path, gold_path):
    names = tmp_path / "names.txt"
    names.write_text("Plan\nAssesment and Plan\nSocial Histroy\nno such section\n", encoding="utf-8")
    _clear_bundled()
    argv = ["segment", "--corpus", gold_path, "--segmenter", "rules", "--out", str(tmp_path / "s")]
    assert main(argv) == OK
    assert main(["normalize", "--names", str(names), "--out", str(tmp_path / "n.tsv")]) == OK
    preds = str(tmp_path / "s" / "predictions.jsonl")
    argv = ["evaluate", "--corpus", gold_path, "--predictions", preds, "--close-ended"]
    assert main([*argv, "--out", str(tmp_path / "e")]) == OK
    bundled, lexicon = _bundled_ontology(), _default_lexicon()
    assert bundled._fuzzy is not None
    assert bundled == ontology.load_ontology()
    assert lexicon.entries == ontology.default_lexicon_entries()
    assert lexicon.by_word == baselines.HeaderLexicon(entries=lexicon.entries).by_word
    assert _bundled_ontology() is bundled and _default_lexicon() is lexicon


def test_segment_lexicon_is_bundled_under_any_taxonomy(tmp_path, gold_path):
    # a user taxonomy changes the categories, never the default lexicon
    taxonomy = tmp_path / "tax.csv"
    taxonomy.write_text("surface_form,category,level\nplan,Plan,coarse\n", encoding="utf-8")
    runs = {}
    for name, extra in (("bundled", []), ("user", ["--ontology", str(taxonomy)])):
        out = tmp_path / name
        code = main(["segment", "--corpus", gold_path, "--segmenter", "keyword", *extra, "--out", str(out)])
        assert code == OK
        runs[name] = read_jsonl(out / "predictions.jsonl")
    for bundled, user in zip(runs["bundled"], runs["user"]):
        assert (user["headers"], user["spans"]) == (bundled["headers"], bundled["spans"])
        assert user["categories"] == [
            "Plan" if h.lower() == "plan" else ontology.UNKNOWN for h in user["headers"]
        ]


@pytest.mark.parametrize("segmenter, function", [
    ("keyword", "keyword_segment"), ("regex", "regex_segment"), ("rules", "rule_segment"),
])
def test_segment_calls_its_segmenter_through_the_module(
    tmp_path, gold_path, gold_small, monkeypatch, segmenter, function,
):
    # the benchmark's tracer times each segmenter by replacing these attributes
    calls = {
        name: _count_calls(monkeypatch, baselines, name)
        for name in ("keyword_segment", "regex_segment", "rule_segment")
    }
    argv = ["segment", "--corpus", gold_path, "--segmenter", segmenter, "--out", str(tmp_path)]
    assert main(argv) == OK
    assert {name: [args[0].id for args in made] for name, made in calls.items()} == {
        name: [doc.id for doc in gold_small] if name == function else [] for name in calls
    }


def _run_in(work: Path, hash_seed: str, workers: str) -> dict[str, object]:
    """Run four commands as fresh processes in ``work`` on relative paths; return
    each command's exit code, stdout and stderr, and every file's sha256."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    segment = ["segment", "--corpus", "gold.jsonl", "--workers", workers]
    results: dict[str, object] = {}
    for argv in (
        [*segment, "--segmenter", "rules", "--out", "rules"],
        [*segment, "--segmenter", "llm", "--replay", "replay", "--out", "llm"],
        ["evaluate", "--corpus", "gold.jsonl", "--predictions", "llm/predictions.jsonl",
         "--out", "eval"],
        ["normalize", "--names", "names.txt", "--out", "names.tsv"],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "sectionid.cli", *argv],
            cwd=work, env=env, capture_output=True, timeout=60,
        )
        results[argv[0] + " " + argv[-1]] = (done.returncode, done.stdout, done.stderr)
    for path in sorted(work.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "run_config.json":
                config = json.loads(data)
                config["llm"].pop("max_in_flight", None)
                data = json.dumps(config, sort_keys=True).encode()
            results[path.relative_to(work).as_posix()] = hashlib.sha256(data).hexdigest()
    return results


def test_outputs_are_the_same_under_any_hash_seed_and_workers(tmp_path, replay_store):
    runs = []
    for hash_seed, workers in (("0", "1"), ("12345", "3")):
        work = tmp_path / hash_seed
        shutil.copytree(replay_store, work / "replay")
        shutil.copy(FIXTURES / "gold_small.jsonl", work / "gold.jsonl")
        shutil.copy(FIXTURES / "order_variants.txt", work / "names.txt")
        runs.append(_run_in(work, hash_seed, workers))
    codes = {key: value[0] for key, value in runs[0].items() if isinstance(value, tuple)}
    commands = ("segment rules", "segment llm", "evaluate eval", "normalize names.tsv")
    assert codes == dict.fromkeys(commands, OK)
    assert {"rules/predictions.jsonl", "llm/run_config.json", "eval/report.txt"} <= runs[0].keys()
    assert runs[1] == runs[0]
