"""End-to-end: recorded responses -> extraction -> alignment -> scores."""

from __future__ import annotations

import random

from conftest import (
    make_synthetic_corpus,
    reference_keyword_segment,
    reference_span_counts,
)
from sectionid import baselines, metrics
from sectionid.cli import OK, main
from sectionid.corpus import save_gold_corpus
from sectionid.llm import PromptStrategy, ReplayClient, extract_corpus
from sectionid.metrics import evaluate_run, render_report
from sectionid.ontology import default_lexicon_entries


def run_pipeline(gold_small, replay_store, replay_llm_config):
    client = ReplayClient(replay_store)
    predictions, failures = extract_corpus(
        [d.document for d in gold_small],
        PromptStrategy.zero_shot(),
        replay_llm_config,
        client,
    )
    assert failures == []
    return evaluate_run(gold_small, predictions, method="gpt-4 zero-shot (replay)")


def test_replay_extraction_headers(gold_small, replay_store, replay_llm_config):
    client = ReplayClient(replay_store)
    predictions, failures = extract_corpus(
        [d.document for d in gold_small],
        PromptStrategy.zero_shot(),
        replay_llm_config,
        client,
    )
    assert failures == []
    assert predictions["fx1"].headers == ["Allergies", "Plan"]
    assert predictions["fx2"].headers == ["HPI", "Plan"]
    assert predictions["fx3"].headers == [
        "Chief Complaint", "Patient Information and Visit Details", "Assessment",
    ]
    assert predictions["fx4"].headers == ["Vitals", "Medications", "Plan"]
    assert predictions["fx5"].headers == ["Allergies", "Famly History"]


def test_replay_pipeline_deterministic(gold_small, replay_store, replay_llm_config):
    first = run_pipeline(gold_small, replay_store, replay_llm_config)
    second = run_pipeline(gold_small, replay_store, replay_llm_config)
    assert first == second
    for fmt in ("json", "csv", "table_text"):
        assert render_report(first, fmt) == render_report(second, fmt)


def test_replay_per_doc_scores(gold_small, replay_store, replay_llm_config):
    run = run_pipeline(gold_small, replay_store, replay_llm_config)
    by_id = {d.doc_id: d for d in run.per_doc}
    assert by_id["fx1"].em == 1.0
    assert by_id["fx2"].em == 2 / 3
    assert by_id["fx3"].em == 1.0
    assert by_id["fx4"].em == 1.0
    assert by_id["fx5"].em == 0.5
    assert by_id["fx3"].unmatched_headers == ["Patient Information and Visit Details"]


def test_rules_cli_outputs_equal_reference_scan_and_counts(tmp_path, monkeypatch):
    """``segment --segmenter rules`` then ``evaluate`` writes the same bytes
    with the bucketed lexicon and the span-run counter as with the linear
    scan and the per-token loops."""
    docs = make_synthetic_corpus(random.Random(11), 12, min_sections=4, max_sections=10)
    lexicon = baselines.HeaderLexicon(entries=default_lexicon_entries())
    buckets = {
        h[0].lower() for d in docs for h in baselines.keyword_segment(d.document, lexicon).headers
    }
    assert len(buckets) >= 5
    corpus = tmp_path / "corpus.jsonl"
    save_gold_corpus(docs, corpus)

    def run(out):
        assert main([
            "segment", "--corpus", str(corpus), "--segmenter", "rules", "--out", str(out / "s"),
        ]) == OK
        assert main([
            "evaluate", "--corpus", str(corpus), "--segmenter", "rules",
            "--predictions", str(out / "s" / "predictions.jsonl"), "--out", str(out / "e"),
        ]) == OK
        return [(out / name).read_bytes() for name in ("s/predictions.jsonl", "e/report.json")]

    outputs = run(tmp_path / "fast")
    monkeypatch.setattr(baselines, "keyword_segment", reference_keyword_segment)
    monkeypatch.setattr(metrics, "span_counts", reference_span_counts)
    assert run(tmp_path / "reference") == outputs
