from __future__ import annotations

import hashlib
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    FIXTURES,
    make_synthetic_corpus,
    reference_categorize,
    reference_exact_match_count,
    reference_span_counts,
)
from sectionid import align, metrics, tokenizer
from sectionid.baselines import HeaderLexicon, keyword_segment, regex_segment, rule_segment
from sectionid.cli import OK, main
from sectionid.corpus import load_gold_corpus
from sectionid.errors import EmptyInput, LengthMismatch, MalformedTags, OverlapError
from sectionid.llm import PromptStrategy, ReplayClient, extract_corpus, parse_llm_response
from sectionid.metrics import (
    Counts,
    DocScore,
    MetricsReport,
    evaluate_run,
    exact_match_count,
    iaa_report,
    jaccard,
    render_report,
    report_from_json,
    span_counts,
    token_metrics,
)
from sectionid.ontology import UNKNOWN, default_lexicon_entries, load_ontology, normalize_surface
from sectionid.prediction import Prediction
from sectionid.tokenizer import B, I, O


def brute_force_counts(gold, pred):
    """Independent positional counter used as the oracle."""
    tp = fp = fn = gold_h = pred_h = role = eq = 0
    for g, p in zip(gold, pred):
        if g != "O":
            gold_h += 1
        if p != "O":
            pred_h += 1
        if g != "O" and p != "O":
            tp += 1
        if g == "O" and p != "O":
            fp += 1
        if g != "O" and p == "O":
            fn += 1
        if g != "O" and g == p:
            role += 1
        if g == p:
            eq += 1
    return tp, fp, fn, gold_h, pred_h, role, eq


def random_well_formed_tags(rng: random.Random, n: int) -> list[str]:
    tags = []
    prev = O
    for _ in range(n):
        choices = [O, B] if prev == O else [O, B, I]
        tag = rng.choice(choices)
        tags.append(tag)
        prev = tag
    return tags


def test_token_metrics_hand_counted_example():
    gold = [B, I, O, O, B]
    pred = [B, O, O, O, B]
    m = token_metrics(gold, pred)
    assert m.counts.tp == 2
    assert m.precision == 1.0
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(0.8)


def test_token_metrics_identity():
    tags = [B, I, O, B, O]
    m = token_metrics(tags, tags)
    assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)


def test_token_metrics_conventions_for_empty_sides():
    gold = [B, I, O]
    pred = [O, O, O]
    m = token_metrics(gold, pred)
    assert m.precision == 1.0  # nothing predicted
    assert m.recall == 0.0
    assert m.f1 == 0.0
    none_gold = token_metrics([O, O], [B, O])
    assert none_gold.recall == 1.0


def test_token_metrics_accuracy_is_role_sensitive():
    # header token found but tagged I instead of B
    gold = [B, B, O]
    pred = [B, I, O]
    m = token_metrics(gold, pred)
    assert m.recall == 1.0
    assert m.accuracy == pytest.approx(1 / 2)


def test_token_metrics_errors():
    with pytest.raises(LengthMismatch):
        token_metrics([B], [B, O])
    with pytest.raises(MalformedTags):
        token_metrics([I, O], [O, O])


def test_token_metrics_matches_brute_force():
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randint(0, 120)
        gold = random_well_formed_tags(rng, n)
        pred = random_well_formed_tags(rng, n)
        m = token_metrics(gold, pred)
        tp, fp, fn, gold_h, pred_h, role, eq = brute_force_counts(gold, pred)
        assert (m.counts.tp, m.counts.fp, m.counts.fn) == (tp, fp, fn)
        assert (m.counts.gold_tokens, m.counts.pred_tokens) == (gold_h, pred_h)
        expected_p = tp / pred_h if pred_h else 1.0
        expected_r = tp / gold_h if gold_h else 1.0
        assert abs(m.precision - expected_p) < 1e-12
        assert abs(m.recall - expected_r) < 1e-12
        assert abs(m.accuracy - (role / gold_h if gold_h else 1.0)) < 1e-12
        assert abs(m.accuracy_all_tokens - (eq / n if n else 1.0)) < 1e-12


def test_exact_match_examples():
    assert exact_match_count(["Allergies", "Plan"], ["Allergies", "Assessment"]) == 1
    assert exact_match_count(["Allergies", "Plan"], ["Allergies", "Plan"]) == 2
    assert exact_match_count(["Allergies"], []) == 0
    assert exact_match_count([], []) == 0
    # a document without gold headers has EM 1.0
    assert DocScore(counts=Counts(), doc_id="d").em == 1.0


def test_exact_match_normalizes_and_consumes():
    assert exact_match_count(["ALLERGIES:"], ["allergies"]) == 1
    # one prediction cannot satisfy two gold copies
    assert exact_match_count(["Plan", "Plan"], ["Plan"]) == 1


# names that normalize alike ("Plan:", "PLAN", " plan "), apart, or to nothing
_HEADER_NAMES = st.sampled_from(
    ["Plan:", "PLAN", " plan ", "Plan", "Allergies", "ALLERGIES:", "Assessment", "HPI", "", ":"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_HEADER_NAMES, max_size=8), st.lists(_HEADER_NAMES, max_size=8))
def test_exact_match_count_is_the_greedy_one_to_one_count(gold, pred):
    assert exact_match_count(gold, pred) == reference_exact_match_count(gold, pred)


def test_jaccard_examples():
    assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5
    assert jaccard({"x"}, {"x"}) == 1.0
    assert jaccard({"x"}, {"y"}) == 0.0
    assert jaccard(set(), set()) == 1.0


@given(
    st.sets(st.text(alphabet="abcdef ", min_size=1, max_size=8), max_size=8),
    st.sets(st.text(alphabet="abcdef ", min_size=1, max_size=8), max_size=8),
)
def test_jaccard_properties(a, b):
    value = jaccard(a, b)
    assert 0.0 <= value <= 1.0
    assert value == jaccard(b, a)
    norm_a = {" ".join(x.split()) for x in a} - {""}
    norm_b = {" ".join(x.split()) for x in b} - {""}
    assert (value == 1.0) == (norm_a == norm_b)


def test_iaa_report_identical_and_disjoint():
    report = iaa_report([(["Plan"], ["Plan"])])
    assert report.mean_jaccard == 1.0
    report = iaa_report([(["Plan"], ["Allergies"])])
    assert report.mean_jaccard == 0.0


def test_iaa_report_known_average():
    # pairwise similarities 0.25, 0.25, 0.5, 0.5, 0.5 -> mean 0.40
    pairs = [
        (["alpha", "beta"], ["beta", "gamma", "delta"]),
        (["one", "two"], ["two", "three", "four"]),
        (["hpi", "plan", "allergies"], ["plan", "allergies", "orders"]),
        (["a", "b", "c"], ["b", "c", "d"]),
        (["p", "q", "r"], ["q", "r", "s"]),
    ]
    report = iaa_report(pairs)
    assert [v for _, v in report.per_pair] == [0.25, 0.25, 0.5, 0.5, 0.5]
    assert report.mean_jaccard == 0.40


def test_iaa_report_empty_input():
    with pytest.raises(EmptyInput):
        iaa_report([])


@pytest.mark.parametrize("ids", [["x"], ["x", "y", "z"]], ids=["fewer", "more"])
def test_iaa_report_ids_and_pairs_differ_in_length(ids):
    # zip would drop the 0.0 pair and report a mean of 1.0
    with pytest.raises(LengthMismatch, match=f"{len(ids)} ids for 2 annotation pairs"):
        iaa_report([(["a"], ["a"]), (["b"], ["c"])], ids=ids)


def gold_echo_predictions(corpus):
    return {doc.id: Prediction(headers=doc.header_texts()) for doc in corpus}


def test_evaluate_run_gold_echo_is_perfect():
    rng = random.Random(61)
    corpus = make_synthetic_corpus(rng, 25)
    run = evaluate_run(corpus, gold_echo_predictions(corpus))
    r = run.report
    assert (r.precision, r.recall, r.f1, r.em, r.accuracy) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert r.accuracy_all_tokens == 1.0


def test_evaluate_run_empty_predictions():
    rng = random.Random(67)
    corpus = make_synthetic_corpus(rng, 10, min_sections=1)
    run = evaluate_run(corpus, {})
    assert run.report.em == 0.0
    assert run.report.recall == 0.0
    assert run.report.precision == 1.0  # nothing predicted anywhere


def test_evaluate_run_order_invariant():
    rng = random.Random(71)
    corpus = make_synthetic_corpus(rng, 12, min_sections=1)
    preds = gold_echo_predictions(corpus)
    # plant one miss so scores are not trivially 1.0
    victim = corpus[3].id
    preds[victim] = Prediction(headers=corpus[3].header_texts()[1:])
    run_a = evaluate_run(corpus, preds)
    shuffled = corpus[:]
    rng.shuffle(shuffled)
    run_b = evaluate_run(shuffled, preds)
    for name in ("precision", "recall", "f1", "em", "accuracy"):
        assert getattr(run_a.report, name) == pytest.approx(
            getattr(run_b.report, name), abs=1e-12
        )


def test_evaluate_run_close_ended_mode():
    rng = random.Random(73)
    corpus = make_synthetic_corpus(rng, 8, min_sections=1)
    ont = load_ontology()
    preds = {
        doc.id: Prediction(headers=[s.label for s in doc.sections]) for doc in corpus
    }
    run = evaluate_run(corpus, preds, ont, close_ended=True)
    assert run.report.em == 1.0
    assert run.report.precision == 1.0
    with pytest.raises(ValueError):
        evaluate_run(corpus, preds, None, close_ended=True)


@pytest.mark.parametrize("gold, pred, tp", [
    (["Zebra Notes"], ["None"], 0),
    (["Zebra Notes", "Plan"], ["Plan", "Totally Invented"], 1),
    (["Zebra Notes"], ["zebra notes"], 1),
])
def test_close_ended_answer_outside_the_taxonomy_is_not_a_hit(gold, pred, tp):
    counts = metrics._close_ended_counts(gold, pred, load_ontology())
    assert (counts.tp, counts.fp, counts.fn) == (tp, len(pred) - tp, len(gold) - tp)


def _brute_close_ended(gold, pred, ont):
    """(tp, fp, fn) over classes of names found pairwise: two names are one
    class when both categorize (by the oracle) to one known category, or both
    to none with the same normalized surface."""
    category = {name: reference_categorize(name, ont) for name in [*gold, *pred]}

    def same(a, b):
        if UNKNOWN in (category[a], category[b]):
            return category[a] == category[b] and normalize_surface(a) == normalize_surface(b)
        return category[a] == category[b]

    def classes(names):
        kept = []
        for name in names:
            if not any(same(name, other) for other in kept):
                kept.append(name)
        return kept

    gold, pred = classes(gold), classes(pred)
    tp = sum(any(same(g, p) for p in pred) for g in gold)
    return tp, len(pred) - tp, len(gold) - tp


_BUNDLED = load_ontology()
# bundled surfaces as written and title-cased, names outside the taxonomy,
# the prompt's "None" escape, and short strings that may fall either side
_CLOSE_ENDED_NAMES = st.one_of(
    st.sampled_from(sorted(_BUNDLED.surface_map)),
    st.sampled_from(sorted(_BUNDLED.surface_map)).map(str.title),
    st.sampled_from(["None", "none", "Zebra Notes", "zebra notes:", "Totally Invented", "--"]),
    st.text(alphabet="aeilnpz :", max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_CLOSE_ENDED_NAMES, max_size=5), st.lists(_CLOSE_ENDED_NAMES, max_size=5))
def test_close_ended_counts_match_brute_force(gold, pred):
    counts = metrics._close_ended_counts(gold, pred, _BUNDLED)
    assert (counts.tp, counts.fp, counts.fn) == _brute_close_ended(gold, pred, _BUNDLED)
    echo = metrics._close_ended_counts(gold, gold, _BUNDLED)
    assert echo.fp == echo.fn == 0
    assert MetricsReport(counts=echo, em=1.0).f1 == 1.0


def _planted_miss_corpus():
    from sectionid.corpus import AnnotatedDocument, Document, SectionAnnotation

    def doc(doc_id, text, spans):
        sections = [
            SectionAnnotation(label=text[s:e], header_span=(s, e), raw_header=text[s:e])
            for s, e in spans
        ]
        return AnnotatedDocument(Document(doc_id, text), sections)

    return [
        doc("da", "Alpha One: aa bb\nBeta Two: cc\n", [(0, 9), (17, 25)]),
        doc("db", "Gamma Ray: dd\n", [(0, 9)]),
        doc("dc", "Delta Four: ee ff\n", [(0, 10)]),
    ]


def test_evaluate_run_three_doc_planted_miss():
    # hand-counted: da and dc echo gold; db gets no prediction at all.
    # token totals: tp=6 of 8 gold header tokens, 6 predicted, 18 tokens.
    corpus = _planted_miss_corpus()
    preds = {
        "da": Prediction(headers=["Alpha One", "Beta Two"]),
        "dc": Prediction(headers=["Delta Four"]),
    }
    run = evaluate_run(corpus, preds)
    c = run.report.counts
    assert (c.tp, c.fp, c.fn) == (6, 0, 2)
    assert (c.gold_tokens, c.pred_tokens) == (8, 6)
    assert (c.total_tokens, c.equal_tokens) == (18, 16)
    assert (c.gold_headers, c.matched_exact) == (4, 3)
    assert run.report.precision == 1.0
    assert run.report.recall == 0.75
    assert run.report.f1 == 2 * 1.0 * 0.75 / (1.0 + 0.75)
    assert run.report.accuracy == 0.75
    assert run.report.em == (1.0 + 0.0 + 1.0) / 3
    ems = {d.doc_id: d.em for d in run.per_doc}
    assert ems == {"da": 1.0, "db": 0.0, "dc": 1.0}


def test_evaluate_run_scores_carried_spans_as_they_are():
    # aligning da's headers again would place both on gold; the carried
    # spans place "Alpha One" nowhere and "Beta Two" on the body word "cc"
    corpus = _planted_miss_corpus()[:1]
    headers = ["Alpha One", "Beta Two"]
    realigned = evaluate_run(corpus, {"da": Prediction(headers=headers)})
    assert (realigned.report.counts.tp, realigned.per_doc[0].unmatched_headers) == (4, [])
    run = evaluate_run(corpus, {"da": Prediction(headers=headers, spans=[None, (27, 29)])})
    c = run.report.counts
    assert (c.tp, c.fp, c.fn, c.pred_tokens) == (0, 1, 4, 1)
    assert run.per_doc[0].unmatched_headers == ["Alpha One"]


def test_render_report_formats():
    rng = random.Random(79)
    corpus = make_synthetic_corpus(rng, 5)
    run = evaluate_run(corpus, gold_echo_predictions(corpus), method="echo")
    csv_text = render_report(run, "csv")
    assert csv_text.splitlines()[0] == "method,accuracy,precision,recall,f1,em"
    assert csv_text.splitlines()[1].startswith("echo,100.00,")
    table = render_report(run, "table_text")
    header = table.splitlines()[0]
    for left, right in zip(
        ["Accuracy", "Precision", "Recall", "F1(%)", "EM(%)"],
        ["Precision", "Recall", "F1(%)", "EM(%)", None],
    ):
        if right is not None:
            assert header.index(left) < header.index(right)
    with pytest.raises(ValueError):
        render_report(run, "yaml")


@pytest.mark.parametrize("close_ended", [False, True], ids=["open", "close_ended"])
def test_render_report_json_roundtrips(close_ended):
    rng = random.Random(83)
    corpus = make_synthetic_corpus(rng, 6, min_sections=1)
    preds = gold_echo_predictions(corpus)
    preds[corpus[0].id] = Prediction(headers=[])
    run = evaluate_run(
        corpus, preds, load_ontology(), method="partial", close_ended=close_ended
    )
    payload = render_report(run, "json")
    assert report_from_json(payload) == run
    assert render_report(report_from_json(payload), "json") == payload
    data = json.loads(payload)
    assert set(data["scores"]) == {
        "accuracy", "accuracy_all_tokens", "precision", "recall", "f1", "em"
    }
    for d in data["per_doc"]:
        assert set(d) == {
            "accuracy", "counts", "doc_id", "em", "f1", "precision", "recall",
            "unmatched_headers",
        }


# sha256 of the json, csv and table_text renders of each gold_small run,
# first 16 hex digits; pins every byte of both scoring modes' reports.
GOLDEN_REPORTS = {
    ("keyword", False): "12530adc869a922d",
    ("keyword", True): "2545bf1056290a07",
    ("regex", False): "97f2fdba9fc84507",
    ("regex", True): "a1e76b73c1b85768",
    ("rules", False): "435c2aafef471853",
    ("rules", True): "78829c8665f779e4",
    ("llm", False): "8214445f6ea03d50",
    ("llm", True): "de089f27b1aa5a06",
}


def _gold_small_predictions(name, corpus):
    lexicon = HeaderLexicon(entries=default_lexicon_entries())
    segment = {
        "keyword": lambda doc: keyword_segment(doc, lexicon),
        "regex": regex_segment,
        "rules": lambda doc: rule_segment(doc, lexicon),
        "llm": lambda doc: Prediction(headers=parse_llm_response(
            (FIXTURES / "responses" / f"{doc.id}.txt").read_text(encoding="utf-8")
        )),
    }[name]
    return {doc.id: segment(doc.document) for doc in corpus}


@pytest.mark.parametrize(
    "name,close_ended", list(GOLDEN_REPORTS), ids=lambda v: str(v).lower()
)
def test_report_bytes_are_golden(name, close_ended):
    corpus = load_gold_corpus(FIXTURES / "gold_small.jsonl")
    run = evaluate_run(
        corpus,
        _gold_small_predictions(name, corpus),
        load_ontology(),
        method=name,
        corpus_name="gold_small",
        close_ended=close_ended,
    )
    rendered = "".join(render_report(run, fmt) for fmt in ("json", "csv", "table_text"))
    digest = hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:16]
    assert digest == GOLDEN_REPORTS[name, close_ended]


# letters, digits, underscore, punctuation, whitespace, letters whose case
# mapping changes length or context (İ, ß, Σ/ς), a combining acute accent,
# non-ASCII space (no-break, line separator), a control character, a
# superscript digit, an em dash and a letter outside the BMP
_COUNTER_ALPHABET = "aZ9_.:-, \n\tİßΣς\u0301\u00a0\x1f\u2028²—\U00010400"


@st.composite
def _text_and_spans(draw):
    text = draw(st.text(alphabet=_COUNTER_ALPHABET, max_size=40))

    def spans():
        # spans between consecutive marked offsets: sorted and disjoint, they
        # may touch, cut a token, lie in whitespace or run past either end
        marks = draw(st.lists(st.tuples(st.integers(-3, len(text) + 3), st.booleans())))
        bounds = sorted({offset for offset, _ in marks})
        keep = dict(marks)
        return [(a, b) for a, b in zip(bounds, bounds[1:]) if keep[a]]

    return text, spans(), spans()


@given(_text_and_spans())
def test_span_counts_equals_token_path(case):
    text, gold, pred = case
    assert span_counts(text, gold, pred) == reference_span_counts(text, gold, pred)


@pytest.mark.parametrize("bad", [[(3, 3)], [(5, 2)], [(4, 8), (0, 2)], [(0, 5), (3, 8)]])
@pytest.mark.parametrize("side", ["gold", "pred"])
def test_span_counts_refuses_what_the_token_path_refuses(bad, side):
    text = "Plan: rest and fluids"
    gold, pred = (bad, [(0, 4)]) if side == "gold" else ([(0, 4)], bad)
    with pytest.raises(OverlapError) as expected:
        reference_span_counts(text, gold, pred)
    with pytest.raises(OverlapError, match=re.escape(str(expected.value))):
        span_counts(text, gold, pred)


def test_evaluate_builds_no_tokens_or_tags(
    gold_small, replay_store, replay_llm_config, monkeypatch, tmp_path
):
    # replayed answers include a fuzzy and an unmatched header, so the
    # counts are not all equal
    predictions, _ = extract_corpus(
        [d.document for d in gold_small], PromptStrategy.zero_shot(), replay_llm_config,
        ReplayClient(replay_store),
    )
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "span_counts", reference_span_counts)
        expected = render_report(evaluate_run(gold_small, predictions), "json")

    def rules_cli_outputs():
        # ``segment --segmenter rules`` then ``evaluate``: every file both write
        corpus, out = str(FIXTURES / "gold_small.jsonl"), tmp_path / "rules"
        assert main(
            ["segment", "--corpus", corpus, "--segmenter", "rules", "--out", str(out / "s")]
        ) == OK
        assert main([
            "evaluate", "--corpus", corpus, "--segmenter", "rules",
            "--predictions", str(out / "s" / "predictions.jsonl"), "--out", str(out / "e"),
        ]) == OK
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    expected_files = rules_cli_outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("no command may build tokens or tags")

    # every name bound to them in the package, imported names included
    token_path = (tokenizer.tokenize, tokenizer.spans_to_iob, metrics.token_counts)
    for name, module in list(sys.modules.items()):
        if name == "sectionid" or name.startswith("sectionid."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in token_path):
                    monkeypatch.setattr(module, attr, refuse)
    run = evaluate_run(gold_small, predictions)
    assert run.report.counts.fp and run.report.counts.fn
    assert render_report(run, "json") == expected
    assert rules_cli_outputs() == expected_files
    assert sorted(str(path) for path in expected_files) == [
        "e/report.csv", "e/report.json", "e/report.txt", "e/run_config.json",
        "s/predictions.jsonl", "s/run_config.json",
    ]


def test_evaluate_aligns_no_prediction_segment_grounded(replay_store, monkeypatch, tmp_path):
    corpus, seg = str(FIXTURES / "gold_small.jsonl"), tmp_path / "seg"
    assert main([
        "segment", "--corpus", corpus, "--segmenter", "llm", "--replay", str(replay_store),
        "--out", str(seg),
    ]) == OK

    def reports(name):
        out = tmp_path / name
        assert main([
            "evaluate", "--corpus", corpus, "--segmenter", "llm",
            "--predictions", str(seg / "predictions.jsonl"), "--out", str(out),
        ]) == OK
        return [(out / f).read_bytes() for f in ("report.json", "report.csv", "report.txt")]

    expected = reports("plain")
    real = align.align_headers

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate aligned a prediction that segment grounded")

    # every name bound to it in the package, imported names included
    for name, module in list(sys.modules.items()):
        if name == "sectionid" or name.startswith("sectionid."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, refuse)
    assert reports("patched") == expected
