"""Scoring: token-level IOB metrics, exact match, Jaccard agreement, full runs.

Conventions, chosen so every number is recomputable from the reported counts:

* Precision is 1.0 when no header tokens were predicted, recall 1.0 when the
  gold side has none. F1 is the harmonic mean, 0 when P + R == 0.
* ``accuracy`` is recall restricted to gold header tokens carrying the
  correct B/I role; ``accuracy_all_tokens`` is plain positional agreement
  over every token and is reported alongside.
* Exact match is per gold header: the fraction of gold headers whose
  normalized surface form is produced by the system, matched one-to-one.
* Corpus aggregation is micro (summed counts) for token metrics and macro
  (mean of per-document values) for exact match.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from operator import eq
from typing import Iterable, Mapping, Sequence

from .align import DEFAULT_MAX_EDIT_RATIO, align_headers
from .corpus import AnnotatedDocument
from .errors import EmptyInput, LengthMismatch, MalformedTags
from .ontology import Ontology, categorize, normalize_surface
from .prediction import Prediction
from .tokenizer import O, _check_spans, count_tokens, is_well_formed, splits_token


@dataclass
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    gold_tokens: int = 0
    pred_tokens: int = 0
    gold_headers: int = 0
    matched_exact: int = 0
    role_correct: int = 0
    total_tokens: int = 0
    equal_tokens: int = 0

    def add(self, other: "Counts") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class TokenMetrics:
    """Token counts; every rate is a property computed from them, by the
    conventions above, so no stored score can disagree with its counts."""

    counts: Counts

    @property
    def precision(self) -> float:
        c = self.counts
        return c.tp / c.pred_tokens if c.pred_tokens else 1.0

    @property
    def recall(self) -> float:
        c = self.counts
        return c.tp / c.gold_tokens if c.gold_tokens else 1.0

    @property
    def f1(self) -> float:
        precision, recall = self.precision, self.recall
        return 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0

    @property
    def accuracy(self) -> float:
        c = self.counts
        return c.role_correct / c.gold_tokens if c.gold_tokens else 1.0

    @property
    def accuracy_all_tokens(self) -> float:
        c = self.counts
        return c.equal_tokens / c.total_tokens if c.total_tokens else 1.0


@dataclass
class DocScore(TokenMetrics):
    """One document's counts and the predicted headers grounded nowhere.

    ``em`` is ``matched_exact / gold_headers`` (1.0 with no gold header) in
    both scoring modes.
    """

    doc_id: str
    unmatched_headers: list[str] = field(default_factory=list)

    @property
    def em(self) -> float:
        c = self.counts
        return c.matched_exact / c.gold_headers if c.gold_headers else 1.0


@dataclass
class MetricsReport(TokenMetrics):
    """Corpus counts, summed over documents, and the corpus exact match: the
    mean of the per-document values, which the summed counts cannot give."""

    em: float


@dataclass
class RunReport:
    method: str
    corpus: str
    report: MetricsReport
    per_doc: list[DocScore]


def token_counts(gold_tags: Sequence[str], pred_tags: Sequence[str]) -> Counts:
    if len(gold_tags) != len(pred_tags):
        raise LengthMismatch(f"{len(gold_tags)} gold tags vs {len(pred_tags)} predicted")
    gold, pred = list(gold_tags), list(pred_tags)
    if not is_well_formed(gold) or not is_well_formed(pred):
        raise MalformedTags("tag sequences must be well-formed IOB")
    # Header tokens are the tags other than O. Counting O tags, O/O pairs and
    # equal pairs in C gives every count by inclusion-exclusion.
    total = len(gold)
    gold_tokens = total - gold.count(O)
    pred_tokens = total - pred.count(O)
    both_outside = list(zip(gold, pred)).count((O, O))
    tp = gold_tokens + pred_tokens - total + both_outside
    equal = sum(map(eq, gold, pred))
    return Counts(
        tp=tp,
        fp=pred_tokens - tp,
        fn=gold_tokens - tp,
        gold_tokens=gold_tokens,
        pred_tokens=pred_tokens,
        role_correct=equal - both_outside,
        total_tokens=total,
        equal_tokens=equal,
    )


def span_counts(
    text: str,
    gold_spans: Sequence[tuple[int, int]],
    pred_spans: Sequence[tuple[int, int]],
) -> Counts:
    """``token_counts`` of the IOB tags both span lists give over ``text``.

    Equal to ``token_counts(spans_to_iob(tokenize(text), gold_spans),
    spans_to_iob(tokenize(text), pred_spans))``, and the spans are checked
    the same way, but no token or tag is built. Each span claims a run of
    token indices, found from the number of tokens that start before each of
    its offsets; every count follows from the two run lists.
    """
    _check_spans(gold_spans)
    _check_spans(pred_spans)
    n = len(text)
    offsets = {min(max(p, 0), n) for span in (*gold_spans, *pred_spans) for p in span}
    # before[p]: tokens that start before p. Counting from a alone also
    # counts the tail of a token cut at a, which started before a.
    before = {0: 0}
    a = 0
    for b in sorted(offsets | {n}):
        if b > a:
            before[b] = before[a] + count_tokens(text, a, b) - splits_token(text, a)
            a = b

    def runs(spans: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
        # the [first, last) token runs that spans_to_iob tags B, I...; a
        # token cut by two spans belongs to the first
        out = []
        claimed = 0
        for start, end in spans:
            start, end = min(max(start, 0), n), min(max(end, 0), n)
            first = max(claimed, before[start] - splits_token(text, start))
            last = before[end]
            if first < last:
                out.append((first, last))
                claimed = last
        return out

    gold, pred = runs(gold_spans), runs(pred_spans)
    gold_tokens = sum(last - first for first, last in gold)
    pred_tokens = sum(last - first for first, last in pred)
    # Overlapping runs share header tokens; the first shared token has the
    # same role in both only when the runs start together, the rest are I/I.
    tp = role_correct = i = j = 0
    while i < len(gold) and j < len(pred):
        (g0, g1), (p0, p1) = gold[i], pred[j]
        overlap = min(g1, p1) - max(g0, p0)
        if overlap > 0:
            tp += overlap
            role_correct += overlap - (g0 != p0)
        if g1 <= p1:
            i += 1
        else:
            j += 1
    total = before[n]
    both_outside = total - gold_tokens - pred_tokens + tp
    return Counts(
        tp=tp,
        fp=pred_tokens - tp,
        fn=gold_tokens - tp,
        gold_tokens=gold_tokens,
        pred_tokens=pred_tokens,
        role_correct=role_correct,
        total_tokens=total,
        equal_tokens=both_outside + role_correct,
    )


def token_metrics(gold_tags: Sequence[str], pred_tags: Sequence[str]) -> TokenMetrics:
    """Precision/recall/F1/accuracy over header tokens for one document."""
    return TokenMetrics(token_counts(gold_tags, pred_tags))


def exact_match_count(gold_headers: Sequence[str], pred_headers: Sequence[str]) -> int:
    """Number of gold headers reproduced verbatim after normalization.

    Matching is one-to-one: each predicted header can satisfy only one gold
    header, scanned greedily in order.
    """
    remaining = [normalize_surface(p) for p in pred_headers]
    matched = 0
    for gold in gold_headers:
        norm = normalize_surface(gold)
        try:
            remaining.remove(norm)
        except ValueError:
            continue
        matched += 1
    return matched


def exact_match(gold_headers: Sequence[str], pred_headers: Sequence[str]) -> float:
    """Fraction of gold headers exactly reproduced; 1.0 when gold is empty."""
    if not gold_headers:
        return 1.0
    return exact_match_count(gold_headers, pred_headers) / len(gold_headers)


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity of two header-name sets over normalized surface forms."""
    set_a = {normalize_surface(x) for x in a} - {""}
    set_b = {normalize_surface(x) for x in b} - {""}
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


@dataclass
class IAAReport:
    mean_jaccard: float
    per_pair: list[tuple[str, float]]


def iaa_report(
    pairs: Sequence[tuple[Iterable[str], Iterable[str]]],
    ids: Sequence[str] | None = None,
) -> IAAReport:
    """Mean pairwise Jaccard similarity across doubly-annotated documents."""
    if not pairs:
        raise EmptyInput("iaa_report needs at least one annotation pair")
    labels = ids if ids is not None else [str(i) for i in range(len(pairs))]
    per_pair = [(label, jaccard(a, b)) for label, (a, b) in zip(labels, pairs)]
    mean = sum(v for _, v in per_pair) / len(per_pair)
    return IAAReport(mean_jaccard=mean, per_pair=per_pair)


def _close_ended_counts(
    gold_labels: Sequence[str], pred_headers: Sequence[str], ont: Ontology
) -> Counts:
    gold_cats = {categorize(label, ont) for label in gold_labels}
    pred_cats = {categorize(h, ont) for h in pred_headers}
    hit = len(gold_cats & pred_cats)
    return Counts(
        tp=hit,
        fp=len(pred_cats - gold_cats),
        fn=len(gold_cats - pred_cats),
        gold_tokens=len(gold_cats),
        pred_tokens=len(pred_cats),
        gold_headers=len(gold_cats),
        matched_exact=hit,
        role_correct=hit,
        total_tokens=len(gold_cats | pred_cats),
        equal_tokens=hit,
    )


def evaluate_run(
    corpus: Sequence[AnnotatedDocument],
    predictions: Mapping[str, Prediction],
    ontology: Ontology | None = None,
    *,
    method: str = "run",
    corpus_name: str = "corpus",
    max_edit_ratio: float = DEFAULT_MAX_EDIT_RATIO,
    close_ended: bool = False,
) -> RunReport:
    """Score one segmenter run against gold annotations.

    Open mode grounds each prediction (module ``align``), counts gold and
    predicted spans as token IOB tags (``span_counts``), and micro-averages;
    exact match is macro-averaged per document. Close-ended mode instead
    compares the categorized label sets, which requires an ontology.
    Documents without a prediction are scored against an empty one.
    """
    if close_ended and ontology is None:
        raise ValueError("close-ended evaluation needs an ontology")
    total = Counts()
    per_doc: list[DocScore] = []
    for doc in corpus:
        pred = predictions.get(doc.id, Prediction(headers=[]))
        if close_ended:
            assert ontology is not None
            counts = _close_ended_counts(
                [s.label for s in doc.sections], pred.headers, ontology
            )
            unmatched: list[str] = []
        else:
            alignment = align_headers(doc.document, pred, max_edit_ratio=max_edit_ratio)
            counts = span_counts(doc.text, doc.header_spans(), alignment.matched_spans())
            counts.gold_headers = len(doc.sections)
            counts.matched_exact = exact_match_count(doc.header_texts(), pred.headers)
            unmatched = [pred.headers[i] for i in alignment.unmatched_predictions]
        per_doc.append(DocScore(counts=counts, doc_id=doc.id, unmatched_headers=unmatched))
        total.add(counts)
    em = sum(d.em for d in per_doc) / len(per_doc) if per_doc else 1.0
    report = MetricsReport(counts=total, em=em)
    return RunReport(method=method, corpus=corpus_name, report=report, per_doc=per_doc)


# The rates a report prints, in column order; each document has them too.
_RATES = ("accuracy", "precision", "recall", "f1", "em")

CSV_HEADER = ",".join(("method", *_RATES))

_TABLE_COLUMNS = ("Accuracy(%)", "Precision(%)", "Recall(%)", "F1(%)", "EM(%)")


def _pct(value: float) -> str:
    return f"{value * 100:.2f}"


def render_report(run: RunReport, fmt: str = "table_text") -> str:
    """Serialize a run report deterministically as table_text, csv, or json."""
    r = run.report
    row = [_pct(getattr(r, name)) for name in _RATES]
    if fmt == "csv":
        return CSV_HEADER + "\n" + ",".join([run.method] + row) + "\n"
    if fmt == "table_text":
        name_width = max(len("Method"), len(run.method))
        header = ["Method".ljust(name_width)] + [c.rjust(12) for c in _TABLE_COLUMNS]
        values = [run.method.ljust(name_width)] + [v.rjust(12) for v in row]
        return "\n".join(["  ".join(header), "  ".join(values)]) + "\n"
    if fmt == "json":
        payload = {
            "method": run.method,
            "corpus": run.corpus,
            "scores": {name: getattr(r, name) for name in ("accuracy_all_tokens", *_RATES)},
            "counts": asdict(r.counts),
            "per_doc": [
                {**asdict(d), **{name: getattr(d, name) for name in _RATES}}
                for d in run.per_doc
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def report_from_json(payload: str) -> RunReport:
    """Inverse of ``render_report(..., "json")``."""
    data = json.loads(payload)
    per_doc = [
        DocScore(
            counts=Counts(**d["counts"]),
            doc_id=d["doc_id"],
            unmatched_headers=list(d["unmatched_headers"]),
        )
        for d in data["per_doc"]
    ]
    report = MetricsReport(counts=Counts(**data["counts"]), em=data["scores"]["em"])
    return RunReport(
        method=data["method"], corpus=data["corpus"], report=report, per_doc=per_doc
    )
