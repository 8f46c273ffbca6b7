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
from collections import Counter
from typing import Iterable, Mapping, Sequence

from .corpus import AnnotatedDocument, Record
from .errors import EmptyInput, LengthMismatch, MalformedTags
from .ontology import UNKNOWN, Ontology, categorize, normalize_surface
from .prediction import DEFAULT_MAX_EDIT_RATIO, Prediction
from .tokenizer import O, _check_spans, is_well_formed, splits_token, tokens_before


class Counts(Record):
    __slots__ = _fields = (
        "tp", "fp", "fn", "gold_tokens", "pred_tokens", "gold_headers",
        "matched_exact", "role_correct", "total_tokens", "equal_tokens",
    )
    _defaults = dict.fromkeys(__slots__, 0)

    def add(self, other: "Counts") -> None:
        for name in self._fields:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class TokenMetrics(Record):
    """Token counts; every rate is a property computed from them, by the
    conventions above, so no stored score can disagree with its counts."""

    __slots__ = _fields = ("counts",)

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


class DocScore(TokenMetrics):
    """One document's counts and the predicted headers grounded nowhere.

    ``em`` is ``matched_exact / gold_headers`` (1.0 with no gold header) in
    both scoring modes.
    """

    __slots__ = ("doc_id", "unmatched_headers")
    _fields = ("counts", *__slots__)
    _defaults = {"unmatched_headers": list}

    @property
    def em(self) -> float:
        c = self.counts
        return c.matched_exact / c.gold_headers if c.gold_headers else 1.0


class MetricsReport(TokenMetrics):
    """Corpus counts, summed over documents, and the corpus exact match: the
    mean of the per-document values, which the summed counts cannot give."""

    __slots__ = ("em",)
    _fields = ("counts", *__slots__)


class RunReport(Record):
    __slots__ = _fields = ("method", "corpus", "report", "per_doc")


def token_counts(gold_tags: Sequence[str], pred_tags: Sequence[str]) -> Counts:
    if len(gold_tags) != len(pred_tags):
        raise LengthMismatch(f"{len(gold_tags)} gold tags vs {len(pred_tags)} predicted")
    if not is_well_formed(gold_tags) or not is_well_formed(pred_tags):
        raise MalformedTags("tag sequences must be well-formed IOB")
    counts = Counts(total_tokens=len(gold_tags))
    for g, p in zip(gold_tags, pred_tags):
        gold_header = g != O
        pred_header = p != O
        counts.gold_tokens += gold_header
        counts.pred_tokens += pred_header
        counts.tp += gold_header and pred_header
        counts.fp += pred_header and not gold_header
        counts.fn += gold_header and not pred_header
        counts.role_correct += gold_header and g == p
        counts.equal_tokens += g == p
    return counts


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
    its offsets (``tokens_before``: one ``str.translate`` of the text, then
    C-level ``str.count`` calls per gap between offsets); every count
    follows from the two run lists.
    """
    _check_spans(gold_spans)
    _check_spans(pred_spans)
    n = len(text)

    def inside(spans: Sequence[tuple[int, int]]) -> Sequence[tuple[int, int]]:
        # the spans clamped to the text; they are sorted, so only the first
        # start and the last end can lie outside it
        if spans and (spans[0][0] < 0 or spans[-1][1] > n):
            return [(min(max(start, 0), n), min(max(end, 0), n)) for start, end in spans]
        return spans

    gold_spans, pred_spans = inside(gold_spans), inside(pred_spans)
    before = tokens_before(text, {p for span in (*gold_spans, *pred_spans) for p in span})

    def runs(spans: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
        # the [first, last) token runs that spans_to_iob tags B, I...; a
        # token cut by two spans belongs to the first
        out = []
        claimed = 0
        for start, end in spans:
            first = before[start] - splits_token(text, start)
            if first < claimed:
                first = claimed
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
    header, so the count is the size of the multiset intersection of the
    two sides' normalized names.
    """
    gold = Counter(map(normalize_surface, gold_headers))
    return sum((gold & Counter(map(normalize_surface, pred_headers))).values())


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity of two header-name sets over normalized surface forms."""
    set_a = {normalize_surface(x) for x in a} - {""}
    set_b = {normalize_surface(x) for x in b} - {""}
    union = set_a | set_b
    if not union:
        return 1.0
    return len(set_a & set_b) / len(union)


class IAAReport(Record):
    __slots__ = _fields = ("mean_jaccard", "per_pair")


def iaa_report(
    pairs: Sequence[tuple[Iterable[str], Iterable[str]]],
    ids: Sequence[str] | None = None,
) -> IAAReport:
    """Mean pairwise Jaccard similarity across doubly-annotated documents."""
    if not pairs:
        raise EmptyInput("iaa_report needs at least one annotation pair")
    if ids is not None and len(ids) != len(pairs):
        raise LengthMismatch(f"{len(ids)} ids for {len(pairs)} annotation pairs")
    labels = ids if ids is not None else [str(i) for i in range(len(pairs))]
    per_pair = [(label, jaccard(a, b)) for label, (a, b) in zip(labels, pairs)]
    mean = sum(v for _, v in per_pair) / len(per_pair)
    return IAAReport(mean_jaccard=mean, per_pair=per_pair)


def _close_ended_label(name: str, ont: Ontology) -> object:
    """``name``'s category; a name outside the taxonomy stands for its own
    normalized surface, so that it hits only the same name."""
    category = categorize(name, ont)
    return (UNKNOWN, normalize_surface(name)) if category == UNKNOWN else category


def _close_ended_counts(
    gold_labels: Sequence[str], pred_headers: Sequence[str], ont: Ontology
) -> Counts:
    gold_cats = {_close_ended_label(label, ont) for label in gold_labels}
    pred_cats = {_close_ended_label(h, ont) for h in pred_headers}
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

    Open mode scores a grounded prediction's placed spans, its ``None``
    entries as unmatched headers, and aligns one without spans (``align``)
    first; spans count as token IOB tags (``span_counts``), micro-averaged,
    and exact match is macro-averaged per document. Close-ended mode
    compares the categorized label sets instead, which needs an ontology; a
    label outside it is its own class, not one shared ``UNKNOWN``.
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
            if pred.grounded:
                spans = pred.placed_spans()
                unmatched = [h for h, span in zip(pred.headers, pred.spans or ()) if span is None]
            else:
                # imported here so that scoring grounded predictions loads no grounding
                from .align import align_headers

                alignment = align_headers(doc.document, pred, max_edit_ratio=max_edit_ratio)
                spans = alignment.matched_spans()
                unmatched = [pred.headers[i] for i in alignment.unmatched_predictions]
            counts = span_counts(doc.text, doc.header_spans(), spans)
            counts.gold_headers = len(doc.sections)
            counts.matched_exact = exact_match_count(doc.header_texts(), pred.headers)
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
            "counts": {name: getattr(r.counts, name) for name in Counts._fields},
            "per_doc": [
                {
                    "doc_id": d.doc_id,
                    "counts": {name: getattr(d.counts, name) for name in Counts._fields},
                    "unmatched_headers": d.unmatched_headers,
                    **{name: getattr(d, name) for name in _RATES},
                }
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
