"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions of each ``sectionid`` layer
and rebinds every module attribute that refers to them, so names callers
imported (``sectionid.metrics.align_headers``,
``sectionid.align.prefix_distances`` ...) are traced as well as the defining
module's. Spans live in memory as ``(id, parent, name, start, end)`` tuples;
each thread keeps its own parent stack, and a span opened on a worker thread
with no open span of its own takes the main thread's innermost span as its
parent. Counts are read from arguments, return values and exceptions at the
same boundaries. Nothing here runs unless the benchmark asks for a trace.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_align(t, args, kwargs, result, exc):
    if result is None:
        return
    t.add("align.calls")
    t.add("align.headers", len(_arg(args, kwargs, 1, "pred").headers))
    for match in result.matches:
        t.add("align." + match.match_kind)
    t.add("align.unmatched", len(result.unmatched_predictions))


def _count_segmenter(layer):
    def observe(t, args, kwargs, result, exc):
        text = _arg(args, kwargs, 0, "doc").text
        t.add(f"baselines.{layer}_chars", len(text))
        if result is not None and not t.parent_name().startswith("baselines."):
            t.add("baselines.lines", text.count("\n") + 1)
            t.add("baselines.headers", len(result.headers))
    return observe


def _count_categorize(t, args, kwargs, result, exc):
    t.add("ontology.categorize_calls")
    t.note_name(_arg(args, kwargs, 0, "name"))
    if result == "UNKNOWN":
        t.add("ontology.unknown")


def _count_complete(t, args, kwargs, result, exc):
    t.add("llm.requests")
    if exc is not None and type(exc).__name__ == "ReplayMiss":
        t.add("llm.replay_misses")


def _count_tokenize(t, args, kwargs, result, exc):
    t.add("tokenizer.chars", len(_arg(args, kwargs, 0, "text")))
    t.add("tokenizer.tokens", len(result or ()))


def _count_chunks(t, args, kwargs, result, exc):
    t.add("llm.chunk_chars", len(_arg(args, kwargs, 0, "text")))
    t.add("llm.chunks", len(result or ()))


def _count_dp(t, args, kwargs, result, exc):
    t.add("textdist.dp_cells", len(_arg(args, kwargs, 0, "needle")) * len(_arg(args, kwargs, 1, "haystack")))


def _count_evaluate(t, args, kwargs, result, exc):
    t.add("metrics.evaluate_chars", sum(len(d.text) for d in _arg(args, kwargs, 0, "corpus")))


# (span name, defining module, function, observer). Two functions may share a
# span name when they form one layer step: ``default_lexicon_entries`` is
# part of loading the ontology.
TARGETS = (
    ("corpus.load", "sectionid.corpus", "load_gold_corpus",
     lambda t, a, k, r, e: t.add("corpus.docs", len(r or ()))),
    ("tokenizer.tokenize", "sectionid.tokenizer", "tokenize", _count_tokenize),
    ("tokenizer.spans_to_iob", "sectionid.tokenizer", "spans_to_iob", None),
    ("baselines.keyword", "sectionid.baselines", "keyword_segment", _count_segmenter("keyword")),
    ("baselines.regex", "sectionid.baselines", "regex_segment", _count_segmenter("regex")),
    ("baselines.rule", "sectionid.baselines", "rule_segment", _count_segmenter("rule")),
    ("llm.extract_corpus", "sectionid.llm.extract", "extract_corpus", None),
    ("llm.extract_headers", "sectionid.llm.extract", "extract_headers", None),
    ("llm.chunk", "sectionid.llm.extract", "chunk_text", _count_chunks),
    ("llm.prompt", "sectionid.llm.prompts", "build_prompt", None),
    ("llm.complete", "sectionid.llm.client", "complete", _count_complete),
    ("llm.parse", "sectionid.llm.parsing", "parse_llm_response", None),
    ("align.align_headers", "sectionid.align", "align_headers", _count_align),
    ("textdist.prefix_distances", "sectionid.textdist", "prefix_distances", _count_dp),
    ("textdist.edit_ratio", "sectionid.textdist", "edit_ratio",
     lambda t, a, k, r, e: t.add("ontology.fuzzy_comparisons")),
    ("textdist.levenshtein", "sectionid.textdist", "levenshtein", None),
    ("ontology.load", "sectionid.ontology", "load_ontology", None),
    ("ontology.load", "sectionid.ontology", "default_lexicon_entries", None),
    ("ontology.categorize", "sectionid.ontology", "categorize", _count_categorize),
    ("metrics.evaluate_run", "sectionid.metrics", "evaluate_run", _count_evaluate),
    ("metrics.token_counts", "sectionid.metrics", "token_counts", None),
    ("metrics.exact_match", "sectionid.metrics", "exact_match_count", None),
    ("metrics.render", "sectionid.metrics", "render_report", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.names: set[str] = set()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[tuple[int, str]] = []
        self._main_thread = threading.main_thread()
        self._patched: list[tuple[object, str, object]] = []

    # -- bookkeeping used by observers -------------------------------------
    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def note_name(self, name: str) -> None:
        with self._lock:
            self.names.add(name)

    def _stack(self) -> list[tuple[int, str]]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str:
        """Name of the span that encloses the one being observed."""
        stack = self._stack()
        return stack[-1][1] if stack else ""

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> tuple[list, int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            main = self._main_stack
            parent = main[-1][0] if main and stack is not main else None
        sid = next(self._ids)
        stack.append((sid, name))
        return stack, sid, parent

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            stack, sid, parent = tracer._open(name)
            result = error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
                if observe is not None:
                    observe(tracer, args, kwargs, result, error)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        """Rebind every ``sectionid`` module attribute that is a target function."""
        modules = [m for n, m in list(sys.modules.items()) if n == "sectionid" or n.startswith("sectionid.")]
        for name, module_name, attr, observe in TARGETS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(name, fn, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it covered by child spans.

    Children on other threads can overlap each other; the union counts once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - union_length(children.get(sid, ()), t0, t1)
        for sid, _, _, t0, t1 in spans
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced cycle (without the ``cli.*`` and
    ``trace.*`` entries, which need the untraced cycles)."""
    own = self_times(tracer.spans)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    align_ms: list[float] = []
    for sid, _, name, t0, t1 in tracer.spans:
        self_s[name] += own[sid]
        incl_s[name] += t1 - t0
        calls[name] += 1
        if name == "align.align_headers":
            align_ms.append((t1 - t0) * 1e3)
    c = tracer.counts
    q = statistics.quantiles(align_ms, n=10, method="inclusive") if len(align_ms) > 1 else align_ms * 9
    predicted = c["align.headers"]
    matched = c["align.exact"] + c["align.case_insensitive"] + c["align.fuzzy"]
    m = {
        "corpus.load_s": self_s["corpus.load"],
        "corpus.docs": c["corpus.docs"],
        "tokenizer.tokenize_s": self_s["tokenizer.tokenize"],
        "tokenizer.tokens": c["tokenizer.tokens"],
        "tokenizer.spans_to_iob_s": self_s["tokenizer.spans_to_iob"],
        "baselines.keyword_s": self_s["baselines.keyword"],
        "baselines.regex_s": self_s["baselines.regex"],
        "baselines.rule_merge_s": self_s["baselines.rule"],
        "baselines.lines": c["baselines.lines"],
        "baselines.headers": c["baselines.headers"],
        "llm.extract_corpus_s": incl_s["llm.extract_corpus"],
        "llm.extract_headers_s": incl_s["llm.extract_headers"],
        "llm.parallelism": _ratio(incl_s["llm.extract_headers"], incl_s["llm.extract_corpus"]),
        "llm.chunk_s": self_s["llm.chunk"],
        "llm.chunks": c["llm.chunks"],
        "llm.prompt_s": self_s["llm.prompt"],
        "llm.complete_s": self_s["llm.complete"],
        "llm.requests": c["llm.requests"],
        "llm.replay_misses": c["llm.replay_misses"],
        "llm.parse_s": self_s["llm.parse"],
        "align.s": self_s["align.align_headers"],
        "align.calls": c["align.calls"],
        "align.headers": predicted,
        "align.exact": c["align.exact"],
        "align.case_insensitive": c["align.case_insensitive"],
        "align.fuzzy": c["align.fuzzy"],
        "align.unmatched": c["align.unmatched"],
        "align.grounded_ratio": _ratio(matched, predicted),
        "align.call_p50_ms": q[4] if q else 0.0,
        "align.call_p90_ms": q[8] if q else 0.0,
        "textdist.s": sum(v for k, v in self_s.items() if k.startswith("textdist.")),
        "textdist.prefix_distances_s": self_s["textdist.prefix_distances"],
        "textdist.prefix_distances_calls": calls["textdist.prefix_distances"],
        "textdist.dp_cells": c["textdist.dp_cells"],
        "textdist.levenshtein_s": self_s["textdist.levenshtein"],
        "textdist.levenshtein_calls": calls["textdist.levenshtein"],
        "ontology.load_s": self_s["ontology.load"],
        "ontology.categorize_s": self_s["ontology.categorize"],
        "ontology.categorize_calls": c["ontology.categorize_calls"],
        "ontology.distinct_names": len(tracer.names),
        "ontology.fuzzy_comparisons": c["ontology.fuzzy_comparisons"],
        "ontology.unknown_ratio": _ratio(c["ontology.unknown"], c["ontology.categorize_calls"]),
        "metrics.evaluate_run_s": self_s["metrics.evaluate_run"],
        "metrics.token_counts_s": self_s["metrics.token_counts"],
        "metrics.exact_match_s": self_s["metrics.exact_match"],
        "metrics.render_s": self_s["metrics.render"],
        "cli.segment_self_s": self_s["cli.segment"],
        "cli.evaluate_self_s": self_s["cli.evaluate"],
        "cli.normalize_self_s": self_s["cli.normalize"],
        # stage throughput over inclusive (traced) time, comparable with the
        # re-anchor table in ROADMAP.md
        "stage.tokenize_mb_s": _ratio(c["tokenizer.chars"] / 1e6, incl_s["tokenizer.tokenize"]),
        "stage.keyword_mb_s": _ratio(c["baselines.keyword_chars"] / 1e6, incl_s["baselines.keyword"]),
        "stage.regex_mb_s": _ratio(c["baselines.regex_chars"] / 1e6, incl_s["baselines.regex"]),
        "stage.rule_mb_s": _ratio(c["baselines.rule_chars"] / 1e6, incl_s["baselines.rule"]),
        "stage.evaluate_run_mb_s": _ratio(c["metrics.evaluate_chars"] / 1e6, incl_s["metrics.evaluate_run"]),
        "stage.chunk_mb_s": _ratio(c["llm.chunk_chars"] / 1e6, incl_s["llm.chunk"]),
        "stage.categorize_calls_per_s": _ratio(c["ontology.categorize_calls"], incl_s["ontology.categorize"]),
    }
    return m
