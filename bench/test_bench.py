"""Self-tests of the benchmark: seeded inputs, tracer arithmetic, checks.

Run with ``python3 -m pytest bench`` or ``python3 -m unittest discover bench``.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times, union_length  # noqa: E402


def _input_files(workload: str, seed: int) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run.prepare(workload, seed, work)
        return {
            str(p.relative_to(work)): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file()
        }


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = _input_files(workload, 7)
                self.assertTrue(first)
                self.assertEqual(first, _input_files(workload, 7))
                self.assertNotEqual(first, _input_files(workload, 8))

    def test_shards_split_the_corpus_in_order(self):
        for workload in ("rules_grounded", "llm_replay_chunked"):
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                inputs = run.prepare(workload, 5, Path(tmp))
                commands = inputs["commands"]
                self.assertEqual([c["name"] for c in commands], ["segment", "evaluate"] * (len(commands) // 2))
                ids = []
                for seg, ev in zip(commands[::2], commands[1::2]):
                    corpus = seg["argv"][seg["argv"].index("--corpus") + 1]
                    self.assertEqual(ev["argv"][ev["argv"].index("--corpus") + 1], corpus)
                    predictions = ev["argv"][ev["argv"].index("--predictions") + 1]
                    self.assertEqual(Path(predictions).parent.name, seg["out_dir"])
                    shard = [d["id"] for d in run.read_jsonl(Path(corpus))]
                    self.assertEqual(seg["items"], len(shard))
                    self.assertEqual(seg["expect"], 2 if set(shard) & set(inputs["missing"]) else 0)
                    ids += shard
                self.assertEqual(ids, [d["id"] for d in inputs["docs"]])

    def test_names_files_split_the_names_in_order(self):
        with tempfile.TemporaryDirectory() as tmp:
            inputs = run.prepare("normalize_names", 5, Path(tmp))
            lines = []
            for cmd in inputs["commands"]:
                path = Path(cmd["argv"][cmd["argv"].index("--names") + 1])
                lines += path.read_text(encoding="utf-8").split("\n")[:-1]
            names = [n["name"] for n in inputs["names"]]
            self.assertEqual(lines, names)
            self.assertEqual(len(set(names)), len(names))
            kinds = [n["kind"] for n in inputs["names"]]
            self.assertEqual(kinds.count("surface"), len(kinds) // 5)

    def test_llm_shape_follows_schedule(self):
        import random

        docs, planted = gen.make_llm_corpus(random.Random(3), run.LLM_SCHEDULE)
        self.assertEqual([len(d["sections"]) for d in docs], [n for n, _ in run.LLM_SCHEDULE])
        kinds = [a["kind"] for doc in docs for a in planted[doc["id"]]]
        self.assertAlmostEqual(kinds.count("verbatim") / len(kinds), 0.6, delta=0.01)
        self.assertAlmostEqual(kinds.count("paraphrase") / len(kinds), 0.1, delta=0.01)
        for doc in docs:
            text = doc["text"]
            cuts = [0] + [x for s in doc["sections"] for x in s["header_span"]] + [len(text)]
            body = "".join(text[a:b] for a, b in zip(cuts[::2], cuts[1::2]))
            self.assertFalse(set(body) - set(gen.LLM_BODY_CHARS + " :\n"))
            for sec in doc["sections"]:
                self.assertEqual(text.lower().count(sec["raw_header"].lower()), 1)

    def test_llm_vocabulary_is_unconfusable(self):
        """No model form of one surface grounds on another surface's header
        line, and no paraphrase grounds at all, by the program's own aligner.
        Bodies share no letter with the surfaces, so only header lines count."""
        import random

        from sectionid.align import align_headers
        from sectionid.corpus import Document
        from sectionid.prediction import Prediction

        letters = {c for name in gen.LLM_VOCAB for c in name.lower() if c.isalpha()}
        self.assertFalse(letters & set(gen.LLM_BODY_CHARS))
        # Only the typo forms depend on the seed.
        answers = {a: {"verbatim": a, **gen.surface_forms(random.Random(0), (a,))[a]} for a in gen.LLM_VOCAB}
        for seed in (1, 2):
            for a, forms in gen.surface_forms(random.Random(seed), gen.LLM_VOCAB).items():
                answers[a][f"typo{seed}"] = forms["typo"]
        for b in gen.LLM_VOCAB:
            doc = Document("d", f"{b}:\n")
            for a, forms in answers.items():
                for kind, answer in forms.items():
                    if a == b and kind != "paraphrase":
                        continue
                    got = align_headers(doc, Prediction([answer]))
                    self.assertEqual(got.matches, [], f"{kind} {answer!r} grounds on {b!r}")


class SelfTime(unittest.TestCase):
    def test_union_length_merges_overlaps_and_clips(self):
        self.assertEqual(union_length([(1, 3), (2, 5), (6, 7), (9, 12)], 0, 10), 6)
        self.assertEqual(union_length([], 0, 10), 0)

    def test_self_time_subtracts_covered_part_once(self):
        spans = [
            (1, None, "root", 0.0, 10.0),
            (2, 1, "a", 1.0, 3.0),
            (3, 1, "b", 2.0, 5.0),   # overlaps a, as a second thread would
            (4, 3, "c", 2.5, 3.5),
            (5, 1, "d", 6.0, 7.0),
        ]
        own = self_times(spans)
        self.assertEqual(own, {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0})

    def test_tracer_nesting_parents_and_threads(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(inner(x)))
        seen = []
        with tracer.span("root"):
            self.assertEqual(outer(1), 3)
            worker = threading.Thread(target=lambda: seen.append(inner(5)))
            worker.start()
            worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        self.assertEqual(seen, [6])
        by_name: dict[str, list] = {}
        for span in tracer.spans:
            by_name.setdefault(span[2], []).append(span)
        root_id = by_name["root"][0][0]
        outer_id = by_name["outer"][0][0]
        self.assertEqual(by_name["outer"][0][1], root_id)
        self.assertEqual(sorted(s[1] for s in by_name["inner"]), sorted([outer_id, outer_id, root_id]))
        own = self_times(tracer.spans)
        root = by_name["root"][0]
        self.assertAlmostEqual(sum(own.values()), root[4] - root[3], places=9)


class Checks(unittest.TestCase):
    def test_report_check_catches_inconsistent_scores(self):
        counts = {
            "tp": 3, "fp": 1, "fn": 1, "gold_tokens": 4, "pred_tokens": 4, "gold_headers": 2,
            "matched_exact": 1, "role_correct": 3, "total_tokens": 10, "equal_tokens": 8,
        }
        doc = {"doc_id": "d", "counts": counts, "precision": 0.75, "recall": 0.75,
               "f1": 0.75, "accuracy": 0.75, "em": 0.5}
        report = {"counts": dict(counts), "per_doc": [doc],
                  "scores": {"precision": 0.75, "recall": 0.75, "f1": 0.75, "accuracy": 0.75, "em": 0.5}}
        self.assertEqual(run.check_report(json.loads(json.dumps(report)), 1), [])
        report["scores"]["f1"] = 0.8
        self.assertTrue(run.check_report(report, 1))

    def test_reported_failures_parse_segment_stderr(self):
        stderr = "warning: x\n2 document(s) failed: m011, m003\n"
        self.assertEqual(run.reported_failures(stderr), ["m003", "m011"])
        self.assertEqual(run.reported_failures("warning: x\n"), [])

    def test_normalize_check_catches_wrong_category(self):
        surface, category = gen.taxonomy_rows()[0]
        names = [{"name": surface, "category": category}, {"name": "Xq", "category": None}]
        commands = [{"out_dir": "norm-00"}]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "norm-00"
            out.mkdir()
            (out / "names.tsv").write_text(f"{surface}\t{category}\nXq\tUNKNOWN\n", encoding="utf-8")
            self.assertEqual(run.check_normalized(names, commands, Path(tmp)), [])
            (out / "names.tsv").write_text(f"{surface}\tUNKNOWN\nXq\tUNKNOWN\n", encoding="utf-8")
            self.assertTrue(run.check_normalized(names, commands, Path(tmp)))

    def test_normalized_sum_is_median_ratio_to_reference(self):
        inputs = {"commands": [{"name": "segment"}, {"name": "evaluate"}]}
        cycles = [
            {"commands": [{"seconds": 0.2}, {"seconds": 0.1}], "reference": [0.002, 0.001]},
            {"commands": [{"seconds": 0.6}, {"seconds": 0.3}], "reference": [0.002, 0.003]},
            {"commands": [{"seconds": 0.5}, {"seconds": 0.2}], "reference": [0.005, 0.002]},
        ]
        # segment ratios 100, 300, 100; evaluate ratios 100, 100, 100
        self.assertAlmostEqual(run.normalized_sum(inputs, cycles, "segment"), 100 * run.REFERENCE_S)
        self.assertAlmostEqual(run.normalized_sum(inputs, cycles), 200 * run.REFERENCE_S)

    def test_prediction_check_catches_bad_spans(self):
        docs = [{"id": "d", "text": "Plan: rest\n"}]
        good = [{"id": "d", "headers": ["Plan"], "spans": [[0, 4]], "categories": ["x"]}]
        self.assertEqual(run.check_predictions(docs, good), [])
        for spans in ([[0, 3]], [[0, 40]]):
            bad = [dict(good[0], spans=spans)]
            self.assertTrue(run.check_predictions(docs, bad))


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(n, run.unit_of(n)) for n in run.per_layer_names()],
        )


if __name__ == "__main__":
    unittest.main()
