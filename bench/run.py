"""sectionid benchmark: closed-loop CLI runs on seeded synthetic inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any directory; paths resolve from this
file). The program is imported from ``src/`` of the same checkout. One run:

1. generates the workload's inputs from ``--seed`` under ``.bench_work/``,
   its corpus split in order into shards of a few notes;
2. starts ``worker.py``, which repeats the workload's cycle of CLI commands
   (per shard, ``segment`` and then ``evaluate``), one at a time, for
   ``--seconds``, and times a fixed reference work just before each command
   of an untraced cycle. Untraced runs also time ``SETUP_SAMPLES`` fresh
   interpreters that import the CLI, load the bundled ontology and build
   the default lexicon, spread between the cycles; traced runs alternate
   traced and untraced cycles;
3. checks every output, then prints a summary and, as its last stdout line,
   the JSON result: end-to-end metrics with ``--trace 0``, per-layer metrics
   with ``--trace 1``.

``attempted`` and ``failed`` count CLI commands; a command fails when it
raises or exits with another code than the workload expects. Documents the
replay store deliberately lacks are expected failures of the program's own
partial-exit path; ``ok_doc_ratio`` counts the failures ``segment`` reports.
Exit code: 0 when every check passed, 1 when a check failed, 2 when the
program cannot be found or run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402

WORKLOADS = ("rules_grounded", "llm_replay_chunked", "normalize_names")

# Sizes: each cycle stays measurable after a 30x speed-up of its hot layer.
# Each corpus is split in order into small corpora (shards) of a few notes,
# and every shard gets its own ``segment`` and ``evaluate``. A command then
# takes 20-170 ms, and its fastest time over the run is far more likely to
# fall in one of a shared machine's quiet moments than that of a command over
# the whole corpus; the fixed cost each command pays is about 3 ms.
RULES_DOCS = 100
RULES_SECTIONS = 30
RULES_SHARDS = [5] * 20
# (sections, body lines per section) per note: one very long note (~13k
# characters), two of ~8k and 61 short ones of ~1.7k, all above the context
# budget. An unplaceable header costs a scan of the rest of its note, so the
# long notes carry most of the alignment work per note; the short notes draw
# on twelve common names, which repeat in ``categorize``.
LLM_SCHEDULE = [(30, 7)] + [(20, 6)] * 2 + [(8, 3)] * 61
# The long notes alone, the short ones four at a time.
LLM_SHARDS = [1, 1, 1] + [4] * 15 + [1]
# Notes whose replay records are withheld: one in eight, all of them short,
# so the share and the work skipped are the same for every seed.
LLM_MISSING_SLOTS = tuple(range(3, len(LLM_SCHEDULE), 8))
LLM_CONFIG = {"llm": {"max_context_chars": 1500}}
LLM_WORKERS = 2
# Names for ``normalize``, 24 to a file; three in five take the fuzzy path.
NAMES = 480
NAME_SHARDS = [24] * 20
# Set-up is timed in this many fresh interpreters per untraced run.
SETUP_SAMPLES = 20
# Time of ``worker.reference_work`` on the 2-core development VM (Python
# 3.11) in a quiet stretch. End-to-end times are measured in units of the
# reference and given in seconds of a machine that runs it in this time;
# see ``normalized_sum``.
REFERENCE_S = 0.0021
WORKER_TIMEOUT_S = 170

COMMANDS = ("segment", "evaluate", "normalize")

END_TO_END = {
    "setup_s": "s",
    "cycle_s": "s",
    "throughput_mb_s": "MB/s",
    "peak_rss_mb": "MB",
    "ok_doc_ratio": "ratio",
}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    from tracer import Tracer, layer_metrics

    names = list(layer_metrics(Tracer()))
    return names + [
        *(f"cli.{name}_s" for name in COMMANDS),
        "cli.output_bytes", "cli.failed_doc_ratio", "trace.overhead_ratio",
    ]


def unit_of(name: str) -> str:
    if name.endswith("_mb_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", ".parallelism")):
        return "ratio"
    return "count"


# -- inputs ------------------------------------------------------------------

def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs; return its commands and what checks need."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "rules_grounded":
        docs = gen.make_rules_corpus(rng, RULES_DOCS, RULES_SECTIONS)
        return {
            "docs": docs,
            "input_bytes": _input_bytes(docs),
            "commands": _shard_commands(
                work, docs, RULES_SHARDS, set(),
                ["--segmenter", "rules"], ["--segmenter", "rules"]),
            "missing": [],
        }
    if workload == "llm_replay_chunked":
        docs, planted = gen.make_llm_corpus(rng, LLM_SCHEDULE)
        missing = sorted(docs[i]["id"] for i in LLM_MISSING_SLOTS)
        config = work / "config.json"
        config.write_text(json.dumps(LLM_CONFIG), encoding="utf-8")
        store = work / "replay"
        gen.write_replay_store(docs, planted, store, LLM_CONFIG["llm"], LLM_WORKERS, set(missing))
        common = ["--config", str(config), "--segmenter", "llm"]
        return {
            "docs": docs,
            "planted": planted,
            "input_bytes": _input_bytes(docs),
            "commands": _shard_commands(
                work, docs, LLM_SHARDS, set(missing),
                common + ["--replay", str(store), "--workers", str(LLM_WORKERS)], common),
            "missing": missing,
        }
    if workload == "normalize_names":
        names = gen.make_names(rng, NAMES)
        commands = []
        for i, shard in enumerate(_split(names, NAME_SHARDS)):
            path = work / f"names-{i:02d}.txt"
            path.write_text("".join(n["name"] + "\n" for n in shard), encoding="utf-8")
            out = f"norm-{i:02d}"
            (work / out).mkdir()
            commands.append(_command("normalize", 0, out, len(shard), [
                "normalize", "--names", str(path), "--out", str(work / out / "names.tsv")]))
        return {
            "docs": [],
            "names": names,
            "input_bytes": sum(len(n["name"].encode("utf-8")) + 1 for n in names),
            "commands": commands,
            "missing": [],
        }
    raise ValueError(f"unknown workload {workload!r}")


def _input_bytes(docs: list[dict]) -> int:
    return sum(len(d["text"].encode("utf-8")) for d in docs)


def _split(items: list, sizes: list[int]) -> list[list]:
    """``items`` cut in order into consecutive runs of ``sizes``."""
    assert sum(sizes) == len(items), (sum(sizes), len(items))
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    return [items[a:a + n] for a, n in zip(starts, sizes)]


def _shard_commands(
    work: Path, docs: list[dict], sizes: list[int], missing: set[str],
    segment_args: list[str], evaluate_args: list[str],
) -> list[dict]:
    """Split ``docs`` in order into corpora of ``sizes`` notes; per corpus,
    ``segment`` and then ``evaluate`` on the predictions it just wrote.

    ``segment`` exits 2 (partial) on a corpus holding a note without replay
    records, 0 otherwise; ``evaluate`` always exits 0.
    """
    commands = []
    for i, shard in enumerate(_split(docs, sizes)):
        corpus = work / f"corpus-{i:02d}.jsonl"
        gen.write_jsonl(corpus, shard)
        seg, ev = f"seg-{i:02d}", f"eval-{i:02d}"
        partial = any(d["id"] in missing for d in shard)
        commands.append(_command("segment", 2 if partial else 0, seg, len(shard), [
            "segment", "--corpus", str(corpus), *segment_args, "--out", str(work / seg)]))
        commands.append(_command("evaluate", 0, ev, len(shard), [
            "evaluate", "--corpus", str(corpus), *evaluate_args,
            "--predictions", str(work / seg / "predictions.jsonl"), "--out", str(work / ev)]))
    return commands


def _command(name: str, expect: int, out_dir: str, items: int, argv: list[str]) -> dict:
    return {"name": name, "expect": expect, "out_dir": out_dir, "items": items, "argv": argv}


# -- correctness -------------------------------------------------------------

def check_run(inputs: dict, cycles: list[dict], work: Path) -> tuple[int, list[str]]:
    """Exit codes, determinism, and the workload's output invariants."""
    problems: list[str] = []
    failed = 0
    first = cycles[0]["commands"]
    for cycle in cycles:
        for spec, ref, got in zip(inputs["commands"], first, cycle["commands"]):
            if got["error"] or got["code"] != spec["expect"]:
                failed += 1
                problems.append(
                    f"{spec['name']} exited {got['code']}, expected {spec['expect']}: "
                    f"{(got['error'] or got['stderr']).strip()[-400:]}")
            if got["digests"] != ref["digests"] or got["stderr"] != ref["stderr"]:
                kind = "traced" if cycle["traced"] else "untraced"
                problems.append(f"{spec['name']} outputs differ between cycles ({kind} cycle)")
    if failed:
        return failed, problems
    if "names" in inputs:
        return failed, problems + check_normalized(inputs["names"], inputs["commands"], work)
    predictions = []
    for spec in inputs["commands"]:
        out = work / spec["out_dir"]
        if spec["name"] == "segment":
            predictions += read_jsonl(out / "predictions.jsonl")
        else:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            problems += check_report(report, spec["items"])
    problems += check_predictions(inputs["docs"], predictions)
    reported = segment_failures(inputs, cycles[0])
    if "planted" in inputs:
        problems += check_planted(inputs, predictions)
        if reported != inputs["missing"]:
            problems.append(f"segment reported failed documents {reported}, planted misses are {inputs['missing']}")
    elif reported:
        problems.append("segment reported failed documents on a workload without planted misses")
    return failed, problems


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_predictions(docs: list[dict], predictions: list[dict]) -> list[str]:
    """Spans in bounds; grounded and exact spans slice to their header."""
    problems = []
    texts = {d["id"]: d["text"] for d in docs}
    if [p["id"] for p in predictions] != list(texts):
        return ["predictions.jsonl does not list the corpus documents in order"]
    for pred in predictions:
        text, headers = texts[pred["id"]], pred["headers"]
        if len(pred["categories"]) != len(headers):
            problems.append(f"{pred['id']}: {len(pred['categories'])} categories for {len(headers)} headers")
        if pred["spans"] is not None:
            grounding = [{"header_index": i, "span": s, "kind": "exact"} for i, s in enumerate(pred["spans"])]
            if len(pred["spans"]) != len(headers):
                problems.append(f"{pred['id']}: {len(pred['spans'])} spans for {len(headers)} headers")
        else:
            grounding = pred["grounding"]
            placed = sorted([g["header_index"] for g in grounding] + pred["unmatched"])
            if placed != list(range(len(headers))):
                problems.append(f"{pred['id']}: grounding and unmatched do not partition the headers")
        for g in grounding:
            start, end = g["span"]
            header = headers[g["header_index"]].strip()
            if not 0 <= start < end <= len(text):
                problems.append(f"{pred['id']}: span {g['span']} outside text of length {len(text)}")
            elif g["kind"] == "exact" and text[start:end] != header:
                problems.append(f"{pred['id']}: exact span {g['span']} is {text[start:end]!r}, not {header!r}")
            elif g["kind"] == "case_insensitive" and text[start:end].lower() != header.lower():
                problems.append(f"{pred['id']}: span {g['span']} does not case-fold to {header!r}")
    return problems


def _rates(c: dict) -> dict[str, float]:
    p = c["tp"] / c["pred_tokens"] if c["pred_tokens"] else 1.0
    r = c["tp"] / c["gold_tokens"] if c["gold_tokens"] else 1.0
    return {
        "precision": p,
        "recall": r,
        "f1": 2 * p * r / (p + r) if p + r > 0 else 0.0,
        "accuracy": c["role_correct"] / c["gold_tokens"] if c["gold_tokens"] else 1.0,
    }


def check_report(report: dict, n_docs: int) -> list[str]:
    """Every score recomputes from the counts reported next to it."""
    problems = []
    scored = [(report["counts"], report["scores"], "corpus")]
    scored += [(d["counts"], d, d["doc_id"]) for d in report["per_doc"]]
    for counts, scores, where in scored:
        for key, value in _rates(counts).items():
            if not math.isclose(scores[key], value, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"report {where}: {key} {scores[key]} != {value} from counts")
    for d in report["per_doc"]:
        c = d["counts"]
        em = c["matched_exact"] / c["gold_headers"] if c["gold_headers"] else 1.0
        if not math.isclose(d["em"], em, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"report {d['doc_id']}: em {d['em']} != {em} from counts")
    total = {k: sum(d["counts"][k] for d in report["per_doc"]) for k in report["counts"]}
    if total != report["counts"]:
        problems.append("report: corpus counts are not the sum of per-document counts")
    if len(report["per_doc"]) != n_docs:
        problems.append(f"report scores {len(report['per_doc'])} documents, corpus has {n_docs}")
    em = statistics.fmean(d["em"] for d in report["per_doc"]) if report["per_doc"] else 1.0
    if not math.isclose(report["scores"]["em"], em, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"report: em {report['scores']['em']} is not the mean of per-document em")
    return problems


def check_planted(inputs: dict, predictions: list[dict]) -> list[str]:
    """Each planted verbatim header grounds ``exact`` at its planted span."""
    problems = []
    missing = set(inputs["missing"])
    for pred in predictions:
        if pred["id"] in missing:
            if pred["headers"]:
                problems.append(f"{pred['id']}: has headers although its replay records are missing")
            continue
        exact = {
            (pred["headers"][g["header_index"]], tuple(g["span"]))
            for g in pred["grounding"] if g["kind"] == "exact"
        }
        for answer in inputs["planted"][pred["id"]]:
            if answer["kind"] == "verbatim" and (answer["answer"], tuple(answer["span"])) not in exact:
                problems.append(f"{pred['id']}: verbatim {answer['answer']!r} not exact at {answer['span']}")
    return problems


def check_normalized(names: list[dict], commands: list[dict], work: Path) -> list[str]:
    """One TSV line per name, in order; taxonomy surfaces map to their category."""
    problems = []
    known = {category for _, category in gen.taxonomy_rows()} | {"UNKNOWN"}
    lines = []
    for spec in commands:
        lines += (work / spec["out_dir"] / "names.tsv").read_text(encoding="utf-8").splitlines()
    if len(lines) != len(names):
        return [f"normalize wrote {len(lines)} lines for {len(names)} names"]
    for line, expected in zip(lines, names):
        name, _, category = line.rpartition("\t")
        if name != expected["name"]:
            problems.append(f"normalize line {line!r} is not for {expected['name']!r}")
        elif category not in known:
            problems.append(f"normalize maps {name!r} to {category!r}, not a taxonomy category")
        elif expected["category"] is not None and category != expected["category"]:
            problems.append(f"surface {name!r} maps to {category!r}, not {expected['category']!r}")
    return problems


def reported_failures(stderr: str) -> list[str]:
    """Document ids that ``segment`` lists as failed on its stderr."""
    line = next((ln for ln in stderr.splitlines() if "document(s) failed:" in ln), "")
    return sorted(x.strip() for x in line.split(":", 1)[1].split(",")) if line else []


def segment_failures(inputs: dict, cycle: dict) -> list[str]:
    """Document ids that the ``segment`` commands of one cycle report failed."""
    return sorted(
        doc_id
        for spec, got in zip(inputs["commands"], cycle["commands"]) if spec["name"] == "segment"
        for doc_id in reported_failures(got["stderr"])
    )


# -- metrics -----------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(name: str, values: list[float]) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q2 = q3 = values[0]
    return (f"{name}: fastest {min(values):.4f} s, median {q2:.4f} s, "
            f"quartiles {q1:.4f}-{q3:.4f} s, n={len(values)}")


def failed_doc_ratio(inputs: dict, result: dict) -> float:
    """Documents ``segment`` reported failed over documents in the corpus
    (0 on a workload without a corpus)."""
    if not inputs["docs"]:
        return 0.0
    return len(segment_failures(inputs, result["cycles"][0])) / len(inputs["docs"])


def reference_units(times: list[float], reference: list[float]) -> float:
    """Median of each time over the reference time measured just before it."""
    return statistics.median(t / r for t, r in zip(times, reference))


def normalized_sum(inputs: dict, cycles: list[dict], name: str | None = None) -> float:
    """``REFERENCE_S`` times the sum over the commands (those called
    ``name``, or all) of each one's median time in reference units.

    Other tenants of a shared machine slow it in phases, by up to 2x for
    seconds to an hour, in CPU time as much as in wall time, so a command's
    wall time moves with the phase. Its time over that of the reference
    work, timed just before it in the same phase, moves far less. Medians
    over the cycles take out what is left of the short bursts.
    """
    return REFERENCE_S * sum(
        reference_units([c["commands"][i]["seconds"] for c in cycles], [c["reference"][i] for c in cycles])
        for i, cmd in enumerate(inputs["commands"]) if name in (None, cmd["name"])
    )


def end_to_end(inputs: dict, result: dict) -> dict[str, float]:
    timed = [c for c in result["cycles"] if not c["warmup"]]
    cycle_s = normalized_sum(inputs, timed)
    return {
        "setup_s": REFERENCE_S * reference_units(result["setup"], result["setup_reference"]),
        "cycle_s": cycle_s,
        "throughput_mb_s": inputs["input_bytes"] / 1e6 / cycle_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "ok_doc_ratio": 1.0 - failed_doc_ratio(inputs, result),
    }


def per_layer(inputs: dict, result: dict) -> dict[str, float]:
    untraced = [c for c in result["cycles"] if not c["warmup"] and not c["traced"]]
    traced = [c for c in result["cycles"] if c["traced"]]
    layers = result["layers"]
    metrics = {k: _median(layer[k] for layer in layers) for k in layers[0]}
    for name in COMMANDS:
        metrics[f"cli.{name}_s"] = normalized_sum(inputs, untraced, name)
    metrics["cli.output_bytes"] = sum(cmd["output_bytes"] for cmd in untraced[0]["commands"])
    metrics["cli.failed_doc_ratio"] = failed_doc_ratio(inputs, result)

    def wall(c):
        return sum(cmd["seconds"] for cmd in c["commands"])

    # Traced and untraced cycles alternate, so both medians span the same
    # stretch of the run.
    metrics["trace.overhead_ratio"] = _median(map(wall, traced)) / _median(map(wall, untraced))
    return metrics


# -- entry point -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sectionid" / "cli.py").is_file():
        print(f"error: no sectionid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = prepare(args.workload, args.seed, work)
        spec = {
            "root": str(ROOT),
            "workdir": str(work),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "setup_samples": 0 if args.trace else SETUP_SAMPLES,
            "commands": inputs["commands"],
            "trace_out": str(ROOT / ".bench_work" / f"spans-{args.workload}.jsonl"),
        }
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json"), str(work / "result.json")],
            env=env, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        failed, problems = check_run(inputs, result["cycles"], work)
        attempted = sum(len(c["commands"]) for c in result["cycles"])
        if failed:
            metrics = {}
        elif args.trace:
            metrics = per_layer(inputs, result)
        else:
            metrics = end_to_end(inputs, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [c for c in result["cycles"] if not c["warmup"] and not c["traced"]]
    print(f"workload {args.workload}, seed {args.seed}, input {inputs['input_bytes'] / 1e6:.3f} MB")
    for name in COMMANDS:
        idx = [i for i, cmd in enumerate(inputs["commands"]) if cmd["name"] == name]
        if not idx:
            continue
        print(summarize(f"{name} x{len(idx)}", [sum(c["commands"][i]["seconds"] for i in idx) for c in timed])
              + f"; normalized {normalized_sum(inputs, timed, name):.4f} s")
    print(summarize("cycle", [sum(cmd["seconds"] for cmd in c["commands"]) for c in timed])
          + f"; normalized {normalized_sum(inputs, timed):.4f} s")
    print(summarize("reference", [r for c in timed for r in c["reference"]]))
    if result["setup"]:
        print(summarize("setup", result["setup"]))
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    units = END_TO_END if not args.trace else {n: unit_of(n) for n in metrics}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
