"""Closed-loop runner of the ``sectionid`` CLI; runs in its own process.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json``. The spec lists the
workload's commands; one client runs them in order, each starting only after
the previous one returned, and repeats the cycle until the time budget is
spent. The first cycle warms imports and is not timed. In the untraced
timed cycles, and before each set-up sample, it times ``reference_work``
just before the command. With ``trace`` set,
traced and untraced cycles alternate, so both kinds see the same phases of
the machine. With ``setup_samples`` set, fresh interpreters that time the
CLI's set-up (``SETUP_CODE``) run between cycles, spread over the budget.
The result holds per-command wall times, exit codes, output digests, the
set-up and reference samples, the per-layer metrics of each traced cycle,
and this process's peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import resource
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics

MIN_CYCLES = 3
# Stop adding cycles after this long, whatever the budget and MIN_CYCLES say.
MAX_LOOP_S = 120.0

# The fixed cost of every command before it reads input: import the CLI, load
# the bundled ontology and build the default keyword lexicon.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sectionid.cli
from sectionid import baselines, ontology
ontology.load_ontology()
baselines.HeaderLexicon(entries=ontology.default_lexicon_entries())
print(time.perf_counter() - t0)
"""


# Fixed pure-Python work of the kinds the program does (an edit-distance
# table, lowercasing and splitting text, counting in a dict, a regex scan,
# JSON), about 2 ms long, timed just before each command. Its time says how
# fast the machine runs at that moment; ``run.py`` measures each command in
# units of it.
_REF_TEXT = (
    "Past Medical History: hypertension, type 2 diabetes. Medications: "
    "metformin 500 mg twice daily. Review of Systems: negative for fever. "
) * 12
_REF_WORDS = ("history of present illness", "histroy of presnet ilness")
_REF_PATTERN = re.compile(r"([A-Z][a-z]+(?: [A-Za-z]+)*):")


def reference_work() -> int:
    a, b = _REF_WORDS
    total = 0
    for _ in range(12):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        total += prev[-1]
    counts: dict[str, int] = {}
    for word in _REF_TEXT.lower().split():
        counts[word] = counts.get(word, 0) + 1
    headers = _REF_PATTERN.findall(_REF_TEXT)
    return total + len(json.loads(json.dumps([counts, headers])))


def time_reference() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_command(cli, cmd: dict, work: Path, tracer=None) -> dict:
    out_path = work / f"{cmd['name']}.stdout"
    err_path = work / f"{cmd['name']}.stderr"
    error = None
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                if tracer is None:
                    code = cli.main(cmd["argv"])
                else:
                    with tracer.span("cli." + cmd["name"]):
                        code = cli.main(cmd["argv"])
            except Exception:
                code, error = None, traceback.format_exc()
            elapsed = perf_counter() - t0
    out_dir = work / cmd["out_dir"]
    outputs = sorted(p for p in out_dir.iterdir() if p.is_file()) if out_dir.exists() else []
    outputs.append(out_path)
    return {
        "seconds": elapsed,
        "code": code,
        "error": error,
        "digests": {p.name: _digest(p) for p in outputs},
        "output_bytes": sum(p.stat().st_size for p in outputs),
        "stderr": err_path.read_text(encoding="utf-8"),
    }


def sample_setup(src: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    work = Path(spec["workdir"])
    src = str(Path(spec["root"]) / "src")
    sys.path.insert(0, src)
    # The CLI configures logging only when nothing else has; a handler bound
    # to a file that stays open keeps its warnings out of the redirected
    # streams of later commands.
    log_handler = logging.FileHandler(work / "cli.log", encoding="utf-8")
    logging.basicConfig(level=logging.WARNING, handlers=[log_handler])
    import sectionid.cli as cli

    budget = float(spec["seconds"])
    want_setup = int(spec["setup_samples"])
    setup_every = budget / want_setup if want_setup else 0.0
    cycles: list[dict] = []
    layers: list[dict] = []
    setup: list[float] = []
    setup_reference: list[float] = []
    start = None
    while True:
        traced = False
        if start is not None:
            elapsed = perf_counter() - start
            while len(setup) < want_setup and elapsed >= len(setup) * setup_every:
                setup_reference.append(time_reference())
                setup.append(sample_setup(src))
                elapsed = perf_counter() - start
            timed = [c for c in cycles if not c["warmup"]]
            done = (
                elapsed >= budget
                and len(setup) >= want_setup
                and sum(1 for c in timed if not c["traced"]) >= MIN_CYCLES
                and (layers or not spec["trace"])
            )
            if done or elapsed > MAX_LOOP_S:
                break
            # Untraced first, then alternate: the cycle kinds interleave.
            traced = spec["trace"] and len(timed) % 2 == 1
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        reference = []
        commands = []
        try:
            for cmd in spec["commands"]:
                if start is not None and not traced:
                    reference.append(time_reference())
                commands.append(run_command(cli, cmd, work, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        cycles.append({"warmup": start is None, "traced": traced, "commands": commands, "reference": reference})
        if tracer is not None:
            layers.append(layer_metrics(tracer))
            if tracer.missing:
                print(f"trace: not found: {', '.join(tracer.missing)}", file=sys.stderr)
            _write_spans(tracer, Path(spec["trace_out"]))
        if start is None:
            start = perf_counter()
    log_handler.close()
    result = {
        "cycles": cycles,
        "layers": layers,
        "setup": setup,
        "setup_reference": setup_reference,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _write_spans(tracer, path: Path) -> None:
    """Keep the last traced cycle's spans on disk for inspection."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, t0, t1 in tracer.spans:
            fh.write(json.dumps([sid, parent, name, round(t0, 7), round(t1, 7)]) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
