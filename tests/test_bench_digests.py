"""One benchmark cycle per workload, byte for byte against a manifest.

For each workload of ``bench/run.py`` at seed 1, ``prepare`` writes the
inputs into a relative work directory and every command of one cycle runs
through ``cli.main``. ``fixtures/bench_digests.json`` holds, per workload, a
digest of the generated inputs and, per command, its exit code, the sha256
of its stdout, its stderr and the sha256 of every file in its output
directory, ``run_config.json`` included. A change to ``bench/gen.py`` shows
as an ``inputs`` entry; a change to the program's output as the entries of
the commands that wrote it. The test runs each workload's cycle twice in one
process, so the second one reuses what the first one cached.

Run as a script to compare the manifest with a fresh cycle and print each
entry that changed; ``--write`` also rewrites the manifest:

    python tests/test_bench_digests.py --write
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "fixtures" / "bench_digests.json"
SEED = 1


@functools.cache
def _bench_run():
    """``bench/run.py`` as a module, leaving ``sys.path`` as it was."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


WORKLOADS = _bench_run().WORKLOADS


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: its relative path and content digest."""
    lines = [
        f"{path.relative_to(root).as_posix()} {_sha256(path.read_bytes())}\n"
        for path in sorted(root.rglob("*")) if path.is_file()
    ]
    return _sha256("".join(lines).encode("utf-8"))


def workload_digests(workload: str) -> dict[str, object]:
    """Generate ``workload``'s inputs under ``work`` in the current directory,
    run one cycle of its commands and return every manifest entry."""
    from sectionid import cli

    work = Path("work")
    work.mkdir()
    inputs = _bench_run().prepare(workload, SEED, work)
    entries: dict[str, object] = {"inputs": _tree_digest(work)}
    for cmd in inputs["commands"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd["argv"]))
        name = cmd["out_dir"]
        entries[f"{name} exit"] = code
        entries[f"{name} stdout"] = _sha256(out.getvalue().encode("utf-8"))
        entries[f"{name} stderr"] = err.getvalue()
        for path in sorted((work / name).iterdir()):
            entries[f"{name}/{path.name}"] = _sha256(path.read_bytes())
    return entries


def changed_entries(old: dict, new: dict) -> list[str]:
    """One line per entry whose value differs, or that only one side has."""
    return [
        f"{key}: {old.get(key, '(absent)')!r} -> {new.get(key, '(absent)')!r}"
        for key in sorted(old.keys() | new.keys()) if old.get(key, ...) != new.get(key, ...)
    ]


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_cycle_matches_the_digest_manifest(tmp_path, monkeypatch, workload):
    # a cold cycle builds the bundled taxonomy and default lexicon, and a
    # warm one reuses them as a run's later commands do
    from sectionid import cli

    cli._bundled_ontology.cache_clear()
    cli._default_lexicon.cache_clear()
    for cycle in ("cold", "warm"):
        (tmp_path / cycle).mkdir()
        monkeypatch.chdir(tmp_path / cycle)
        assert changed_entries(_manifest()[workload], workload_digests(workload)) == []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare one bench cycle per workload with the manifest.")
    parser.add_argument("--write", action="store_true", help="rewrite the manifest")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    old = _manifest() if MANIFEST.exists() else {}
    new = {}
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            (Path(tmp) / workload).mkdir()
            os.chdir(Path(tmp) / workload)
            try:
                new[workload] = workload_digests(workload)
            finally:
                os.chdir(home)
    changes = [
        f"{workload}/{line}"
        for workload in WORKLOADS for line in changed_entries(old.get(workload, {}), new[workload])
    ]
    print("\n".join(changes) if changes else "no entry changed")
    if args.write:
        MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if args.write or not changes else 1


if __name__ == "__main__":
    sys.exit(main())
