"""The package runs on the standard library alone, and exports what it names.

Every absolute import under ``src/sectionid`` must name a stdlib module or
the package itself, no module of ``sectionid.llm`` may import the grounding
module ``sectionid.align``, ``pyproject.toml`` must declare no runtime
dependency, and importing the CLI must not load the HTTP stack, which only
a live endpoint call needs. Importing the CLI loads only the package layers
every command shares, and each command adds only the layers it runs. No
module imports ``dataclasses``, whose import, with the ``inspect`` it loads,
would cost every command a third of its start-up, and no record writes its
own ``__init__``, which ``Record`` writes from its fields. A replay run must not load
the thread pool either,
which only a live endpoint with several documents uses. Every name in a
package's ``__all__`` must resolve, so a deleted function leaves no stale
export behind. Every module must parse as the oldest Python that
``pyproject.toml`` declares. Every bundled data file the package names is in
its ``data`` directory, and ``pyproject.toml`` installs every file there.
"""

from __future__ import annotations

import ast
import fnmatch
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of every import in ``path``, a relative one resolved
    against the file's package. ``from m import n`` also yields ``m.n``,
    since ``n`` may be a module."""
    package = path.relative_to(SRC).parent.parts
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else ()
            module = ".".join([*base, *filter(None, [node.module])])
            found.append((node.lineno, module))
            found += [(node.lineno, f"{module}.{alias.name}") for alias in node.names]
    return found


def test_package_imports_only_stdlib_and_itself():
    modules = sorted((SRC / "sectionid").rglob("*.py"))
    assert modules
    foreign = [
        f"{path.relative_to(SRC)}:{lineno}: {name}"
        for path in modules
        for lineno, name in _imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"sectionid"}
    ]
    assert foreign == []


def test_llm_layer_does_not_import_grounding():
    # chunking finds its own seams; grounding is the layer after extraction
    modules = sorted((SRC / "sectionid" / "llm").rglob("*.py"))
    assert modules
    grounding = [
        f"{path.relative_to(SRC)}:{lineno}: {name}"
        for path in modules
        for lineno, name in _imports(path)
        if name == "sectionid.align" or name.startswith("sectionid.align.")
    ]
    assert grounding == []


def test_package_does_not_import_dataclasses():
    # records are plain classes on ``corpus.Record``
    modules = sorted((SRC / "sectionid").rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{lineno}: {name}"
        for path in modules
        for lineno, name in _imports(path)
        if name == "dataclasses" or name.startswith("dataclasses.")
    ]
    assert found == []


def test_no_record_writes_its_own_constructor():
    # ``Record`` writes each record's ``__init__`` from ``_fields``,
    # ``_defaults`` and ``_post_init``; a hand-written one would name every
    # field again and drift from them
    bases: dict[str, set[str]] = {}
    inits = []
    for path in sorted((SRC / "sectionid").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {base.id for base in node.bases if isinstance(base, ast.Name)}
                if any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in node.body):
                    inits.append((node.name, f"{path.relative_to(SRC)}:{node.lineno}"))
    records = {"Record"}
    while grown := {name for name, of in bases.items() if of & records} - records:
        records |= grown
    assert len(records) > 20
    assert [where for name, where in inits if name in records] == []


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_bundled_data_ships():
    # ``ontology.data_path`` reads beside the package, so each file it is
    # given must be there, and be installed there
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["sectionid"]
    named = {
        node.args[0].value
        for path in sorted((SRC / "sectionid").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "data_path"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }
    shipped = {path.name for path in (SRC / "sectionid" / "data").iterdir()}
    assert named and named <= shipped
    assert [
        name for name in sorted(shipped)
        if not any(fnmatch.fnmatchcase(f"data/{name}", glob) for glob in globs)
    ] == []


def test_package_parses_as_the_oldest_python_it_declares():
    # ast refuses syntax newer than feature_version, such as ``except*``
    # (3.11) or a ``type`` alias (3.12), which the interpreter running the
    # tests would accept
    declared = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    minor = int(re.search(r'^requires-python = ">=3\.(\d+)"$', declared, re.M).group(1))
    modules = sorted((SRC / "sectionid").rglob("*.py"))
    assert modules
    refused = []
    for path in modules:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, minor))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(SRC)}:{exc.lineno}: {exc.msg}")
    assert refused == []


def test_cli_import_loads_no_http_stack():
    # nor the stdlib modules that only LLM runs and the stats command use
    code = (
        "import sys, sectionid.cli; "
        "print(sorted({'urllib.request', 'http.client', 'requests', 'hashlib', "
        "'concurrent.futures', 'statistics', 'logging'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# What ``import sectionid.cli`` loads: the package with the layers its
# ``__init__`` exports, and the taxonomy with its edit distance.
CLI_MODULES = [
    "sectionid", "sectionid.cli", "sectionid.corpus", "sectionid.errors", "sectionid.ontology",
    "sectionid.prediction", "sectionid.textdist", "sectionid.tokenizer",
]
# What ``segment`` and ``evaluate`` read for their settings: the LLM
# config's fields and the strategy names.
SETTINGS_MODULES = ["sectionid.llm", "sectionid.llm.client", "sectionid.llm.prompts"]


def test_cli_loads_only_the_layers_a_command_runs(tmp_path, replay_store):
    # no LLM, alignment, metrics or baselines code until a command runs it;
    # only an LLM run grounds headers, so nothing else loads ``align``; the
    # commands run in one interpreter, so each set holds the ones before it
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text('{"id": "d1", "a": ["Plan"], "b": ["plan"]}\n', encoding="utf-8")
    fixtures = SRC.parent / "tests" / "fixtures"
    corpus = str(fixtures / "gold_small.jsonl")
    rules = tmp_path / "rules"
    commands = [
        ["normalize", "--names", str(fixtures / "order_variants.txt")],
        ["stats", "--corpus", corpus],
        ["iaa", "--pairs", str(pairs)],
        ["segment", "--corpus", corpus, "--segmenter", "rules", "--out", str(rules)],
        [
            "evaluate", "--corpus", corpus, "--predictions", str(rules / "predictions.jsonl"),
            "--out", str(tmp_path / "eval"),
        ],
        [
            "segment", "--corpus", corpus, "--segmenter", "llm", "--replay", str(replay_store),
            "--out", str(tmp_path / "llm"),
        ],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from sectionid.cli import main\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('sectionid'))\n"
        "def unwanted(): return sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "sets = [(loaded(), unwanted())]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    sets.append((loaded(), unwanted()))\n"
        "print(json.dumps(sets))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    scoring = [*CLI_MODULES, "sectionid.metrics"]
    segmenting = [*scoring, "sectionid.baselines", *SETTINGS_MODULES]
    expected = [CLI_MODULES] * 3 + [scoring, segmenting, segmenting] + [[
        *segmenting, "sectionid.align", "sectionid.llm.extract", "sectionid.llm.parsing",
    ]]
    sets = json.loads(done.stdout)
    # (loaded and not expected, expected and not loaded) after import and each command
    differences = [
        (sorted(set(loaded) - set(want)), sorted(set(want) - set(loaded)))
        for (loaded, _), want in zip(sets, expected)
    ]
    assert differences == [([], [])] * 7
    assert [unwanted for _, unwanted in sets] == [[]] * 7


def test_replay_segment_loads_no_thread_pool(tmp_path, replay_store):
    # a replay store answers from local files, so segment runs it on the
    # calling thread whatever --workers says
    code = (
        "import sys; from sectionid.cli import main; code = main(sys.argv[1:]); "
        "print(code, 'concurrent.futures' in sys.modules)"
    )
    argv = [
        "segment", "--corpus", str(SRC.parent / "tests" / "fixtures" / "gold_small.jsonl"),
        "--segmenter", "llm", "--replay", str(replay_store), "--workers", "3",
        "--out", str(tmp_path / "run"),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 False\n"


@pytest.mark.parametrize("package", ["sectionid", "sectionid.llm"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
