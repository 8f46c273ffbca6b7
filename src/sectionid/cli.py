"""Command-line entry point: segment, evaluate, stats, normalize, iaa.

Runs are reproducible: configuration comes from an optional JSON file with
flag overrides, a resolved snapshot is written next to the outputs, after
them, and all output files are deterministic byte-for-byte given the same
inputs. The API bearer token is only ever read from the environment
variable named in the config, never from the config file itself.

Each command's flags are one plain tuple of ``(name, add_argument
keywords)`` pairs. A ``choices`` given as a function (``--strategy``'s,
which the LLM layer holds) is called only when the table is read, so that
importing the CLI loads no LLM code. Arguments in the canonical form (full
flag names, each followed by a valid value, or a bare switch) are read from
that table without building a parser. Anything else, ``--help`` and every
usage error included, goes to the full parser with every subcommand, which
gives the same namespace wherever both apply.

Each command imports only the layers it runs: ``normalize`` and ``stats``
load no LLM, alignment, metrics or baselines code, and ``iaa`` adds only
``metrics``. ``segment`` and ``evaluate`` read the LLM layer's ``client``
and ``prompts`` for their settings, and add ``baselines`` or ``metrics``.
Only an LLM ``segment`` loads the rest of ``sectionid.llm``, and ``align``
loads only where a header needs grounding: in that run, or in an
``evaluate`` of predictions written without spans.

The bundled taxonomy and the default keyword lexicon are built once per
process and reused by every later command, so the bundled taxonomy keeps
its fuzzy-lookup tables from one ``main`` call to the next. A user's
``--ontology``, ``--lexicon`` or ``--ruleset`` file is read by every
command that names it, as it may change between calls.

A re-run overwrites its output files in place (``corpus.write_output``),
keeping symlinks, hard links and mode; outputs are not written atomically.

Stderr holds ``error: <message>`` lines for what stops a command and
``warning: <message>`` lines for what a lenient run drops or retries; each
call writes them to the ``sys.stderr`` current at the time.

Exit codes: 0 clean, 2 partial (some documents failed or were missing, or
some predictions named no corpus document), 1 fatal.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterator

from . import ontology
from .corpus import (
    _jsonl_objects,
    corpus_stats,
    encode_output,
    load_gold_corpus,
    open_text,
    read_json,
    write_output,
)
from .errors import EmptyCorpus, EmptyInput, FormatError, SectionIdError
from .prediction import DEFAULT_MAX_EDIT_RATIO, _check_edit_ratio, load_predictions, prediction_line

OK = 0
FATAL = 1
PARTIAL = 2

SEGMENTERS = ("keyword", "regex", "rules", "llm")

# A check takes a value and the source to name in its error: a config key
# ("<file>: config key 'llm.timeout'") or a flag ("--workers").
Check = Callable[[object, str], None]


def _accepts(described: str, test: Callable[[object], bool]) -> Check:
    def check(value: object, source: str) -> None:
        if not test(value):
            raise FormatError(f"{source} must be {described}, got {value!r}")
    return check


def _library(test: Callable[[object], object]) -> Check:
    """A library check that raises TypeError or ValueError, naming the source."""
    def check(value: object, source: str) -> None:
        try:
            test(value)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{source}: {exc}") from exc
    return check


def _one_of(choices: tuple[str, ...]) -> Check:
    return _accepts(f"one of {', '.join(choices)}", lambda v: v in choices)


_STRING = _accepts("a string", lambda v: isinstance(v, str))
_SWITCH = _accepts("true or false", lambda v: isinstance(v, bool))
_STRINGS = _accepts(
    "a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)
)


def _refusing(check: Check, refused: str, test: Callable[[object], bool]) -> Check:
    """``check``, and then refuse a value that passes ``test``: it "must not <refused>"."""
    def refusing(value: object, source: str) -> None:
        check(value, source)
        if test(value):
            raise FormatError(f"{source} must not {refused}")
    return refusing


def _names_no_file(value: object) -> bool:
    """A NUL, or a lone surrogate (from a JSON escape) that the file system
    encoding cannot hold: ``open`` raises ValueError for either."""
    try:
        return b"\0" in os.fsencode(value or "")
    except UnicodeEncodeError:
        return True


_FILE_NAME = ("hold a NUL character or a character the file system cannot encode", _names_no_file)
_EMPTY = ("be empty", lambda v: not v)
_PATH_OR_NULL = _refusing(
    _accepts("a string or null", lambda v: v is None or isinstance(v, str)), *_FILE_NAME
)
# the output directory or file, in the config and as every command's --out
_OUT = _refusing(_refusing(_STRING, *_FILE_NAME), *_EMPTY)
_UNSET = object()  # the default of a key that is set only when given


@functools.cache
def _checks() -> dict[str, tuple[Check, object]]:
    """Every settable key, dotted inside the object-valued entries, with its
    check and default; an ``llm.*`` key is only set when given. Built on first
    use, as it reads the LLM layer, which only ``segment`` and ``evaluate`` load."""
    from .llm.client import LLMConfig
    from .llm.prompts import STRATEGY_KINDS, ZERO_SHOT

    paths = ("corpus", "ontology", "lexicon", "ruleset", "replay", "record")
    return {
        **dict.fromkeys(paths, (_PATH_OR_NULL, None)),
        "out": (_OUT, "runs"),
        "segmenter": (_one_of(SEGMENTERS), "rules"),
        "strategy": (_one_of(STRATEGY_KINDS), ZERO_SHOT),
        "strict": (_SWITCH, True),
        "close_ended_eval": (_SWITCH, False),
        **{
            f"llm.{name}": (_library(lambda v, name=name: LLMConfig(**{name: v})), _UNSET)
            for name in LLMConfig._fields
        },
        "llm.example_doc": (_refusing(_STRING, *_EMPTY), _UNSET),
        "llm.example_headers": (_refusing(_STRINGS, *_EMPTY), _UNSET),
        "llm.label_set": (_refusing(_STRINGS, *_EMPTY), _UNSET),
        "alignment.max_edit_ratio": (_library(_check_edit_ratio), DEFAULT_MAX_EDIT_RATIO),
    }


def _utf8(value: object, source: str) -> None:
    """Refuse a string, or one in a list, that UTF-8 cannot encode, such as a
    lone surrogate from a JSON escape: no output file could hold it."""
    for item in value if isinstance(value, list) else (value,):
        if isinstance(item, str) and not item.isascii():
            try:
                item.encode()
            except UnicodeEncodeError as exc:
                raise FormatError(
                    f"{source} must not hold {item[exc.start]!r}, which UTF-8 cannot encode"
                ) from exc


def _set(config: dict, key: str, value: object, source: str) -> None:
    """Check ``value`` for ``key``, naming ``source`` if it is refused, then store it."""
    _checks()[key][0](value, source)
    section, _, name = key.rpartition(".")
    (config.setdefault(section, {}) if section else config)[name] = value


def _load_config(args: argparse.Namespace) -> dict:
    """The defaults, then the ``--config`` file, then every flag given, each
    value checked; ``segment`` and ``evaluate`` need a corpus."""
    from .llm.prompts import ONE_SHOT

    config: dict = {"llm": {}}
    for key, (_, default) in _checks().items():
        if default is not _UNSET:
            _set(config, key, default, "default")
    path = args.config
    if path:
        user = read_json(path)
        if not isinstance(user, dict):
            raise FormatError(f"{path}: expected a JSON object")
        for key, value in user.items():
            items = [(key, value)]
            if isinstance(config.get(key), dict):
                if not isinstance(value, dict):
                    raise FormatError(f"{path}: {key!r} must be a JSON object")
                items = [(f"{key}.{sub}", sub_value) for sub, sub_value in value.items()]
            for name, item in items:
                # a dotted key is set only inside its object, never at the top
                if name not in _checks() or name.partition(".")[0] != key:
                    raise FormatError(f"{path}: unknown config key {name!r}")
                source = f"{path}: config key {name!r}"
                _set(config, name, item, source)
                _utf8(item, source)
    # a flag that sets a config key has that key as its argparse dest, and is
    # named as the first flag of that dest: --strict, not --no-strict
    flags = {dest: flag for flag, (dest, _, _) in reversed(_options(args.command)[0].items())}
    for key in _checks():
        value = getattr(args, key, None)
        if value is not None:
            _set(config, key, value, flags[key])
    # the example keys have no flags, so only the file can set one without the other
    example = [key for key in ("example_doc", "example_headers") if key in config["llm"]]
    if config["strategy"] == ONE_SHOT and len(example) == 1:
        raise FormatError(
            f"{path}: config key 'llm.{example[0]}': one_shot needs "
            "llm.example_doc and llm.example_headers together"
        )
    if not config["corpus"]:
        raise SectionIdError(f"{args.command} needs --corpus")
    return config


def _snapshot(config: dict, out_dir: Path) -> tuple[Path, str]:
    """Render ``config`` as ``out_dir``'s ``run_config.json``, then make ``out_dir``.

    The text is checked here, before the command writes any output or makes
    its directory, and written after every other output: a run that fails
    part-way leaves the previous run's snapshot beside the previous run's
    outputs.
    """
    path = out_dir / "run_config.json"
    text = json.dumps(config, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    encode_output(path, text)
    out_dir.mkdir(parents=True, exist_ok=True)
    return path, text


@functools.cache
def _bundled_ontology() -> ontology.Ontology:
    """The bundled taxonomy, loaded once per process."""
    return ontology.load_ontology()


def _ontology(path: str | None) -> ontology.Ontology:
    """The taxonomy at ``path``, read on every call; the bundled one for None."""
    return _bundled_ontology() if path is None else ontology.load_ontology(path)


@functools.cache
def _default_lexicon() -> baselines.HeaderLexicon:
    """The default keyword lexicon, built once per process from the bundled taxonomy."""
    from . import baselines

    return baselines.HeaderLexicon(entries=ontology.default_lexicon_entries(_bundled_ontology()))


def _build_strategy(config: dict) -> PromptStrategy:
    from .llm.prompts import CLOSE_ENDED, ONE_SHOT, PromptStrategy

    kind = config["strategy"]
    llm_cfg = config["llm"]
    # _load_config has refused empty values and a one-shot example set in part
    if kind == ONE_SHOT:
        if "example_doc" in llm_cfg:
            return PromptStrategy.one_shot(llm_cfg["example_doc"], llm_cfg["example_headers"])
        example = read_json(ontology.data_path("one_shot_example.json"))
        return PromptStrategy.one_shot(example["text"], example["headers"])
    if kind == CLOSE_ENDED:
        if "label_set" in llm_cfg:
            return PromptStrategy.close_ended(llm_cfg["label_set"])
        return PromptStrategy.close_ended(ontology.top_section_names())
    return PromptStrategy(kind)


def cmd_segment(args: argparse.Namespace) -> int:
    config = _load_config(args)
    docs = load_gold_corpus(config["corpus"], strict=config["strict"])
    ont = _ontology(config["ontology"])
    # set up the segmenter, reading every file and store it needs, so that a
    # refused setting fails before any output is written
    segmenter = config["segmenter"]
    if segmenter == "llm":
        if not config["replay"] and not config["llm"].get("endpoint_url"):
            raise SectionIdError("llm segmenter needs llm.endpoint_url or --replay")
        # only an LLM prediction is ungrounded, so only this path grounds
        from .align import align_headers
        from .llm.client import HTTPChatClient, LLMConfig, RecordingClient, ReplayClient
        from .llm.extract import extract_corpus

        strategy = _build_strategy(config)
        settings = {k: v for k, v in config["llm"].items() if k in LLMConfig._fields}
        if config["replay"]:
            # a store answers from local files, so the work is CPU-bound under
            # the interpreter lock and threads would only contend for it;
            # run_config.json still shows the configured value
            settings["max_in_flight"] = 1
        llm = LLMConfig(**settings)
        client = ReplayClient(config["replay"]) if config["replay"] else HTTPChatClient(llm)
        if config["record"]:
            client = RecordingClient(client, config["record"])
    else:
        from . import baselines

        if config["lexicon"]:
            lexicon = baselines.load_lexicon(config["lexicon"])
        else:
            # built from the bundled taxonomy, whichever one the run categorizes with
            lexicon = _default_lexicon()
        rules = baselines.DEFAULT_RULES
        if config["ruleset"]:
            rules = baselines.load_ruleset(config["ruleset"])
    out_dir = Path(config["out"])
    snapshot = _snapshot(config, out_dir)
    failed: list[str] = []
    if segmenter == "llm":
        predictions, failures = extract_corpus([d.document for d in docs], strategy, llm, client)
        failed = [f.doc_id for f in failures]
    elif segmenter == "keyword":
        predictions = {d.id: baselines.keyword_segment(d.document, lexicon) for d in docs}
    elif segmenter == "regex":
        predictions = {d.id: baselines.regex_segment(d.document, rules) for d in docs}
    else:
        predictions = {d.id: baselines.rule_segment(d.document, lexicon, rules) for d in docs}
    max_ratio = config["alignment"]["max_edit_ratio"]
    lines = []
    for doc in docs:
        pred = predictions[doc.id]
        alignment = None if pred.grounded else align_headers(doc.document, pred, max_ratio)
        categories = [ontology.categorize(h, ont) for h in pred.headers]
        lines.append(prediction_line(doc.id, pred, categories, alignment))
    write_output(out_dir / "predictions.jsonl", "".join(lines))
    write_output(*snapshot)
    if failed:
        print(f"{len(failed)} document(s) failed: {', '.join(sorted(failed))}", file=sys.stderr)
        return PARTIAL
    return OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import metrics

    config = _load_config(args)
    docs = load_gold_corpus(config["corpus"], strict=config["strict"])
    predictions = load_predictions(args.predictions, docs)
    # only close-ended scoring reads the taxonomy; a user's file is still checked
    ont = None
    if config["close_ended_eval"] or config["ontology"] is not None:
        ont = _ontology(config["ontology"])
    run = metrics.evaluate_run(
        docs,
        predictions,
        ont,
        method=config["segmenter"],
        corpus_name=str(config["corpus"]),
        max_edit_ratio=config["alignment"]["max_edit_ratio"],
        close_ended=config["close_ended_eval"],
    )
    out_dir = Path(config["out"])
    snapshot = _snapshot(config, out_dir)
    for fmt, name in (("json", "report.json"), ("csv", "report.csv"), ("table_text", "report.txt")):
        rendered = metrics.render_report(run, fmt)
        write_output(out_dir / name, rendered)
    write_output(*snapshot)
    print(rendered, end="")  # the table, written last
    missing = [doc.id for doc in docs if doc.id not in predictions]
    unknown = predictions.keys() - {doc.id for doc in docs}
    for ids, what in (
        (missing, "document(s) had no prediction and scored empty"),
        (unknown, "prediction(s) name no corpus document"),
    ):
        if ids:
            print(f"{len(ids)} {what}: {', '.join(sorted(ids))}", file=sys.stderr)
    return PARTIAL if missing or unknown else OK


def _emit_json(payload: dict, out: str | None, name: str) -> None:
    """Print ``payload`` as JSON; with ``out``, also write it to ``out/name``."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_output(out_dir / name, text + "\n")
    print(text)


def cmd_stats(args: argparse.Namespace) -> int:
    docs = load_gold_corpus(args.corpus, strict=args.strict)
    try:
        stats = corpus_stats(docs)
    except EmptyCorpus as exc:
        raise EmptyCorpus(f"{args.corpus}: {exc}") from exc
    payload = {name: getattr(stats, name) for name in stats._fields}
    _emit_json(payload, args.out, "corpus_stats.json")
    return OK


def cmd_normalize(args: argparse.Namespace) -> int:
    ont = _ontology(args.ontology)
    lines: list[str] = []
    with open_text(args.names) as fh:
        for line in fh:
            name = line.rstrip("\n")
            if not name.strip() or name.lstrip().startswith("#"):
                continue
            lines.append(f"{name}\t{ontology.categorize(name, ont)}")
    output = "\n".join(lines) + ("\n" if lines else "")
    # refuse a stdout that cannot hold a name before --out is written; a
    # stream without an encoding (StringIO) holds any text
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding:
        encode_output("stdout", output, encoding, sys.stdout.errors)
    if args.out:
        write_output(args.out, output)
    print(output, end="")
    return OK


def cmd_iaa(args: argparse.Namespace) -> int:
    from .metrics import iaa_report

    pairs: list[tuple[list[str], list[str]]] = []
    ids: list[str] = []
    for lineno, where, obj in _jsonl_objects(args.pairs):
        for side in ("a", "b"):
            names = obj.get(side)
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise FormatError(f"{where}: {side!r} must be a list of strings")
        pairs.append((obj["a"], obj["b"]))
        ids.append(str(obj.get("id", lineno)))
    try:
        report = iaa_report(pairs, ids)
    except EmptyInput as exc:
        raise EmptyInput(f"{args.pairs}: {exc}") from exc
    payload = {
        "mean_jaccard": report.mean_jaccard,
        "per_pair": [{"id": pid, "jaccard": value} for pid, value in report.per_pair],
    }
    _emit_json(payload, args.out, "iaa.json")
    return OK


def _resolved(flags: tuple) -> Iterator[tuple[str, dict]]:
    """A flag table's ``(name, add_argument keywords)`` pairs, each ``choices``
    given as a function replaced by its result."""
    for name, keywords in flags:
        choices = keywords.get("choices")
        yield name, {**keywords, "choices": choices()} if callable(choices) else keywords


def _strategy_kinds() -> tuple[str, ...]:
    from .llm.prompts import STRATEGY_KINDS

    return STRATEGY_KINDS


_COMMON_FLAGS = (
    ("--config", {"help": "JSON config file; flags override it"}),
    ("--corpus", {"help": "gold corpus JSONL"}),
    ("--out", {"help": "output directory"}),
    ("--ontology", {"help": "taxonomy CSV (default: bundled)"}),
    ("--max-edit-ratio", {
        "type": float, "dest": "alignment.max_edit_ratio", "metavar": "MAX_EDIT_RATIO",
    }),
    ("--strict", {
        "action": argparse.BooleanOptionalAction, "default": None,
        "help": "abort on corpus invariant violations (default: strict)",
    }),
)
_SEGMENT_FLAGS = _COMMON_FLAGS + (
    ("--segmenter", {"choices": SEGMENTERS}),
    ("--strategy", {"choices": _strategy_kinds}),
    ("--lexicon", {"help": "lexicon file for keyword/rules segmenters"}),
    ("--ruleset", {"help": "JSON ruleset for regex/rules segmenters"}),
    ("--replay", {"help": "replay store directory (offline llm runs)"}),
    ("--workers", {
        "type": int, "dest": "llm.max_in_flight", "metavar": "WORKERS",
        "help": "max in-flight llm requests",
    }),
)
_EVALUATE_FLAGS = _COMMON_FLAGS + (
    ("--predictions", {"required": True, "help": "predictions JSONL from segment"}),
    ("--segmenter", {"choices": SEGMENTERS, "help": "method name for the report"}),
    ("--close-ended", {
        "action": "store_true", "default": None, "dest": "close_ended_eval",
        "help": "compare categorized label sets instead of spans",
    }),
)
_STATS_FLAGS = (
    ("--corpus", {"required": True}),
    ("--out", {}),
    ("--strict", {"action": argparse.BooleanOptionalAction, "default": True}),
)
_NORMALIZE_FLAGS = (
    ("--names", {"required": True, "help": "one section name per line"}),
    ("--ontology", {"help": "taxonomy CSV (default: bundled)"}),
    ("--out", {"help": "output TSV path"}),
)
_IAA_FLAGS = (
    ("--pairs", {"required": True, "help": 'JSONL: {"id", "a": [...], "b": [...]}'}),
    ("--out", {}),
)


# Each command's help line, its flag table and the function running it, in
# the order ``sectionid --help`` lists them.
_COMMANDS: dict[str, tuple[str, tuple, Callable[[argparse.Namespace], int]]] = {
    "segment": ("run a segmenter over a corpus", _SEGMENT_FLAGS, cmd_segment),
    "evaluate": ("score predictions against gold", _EVALUATE_FLAGS, cmd_evaluate),
    "stats": ("corpus summary statistics", _STATS_FLAGS, cmd_stats),
    "normalize": ("categorize section names from a file", _NORMALIZE_FLAGS, cmd_normalize),
    "iaa": ("inter-annotator agreement over annotation pairs", _IAA_FLAGS, cmd_iaa),
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: ``sectionid`` with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="sectionid",
        description="Identify, normalize, and score section headers in clinical notes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in _resolved(flags):
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


@functools.cache
def _options(command: str) -> tuple[dict[str, tuple], dict[str, object], set[str]]:
    """For ``command``: each full flag name with its dest, the value it
    stores if it is a switch, and the keywords that check its value if it
    takes one (else None); every dest with its default; the required dests."""
    options: dict[str, tuple] = {}
    defaults: dict[str, object] = {}
    required = set()
    for name, keywords in _resolved(_COMMANDS[command][1]):
        dest = keywords.get("dest", name[2:].replace("-", "_"))
        defaults[dest] = keywords.get("default")
        if keywords.get("required"):
            required.add(dest)
        action = keywords.get("action")
        options[name] = (dest, True, None) if action else (dest, None, keywords)
        if action is argparse.BooleanOptionalAction:
            options["--no-" + name[2:]] = (dest, False, None)
    return options, defaults, required


def _match(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """What the full parser makes of ``[command, *tokens]`` when every token
    is a full flag name followed, unless it is a switch, by a value that does
    not start with ``-`` and passes the flag's type and choices, and every
    required flag is given; None for any other ``tokens``."""
    options, defaults, required = _options(command)
    values = dict(defaults)
    given = set()
    i = 0
    while i < len(tokens):
        option = options.get(tokens[i])
        if option is None:
            return None
        dest, value, keywords = option
        i += 1
        if keywords is not None:
            if i == len(tokens) or tokens[i].startswith("-"):
                return None
            value = tokens[i]
            i += 1
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except (TypeError, ValueError):
                    return None
            choices = keywords.get("choices")
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        given.add(dest)
    if not required <= given:
        return None
    return argparse.Namespace(**values, command=command, func=_COMMANDS[command][2])


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building no parser for the
    canonical form of a command's arguments (see ``_match``).

    Anything else builds the full parser, which alone gives help and usage
    errors: no command or an unknown one, ``-h``, an abbreviated flag, a
    ``--flag=value`` token, ``--``, a value starting with ``-`` or refused
    by its flag, a missing required flag or an argument left over.
    """
    if argv and argv[0] in _COMMANDS:
        args = _match(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_args(argv)
    try:
        # every flag value but a number names a file or a choice, so one that
        # can name no file is refused before any file is opened
        for flag, (dest, _, keywords) in _options(args.command)[0].items():
            value = getattr(args, dest)
            if keywords is not None and "type" not in keywords and value is not None:
                (_OUT if dest == "out" else _PATH_OR_NULL)(value, flag)
        return int(args.func(args))
    except (SectionIdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FATAL


if __name__ == "__main__":
    sys.exit(main())
