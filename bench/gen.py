"""Seeded, stdlib-only inputs for the benchmark workloads: notes, gold corpus,
the header perturber, the replay store and the names file.

Everything here is a pure function of ``random.Random(seed)`` plus the
bundled data files, so one seed always yields byte-identical inputs. The
program under test only ever sees the files these functions write.

Shape rules shared by all notes:

* bodies are lowercase and every header surface carries a capital letter,
  so an in-order exact search can never fire inside a body;
* each note plants distinct header surfaces, so a verbatim header occurs
  exactly once in its note;
* per-note amounts (sections, body size, perturbation kinds) follow fixed
  schedules and only the content is random, so the work in one run barely
  depends on the seed; so do the kinds and lengths of the names.
"""

from __future__ import annotations

import csv
import json
import random
import string
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "src" / "sectionid" / "data"

RULES_BODY_WORDS = (
    "patient denies reports stable mild severe chronic acute daily noted "
    "continue monitor follow tablet oral since without improved unchanged "
    "bilateral normal today discussed tolerating pain fever cough nausea "
    "swelling rash dose twice weekly increased decreased resolved pending "
    "clear soft tender regular rhythm murmur gait intact alert oriented"
).split()

# Header surfaces for the LLM workload: top-50 and taxonomy names whose
# lowercase forms, one-typo variants and paraphrases cannot be confused with
# one another by the aligner's exact, case-insensitive or fuzzy search
# (``test_bench.py`` checks this with ``sectionid.align`` itself). Bodies in that workload are drawn from
# ``LLM_BODY_CHARS``, which shares no letter with these names. Together this
# makes "a verbatim header grounds exact to its planted span" a property of
# the program, not luck of the draw.
LLM_VOCAB = (
    "Allergies", "Family History", "Social History", "Past Medical History",
    "Physical Exam", "Subjective", "Assessment",
    "History of Present Illness", "Review of Systems", "Impression",
    "Medications", "Vital signs", "Additional Documentation", "Progress Notes",
    "Visit Diagnoses", "Examination", "Musculoskeletal", "Problems",
    "Technique", "Communications", "Comparison", "Findings",
    "Reason for Appointment", "Screening", "Cardiovascular", "General",
    "Tobacco Use", "Treatment", "Instructions", "Patient Information",
    "Preventive Medicine", "Order Questions", "Order Details",
    "Order Information", "Order Providers", "Order Report", "Order Number",
    "Personal Info", "Clinical Info", "Appointment Date", "Results",
    "Mental Status", "Alcohol Use", "Abdomen", "Referral", "References",
    "All Reviewer List", "Return Visit", "Hospital Course",
    "Discharge Diagnosis", "Follow Up",
)
PARAPHRASE_BAND = tuple(s for s in LLM_VOCAB if 10 <= len(s) <= 13)
# Short notes use only the most frequent names (the top of LLM_VOCAB), so a
# few names repeat across the corpus as they do in real notes: most of the
# model's answers, and so of the ``categorize`` calls, are one of the few
# dozen forms of these twelve surfaces.
COMMON_VOCAB = LLM_VOCAB[:12]
SHORT_NOTE_SECTIONS = 8
LLM_BODY_CHARS = "0123456789./%+-"
LLM_LINE_WIDTH = 60
PARAPHRASE = "summary of {}"

# The model's answer kind for the i-th planted header of the corpus is
# LLM_KIND_CYCLE[i % 20]: 60% verbatim, 15% lowercased, 15% one typo, 10%
# paraphrased. A fixed cycle, rather than a random draw, puts the headers the
# aligner cannot place (which cost a scan of the rest of the note) at the
# same positions for every seed.
LLM_KIND_CYCLE = (
    "verbatim", "lower", "verbatim", "typo", "verbatim", "paraphrase", "verbatim",
    "lower", "verbatim", "typo", "verbatim", "verbatim", "lower", "verbatim",
    "typo", "paraphrase", "verbatim", "verbatim", "verbatim", "verbatim",
)

def taxonomy_rows() -> list[tuple[str, str]]:
    """(surface as written, category) for every mapped row of the bundled taxonomy."""
    with open(DATA_DIR / "taxonomy.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(r[0].strip(), r[1].strip()) for r in rows if len(r) > 1 and r[0].strip()]


def top_names() -> list[str]:
    with open(DATA_DIR / "top50_sections.txt", encoding="utf-8") as fh:
        return [ln.split("#", 1)[0].strip() for ln in fh if ln.split("#", 1)[0].strip()]


def rules_vocab() -> list[str]:
    """Taxonomy and top-50 surfaces usable as planted headers, first spelling wins."""
    seen: set[str] = set()
    vocab: list[str] = []
    for surface in top_names() + [s for s, _ in taxonomy_rows()]:
        key = surface.lower()
        if key in seen or ":" in surface or not any(c.isupper() for c in surface):
            continue
        seen.add(key)
        vocab.append(surface)
    return vocab


def typo(rng: random.Random, text: str, edits: int = 1) -> str:
    """Substitute ``edits`` distinct letters, keeping each letter's case."""
    chars = list(text)
    positions = [i for i, c in enumerate(chars) if c.isalpha()]
    for pos in rng.sample(positions, k=min(edits, len(positions))):
        old = chars[pos].lower()
        new = rng.choice([c for c in string.ascii_lowercase if c != old])
        chars[pos] = new.upper() if chars[pos].isupper() else new
    return "".join(chars)


def _rules_body_line(rng: random.Random, width: int) -> str:
    words: list[str] = []
    length = -1
    while length < width:
        word = rng.choice(RULES_BODY_WORDS)
        words.append(word)
        length += len(word) + 1
    return " ".join(words)


def _llm_body_token(rng: random.Random) -> str:
    a, b = rng.randint(1, 240), rng.randint(0, 99)
    return rng.choice((f"{a}", f"{a}.{b % 10}", f"{a}/{b}", f"{b}%", f"+{b % 9 + 1}", f"{a}-{b}"))


def _llm_body_line(rng: random.Random) -> str:
    """One body line of exactly ``LLM_LINE_WIDTH`` characters."""
    line = ""
    while len(line) < LLM_LINE_WIDTH:
        line += _llm_body_token(rng) + " "
    return line[:LLM_LINE_WIDTH - 1] + "0"


def _rules_body(rng: random.Random, chars: int) -> list[str]:
    lines: list[str] = []
    total = 0
    while total < chars:
        line = _rules_body_line(rng, rng.randint(45, 75))
        lines.append(line)
        total += len(line) + 1
    return lines


def build_note(
    headers: list[str], styles: list[str], bodies: list[list[str]]
) -> tuple[str, list[dict]]:
    """Lay out one note; returns its text and gold section records.

    Styles: ``colon`` ("Header:" then body lines), ``caps`` (the header
    upper-cased on its own line) and ``inline`` ("Header: " followed by the
    first body line).
    """
    parts: list[str] = []
    pos = 0
    sections: list[dict] = []
    for header, style, lines in zip(headers, styles, bodies):
        shown = header.upper() if style == "caps" else header
        if style == "colon":
            block = f"{shown}:\n" + "\n".join(lines) + "\n"
        elif style == "caps":
            block = f"{shown}\n" + "\n".join(lines) + "\n"
        else:
            block = f"{shown}: " + "\n".join(lines) + "\n"
        sections.append({
            "label": header,
            "header_span": [pos, pos + len(shown)],
            "raw_header": shown,
        })
        parts.append(block)
        pos += len(block)
    for sec, nxt in zip(sections, sections[1:] + [None]):
        body_end = nxt["header_span"][0] if nxt else pos
        if body_end > sec["header_span"][1]:
            sec["body_span"] = [sec["header_span"][1], body_end]
    return "".join(parts), sections


def make_rules_corpus(rng: random.Random, n_docs: int, sections: int) -> list[dict]:
    """Long grounded notes: ~30 sections and ~12-14k characters each."""
    vocab = rules_vocab()
    docs = []
    for i in range(n_docs):
        headers = rng.sample(vocab, sections)
        styles = [rng.choice(("colon", "colon", "caps", "inline")) for _ in headers]
        bodies = [_rules_body(rng, rng.randint(300, 520)) for _ in headers]
        text, secs = build_note(headers, styles, bodies)
        docs.append({"id": f"r{i:04d}", "text": text, "source_kind": "ehr_clean", "sections": secs})
    return docs


def surface_forms(rng: random.Random, vocab: tuple[str, ...]) -> dict[str, dict]:
    """The fake model's fixed rendering of each surface for one seed.

    One form per surface and kind makes names repeat across a corpus, as
    real model output does, so ``categorize`` sees the same names again.
    """
    return {
        s: {
            "lower": s.lower(),
            "typo": typo(rng, s),
            "paraphrase": PARAPHRASE.format(s.lower()).capitalize(),
        }
        for s in vocab
    }


def make_llm_corpus(
    rng: random.Random, schedule: list[tuple[int, int]]
) -> tuple[list[dict], dict[str, list[dict]]]:
    """Notes for the LLM workload plus, per note, the model's answer per header.

    ``schedule`` lists (sections, body lines per section) per note, in
    a fixed order, so note lengths vary the same way for every seed.
    """
    forms = surface_forms(rng, LLM_VOCAB)
    docs: list[dict] = []
    planted: dict[str, list[dict]] = {}
    planted_count = 0
    for i, (n_sections, body_lines) in enumerate(schedule):
        kinds = [LLM_KIND_CYCLE[(planted_count + j) % len(LLM_KIND_CYCLE)] for j in range(n_sections)]
        planted_count += n_sections
        # An unplaceable paraphrase costs a scan of the rest of the note in
        # proportion to its length, so paraphrased surfaces come from a
        # narrow length band.
        slots = [j for j, kind in enumerate(kinds) if kind == "paraphrase"]
        vocab = COMMON_VOCAB if n_sections <= SHORT_NOTE_SECTIONS else LLM_VOCAB
        paraphrased = rng.sample([s for s in vocab if s in PARAPHRASE_BAND], len(slots))
        others = iter(rng.sample([s for s in vocab if s not in paraphrased], n_sections - len(slots)))
        chosen = dict(zip(slots, paraphrased))
        headers = [chosen[j] if j in chosen else next(others) for j in range(n_sections)]
        bodies = [[_llm_body_line(rng) for _ in range(body_lines)] for _ in headers]
        text, secs = build_note(headers, ["colon"] * n_sections, bodies)
        doc_id = f"m{i:03d}"
        docs.append({"id": doc_id, "text": text, "source_kind": "ehr_clean", "sections": secs})
        planted[doc_id] = [
            {
                "kind": kind,
                "answer": sec["label"] if kind == "verbatim" else forms[sec["label"]][kind],
                "span": sec["header_span"],
            }
            for sec, kind in zip(secs, kinds)
        ]
    return docs, planted


# The kind of the i-th name of the names file is NAME_KIND_CYCLE[i % 10]:
# 20% taxonomy surfaces as written, 20% case and punctuation variants of
# them (both exact hits after normalization), 20% with one typo, 20% with
# two, and 20% names in no taxonomy (those three take the fuzzy path).
NAME_KIND_CYCLE = (
    "surface", "typo1", "variant", "foreign", "typo2",
    "surface", "typo1", "variant", "foreign", "typo2",
)
_VARIANTS = (
    str.upper, str.lower, "{}:".format, "  {}  ".format, "- {} -".format, "{} :".format,
)


def make_names(rng: random.Random, n: int) -> list[dict]:
    """Mostly distinct section names for ``normalize``, one record per line.

    A fuzzy lookup costs in proportion to the name's length and to the
    taxonomy surfaces of similar length, so the names that take the fuzzy
    path follow the taxonomy in file order: the j-th name of a fuzzy kind
    is as long as the j-th taxonomy surface (a typo of it, or words in no
    taxonomy cut to its length), whatever the seed. ``category`` is the
    taxonomy category of a surface written as in the taxonomy, and None for
    every other kind.
    """
    rows = taxonomy_rows()
    surfaces = rng.sample(rows, len(rows))
    foreign_words = [w.capitalize() for w in RULES_BODY_WORDS]
    used = {kind: 0 for kind in NAME_KIND_CYCLE}
    names: list[dict] = []
    seen: set[str] = set()
    for i in range(n):
        kind = NAME_KIND_CYCLE[i % len(NAME_KIND_CYCLE)]
        surface, category = rows[used[kind] % len(rows)]
        used[kind] += 1
        if kind == "surface":
            surface, category = surfaces.pop()
        while True:
            if kind == "surface":
                name = surface
            elif kind == "variant":
                name = rng.choice(_VARIANTS)(rng.choice(rows)[0])
            elif kind == "foreign":
                words = []
                while len(" ".join(words)) < len(surface):
                    words.append(rng.choice(foreign_words))
                name = " ".join(words)[:len(surface)].rstrip() + rng.choice(string.ascii_lowercase)
            else:
                name = typo(rng, surface, edits=int(kind[-1]))
            if name not in seen:
                break
            if kind == "surface":
                surface, category = surfaces.pop()
        seen.add(name)
        names.append({"kind": kind, "name": name, "category": category if kind == "surface" else None})
    return names


class FakeModel:
    """Chat client answering each chunk prompt with the headers visible in it.

    A header counts as visible when its whole planted span lies inside the
    chunk, so headers in the overlap between two chunks are answered twice,
    as a real model reading each chunk would.
    """

    def __init__(self, text: str, answers: list[dict]):
        self.text = text
        self.answers = answers

    def send(self, payload: dict):
        from sectionid.llm import ChatResult

        content = payload["messages"][-1]["content"]
        chunk = content[content.index(" ### ") + 5:content.rindex(" ###")]
        start = self.text.index(chunk)
        end = start + len(chunk)
        visible = [a["answer"] for a in self.answers if start <= a["span"][0] and a["span"][1] <= end]
        body = json.dumps([{"section_title": h} for h in visible], ensure_ascii=False)
        return ChatResult(
            status=200,
            body={"choices": [{"message": {"content": body}, "finish_reason": "stop"}]},
        )


def write_replay_store(
    docs: list[dict], planted: dict[str, list[dict]], store: Path, llm: dict,
    workers: int, missing: set[str],
) -> None:
    """Record the fake model's answers through the public ``RecordingClient``.

    ``llm`` and ``workers`` are the config section and flag the CLI run gets,
    so the recorded request hashes are the ones it will look up. Documents
    in ``missing`` get no records.
    """
    from sectionid.corpus import Document
    from sectionid.llm import LLMConfig, PromptStrategy, RecordingClient, extract_headers

    config = LLMConfig(**llm)
    config.max_in_flight = workers
    strategy = PromptStrategy.zero_shot()
    store.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        if doc["id"] in missing:
            continue
        client = RecordingClient(FakeModel(doc["text"], planted[doc["id"]]), store)
        extract_headers(Document(doc["id"], doc["text"]), strategy, config, client)


def write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")

