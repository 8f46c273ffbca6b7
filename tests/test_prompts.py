from __future__ import annotations

import json

import pytest

from sectionid import ontology
from sectionid.corpus import Document
from sectionid.errors import MissingField
from sectionid.llm import LLMConfig, PromptStrategy, build_payload, build_prompt, prompt_hash

DOC = Document("d1", "Allergies: none recorded\nPlan: rest\n")
LEAD = "Here are some clinical notes of a patient from a doctor."


def test_zero_shot_anchors():
    system, user = build_prompt(PromptStrategy.zero_shot(), DOC)
    assert "You are a clinician" in system
    assert "Find section headers only from the clinical text." in system
    assert "return the answer as a JSON object" in system
    assert "{section_title: // string representing the section header}" in system
    assert f"### {DOC.text} ###" in user
    assert (system + user).count(DOC.text) == 1


def test_one_shot_includes_example():
    strategy = PromptStrategy.one_shot("Example note text", ["Allergies", "Plan"])
    system, user = build_prompt(strategy, DOC)
    assert "Example clinical text: Example note text" in system
    assert '"Allergies"' in system and '"Plan"' in system
    assert "return the answer as a JSON object" in system
    assert f"### {DOC.text} ###" in user


def test_chain_of_thought_requests_steps():
    system, _ = build_prompt(PromptStrategy.chain_of_thought(), DOC)
    assert "CoT: // string describing thinking step by step" in system


def test_close_ended_lists_labels_and_none_escape():
    strategy = PromptStrategy.close_ended(["Allergies", "Plan", "Assessment"])
    system, _ = build_prompt(strategy, DOC)
    assert "Classify the section headers into one of the following section type labels." in system
    assert '"Assessment"' in system
    assert "classify them as 'None'" in system
    assert "Only print the section types identified in a list." in system


def test_strategy_validation():
    # a strategy checks itself when it is made, so no bad one reaches build_prompt
    for kind, fields in (
        ("one_shot", {}),
        ("close_ended", {}),
        ("few_shot", {}),
        ("one_shot", {"example_doc": "x", "example_headers": []}),
    ):
        with pytest.raises(MissingField):
            PromptStrategy(kind, **fields)


def test_build_prompt_deterministic():
    strategy = PromptStrategy.zero_shot()
    assert build_prompt(strategy, DOC) == build_prompt(strategy, DOC)


def test_build_prompt_system_and_user_roles():
    system, user = build_prompt(PromptStrategy.zero_shot(), DOC)
    assert system.startswith("You are a clinician")
    assert system.endswith("{section_title: // string representing the section header}")
    assert user == f"{LEAD} ### {DOC.text} ###\n"
    assert DOC.text not in system


def _bundled_strategies() -> dict[str, PromptStrategy]:
    example = json.loads(ontology.data_path("one_shot_example.json").read_text(encoding="utf-8"))
    return {
        "zero_shot": PromptStrategy.zero_shot(),
        "one_shot": PromptStrategy.one_shot(example["text"], example["headers"]),
        "chain_of_thought": PromptStrategy.chain_of_thought(),
        "close_ended": PromptStrategy.close_ended(ontology.top_section_names()),
    }


# Request hashes of the payloads sent for one note, which every replay store
# recorded so far is keyed by; a change here orphans those stores.
GOLDEN_HASHES = {
    "zero_shot": "8f251c9d569929c5",
    "one_shot": "0b49ceaf2da27e10",
    "chain_of_thought": "3543abcee802e3e7",
    "close_ended": "8037fab2d017595c",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_HASHES))
def test_prompt_hash_is_golden(kind):
    doc = Document("d", "Allergies: none\nPlan: rest\n")
    system, user = build_prompt(_bundled_strategies()[kind], doc)
    assert prompt_hash(build_payload(LLMConfig(), user, system=system)) == GOLDEN_HASHES[kind]


def test_example_holding_the_lead_sentence_stays_in_system():
    example = f"Intro line.\n{LEAD} ### Plan: rest ###\n"
    system, user = build_prompt(PromptStrategy.one_shot(example, ["Plan"]), DOC)
    assert f"Example clinical text: {example}" in system
    assert "{section_title: // string representing the section header}" in system
    assert user == f"{LEAD} ### {DOC.text} ###\n"


@pytest.mark.parametrize("strategy", [
    PromptStrategy.one_shot("See {context_text} here", ["Plan"]),
    PromptStrategy.one_shot("Plan: rest", ["{context_text}"]),
    PromptStrategy.close_ended(["Plan", "{context_text}"]),
], ids=["example_doc", "example_headers", "label_set"])
def test_context_slot_in_a_value_is_sent_as_written(strategy):
    system, user = build_prompt(strategy, DOC)
    assert "{context_text}" in system
    assert DOC.text not in system
    assert (system + user).count(DOC.text) == 1


def test_headers_slot_in_the_example_is_sent_as_written():
    strategy = PromptStrategy.one_shot("Plan: see {example_headers}", ["Plan"])
    system, _ = build_prompt(strategy, DOC)
    assert "Example clinical text: Plan: see {example_headers}\n" in system
    assert 'Answer : ["Plan"]\n' in system
