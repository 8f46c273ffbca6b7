"""The prompted-LLM segmenter: prompts, transport, parsing and extraction.

Each exported name is imported from its submodule on first use (PEP 562),
so that reading one name, such as ``STRATEGY_KINDS``, does not load the
others' modules.
"""

import importlib

# each exported name and the submodule that defines it
_SUBMODULES = {
    **dict.fromkeys(
        (
            "ChatClient", "ChatResult", "HTTPChatClient", "LLMConfig", "RecordingClient",
            "ReplayClient", "build_payload", "complete", "prompt_hash",
        ),
        "client",
    ),
    **dict.fromkeys(
        ("ExtractionFailure", "chunk_text", "extract_corpus", "extract_headers"), "extract"
    ),
    "parse_llm_response": "parsing",
    **dict.fromkeys(
        (
            "CHAIN_OF_THOUGHT", "CLOSE_ENDED", "ONE_SHOT", "STRATEGY_KINDS", "ZERO_SHOT",
            "PromptStrategy", "build_prompt",
        ),
        "prompts",
    ),
}

__all__ = list(_SUBMODULES)


def __getattr__(name: str) -> object:
    submodule = _SUBMODULES.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{submodule}", __name__), name)
