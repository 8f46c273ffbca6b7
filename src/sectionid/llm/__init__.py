from .client import (
    ChatClient,
    ChatResult,
    HTTPChatClient,
    LLMConfig,
    RecordingClient,
    ReplayClient,
    build_payload,
    complete,
    prompt_hash,
)
from .extract import ExtractionFailure, chunk_text, extract_corpus, extract_headers
from .parsing import parse_llm_response
from .prompts import (
    CHAIN_OF_THOUGHT,
    CLOSE_ENDED,
    ONE_SHOT,
    STRATEGY_KINDS,
    ZERO_SHOT,
    PromptStrategy,
    build_prompt,
)

__all__ = [
    "ChatClient",
    "ChatResult",
    "HTTPChatClient",
    "LLMConfig",
    "RecordingClient",
    "ReplayClient",
    "build_payload",
    "complete",
    "prompt_hash",
    "ExtractionFailure",
    "chunk_text",
    "extract_corpus",
    "extract_headers",
    "parse_llm_response",
    "CHAIN_OF_THOUGHT",
    "CLOSE_ENDED",
    "ONE_SHOT",
    "STRATEGY_KINDS",
    "ZERO_SHOT",
    "PromptStrategy",
    "build_prompt",
]
