"""Chat-completion transport: live HTTP, plus record/replay for offline runs.

The wire format is the common chat shape: POST a JSON body with ``model``,
``messages``, sampling penalties, and ``max_tokens``; the assistant text is
read from ``choices[0].message.content``. Auth is a bearer token taken from
the environment variable named in the config, never from config files.

Every interaction can be recorded to a replay store, one JSON file per
request keyed by a hash of the payload (prompt plus sampling config), so
whole pipelines re-run byte-identically with no endpoint.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from pathlib import Path
from typing import Protocol

from ..corpus import Record, read_json
from ..errors import AuthError, FormatError, ReplayMiss, TransportError, warn

RETRYABLE_STATUS = {429, 500, 502, 503, 504}

# The longest wait, in seconds, that a socket timeout or ``time.sleep`` takes.
_LONGEST_WAIT = threading.TIMEOUT_MAX
# Each LLMConfig field, in field order, with its default, what it accepts,
# its least value and its greatest (None for none; timeout must also be
# above 0). A bool is never a number here, though Python counts it as an
# int, and a number must be finite.
_STRING = ((str,), "a string")
_NUMBER = ((int, float), "a number")
_INTEGER = ((int,), "an integer")
_FIELD_TYPES: dict[str, tuple[object, tuple[type, ...], str, object, object]] = {
    "endpoint_url": ("", *_STRING, None, None),
    "model_name": ("gpt-4", *_STRING, None, None),
    "temperature": (0.0, *_NUMBER, 0, None),
    "frequency_penalty": (0.0, *_NUMBER, None, None),
    "presence_penalty": (0.0, *_NUMBER, None, None),
    "max_tokens": (1000, *_INTEGER, 1, None),
    "timeout": (60.0, *_NUMBER, None, _LONGEST_WAIT),
    "max_retries": (3, *_INTEGER, 0, None),
    "max_in_flight": (4, *_INTEGER, 1, None),
    "backoff_base": (0.5, *_NUMBER, 0, _LONGEST_WAIT),
    "api_key_env": ("SECTIONID_API_TOKEN", *_STRING, None, None),
    "max_context_chars": (None, (int, type(None)), "an integer or null", 1, None),
}


class LLMConfig(Record):
    """The settings, each declared once in ``_FIELD_TYPES``. Raises TypeError
    for a value of the wrong type, ValueError for a number that is not
    finite, is out of its bounds or is a timeout not above 0."""

    __slots__ = _fields = tuple(_FIELD_TYPES)
    _defaults = {name: row[0] for name, row in _FIELD_TYPES.items()}

    def _post_init(self) -> None:
        for name, (_, types, described, _, _) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise TypeError(f"{name} must be {described}, not {value!r}")
        for name, (_, _, _, least, _) in _FIELD_TYPES.items():
            value = getattr(self, name)
            # written so that NaN fails too
            if least is not None and value is not None and not value >= least:
                raise ValueError(f"{name} must be >= {least}")
        if not self.timeout > 0:
            raise ValueError("timeout must be > 0")
        for name, (_, _, _, _, most) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
            if most is not None and value > most:
                raise ValueError(f"{name} must be <= {most}")


class ChatResult(Record):
    __slots__ = _fields = ("status", "body")


class ChatClient(Protocol):
    def send(self, payload: dict) -> ChatResult: ...


def prompt_hash(payload: dict) -> str:
    """Stable key for one interaction: hash of the canonical request body."""
    # imported here so that commands which never hash a prompt do not load it
    import hashlib

    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_payload(config: LLMConfig, user: str, *, system: str = "") -> dict:
    """The request body: a system message when ``system`` is given, then ``user``."""
    messages = [{"role": "system", "content": system}] if system else []
    messages.append({"role": "user", "content": user})
    return {
        "model": config.model_name,
        "messages": messages,
        "temperature": config.temperature,
        "max_tokens": config.max_tokens,
        "frequency_penalty": config.frequency_penalty,
        "presence_penalty": config.presence_penalty,
    }


class HTTPChatClient:
    """Live transport over the stdlib ``urllib.request``; one POST per send, no retries here.

    Only ``http`` and ``https`` endpoints are accepted; any other scheme
    (``file:``, ``ftp:``, an empty URL) raises TransportError before anything
    is opened. TLS verifies against the system trust store, and the
    ``http_proxy``/``https_proxy``/``no_proxy`` environment variables apply.
    An error status comes back as a ChatResult, so that ``complete()`` can
    decide on a retry; a failed connection, a timeout or a malformed URL
    raises TransportError.
    """

    def __init__(self, config: LLMConfig):
        self.config = config

    def send(self, payload: dict) -> ChatResult:
        # imported here so that commands which never call an endpoint do not
        # pay for the HTTP and TLS modules
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.config.api_key_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        url = self.config.endpoint_url
        try:
            data = json.dumps(payload, allow_nan=False).encode("utf-8")
            request = urllib.request.Request(url, data=data, headers=headers, method="POST")
            # urllib would also open file: and ftp: URLs
            if request.type not in ("http", "https"):
                raise TransportError(f"endpoint_url must be an http or https URL, got {url!r}")
            try:
                with urllib.request.urlopen(request, timeout=self.config.timeout) as response:
                    status, raw = response.status, response.read()
            except urllib.error.HTTPError as exc:
                with exc:
                    status, raw = exc.code, exc.read()
        # OSError covers URLError and timeouts; ValueError a URL that cannot
        # be parsed or a header that cannot be encoded
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise TransportError(f"request failed: {exc}") from exc
        # JSON exchanged between systems is UTF-8 (RFC 8259, section 8.1)
        text = raw.decode("utf-8", errors="replace")
        try:
            body = json.loads(text)
        except (ValueError, RecursionError):
            body = {"raw": text}
        return ChatResult(status=status, body=body)


class ReplayClient:
    """Serve recorded responses from a directory of ``<hash>.json`` files.

    A store that is missing or not a directory raises FormatError at once,
    rather than a ReplayMiss for every request.
    """

    def __init__(self, store_dir: str | Path):
        self.store_dir = Path(store_dir)
        if not self.store_dir.is_dir():
            raise FormatError(f"{self.store_dir}: replay store is missing or not a directory")

    def send(self, payload: dict) -> ChatResult:
        key = prompt_hash(payload)
        path = self.store_dir / f"{key}.json"
        try:
            record = read_json(path)
        except FileNotFoundError as exc:
            raise ReplayMiss(f"no recorded interaction {key} in {self.store_dir}") from exc
        except OSError as exc:
            raise FormatError(f"{path}: unreadable replay record: {exc}") from exc
        content = record.get("response_content") if isinstance(record, dict) else None
        if not isinstance(content, str):
            raise FormatError(f"{path}: replay record needs a string 'response_content'")
        return ChatResult(
            status=200,
            body={
                "choices": [
                    {
                        "message": {"content": content},
                        "finish_reason": "stop",
                    }
                ]
            },
        )


class RecordingClient:
    """Wrap another client and persist each successful interaction.

    Each record is written to a temporary file and moved into place, so no
    reader ever sees a half-written record, whether other threads are
    recording at the same time or a write is interrupted. This is the one
    writer that does not go through ``corpus.write_output``, on purpose: a
    record is read back as input by later runs, so it must be atomic, where
    an in-place overwrite would leave a torn record between write and cut,
    and threads recording the same prompt would write one file at once.
    """

    def __init__(self, inner: ChatClient, store_dir: str | Path):
        self.inner = inner
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)

    def send(self, payload: dict) -> ChatResult:
        result = self.inner.send(payload)
        if result.status == 200:
            content, _ = _first_choice(result.body)
            if content is not None:
                key = prompt_hash(payload)
                record = {
                    "prompt_hash": key,
                    "request": payload,
                    "response_content": content,
                }
                path = self.store_dir / f"{key}.json"
                tmp = path.with_name(f".{key}.{os.getpid()}.{threading.get_ident()}.tmp")
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=2, sort_keys=True, ensure_ascii=False)
                    fh.write("\n")
                os.replace(tmp, path)
        return result


def _first_choice(body: dict) -> tuple[str | None, object]:
    """``choices[0]``'s message content, None unless a string, and finish reason."""
    try:
        choice = body["choices"][0]
        content = choice["message"]["content"]
    except (KeyError, IndexError, TypeError):
        return None, None
    return (content if isinstance(content, str) else None), choice.get("finish_reason")


def complete(config: LLMConfig, user: str, client: ChatClient, *, system: str = "") -> str:
    """One chat round trip with exponential backoff on transient failures.

    Retries transport errors, 429, and 5xx up to ``max_retries`` extra
    attempts, waiting ``backoff_base`` seconds before the first retry and
    twice as long before each next one, at most ``threading.TIMEOUT_MAX``;
    401/403 raise AuthError immediately. A response that stopped at the
    token limit is warned of on stderr but still returned.
    """
    payload = build_payload(config, user, system=system)
    last_error: str = "no attempt made"
    delay = config.backoff_base
    for attempt in range(config.max_retries + 1):
        if attempt > 0:
            if delay > 0:
                time.sleep(delay)
            # doubled, up to the longest wait the platform takes
            delay = min(delay * 2, _LONGEST_WAIT)
        try:
            result = client.send(payload)
        except TransportError as exc:
            last_error = str(exc)
            warn(f"attempt {attempt + 1} transport failure: {exc}")
            continue
        if result.status in (401, 403):
            raise AuthError(f"endpoint rejected credentials (HTTP {result.status})")
        if result.status in RETRYABLE_STATUS:
            last_error = f"HTTP {result.status}"
            warn(f"attempt {attempt + 1} got retryable HTTP {result.status}")
            continue
        if result.status != 200:
            raise TransportError(f"HTTP {result.status}: {str(result.body)[:200]}")
        content, finish_reason = _first_choice(result.body)
        if content is None:
            raise TransportError("response body has no choices[0].message.content")
        if finish_reason == "length":
            warn(f"response hit the {config.max_tokens}-token limit")
        return content
    raise TransportError(f"gave up after {config.max_retries + 1} attempts: {last_error}")
