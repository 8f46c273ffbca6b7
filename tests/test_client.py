from __future__ import annotations

import http.server
import json
import math
import socket
import sys
import threading

import pytest

from sectionid.errors import AuthError, FormatError, ReplayMiss, TransportError
from sectionid.llm import (
    HTTPChatClient,
    LLMConfig,
    RecordingClient,
    ReplayClient,
    build_payload,
    complete,
    prompt_hash,
)
from sectionid.llm.client import ChatResult


def ok_body(content: str, finish_reason: str = "stop") -> dict:
    return {"choices": [{"message": {"content": content}, "finish_reason": finish_reason}]}


class ScriptedClient:
    """Returns the queued results in order, one per send."""

    def __init__(self, results):
        self.results = list(results)
        self.calls = 0

    def send(self, payload):
        self.calls += 1
        result = self.results.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


CONFIG = LLMConfig(model_name="test-model", backoff_base=0.0, max_retries=3)


def test_payload_matches_wire_format():
    payload = build_payload(CONFIG, "Here are some clinical notes ### x ###", system="instructions")
    assert payload["model"] == "test-model"
    assert payload["temperature"] == 0.0
    assert payload["frequency_penalty"] == 0.0
    assert payload["presence_penalty"] == 0.0
    assert payload["max_tokens"] == 1000
    assert payload["messages"] == [
        {"role": "system", "content": "instructions"},
        {"role": "user", "content": "Here are some clinical notes ### x ###"},
    ]
    # no system message without instructions
    assert build_payload(CONFIG, "p")["messages"] == [{"role": "user", "content": "p"}]


def test_complete_retries_on_429_then_succeeds(capsys):
    client = ScriptedClient([
        ChatResult(429, {}),
        ChatResult(429, {}),
        ChatResult(200, ok_body("done")),
    ])
    assert complete(CONFIG, "p", client) == "done"
    assert client.calls == 3
    assert capsys.readouterr().err == (
        "warning: attempt 1 got retryable HTTP 429\nwarning: attempt 2 got retryable HTTP 429\n"
    )


def test_complete_retries_transport_errors(capsys):
    client = ScriptedClient([
        TransportError("boom"),
        ChatResult(200, ok_body("ok")),
    ])
    assert complete(CONFIG, "p", client) == "ok"
    assert client.calls == 2
    assert capsys.readouterr().err == "warning: attempt 1 transport failure: boom\n"


def test_complete_gives_up_after_max_retries():
    client = ScriptedClient([ChatResult(503, {})] * 4)
    with pytest.raises(TransportError):
        complete(CONFIG, "p", client)
    assert client.calls == 4  # initial attempt + 3 retries


def test_complete_auth_error_is_immediate():
    client = ScriptedClient([ChatResult(401, {})])
    with pytest.raises(AuthError):
        complete(CONFIG, "p", client)
    assert client.calls == 1


def test_complete_does_not_retry_client_errors():
    client = ScriptedClient([ChatResult(400, {"error": "bad request"})])
    with pytest.raises(TransportError):
        complete(CONFIG, "p", client)
    assert client.calls == 1


def test_complete_warns_on_truncation(capsys):
    # each cut reply gets its own line, however many come in one process
    replies = [ChatResult(200, ok_body(f"cut {i}", finish_reason="length")) for i in range(3)]
    client = ScriptedClient(replies)
    assert [complete(CONFIG, "p", client) for _ in range(3)] == ["cut 0", "cut 1", "cut 2"]
    assert capsys.readouterr().err == "warning: response hit the 1000-token limit\n" * 3


def test_backoff_is_exponential(monkeypatch):
    delays = []
    monkeypatch.setattr("sectionid.llm.client.time.sleep", lambda d: delays.append(d))
    config = LLMConfig(backoff_base=0.5, max_retries=3)
    client = ScriptedClient([
        ChatResult(429, {}),
        ChatResult(500, {}),
        ChatResult(200, ok_body("ok")),
    ])
    assert complete(config, "p", client) == "ok"
    assert delays == [0.5, 1.0]


@pytest.mark.parametrize("backoff_base", [0.5, threading.TIMEOUT_MAX])
def test_backoff_stays_within_the_platform_limit(monkeypatch, backoff_base):
    # 2 ** 1099 does not fit a float, and time.sleep refuses a wait above the limit
    delays = []
    monkeypatch.setattr("sectionid.llm.client.time.sleep", delays.append)
    busy = ScriptedClient([ChatResult(503, {})] * 1101)
    with pytest.raises(TransportError, match="^gave up after 1101 attempts: HTTP 503$"):
        complete(LLMConfig(backoff_base=backoff_base, max_retries=1100), "p", busy)
    assert busy.calls == 1101 and len(delays) == 1100
    assert delays[0] == backoff_base and max(delays) == threading.TIMEOUT_MAX


def test_prompt_hash_is_stable_and_sensitive():
    a = build_payload(CONFIG, "prompt one")
    b = build_payload(CONFIG, "prompt one")
    c = build_payload(CONFIG, "prompt two")
    assert prompt_hash(a) == prompt_hash(b)
    assert prompt_hash(a) != prompt_hash(c)
    hot = LLMConfig(model_name="test-model", temperature=1.0)
    assert prompt_hash(build_payload(hot, "prompt one")) != prompt_hash(a)


def test_record_then_replay_byte_identical(tmp_path):
    inner = ScriptedClient([ChatResult(200, ok_body("recorded content"))])
    recording = RecordingClient(inner, tmp_path)
    payload = build_payload(CONFIG, "a prompt")
    recording.send(payload)

    stored = list(tmp_path.glob("*.json"))
    assert len(stored) == 1
    record = json.loads(stored[0].read_text(encoding="utf-8"))
    assert record["prompt_hash"] == prompt_hash(payload)
    assert record["request"] == payload
    assert record["response_content"] == "recorded content"

    replay = ReplayClient(tmp_path)
    assert complete(CONFIG, "a prompt", replay) == "recorded content"


def test_replay_miss_raises(tmp_path):
    replay = ReplayClient(tmp_path)
    with pytest.raises(ReplayMiss):
        replay.send(build_payload(CONFIG, "never recorded"))


def test_malformed_success_body_is_transport_error():
    client = ScriptedClient([ChatResult(200, {"choices": []})])
    with pytest.raises(TransportError):
        complete(CONFIG, "p", client)


def test_config_validation():
    with pytest.raises(ValueError):
        LLMConfig(temperature=-0.1)
    with pytest.raises(ValueError):
        LLMConfig(max_tokens=0)
    with pytest.raises(ValueError):
        LLMConfig(max_in_flight=0)


# Each bounded field's least value, which is accepted, and a value below it,
# which is refused as "<field> must be >= <least>"; timeout's bound is "> 0"
_BOUNDS = {
    "temperature": (0, -1e-9),
    "max_tokens": (1, 0),
    "max_retries": (0, -1),
    "max_in_flight": (1, 0),
    "backoff_base": (0, -0.5),
    "max_context_chars": (1, 0),
}


_LONGEST = threading.TIMEOUT_MAX


@pytest.mark.parametrize("field, value, error", [
    *[
        case for field, (least, below) in _BOUNDS.items()
        for case in ((field, least, None), (field, below, ValueError))
    ],
    ("endpoint_url", None, TypeError),
    ("model_name", 4, TypeError),
    ("temperature", "0", TypeError),
    ("temperature", float("nan"), ValueError),
    ("frequency_penalty", True, TypeError),
    ("presence_penalty", None, TypeError),
    ("max_tokens", 2.0, TypeError),
    ("max_tokens", True, TypeError),
    ("timeout", "soon", TypeError),
    ("timeout", 0, ValueError),
    ("max_in_flight", False, TypeError),
    ("api_key_env", 1, TypeError),
    ("max_context_chars", "900", TypeError),
    # a message is the whole ValueError: a number that is not finite has no
    # JSON form, and no socket or sleep takes it; a bound catches NaN and
    # -inf first where the field has one
    ("temperature", math.inf, "temperature must be finite, not inf"),
    ("temperature", -math.inf, "temperature must be >= 0"),
    *[
        (field, value, f"{field} must be finite, not {value!r}")
        for field in ("frequency_penalty", "presence_penalty")
        for value in (math.nan, math.inf, -math.inf)
    ],
    ("timeout", math.nan, "timeout must be > 0"),
    ("timeout", math.inf, "timeout must be finite, not inf"),
    ("timeout", -math.inf, "timeout must be > 0"),
    ("backoff_base", math.nan, "backoff_base must be >= 0"),
    ("backoff_base", math.inf, "backoff_base must be finite, not inf"),
    ("backoff_base", -math.inf, "backoff_base must be >= 0"),
    # no wait may be longer than the platform's
    *[
        pytest.param(field, above, f"{field} must be <= {_LONGEST}", id=f"{field}-{name}")
        for field in ("timeout", "backoff_base")
        for name, above in (
            ("next-float", math.nextafter(_LONGEST, math.inf)), ("1e10", 1e10), ("10**400", 10**400)
        )
    ],
    # accepted: an int for a float, null context, any timeout above 0 up to
    # the longest wait, which a socket takes, and any finite penalty
    ("timeout", 5, None),
    ("timeout", 1e-9, None),
    ("timeout", _LONGEST, None),
    ("backoff_base", _LONGEST, None),
    ("max_context_chars", None, None),
    ("frequency_penalty", -2.0, None),
    ("presence_penalty", -1e300, None),
])
def test_config_checks_every_field(field, value, error):
    if error is None:
        assert getattr(LLMConfig(**{field: value}), field) == value
        if field == "timeout":
            with socket.socket() as sock:
                sock.settimeout(value)
    elif isinstance(error, str):
        with pytest.raises(ValueError) as raised:
            LLMConfig(**{field: value})
        assert str(raised.value) == error
    else:
        with pytest.raises(error, match=f"^{field} must be ") as raised:
            LLMConfig(**{field: value})
        if error is ValueError and field in _BOUNDS:
            assert str(raised.value) == f"{field} must be >= {_BOUNDS[field][0]}"


def test_config_names_the_first_bad_field_in_field_order():
    # each field is checked in full before the next, so temperature's bound
    # is refused before max_tokens' type
    with pytest.raises(ValueError, match=r"^temperature must be >= 0$"):
        LLMConfig(temperature=-1, max_tokens="x")


def test_http_client_posts_bearer_token(monkeypatch):
    captured = {}

    class FakeResponse:
        status = 200

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def read(self):
            return json.dumps(ok_body("hi")).encode("utf-8")

    def fake_urlopen(request, timeout=None):
        captured.update(
            url=request.full_url,
            method=request.get_method(),
            body=json.loads(request.data),
            authorization=request.get_header("Authorization"),
            timeout=timeout,
        )
        return FakeResponse()

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    monkeypatch.setenv("SECTIONID_API_TOKEN", "sekrit")

    config = LLMConfig(endpoint_url="https://example.test/v1/chat")
    result = HTTPChatClient(config).send(build_payload(config, "p"))
    assert result.status == 200
    assert result.body == ok_body("hi")
    assert captured["url"] == "https://example.test/v1/chat"
    assert captured["method"] == "POST"
    assert captured["authorization"] == "Bearer sekrit"
    assert captured["body"]["model"] == config.model_name
    assert captured["timeout"] == config.timeout


class _Endpoint(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the next scripted (status, body, delay) reply."""

    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        server.received.append((self.headers.get("Authorization"), json.loads(self.rfile.read(length))))
        status, body, delay = server.replies.pop(0)
        if delay and server.release.wait(delay):
            return
        data = body.encode("utf-8") if isinstance(body, str) else json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint(monkeypatch):
    """A chat endpoint on 127.0.0.1; set ``.replies`` before sending."""
    monkeypatch.setenv("no_proxy", "*")
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Endpoint)
    server.daemon_threads = True
    server.replies, server.received, server.release = [], [], threading.Event()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"


def test_http_client_loopback_retries_429_and_503(endpoint, monkeypatch):
    monkeypatch.setenv("SECTIONID_API_TOKEN", "sekrit")
    endpoint.replies = [(429, {}, 0), (503, {"error": "busy"}, 0), (200, ok_body("done"), 0)]
    config = LLMConfig(endpoint_url=_url(endpoint), model_name="m", backoff_base=0.0, timeout=10)
    assert complete(config, "p", HTTPChatClient(config)) == "done"
    assert len(endpoint.received) == 3
    for authorization, body in endpoint.received:
        assert authorization == "Bearer sekrit"
        assert body == build_payload(config, "p")


@pytest.mark.parametrize("status", [401, 403])
def test_http_client_loopback_auth_error(endpoint, status):
    endpoint.replies = [(status, {"error": "no"}, 0)]
    config = LLMConfig(endpoint_url=_url(endpoint), backoff_base=0.0, timeout=10)
    with pytest.raises(AuthError):
        complete(config, "p", HTTPChatClient(config))
    assert len(endpoint.received) == 1


def test_http_client_loopback_non_json_body(endpoint):
    endpoint.replies = [(502, "<html>Bad Gateway ☹</html>", 0)]
    config = LLMConfig(endpoint_url=_url(endpoint), timeout=10)
    result = HTTPChatClient(config).send(build_payload(config, "p"))
    assert result == ChatResult(502, {"raw": "<html>Bad Gateway ☹</html>"})


def test_http_client_loopback_timeout_is_transport_error(endpoint):
    endpoint.replies = [(200, ok_body("late"), 5.0)]
    config = LLMConfig(endpoint_url=_url(endpoint), timeout=0.5)
    with pytest.raises(TransportError):
        HTTPChatClient(config).send(build_payload(config, "p"))


def test_http_client_refused_connection_is_transport_error(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = LLMConfig(endpoint_url=f"http://127.0.0.1:{port}/v1/chat", timeout=5)
    with pytest.raises(TransportError):
        HTTPChatClient(config).send(build_payload(config, "p"))


@pytest.mark.parametrize("url", [
    "", "/v1/chat", "file:///etc/hosts", " FILE:///etc/hosts", "ftp://example.test/chat",
    "http://[::1/v1/chat",
])
def test_http_client_refuses_unusable_url_before_opening(monkeypatch, url):
    opened = []
    monkeypatch.setattr("urllib.request.urlopen", lambda *args, **kwargs: opened.append(args))
    config = LLMConfig(endpoint_url=url)
    with pytest.raises(TransportError):
        HTTPChatClient(config).send(build_payload(config, "p"))
    assert opened == []


def test_http_client_unsendable_url_is_transport_error(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    config = LLMConfig(endpoint_url="http://127.0.0.1:port/v1/chat")
    with pytest.raises(TransportError, match="nonnumeric port"):
        HTTPChatClient(config).send(build_payload(config, "p"))


@pytest.mark.parametrize("content", [
    '{"prompt_hash": "x", "response_con',
    '{"response_content": 7}',
    '["not", "a", "record"]',
])
def test_bad_replay_record_is_format_error_naming_the_file(tmp_path, content):
    payload = build_payload(CONFIG, "a prompt")
    path = tmp_path / f"{prompt_hash(payload)}.json"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(FormatError, match=str(path)):
        ReplayClient(tmp_path).send(payload)


def test_concurrent_recording_leaves_only_finished_records(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    class EchoClient:
        def send(self, payload):
            return ChatResult(200, ok_body(payload["messages"][-1]["content"] * 50))

    recording = RecordingClient(EchoClient(), tmp_path)
    payloads = [build_payload(CONFIG, f"prompt {i % 4}") for i in range(64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(recording.send, payloads, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        {f"{prompt_hash(p)}.json" for p in payloads}
    )
    replay = ReplayClient(tmp_path)
    for i in range(4):
        assert complete(CONFIG, f"prompt {i}", replay) == f"prompt {i}" * 50


def test_interrupted_recording_leaves_no_record(tmp_path, monkeypatch):
    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"prompt_hash": ')
        raise OSError("disk full")

    monkeypatch.setattr("sectionid.llm.client.json.dump", dump_then_fail)
    recording = RecordingClient(ScriptedClient([ChatResult(200, ok_body("x"))]), tmp_path)
    payload = build_payload(CONFIG, "a prompt")
    with pytest.raises(OSError):
        recording.send(payload)
    monkeypatch.undo()
    with pytest.raises(ReplayMiss):
        ReplayClient(tmp_path).send(payload)
