"""Agent backends: the abstract invoke surface plus mock, scripted, and HTTP.

Backends report their own token usage; the engine and ledger pass those
counts through untouched (no re-tokenization, no cross-provider
normalization).
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import sys
import threading
import time
import urllib.parse
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .dag import ParseError, load_json


class BackendError(Exception):
    def __init__(self, message: str, *, transient: bool = False):
        super().__init__(message)
        self.transient = transient


@dataclass(frozen=True)
class AgentOutput:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency: float  # seconds
    backend: str
    subtask_id: str = ""

    def with_subtask(self, subtask_id: str) -> "AgentOutput":
        return replace(self, subtask_id=subtask_id)


class AgentBackend(ABC):
    """One agent instance.  ``invoke`` must return or raise, never hang;
    the HTTP backend bounds each socket operation by ``TIMEOUT_S``."""

    name: str = "backend"
    model: str = ""

    @property
    def identity(self) -> str:
        return f"{self.name}:{self.model}" if self.model else self.name

    @abstractmethod
    def invoke(self, instruction: str, context: str, *, tag: str | None = None) -> AgentOutput:
        """Run one agent call.  ``tag`` names the subtask/phase for scripted
        backends; real backends ignore it."""


def approx_tokens(text: str) -> int:
    """Whitespace-token approximation, used only when no provider count exists."""
    return len(text.split())


class MockBackend(AgentBackend):
    """Deterministic offline backend with a fixed reported latency."""

    def __init__(self, name: str = "mock", latency: float = 0.1, *, sleep: bool = False):
        self.name = name
        self.model = "mock"
        self.latency = latency
        self.sleep = sleep

    def invoke(self, instruction: str, context: str, *, tag: str | None = None) -> AgentOutput:
        if self.sleep:
            time.sleep(self.latency)
        digest = hashlib.sha256((instruction + "\x00" + context).encode()).hexdigest()[:12]
        text = f"[{self.name}] result {digest}"
        return AgentOutput(
            text=text,
            prompt_tokens=approx_tokens(instruction) + approx_tokens(context),
            completion_tokens=approx_tokens(text),
            latency=self.latency,
            backend=self.identity,
        )


MAX_TOKEN_COUNT = 10**12  # per call, as a fixture or a provider reports it


def _count(value) -> bool:
    return type(value) is int and value >= 0  # a JSON true is no count


def _tokens(value) -> bool:
    return _count(value) and value <= MAX_TOKEN_COUNT


# a scripted fixture entry's typed fields: the test each value must pass, and
# what it must be
_FIXTURE_FIELDS = {
    "text": (lambda v: type(v) is str, "a string"),
    "prompt_tokens": (_tokens, f"an integer in [0, {MAX_TOKEN_COUNT}]"),
    "completion_tokens": (_tokens, f"an integer in [0, {MAX_TOKEN_COUNT}]"),
    "fail_times": (_count, "a non-negative integer"),
    # an int past the float range compares below infinity, not below the largest float
    "latency": (lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max, "a finite number of at least 0"),
}


class ScriptedBackend(AgentBackend):
    """Replays canned outputs from a fixture keyed by subtask id / phase tag.

    Fixture entries: ``{"text", "prompt_tokens", "completion_tokens",
    "latency", "fail_times", "fail"}``.  ``fail`` raises permanently;
    ``fail_times`` raises transiently for the first N calls of that tag.
    """

    def __init__(self, fixture: dict, name: str = "scripted"):
        self.name = name
        self.model = "scripted"
        self.fixture = fixture
        self._calls: dict[str, int] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        """The backend for the fixture file at ``path``, checked whole before
        any call: a fixture that is not an object of entry objects, or a
        ``text``, token count, ``fail_times`` or ``latency`` of the wrong
        type or range, raises :class:`ParseError`."""
        fixture = load_json(path)
        if not isinstance(fixture, dict):
            raise ParseError(f"{path}: a scripted fixture must be a JSON object")
        for tag, entry in fixture.items():
            if not isinstance(entry, dict):
                raise ParseError(f"{path}: fixture entry {tag!r} must be an object")
            for key, value in entry.items():
                check = _FIXTURE_FIELDS.get(key)
                if check is not None and not check[0](value):
                    raise ParseError(
                        f"{path}: fixture entry {tag!r} field {key!r} must be {check[1]}, got {value!r}"
                    )
        return cls(fixture)

    def invoke(self, instruction: str, context: str, *, tag: str | None = None) -> AgentOutput:
        key = tag if tag in self.fixture else "default"
        entry = self.fixture.get(key)
        if entry is None:
            raise BackendError(f"scripted backend has no entry for tag {tag!r}")
        with self._lock:  # wall-clock workers share one backend
            count = self._calls[key] = self._calls.get(key, 0) + 1
        if entry.get("fail"):
            raise BackendError(f"scripted permanent failure for {tag!r}")
        if count <= entry.get("fail_times", 0):
            raise BackendError(f"scripted transient failure for {tag!r}", transient=True)
        text = entry.get("text", f"scripted output for {tag}")
        return AgentOutput(
            text=text,
            prompt_tokens=int(entry.get("prompt_tokens", approx_tokens(instruction) + approx_tokens(context))),
            completion_tokens=int(entry.get("completion_tokens", approx_tokens(text))),
            latency=float(entry.get("latency", 0.1)),
            backend=self.identity,
        )


@dataclass
class ProviderSpec:
    url: str
    env_key: str
    style: str  # "openai" | "anthropic"


PROVIDERS = {
    "openai": ProviderSpec(
        url="https://api.openai.com/v1/chat/completions",
        env_key="OPENAI_API_KEY",
        style="openai",
    ),
    "anthropic": ProviderSpec(
        url="https://api.anthropic.com/v1/messages",
        env_key="ANTHROPIC_API_KEY",
        style="anthropic",
    ),
    "google": ProviderSpec(
        url="https://generativelanguage.googleapis.com/v1beta/openai/chat/completions",
        env_key="GOOGLE_API_KEY",
        style="openai",
    ),
}


MAX_TOKENS = 4096  # completion cap sent with every request
TIMEOUT_S = 120.0  # per socket operation: connect, and each read


class HttpChatBackend(AgentBackend):
    """Chat-completion HTTP backend (temperature 0.0, provider usage fields).

    Each thread posts through its own kept-alive connection from ``connect``, a
    zero-argument factory of objects with ``request``, ``getresponse``, ``close``
    and ``sock`` (by default a verified ``http.client.HTTPSConnection``).
    """

    def __init__(self, provider: str, model: str, *, connect: Callable[[], Any] | None = None):
        if provider not in PROVIDERS:
            raise BackendError(f"unknown provider {provider!r}; expected one of {sorted(PROVIDERS)}")
        import http.client  # here, so that offline runs load neither it nor ssl
        import ssl

        self.spec = PROVIDERS[provider]
        self.name = provider
        self.model = model
        url = urllib.parse.urlsplit(self.spec.url)
        self._host, self._path = url.hostname, url.path
        self._transport_errors = (OSError, http.client.HTTPException)  # OSError covers timeouts and TLS
        self._tls = None if connect else ssl.create_default_context()
        self._connect = connect or self._https_connection
        self._local = threading.local()

    def _https_connection(self):
        """An unopened connection to the provider, through ``HTTPS_PROXY`` unless ``NO_PROXY`` names it."""
        import http.client
        import urllib.request

        proxy = urllib.request.getproxies().get("https")
        if not proxy or urllib.request.proxy_bypass(self._host):
            return http.client.HTTPSConnection(self._host, timeout=TIMEOUT_S, context=self._tls)
        parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if parts.scheme != "http" or parts.username is not None:
            raise BackendError("HTTPS_PROXY must be an http:// URL without credentials")
        conn = http.client.HTTPSConnection(parts.hostname, parts.port or 80, timeout=TIMEOUT_S, context=self._tls)
        conn.set_tunnel(self._host)
        return conn

    def _connection(self):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
        elif conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()  # an idle socket polls readable once the server has closed it
        return conn

    def _api_key(self) -> str:
        key = os.environ.get(self.spec.env_key)
        if not key:
            raise BackendError(f"missing API key: set {self.spec.env_key}")
        return key

    def invoke(self, instruction: str, context: str, *, tag: str | None = None) -> AgentOutput:
        prompt = instruction if not context else f"{instruction}\n\n{context}"
        payload = {
            "model": self.model,
            "max_tokens": MAX_TOKENS,
            "temperature": 0.0,
            "messages": [{"role": "user", "content": prompt}],
        }
        if self.spec.style == "anthropic":
            headers = {
                "x-api-key": self._api_key(),
                "anthropic-version": "2023-06-01",
                "content-type": "application/json",
            }
        else:
            headers = {
                "Authorization": f"Bearer {self._api_key()}",
                "Content-Type": "application/json",
            }
        conn = self._connection()
        start = time.perf_counter()
        try:
            conn.request("POST", self._path, body=json.dumps(payload).encode(), headers=headers)
            resp = conn.getresponse()
            status, raw = resp.status, resp.read()  # to its end, so the connection can carry the next request
        except self._transport_errors as exc:
            conn.close()  # this thread's next call reconnects
            raise BackendError(f"{self.identity}: request failed: {exc}", transient=True) from exc
        latency = time.perf_counter() - start
        if status in (429, 500, 502, 503, 529):
            raise BackendError(f"{self.identity}: HTTP {status}", transient=True)
        if status != 200:
            raise BackendError(f"{self.identity}: HTTP {status}: {raw.decode('utf-8', 'replace')[:200]}")
        try:
            body = json.loads(raw)
            if self.spec.style == "anthropic":
                text = "".join(block.get("text", "") for block in body.get("content", []))
                usage = body.get("usage", {})
                prompt_tokens = int(usage.get("input_tokens", 0))
                completion_tokens = int(usage.get("output_tokens", 0))
            else:
                text = body["choices"][0]["message"]["content"]
                usage = body.get("usage", {})
                prompt_tokens = int(usage.get("prompt_tokens", 0))
                completion_tokens = int(usage.get("completion_tokens", 0))
            if not (_tokens(prompt_tokens) and _tokens(completion_tokens)):
                raise ValueError(f"usage {prompt_tokens}, {completion_tokens} out of [0, {MAX_TOKEN_COUNT}]")
        except (ValueError, LookupError, TypeError, AttributeError, OverflowError) as exc:
            # a 200 with a body we cannot read will not read better on retry
            raise BackendError(f"{self.identity}: malformed response body: {exc!r}") from exc
        return AgentOutput(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency=latency,
            backend=self.identity,
        )
