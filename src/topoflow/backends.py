"""Agent backends: the abstract invoke surface plus mock, scripted, and HTTP.

Backends report their own token usage; the engine and ledger pass those
counts through untouched (no re-tokenization, no cross-provider
normalization).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace

import requests


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
    callers enforce a timeout on the HTTP path."""

    name: str = "backend"
    model: str = ""
    max_context_tokens: int = 128_000

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

    @classmethod
    def from_file(cls, path: str, name: str = "scripted") -> "ScriptedBackend":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh), name=name)

    def invoke(self, instruction: str, context: str, *, tag: str | None = None) -> AgentOutput:
        key = tag if tag in self.fixture else "default"
        entry = self.fixture.get(key)
        if entry is None:
            raise BackendError(f"scripted backend has no entry for tag {tag!r}")
        self._calls[key] = self._calls.get(key, 0) + 1
        if entry.get("fail"):
            raise BackendError(f"scripted permanent failure for {tag!r}")
        if self._calls[key] <= entry.get("fail_times", 0):
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
    style: str  # "openai" | "anthropic" | "google"


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


class HttpChatBackend(AgentBackend):
    """Chat-completion HTTP backend (temperature 0.0, provider usage fields)."""

    def __init__(
        self,
        provider: str,
        model: str,
        *,
        max_tokens: int = 4096,
        timeout: float = 120.0,
        url: str | None = None,
        session: requests.Session | None = None,
    ):
        if provider not in PROVIDERS:
            raise BackendError(f"unknown provider {provider!r}; expected one of {sorted(PROVIDERS)}")
        self.spec = PROVIDERS[provider]
        self.name = provider
        self.model = model
        self.max_tokens = max_tokens
        self.timeout = timeout
        self.url = url or self.spec.url
        self.session = session or requests.Session()

    def _api_key(self) -> str:
        key = os.environ.get(self.spec.env_key)
        if not key:
            raise BackendError(f"missing API key: set {self.spec.env_key}")
        return key

    def invoke(self, instruction: str, context: str, *, tag: str | None = None) -> AgentOutput:
        prompt = instruction if not context else f"{instruction}\n\n{context}"
        if self.spec.style == "anthropic":
            headers = {
                "x-api-key": self._api_key(),
                "anthropic-version": "2023-06-01",
                "content-type": "application/json",
            }
            payload = {
                "model": self.model,
                "max_tokens": self.max_tokens,
                "temperature": 0.0,
                "messages": [{"role": "user", "content": prompt}],
            }
        else:
            headers = {
                "Authorization": f"Bearer {self._api_key()}",
                "Content-Type": "application/json",
            }
            payload = {
                "model": self.model,
                "max_tokens": self.max_tokens,
                "temperature": 0.0,
                "messages": [{"role": "user", "content": prompt}],
            }
        start = time.perf_counter()
        try:
            resp = self.session.post(self.url, headers=headers, json=payload, timeout=self.timeout)
        except requests.RequestException as exc:
            raise BackendError(f"{self.identity}: request failed: {exc}", transient=True) from exc
        latency = time.perf_counter() - start
        if resp.status_code in (429, 500, 502, 503, 529):
            raise BackendError(f"{self.identity}: HTTP {resp.status_code}", transient=True)
        if resp.status_code != 200:
            raise BackendError(f"{self.identity}: HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            body = resp.json()
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
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            # a 200 with a body we cannot read will not read better on retry
            raise BackendError(f"{self.identity}: malformed response body: {exc!r}") from exc
        return AgentOutput(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency=latency,
            backend=self.identity,
        )
