"""HTTP client for an OpenAI-compatible chat-completions and fine-tuning
service. Works against api.openai.com or any local server exposing the
same routes; the API key comes from the GPTA_API_KEY environment variable.

Every request is retried on transport failures (connection errors,
timeouts, 5xx) and rate limits (429) with exponential backoff, waiting at
least as long as a failed response's Retry-After header asks; after the
attempt budget the last error surfaces as TransportError. Nothing here
mutates local state, so a failed call leaves the caller exactly where it
started.
"""

import logging
import os
import time

import requests

from .errors import FinetuneError, ProtocolError, TransportError

logger = logging.getLogger(__name__)

API_KEY_ENV = "GPTA_API_KEY"

TERMINAL_JOB_STATES = ("succeeded", "failed", "cancelled")


def _retry_after_s(resp: requests.Response) -> float:
    """Seconds a response's Retry-After header asks to wait; 0 when the
    header is absent or not a number of seconds."""
    try:
        return max(0.0, float(resp.headers.get("Retry-After", 0)))
    except ValueError:
        return 0.0


class RemoteClient:
    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        poll_interval: float = 2.0,
        finetune_timeout: float = 600.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.poll_interval = poll_interval
        self.finetune_timeout = finetune_timeout
        self._session = requests.Session()

    def _headers(self) -> dict:
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _request(self, method: str, path: str, **kwargs) -> dict:
        """Issue one HTTP request with retry/backoff on transport failures
        and rate limits. A Retry-After wait is capped at the request timeout."""
        url = f"{self.base_url}{path}"
        last_exc: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                backoff = self.backoff_base * 2 ** (attempt - 1)
                time.sleep(max(backoff, min(retry_after, self.timeout)))
            retry_after = 0.0
            try:
                resp = self._session.request(
                    method, url, headers=self._headers(), timeout=self.timeout, **kwargs
                )
            except requests.RequestException as exc:
                last_exc = exc
                logger.warning("attempt %d/%d %s %s failed: %s",
                               attempt + 1, self.max_attempts, method, path, exc)
                continue
            if resp.status_code >= 500 or resp.status_code == 429:
                last_exc = TransportError(f"{method} {path} -> HTTP {resp.status_code}")
                retry_after = _retry_after_s(resp)
                logger.warning("attempt %d/%d %s %s -> HTTP %d",
                               attempt + 1, self.max_attempts, method, path, resp.status_code)
                continue
            if resp.status_code >= 400:
                raise TransportError(
                    f"{method} {path} -> HTTP {resp.status_code}: {resp.text[:200]}"
                )
            try:
                return resp.json()
            except ValueError as exc:
                raise TransportError(f"{method} {path} returned non-JSON body") from exc
        raise TransportError(
            f"{method} {path} failed after {self.max_attempts} attempts: {last_exc}"
        )

    def chat(self, model_id: str, messages: list, temperature: float) -> str:
        """One chat-completion call; returns the first choice's text."""
        body = {
            "model": model_id,
            "temperature": temperature,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
        }
        data = self._request("POST", "/v1/chat/completions", json=body)
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"malformed chat completion response: {data!r}") from exc

    def chat_prefixes(
        self, model_id: str, request: list, l: int, temperature: float
    ) -> list[str]:
        """Chat call plus prefix parsing. Unparseable completions are
        retried like transport failures, then raised as ProtocolError."""
        from .ta import parse_prefixes

        last_exc: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                return parse_prefixes(self.chat(model_id, request, temperature), l)
            except ProtocolError as exc:
                last_exc = exc
                logger.warning("attempt %d/%d: unparseable completion",
                               attempt + 1, self.max_attempts)
        raise ProtocolError(f"no parseable prefixes after {self.max_attempts} attempts") \
            from last_exc

    def upload_file(self, data: bytes) -> str:
        resp = self._request(
            "POST",
            "/v1/files",
            files={"file": ("training.jsonl", data, "application/jsonl")},
            data={"purpose": "fine-tune"},
        )
        return resp["id"]

    def create_job(self, model_id: str, file_id: str) -> str:
        resp = self._request(
            "POST",
            "/v1/fine_tuning/jobs",
            json={"model": model_id, "training_file": file_id},
        )
        return resp["id"]

    def get_job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/fine_tuning/jobs/{job_id}")

    def run_finetune(self, model_id: str, data: bytes) -> str:
        """Upload the training file, create a job, poll to a terminal
        state, and return the tuned model id."""
        file_id = self.upload_file(data)
        job_id = self.create_job(model_id, file_id)
        deadline = time.monotonic() + self.finetune_timeout
        while True:
            job = self.get_job(job_id)
            status = job.get("status")
            if status == "succeeded":
                tuned = job.get("fine_tuned_model")
                if not tuned:
                    raise FinetuneError(f"job {job_id} succeeded without a model id")
                return tuned
            if status in TERMINAL_JOB_STATES:
                raise FinetuneError(f"job {job_id} ended with status {status!r}: {job}")
            if time.monotonic() >= deadline:
                raise FinetuneError(
                    f"job {job_id} still {status!r} after {self.finetune_timeout}s"
                )
            time.sleep(self.poll_interval)
