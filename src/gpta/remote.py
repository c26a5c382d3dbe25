"""HTTP client for an OpenAI-compatible chat-completions and fine-tuning
service. Works against api.openai.com or any local server exposing the
same routes; the API key comes from the GPTA_API_KEY environment variable.

Every call sends at most max_attempts requests. Transport failures
(connection errors, timeouts, 5xx), rate limits (429) and, for chat,
malformed or unparseable replies are retried with exponential backoff,
waiting at least as long as a failed response's Retry-After header asks.
After the budget the last error surfaces: ProtocolError for an
unparseable reply, else TransportError. Nothing here mutates local state,
so a failed call leaves the caller exactly where it started.
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

    def _request(self, method: str, path: str, parse=None, **kwargs):
        """Issue one HTTP request and return its JSON body, or parse(body).
        Transport failures, rate limits and bodies parse rejects with
        ProtocolError are retried with backoff, max_attempts requests in
        all. A Retry-After wait is capped at the request timeout."""
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
                data = resp.json()
            except ValueError as exc:
                raise TransportError(f"{method} {path} returned non-JSON body") from exc
            if parse is None:
                return data
            try:
                return parse(data)
            except ProtocolError as exc:
                last_exc = exc
                logger.warning("attempt %d/%d %s %s: %s",
                               attempt + 1, self.max_attempts, method, path, exc)
        error = ProtocolError if isinstance(last_exc, ProtocolError) else TransportError
        raise error(
            f"{method} {path} failed after {self.max_attempts} attempts: {last_exc}"
        ) from last_exc

    def chat(self, model_id: str, messages: list, temperature: float, parse=None):
        """One chat completion: the first choice's text, or parse(text). A
        malformed response, or a text parse rejects with ProtocolError, is a
        failed attempt of the request's retry budget."""
        body = {
            "model": model_id,
            "temperature": temperature,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
        }

        def reply(data):
            try:
                text = data["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError):
                text = None
            if not isinstance(text, str):
                raise ProtocolError(f"malformed chat completion response: {data!r}")
            return text if parse is None else parse(text)

        return self._request("POST", "/v1/chat/completions", parse=reply, json=body)

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
