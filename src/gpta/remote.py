"""HTTP client for an OpenAI-compatible chat-completions and fine-tuning
service. Works against api.openai.com or any local server exposing the
same routes; the API key comes from the GPTA_API_KEY environment variable.
The transport is the standard library's urllib, one connection per request,
imported when a client is built so that `import gpta` does not load it.

Every call sends at most MAX_ATTEMPTS requests. Transport failures
(connection errors, timeouts, 5xx), rate limits (429) and, for chat,
malformed or unparseable replies are retried with exponential backoff,
waiting at least as long as a failed response's Retry-After header asks.
After the budget the last error surfaces: ProtocolError for an
unparseable reply, else TransportError. A fine-tune reply without the id
or job object the next step needs raises FinetuneError at once, unretried.
Nothing here mutates local state, so a failed call leaves the caller
exactly where it started.
"""

import json
import logging
import os
import time
from urllib.parse import urlsplit

from .errors import FinetuneError, ProtocolError, TransportError, ValidationError
from .fileio import encodes

logger = logging.getLogger(__name__)

API_KEY_ENV = "GPTA_API_KEY"

TERMINAL_JOB_STATES = ("succeeded", "failed", "cancelled")

MAX_ATTEMPTS = 3


def _retry_after_s(headers) -> float:
    """Seconds a response's Retry-After header asks to wait; 0 when the
    header is absent or not a number of seconds."""
    try:
        return max(0.0, float(headers.get("Retry-After", 0)))
    except ValueError:
        return 0.0


def _check_base_url(url: str) -> None:
    """Refuse, with ValidationError, a URL that is not an absolute http or
    https URL with a host and a valid port, if any. urllib also opens
    file: and data: URLs, whose replies have no HTTP status."""
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError unless the port is absent or a number in [0, 65535]
    except ValueError:  # also an unclosed IPv6 bracket
        parts = None
    if not (parts and parts.scheme in ("http", "https") and parts.hostname):
        raise ValidationError(f"base_url must be an absolute http or https URL with a host, got {url!r}")


def _multipart(data: bytes) -> tuple[bytes, str]:
    """A multipart/form-data body holding the fine-tune purpose and `data`
    as the file training.jsonl, and its Content-Type. The boundary is 128
    random bits, so `data` holds it only by a negligible chance."""
    b = os.urandom(16).hex()
    head = (f'--{b}\r\nContent-Disposition: form-data; name="purpose"\r\n\r\nfine-tune\r\n--{b}\r\n'
            'Content-Disposition: form-data; name="file"; filename="training.jsonl"\r\n'
            "Content-Type: application/jsonl\r\n\r\n")
    return head.encode() + data + f"\r\n--{b}--\r\n".encode(), f"multipart/form-data; boundary={b}"


def _reply_id(reply, route: str, key: str) -> str:
    """reply[key], which must be a non-empty string that encodes as UTF-8,
    since it goes into the next request and the run state. Anything else
    raises FinetuneError naming the route and key; it is not retried, as
    the request has already taken effect."""
    value = reply.get(key) if isinstance(reply, dict) else None
    if not (isinstance(value, str) and value and encodes(value)):
        raise FinetuneError(f"{route} replied without a usable {key!r}: expected a non-empty UTF-8 string")
    return value


class RemoteClient:
    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        backoff_base: float = 0.5,
        poll_interval: float = 2.0,
        finetune_timeout: float = 600.0,
    ):
        _check_base_url(base_url)
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.backoff_base = backoff_base
        self.poll_interval = poll_interval
        self.finetune_timeout = finetune_timeout
        # Proxies come from HTTP_PROXY, HTTPS_PROXY and NO_PROXY as set
        # when the client is built.
        import urllib.request

        self._opener = urllib.request.build_opener()

    def _send(self, req):
        """Status, headers and body of the reply to req, a
        urllib.request.Request, an HTTP error reply included. The reply is
        closed before this returns."""
        from urllib.error import HTTPError

        try:
            resp = self._opener.open(req, timeout=self.timeout)
        except HTTPError as exc:  # a 4xx or 5xx reply
            resp = exc
        with resp:
            return resp.status, resp.headers, resp.read()

    def _request(self, method: str, path: str, body=None, content_type="application/json", parse=None):
        """Issue one HTTP request and return its JSON body, or parse(body).
        A dict body is sent as JSON, bytes as they are. Transport failures,
        rate limits and bodies parse rejects with ProtocolError are retried
        with backoff, MAX_ATTEMPTS requests in all. A Retry-After wait is
        capped at the request timeout."""
        import http.client
        import urllib.request

        if isinstance(body, dict):
            body = json.dumps(body, allow_nan=False).encode("utf-8")
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        if body is not None:
            headers["Content-Type"] = content_type
        last_exc: Exception | None = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                backoff = self.backoff_base * 2 ** (attempt - 1)
                time.sleep(max(backoff, min(retry_after, self.timeout)))
            retry_after = 0.0
            req = urllib.request.Request(self.base_url + path, body, headers, method=method)
            try:
                status, reply_headers, raw = self._send(req)
            except (OSError, http.client.HTTPException) as exc:
                last_exc = exc
                logger.warning("attempt %d/%d %s %s failed: %s",
                               attempt + 1, MAX_ATTEMPTS, method, path, exc)
                continue
            if status >= 500 or status == 429:
                last_exc = TransportError(f"{method} {path} -> HTTP {status}")
                retry_after = _retry_after_s(reply_headers)
                logger.warning("attempt %d/%d %s %s -> HTTP %d",
                               attempt + 1, MAX_ATTEMPTS, method, path, status)
                continue
            if status >= 400:
                raise TransportError(f"{method} {path} -> HTTP {status}: {raw.decode('utf-8', 'replace')[:200]}")
            try:
                data = json.loads(raw)
            except ValueError as exc:
                raise TransportError(f"{method} {path} returned non-JSON body") from exc
            if parse is None:
                return data
            try:
                return parse(data)
            except ProtocolError as exc:
                last_exc = exc
                logger.warning("attempt %d/%d %s %s: %s",
                               attempt + 1, MAX_ATTEMPTS, method, path, exc)
        error = ProtocolError if isinstance(last_exc, ProtocolError) else TransportError
        raise error(
            f"{method} {path} failed after {MAX_ATTEMPTS} attempts: {last_exc}"
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

        return self._request("POST", "/v1/chat/completions", body, parse=reply)

    def upload_file(self, data: bytes) -> str:
        resp = self._request("POST", "/v1/files", *_multipart(data))
        return _reply_id(resp, "POST /v1/files", "id")

    def create_job(self, model_id: str, file_id: str) -> str:
        resp = self._request("POST", "/v1/fine_tuning/jobs", {"model": model_id, "training_file": file_id})
        return _reply_id(resp, "POST /v1/fine_tuning/jobs", "id")

    def get_job(self, job_id: str) -> dict:
        path = f"/v1/fine_tuning/jobs/{job_id}"
        job = self._request("GET", path)
        if not isinstance(job, dict):
            raise FinetuneError(f"GET {path} replied with a JSON {type(job).__name__}, not an object")
        return job

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
                return _reply_id(job, f"GET /v1/fine_tuning/jobs/{job_id}", "fine_tuned_model")
            if status in TERMINAL_JOB_STATES:
                raise FinetuneError(f"job {job_id} ended with status {status!r}: {job}")
            if time.monotonic() >= deadline:
                raise FinetuneError(
                    f"job {job_id} still {status!r} after {self.finetune_timeout}s"
                )
            time.sleep(self.poll_interval)
