"""Deterministic OpenAI-compatible server on a loopback port, for the
remote-loopback workload.

Every reply is a function of the seed and the request, so a resumed run is
answered exactly as the uninterrupted run was. A chat request identical to
the one answered just before it gets a fresh reply (the repeat count joins
the seed), so a round that added nothing cannot stall the search by asking
again. A fixed schedule answers one request in FAIL_EVERY with HTTP 500;
two consecutive requests never both fail, so the client's retries run but
never exhaust its attempts. One thread serves requests one at a time, and
every request is counted by route and status.
"""

import hashlib
import json
import random
import re
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

FAIL_EVERY = 25

# Statuses a job reports on successive polls; the last one repeats.
JOB_STATUSES = ("queued", "running", "succeeded")

_JOB_PATH = re.compile(r"^/v1/fine_tuning/jobs/([^/]+)$")


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _multipart_file(content_type: str, body: bytes) -> bytes:
    """Bytes of the part named "file" in a multipart/form-data body."""
    match = re.search(r'boundary="?([^";]+)"?', content_type)
    if not match:
        raise ValueError("multipart body without a boundary")
    for part in body.split(b"--" + match.group(1).encode()):
        head, sep, content = part.partition(b"\r\n\r\n")
        if sep and b'name="file"' in head:
            return content.removesuffix(b"\r\n")
    raise ValueError("multipart body has no file part")


class LoopbackServer:
    """Scripted assistant service. Chat replies give `l` lines drawn with
    replacement from `pool`, so replies repeat prefixes; a tuned model's
    id hashes its base model and training file."""

    def __init__(self, seed: int, pool: list[str], l: int):
        if not pool:
            raise ValueError("pool must be non-empty")
        self.seed = seed
        self.pool = list(pool)
        self.l = l
        self.counts: Counter = Counter()  # (route, status) -> requests
        self._received = 0
        self._last_chat = (b"", 0)  # last answered chat body, times in a row
        self._files: dict[str, bytes] = {}
        self._jobs: dict[str, list] = {}  # job id -> [polls, tuned model id]
        self._lock = threading.Lock()
        self._httpd = HTTPServer(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def start(self) -> "LoopbackServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("loopback server thread did not stop")

    def snapshot(self) -> Counter:
        with self._lock:
            return Counter(self.counts)

    def handle(self, method: str, path: str, content_type: str, body: bytes) -> tuple[int, dict]:
        route, status, reply = self._route(method, path, content_type, body)
        with self._lock:
            self.counts[(route, status)] += 1
        return status, reply

    def _route(self, method, path, content_type, body):
        if method == "POST" and path == "/v1/chat/completions":
            route = "chat"
        elif method == "POST" and path == "/v1/files":
            route = "files"
        elif method == "POST" and path == "/v1/fine_tuning/jobs":
            route = "jobs.create"
        elif method == "GET" and _JOB_PATH.match(path):
            route = "jobs.get"
        else:
            return "unknown", 404, {"error": f"no route {method} {path}"}

        n = self._received
        self._received += 1
        if n % FAIL_EVERY == self.seed % FAIL_EVERY:
            return route, 500, {"error": "scheduled failure"}

        if route == "chat":
            repeat = self._last_chat[1] + 1 if body == self._last_chat[0] else 0
            self._last_chat = (body, repeat)
            rng = random.Random(_digest(f"{self.seed}:{repeat}".encode(), body))
            text = "\n".join(rng.choices(self.pool, k=self.l))
            return route, 200, {"choices": [{"message": {"role": "assistant", "content": text}}]}
        if route == "files":
            data = _multipart_file(content_type, body)
            file_id = "file-" + _digest(data)[:16]
            self._files[file_id] = data
            return route, 200, {"id": file_id, "purpose": "fine-tune"}
        if route == "jobs.create":
            req = json.loads(body)
            data = self._files.get(req.get("training_file"))
            if data is None:
                return route, 404, {"error": "unknown training file"}
            job_id = f"ftjob-{len(self._jobs)}"
            tuned = "ft:bench-" + _digest(req["model"].encode(), data)[:12]
            self._jobs[job_id] = [0, tuned]
            return route, 200, {"id": job_id, "status": JOB_STATUSES[0]}
        job_id = _JOB_PATH.match(path).group(1)
        job = self._jobs.get(job_id)
        if job is None:
            return route, 404, {"error": f"unknown job {job_id}"}
        job[0] += 1
        status = JOB_STATUSES[min(job[0], len(JOB_STATUSES)) - 1]
        reply = {"id": job_id, "status": status}
        if status == "succeeded":
            reply["fine_tuned_model"] = job[1]
        return route, 200, reply

    def _handler_class(server):
        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _serve(self, method: str):
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length else b""
                status, reply = server.handle(
                    method, self.path, self.headers.get("Content-Type", ""), body
                )
                data = json.dumps(reply).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def do_POST(self):
                self._serve("POST")

            def do_GET(self):
                self._serve("GET")

        return Handler
