"""In-process mock of an OpenAI-compatible service for protocol tests.

Serves chat completions, file upload, and fine-tuning job routes on a
loopback port, records every request, and can be scripted to fail, to
walk a job through status transitions, or to give a route a fixed reply.
A request sent through it as a proxy, in absolute form, is served too.
"""

import json
import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit


@dataclass
class RecordedRequest:
    method: str
    path: str  # the target's path, without any scheme and host
    target: str  # the request target as sent, absolute when sent to a proxy
    headers: dict
    body: bytes

    def json(self):
        return json.loads(self.body)

    def form(self) -> dict[str, tuple[bytes, bytes]]:
        """The parts of a multipart/form-data body: name -> (part headers,
        content), split at the boundary exactly, so content is byte-exact."""
        boundary = re.fullmatch(r"multipart/form-data; boundary=(\S+)", self.headers["Content-Type"])[1]
        *parts, end = self.body.split(b"--" + boundary.encode())
        assert parts.pop(0) == b"" and end == b"--\r\n", "malformed multipart framing"
        form = {}
        for part in parts:
            head, sep, content = part.partition(b"\r\n\r\n")
            assert head.startswith(b"\r\n") and sep and content.endswith(b"\r\n"), "malformed part"
            form[re.search(rb' name="([^"]*)"', head)[1].decode()] = (head[2:], content[:-2])
        return form


@dataclass
class MockOpenAIServer:
    # scripted chat completion texts, consumed in order (last one repeats)
    completions: list = field(default_factory=lambda: ["Think step by step"])
    # number of leading requests (any route) answered with fail_status,
    # carrying a Retry-After header when retry_after is set
    fail_first: int = 0
    fail_status: int = 500
    retry_after: str | None = None
    # job statuses returned by successive polls (last one repeats)
    job_statuses: list = field(default_factory=lambda: ["running", "succeeded"])
    fine_tuned_model: str = "ft:mock-model:v1"
    # request path -> JSON body answered (HTTP 200) in place of the route's own reply
    replies: dict = field(default_factory=dict)

    def __post_init__(self):
        self.requests: list[RecordedRequest] = []
        self._chat_calls = 0
        self._poll_calls = 0
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), self._make_handler())
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def requests_for(self, path_prefix: str) -> list[RecordedRequest]:
        return [r for r in self.requests if r.path.startswith(path_prefix)]

    def _make_handler(server_self):
        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _read_body(self) -> bytes:
                length = int(self.headers.get("Content-Length", 0))
                return self.rfile.read(length) if length else b""

            def _reply(self, code: int, obj: dict, headers: dict | None = None):
                data = json.dumps(obj).encode("utf-8")
                self.send_response(code)
                for name, value in (headers or {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def _record_and_script(self, method: str) -> bool:
                """Record the request, and answer it from the script (a
                scripted failure, else a scripted reply for its path):
                True if it was answered."""
                body = self._read_body()
                target = self.path
                self.path = urlsplit(target)._replace(scheme="", netloc="").geturl()
                with server_self._lock:
                    server_self.requests.append(
                        RecordedRequest(
                            method=method,
                            path=self.path,
                            target=target,
                            headers=dict(self.headers),
                            body=body,
                        )
                    )
                    if server_self.fail_first > 0:
                        server_self.fail_first -= 1
                        retry = server_self.retry_after
                        self._reply(
                            server_self.fail_status,
                            {"error": "scripted failure"},
                            {"Retry-After": retry} if retry is not None else None,
                        )
                        return True
                if self.path in server_self.replies:
                    self._reply(200, server_self.replies[self.path])
                    return True
                return False

            def do_POST(self):
                if self._record_and_script("POST"):
                    return
                if self.path == "/v1/chat/completions":
                    with server_self._lock:
                        i = min(server_self._chat_calls, len(server_self.completions) - 1)
                        server_self._chat_calls += 1
                    text = server_self.completions[i]
                    self._reply(
                        200, {"choices": [{"message": {"role": "assistant", "content": text}}]}
                    )
                elif self.path == "/v1/files":
                    self._reply(200, {"id": "file-mock-1", "purpose": "fine-tune"})
                elif self.path == "/v1/fine_tuning/jobs":
                    self._reply(200, {"id": "ftjob-mock-1", "status": "queued"})
                else:
                    self._reply(404, {"error": f"no such route {self.path}"})

            def do_GET(self):
                if self._record_and_script("GET"):
                    return
                if self.path.startswith("/v1/fine_tuning/jobs/"):
                    with server_self._lock:
                        i = min(server_self._poll_calls, len(server_self.job_statuses) - 1)
                        server_self._poll_calls += 1
                    status = server_self.job_statuses[i]
                    job = {"id": "ftjob-mock-1", "status": status}
                    if status == "succeeded":
                        job["fine_tuned_model"] = server_self.fine_tuned_model
                    self._reply(200, job)
                else:
                    self._reply(404, {"error": f"no such route {self.path}"})

        return Handler
