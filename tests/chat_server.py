"""A loopback OpenAI-compatible chat-completions server, to drive LiveProvider over real HTTP.

ChatServer answers POST /v1/chat/completions on 127.0.0.1 with a
completion that depends only on the request. The role comes from the
first line of the prompt's template, and the domain expert's first line
is the expert prompt that the server's own analyst answer wrote. A
re-ask is the same prompt with the rejection appended, and gets the same
answer. A test sets `fault(prompt, tries)`, which picks the fault for a
request from its prompt and the number of times that prompt has been
posted, this post included. So a run at any concurrency makes the same
calls, whatever order they arrive in.

A fault is an HTTP status (an int), "slow" (answer only after SLOW_S, or
when the server stops), "close" (close the connection with no response),
"truncate" (send half the body a longer Content-Length announces), bytes
to send as a 200 body, or a dict to send as a 200 JSON body.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from helpers import (
    assessment_response,
    assignments_response,
    candidate_response,
    classification_response,
    fusion_answer,
    plan_response,
    ruleset_response,
)

REASK = "Your previous response was rejected"
SLOW_S = 5.0
USAGE = {"prompt_tokens": 7, "completion_tokens": 5}
PLAN = [("s1", "List the facts the reply needs"), ("s2", "Set the tone of the reply")]


def _can_bind_loopback() -> bool:
    try:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
    except OSError:
        return False
    return True


needs_loopback = pytest.mark.skipif(not _can_bind_loopback(), reason="needs a socket on 127.0.0.1")


def inject(fault, tries=range(1, 100), prefix=""):
    """A fault function: this fault on the given tries of each first ask whose prompt starts with prefix."""

    def fault_for(prompt: str, n: int):
        return fault if prompt.startswith(prefix) and REASK not in prompt and n in tries else None

    return fault_for


def chat_body(content) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}], "usage": USAGE}


def _section(prompt: str, heading: str) -> list[str]:
    """The lines under a template heading, up to the next blank line."""
    return prompt.split(f"\n{heading}\n", 1)[1].split("\n\n", 1)[0].splitlines()


def answer(prompt: str) -> str:
    """Each role's valid answer, read off the prompt alone."""
    first = prompt.split("\n", 1)[0]
    if first.startswith("You are a task planner. Decompose"):
        return plan_response("a reply that serves the editor", PLAN)
    if first.startswith("You are a task planner reviewing"):
        return classification_response("irrelevant")
    if first.startswith("You are a domain analyst."):
        k = int(re.search(r"write (\d+) IF-THEN", first)[1])
        catalog = re.search(r"\nDomain catalog: (.*)\n", prompt)[1].split(", ")
        return ruleset_response([(domain, "H") for domain in catalog[:k]])
    if first.startswith("You are an expert in "):
        domain = first.removeprefix("You are an expert in ").split(".")[0]
        return candidate_response(f"{domain} view of: {_section(prompt, 'Subtask:')[0]}")
    if first.startswith("You are a global reviewer."):
        return assessment_response("H")
    if first.startswith("You are a fusion expert. Group"):
        return assignments_response(["one"] * len(_section(prompt, "Candidates:")))
    if first.startswith("You are a fusion expert. The answers"):
        return fusion_answer(_section(prompt, "Supporting answers:")[0][2:])
    if first.startswith("You are a fusion expert. Combine"):
        return fusion_answer(" / ".join(line[2:] for line in _section(prompt, "Subtask results:")))
    raise ValueError(f"no role starts its prompt with {first!r}")


class _Handler(BaseHTTPRequestHandler):
    server: ChatServer

    def do_POST(self) -> None:
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = request["messages"][0]["content"]
        server = self.server
        with server.lock:
            server.posts.append((self.path, dict(self.headers), request))
            tries = server.tries[prompt] = server.tries.get(prompt, 0) + 1
        fault = server.fault(prompt, tries)
        if fault == "close":
            return  # the handler ends and the connection closes with nothing sent
        if fault == "slow":
            server.stopping.wait(SLOW_S)
            fault = None
        if isinstance(fault, int):
            self._send(fault, b'{"error": {"message": "injected"}}')
        elif isinstance(fault, bytes):
            self._send(200, fault)
        else:
            body = json.dumps(fault if isinstance(fault, dict) else chat_body(answer(prompt))).encode()
            if fault == "truncate":
                self._send(200, body[: len(body) // 2], len(body))
            else:
                self._send(200, body)

    def _send(self, status: int, body: bytes, length: int | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body) if length is None else length))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        pass  # keep the test output clean


class ChatServer(ThreadingHTTPServer):
    """The server on 127.0.0.1 at a free port; `url` is its base URL.

    posts holds (path, headers, body) of each request in arrival order, and
    tries the posts per prompt. A handler error other than a client gone
    away is kept in errors, for the test to fail on.
    """

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1"
        self.fault = lambda prompt, tries: None
        self.lock = threading.Lock()
        self.posts: list[tuple[str, dict, dict]] = []
        self.tries: dict[str, int] = {}
        self.stopping = threading.Event()
        self.errors: list[BaseException] = []

    def server_bind(self) -> None:
        socketserver.TCPServer.server_bind(self)  # HTTPServer's own also looks the host name up
        self.server_name, self.server_port = self.server_address[:2]

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if not isinstance(exc, ConnectionError):  # a client that timed out cannot be answered
            self.errors.append(exc)
