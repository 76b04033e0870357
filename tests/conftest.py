"""Hypothesis runs the same examples on every run and keeps no example database.

The chat_server fixture serves one test and is shut down after it, with
every handler thread joined.
"""

import threading

import pytest
from hypothesis import settings

from chat_server import ChatServer

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def chat_server():
    server = ChatServer()
    loop = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.002})
    loop.start()
    yield server
    server.stopping.set()  # releases a slow reply whose client has given up
    server.shutdown()
    server.server_close()  # joins the handler threads
    loop.join(timeout=5)
    assert not loop.is_alive()
    assert server.errors == []
