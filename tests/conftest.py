"""Hypothesis runs the same examples on every run and keeps no example database.

The chat_server fixture serves one test and is shut down after it, with
every handler thread joined. A watchdog ends the session, with every
thread's traceback, when one test runs past WATCHDOG_S, so a deadlock
fails instead of hanging.
"""

import faulthandler
import os
import sys
import threading

import pytest
from hypothesis import settings

from chat_server import ChatServer

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

WATCHDOG_S = 60  # tier-1's slowest test takes a few seconds
_stderr = []  # a copy of the terminal's stderr: captured output is lost when the watchdog exits


def pytest_configure(config):
    _stderr.append(os.fdopen(os.dup(sys.stderr.fileno()), "w"))


def pytest_unconfigure(config):
    _stderr.pop().close()


@pytest.fixture(autouse=True)
def watchdog():
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=_stderr[0])
    yield
    faulthandler.cancel_dump_traceback_later()


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
