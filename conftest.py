"""A per-test time limit: a test still running ``LIMIT_S`` seconds after its
call began fails, with its node id in the message, and the session goes on to
the next test.  This file sits at the repo root, so the limit covers every
test the suite collects, under ``tests/`` and ``perfbench/`` alike.  The
limit is far above the slowest test, which takes a few seconds, so it names a
hang rather than a slow host.

The limit is a real-time interval timer, so a test stuck inside one long call
into C code fails when that call returns."""

import signal

import pytest

LIMIT_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} still running after the {LIMIT_S} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
