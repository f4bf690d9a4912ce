"""Fixtures shared by the test modules."""

import sys

import pytest

from pooltest import core


@pytest.fixture
def codec_workers(monkeypatch):
    """Up to 8 codec workers, switching threads every microsecond; the
    worker count of each block loop run."""
    started = []
    run_workers = core._run_workers

    def counting(workers, job):
        started.append(workers)
        run_workers(workers, job)

    monkeypatch.setattr(core, "_run_workers", counting)
    monkeypatch.setattr(core, "_worker_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield started
    finally:
        sys.setswitchinterval(interval)
