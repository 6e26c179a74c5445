"""Fixtures shared by several test modules."""

import pytest

from wsdmil import bags


class _FailingFile:
    """A file whose first write stores three bytes and then raises."""

    def __init__(self, fh):
        self._fh = fh

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(memoryview(data).cast("B")[:3])
        raise OSError("disk full")


@pytest.fixture
def disk_full(monkeypatch):
    """Every file ``bags.open_atomic`` opens fails part-way through its
    first write."""
    monkeypatch.setattr(bags, "open", lambda path, mode: _FailingFile(open(path, mode)),
                        raising=False)
