"""Fixtures shared by the test files."""

import os
import threading
from pathlib import Path

import pytest

import bflow


@pytest.fixture(autouse=True)
def no_worker_thread_left():
    """Fail a test that leaves a training ``Worker`` thread alive: its
    threads are named ``bflow-worker*``, and whoever starts one, ``train``
    or a test, must close it before returning or raising."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("bflow-worker")]
    assert not left, f"Worker threads left alive: {', '.join(left)}"


@pytest.fixture
def child_env():
    """Environment for a child Python process that must import the bflow under test.

    ``PYTHONPATH`` starts with the absolute directory that holds the ``bflow``
    package this process imported, so a child started with any working
    directory runs the same code, also when bflow is found only through a
    relative ``PYTHONPATH=src``. Existing ``PYTHONPATH`` entries follow it and
    the rest of ``os.environ`` is kept.
    """
    src = str(Path(bflow.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + rest if rest else src
    return env


def _damaged(raw):
    """Strategy over damaged copies of the bytes ``raw``: cut to a shorter
    length, extended by up to 64 bytes, or with one byte XOR-ed."""
    from hypothesis import strategies as st

    def flip(pos_mask):
        pos, mask = pos_mask
        return raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1 :]

    return st.one_of(
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n]),
        st.binary(min_size=1, max_size=64).map(lambda extra: raw + extra),
        st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)).map(flip),
    )


@pytest.fixture(scope="session")
def damaged():
    """``damaged(raw)``: a hypothesis strategy over damaged copies of ``raw``."""
    return _damaged
