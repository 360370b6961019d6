"""Shared fixtures."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/tracer.py and bench/worker.py, imported read-only: no bytecode
    is written under bench/."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("tracer"), importlib.import_module("worker")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
