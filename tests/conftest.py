"""Shared fixtures."""

import importlib
import sys
from pathlib import Path

import pytest

from cubereps import replib

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


@pytest.fixture
def bumped_u_rep():
    """A builder of the degree-8 rep with one exponent of U's image raised:
    no homomorphism, since G2 has no quotient of order 3 for the exponent sum
    to land in, yet every image keeps its shape."""
    def build(tables=None):
        rep = replib.build_rep_g2(tables)
        u = rep.elements["U"]

        def of(x):
            img = rep.of(x)
            if x != u:
                return img
            return replib.MonomialMap(3, img.perm, ((img.exps[0] + 1) % 3,) + img.exps[1:])

        return replib.MonomialRep(rep.elements, of)

    return build
