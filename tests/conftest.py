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


def _with_u_exponent(rep, exponent):
    """rep with the first exponent e of U's image replaced by exponent(e)."""
    u = rep.elements["U"]

    def of(x):
        img = rep.of(x)
        if x != u:
            return img
        return replib.MonomialMap(img.root_order, img.perm, (exponent(img.exps[0]),) + img.exps[1:])

    return replib.MonomialRep(rep.elements, of)


@pytest.fixture
def bumped_u_rep():
    """A builder of the degree-8 rep with one exponent of U's image raised:
    no homomorphism, since G2 has no quotient of order 3 for the exponent sum
    to land in, yet every image keeps its shape."""
    return lambda tables=None: _with_u_exponent(replib.build_rep_g2(tables), lambda e: (e + 1) % 3)


@pytest.fixture
def rotated_edge_rep():
    """A builder of the degree-20 rep whose U image puts w^1, a sixth root of
    unity, on edge 1: no edge coordinate is a sign line any more."""
    return lambda tables=None: _with_u_exponent(replib.build_rep_g3(tables), lambda e: 1)


def _pairs_with_an_old_image(chain):
    """Sum over levels i of |O_i| |S_i| - (|O_i| - 1), S_i the strong
    generators fixing the first i base points: the (orbit point, strong
    generator) pairs of a complete chain, less the |O_i| - 1 that first
    reached an orbit point.  Examining each pair once forms exactly this many
    Schreier generators."""
    strong = [g for level in chain._gens for g, _ in level]
    total = 0
    for i, trans in enumerate(chain._transversal):
        fixing = sum(all(g[b] == b for b in chain.base[:i]) for g in strong)
        total += len(trans) * fixing - (len(trans) - 1)
    return total


@pytest.fixture(scope="session")
def pairs_with_an_old_image():
    """The count of Schreier generators a chain forms when it examines each
    of its (orbit point, strong generator) pairs exactly once."""
    return _pairs_with_an_old_image
