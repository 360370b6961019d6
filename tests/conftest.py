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
    """Sum over levels i of |O_i| |S_i| - (|O_i| - 1), S_i level i's own list
    of strong generators: the (orbit point, level generator) pairs of a
    complete chain, less the |O_i| - 1 that first reached an orbit point.
    Examining each pair once forms exactly this many Schreier generators."""
    return sum(len(trans) * len(gens) - (len(trans) - 1)
               for trans, gens in zip(chain._transversal, chain._gens))


def _strongly_generated(chain):
    """Whether the union S of the level lists is a strong generating set for
    the chain's base (the Schreier-Sims test; Seress, *Permutation Group
    Algorithms*, section 4.2).  For each level i, with S^(i) the members of S,
    from any level's list, that fix the first i base points: the orbit O_i is
    closed under S^(i), and every Schreier generator u_{g(x)}^-1 g u_x of g
    in S^(i) and x in O_i sifts to the identity from level i + 1.  At x = b_i,
    where u_x is the identity, this says each g in S^(i) sifts to the
    identity from level i.  No strong generator fixes every base point."""
    identity = bytes(range(chain.degree))
    strong = {g for gens in chain._gens for g, _ in gens}  # 256-byte tables
    for i, (trans, (_, inverse)) in enumerate(zip(chain._transversal, chain._levels)):
        level = [g for g in strong if all(g[b] == b for b in chain.base[:i])]
        for x, u in trans.items():
            for g in level:
                if g[x] not in trans:
                    return False
                schreier = u.translate(g).translate(inverse[g[x]])
                if chain._sift(schreier, i + 1)[0] != identity:
                    return False
    return not any(all(g[b] == b for b in chain.base) for g in strong)


@pytest.fixture(scope="session")
def pairs_with_an_old_image():
    """The count of Schreier generators a chain forms when it examines each
    of its (orbit point, level generator) pairs exactly once."""
    return _pairs_with_an_old_image


@pytest.fixture(scope="session")
def strongly_generated():
    """The textbook strong-generation test of a chain's generator lists."""
    return _strongly_generated
