"""Fault-injection kill matrix: a planted fault must fail each check of its row.

Each row plants one fault inside the test process with ``monkeypatch`` and
runs, at seed 42, only checks of the layer the fault touches.  A row lists
checks the fault is known to fail; the fault may fail more of the suite.
"""

import pytest

from cubereps import cube
from cubereps.perm import StabilizerChain
from cubereps.verify import Context, run_suite


def _corner_1_read_past_its_mark(monkeypatch):
    """The reference basis' corner reader reads corner 1's colour run one
    step past the position's mark, against a table that expects the run
    from the mark: every decode of the package reads one corner from the
    wrong sticker."""
    basis = cube.REFERENCE_BASIS
    reader = cube._Reader(cube._CORNERS, basis.corner_places)
    reader.places = ((basis.corner_places[0] + 1) % 3,) + basis.corner_places[1:]
    monkeypatch.setitem(vars(basis), "corner_table", reader)


def _edge_a_read_past_its_mark(monkeypatch):
    """The reference basis' edge reader reads edge a's colour run one step
    past the position's mark: every 3x3 decode reads edge a flipped."""
    basis = cube.REFERENCE_BASIS
    reader = cube._Reader(cube._EDGES, basis.edge_places)
    reader.places = ((basis.edge_places[0] + 1) % 2,) + basis.edge_places[1:]
    monkeypatch.setitem(vars(basis), "edge_table", reader)


def _residue_joins_only_its_sift_level(monkeypatch):
    """A Schreier generator's residue joins only the list of the level its
    sift stopped at, not those of the levels between the one it was formed
    at and that one: their orbits are never closed under it, so the chain
    comes out short (the P chain reads 7,900,913,664,000, not 12! 8!/2)."""
    insert = StabilizerChain._insert
    monkeypatch.setattr(StabilizerChain, "_insert",
                        lambda chain, residue, first, level:
                        insert(chain, residue, level if first else 0, level))


def _turn_only_the_first_listed_position(monkeypatch):
    """The one in-place turn turns the first position of its step dict and
    drops the rest: a sum-zero vector's turn k and the all-edge flip come out
    short.  (A turn made backwards instead fails eq-2.5 only: a flip is its
    own inverse.)"""
    turn = cube._turn
    monkeypatch.setattr(cube, "_turn",
                        lambda kind, steps, size: turn(kind, dict(list(steps.items())[:1]), size))


FAULTS = {
    "one corner read from the wrong sticker": (
        _corner_1_read_past_its_mark,
        ("prop-2.4-invariant-s", "prop-2.7-model", "thm-3.12-g2-in-g3"),
    ),
    "one edge read from the wrong sticker": (
        _edge_a_read_past_its_mark,
        ("eq-3.8-conj-m", "prop-3.4-abf", "prop-3.7-invariant-t"),
    ),
    "a Schreier residue kept at its sift level only": (
        _residue_joins_only_its_sift_level,
        ("prop-3.13-isom-type-p",),
    ),
    "an in-place turn of the first listed position only": (
        _turn_only_the_first_listed_position,
        ("eq-2.5-conj-k", "eq-3.8-conj-m", "rem-3.14-center-g3"),
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_each_planted_fault_fails_every_check_of_its_row(monkeypatch, fault):
    plant, checks = FAULTS[fault]
    ctx = Context(seed=42)
    assert all(r.status == "pass" for c in checks for r in run_suite(ctx, c))
    plant(monkeypatch)
    results = [r for c in checks for r in run_suite(Context(seed=42), c)]
    assert [r.id for r in results] == list(checks)
    assert [r.id for r in results if r.status == "pass"] == []
