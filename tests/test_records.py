"""The package's record types: the equality, hash, repr and immutability of
a frozen dataclass, from ``cubereps._record.Record``, and an import of the
package that loads neither ``dataclasses`` nor ``inspect``."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cubereps.abelian import FiniteAbelianGroup
from cubereps.cube import (
    REFERENCE_BASIS, CubeState, MoveWord, OrientationBasis, invariant_s, invariant_t,
)
from cubereps.perm import Permutation
from cubereps.replib import ConjMonomialMap, DecoratedPerm, MonomialMap
from cubereps.structure import G2Element, G3Element
from cubereps._record import trusted
from cubereps.verify import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"

# one sample per record type, with its repr as a frozen dataclass printed it
SAMPLES = {
    "FiniteAbelianGroup": (
        lambda: FiniteAbelianGroup((4, 2)),
        "FiniteAbelianGroup(cyclic_orders=(2, 4))",
    ),
    "MoveWord": (
        lambda: MoveWord((("U", 1), ("R", 3))),
        "MoveWord(tokens=(('U', 1), ('R', 3)))",
    ),
    "CubeState": (
        lambda: CubeState.solved(2),
        "CubeState(size=2, stickers=(0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, "
        "3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5))",
    ),
    "OrientationBasis": (
        lambda: OrientationBasis(REFERENCE_BASIS.corner_marks, REFERENCE_BASIS.edge_marks),
        "OrientationBasis(corner_marks=((0, 1, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0), "
        "(0, -1, 0), (0, -1, 0), (0, -1, 0), (0, -1, 0)), edge_marks=((0, 1, 0), "
        "(0, 1, 0), (0, 1, 0), (0, 1, 0), (0, 0, -1), (0, 0, -1), (0, 0, 1), (0, 0, 1), "
        "(0, -1, 0), (0, -1, 0), (0, -1, 0), (0, -1, 0)))",
    ),
    "MonomialMap": (
        lambda: MonomialMap(3, Permutation([2, 1]), (0, 2)),
        "MonomialMap(root_order=3, perm=Permutation([2, 1]), exps=(0, 2))",
    ),
    "ConjMonomialMap": (
        lambda: ConjMonomialMap(
            6, Permutation([1]), (-1,), Permutation([2, 1]), (1, 5), (0, 1)
        ),
        "ConjMonomialMap(root_order=6, sign_perm=Permutation([1]), signs=(-1,), "
        "rot_perm=Permutation([2, 1]), rot_exps=(1, 5), flags=(0, 1))",
    ),
    "DecoratedPerm": (
        lambda: DecoratedPerm((0, 1), Permutation([1]), Permutation([2, 1])),
        "DecoratedPerm(flags=(0, 1), sigma_p=Permutation([1]), sigma_q=Permutation([2, 1]))",
    ),
    "G2Element": (
        lambda: G2Element((1, 2) + (0,) * 6, Permutation([2, 1, 3, 4, 5, 6, 7, 8])),
        "G2Element(twist=(1, 2, 0, 0, 0, 0, 0, 0), perm=Permutation([2, 1, 3, 4, 5, 6, 7, 8]))",
    ),
    "G3Element": (
        lambda: G3Element(
            (1, 1) + (0,) * 10, (0,) * 8, (Permutation.identity(12), Permutation.identity(8))
        ),
        "G3Element(flip=(1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), twist=(0, 0, 0, 0, 0, 0, 0, 0), "
        "pair=(Permutation([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]), "
        "Permutation([1, 2, 3, 4, 5, 6, 7, 8])))",
    ),
    "CheckResult": (
        lambda: CheckResult("prop-2.2-t1", "a claim", "pass", "1", "1", "Prop 2.2"),
        "CheckResult(id='prop-2.2-t1', claim='a claim', status='pass', expected='1', "
        "actual='1', paper_ref='Prop 2.2')",
    ),
}


@pytest.mark.parametrize("name", SAMPLES)
def test_a_record_behaves_as_a_frozen_dataclass(name):
    make, text = SAMPLES[name]
    x = make()
    cls = type(x)
    assert cls.__name__ == name
    assert repr(x) == text  # the repr pins the field names and their order
    values = tuple(getattr(x, f) for f in x._fields)

    by_position, by_keyword = cls(*values), cls(**dict(zip(x._fields, values)))
    for y in (by_position, by_keyword, make()):
        assert y == x and not y != x
        assert hash(y) == hash(x)
    assert hash(x) == hash(values)  # a one-field record hashes a 1-tuple
    assert x.__eq__(object()) is NotImplemented
    assert x != values

    for f, v in zip(x._fields, values):
        with pytest.raises(AttributeError):
            setattr(x, f, v)
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert tuple(getattr(x, f) for f in x._fields) == values

    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    with pytest.raises(TypeError):  # the first field by position and by name
        cls(*values[:1], **dict(zip(x._fields, values)))

    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text
        assert vars(y) == vars(x)


def test_keyword_and_positional_builds_normalise_alike():
    """``__post_init__`` runs however the fields were bound: a word's tokens
    become a tuple, and a group's cyclic orders are sorted."""
    tokens = [("U", 1), ("R", 3)]
    for word in (MoveWord(tokens=tokens), MoveWord(tokens)):
        assert word.tokens == (("U", 1), ("R", 3)) and word == SAMPLES["MoveWord"][0]()
        assert hash(word) == hash(SAMPLES["MoveWord"][0]())
    for group in (FiniteAbelianGroup(cyclic_orders=[6, 2, 4]), FiniteAbelianGroup((6, 2, 4))):
        assert group.cyclic_orders == (2, 4, 6) and group == FiniteAbelianGroup((2, 4, 6))


def test_derived_and_cached_attributes_stay_out_of_equality():
    basis = SAMPLES["OrientationBasis"][0]()
    bare = trusted(OrientationBasis, corner_marks=basis.corner_marks, edge_marks=basis.edge_marks)
    assert "corner_places" in vars(basis) and "corner_places" not in vars(bare)
    assert bare == basis and hash(bare) == hash(basis) and repr(bare) == repr(basis)
    # the sums' mark tables are built on first use, and only then
    tables = ("corner_table", "edge_table")
    assert not set(tables) & (vars(basis).keys() | vars(bare).keys())
    invariant_t(CubeState.solved(3), basis)
    assert "edge_table" in vars(basis) and "corner_table" not in vars(basis)
    invariant_s(CubeState.solved(2), basis)
    assert set(tables) <= vars(basis).keys() and not set(tables) & vars(bare).keys()
    assert bare == basis and hash(bare) == hash(basis) and repr(bare) == repr(basis)

    cached, fresh = FiniteAbelianGroup((4, 2)), FiniteAbelianGroup((2, 4))
    assert cached.invariant_factors == (2, 4)
    assert "invariant_factors" in vars(cached) and "invariant_factors" not in vars(fresh)
    assert cached == fresh and hash(cached) == hash(fresh) and repr(cached) == repr(fresh)


def test_a_check_result_is_a_hashable_record_of_its_fields():
    result = SAMPLES["CheckResult"][0]()
    assert list(result.to_dict().items()) == [
        ("id", "prop-2.2-t1"), ("claim", "a claim"), ("status", "pass"),
        ("expected", "1"), ("actual", "1"), ("paper_ref", "Prop 2.2"),
    ]
    assert len({result, SAMPLES["CheckResult"][0]()}) == 1


def test_importing_the_package_loads_every_module_and_no_code_generator():
    """``import cubereps`` in a fresh interpreter, without ``site``: every
    submodule but the command line's is loaded, and neither ``dataclasses``
    nor ``inspect`` is."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import cubereps; "
        "print('\\n'.join(sorted(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    loaded = set(run.stdout.split())
    submodules = {f"cubereps.{p.stem}" for p in (SRC / "cubereps").glob("*.py")} - {
        "cubereps.__init__", "cubereps.cli"
    }
    assert submodules <= loaded, sorted(submodules - loaded)
    assert not {"dataclasses", "inspect"} & loaded
