"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output); the assertions pin the exact values and tolerances.
Everything here is exact arithmetic, so every tolerance is equality.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cubereps import abelian, cli, cube, replib, structure, verify
from cubereps.cube import CubeState, apply_word, random_basis, random_word
from cubereps.perm import Permutation
from cubereps.structure import (
    SubgroupTag,
    alpha,
    build_m,
    edge_three_cycle,
    encode_g2,
    g2_mul,
    membership,
    phi,
    psi,
    section_g2_in_g3,
    word_element_g2,
    word_element_g3,
)

SOLVED2 = CubeState.solved(2)
SOLVED3 = CubeState.solved(3)

# sha256 of ``cubereps verify --json --seed 42``: the report is pinned byte
# for byte, so a refactor that changes any check's output fails here
REPORT_42_SHA256 = "84d166eefc7f68a8a00f60f0e097b841cef6614d3f2fd456cb8047c9a589a4a9"

G2_ORDER = 3**7 * math.factorial(8)
G3_ORDER = 2**11 * 3**7 * math.factorial(12) * math.factorial(8) // 2
P_ORDER = math.factorial(12) * math.factorial(8) // 2


@pytest.fixture(scope="module")
def ctx():
    return verify.Context(seed=42)


def _report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion-{n}{': ' + detail if detail else ''}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_generator_tables():
    start = time.time()
    phi_table = {
        "U": "(1342)", "D": "(5687)", "F": "(1265)",
        "B": "(3784)", "L": "(1573)", "R": "(2486)",
    }
    beta_table = {
        "U": "(abcd)", "D": "(ilkj)", "B": "(aeif)",
        "F": "(cgkh)", "R": "(bfjg)", "L": "(dhle)",
    }
    checks = 0
    for face, cycle in phi_table.items():
        got = cube.corner_permutation(apply_word(SOLVED2, face))
        assert got == Permutation.from_cycles(cycle, 8), face
        checks += 1
    for face, cycle in beta_table.items():
        got = cube.edge_permutation(apply_word(SOLVED3, face))
        assert got == Permutation.from_cycles(cycle, 12), face
        checks += 1
    elapsed = time.time() - start
    _report(1, checks == 12 and elapsed < 1.0, f"12 exact generator images in {elapsed:.2f}s")


def test_criterion_2_constructive_words():
    t1 = phi(structure.WORD_T1)
    ok_t1 = t1 == Permutation.from_cycles("(34)", 8)
    edges_h, corners_h = alpha(structure.WORD_H1)
    ok_h = edges_h == Permutation.from_cycles("(abc)", 12) and corners_h.is_identity()
    abf = word_element_g3(edge_three_cycle("abf"))
    ok_abf = abf.pair[0] == Permutation.from_cycles("(abf)", 12) and membership(
        SubgroupTag.N, abf
    )
    m_el = word_element_g3(build_m())
    ok_m = (
        m_el.pair[0].is_identity()
        and m_el.pair[1].is_identity()
        and m_el.flip == (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0)
        and not any(m_el.twist)
    )
    _report(
        2,
        ok_t1 and ok_h and ok_abf and ok_m,
        f"t1={t1.cycle_string()}, h=((abc),1), [h1,h2]=(abf), m flips c,g",
    )


def test_criterion_3_orders_dual_method(ctx):
    start = time.time()
    via_cosets = 3**7 * ctx.chain("corner-group").order()
    via_stickers2 = ctx.chain("g2").order()
    ok_g2 = via_cosets == via_stickers2 == G2_ORDER == 88179840
    via_stickers3 = ctx.chain("g3").order()
    ok_g3 = via_stickers3 == G3_ORDER == 43252003274489856000
    via_pairs = ctx.chain("p").order()
    ok_p = via_pairs == P_ORDER
    elapsed = time.time() - start
    _report(
        3,
        ok_g2 and ok_g3 and ok_p and elapsed < 30,
        f"|G2|={via_stickers2}, |G3|={via_stickers3}, |P|={via_pairs} in {elapsed:.1f}s",
    )


def test_criterion_4_invariants():
    rng = random.Random(42)
    failures = 0
    for _ in range(10000):
        w = random_word(rng, rng.randrange(1, 30))
        if cube.invariant_s(apply_word(SOLVED2, w)) != 0:
            failures += 1
    for _ in range(10000):
        w = random_word(rng, rng.randrange(1, 30))
        st = apply_word(SOLVED3, w)
        if cube.invariant_s(st) != 0 or cube.invariant_t(st) != 0:
            failures += 1
    for _ in range(100):
        w = random_word(rng, rng.randrange(1, 25))
        st = apply_word(SOLVED3, w)
        b1, b2 = random_basis(rng), random_basis(rng)
        if cube.invariant_s(st, b1) != cube.invariant_s(st, b2):
            failures += 1
        if cube.invariant_t(st, b1) != cube.invariant_t(st, b2):
            failures += 1
    _report(4, failures == 0, f"{failures} failures in 20100 trials")


def test_criterion_5_splittings():
    rng = random.Random(43)
    failures = 0
    for _ in range(1000):
        w1, w2 = random_word(rng, rng.randrange(1, 12)), random_word(rng, rng.randrange(1, 12))
        lhs = encode_g2(apply_word(SOLVED2, w1.then(w2)))
        rhs = g2_mul(encode_g2(apply_word(SOLVED2, w2)), encode_g2(apply_word(SOLVED2, w1)))
        if lhs != rhs:
            failures += 1
    from cubereps.structure import g3_mul

    for _ in range(1000):
        x = word_element_g2(random_word(rng, rng.randrange(1, 10)))
        y = word_element_g2(random_word(rng, rng.randrange(1, 10)))
        if section_g2_in_g3(g2_mul(x, y)) != g3_mul(section_g2_in_g3(x), section_g2_in_g3(y)):
            failures += 1
        img = section_g2_in_g3(x)
        if psi(img) != x or not membership(SubgroupTag.P, img):
            failures += 1
    _report(5, failures == 0, f"{failures} failures in 2000 homomorphism trials")


def test_criterion_6_abelian_mdim():
    start = time.time()
    mismatches = 0
    count = 0
    for g in verify._all_abelian_groups(200):
        count += 1
        if abelian.oracle_min_faithful(g, "complex") != abelian.mdim_complex_abelian(g):
            mismatches += 1
        if abelian.oracle_min_faithful(g, "real") != abelian.mdim_real_abelian(g):
            mismatches += 1
    corner, _ = abelian.zk0m(3, 8)
    ok_corner = (
        abelian.mdim_complex_abelian(corner) == 7
        and abelian.mdim_real_abelian(corner) == 14
    )
    both = abelian.FiniteAbelianGroup(tuple([2] * 11 + [3] * 7))
    ok_factors = both.invariant_factors == (2, 2, 2, 2, 6, 6, 6, 6, 6, 6, 6)
    elapsed = time.time() - start
    _report(
        6,
        mismatches == 0 and ok_corner and ok_factors and elapsed < 60,
        f"{count} groups, {mismatches} mismatches in {elapsed:.1f}s",
    )


def test_criterion_7_headline_dimensions():
    rep2 = replib.build_rep_g2()
    ok_c2 = (
        replib.faithful_structural(rep2, cube.default_tables(2).face_tables)
        and rep2.degree == 8
        and replib.lower_bound_complex_split(("S", 8)) == 8
    )
    cases = replib.g2_real_case_analysis()
    real2 = replib.realify(rep2)
    ok_r2 = cases == {"q_case": 16, "p_case": 22, "bound": 16} and real2.real_dimension == 16
    rep3 = replib.build_rep_g3()
    ok_c3 = (
        replib.faithful_structural(rep3, cube.default_tables(3).face_tables)
        and rep3.degree == 20
        and replib.mu(("x", [("A", 8), ("A", 12)])) == 20
    )
    table = replib.g3_real_case_table()
    ok_table = (
        table["rows"]
        == [
            ("1", "1", 20, 20, 60),
            ("1 x A8", "A12 x 1", 12, 8, 28),
            ("A12 x 1", "1 x A8", 8, 12, 32),
            ("1", "A8 x A12", 20, 2, 24),
            ("A8 x A12", "1", 2, 20, 42),
            ("1", "P", 20, 0, 20),
            ("P", "1", 0, 20, 40),
        ]
        and table["refined"] == {3: 48, 5: 48}
        and table["bound"] == 28
    )
    _report(
        7,
        ok_c2 and ok_r2 and ok_c3 and ok_table,
        "mdim(G2)=(8,16), mdim(G3)=(20,28), table exact",
    )


def test_criterion_8_exceptional_example():
    start = time.time()
    ex = replib.ExceptionalExample()
    ok_count = len(ex.elements) == 648
    ok_faithful4 = replib.faithful_enumerated(ex.rep4.of, ex.elements)
    norm = replib.character_norm(ex.rep4.of, ex.elements)
    fs = replib.frobenius_schur(ex.rep4.of, ex.elements, ex.mul)
    ok_faithful6 = replib.faithful_enumerated(ex.rep6.of, ex.elements)
    ok_dims = ex.rep6.real_dimension == 6 < 8 == 2 * ex.rep4.degree
    elapsed = time.time() - start
    _report(
        8,
        ok_count and ok_faithful4 and norm == 1 and fs != 1 and ok_faithful6
        and ok_dims and elapsed < 10,
        f"648 elements, norm={norm}, indicator={fs}, dims 4/6 in {elapsed:.1f}s",
    )


def test_criterion_9_negative_controls():
    bad_rep = replib.zeroed_corner_rep()
    ok_rep = not replib.faithful_structural(bad_rep, cube.default_tables(2).face_tables)
    twisted = cube.twist_corner(SOLVED2, 1, 1)
    ok_twist = cube.invariant_s(twisted) == 1
    tables = dict(cube.default_tables(2).face_tables)
    inverse_u = [0] * len(tables["U"])
    for i, j in enumerate(tables["U"]):
        inverse_u[j] = i
    tables["U"] = tuple(inverse_u)
    tampered = verify.Context(seed=0, tables2=cube.MoveTables(2, tables))
    results = verify.run_suite(tampered, "eq-2.1-phi-gens")
    ok_tampered = results[0].status == "fail"
    _report(
        9,
        ok_rep and ok_twist and ok_tampered,
        "zeroed rep unfaithful, single twist s=[1], tampered table caught",
    )


def test_criterion_10_determinism(capsys):
    # the second run is a fresh process, overlapped with the in-process run;
    # its stderr goes to pytest's capture
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    fresh = subprocess.Popen(
        [sys.executable, "-m", "cubereps.cli", "verify", "--json", "--seed", "42"],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    code1 = cli.main(["verify", "--json", "--seed", "42"])
    out1 = capsys.readouterr().out
    out2 = fresh.communicate(timeout=300)[0]
    code2 = fresh.returncode
    payload = json.loads(out1)
    with capsys.disabled():
        _report(
            10,
            code1 == code2 == 0
            and out2 == out1.encode()
            and payload["summary"]["fail"] == 0,
            f"byte-identical reports in process and in a fresh process, "
            f"{payload['summary']['pass']} checks",
        )
    assert hashlib.sha256(out1.encode()).hexdigest() == REPORT_42_SHA256
