import argparse
import ast
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubereps import cli, cube, replib, structure, verify
from cubereps.perm import Permutation
from cubereps.verify import Context, report_json, report_text, run_suite


def test_single_check_runs():
    ctx = Context(seed=1)
    results = run_suite(ctx, "eq-2.1-phi-gens")
    assert len(results) == 1
    assert results[0].status == "pass"
    assert results[0].paper_ref == "eq-2.1"


def test_glob_filter_selects_section():
    ctx = Context(seed=1, trials=20)
    results = run_suite(ctx, "prop-2.2-*")
    assert {r.id for r in results} == {
        "prop-2.2-phi-surjective",
        "prop-2.2-t1",
        "prop-2.2-t2-t3",
    }
    assert all(r.status == "pass" for r in results)


def test_unknown_filter_raises():
    with pytest.raises(KeyError):
        run_suite(Context(), "nonexistent")


def test_report_json_shape_and_determinism():
    ctx1 = Context(seed=3, trials=10)
    text1 = report_json(run_suite(ctx1, "prop-2.4-*"), ctx1)
    ctx2 = Context(seed=3, trials=10)
    text2 = report_json(run_suite(ctx2, "prop-2.4-*"), ctx2)
    assert text1 == text2
    payload = json.loads(text1)
    assert payload["summary"]["fail"] == 0
    for entry in payload["checks"]:
        assert set(entry) == {"id", "claim", "status", "expected", "actual", "paper_ref"}


def test_tampered_generator_table_fails_eq_21():
    tables = dict(cube.default_tables(2).face_tables)
    inverse_u = [0] * len(tables["U"])
    for i, j in enumerate(tables["U"]):
        inverse_u[j] = i
    tables["U"] = tuple(inverse_u)
    ctx = Context(seed=0, tables2=cube.MoveTables(2, tables))
    results = run_suite(ctx, "eq-2.1-phi-gens")
    assert results[0].status == "fail"
    assert "(1342)" not in results[0].actual.split("'U': ")[1].split(",")[0]


# every sampled check, by the label of its random stream
SAMPLED_LABELS = {
    "invariant-s", "basis-free", "conj-k", "k-maximal", "g2-model",
    "g2-section", "normal-k", "normal-l", "psi", "match-sign", "invariant-t",
    "conj-m", "m-maximal", "alphasplit", "g2-in-g3", "isom-p", "decorated-g2",
    "hominvfact", "g2-eigenlines",
}


def test_every_sampled_check_runs_its_trials_through_the_driver(monkeypatch):
    driven = {}
    sampled = verify._sampled

    def counting(ctx, label, default, draw, failures):
        driven[label] = 0

        def counted_draw(rng):
            driven[label] += 1
            return draw(rng)

        return sampled(ctx, label, default, counted_draw, failures)

    streams = []
    real_rng = Context.rng
    monkeypatch.setattr(verify, "_sampled", counting)
    monkeypatch.setattr(Context, "rng", lambda self, label: streams.append(label) or real_rng(self, label))
    ctx = Context(seed=1, trials=3)  # three trials for every sampled check
    for check_id in sorted(verify._CHECKS):
        before, streams[:] = dict(driven), []
        run_suite(ctx, check_id)
        labels = set(driven) - set(before)
        assert set(streams) == labels, check_id
    assert driven == {label: 3 for label in SAMPLED_LABELS}


def test_random_streams_open_only_inside_the_trial_driver():
    """``_sampled`` is the suite's one trial loop: verify.py calls ``.rng(``
    inside it and nowhere else, and the trial count is read there alone."""
    tree = ast.parse(Path(verify.__file__).read_text())
    driver = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_sampled")
    in_driver = set(map(id, ast.walk(driver)))
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "rng"]
    assert calls
    assert [node.lineno for node in calls if id(node) not in in_driver] == []
    assert not hasattr(Context, "count")


def _tampered_u_context(seed):
    """U also twists corner 1 in place: every sum invariant breaks."""
    tables = dict(cube.default_tables(2).face_tables)
    twist = cube.sticker_perm_of_twist(1, 1, 2)
    tables["U"] = cube.compose_sticker_perms(twist, tables["U"])
    return Context(seed=seed, tables2=cube.MoveTables(2, tables))


def _first_failure(actual, seed, label):
    match = re.search(rf"first at seed {seed}, {label} trial (\d+): (.*)", actual)
    assert match, actual
    return int(match.group(1)), re.findall(r'"([^"]*)"', match.group(2))


def _randrange_word(rng, length):
    """A word drawn by ``randrange`` alone, as the sampled checks' stream is
    specified, so a change to ``cube.random_word`` cannot replay itself."""
    return cube.MoveWord(tuple(
        (cube.FACES[rng.randrange(6)], rng.randrange(1, 4)) for _ in range(length)
    ))


def _replay(rng, count, stop):
    """The first ``count`` words a check drawing words below ``stop`` draws."""
    return [_randrange_word(rng, rng.randrange(1, stop)) for _ in range(count)]


def _randrange_basis(rng):
    corners = tuple(cube._normals(pos)[rng.randrange(3)] for pos in cube.CORNER_POS.values())
    edges = tuple(cube._normals(pos)[rng.randrange(2)] for pos in cube.EDGE_POS.values())
    return cube.OrientationBasis(corners, edges)


def _randrange_sum_zero(rng, length, modulus):
    values = [rng.randrange(modulus) for _ in range(length - 1)]
    return (*values, -sum(values) % modulus)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 80), st.integers(2, 81), st.sampled_from([2, 3]))
def test_draws_match_randrange_draw_for_draw(seed, length, stop, modulus):
    """Every sampled draw equals its ``randrange`` spelling and leaves the
    generator in the same state, so the reports' words and trials stay put."""
    fast, slow = random.Random(seed), random.Random(seed)
    draws = [
        (lambda rng: cube.random_word(rng, length), lambda rng: _randrange_word(rng, length)),
        (cube.random_basis, _randrange_basis),
        (lambda rng: verify._random_word(rng, stop),
         lambda rng: _randrange_word(rng, rng.randrange(1, stop))),
        (lambda rng: verify._random_sum_zero(rng, length + 1, modulus),
         lambda rng: _randrange_sum_zero(rng, length + 1, modulus)),
        (lambda rng: cube._below(rng.getrandbits, stop), lambda rng: rng.randrange(stop)),
        (lambda rng: cube._below(rng.getrandbits, 8), lambda rng: rng.randrange(8)),
    ]
    for draw, reference in draws:
        assert draw(fast) == reference(slow)
        assert fast.getstate() == slow.getstate()


def test_first_failure_names_a_replayable_word(capsys):
    ctx = _tampered_u_context(seed=7)
    result = run_suite(ctx, "prop-2.4-invariant-s")[0]
    assert result.status == "fail"
    index, words = _first_failure(result.actual, 7, "invariant-s")
    *earlier, printed = _replay(ctx.rng("invariant-s"), index + 1, 40)
    assert words == [str(printed)]
    assert cube.invariant_s(ctx.apply(2, printed)) != 0
    assert all(cube.invariant_s(ctx.apply(2, w)) == 0 for w in earlier)
    assert cube.invariant_s(cube.apply_word(cube.CubeState.solved(2), printed)) == 0
    assert cli.main(["apply", "2", words[0]]) == 0  # the CLI replays it
    capsys.readouterr()


def test_crashed_trial_reports_its_words():
    ctx = _tampered_u_context(seed=7)
    result = run_suite(ctx, "prop-2.7-model")[0]
    assert result.status == "fail"
    assert "raised UnreachableState" in result.actual
    index, words = _first_failure(result.actual, 7, "g2-model")
    pair = _replay(ctx.rng("g2-model"), 2 * (index + 1), 15)[-2:]
    assert words == [str(w) for w in pair]


@pytest.mark.parametrize("seed, trials", [(0, 5), (9, 1)])
def test_rank_checks_pass_at_any_trial_count(capsys, seed, trials):
    """The ranks are read off the normal closures of k and m, so the sampled
    conjugates no longer cap them."""
    assert cli.main(["verify", "--seed", str(seed), "--trials", str(trials)]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("42/42 checks passed")
    for id in ("prop-2.6-k-maximal", "prop-3.9-m-maximal"):
        assert f"PASS {id}" in out


def test_reproducer_prints_bases_that_rebuild():
    rng = random.Random(11)
    bases = [cube.REFERENCE_BASIS] + [cube.random_basis(rng) for _ in range(30)]
    for basis in bases:
        text = verify._show(basis)
        match = re.fullmatch(r"basis\(corners ([xyz]{8}), edges ([xyz]{12})\)", text)
        assert match, text
        # each letter names the axis of the marked normal; its sign is the position's
        rebuilt = [
            tuple(tuple(pos[a] if i == a else 0 for i in range(3))
                  for pos, a in zip(places.values(), map("xyz".index, axes)))
            for places, axes in ((cube.CORNER_POS, match[1]), (cube.EDGE_POS, match[2]))
        ]
        assert cube.OrientationBasis(*rebuilt) == basis
    sample = (cube.random_word(rng, 30), bases[1], bases[2], 4)
    assert len(verify._show(sample)) < 200


def test_basis_free_check_keeps_no_per_basis_tables():
    """Each drawn basis builds its own readers from the kinds' import-time
    sticker indices and colour table, which no basis changes, and drawing
    bases keeps nothing behind."""
    kinds = (cube._CORNERS, cube._EDGES)
    tables = [(kind.index, kind.home, dict(kind.home)) for kind in kinds]
    tracemalloc.start()
    try:
        result = run_suite(Context(seed=1), "prop-2.4-basis-free")[0]
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "pass", result.actual
    assert kept < 1_000_000  # a colour table per drawn basis keeps about 14 MB
    for kind, (index, home, content) in zip(kinds, tables):
        assert kind.index is index and kind.home is home and home == content
    assert (len(cube._CORNERS.home), len(cube._EDGES.home)) == (8 * 6, 12 * 2)


@pytest.mark.parametrize("trials", [None, 1])
def test_rank_checks_fail_on_a_trivial_generator(monkeypatch, trials):
    """The normal closures hold only k's (resp. m's) conjugates, so an
    identity k or m reads rank 0 however many conjugates are drawn."""
    identity = cube.MoveWord(())
    monkeypatch.setattr(verify.structure, "WORD_K", identity)
    monkeypatch.setattr(verify, "build_m", lambda: identity)
    for check_id in ("prop-2.6-k-maximal", "prop-3.9-m-maximal"):
        result = run_suite(Context(seed=1, trials=trials), check_id)[0]
        assert (result.status, result.actual) == ("fail", "rank 0"), check_id


SUPERFLIP = cube.word("U R2 F B R B2 R U2 L B2 R U' D' R2 F R' L B2 U2 F2")


@pytest.mark.parametrize("trials", [None, 1])
def test_m_maximal_fails_on_the_superflip(monkeypatch, trials):
    """The superflip is central, so every sampled conjugate stays in M; only
    its normal closure, of order 2, shows that it is no m."""
    assert structure.word_element_g3(SUPERFLIP) == structure.superflip()
    monkeypatch.setattr(verify, "build_m", lambda: SUPERFLIP)
    result = run_suite(Context(seed=1, trials=trials), "prop-3.9-m-maximal")[0]
    assert (result.status, result.actual) == ("fail", "rank 1")


def test_prop_4_1_names_the_generator_lists_of_its_first_failure(monkeypatch):
    """With a factor 5 appended to every subgroup's chain, all four subgroups
    of each of the 250 samples break the ladder, and the reproducer names
    trial 0's generator lists, one per group, in the draw order it replays."""
    passing = run_suite(Context(seed=1), "prop-4.1-hominvfact")[0]
    assert (passing.status, passing.expected, passing.actual) == ("pass", "all ladders divide", "0 failures")
    factors = verify.abelian.subgroup_invariant_factors
    monkeypatch.setattr(verify.abelian, "subgroup_invariant_factors", lambda g, gens: (*factors(g, gens), 5))
    result = run_suite(Context(seed=1), "prop-4.1-hominvfact")[0]
    match = re.fullmatch(r"1000 failures; first at seed 1, hominvfact trial 0: (.*)", result.actual)
    assert result.status == "fail" and match, result.actual
    rng, want = Context(seed=1).rng("hominvfact"), []
    for orders in ((2, 2, 8), (4, 6), (3, 9), (2, 2, 3, 3)):
        elements = list(itertools.product(*map(range, orders)))
        count = rng.randrange(4)
        want.append([elements[rng.randrange(len(elements))] for _ in range(count)])
    assert ast.literal_eval(f"({match[1]},)") == tuple(want)


def test_thm_5_1_names_the_first_permutation_off_its_eigenline(monkeypatch):
    """With the section sending s to the untwisted s^-1, the eigenlines are
    permuted by s^-1, so the first drawn s that is no involution is named."""
    passing = run_suite(Context(seed=1), "thm-5.1-g2-mdim")[0]
    assert (passing.status, passing.actual) == ("pass", str((True, 8, 8, 16, 22, 16, True, True)))
    monkeypatch.setattr(verify, "section_s8", lambda s: structure.section_s8(s.inverse()))
    result = run_suite(Context(seed=1), "thm-5.1-g2-mdim")[0]
    match = re.fullmatch(
        r"\(True, 8, 8, 16, 22, 16, True, False\); first at seed 1, g2-eigenlines trial (\d+): (.*)",
        result.actual,
    )
    assert result.status == "fail" and match, result.actual
    rng, drawn = Context(seed=1).rng("g2-eigenlines"), []
    for _ in range(int(match[1]) + 1):
        image = list(range(1, 9))
        rng.shuffle(image)
        drawn.append(Permutation(image))
    *earlier, first = drawn
    assert match[2] == first.cycle_string() and first != first.inverse()
    assert all(s == s.inverse() for s in earlier)


def _transitive(gens):
    orbit = {0}
    while (grown := orbit | {g[x] for g in gens for x in orbit}) != orbit:
        orbit = grown
    return len(orbit) == len(gens[0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3)))
def test_centralizer_matches_brute_force_over_s_n(gens):
    n = len(gens[0])
    brute = [c for c in itertools.permutations(range(n))
             if all(c[g[x]] == g[c[x]] for g in gens for x in range(n))]
    generators = [Permutation([v + 1 for v in g]) for g in gens]
    assert verify._centralizer(generators) == (brute if _transitive(gens) else None)


def _all_faces_u(size):
    """Every face turns as U does: the generated action is not transitive."""
    u = cube.default_tables(size).face_tables["U"]
    return cube.MoveTables(size, {f: u for f in cube.FACES})


@pytest.mark.parametrize("size, id", [(2, "rem-2.11-center-g2"), (3, "rem-3.14-center-g3")])
def test_centre_checks_fail_on_an_intransitive_action(size, id):
    ctx = Context(seed=0, **{f"tables{size}": _all_faces_u(size)})
    result = run_suite(ctx, id)[0]
    assert result.status == "fail"
    assert "not transitive" in result.actual
    assert "Error" not in result.actual


@pytest.mark.parametrize("kind, constants, lengthened", [
    ("_CORNERS", [0], [0, 1, 2]),
    ("_EDGES", [0, 1], [0]),
], ids=["corners", "edges"])
def test_central_constants_count_the_positions_of_the_cubelet_kind(kind, constants, lengthened):
    """8 corners admit no constant central twist and 12 edges admit the
    all-edge flip; a kind with one position more, 9 corners or 13 edges,
    would let every constant twist sum to 0 and keep the flip out."""
    kind = getattr(cube, kind)
    assert verify._central_constants(kind) == constants
    fields = {name: getattr(kind, name) for name in kind._fields}
    longer = cube._CubeletKind(**{**fields, "order": kind.order + kind.order[:1]})
    assert verify._central_constants(longer) == lengthened


def test_report_text_contains_counts():
    ctx = Context(seed=0, trials=5)
    text = report_text(run_suite(ctx, "prop-2.6-*"))
    assert "checks passed" in text


def test_cli_verify_filter(capsys):
    code = cli.main(["verify", "--filter", "eq-2.1-phi-gens", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_cli_verify_unknown_filter(capsys):
    code = cli.main(["verify", "--filter", "nope"])
    assert code == 2
    assert capsys.readouterr().err == "error: no check matches 'nope'\n"


def test_cli_apply(capsys):
    code = cli.main(["apply", "3", "U2 R' U2 R U R' U R", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["edge_permutation"] == "(abc)"
    assert payload["corner_permutation"] == "()"
    assert payload["invariant_s"] == 0 and payload["invariant_t"] == 0


def test_cli_apply_empty_word(capsys):
    code = cli.main(["apply", "2", "", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["corner_permutation"] == "()"
    assert payload["state"]["stickers"] == list(cube.CubeState.solved(2).stickers)


def test_cli_apply_composition(capsys):
    code = cli.main(["apply", "2", "U R", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    # corner action of the chronological word U R is (2486) o (1342)
    from cubereps.perm import Permutation, compose

    want = compose(
        Permutation.from_cycles("(2486)", 8), Permutation.from_cycles("(1342)", 8)
    )
    assert payload["corner_permutation"] == want.cycle_string()


def test_cli_order(capsys):
    assert cli.main(["order", "corner-group"]) == 0
    assert capsys.readouterr().out.strip() == "40320"
    assert cli.main(["order", "edge-group"]) == 0
    assert capsys.readouterr().out.strip() == "479001600"


def test_cli_mdim_abelian(capsys):
    assert cli.main(["mdim", "abelian", "3,3,3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complex"] == 3 and payload["real"] == 6


def test_cli_mdim_abelian_oracle_tail_finishes_quickly(capsys):
    # Z2^7 x Z4: |A| = 512 but its socle has 256 elements, and the oracle
    # searches only the socle; Z2^7 x Z3 and Z2 x Z3^5 are their own socles
    for orders, complex_dim, real_dim in [
        ("2,2,2,2,2,2,2,4", 8, 9),
        ("2,2,2,2,2,2,2,3", 7, 8),
        ("2,3,3,3,3,3", 5, 10),
    ]:
        start = time.perf_counter()
        assert cli.main(["mdim", "abelian", orders]) == 0
        assert time.perf_counter() - start < 5
        assert capsys.readouterr().out == (
            f"complex: {complex_dim}\nreal: {real_dim}\nmethod: formula=oracle\n"
        )


def test_cli_mdim_failed_certificate_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli.abelian, "oracle_min_faithful", lambda group, field: 0)
    assert cli.main(["mdim", "abelian", "4,6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mdim certificate failed: complex oracle equals the formula\n"


def test_cli_mdim_certificate_runs_under_python_O():
    """Under -O every assert is gone; the mdim certificates must still run."""
    script = (
        "import sys\n"
        "from cubereps import abelian, cli\n"
        "assert False, 'asserts are on'\n"
        "abelian.oracle_min_faithful = lambda group, field: 0\n"
        "sys.exit(cli.main(['mdim', 'abelian', '4,6']))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert "error: mdim certificate failed" in done.stderr


def test_json_and_typing_load_only_for_json_output():
    """``import cubereps`` loads neither ``json`` nor ``typing``, commands that
    print no JSON never load ``json``, and ``mdim --json`` still prints the
    canonical form.  The interpreter runs with -S, so that no site hook has
    loaded either module first."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'src')!r})\n"
        "import cubereps\n"
        "print(sorted({'json', 'typing'} & sys.modules.keys()))\n"
        "from cubereps import cli\n"
        "cli.main(['order', 'corner-group'])\n"
        "cli.main(['mdim', 'abelian', '2,3'])\n"
        "print('json' in sys.modules)\n"
        "cli.main(['mdim', 'g2', '--json'])\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, order, *abelian_dims, json_loaded, g2_json = done.stdout.splitlines()
    assert loaded == "[]"
    assert (order, abelian_dims) == ("40320", ["complex: 1", "real: 2", "method: formula=oracle"])
    assert json_loaded == "False"
    assert g2_json == '{"complex":8,"method":"split-bound+construction","real":16}'


def test_default_move_tables_are_built_on_first_use():
    """``import cubereps`` derives no move tables, a command that turns no
    face (``mdim abelian``) derives none either, and ``order`` derives both
    sizes' tables for its context."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'src')!r})\n"
        "import cubereps\n"
        "from cubereps import cli, cube\n"
        "print(sorted(cube._DEFAULT_TABLES))\n"
        "cli.main(['mdim', 'abelian', '2,3'])\n"
        "print(sorted(cube._DEFAULT_TABLES))\n"
        "cli.main(['order', 'corner-group'])\n"
        "print(sorted(cube._DEFAULT_TABLES))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    at_import, *abelian_dims, after_mdim, order, after_order = done.stdout.splitlines()
    assert (at_import, after_mdim) == ("[]", "[]")
    assert abelian_dims == ["complex: 1", "real: 2", "method: formula=oracle"]
    assert (order, after_order) == ("40320", "[2, 3]")


def test_cli_mdim_zk0m(capsys):
    assert cli.main(["mdim", "zk0m:2,12", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complex"] == 11 and payload["real"] == 11


def test_cli_mdim_exceptional(capsys):
    assert cli.main(["mdim", "exceptional", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complex"] == 4 and payload["real"] == 6


@pytest.mark.parametrize("group, complex_dim, real_dim, method", [
    ("g2", 8, 16, "split-bound+construction"),
    ("g3", 20, 28, "split-bound+case-table"),
])
def test_cli_mdim_cube_groups(capsys, group, complex_dim, real_dim, method):
    assert cli.main(["mdim", group]) == 0
    assert capsys.readouterr().out == f"complex: {complex_dim}\nreal: {real_dim}\nmethod: {method}\n"
    assert cli.main(["mdim", group, "--json"]) == 0
    assert capsys.readouterr().out == (
        f'{{"complex":{complex_dim},"method":"{method}","real":{real_dim}}}\n')


def test_cli_mdim_g2_fails_with_the_failing_thm_5_check(capsys, monkeypatch):
    monkeypatch.setattr(replib, "build_rep_g2", replib.zeroed_corner_rep)
    assert cli.main(["mdim", "g2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mdim certificate failed: thm-5.1-g2-mdim\n"


@pytest.mark.parametrize("fault, got", [
    ("zeroed", (False, 8, 8, 16, 22, 8, False, True)),  # all 8 coordinates are sign lines
    ("bumped", (False, 8, 8, 16, 22, 16, True, True)),  # only faithfulness fails
])
def test_thm_5_1_and_mdim_g2_fail_on_an_unfaithful_rep(capsys, monkeypatch, bumped_u_rep, fault, got):
    """The faithfulness conjunct is computed from the images, not declared."""
    build = {"zeroed": replib.zeroed_corner_rep, "bumped": bumped_u_rep}[fault]
    rep = Context.rep
    monkeypatch.setattr(Context, "rep", lambda self, size: build(self.tables[2]) if size == 2 else rep(self, size))
    result = run_suite(Context(seed=42), "thm-5.1-g2-mdim")[0]
    assert (result.status, result.actual) == ("fail", str(got))
    assert cli.main(["mdim", "g2"]) == 1
    assert capsys.readouterr().err == "error: mdim certificate failed: thm-5.1-g2-mdim\n"


def test_thm_5_2_and_mdim_g3_fail_when_an_edge_sign_becomes_a_rotation(capsys, monkeypatch, rotated_edge_rep):
    """With w^1 on edge 1 of U's image the derived real form has no sign line
    left (20 planes, real dimension 40), and the rep is not faithful."""
    rep = Context.rep
    monkeypatch.setattr(Context, "rep", lambda self, size: rotated_edge_rep(self.tables[3]) if size == 3 else rep(self, size))
    result = run_suite(Context(seed=42), "thm-5.2-g3-mdim")[0]
    assert (result.status, result.actual) == ("fail", str((False, 20, 20, 40)))
    assert cli.main(["mdim", "g3"]) == 1
    assert capsys.readouterr().err == "error: mdim certificate failed: thm-5.2-g3-mdim\n"


@pytest.mark.parametrize("argv, message", [
    (["mdim", "zk0m:3"], "mdim spec 'zk0m:3' is not of the form zk0m:K,M with integers K and M"),
    (["mdim", "zk0m:3,8,1"], "mdim spec 'zk0m:3,8,1' is not of the form zk0m:K,M with integers K and M"),
    (["mdim", "zk0m:a,b"], "mdim spec 'zk0m:a,b' is not of the form zk0m:K,M with integers K and M"),
    (["mdim", "abelian", "2,,3"], "mdim spec 'abelian 2,,3' is not of the form abelian N,N,... with integers N"),
    (["mdim", "abelian"], "mdim spec 'abelian' is not of the form abelian N,N,... with integers N"),
    (["verify", "--filter", "nomatch"], "no check matches 'nomatch'"),
])
def test_cli_names_a_malformed_spec_and_its_form(capsys, argv, message):
    """No Python internals (unpacking counts, int() literals, KeyError quotes)."""
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("spec", [
    ["abelian", "2,3", "5"], ["g2", "junk"], ["zk0m:3,8", "x"], ["exceptional", "extra", "words"],
])
def test_cli_mdim_rejects_words_after_the_spec(capsys, spec):
    assert cli.main(["mdim", *spec]) == 2
    captured = capsys.readouterr()
    extra = " ".join(spec[2 if spec[0] == "abelian" else 1:])
    assert (captured.out, captured.err) == ("", f"error: unexpected words after the mdim spec: {extra}\n")


def test_main_builds_no_parser_after_import(monkeypatch, capsys):
    """The command line is parsed by one parser, built when ``cli`` is imported."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert cli.main(["order", "corner-group"]) == 0
    assert cli.main(["mdim", "abelian", "2,3"]) == 0
    assert cli.main(["apply", "2", "U R"]) == 0
    assert cli.main(["apply", "2", "Q"]) == 2
    assert built == []


def test_the_shared_parser_carries_nothing_between_calls(capsys):
    assert cli.main(["mdim", "abelian", "2,3", "--json"]) == 0
    assert capsys.readouterr().out == '{"complex":1,"method":"formula=oracle","real":2}\n'
    assert cli.main(["mdim", "abelian", "2,3"]) == 0
    assert capsys.readouterr().out == "complex: 1\nreal: 2\nmethod: formula=oracle\n"
    for argv, seed in ((["--seed", "1"], 1), ([], 0)):
        assert cli.main(["verify", "--filter", "eq-2.1-phi-gens", *argv, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == seed


def test_cli_mdim_bad_spec(capsys):
    assert cli.main(["mdim", "quaternion"]) == 2


def test_cli_bad_word(capsys):
    assert cli.main(["apply", "2", "Q"]) == 2


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_cli_verify_rejects_trials_below_one(capsys, trials):
    # zero trials would let every randomized check pass on no evidence
    assert cli.main(["verify", "--trials", trials, "--filter", "prop-2.7-model"]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def test_context_rejects_trials_below_one():
    for trials in (0, -5):
        with pytest.raises(ValueError):
            Context(trials=trials)
    assert Context(trials=1).trials == 1 and Context().trials is None


@pytest.mark.parametrize("size, other", [(2, 3), (3, 2)])
def test_context_refuses_tables_of_the_other_size(size, other):
    with pytest.raises(ValueError, match=f"^tables{size} must be {size}x{size} move tables"):
        Context(**{f"tables{size}": cube.default_tables(other)})


def test_checks_read_words_only_through_the_context_tables(monkeypatch):
    """Every check, the constructive words and representations it certifies
    included, reads the Context's tables and never the defaults."""
    tables = {f"tables{size}": cube.MoveTables(size, dict(cube.default_tables(size).face_tables))
              for size in (2, 3)}

    def refuse(size):
        raise LookupError("default tables read")

    monkeypatch.setattr(cube, "default_tables", refuse)
    for seed, trials in ((0, 5), (42, None)):
        results = run_suite(Context(seed=seed, trials=trials, **tables))
        assert len(results) == len(verify._CHECKS) == 42
        failed = {r.id: r.actual for r in results if r.status == "fail"}
        assert not failed, (seed, failed)


def test_words_become_states_only_inside_the_context():
    """The Context's read methods are the suite's only word path: verify.py
    names the four word readers inside ``class Context`` and nowhere else."""
    readers = {"apply_word", "sticker_perm_of_word", "word_element_g2", "word_element_g3"}
    tree = ast.parse(Path(verify.__file__).read_text())
    context = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Context")
    in_context = set(map(id, ast.walk(context)))
    inside, outside = set(), []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in readers:
            if id(node) in in_context:
                inside.add(name)
            else:
                outside.append(f"{name} at line {node.lineno}")
    assert not outside
    assert inside == readers


@pytest.mark.parametrize("id", ["prop-2.8-normal-k", "thm-3.12-g2-in-g3"])
def test_element_checks_fail_on_a_tampered_table(id):
    """Their words are read as elements through the Context's 2x2 tables, where
    U also twists corner 1, so their states fail the twist-sum law."""
    assert run_suite(Context(seed=42), id)[0].status == "pass"
    assert run_suite(_tampered_u_context(42), id)[0].status == "fail"


@pytest.mark.parametrize(
    "spec",
    [
        ["abelian", "1000000000000000003"],  # one factor above 10**9
        ["abelian", ",".join(["2"] * 65)],  # 65 cyclic factors
        ["zk0m:2,100000000"],  # Z_2^(10^8 - 1)
        ["zk0m:1000000007,3"],
    ],
)
def test_cli_mdim_rejects_unfactorable_input(capsys, spec):
    start = time.perf_counter()
    assert cli.main(["mdim", *spec]) == 2
    assert time.perf_counter() - start < 1
    assert "at most 64 cyclic factors" in capsys.readouterr().err


@pytest.mark.parametrize("trials", [cli.MAX_TRIALS + 1, 10**9])
def test_cli_verify_rejects_trials_above_the_bound(capsys, trials):
    start = time.perf_counter()
    assert cli.main(["verify", "--trials", str(trials), "--filter", "prop-2.4-invariant-s"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"error: --trials takes at most 10000, got {trials}\n"


@pytest.mark.parametrize(
    "spec, dims",
    [
        (["abelian", ",".join(["2"] * 64)], (64, 64)),
        (["abelian", "999999937"], (1, 2)),  # the largest prime below 10**9
        (["zk0m:1000000000,65"], (64, 128)),
    ],
)
def test_cli_mdim_accepts_inputs_at_the_limits(capsys, spec, dims):
    assert cli.main(["mdim", *spec, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["complex"], payload["real"]) == dims
