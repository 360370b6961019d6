import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cubereps import cli, cube
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
    # |A| = 512 but its socle has 256 elements, and the oracle searches
    # only the socle
    start = time.perf_counter()
    assert cli.main(["mdim", "abelian", "2,2,2,2,2,2,2,4"]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out == "complex: 8\nreal: 9\nmethod: formula=oracle\n"


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


def test_cli_mdim_zk0m(capsys):
    assert cli.main(["mdim", "zk0m:2,12", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complex"] == 11 and payload["real"] == 11


def test_cli_mdim_exceptional(capsys):
    assert cli.main(["mdim", "exceptional", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["complex"] == 4 and payload["real"] == 6


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
