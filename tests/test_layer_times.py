"""Smoke test of tools/layer_times.py, the per-layer timer."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_times.py"

LAYERS = {
    "apply_word_2x2_20", "apply_word_2x2_40", "apply_word_3x3_20", "apply_word_3x3_40",
    "sticker_perm_of_word_3x3_20", "encode_g2", "encode_g3", "invariant_s",
    "invariant_t", "basis_sums", "g2_mul", "g3_mul", "g3_inv", "conjugate_12",
    "pair_to_perm20", "chain_g3_48", "chain_p_20", "chain_g2_24", "chain_edge_12",
    "chain_corner_8", "p_contains_20", "faithful_g2",
    "faithful_g3", "realify_g3", "centre_g3", "commutator_closure",
    "edge_words", "default_tables", "exceptional", "rep6_images", "record_new", "word_new",
    "import",
}


def test_layer_times_prints_one_json_line_with_every_layer():
    run = subprocess.run(
        [sys.executable, str(TOOL), "--repeat", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    (line,) = run.stdout.splitlines()
    report = json.loads(line)
    assert report["repeat"] == 1
    assert set(report["times"]) == LAYERS
    assert all(t > 0 for t in report["times"].values())
    assert set(report["work"]) == {name for name in LAYERS if name.startswith("chain_")}
    for work in report["work"].values():
        assert set(work) == {"schreier_generators", "sifts", "level_generators", "kept_kb"}
        assert all(v > 0 for v in work.values())


def test_import_entry_times_cached_bytecode(monkeypatch, tmp_path):
    """The import probe caches bytecode even where the caller's environment
    says not to, and fills the cache before it is timed, so a timed import
    compiles nothing: it writes no bytecode file and rewrites none."""
    spec = importlib.util.spec_from_file_location("layer_times", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    import_s, calls = tool._import_timer(str(tmp_path))

    def cached():
        return {p: p.stat().st_mtime_ns for p in tmp_path.rglob("*.pyc")}

    before = cached()
    package = {p.name.split(".")[0] for p in before if p.parent.name == "cubereps"}
    assert {"__init__", "_record", "cube", "verify"} <= package
    assert calls == 1
    assert 0 < import_s() < 60
    assert cached() == before
