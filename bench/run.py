"""The cubereps benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload certify|words|queries --seed N \\
        --seconds S --trace 0|1 [--negative-control]

Run it from the root of a source checkout.  The program is used from
``src/`` as it is; every unit of work runs in a fresh interpreter, since a
user pays the package's import-time set-up on every ``cubereps`` call.

- ``certify``: ``python3 -m cubereps.cli verify --seed N --json`` once as a
  subprocess, which must pass 42/42; then fresh processes run the same 42
  checks one by one over a shared ``verify.Context``, and each must
  reproduce the CLI report byte for byte.
- ``words``: a closed loop with one client over a seeded stream of word
  pairs; each op simulates w1, w2 and w1 w2, decodes all three and checks
  multiplicativity plus the generator cycles of eq-2.1/eq-3.1.
- ``queries``: a fresh process per pass runs a fixed mix of three classes
  (order, word, algebra), each timed on its own; a fourth class, mdim, runs
  once per run after the passes, in a process of its own.

A run makes a fixed number of units, ``--seconds`` over the workload's
nominal unit time, so that the sample size does not depend on the speed of
the program or the machine.  With ``--trace 0`` the last line carries the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` the
per-layer metrics, from traced units (see ``tracer.py``) alternating with
untraced units of the same work.  Every time is scaled to a reference
machine speed (see ``pace.py``).  ``--negative-control`` runs ``words`` on
a tampered move table and must report failures.  Lines before the last are
for people: the query classes, the reference task's speed, the slowest
oracle queries and the failure fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from pace import REFERENCE_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build"
WORKER = BENCH_DIR / "worker.py"

# at least this many import probes per run, spread over the run, so that
# the median spans it rather than one moment of a noisy machine
SETUP_SAMPLES = 15
# every process of a run ends by then, so that the run ends within 180 s
DEADLINE_S = 170
# Seconds one unit takes (fresh interpreter included) on a 2-vCPU Xeon VM
# under Python 3.11.7.  A run makes ``--seconds / UNIT_S`` units, and at
# least MIN_UNITS, on every machine and commit alike.
UNIT_S = {"certify": 9.0, "words": 1.5, "queries": 3.2}
MIN_UNITS = 3
WORKLOAD_SCOPED = ("verify.check.", "queries.")
# the items whose latencies are the workload's op latencies
OP_LABEL = {"certify": "check", "words": "pair", "queries": "algebra"}

# the reference probe runs right after the import, so that the modules
# pace.py needs are not loaded before the timed import
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import cubereps\n"
    "dt = time.perf_counter() - t\n"
    f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
    "import pace\n"
    "pace.reference_task()\n"
    "print(cubereps.__file__)\n"
    "print(repr(dt * pace.REFERENCE_S / pace.probe()))\n"
)


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # bytecode is cached inside the checkout, as an installed package's is
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(SCRATCH / "pycache")
    return env


def run_child(argv: list[str], timeout: float) -> tuple[int, str, float, float]:
    """Run one process to completion: (exit code, stdout, wall s, peak RSS MB)."""
    with tempfile.TemporaryFile(dir=SCRATCH) as out, \
            tempfile.TemporaryFile(dir=SCRATCH) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(max(1, int(timeout)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode()
        if proc.returncode != 0:
            sys.stderr.write(err.read().decode()[-2000:])
    return proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def import_time() -> float:
    """Seconds to import cubereps in a fresh interpreter, scaled to the
    reference speed; checks that the package comes from this checkout's
    src/."""
    code, out, _, _ = run_child([sys.executable, "-c", IMPORT_PROBE], 60)
    lines = out.split()
    if code != 0 or len(lines) != 2:
        raise BenchError("cubereps does not import from src/")
    if not Path(lines[0]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"cubereps imported from {lines[0]}, not from src/")
    return float(lines[1])


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float, tamper: bool):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.tamper = tamper
        self.report = SCRATCH / f"certify-{seed}-{os.getpid()}.json"

    def remaining(self) -> float:
        return max(1.0, self.deadline - perf_counter())

    def mdim(self, traced: bool) -> dict:
        """The mdim class, once, with what is left of the run's time.  A
        query that the deadline cuts off counts as failed and is named."""
        argv = [sys.executable, str(WORKER), "mdim", "--seed", str(self.seed)]
        if traced:
            argv.append("--trace")
        code, out, _, rss = run_child(argv, self.remaining())
        try:
            lines = [json.loads(line) for line in out.splitlines()]
        except ValueError as exc:
            raise BenchError(f"mdim worker printed garbage: {exc}") from None
        if not lines or "draw" not in lines[0]:
            raise BenchError(f"mdim worker exited with {code} before its draw")
        draw = lines[0]["draw"]
        done = [line for line in lines if "group" in line]
        if code == 0:
            unit = lines[-1]
        elif code == -signal.SIGKILL and len(done) < len(draw):
            # the deadline fell inside a query; the queries after it never ran
            print(f"# mdim query on {draw[len(done)]} cut off at the run's deadline; "
                  f"{len(draw) - len(done) - 1} later queries not run")
            unit = {"attempted": len(done) + 1,
                    "failed": sum(not d["ok"] for d in done) + 1,
                    "items": [("mdim", d["seconds"]) for d in done], "probe_s": []}
        else:
            raise BenchError(f"worker mdim exited with {code}")
        unit["peak_rss_mb"] = rss
        unit["draw"] = [(d["group"], d["seconds"]) for d in done]
        return unit

    def worker(self, *extra: str) -> dict:
        argv = [sys.executable, str(WORKER), *extra]
        code, out, _, rss = run_child(argv, self.remaining())
        if code != 0:
            raise BenchError(f"worker {' '.join(extra)} exited with {code}")
        unit = last_json(out)
        unit["peak_rss_mb"] = rss
        return unit

    def certify_cli(self) -> dict:
        """The certificate itself: the CLI in a fresh process, whose report
        every check-by-check unit of the run must reproduce."""
        argv = [sys.executable, "-m", "cubereps.cli", "verify",
                "--seed", str(self.seed), "--json"]
        code, out, wall, rss = run_child(argv, self.remaining())
        failed = code != 0
        try:
            summary = json.loads(out)["summary"]
            failed = failed or summary["pass"] != 42 or summary["total"] != 42
        except (ValueError, KeyError):
            failed = True
        self.report.write_text(out)
        print(f"# cubereps verify --seed {self.seed} --json: exit {code}, {wall:.3f} s")
        return {"attempted": 1, "failed": int(failed), "peak_rss_mb": rss}

    def unit(self, traced: bool) -> dict:
        extra = ["--seed", str(self.seed)]
        if self.workload == "certify":
            extra += ["--report", str(self.report)]
        if traced:
            extra.append("--trace")
        if self.tamper:
            extra.append("--tamper")
        return self.worker(self.workload, *extra)


def unit_count(workload: str, seconds: float) -> int:
    """Units of one run: fixed by the workload and ``--seconds`` alone."""
    return max(MIN_UNITS, round(seconds / UNIT_S[workload]))


def typical(units: list[dict]) -> list[tuple[str, float]]:
    """Each item's median time over the run's units.

    Every unit repeats the same items (ops, queries, checks) in the same
    order.  A shared machine's speed moves by tens of percent within a
    second, both ways, so the median repeat of each item is its typical
    time; the fastest repeat would reward a run that happened to catch a
    fast moment.
    """
    labels = [label for label, _ in units[0]["items"]]
    if any([label for label, _ in u["items"]] != labels for u in units):
        raise BenchError("units of one run did different work")
    return [(label, statistics.median(u["items"][i][1] for u in units))
            for i, label in enumerate(labels)]


def class_times(items: list[tuple[str, float]]) -> dict[str, float]:
    """The queries classes, each timed on its own."""
    total = {}
    for label, seconds in items:
        key = "algebra" if label == "algebra-setup" else label
        total[key] = total.get(key, 0.0) + seconds
    ops = [t for label, t in items if label == "algebra"]
    out = {f"{k}_s": v for k, v in total.items()}
    out["algebra_ops_per_s"] = len(ops) / sum(ops)
    return out


def end_to_end(workload: str, items: list[tuple[str, float]],
               setup_s: float) -> dict[str, float]:
    ops = [t for label, t in items if label == OP_LABEL[workload]]
    return {
        "setup_s": setup_s,
        "wall_s": sum(t for _, t in items),
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_us": statistics.median(ops) * 1e6,
        "op_p99_us": statistics.quantiles(ops, n=100, method="inclusive")[98] * 1e6,
    }


def per_layer(workload: str, traced: list[dict], untraced: list[dict],
              history: dict, mdim: dict | None) -> dict[str, float]:
    """Median over traced units of every layer metric, plus the traced mdim
    class, the per-check times, the query classes, the word-history
    counters and the tracing overhead against the untraced units run
    alternately with the traced ones."""
    out: dict[str, float] = {}
    for key in traced[0]["layers"]:
        out[key] = statistics.median(u["layers"][key] for u in traced)
    for key, value in (mdim or {}).get("layers", {}).items():
        out[key] += value  # the repeated classes never call the oracle
    for key in traced[0].get("checks", {}):
        out[f"verify.check.{key}_s"] = statistics.median(u["checks"][key] for u in traced)
    if workload == "queries":
        items = typical(traced) + mdim["items"]
        out.update({f"queries.{k}": v for k, v in class_times(items).items()})
    out.update(history)
    out["trace.wall_s"] = sum(t for _, t in typical(traced))
    out["trace.untraced_wall_s"] = sum(t for _, t in typical(untraced))
    out["trace.overhead_frac"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
    return out


def report_lines(units: list[dict], items: list[tuple[str, float]],
                 mdim: dict | None) -> None:
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    print(f"# processes {len(units)}, ops {attempted}, fail_frac {failed / attempted:.6f}")
    probes = [p for u in units for p in u.get("probe_s", ())]
    print(f"# reference task: median {statistics.median(probes) * 1e3:.4f} ms over "
          f"{len(probes)} probes, reference {REFERENCE_S * 1e3:.4f} ms; times are "
          "scaled to the reference speed")
    if mdim is not None:
        print("# query classes (median repeat of each query): " + ", ".join(
            f"{k} {v:.6g}" for k, v in class_times(items).items()))
        print("# mdim groups (s, both fields): " + "; ".join(
            f"{g} {t:.4f}" for g, t in mdim["draw"]))
    queries = sorted((q for u in units for q in u.get("oracle_queries", [])),
                     key=lambda q: -q[2])
    for group, field, seconds in queries[:5]:
        print(f"# oracle {group} {field}: {seconds:.4f} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "words", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="words on a tampered U table; failures expected")
    args = parser.parse_args()
    if args.negative_control and args.workload != "words":
        parser.error("--negative-control applies to the words workload")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cubereps" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a cubereps checkout with src/cubereps and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    SCRATCH.mkdir(exist_ok=True)

    runner = Runner(args.workload, args.seed, perf_counter() + DEADLINE_S,
                    args.negative_control)
    count = unit_count(args.workload, args.seconds)
    with_mdim = args.workload == "queries"
    try:
        import_time()  # fills the bytecode cache and checks the import path
        units: list[dict] = []
        if args.workload == "certify":
            units.append(runner.certify_cli())
        if args.trace:
            # untraced and traced units alternate, so both see the same machine
            untraced: list[dict] = []
            traced: list[dict] = []
            # half the units are traced, and at least two
            for _ in range(max(2, count // 2)):
                untraced.append(runner.unit(traced=False))
                traced.append(runner.unit(traced=True))
            history = {}
            for kind in ("cold", "warm"):
                history.update(runner.worker("history", "--kind", kind))
            mdim = runner.mdim(traced=True) if with_mdim else None
            units += untraced + traced
            items = typical(traced) + (mdim["items"] if mdim else [])
            values = per_layer(args.workload, traced, untraced, history, mdim)
            names = spec["per_layer"]
        else:
            probes = -(-SETUP_SAMPLES // count)  # after each unit
            setup = [import_time() for _ in range(probes)]
            measured = []
            for _ in range(count):
                measured.append(runner.unit(traced=False))
                setup += [import_time() for _ in range(probes)]
            mdim = runner.mdim(traced=False) if with_mdim else None
            units += measured
            items = typical(measured) + (mdim["items"] if mdim else [])
            values = end_to_end(args.workload, items, statistics.median(setup))
            names = spec["end_to_end"]
        if mdim:
            units.append(mdim)
        values["peak_rss_mb"] = max(u["peak_rss_mb"] for u in units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.report.unlink(missing_ok=True)

    # per-check times and query classes exist only on their own workload
    missing = [m["name"] for m in names if m["name"] not in values
               and not m["name"].startswith(WORKLOAD_SCOPED)]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    report_lines(units, items, mdim)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in names}
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
