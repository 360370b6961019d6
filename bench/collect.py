"""Run the benchmark over several seeds and summarise it as one entry of the
bench trajectory.

    python3 bench/collect.py --seeds 1-10 [--workloads certify,words,queries]
        [--trace-seeds 1-3] [--label NAME] [--out bench/BENCH_<n>.json]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``.  The runs go round-robin, every
workload on one seed before the next seed, so that a slow spell of the
machine falls on all workloads alike.  For each end-to-end metric it
reports the median, the quartiles and the spread (quartile distance over
median, as ``statistics.quantiles(values, n=4)`` gives them); with
``--trace-seeds`` it also makes traced runs on those seeds and reports the
median of every per-layer metric and the tracing overhead.  It ends with
the negative control, which must report failures.  Machine facts are
recorded with the numbers, because they only mean something on the same
machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def one_run(workload: str, seed: int, seconds: int, trace: int, *extra: str) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]
    result["run_s"] = time.monotonic() - start
    return result


def summarise(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--trace-seeds", help="also make traced runs on these seeds")
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    trace_seeds = parse_seeds(args.trace_seeds) if args.trace_seeds else []
    entry = {"label": args.label, "machine": machine(), "run_seconds": spec["run_seconds"],
             "seeds": seeds, "trace_seeds": trace_seeds, "workloads": {}}
    all_runs: dict[tuple[str, int], list[dict]] = {(w, t): [] for w in workloads for t in (0, 1)}
    for trace, run_seeds in ((0, seeds), (1, trace_seeds)):
        for seed in run_seeds:
            for workload in workloads:
                result = one_run(workload, seed, spec["run_seconds"], trace)
                all_runs[workload, trace].append(result)
                print(f"{workload:8} seed {seed} trace {trace} ({result['run_s']:.0f} s): " + ", ".join(
                    f"{k} {v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]),
                    flush=True)
    for workload in workloads:
        runs = all_runs[workload, 0]
        e2e = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            e2e[name] = summarise([r["metrics"][name]["value"] for r in runs])
            e2e[name]["bound"] = metric["bound"]
            spread = e2e[name].get("spread")
            print(f"{workload:8} {name:12} median {e2e[name]['median']:.6g} "
                  f"spread {spread if spread is None else round(spread, 4)} "
                  f"bound {metric['bound']}", flush=True)
        section = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": e2e,
            "notes": {str(s): r["notes"] for s, r in zip(seeds, runs)},
            "run_s": {str(s): r["run_s"] for s, r in zip(seeds, runs)},
        }
        traced = all_runs[workload, 1]
        if traced:
            section["per_layer"] = {
                m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
                for m in spec["per_layer"]
            }
            section["traced_failed"] = sum(r["failed"] for r in traced)
            section["traced_notes"] = {str(s): r["notes"] for s, r in zip(trace_seeds, traced)}
            print(f"{workload:8} tracing overhead (median) "
                  f"{section['per_layer']['trace.overhead_frac']:.4f}", flush=True)
        entry["workloads"][workload] = section
    control = one_run("words", seeds[0], spec["run_seconds"], 0, "--negative-control")
    entry["negative_control"] = {
        "workload": "words", "seed": seeds[0], "attempted": control["attempted"],
        "failed": control["failed"], "fail_frac": control["failed"] / control["attempted"],
    }
    print(f"negative control: fail_frac {entry['negative_control']['fail_frac']:.4f}",
          flush=True)
    text = json.dumps(entry, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
