"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads homology-berman --seeds 1-5 --seconds 10

Each run is ``run.py`` in a fresh interpreter, one after another, with the
run length from BENCHMARK.json unless ``--seconds`` is given. For every
metric it prints the median of the runs, the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, and that spread over the metric's bound. ``--out FILE`` writes
the runs and the summary with their provenance.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import git_sha  # noqa: E402
from workloads import LEFT_OUT  # noqa: E402

RUN_TIMEOUT = 300


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = json.loads(lines[-2])["raw_medians"]
    values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
    print(f"  {workload} seed {seed} ({elapsed:.1f} s): {values}  raw {raw}", flush=True)
    return {"seed": seed, "elapsed_s": elapsed, "raw_medians": raw, "result": result}


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        entry = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["spread_over_bound"] = spread / bounds[name]
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {
        "provenance": {
            "git_sha": git_sha(ROOT),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "seconds": args.seconds,
            "trace": args.trace,
            "seeds": seed_range(args.seeds),
        },
        "left_out": LEFT_OUT,
        "workloads": {},
    }
    all_correct = True
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds, args.trace) for s in seed_range(args.seeds)]
        correct = all(r["result"]["correct"] for r in runs)
        all_correct &= correct
        summary = summarise(runs, bounds)
        doc["workloads"][workload] = {"runs": runs, "summary": summary}
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, failed {failed}/{attempted}, "
              f"longest run {max(r['elapsed_s'] for r in runs):.1f} s")
        for name, s in summary.items():
            extra = f"  spread/bound {s['spread_over_bound']:.2f}" if "bound" in s else ""
            print(f"  {name:42s} median {s['median']:.6g}  spread {s['spread']:.4f}{extra}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
