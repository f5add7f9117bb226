"""Self-test of the benchmark harness, at small input sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that every workload run
with ``--size small`` passes its correctness gate and prints, as its last
line, exactly the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``) that BENCHMARK.json names, each with its unit, and
that a directory holding only BENCHMARK.json and the benchmark fails
without printing a result.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN_TIMEOUT = 180


def check_spec(bench: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(bench)}")
    if not 2 <= len(bench["workloads"]) <= 8:
        errors.append("need 2 to 8 workloads")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        if not NAME.fullmatch(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: bad keys or why")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end {m['name']}: bad keys or bound")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer {m['name']}: bad keys")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"{m['name']}: bad unit or better")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s missing or malformed")
    elif setup[0]["bound"] != max(m["bound"] for m in bench["end_to_end"]):
        errors.append("setup_s should have the largest bound")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    for path in bench["paths"]:
        if not (ROOT / path).is_dir() or path.startswith("/") or ".." in path.split("/"):
            errors.append(f"bad path {path}")
    return errors


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT)


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}\n{proc.stderr}")
    spec = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append(f"{label}: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            errors.append(f"{label}: {name} malformed: {m}")
        elif name in want and m["unit"] != want[name]:
            errors.append(f"{label}: {name} unit {m['unit']}, BENCHMARK.json says {want[name]}")
    return errors


def check_bare_directory(bench: dict) -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(bench)
    for w in bench["workloads"]:
        for trace in (0, 1):
            errors += check_run(bench, w["name"], trace)
    errors += check_bare_directory(bench)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
