"""Run one multishelf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search-n5 --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the package is imported from
``src/`` next to this directory, in this one process, on one thread.

* ``--trace 0`` times untraced operations for ``--seconds`` and reports the
  end-to-end metrics: ``wall_ref_s``, the median time per operation, and
  ``setup_s``, the median set-up time (import, fixture and group
  construction, seeded inputs; a batch of set-ups before each operation),
  both rescaled to a reference host speed measured while each interval
  runs (see ``hostspeed.py``), and ``peak_rss_mb``, the process's peak
  resident memory. The raw medians are printed with the provenance.
* ``--trace 1`` alternates an untraced operation with a traced set-up and
  operation, all timed without the host-speed sampler. It reports the
  per-layer metrics (medians over traced passes), the raw untraced
  ``untraced.wall_s`` and ``untraced.setup_s``, and the tracing overhead
  (median of traced minus untraced wall time over the laps where both
  passes ran), and checks that both passes return the same certificates.

Every operation is checked against its reference (see ``workloads.py``);
a wrong answer counts as failed. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it gives the run's provenance and raw times.
``--out FILE`` also writes a results file with provenance, per-operation
times, failures and, for a traced run, the spans of the last traced pass.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import tracing
import workloads

SETUP_BATCH_S = 0.25


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, args) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


class Book:
    """Checked operations of one run."""

    def __init__(self, check) -> None:
        self.check = check
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, label: str, res, inputs) -> None:
        for name, ok, detail in self.check(res, inputs):
            self.count(f"{label} {name}", ok, detail)

    def count(self, name: str, ok: bool, detail=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append({"operation": name, "detail": detail})
            print(f"FAILED {name}: {json.dumps(detail, default=str)[:2000]}", file=sys.stderr)


def timed(fn, *args, sampler=None):
    """Result and seconds of fn(*args), net of the sampler's ticks inside it."""
    gc.collect()
    spent = sampler.spent if sampler else 0.0
    t0 = time.perf_counter()
    res = fn(*args)
    seconds = time.perf_counter() - t0
    if sampler:
        seconds -= sampler.spent - spent
    return res, seconds


def import_and_set_up(setup, args, src: Path, work: Path):
    """Fresh import of the package plus the workload's seeded inputs."""
    mods = workloads.import_package(src)
    return mods, setup(mods, args.seed, work, args.size)


def sampled(on: bool):
    """A host-speed sampler for the ``with`` block, or none when ``on`` is false."""
    return hostspeed.Sampler() if on else contextlib.nullcontext()


def measure(args, root: Path, work: Path) -> dict:
    setup, run, check = workloads.WORKLOADS[args.workload]
    src = root / "src"
    book = Book(check)
    # Untraced runs time under the host-speed sampler (raw and rescaled times);
    # traced runs use no sampler, so each lap's untraced and traced operations
    # are timed alike and their difference is the tracing overhead.
    sample = not args.trace
    raw = {"wall_s": [], "setup_s": [], "tick_s": []}
    ref = {"wall_s": [], "setup_s": []}
    pairs, layers, spans = [], [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        # A batch of set-ups before each operation: spread over the run, and
        # long enough for the sampler to tick during it.
        with sampled(sample) as speed:
            batch = []
            while not batch or time.perf_counter() - lap < SETUP_BATCH_S:
                (mods, inputs), seconds = timed(
                    import_and_set_up, setup, args, src, work, sampler=speed)
                batch.append(seconds)
        raw["setup_s"] += batch
        if speed:
            ref["setup_s"] += [s * speed.scale() for s in batch]
        res = wall = None
        try:
            with sampled(sample) as speed:
                res, wall = timed(run, mods, inputs, sampler=speed)
            raw["wall_s"].append(wall)
            if speed:
                raw["tick_s"].append(speed.median_tick())
                ref["wall_s"].append(wall * speed.scale())
            book.record("untraced", res, inputs)
        except Exception:
            traceback.print_exc()
            book.count("untraced run", False, "raised")
        if args.trace:
            tracer = tracing.Tracer()
            try:
                with tracing.Patch(tracer, mods):
                    traced_inputs = setup(mods, args.seed, work, args.size)
                    traced, traced_wall = timed(run, mods, traced_inputs)
                if wall is not None:
                    pairs.append({"untraced_s": wall, "traced_s": traced_wall})
                layers.append(tracing.layer_metrics(tracer))
                spans = tracer.span_records()
                book.record("traced", traced, traced_inputs)
                book.count("traced == untraced", traced == res)
            except Exception:
                traceback.print_exc()
                book.count("traced run", False, "raised")
        now = time.perf_counter()
        # stop when another lap would end nearer to the deadline than this one
        if now - start + (now - lap) / 2 >= args.seconds:
            break

    def median(values):
        return statistics.median(values) if values else 0.0

    if args.trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]} if layers else {}
        metrics["trace.overhead_s"] = median([p["traced_s"] - p["untraced_s"] for p in pairs])
        metrics["untraced.wall_s"] = median(raw["wall_s"])
        metrics["untraced.setup_s"] = median(raw["setup_s"])
    else:
        metrics = {
            "wall_ref_s": median(ref["wall_s"]),
            "setup_s": median(ref["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {"book": book, "metrics": metrics, "raw": raw, "ref": ref, "pairs": pairs,
            "spans": spans}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="'small' shrinks every input, for the self-test")
    p.add_argument("--out", help="also write a results file here")
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "multishelf" / "__init__.py").is_file():
        print(f"error: no multishelf package under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    book = out["book"]
    prov = provenance(root, args)
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in out["metrics"].items()}
    result = {
        "correct": not book.failures and book.attempted > 0,
        "attempted": book.attempted,
        "failed": len(book.failures),
        "metrics": metrics,
    }
    if args.out:
        doc = {
            "provenance": prov,
            "left_out": workloads.LEFT_OUT,
            "result": result,
            "raw": out["raw"],
            "ref": out["ref"],
            "trace_pairs": out["pairs"],
            "failures": book.failures,
            "spans": out["spans"],
        }
        Path(args.out).write_text(json.dumps(doc, indent=1, default=str) + "\n")
    raw = {k: statistics.median(v) if v else None for k, v in out["raw"].items()}
    print(json.dumps({"provenance": prov, "raw_medians": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
