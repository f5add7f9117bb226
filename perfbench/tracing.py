"""Per-layer tracing of multishelf from outside the package.

Each traced function is replaced, for the length of one traced pass, by a
wrapper in every ``multishelf`` module that holds it under some name (the
defining module and every module that imported it with ``from .x import``).
Nothing under ``src/`` is edited.

Two kinds of wrapper:

* spans, for coarse calls: one record per call with its parent, so a
  layer's self time is its duration minus what its child spans and the hot
  leaf calls directly inside it cover;
* leaves, for the hot table kernels (millions of calls): one aggregated call
  count and total time per name, no per-call record.

Counters are read off return values at the same boundaries.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

# Spans: (module, function, span name, observer or None).
# Leaves: (module, function, leaf name, observer or None).
# Counters: (module, function, observer) -- no timing, so the caller's
# self time keeps the work (used for the enumerator that certify and
# enumerate_racks run inline).
Observer = Callable[[Counter, object, tuple, dict], None]


def _edges(counts: Counter, result, args, kwargs) -> None:
    counts["search.compatibility_graph.edges"] += sum(len(v) for v in result.values()) // 2


def _enumerated(counts: Counter, result, args, kwargs) -> None:
    racks, pruned = result
    counts["search.racks"] += len(racks)
    counts["search.nodes_pruned"] += pruned


def _closure(counts: Counter, result, args, kwargs) -> None:
    counts["shelves.close_group.nonabelian"] += not result.abelian


def _witness(counts: Counter, result, args, kwargs) -> None:
    counts["tables.distributive_witness.pass"] += result is None


def _boundary(counts: Counter, result, args, kwargs) -> None:
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    key = f"homology.boundary_matrix.d{degree}"
    counts[key + ".rows"] += result.rows
    counts[key + ".cols"] += result.cols
    counts[key + ".nnz"] += sum(1 for row in result.data for v in row if v)


SPANS = (
    ("cli", "main", "cli", None),
    ("formats", "load_set", "formats.load", None),
    ("formats", "load_table", "formats.load", None),
    ("formats", "load_group", "formats.load", None),
    ("groups", "group_from_table", "groups.build", None),
    ("groups", "cyclic", "groups.build", None),
    ("groups", "dihedral", "groups.build", None),
    ("groups", "symmetric", "groups.build", None),
    ("embedding", "regular_embed", "embedding.regular_embed", None),
    ("shelves", "make_distributive_set", "shelves.make_distributive_set", None),
    ("shelves", "close_group", "shelves.close_group", _closure),
    ("search", "certify_no_nonabelian", "search.certify", None),
    ("search", "enumerate_racks", "search.enumerate_racks", None),
    ("search", "compatibility_graph", "search.compatibility_graph", _edges),
    ("search", "canonical_form", "search.canonical_form", None),
    ("homology", "homology_groups", "homology.homology_groups", None),
    ("homology", "verify_differential", "homology.verify_differential", None),
    ("homology", "boundary_matrix", "homology.boundary_matrix", _boundary),
    ("snf", "smith_normal_form", "snf.smith_normal_form", None),
)
LEAVES = (
    ("tables", "distributive_witness", "tables.distributive_witness", _witness),
    ("tables", "commutes", "tables.commutes", None),
    ("tables", "relabel", "tables.relabel", None),
    ("tables", "compose", "tables.compose", None),
)
COUNTERS = (("search", "_enumerate_pruned", _enumerated),)


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by child spans and outermost leaf calls


class Tracer:
    """Spans and leaf aggregates of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = [Span("<root>", -1, time.perf_counter())]
        self.stack: list[int] = [0]
        self.leaf_calls: Counter = Counter()
        self.leaf_time: defaultdict = defaultdict(float)
        self.leaf_depth = 0
        self.counts: Counter = Counter()
        self._active: Counter = Counter()
        self.total: defaultdict = defaultdict(float)  # outermost-call time per span name

    def span(self, name: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        spans, stack, active, total, counts = (
            self.spans, self.stack, self._active, self.total, self.counts,
        )

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1], time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                active[name] -= 1
                duration = span.end - span.start
                spans[stack[-1]].child += duration
                if not active[name]:
                    total[name] += duration
            if observe is not None:
                observe(counts, result, args, kwargs)
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        spans, stack, calls, spent, counts = (
            self.spans, self.stack, self.leaf_calls, self.leaf_time, self.counts,
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.leaf_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                self.leaf_depth -= 1
                calls[name] += 1
                spent[name] += duration
                if not self.leaf_depth:
                    spans[stack[-1]].child += duration
            if observe is not None:
                observe(counts, result, args, kwargs)
            return result

        return wrapper

    def counter(self, fn: Callable, observe: Observer) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(counts, result, args, kwargs)
            return result

        return wrapper

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, outermost total time and summed self time."""
        stats: dict[str, dict[str, float]] = {}
        for span in self.spans[1:]:
            s = stats.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (span.end - span.start) - span.child
        for name, s in stats.items():
            s["total_s"] = self.total[name]
        return stats

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end}
            for i, s in enumerate(self.spans[1:], start=1)
        ]


class Patch:
    """Install a tracer's wrappers into loaded multishelf modules; undo on exit."""

    def __init__(self, tracer: Tracer, modules: dict) -> None:
        self.tracer = tracer
        self.modules = modules  # short name -> module, plus "" for the package
        self.undo: list[tuple[object, str, object]] = []

    def _replace(self, original: Callable, wrapper: Callable) -> None:
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def __enter__(self) -> "Patch":
        t = self.tracer
        for mod, fn, name, observe in SPANS:
            original = getattr(self.modules[mod], fn)
            self._replace(original, t.span(name, original, observe))
        for mod, fn, name, observe in LEAVES:
            original = getattr(self.modules[mod], fn)
            self._replace(original, t.leaf(name, original, observe))
        for mod, fn, observe in COUNTERS:
            original = getattr(self.modules[mod], fn)
            self._replace(original, t.counter(original, observe))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self.undo):
            setattr(module, attr, value)
        self.undo.clear()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    spans = tracer.span_stats()

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    c = tracer.counts
    lc, lt = tracer.leaf_calls, tracer.leaf_time
    m: dict[str, float] = {
        "search.certify.self_s": self_s("search.certify"),
        "search.compatibility_graph_s": total("search.compatibility_graph"),
        "search.compatibility_graph.edges": c["search.compatibility_graph.edges"],
        "search.enumerate_racks.self_s": self_s("search.enumerate_racks"),
        "search.canonical_form_s": total("search.canonical_form"),
        "search.canonical_form.calls": calls("search.canonical_form"),
        "search.racks": c["search.racks"],
        "search.nodes_pruned": c["search.nodes_pruned"],
    }
    for leaf in ("distributive_witness", "commutes", "relabel", "compose"):
        m[f"tables.{leaf}_s"] = lt[f"tables.{leaf}"]
        m[f"tables.{leaf}.calls"] = lc[f"tables.{leaf}"]
    m["tables.distributive_witness.pass_ratio"] = ratio(
        c["tables.distributive_witness.pass"], lc["tables.distributive_witness"]
    )
    m.update({
        "shelves.close_group_s": total("shelves.close_group"),
        "shelves.close_group.calls": calls("shelves.close_group"),
        "shelves.close_group.nonabelian_ratio": ratio(
            c["shelves.close_group.nonabelian"], calls("shelves.close_group")
        ),
        "shelves.make_distributive_set_s": total("shelves.make_distributive_set"),
        "embedding.regular_embed_s": total("embedding.regular_embed"),
        "groups.build_s": total("groups.build"),
        "snf.smith_normal_form_s": total("snf.smith_normal_form"),
        "snf.smith_normal_form.calls": calls("snf.smith_normal_form"),
        "homology.verify_differential_s": total("homology.verify_differential"),
        "homology.verify_differential.calls": calls("homology.verify_differential"),
        "homology.boundary_matrix_s": total("homology.boundary_matrix"),
    })
    for d in (1, 2, 3):
        for part in ("rows", "cols", "nnz"):
            key = f"homology.boundary_matrix.d{d}.{part}"
            m[key] = c[key]
    m["cli.self_s"] = self_s("cli")
    m["formats.load_s"] = total("formats.load")
    return m
