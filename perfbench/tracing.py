"""Outside-in tracing of plknn: spans around the calls into each module.

The tracer replaces a function name in the namespace of the module that calls
it (``plknn.experiments.feature_matrix``, ``plknn.agents.kendall_tau``) with a
wrapper that records a span, and puts the original back on ``uninstall``.
Nothing in the library changes. A name that is missing (because the library
no longer has it) is reported as absent.

Spans are held in memory: name, start, end, parent span, the benchmark
operation they belong to, thread CPU time, growth of the process's peak RSS,
and one per-layer value (a pair identity, a worker count or an array size).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import resource
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    parent: int
    root: int  # the benchmark set-up or operation span this span ran under
    name: str
    start: float
    end: float
    cpu_s: float
    rss_growth_kb: int
    thread: int
    extra: object


def _address(x) -> int:
    if isinstance(x, np.ndarray):
        return x.__array_interface__["data"][0]
    return id(x)


def _pair(args, kwargs, result):
    """Identity of the unordered pair a distance call compares: two rows of
    one matrix, or two Ranking objects, alive for the whole operation."""
    a, b = _address(args[0]), _address(args[1])
    return (a, b) if a <= b else (b, a)


def _workers(args, kwargs, result):
    n_jobs = kwargs.get("n_jobs", args[5] if len(args) > 5 else None)
    return max(1, n_jobs or 1)


def _nbytes(args, kwargs, result):
    return None if result is None else int(result.nbytes)


# (calling module, name in it, span name, per-span value). Calls the benchmark
# makes itself are wrapped in the ``plknn`` package namespace it calls through.
TARGETS = (
    ("plknn", "run_error_vs_k", "experiments.run_error_vs_k", None),
    ("plknn.experiments", "_build_context", "experiments.build_context", None),
    ("plknn.experiments", "_map_queries", "experiments.pool", _workers),
    ("plknn.experiments", "_query_errors", "experiments.query", None),
    ("plknn", "write_report_csv", "experiments.write_report_csv", None),
    ("plknn.experiments", "_discordant_from_positions", "kendall.pair_distance", _pair),
    ("plknn.agents", "kendall_tau", "kendall.pair_distance", _pair),
    ("plknn", "feature_matrix", "kendall.feature_matrix", None),
    ("plknn.experiments", "feature_matrix", "kendall.feature_matrix", None),
    ("plknn.experiments", "agent_distances_from", "kendall.agent_distances_from", None),
    ("plknn.agents", "agent_distances_from", "kendall.agent_distances_from", None),
    ("plknn", "sample_population", "latent.sample_population", None),
    ("plknn.experiments", "sample_population", "latent.sample_population", None),
    ("plknn", "sample_rankings", "rankings.sample_rankings", None),
    ("plknn.experiments", "sample_rankings", "rankings.sample_rankings", None),
    ("plknn.experiments", "rank_matrix", "rankings.rank_matrix", _nbytes),
    ("plknn.agents", "rank_matrix", "rankings.rank_matrix", _nbytes),
    ("plknn.kendall", "rank_matrix", "rankings.rank_matrix", _nbytes),
    ("plknn.alternatives", "rank_matrix", "rankings.rank_matrix", _nbytes),
    ("plknn.rankings", "positions_matrix", "rankings.positions_matrix", _nbytes),
    ("plknn", "prediction_error", "agents.prediction_error", None),
    ("plknn.agents", "kt_knn", "agents.kt_knn", None),
    ("plknn.agents", "global_knn", "agents.global_knn", None),
    ("plknn.agents", "oracle_knn", "agents.oracle_knn", None),
    ("plknn.agents", "vote_probabilities", "agents.vote_probabilities", None),
    ("plknn", "sample_pairs", "agents.sample_pairs", None),
    ("plknn.experiments", "sample_pairs", "agents.sample_pairs", None),
    ("plknn", "alt_neighbors", "alternatives.alt_neighbors", None),
    ("plknn.alternatives", "candidate_set", "alternatives.candidate_set", None),
    ("plknn.alternatives", "split_cluster", "alternatives.split_cluster", None),
)

# Per-layer metrics: (name, unit, better, how, span, what it should move).
# how: "time" inclusive seconds, "self" seconds minus child spans, "calls",
# "useful" distinct pairs / calls within an operation, "busy" query time /
# (pool wall x workers), "bytes" largest positions array made.
# Time and call metrics are per operation; spans in set-up count once.
LAYER_METRICS = (
    ("kendall.pair_distance.s", "s", "lower", "time", "kendall.pair_distance",
     "wall_s on fig1a-kt; query_p90_ms on knn-partial"),
    ("kendall.pair_distance.calls", "count", "lower", "calls", "kendall.pair_distance",
     "wall_s on fig1a-kt; query_p90_ms on knn-partial"),
    ("kendall.pair_distance.useful_ratio", "ratio", "higher", "useful", "kendall.pair_distance",
     "wall_s on fig1a-kt"),
    ("kendall.feature_matrix.s", "s", "lower", "time", "kendall.feature_matrix",
     "setup_s on knn-partial"),
    ("kendall.agent_distances_from.s", "s", "lower", "time", "kendall.agent_distances_from",
     "wall_s on fig1a-global"),
    ("experiments.build_context.s", "s", "lower", "time", "experiments.build_context",
     "wall_s on fig1a-kt and fig1a-global"),
    ("experiments.query.s", "s", "lower", "time", "experiments.query",
     "wall_s on fig1a-global"),
    ("experiments.query.self_s", "s", "lower", "self", "experiments.query",
     "wall_s on fig1a-global"),
    ("experiments.pool.busy_frac", "ratio", "higher", "busy", "experiments.pool",
     "wall_s on fig1a-global when it runs with n_jobs > 1"),
    ("experiments.write_report_csv.s", "s", "lower", "time", "experiments.write_report_csv",
     "wall_s on fig1a-kt and fig1a-global (should stay negligible)"),
    ("rankings.sample_rankings.s", "s", "lower", "time", "rankings.sample_rankings",
     "setup_s on knn-partial; wall_s on fig1a-kt and fig1a-global"),
    ("rankings.rank_matrix.s", "s", "lower", "time", "rankings.rank_matrix",
     "query_p50_ms on knn-partial"),
    ("rankings.rank_matrix.calls", "count", "lower", "calls", "rankings.rank_matrix",
     "query_p50_ms on knn-partial"),
    ("rankings.positions_matrix.s", "s", "lower", "time", "rankings.positions_matrix",
     "wall_s on alt-split"),
    ("rankings.positions.bytes", "B", "lower", "bytes", "rankings.positions_matrix",
     "peak_rss_mb on alt-split"),
    ("agents.kt_knn.s", "s", "lower", "time", "agents.kt_knn",
     "query_p50_ms and query_p90_ms on knn-partial"),
    ("agents.global_knn.s", "s", "lower", "time", "agents.global_knn",
     "query_p50_ms and query_p90_ms on knn-partial"),
    ("agents.oracle_knn.s", "s", "lower", "time", "agents.oracle_knn",
     "query_p50_ms and query_p90_ms on knn-partial"),
    ("agents.vote_probabilities.s", "s", "lower", "time", "agents.vote_probabilities",
     "query_p50_ms and query_p90_ms on knn-partial"),
    ("agents.sample_pairs.s", "s", "lower", "time", "agents.sample_pairs",
     "query_p50_ms and query_p90_ms on knn-partial"),
    ("alternatives.candidate_set.s", "s", "lower", "time", "alternatives.candidate_set",
     "wall_s on alt-split"),
    ("alternatives.split_cluster.s", "s", "lower", "time", "alternatives.split_cluster",
     "wall_s on alt-split"),
    ("latent.sample_population.s", "s", "lower", "time", "latent.sample_population",
     "setup_s (negligible today)"),
)

# rank_matrix and positions_matrix both make an (n, m) positions array.
_BYTES_SPANS = ("rankings.positions_matrix", "rankings.rank_matrix")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []  # wrapped names the library no longer has
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._phase_stack: list[int] = []  # open spans of the benchmark's thread
        self._saved: list[tuple[object, str, object]] = []
        self._wrapped_spans: set[str] = set()

    def install(self) -> None:
        self.absent = []
        for module_name, attr, span_name, extra in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._wrapped_spans.add(span_name)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, extra))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple:
        stack = self._stack()
        # a pool thread has no open span of its own: it works for the span
        # the benchmark's thread is waiting in
        if stack:
            parent = stack[-1]
        else:
            parent = self._phase_stack[-1] if self._phase_stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, self._root, time.perf_counter(), time.thread_time(), _maxrss_kb()

    def _close(self, frame: tuple, name: str, extra) -> None:
        end, cpu, rss = time.perf_counter(), time.thread_time(), _maxrss_kb()
        sid, parent, root, start, cpu0, rss0 = frame
        self._stack().pop()
        self.spans.append(
            Span(sid, parent, root, name, start, end, cpu - cpu0, rss - rss0,
                 threading.get_ident(), extra)
        )

    def _wrap(self, fn, name: str, extra_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = extra_of(args, kwargs, result) if extra_of else None
                self._close(frame, name, extra)

        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """A benchmark set-up or operation: a top-level span under which
        every span it causes, in any thread, is grouped."""
        frame = self._open()
        self._root, self._phase_stack = frame[0], self._stack()
        try:
            yield frame[0]
        finally:
            self._close(frame, name, None)
            self._root, self._phase_stack = 0, []

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start, s.end))
        return {
            s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
            for s in self.spans
        }

    def summary(self) -> list[dict]:
        """Per span name: calls, inclusive, self and CPU seconds, and the
        largest growth of peak RSS seen across one span."""
        selfs = self.self_times()
        rows: dict[str, dict] = {}
        for s in self.spans:
            row = rows.setdefault(
                s.name, {"name": s.name, "calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0,
                         "rss_growth_kb": 0},
            )
            row["calls"] += 1
            row["s"] += s.end - s.start
            row["self_s"] += selfs[s.id]
            row["cpu_s"] += s.cpu_s
            row["rss_growth_kb"] = max(row["rss_growth_kb"], s.rss_growth_kb)
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def layer_metrics(self, setup_root: int, op_roots: list[int]) -> dict[str, float | None]:
        """Per-layer values over the set-up and the traced operations; None
        marks a metric whose wrapped names are all absent."""
        ops = set(op_roots)
        n_ops = max(1, len(ops))
        selfs = self.self_times()
        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.root == setup_root or s.root in ops:
                by_name[s.name].append(s)

        def per_op(values) -> float:
            values = list(values)
            setup = sum(v for s, v in values if s.root == setup_root)
            return setup + sum(v for s, v in values if s.root in ops) / n_ops

        out: dict[str, float | None] = {}
        for name, _unit, _better, how, span, _moves in LAYER_METRICS:
            if span not in self._wrapped_spans:
                out[name] = None
                continue
            spans = by_name.get(span, [])
            if how == "time":
                out[name] = per_op((s, s.end - s.start) for s in spans)
            elif how == "self":
                out[name] = per_op((s, selfs[s.id]) for s in spans)
            elif how == "calls":
                out[name] = per_op((s, 1) for s in spans)
            elif how == "useful":
                distinct = {(s.root, s.extra) for s in spans}
                out[name] = len(distinct) / len(spans) if spans else 0.0
            elif how == "busy":
                busy = sum(s.end - s.start for s in by_name.get("experiments.query", []))
                capacity = sum((s.end - s.start) * s.extra for s in spans)
                out[name] = busy / capacity if capacity else 0.0
            elif how == "bytes":
                sizes = [s.extra for n in _BYTES_SPANS for s in by_name.get(n, [])
                         if s.extra is not None]
                out[name] = float(max(sizes, default=0))
        return out

    def write(self, path, manifest: dict) -> None:
        fields = list(Span._fields)
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(
                {
                    "manifest": manifest,
                    "absent": self.absent,
                    "fields": fields,
                    "spans": [
                        [*s[:-1], list(s.extra) if isinstance(s.extra, tuple) else s.extra]
                        for s in self.spans
                    ],
                },
                fp,
            )
