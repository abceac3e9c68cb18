"""Spans recorded around floydlab's public functions, from outside the library.

`Tracer.install()` replaces each traced name in the module where its caller
looks it up (for example `thickness.wideness_probe`, `floyd_metric.dijkstra`
and `quasigeodesic.bfs_distances`) with a wrapper that records a span, and
`Tracer.uninstall()` puts every original back. No library file changes.

A span is (id, parent id, name, start, end, info). The parent is the span
open in the calling context; a contextvar carries it. Pool threads do not
inherit contextvars, so `floyd_metric.ThreadPoolExecutor` is replaced by a
pool that runs each task inside a copy of the submitting context: spans
recorded in `sphere_floyd_diameter`'s workers nest under the scan span.

`layer_metrics()` folds the spans into the per-layer metrics. A self time is
the span's duration minus the union of its direct children's intervals.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)
_BALL = contextvars.ContextVar("perfbench_ball", default=None)

COMMANDS = ("gen", "floyd_diam", "divergence", "criterion", "verify_thick")

# Counters that must repeat exactly between two traced passes of one seed.
EXACT_COUNTERS = (
    "floyd_metric.dijkstra_rows",
    "divergence.dijkstra_calls",
    "divergence.dijkstra_rows",
    "divergence.punctured_calls",
    "graph_core.bfs_calls",
    "quasigeodesic.qg_certify_calls",
    "group_models.vertices",
    "divergence.samples",
)


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "cpu", "info")

    def __init__(self, sid, parent, name, t0, t1, cpu):
        self.sid, self.parent, self.name = sid, parent, name
        self.t0, self.t1, self.cpu = t0, t1, cpu
        self.info = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class _ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _dijkstra_rows(args, kwargs) -> int:
    indices = kwargs.get("indices", args[2] if len(args) > 2 else None)
    if indices is None:
        return args[0].shape[0]
    return len(indices) if hasattr(indices, "__len__") else 1


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _divergence_dijkstra(args, kwargs, result):
    ball = _BALL.get()
    punctured = ball is not None and args[0].nnz < len(ball.csr_arrays[1])
    return _dijkstra_rows(args, kwargs), punctured


def _estimate(args, kwargs, result):
    return (result[0].protocol if result else None, len(result),
            sum(s.is_infinite for s in result),
            sum(s.protocol == "sampled" for s in result))


def _leaves(verdict) -> int:
    total = 0
    for sub in verdict.subset_verdicts:
        inner = sub.verdict
        total += _leaves(inner) if hasattr(inner, "subset_verdicts") else 1
    return total


class Tracer:
    """Installs the wrappers and keeps the spans of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr, name, describe=None, *, cpu=False, scope=None):
        original = getattr(owner, attr)
        spans, ids = self.spans, self._ids

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            ball_token = scope.set(args[0]) if scope is not None else None
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                span = Span(sid, parent, name, t0, t1,
                            time.process_time() - c0 if cpu else 0.0)
                spans.append(span)
                if ball_token is not None:
                    scope.reset(ball_token)
                _CURRENT.reset(token)
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        self._patch(owner, attr, traced)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from floydlab import (cli, divergence, floyd_metric, graph_core,
                              group_models, quasigeodesic, thickness)

        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for cmd in COMMANDS:
                self._wrap(cli, f"cmd_{cmd}", f"cli.{cmd}")
            self._wrap(group_models, "cayley_ball", "group_models.cayley_ball",
                       lambda a, k, r: r.vertex_count)
            self._wrap(graph_core, "write_graph_file", "graph_core.write", _file_bytes)
            self._wrap(graph_core, "read_graph_file", "graph_core.read", _file_bytes)
            bfs = {attr: getattr(graph_core, attr)
                   for attr in ("bfs_distances", "bfs_parents")}
            for owner in (graph_core, floyd_metric, quasigeodesic, thickness):
                for attr, fn in bfs.items():
                    if getattr(owner, attr, None) is fn:
                        self._wrap(owner, attr, "graph_core.bfs")
            self._wrap(floyd_metric, "floyd_weighting", "floyd_metric.weighting")
            self._wrap(floyd_metric, "sphere_floyd_diameter", "floyd_metric.scan",
                       lambda a, k, r: (r.radius, r.exhaustive, r.sources_used,
                                        r.pair_count), cpu=True)
            self._wrap(floyd_metric, "dijkstra", "floyd_metric.dijkstra",
                       lambda a, k, r: _dijkstra_rows(a, k))
            self._patch(floyd_metric, "ThreadPoolExecutor", _ContextPool)
            for owner in (divergence, thickness):
                self._wrap(owner, "div_function_estimate", "divergence.estimate",
                           _estimate, scope=_BALL)
            self._wrap(divergence, "criterion_check", "divergence.criterion")
            self._wrap(divergence, "dijkstra", "divergence.dijkstra",
                       _divergence_dijkstra)
            for owner in (quasigeodesic, thickness):
                self._wrap(owner, "wideness_probe", "quasigeodesic.wideness_probe",
                           lambda a, k, r: (len(r.eligible), len(r.witnesses)))
            self._wrap(quasigeodesic, "qg_certify", "quasigeodesic.qg_certify")
            self._wrap(thickness, "verify_thick", "thickness.verify_thick",
                       lambda a, k, r: _leaves(r))
            self._wrap(thickness, "verify_cover", "thickness.cover")
            self._wrap(thickness, "verify_chains", "thickness.chains")
            self._wrap(thickness, "induced_ball", "thickness.induced_ball")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_names(self) -> list[str]:
        return [f"{owner.__name__}.{attr}" for owner, attr, _ in self._patched]


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    intervals = sorted((max(c.t0, span.t0), min(c.t1, span.t1)) for c in children)
    total, end = 0.0, span.t0
    for lo, hi in intervals:
        lo = max(lo, end)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    names = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)
        names[s.sid] = s.name

    def of(name):
        return by_name.get(name, [])

    def returned(name):  # spans whose call returned, so info was recorded
        return [s for s in of(name) if s.info is not None]

    def total(name):
        return sum(s.duration for s in of(name))

    def self_time(name, only=None):
        out = 0.0
        for s in of(name):
            kids = [c for c in children.get(s.sid, ())
                    if only is None or c.name in only]
            out += s.duration - _covered(s, kids)
        return out

    m: dict[str, float] = {}
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    m["cli.self_s"] = sum(self_time(f"cli.{cmd}") for cmd in COMMANDS)

    m["group_models.cayley_ball_s"] = total("group_models.cayley_ball")
    m["group_models.vertices"] = sum(s.info for s in returned("group_models.cayley_ball"))
    m["group_models.vertices_per_s"] = (
        m["group_models.vertices"] / m["group_models.cayley_ball_s"]
        if m["group_models.cayley_ball_s"] > 0 else 0.0)

    m["graph_core.write_s"] = total("graph_core.write")
    m["graph_core.read_s"] = total("graph_core.read")
    m["graph_core.file_mib"] = sum(
        s.info for s in returned("graph_core.write") + returned("graph_core.read")
    ) / 2 ** 20
    m["graph_core.bfs_calls"] = len(of("graph_core.bfs"))
    m["graph_core.bfs_s"] = total("graph_core.bfs")

    scans = returned("floyd_metric.scan")
    m["floyd_metric.weighting_s"] = total("floyd_metric.weighting")
    m["floyd_metric.scan_s"] = total("floyd_metric.scan")
    m["floyd_metric.scan_self_s"] = self_time("floyd_metric.scan",
                                              {"floyd_metric.dijkstra"})
    m["floyd_metric.scan_cpu_s"] = sum(s.cpu for s in of("floyd_metric.scan"))
    m["floyd_metric.dijkstra_rows"] = sum(s.info for s in returned("floyd_metric.dijkstra"))
    m["floyd_metric.dijkstra_s"] = total("floyd_metric.dijkstra")
    m["floyd_metric.pairs"] = sum(s.info[3] for s in scans)
    m["floyd_metric.sources"] = sum(s.info[2] for s in scans)
    m["floyd_metric.radii"] = len(scans)
    m["floyd_metric.sampled_radii"] = sum(not s.info[1] for s in scans)

    estimates = returned("divergence.estimate")
    ddj = returned("divergence.dijkstra")
    m["divergence.exhaustive_s"] = sum(s.duration for s in estimates
                                       if s.info[0] == "exhaustive")
    m["divergence.sampled_s"] = sum(s.duration for s in estimates
                                    if s.info[0] == "sampled")
    m["divergence.criterion_s"] = total("divergence.criterion")
    m["divergence.self_s"] = self_time("divergence.estimate",
                                       {"divergence.dijkstra"})
    m["divergence.dijkstra_calls"] = len(of("divergence.dijkstra"))
    m["divergence.dijkstra_rows"] = sum(s.info[0] for s in ddj)
    m["divergence.dijkstra_s"] = total("divergence.dijkstra")
    m["divergence.punctured_calls"] = sum(s.info[1] for s in ddj)
    m["divergence.samples"] = sum(s.info[1] for s in estimates)
    m["divergence.infinite_samples"] = sum(s.info[2] for s in estimates)
    m["divergence.sampled_samples"] = sum(s.info[3] for s in estimates)

    probes = returned("quasigeodesic.wideness_probe")
    eligible = sum(s.info[0] for s in probes)
    m["quasigeodesic.wideness_probe_s"] = total("quasigeodesic.wideness_probe")
    m["quasigeodesic.self_s"] = self_time("quasigeodesic.wideness_probe")
    m["quasigeodesic.eligible"] = eligible
    m["quasigeodesic.pass_frac"] = (sum(s.info[1] for s in probes) / eligible
                                    if eligible else 0.0)
    m["quasigeodesic.qg_certify_calls"] = len(of("quasigeodesic.qg_certify"))
    m["quasigeodesic.qg_certify_s"] = total("quasigeodesic.qg_certify")

    top = [s for s in of("thickness.verify_thick")
           if names.get(s.parent) != "thickness.verify_thick"]
    m["thickness.verify_thick_s"] = sum(s.duration for s in top)
    m["thickness.self_s"] = self_time("thickness.verify_thick")
    m["thickness.cover_s"] = total("thickness.cover")
    m["thickness.chains_s"] = total("thickness.chains")
    m["thickness.induced_ball_s"] = total("thickness.induced_ball")
    m["thickness.leaves"] = sum(s.info for s in top if s.info is not None)
    return m


def lower_bound_labels(spans: list[Span]) -> list[str]:
    """One line per sphere scan or divergence estimate saying whether its
    value is exact over the ball or a sampled lower bound."""
    lines = []
    for s in sorted(spans, key=lambda s: s.t0):
        if s.name == "floyd_metric.scan" and s.info is not None:
            r, exhaustive, sources, pairs = s.info
            kind = "exhaustive" if exhaustive else "sampled lower bound"
            lines.append(f"sphere r={r}: {kind}, {sources} sources, {pairs} pairs")
        elif s.name == "divergence.estimate" and s.info is not None:
            protocol, n, inf, _ = s.info
            lines.append(f"divergence: {n} samples, protocol {protocol}, "
                         f"{inf} infinite, every value a lower bound on Div(n)")
    return lines
