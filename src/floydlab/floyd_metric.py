"""Floyd functions, Floyd-weighted balls, sphere diameters and the
empirical quasi-geodesic escape-set estimator.

A Floyd function f is nonincreasing with bounded consecutive ratios
(1 <= f(n)/f(n+1) <= K) and summable. The Floyd weighting rescales every
edge of a ball to f(n) where n is the smaller base distance of the edge's
endpoints, with the convention f(0) = f(1). Floyd distances inside a
truncated ball are upper bounds on their ambient counterparts; the margin
policy below keeps reported sphere radii far enough from the boundary that
the truncation error is controlled (trees are exact at any margin >= 1,
because simple paths between ball vertices never leave the ball).
"""

from __future__ import annotations

import math
import random
# Unused here; kept because perfbench/tracer.py patches this name.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .errors import (
    ConditionAViolated,
    RadiusOutOfMargin,
    RadiusOutOfRange,
    SampleExhausted,
    TableExhausted,
)
from .graph_core import GraphBall, block_rows, punctured_paths, sphere

_BUILTIN_KINDS = ("inverse_power", "exponential", "inverse_square_plus_one")
VANISH_RATIO = 0.35  # sphere_diameter_trend's "vanishing" end-to-start ratio


@dataclass(frozen=True)
class FloydFunction:
    """A scaling function with validated decay constants.

    Built-in kinds carry an analytic summability certificate; custom tables
    only ever get a finite partial-sum report.
    """

    kind: str
    p: float | None = None
    lam: float | None = None
    table: tuple[float, ...] | None = None

    @classmethod
    def inverse_power(cls, p: float) -> "FloydFunction":
        if not 1 < p < math.inf:
            raise ValueError("inverse_power requires a finite p > 1")
        return cls(kind="inverse_power", p=float(p))

    @classmethod
    def exponential(cls, lam: float) -> "FloydFunction":
        if not 0 < lam < 1:
            raise ValueError("exponential requires lambda in (0, 1)")
        return cls(kind="exponential", lam=float(lam))

    @classmethod
    def inverse_square_plus_one(cls) -> "FloydFunction":
        return cls(kind="inverse_square_plus_one")

    @classmethod
    def custom_table(cls, values: Sequence[float]) -> "FloydFunction":
        vals = tuple(float(v) for v in values)
        if not vals or not all(0 < v < math.inf for v in vals):
            raise ValueError("table must be a nonempty list of finite positive reals")
        return cls(kind="custom_table", table=vals)

    @property
    def K(self) -> float:
        """Ratio constant of the bounded-ratio condition."""
        if self.kind == "inverse_power":
            return 2.0 ** self.p
        if self.kind == "exponential":
            return 1.0 / self.lam
        if self.kind == "inverse_square_plus_one":
            return 2.5
        if len(self.table) == 1:
            return 1.0
        return max(self.table[i] / self.table[i + 1]
                   for i in range(len(self.table) - 1))

    def value(self, n: int) -> float:
        """f(n) for n >= 1, and f(0) = f(1)."""
        if n < 0:
            raise ValueError("argument must be nonnegative")
        m = max(n, 1)
        if self.kind == "inverse_power":
            return m ** -self.p
        if self.kind == "exponential":
            return self.lam ** m
        if self.kind == "inverse_square_plus_one":
            return 1.0 / (m * m + 1)
        if m - 1 >= len(self.table):
            raise TableExhausted(
                f"table of length {len(self.table)} has no entry for f({m})")
        return self.table[m - 1]

    def values_through(self, n_max: int) -> np.ndarray:
        """Vector [f(0), f(1), ..., f(n_max)]."""
        return np.array([self.value(n) for n in range(n_max + 1)])


def parse_floyd(spec: str) -> FloydFunction:
    """Parse a CLI Floyd-function string.

    Grammar: ``invpow:<p>``, ``exp:<lambda>``, ``invsq1``, ``table:<path>``
    (one positive real per line, line 1 holding f(1)).
    """
    if spec == "invsq1":
        return FloydFunction.inverse_square_plus_one()
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"unknown floyd spec {spec!r}")
    if kind in ("invpow", "exp"):
        try:
            value = float(rest)
        except ValueError:
            raise ValueError(f"bad parameter in floyd spec {spec!r}") from None
        if kind == "invpow":
            return FloydFunction.inverse_power(value)
        return FloydFunction.exponential(value)
    if kind == "table":
        values = []
        with open(rest, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    value = float(text)
                except ValueError:
                    value = math.nan
                if not 0 < value < math.inf:
                    raise ValueError(f"table {rest} line {number}: expected a "
                                     f"finite positive real, got {text!r}")
                values.append(value)
        return FloydFunction.custom_table(values)
    raise ValueError(f"unknown floyd spec {spec!r}")


@dataclass(frozen=True)
class FloydValidationReport:
    K_observed: float
    condition_a_ok: bool
    condition_b_certificate: str
    partial_sum: float
    unverified_tail: bool
    check_range: int


def validate_floyd_function(f: FloydFunction, check_range: int) -> FloydValidationReport:
    """Check the ratio condition over 1..check_range and report certificates.

    Raises ConditionAViolated if f increases anywhere on the range. Built-in
    kinds get an analytic summability certificate; tables only a partial sum
    flagged as having an unverified tail.
    """
    if check_range < 2:
        raise ValueError("check_range must be >= 2")
    if f.kind == "custom_table":
        check_range = min(check_range, len(f.table) - 1)
        if check_range < 1:
            raise ValueError("table too short to validate any ratio")
    k_observed = 0.0
    for n in range(1, check_range + 1):
        ratio = f.value(n) / f.value(n + 1)
        if ratio < 1.0:
            raise ConditionAViolated(
                f"f({n})/f({n + 1}) = {ratio} < 1: function increases")
        k_observed = max(k_observed, ratio)
    analytic = f.kind in _BUILTIN_KINDS
    partial = float(sum(f.value(n) for n in range(1, check_range + 1)))
    return FloydValidationReport(
        K_observed=k_observed,
        condition_a_ok=True,
        condition_b_certificate="analytic" if analytic else "partial-sum-only",
        partial_sum=partial,
        unverified_tail=not analytic,
        check_range=check_range,
    )


@dataclass(frozen=True)
class SublinearityReport:
    values: tuple[float, ...]
    tending_to_zero: bool


def check_sublinearity(f: FloydFunction, n_max: int) -> SublinearityReport:
    """The sequence n*f(n) for n = 1..n_max.

    Summability forces this to tend to 0; the verdict flag is set when the
    final value dropped below a tenth of the initial one.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    values = tuple(n * f.value(n) for n in range(1, n_max + 1))
    return SublinearityReport(values=values,
                              tending_to_zero=values[-1] < 0.1 * values[0])


@dataclass(frozen=True, eq=False)
class FloydWeighting:
    """Edge weights f(d(b, e)) over a ball, ready for weighted shortest paths.

    `weights` holds one weight per CSR entry of the ball: entry k weighs the
    directed edge ball.slot_rows[k] -> ball.indices[k], and both directions
    of an edge carry the same weight. Weightings compare equal when their
    balls, functions and weight arrays are equal.
    """

    ball: GraphBall
    floyd: FloydFunction
    weights: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, FloydWeighting):
            return NotImplemented
        return (self.ball == other.ball and self.floyd == other.floyd
                and np.array_equal(self.weights, other.weights))

    def __hash__(self):
        return hash((self.ball, self.floyd))

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        n = self.ball.vertex_count
        return sp.csr_matrix((self.weights, self.ball.indices, self.ball.indptr),
                             shape=(n, n))

    def path_length(self, path: Sequence[int]) -> float:
        """Floyd length of a path given as a vertex sequence; each step is
        looked up in the CSR row of the vertex it leaves."""
        indptr, indices = self.ball.csr_arrays
        slots = []
        for x, y in zip(path, path[1:]):
            lo, hi = indptr[x], indptr[x + 1]
            k = lo + int(np.searchsorted(indices[lo:hi], y))
            if k == hi or indices[k] != y:
                raise KeyError((x, y))
            slots.append(k)
        return sum(self.weights[slots].tolist())


def floyd_weighting(ball: GraphBall, f: FloydFunction) -> FloydWeighting:
    """Weight each edge {u, v} by f(min(d(b,u), d(b,v))).

    f is evaluated only up to the largest index an edge uses: radius - 1,
    unless some edge joins two vertices of the outer sphere.
    """
    level = np.minimum(ball.dist[ball.slot_rows], ball.dist[ball.indices])
    weights = f.values_through(int(level.max(initial=0)))[level]
    return FloydWeighting(ball=ball, floyd=f, weights=weights)


def base_sums(f: FloydFunction, n_max: int) -> np.ndarray:
    """[S(0), ..., S(n_max)] with S(n) = sum of f(k) over k < n: the Floyd
    length of every geodesic from the base to the sphere S_n, which crosses
    one edge of level k for each k < n."""
    return np.concatenate(([0.0], np.cumsum(f.values_through(n_max - 1))))


def _via_base_limit(w: FloydWeighting, u_level: int, v_level: int) -> float:
    """Dijkstra limit for pairs on the spheres S_{u_level} and S_{v_level}:
    the path u -> base -> v along geodesics has length
    S(u_level) + S(v_level), so d(u, v) is at most that. The relative slack
    covers the rounding of the float sums on both sides."""
    sums = base_sums(w.floyd, max(u_level, v_level))
    return float(sums[u_level] + sums[v_level]) * (1 + 1e-9)


def floyd_distance(w: FloydWeighting, u: int, v: int) -> float:
    """Exact weighted shortest-path value inside the ball.

    This is an upper bound on the ambient Floyd distance: paths through the
    truncated exterior are unavailable. The margin policy in
    sphere_floyd_diameter controls the resulting error. The search stops
    at the via-base bound and reruns unbounded if that ever leaves v
    unreached (see `_target_rows`).
    """
    w.ball.check_index(u)
    w.ball.check_index(v)
    if u == v:
        return 0.0
    return float(_target_rows(w, np.array([u]), np.array([v]))[0, 0])


@dataclass(frozen=True)
class SphereDiameter:
    radius: int
    diameter: float
    witness: tuple[int, int]
    exhaustive: bool
    sources_used: int
    pair_count: int


def sphere_floyd_diameter(w: FloydWeighting, r: int, *, margin: float = 3.0,
                          pair_cap: int = 250_000) -> SphereDiameter:
    """Max Floyd distance over pairs on the sphere S_r, with a witness pair.

    Refuses radii with r * margin > ball.radius: closer to the boundary the
    truncation can distort optimal (outward-detouring) Floyd paths. When
    |S_r|^2 exceeds pair_cap, a deterministic evenly-spaced subset of source
    vertices is used and pairs = sources x sphere. Ties on the max are broken
    toward the lexicographically smallest witness pair. Dijkstra runs once
    per symmetry orbit of the sources (see `_sphere_rows`), with the same
    result as one run per source.
    """
    ball = w.ball
    if not 1 <= margin < math.inf:
        raise ValueError("margin must be a finite real >= 1")
    if r * margin > ball.radius + 1e-9:
        raise RadiusOutOfMargin(
            f"sphere radius {r} violates margin {margin} on ball radius {ball.radius}")
    verts = sphere(ball, r).vertices
    if not verts:
        raise RadiusOutOfRange(f"sphere at radius {r} is empty")
    if len(verts) == 1:
        return SphereDiameter(radius=r, diameter=0.0, witness=(verts[0], verts[0]),
                              exhaustive=True, sources_used=1, pair_count=1)

    n = len(verts)
    exhaustive = n * n <= pair_cap
    if exhaustive:
        sources = list(verts)
    else:
        k = max(1, pair_cap // n)
        sources = sorted({verts[(i * n) // k] for i in range(k)})
    target_idx = np.asarray(verts, dtype=np.int64)
    src = np.asarray(sources, dtype=np.int64)
    rows = _sphere_rows(w, src, target_idx)

    # Targets ascend, so a row's first argmax is its smallest tied target t,
    # and (min(s, t), max(s, t)) grows with t: that target gives the row's
    # smallest pair.
    row_max = rows.max(axis=1)
    best = row_max.max()
    tied = np.flatnonzero(row_max == best)
    s = src[tied]
    t = target_idx[rows[tied].argmax(axis=1)]
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    k = np.lexsort((hi, lo))[0]
    return SphereDiameter(radius=r, diameter=float(best),
                          witness=(int(lo[k]), int(hi[k])),
                          exhaustive=exhaustive, sources_used=len(sources),
                          pair_count=len(sources) * n)


def _sphere_rows(w: FloydWeighting, sources: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """Floyd distances d(s, t) from each source to each target of a whole
    sphere, as a (sources, targets) block, with Dijkstra run once per orbit.

    The ball's base-fixing automorphisms keep every edge's level, so they
    map paths to paths with the same weight sequence, and scipy's float
    Dijkstra gives d(s, t) == d(h(s), h(t)) bit for bit. Each source's
    representative is its orbit minimum, `ball.symmetry.orbit_min`, which
    need not be a source; the transversal element u_s sends it to s and
    maps the sphere onto itself, so the row of s holds d(rep, t) at the
    column of u_s(t) for every target t. Sources are never swapped with
    targets: d(s, t) and d(t, s) may differ in the last place.
    """
    symmetry = w.ball.symmetry
    rep = symmetry.orbit_min[sources]
    reps = np.unique(rep)
    rep_rows = _target_rows(w, reps, targets)
    column = np.empty(w.ball.vertex_count, dtype=np.int64)
    column[targets] = np.arange(len(targets))
    moved = column[symmetry.from_rep(
        sources, np.broadcast_to(targets, (len(sources), len(targets))))]
    out = np.empty((len(sources), len(targets)))
    out[np.arange(len(sources))[:, None], moved] = rep_rows[np.searchsorted(reps, rep)]
    return out


def _target_rows(w: FloydWeighting, sources: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """Floyd distances d(s, t) as a (sources, targets) block.

    Each Dijkstra stops at the via-base bound of the farthest source and
    target levels (`_via_base_limit`). With nonnegative weights every vertex
    within the limit is reached by the same relaxations as in an unbounded
    search, so the values read are bit for bit the unbounded ones; a row
    that still misses a target is rerun without a limit. Sources go to
    scipy `graph_core.block_rows(V)` at a time, as every block of searches
    does, and only the target columns of each block's rows are kept.
    """
    dist = w.ball.dist
    limit = _via_base_limit(w, int(dist[sources].max()), int(dist[targets].max()))
    block = block_rows(w.ball.vertex_count)
    out = np.empty((len(sources), len(targets)))

    def fill(rows: np.ndarray, bound: float) -> None:
        for i in range(0, len(rows), block):
            chunk = rows[i:i + block]
            out[chunk] = dijkstra(w.matrix, directed=True, limit=bound,
                                  indices=sources[chunk].tolist())[:, targets]

    fill(np.arange(len(sources)), limit)
    fill(np.flatnonzero(np.isinf(out).any(axis=1)), math.inf)
    return out


def sphere_diameter_trend(diameters: Sequence[tuple[int, float]]) -> str:
    """Classify a (radius, diameter) series as one of
    {"vanishing", "non-vanishing", "inconclusive"}.

    A finite probe cannot count boundary points, so the vocabulary stops at
    the trend: strictly decreasing and ending below VANISH_RATIO * first is
    "vanishing"; never decreasing (and positive) is "non-vanishing".
    """
    if len(diameters) < 3:
        return "inconclusive"
    vals = [d for _, d in sorted(diameters)]
    if all(b < a for a, b in zip(vals, vals[1:])) and vals[-1] <= VANISH_RATIO * vals[0]:
        return "vanishing"
    if all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])) and vals[-1] > 0:
        return "non-vanishing"
    return "inconclusive"


@dataclass(frozen=True)
class KarlssonEstimate:
    """Empirical escape radius: beyond it, no sampled C-quasi-geodesic kept
    Floyd length >= epsilon. A lower bound for a certified set, never a
    certificate; the sample size is recorded alongside.
    """

    radius: int
    epsilon: float
    C: float
    segments_used: int
    bad_segments: int
    seed: int
    certified: bool = False


def karlsson_set_estimate(w: FloydWeighting, C: float, epsilon: float,
                          samples: int, seed: int) -> KarlssonEstimate:
    """Smallest ball radius rho such that every sampled C-quasi-geodesic
    avoiding the closed ball B_b(rho) has Floyd length < epsilon.

    Sampling is seed-deterministic: geodesic segments between random vertex
    pairs (geodesics are C-quasi-geodesic for every C >= 1), plus, for C > 1,
    detour segments around random base balls kept when they certify at C.
    Every pair is drawn first; the geodesics and the detours then run
    together through `punctured_paths`, in blocks of breadth-first searches.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ball = w.ball
    if ball.vertex_count < 2 or samples <= 0:
        raise SampleExhausted("no quasi-geodesic segments available to sample")

    from .quasigeodesic import PathWitness, qg_certify  # local: avoids heavier import at module load

    rng = random.Random(seed)
    dist = ball.dist.tolist()
    segments: list[tuple[int, float]] = []  # (min base distance, floyd length)

    def record(path: list[int]) -> None:
        md = min(dist[x] for x in path)
        segments.append((md, w.path_length(path)))

    # Draw every pair first: no search feeds the draws. A geodesic is a
    # search that avoids nothing, a detour one that avoids B_b(rho), which
    # holds the base.
    nothing = np.empty(0, dtype=np.int64)
    balls: dict[int, np.ndarray] = {}
    jobs: list[tuple[int, int, np.ndarray]] = []
    for _ in range(samples):
        u = rng.randrange(ball.vertex_count)
        v = rng.randrange(ball.vertex_count)
        if u == v:
            continue
        jobs.append((u, v, nothing))
        if C > 1:
            rho = rng.randrange(0, max(1, ball.radius))
            if dist[u] > rho and dist[v] > rho:
                if rho not in balls:
                    balls[rho] = np.flatnonzero(ball.dist <= rho)
                jobs.append((u, v, balls[rho]))
    sources, targets, avoided = zip(*jobs) if jobs else ((), (), ())
    paths = punctured_paths(*ball.csr_arrays, sources, targets, avoided)
    for path, forbidden in zip(paths, avoided):
        if not len(forbidden):
            record(path)
        elif path is not None and qg_certify(
                ball, PathWitness(vertices=tuple(path))) <= C:
            record(path)

    if not segments:
        raise SampleExhausted("no qualifying quasi-geodesic segments found")
    bad = [md for md, length in segments if length >= epsilon]
    return KarlssonEstimate(radius=max(bad, default=0), epsilon=epsilon, C=C,
                            segments_used=len(segments), bad_segments=len(bad),
                            seed=seed)
