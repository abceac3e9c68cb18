"""Divergence of a ball: detour lengths around forbidden balls, the
divergence-function estimate, growth fitting, and the decay criterion
coupling divergence with a Floyd function.

div(a, b, c) is the shortest length of an a-b path whose vertices all stay
outside the closed ball B_c(delta * r - gamma), where r = d(c, {a, b}) > 0;
it is infinite when removal disconnects a from b. The estimate of
Div(n) = sup over triples with d(a, b) <= n is exhaustive over an inner
region of the ball (detour paths need the outer region as working room,
which is what the margin buys) or seeded sampling above a size cap. Either
way it is a lower bound on the supremum at ball scale and is labeled as
such. Infinity is a tagged marker (value None), never a float sentinel.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .errors import (
    InsufficientData,
    MarginViolated,
    PreconditionViolated,
    RangeMismatch,
)
from .floyd_metric import FloydFunction
from .graph_core import GraphBall, graph_distance

EXHAUSTIVE_CAP = 400


@dataclass(frozen=True)
class DivergenceParams:
    """Detour parameters: forbidden radius is delta * r - gamma."""

    delta: float = 0.5
    gamma: float = 0.0

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


@dataclass(frozen=True)
class DivergenceSample:
    """Observed lower bound on Div(n) at ball scale.

    value None marks a genuinely disconnecting triple (infinite divergence).
    """

    n: int
    value: int | None
    witness: tuple[int, int, int]
    forbidden_radius: float
    protocol: str
    seed: int | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None


def _base_matrix(ball: GraphBall) -> sp.csr_matrix:
    indptr, indices = ball.csr_arrays
    data = np.ones(len(indices))
    return sp.csr_matrix((data, indices, indptr),
                         shape=(ball.vertex_count, ball.vertex_count))


def _directed_edges(ball: GraphBall) -> tuple[np.ndarray, np.ndarray]:
    indptr, indices = ball.csr_arrays
    degrees = np.diff(indptr)
    rows = np.repeat(np.arange(ball.vertex_count, dtype=np.int64), degrees)
    return rows, indices


def _punctured_matrix(ball: GraphBall, rows: np.ndarray, cols: np.ndarray,
                      allowed: np.ndarray) -> sp.csr_matrix:
    """The ball's adjacency restricted to edges between allowed vertices.

    `rows`, `cols` are the directed edges in CSR order (from _directed_edges),
    so the kept ones are already the punctured matrix's CSR arrays.
    """
    keep = allowed[rows] & allowed[cols]
    kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    indptr = kept_before[ball.csr_arrays[0]]
    return sp.csr_matrix((np.ones(int(indptr[-1])), cols[keep], indptr),
                         shape=(ball.vertex_count, ball.vertex_count))


def div_triple(ball: GraphBall, a: int, b: int, c: int,
               params: DivergenceParams) -> int | None:
    """Shortest a-b path length avoiding the closed ball B_c(delta*r - gamma),
    or None when the removal disconnects a from b.

    With delta*r - gamma <= 0 the forbidden set is empty and the value is
    exactly the graph distance.
    """
    for v in (a, b, c):
        ball.check_index(v)
    mat = _base_matrix(ball)
    d_c = dijkstra(mat, directed=True, unweighted=True, indices=[c])[0]
    r = min(d_c[a], d_c[b])
    if r == 0:
        raise PreconditionViolated("d(c, {a, b}) must be positive")
    threshold = params.delta * r - params.gamma
    if threshold <= 0:
        return graph_distance(ball, a, b)
    if a == b:
        return 0
    rows, cols = _directed_edges(ball)
    sub = _punctured_matrix(ball, rows, cols, d_c > threshold)
    val = dijkstra(sub, directed=True, unweighted=True, indices=[a])[0][b]
    return None if math.isinf(val) else int(val)


class _Buckets:
    """Per-pair-distance maxima with deterministic lexicographic witnesses."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.best = np.full(n_max + 1, -1.0)
        self.wit: list[tuple[int, int, int] | None] = [None] * (n_max + 1)
        self.radius: list[float] = [0.0] * (n_max + 1)
        self.inf_dab: int | None = None
        self.inf_wit: tuple[int, int, int] | None = None
        self.inf_radius = 0.0

    def offer(self, dab: int, value: float, witness: tuple[int, int, int],
              forbidden_radius: float) -> None:
        if value > self.best[dab] or (value == self.best[dab]
                                      and witness < self.wit[dab]):
            self.best[dab] = value
            self.wit[dab] = witness
            self.radius[dab] = forbidden_radius

    def offer_infinite(self, dab: int, witness: tuple[int, int, int],
                       forbidden_radius: float) -> None:
        key = (dab, witness)
        if self.inf_dab is None or key < (self.inf_dab, self.inf_wit):
            self.inf_dab, self.inf_wit = dab, witness
            self.inf_radius = forbidden_radius

    def finalize(self, n_min: int, protocol: str,
                 seed: int | None) -> list[DivergenceSample]:
        samples = []
        run = (-1.0, None, 0.0)
        for n in range(1, self.n_max + 1):
            if self.best[n] > run[0]:
                run = (float(self.best[n]), self.wit[n], self.radius[n])
            if n < n_min:
                continue
            if self.inf_dab is not None and self.inf_dab <= n:
                samples.append(DivergenceSample(
                    n=n, value=None, witness=self.inf_wit,
                    forbidden_radius=self.inf_radius, protocol=protocol,
                    seed=seed))
            elif run[1] is not None:
                samples.append(DivergenceSample(
                    n=n, value=int(run[0]), witness=run[1],
                    forbidden_radius=run[2], protocol=protocol, seed=seed))
            else:
                raise ValueError(f"no admissible triples with d(a,b) <= {n}")
        return samples


def _offer_group(buckets: _Buckets, c: int, a_vec: np.ndarray, ra_vec: np.ndarray,
                 params: DivergenceParams, prows: np.ndarray,
                 ambient_rows: np.ndarray, d_c_inner: np.ndarray,
                 inner: np.ndarray, n_max: int) -> None:
    """Fold a batch of (source a, center c) triples into the buckets.

    Keeps only partners b with d(c, b) >= d(c, a), so each unordered pair is
    enumerated with r = min(d(c,a), d(c,b)) exactly once (twice, harmlessly,
    when the two distances tie).
    """
    vv = prows[:, inner]
    sel = ((d_c_inner[None, :] >= ra_vec[:, None])
           & (ambient_rows <= n_max)
           & (inner[None, :] != a_vec[:, None]))
    if not sel.any():
        return
    finite = np.isfinite(vv) & sel
    infinite = sel & ~np.isfinite(vv)

    if infinite.any():
        dd_inf = ambient_rows[infinite].astype(np.int64)
        dmin = int(dd_inf.min())
        ii, jj = np.nonzero(infinite)
        hits = dd_inf == dmin
        best_wit = None
        best_ra = 0
        for i, j in zip(ii[hits].tolist(), jj[hits].tolist()):
            a, b = int(a_vec[i]), int(inner[j])
            wit = (min(a, b), max(a, b), c)
            if best_wit is None or wit < best_wit:
                best_wit, best_ra = wit, int(ra_vec[i])
        buckets.offer_infinite(dmin, best_wit,
                               params.delta * best_ra - params.gamma)

    if finite.any():
        dd_f = ambient_rows[finite].astype(np.int64)
        vv_f = vv[finite]
        group_best = np.full(n_max + 1, -1.0)
        np.maximum.at(group_best, dd_f, vv_f)
        for dab in np.flatnonzero((group_best >= 0) & (group_best >= buckets.best)):
            val = float(group_best[dab])
            ach = finite & (ambient_rows == dab) & (vv == val)
            ii, jj = np.nonzero(ach)
            best_wit = None
            best_ra = 0
            for i, j in zip(ii.tolist(), jj.tolist()):
                a, b = int(a_vec[i]), int(inner[j])
                wit = (min(a, b), max(a, b), c)
                if best_wit is None or wit < best_wit:
                    best_wit, best_ra = wit, int(ra_vec[i])
            buckets.offer(int(dab), val, best_wit,
                          params.delta * best_ra - params.gamma)


def _exhaustive_estimate(ball, n_max, params, inner, n_min, seed):
    mat = _base_matrix(ball)
    rows, cols = _directed_edges(ball)
    d_inner = dijkstra(mat, directed=True, unweighted=True, indices=inner.tolist())
    buckets = _Buckets(n_max)
    for ci, c in enumerate(inner.tolist()):
        d_c = d_inner[ci]
        d_c_inner = d_c[inner]
        groups: dict[int, list[int]] = {}
        for ai, ra in enumerate(d_c_inner.astype(np.int64).tolist()):
            if ra < 1:
                continue
            threshold = params.delta * ra - params.gamma
            groups.setdefault(-1 if threshold <= 0 else int(threshold), []).append(ai)
        for fk in sorted(groups):
            members = np.asarray(groups[fk], dtype=np.int64)
            ra_vec = d_c_inner[members].astype(np.int64)
            ambient_rows = d_inner[members][:, inner]
            if fk < 0:
                prows = d_inner[members][:, :]
            else:
                # A triple needs a punctured search only if its forbidden ball
                # can reach some a-b geodesic: d(c,a) + d(c,b) <= d(a,b) + 2t.
                # Otherwise every geodesic survives and the value is ambient.
                t_vec = params.delta * ra_vec - params.gamma
                sel = ((d_c_inner[None, :] >= ra_vec[:, None])
                       & (ambient_rows <= n_max)
                       & (inner[None, :] != inner[members][:, None]))
                blockable = sel & (d_c_inner[None, :] + ra_vec[:, None]
                                   <= ambient_rows + 2 * t_vec[:, None])
                needy = np.flatnonzero(blockable.any(axis=1))
                prows = d_inner[members].copy()
                if needy.size:
                    sub = _punctured_matrix(ball, rows, cols, d_c > fk)
                    prows[needy] = dijkstra(
                        sub, directed=True, unweighted=True,
                        indices=inner[members[needy]].tolist())
            _offer_group(buckets, c, inner[members], ra_vec, params, prows,
                         ambient_rows, d_c_inner, inner, n_max)
    return buckets.finalize(n_min, "exhaustive", seed)


def _sampled_estimate(ball, n_max, params, inner, n_min, seed, pairs_per_n,
                      c_per_pair):
    rng = random.Random(seed)
    mat = _base_matrix(ball)
    rows, cols = _directed_edges(ball)
    inner_set = set(inner.tolist())
    buckets = _Buckets(n_max)
    for n in range(1, n_max + 1):
        for _ in range(pairs_per_n):
            a = int(inner[rng.randrange(len(inner))])
            d_a, pred = dijkstra(mat, directed=True, unweighted=True,
                                 indices=[a], return_predecessors=True)
            d_a, pred = d_a[0], pred[0]
            partners = inner[d_a[inner] == n]
            if partners.size == 0:
                continue
            b = int(partners[rng.randrange(partners.size)])
            path = [b]
            while path[-1] != a:
                path.append(int(pred[path[-1]]))
            path.reverse()
            cands = [path[len(path) // 2]]
            for _ in range(c_per_pair - 1):
                v = path[rng.randrange(len(path))]
                for _ in range(rng.randrange(3)):
                    v = ball.adjacency[v][rng.randrange(len(ball.adjacency[v]))]
                cands.append(v)
            seen = set()
            for c in cands:
                if c in seen or c not in inner_set or c in (a, b):
                    continue
                seen.add(c)
                # c lies within 2 steps of the a-b geodesic, so
                # ra = d(c, {a, b}) <= n/2 + 2 < n + 3 is exact, and a vertex
                # beyond the limit (read as inf) is beyond the threshold too.
                d_c = dijkstra(mat, directed=True, unweighted=True, indices=[c],
                               limit=n + 3)[0]
                ra = int(min(d_c[a], d_c[b]))
                threshold = params.delta * ra - params.gamma
                wit = (min(a, b), max(a, b), c)
                if threshold <= 0:
                    buckets.offer(n, float(n), wit, threshold)
                    continue
                sub = _punctured_matrix(ball, rows, cols, d_c > threshold)
                val = dijkstra(sub, directed=True, unweighted=True, indices=[a])[0][b]
                if math.isinf(val):
                    buckets.offer_infinite(n, wit, threshold)
                else:
                    buckets.offer(n, float(val), wit, threshold)
    return buckets.finalize(n_min, "sampled", seed)


def div_function_estimate(ball: GraphBall, n_max: int, params: DivergenceParams,
                          protocol: str = "auto", seed: int = 0, *,
                          margin: float = 3.0, n_min: int = 1,
                          pairs_per_n: int = 8, c_per_pair: int = 4,
                          exhaustive_cap: int = EXHAUSTIVE_CAP
                          ) -> list[DivergenceSample]:
    """Estimate Div(n) for n = n_min..n_max over triples drawn from the
    inner region B_b(ball.radius / margin).

    protocol "exhaustive" enumerates every admissible triple in the inner
    region (grouped so one punctured search serves many partners);
    "sampled" draws seeded a-b pairs at distance n and centers c near their
    geodesics (a heuristic for finding large values, kept out of exhaustive
    mode); "auto" picks exhaustive for balls up to exhaustive_cap vertices.
    Values are certified lower bounds on Div at ball scale; the supremum is
    approximated, never certified.
    """
    if protocol not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if margin < 1:
        raise ValueError("margin must be >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max * margin > ball.radius + 1e-9:
        raise MarginViolated(
            f"n_max {n_max} violates margin {margin} on ball radius {ball.radius}")
    r_in = int(math.floor(ball.radius / margin + 1e-9))
    inner = np.flatnonzero(ball.dist <= r_in)
    if inner.size < 3:
        raise ValueError("inner region too small for divergence triples")
    if protocol == "auto":
        protocol = "exhaustive" if ball.vertex_count <= exhaustive_cap else "sampled"
    if protocol == "exhaustive":
        return _exhaustive_estimate(ball, n_max, params, inner, n_min, seed)
    return _sampled_estimate(ball, n_max, params, inner, n_min, seed,
                             pairs_per_n, c_per_pair)


@dataclass(frozen=True)
class GrowthFit:
    slope: float | None
    verdict: str
    n_used: int


def growth_fit(samples: Sequence[DivergenceSample],
               band: tuple[float, float] = (0.8, 1.2)) -> GrowthFit:
    """Least-squares slope of log(value) against log(n).

    Verdict "infinite" as soon as any infinity marker is present,
    "linear-compatible" inside the band, "superlinear" above it and
    "sublinear" below.
    """
    if any(s.is_infinite for s in samples):
        return GrowthFit(slope=None, verdict="infinite", n_used=len(samples))
    finite = [(s.n, s.value) for s in samples if s.value and s.n >= 1]
    if len(finite) < 4:
        raise InsufficientData(f"need >= 4 finite samples, got {len(finite)}")
    xs = np.log([n for n, _ in finite])
    ys = np.log([v for _, v in finite])
    slope = float(np.polyfit(xs, ys, 1)[0])
    if slope > band[1]:
        verdict = "superlinear"
    elif slope >= band[0]:
        verdict = "linear-compatible"
    else:
        verdict = "sublinear"
    return GrowthFit(slope=slope, verdict=verdict, n_used=len(finite))


@dataclass(frozen=True)
class CriterionTerm:
    n: int
    div_2n: int | None
    f_argument: int
    term: float | None


@dataclass(frozen=True)
class CriterionResult:
    terms: tuple[CriterionTerm, ...]
    verdict: str


def criterion_check(div_samples: Sequence[DivergenceSample], f: FloydFunction,
                    params: DivergenceParams,
                    n_range: Iterable[int]) -> CriterionResult:
    """The product sequence D(2n) * f(floor(delta*n - gamma)) with verdict.

    "decaying" when the final term dropped below a tenth of the maximum,
    "non-decaying" otherwise, "infinite" when D hits an infinity marker.
    The f argument uses the floor, with the f(0) convention at 0.
    """
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise ValueError("empty n range")
    by_n = {s.n: s for s in div_samples}
    terms = []
    for n in ns:
        if 2 * n not in by_n:
            raise RangeMismatch(f"divergence samples do not cover 2n = {2 * n}")
        arg = params.delta * n - params.gamma
        if arg < 0:
            raise RangeMismatch(f"delta*n - gamma negative at n = {n}")
        farg = int(math.floor(arg))
        sample = by_n[2 * n]
        if sample.is_infinite:
            terms.append(CriterionTerm(n=n, div_2n=None, f_argument=farg, term=None))
        else:
            terms.append(CriterionTerm(n=n, div_2n=sample.value, f_argument=farg,
                                       term=sample.value * f.value(farg)))
    if any(t.term is None for t in terms):
        verdict = "infinite"
    else:
        values = [t.term for t in terms]
        verdict = "decaying" if values[-1] < 0.1 * max(values) else "non-decaying"
    return CriterionResult(terms=tuple(terms), verdict=verdict)
