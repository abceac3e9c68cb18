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
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import (
    InsufficientData,
    MarginViolated,
    PreconditionViolated,
    RangeMismatch,
)
from .floyd_metric import FloydFunction
from .graph_core import (GraphBall, csr_induced, csr_restrict, extract_path,
                         unit_matrix)

EXHAUSTIVE_CAP = 400  # "auto" runs the exhaustive protocol up to this many vertices
SLOPE_BAND = (0.8, 1.2)  # growth_fit's linear-compatible log-log slopes


@dataclass(frozen=True)
class DivergenceParams:
    """Detour parameters: forbidden radius is delta * r - gamma."""

    delta: float = 0.5
    gamma: float = 0.0

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be a finite real >= 0")


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


class _Searches:
    """Unit-weight searches over one graph given as CSR arrays: the matrix
    is built once, then serves plain searches, punctured ones and the
    searches of induced windows."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.matrix = unit_matrix(indptr, indices)

    def plain(self, sources, **kw) -> np.ndarray:
        return dijkstra(self.matrix, directed=True, unweighted=True,
                        indices=sources, **kw)

    def punctured(self, d_c: np.ndarray, threshold: float,
                  sources) -> np.ndarray:
        """Distances from `sources` over the vertices with d_c > threshold,
        i.e. in the graph minus the closed ball B_c(threshold)."""
        sub = unit_matrix(*csr_restrict(self.matrix.indptr, self.matrix.indices,
                                        d_c > threshold))
        return dijkstra(sub, directed=True, unweighted=True, indices=sources)

    def window(self, members: np.ndarray) -> "_Searches":
        """Searches on the subgraph induced by `members` (sorted, distinct),
        with members[i] numbered i; self when `members` is every vertex."""
        if len(members) == self.matrix.shape[0]:
            return self
        return _Searches(*csr_induced(self.matrix.indptr, self.matrix.indices,
                                      members))


def div_triple(ball: GraphBall, a: int, b: int, c: int,
               params: DivergenceParams) -> int | None:
    """Shortest a-b path length avoiding the closed ball B_c(delta*r - gamma),
    or None when the removal disconnects a from b.

    With delta*r - gamma <= 0 the forbidden set is empty and the value is
    exactly the graph distance.
    """
    for v in (a, b, c):
        ball.check_index(v)
    search = _Searches(*ball.csr_arrays)
    d_c = search.plain([c])[0]
    r = min(d_c[a], d_c[b])
    if r == 0:
        raise PreconditionViolated("d(c, {a, b}) must be positive")
    threshold = params.delta * r - params.gamma
    if threshold > 0:
        val = search.punctured(d_c, threshold, [a])[0][b]
    else:
        val = search.plain([a])[0][b]
    return None if math.isinf(val) else int(val)


class _Buckets:
    """Per-pair-distance maxima with deterministic lexicographic witnesses."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.best = np.full(n_max + 1, -1.0)
        self.wit: list[tuple[int, int, int] | None] = [None] * (n_max + 1)
        self.radius: list[float] = [0.0] * (n_max + 1)
        # (d(a,b), witness, forbidden radius) of the chosen disconnecting triple
        self.inf: tuple[int, tuple[int, int, int], float] | None = None

    def offer(self, a: np.ndarray, b: np.ndarray, c, dab: np.ndarray,
              value: np.ndarray, radius: np.ndarray) -> None:
        """Fold triples (a, b, c), given as arrays, into the buckets.

        `value` is inf for a triple that disconnects a from b. Per d(a,b)
        the largest finite value wins, ties going to the smallest witness
        (min(a,b), max(a,b), c); among disconnecting triples the smallest
        (d(a,b), witness) wins. The fold is order-free, so callers may offer
        their triples in any grouping.
        """
        dab = dab.astype(np.int64)
        live = value >= self.best[dab]
        lo, hi = np.minimum(a, b)[live], np.maximum(a, b)[live]
        c = np.broadcast_to(c, live.shape)[live]
        dab, value, radius = dab[live], value[live], radius[live]
        order = np.lexsort((c, hi, lo, -value, dab))
        cut = np.isinf(value[order])
        if cut.any():
            i = order[cut][0]
            key = (int(dab[i]), (int(lo[i]), int(hi[i]), int(c[i])))
            if self.inf is None or key < self.inf[:2]:
                self.inf = (*key, float(radius[i]))
        order = order[~cut]
        # The first triple of each d(a,b) run has its largest value and,
        # among those, the smallest witness.
        firsts = order[np.flatnonzero(np.diff(dab[order], prepend=-1))]
        for i in firsts.tolist():
            d, val = int(dab[i]), float(value[i])
            wit = (int(lo[i]), int(hi[i]), int(c[i]))
            if val > self.best[d] or wit < self.wit[d]:
                self.best[d], self.wit[d] = val, wit
                self.radius[d] = float(radius[i])

    def finalize(self, n_min: int, protocol: str,
                 seed: int | None) -> list[DivergenceSample]:
        samples = []
        run = (-1.0, None, 0.0)
        for n in range(1, self.n_max + 1):
            if self.best[n] > run[0]:
                run = (float(self.best[n]), self.wit[n], self.radius[n])
            if n < n_min:
                continue
            if self.inf is not None and self.inf[0] <= n:
                samples.append(DivergenceSample(
                    n=n, value=None, witness=self.inf[1],
                    forbidden_radius=self.inf[2], protocol=protocol, seed=seed))
            elif run[1] is not None:
                samples.append(DivergenceSample(
                    n=n, value=int(run[0]), witness=run[1],
                    forbidden_radius=run[2], protocol=protocol, seed=seed))
            else:
                raise ValueError(f"no admissible triples with d(a,b) <= {n}")
        return samples


def _orbit_witnesses(group: np.ndarray, low: np.ndarray, key: np.ndarray,
                     a: np.ndarray, b: np.ndarray, c: int, radius: np.ndarray):
    """Per distinct `key` (a small nonnegative int), the smallest witness
    (min(ha, hb), max(ha, hb), hc) over every h in `group` and every triple
    (a[i], b[i], c) with that key, with the radius of the triple that gives
    it. Returns (key, lo, hi, c, radius) arrays, one entry per key.

    `low` is each vertex's smallest orbit image, so the least first entry
    of a key is lo* = min(low[a], low[b]) over its triples, and only
    triples with low[a] == lo* or low[b] == lo* are mapped through the
    group.
    """
    lo_orbit = np.minimum(low[a], low[b])
    lo_star = np.full(key.max() + 1, len(low))
    np.minimum.at(lo_star, key, lo_orbit)
    near = np.flatnonzero(lo_orbit == lo_star[key])
    key, radius = key[near], radius[near]
    ha, hb = group[:, a[near]], group[:, b[near]]
    g, i = np.nonzero(np.minimum(ha, hb) == lo_star[key])
    hi, hc, key = np.maximum(ha[g, i], hb[g, i]), group[g, c], key[i]
    order = np.lexsort((hc, hi, key))
    first = order[np.flatnonzero(np.diff(key[order], prepend=-1))]
    return (key[first], lo_star[key[first]], hi[first], hc[first],
            radius[i[first]])


def _exhaustive_estimate(ball, n_max, params, inner, n_min, seed):
    search = _Searches(*ball.csr_arrays)
    d_inner = search.plain(inner)
    ambient = d_inner[:, inner]
    # A base-fixing automorphism h keeps every distance, so it maps the
    # inner region onto itself and the triples at c, with their values and
    # radii, onto the triples at h(c). Only the smallest vertex of each
    # orbit is scanned as a center; its winning triples are then turned
    # into the smallest witness over all their images.
    group, low = ball.automorphisms, ball.orbit_min
    reps = np.unique(low[inner])
    best = np.full(n_max + 1, -1.0)  # largest value so far per d(a,b)
    d_inf = n_max + 1  # least d(a,b) of a disconnecting triple so far
    winners = []
    for ci, c in zip(np.searchsorted(inner, reps).tolist(), reps.tolist()):
        d_c = d_inner[ci]
        ra = d_c[inner]
        t = params.delta * ra - params.gamma
        # Row a keeps partners b with d(c, b) >= d(c, a) > 0, so each
        # unordered pair is enumerated with r = min(d(c,a), d(c,b)) = d(c,a)
        # exactly once (twice, harmlessly, when the two distances tie).
        admissible = ((ra[None, :] >= ra[:, None]) & (ra[:, None] > 0)
                      & (ambient > 0) & (ambient <= n_max))
        # A triple needs a punctured search only if its forbidden ball can
        # reach some a-b geodesic: d(c,a) + d(c,b) <= d(a,b) + 2t. Otherwise
        # every geodesic survives and the value is ambient.
        blockable = admissible & (t[:, None] > 0) & (
            ra[None, :] + ra[:, None] <= ambient + 2 * t[:, None])
        needy = np.flatnonzero(blockable.any(axis=1))
        values = ambient.copy()
        floors = np.floor(t[needy])
        for key in np.unique(floors):
            rows = needy[floors == key]
            values[rows] = search.punctured(d_c, key, inner[rows])[:, inner]
        ii, jj = np.nonzero(admissible)
        dab, value = ambient[ii, jj].astype(np.int64), values[ii, jj]
        cut = np.isinf(value)
        if cut.any():
            d_inf = min(d_inf, int(dab[cut].min()))
        # Div(n) is infinite for n >= d_inf, so finite buckets there are
        # never read, and only disconnecting triples of least d(a,b) can win.
        live = np.flatnonzero(np.where(cut, dab == d_inf, dab < d_inf))
        np.maximum.at(best, dab[live], value[live])
        tied = live[value[live] == best[dab[live]]]
        if tied.size:
            dabs, *witness = _orbit_witnesses(
                group, low, dab[tied], inner[ii[tied]], inner[jj[tied]], c,
                t[ii[tied]])
            winners.append((dabs, best[dabs], *witness))
    buckets = _Buckets(n_max)
    if winners:
        dab, value, lo, hi, hc, radius = map(np.concatenate, zip(*winners))
        buckets.offer(lo, hi, hc, dab, value, radius)
    return buckets.finalize(n_min, "exhaustive", seed)


def _window_detour(window: _Searches, d_c: np.ndarray, threshold: float,
                   wa: int, wb: int, rim: np.ndarray, bound: float):
    """The a-b value of a triple from its punctured search on the window
    W = B_a(L), numbered as the window, or None when W cannot decide it.

    A path that leaves W reaches d_a = L + 1 and comes back to b, so it
    is at least `bound` = 2L + 2 - d(a, b) long and a value up to it is
    exact; an unreached b is exact (inf) when a's component reaches no
    vertex of the `rim` d_a = L. `bound` is inf when W is the whole ball.
    """
    row = window.punctured(d_c, threshold, [wa])[0]
    if row[wb] <= bound:
        return float(row[wb])
    if math.isinf(row[wb]) and np.isinf(row[rim]).all():
        return math.inf
    return None


def _sampled_estimate(ball, n_max, params, inner, n_min, seed, pairs_per_n,
                      c_per_pair):
    rng = random.Random(seed)
    search = _Searches(*ball.csr_arrays)
    indptr, indices = ball.csr_arrays
    inner_set = set(inner.tolist())
    triples: list[tuple[int, int, int, int, float, float]] = []
    for n in range(1, n_max + 1):
        reach = 2 * n + 4  # window radius L
        for _ in range(pairs_per_n):
            a = int(inner[rng.randrange(len(inner))])
            # A vertex within n of a gets its predecessor while the heap
            # holds only vertices within n, which the limit L > n keeps:
            # partners and the geodesic are those of an unbounded search.
            d_a, pred = search.plain([a], limit=reach, return_predecessors=True)
            d_a, pred = d_a[0], pred[0]
            partners = inner[d_a[inner] == n]
            if partners.size == 0:
                continue
            b = int(partners[rng.randrange(partners.size)])
            path = [int(v) for v in extract_path(pred, b)]
            cands = [path[len(path) // 2]]
            for _ in range(c_per_pair - 1):
                v = path[rng.randrange(len(path))]
                for _ in range(rng.randrange(3)):
                    row = indptr[v]
                    v = int(indices[row + rng.randrange(indptr[v + 1] - row)])
                cands.append(v)
            centers = []
            for c in cands:
                if c not in centers and c in inner_set and c not in (a, b):
                    centers.append(c)
            if not centers:
                continue
            # Every search of the pair but the first runs on W = B_a(L).
            # c lies within 2 steps of the a-b geodesic, so d(a, c) <= n + 2
            # and ra = d(c, {a, b}) <= n/2 + 2 < n + 3: the path from c to
            # the nearer endpoint and the forbidden ball B_c(threshold), with
            # the geodesics into it, lie in B_a(1.5n + 4) inside W. So ra,
            # the threshold and the forbidden set are those of the whole
            # ball, and a vertex beyond the limit (read as inf) is beyond
            # the threshold too.
            members = np.flatnonzero(d_a <= reach)
            window = search.window(members)
            wa, wb, *wc = np.searchsorted(members, [a, b, *centers]).tolist()
            bound = math.inf if window is search else 2 * reach + 2 - n
            rim = np.flatnonzero(d_a[members] == reach)
            for c, d_c in zip(centers, window.plain(wc, limit=n + 3)):
                ra = int(min(d_c[wa], d_c[wb]))
                threshold = params.delta * ra - params.gamma
                value = float(n)
                if threshold > 0:
                    value = _window_detour(window, d_c, threshold, wa, wb, rim,
                                           bound)
                if value is None:  # the forbidden set lies in W
                    d_ball = np.full(ball.vertex_count, math.inf)
                    d_ball[members] = d_c
                    value = search.punctured(d_ball, threshold, [a])[0][b]
                triples.append((a, b, c, n, value, threshold))
    buckets = _Buckets(n_max)
    if triples:
        a, b, c, dab, value, radius = (np.array(col) for col in zip(*triples))
        buckets.offer(a, b, c, dab, value, radius)
    return buckets.finalize(n_min, "sampled", seed)


def div_function_estimate(ball: GraphBall, n_max: int, params: DivergenceParams,
                          protocol: str = "auto", seed: int = 0, *,
                          margin: float = 3.0, n_min: int = 1,
                          pairs_per_n: int = 8, c_per_pair: int = 4
                          ) -> list[DivergenceSample]:
    """Estimate Div(n) for n = n_min..n_max over triples drawn from the
    inner region B_b(ball.radius / margin).

    protocol "exhaustive" covers every admissible triple in the inner
    region (grouped so one punctured search serves many partners), scanning
    one center per orbit of `ball.automorphisms` and picking each witness
    over the images of the tied triples, with the same samples as a scan
    of every center; "sampled" draws seeded a-b pairs at distance n and
    centers c near their geodesics (a heuristic for finding large values,
    kept out of exhaustive mode); "auto" picks exhaustive for balls up to
    EXHAUSTIVE_CAP vertices. A forced "exhaustive" on an inner region of
    more than EXHAUSTIVE_CAP vertices warns first (RuntimeWarning): it
    can take minutes. Values are certified lower bounds on Div at ball
    scale; the supremum is approximated, never certified. margin must be a
    finite real >= 1.

    Both protocols, and div_triple, run on one engine: a `_Searches` object
    per graph does every plain and punctured search, and `_Buckets.offer`
    picks values and witnesses from arrays of triples by one rule. The
    sampled protocol runs one search per a-b pair on the ball, from a up to
    L = 2n + 4; the pair's other searches run on the induced window
    B_a(L), falling back to the whole ball for a triple the window cannot
    decide (see `_window_detour`), so its samples are those of whole-ball
    searches.
    """
    if protocol not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if not 1 <= margin < math.inf:
        raise ValueError("margin must be a finite real >= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max * margin > ball.radius + 1e-9:
        raise MarginViolated(
            f"n_max {n_max} violates margin {margin} on ball radius {ball.radius}")
    r_in = int(math.floor(ball.radius / margin + 1e-9))
    inner = np.flatnonzero(ball.dist <= r_in)
    if inner.size < 3:
        raise ValueError("inner region too small for divergence triples")
    if protocol == "exhaustive" and inner.size > EXHAUSTIVE_CAP:
        warnings.warn(
            f"exhaustive divergence on {inner.size} inner vertices, above "
            f"EXHAUSTIVE_CAP = {EXHAUSTIVE_CAP}: this can take minutes "
            f"(the sampled protocol is the fast one)", RuntimeWarning,
            stacklevel=2)
    if protocol == "auto":
        protocol = "exhaustive" if ball.vertex_count <= EXHAUSTIVE_CAP else "sampled"
    if protocol == "exhaustive":
        return _exhaustive_estimate(ball, n_max, params, inner, n_min, seed)
    return _sampled_estimate(ball, n_max, params, inner, n_min, seed,
                             pairs_per_n, c_per_pair)


@dataclass(frozen=True)
class GrowthFit:
    slope: float | None
    verdict: str
    n_used: int


def growth_fit(samples: Sequence[DivergenceSample]) -> GrowthFit:
    """Least-squares slope of log(value) against log(n).

    Verdict "infinite" as soon as any infinity marker is present,
    "linear-compatible" inside SLOPE_BAND (ends included), "superlinear"
    above it and "sublinear" below.
    """
    if any(s.is_infinite for s in samples):
        return GrowthFit(slope=None, verdict="infinite", n_used=len(samples))
    finite = [(s.n, s.value) for s in samples if s.value and s.n >= 1]
    if len(finite) < 4:
        raise InsufficientData(f"need >= 4 finite samples, got {len(finite)}")
    xs = np.log([n for n, _ in finite])
    ys = np.log([v for _, v in finite])
    slope = float(np.polyfit(xs, ys, 1)[0])
    if slope > SLOPE_BAND[1]:
        verdict = "superlinear"
    elif slope >= SLOPE_BAND[0]:
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
