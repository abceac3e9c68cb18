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
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .errors import (
    InsufficientData,
    MarginViolated,
    PreconditionViolated,
    RangeMismatch,
)
from .floyd_metric import FloydFunction
from .graph_core import (
    GraphBall,
    Symmetry,
    bfs_parents,
    bfs_rows,
    block_rows,
    extract_path,
    punctured_paths,
)

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


def div_triple(ball: GraphBall, a: int, b: int, c: int,
               params: DivergenceParams) -> int | None:
    """Shortest a-b path length avoiding the closed ball B_c(delta*r - gamma),
    or None when the removal disconnects a from b.

    With delta*r - gamma <= 0 the forbidden set is empty and the value is
    exactly the graph distance.
    """
    for v in (a, b, c):
        ball.check_index(v)
    d_c, d_a = bfs_rows(*ball.csr_arrays, [c, a])
    r = min(d_c[a], d_c[b])
    if r == 0:
        raise PreconditionViolated("d(c, {a, b}) must be positive")
    threshold = params.delta * r - params.gamma
    if threshold > 0:
        path, = punctured_paths(*ball.csr_arrays, [a], [b],
                                [np.flatnonzero(d_c <= threshold)])
        return None if path is None else len(path) - 1
    return None if math.isinf(d_a[b]) else int(d_a[b])


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


def _orbit_witnesses(symmetry: Symmetry, members: np.ndarray, key: np.ndarray,
                     a: np.ndarray, b: np.ndarray, radius: np.ndarray):
    """Per distinct `key` (a small nonnegative int), the smallest witness
    (min(a', b'), max(a', b'), c') over the triples (a[i], b[i]) with that
    key at the center c = orbit_min, mapped to every center c' of c's orbit
    `members` by the transversal element u_c' of `symmetry`, with the
    radius of the triple that gives it. The images at c' are the triples
    at c', whichever group element sends c to c', so the minimum is the one
    over all centers. Returns (key, lo, hi, c', radius) arrays, one entry
    per key.

    Each image end lies in the orbit of its end, so the least first entry
    of a key is lo* = min(low[a], low[b]) over its triples, low being the
    orbit minima. A triple gives lo* at c' exactly when one end is
    y = u_c'^-1(lo*): only the triples with that end are mapped, and only
    their other end. Each of the two maps is one `Symmetry.move` over all
    queries.
    """
    low = symmetry.orbit_min
    lo_star = np.full(key.max() + 1, len(low))
    np.minimum.at(lo_star, key, np.minimum(low[a], low[b]))
    keys = np.unique(key)
    # Query q: center member[q] and key kq[q], with its end y[q].
    kq, member = np.repeat(keys, len(members)), np.tile(members, len(keys))
    y = symmetry.move(member, lo_star[kq], inverse=True)
    # Both ends of every triple, sorted by (key, end).
    width = len(low)
    code = np.concatenate([key * width + a, key * width + b])
    other = np.concatenate([b, a])
    order = np.argsort(code, kind="stable")
    code, other, triple = code[order], other[order], order % len(a)
    start = np.searchsorted(code, kq * width + y)
    sizes = np.searchsorted(code, kq * width + y, side="right") - start
    q = np.repeat(np.arange(len(kq)), sizes)
    before = np.cumsum(sizes) - sizes  # matches of the queries before q
    at = start[q] + np.arange(len(q)) - before[q]
    hi = symmetry.move(member[q], other[at])
    k, c = kq[q], member[q]
    order = np.lexsort((c, hi, k))
    first = order[np.flatnonzero(np.diff(k[order], prepend=-1))]
    return (k[first], lo_star[k[first]], hi[first], c[first],
            radius[triple[at[first]]])


def _center_triples(ra, ambient, params, n_max):
    """The forbidden radius t = delta * d(c, a) - gamma of every row a of
    the inner region, given ra = d(c, a) per inner vertex, and the
    admissible (a, b) pairs of center c as an (inner, inner) mask.

    Row a keeps partners b with d(c, b) >= d(c, a) > 0, so each unordered
    pair is enumerated with r = min(d(c,a), d(c,b)) = d(c,a) exactly once
    (twice, harmlessly, when the two distances tie).
    """
    t = params.delta * ra - params.gamma
    admissible = ((ra[None, :] >= ra[:, None]) & (ra[:, None] > 0)
                  & (ambient > 0) & (ambient <= n_max))
    return t, admissible


def _exhaustive_estimate(ball, n_max, params, inner, n_min, seed):
    indptr, indices = ball.csr_arrays
    ambient = bfs_rows(indptr, indices, inner, columns=inner)
    # A base-fixing automorphism h keeps every distance, so it maps the
    # inner region onto itself and the triples at c, with their values and
    # radii, onto the triples at h(c). Only the smallest vertex of each
    # orbit is scanned as a center; its winning triples are then turned
    # into the smallest witness over their images at every center, the
    # orbit's members, which the inner region holds.
    symmetry = ball.symmetry
    reps = np.unique(symmetry.orbit_min[inner])
    # The centers' rows are kept over the window that holds every forbidden
    # ball: B_c(floor t) with t = delta * d(c, a) - gamma <= delta * 2 r_in
    # - gamma, around a center within r_in of the base.
    r_in = int(ball.dist[inner].max())
    reach = r_in + max(0, math.floor(params.delta * (2 * r_in) - params.gamma))
    window = np.flatnonzero(ball.dist <= reach)
    d_reps = bfs_rows(indptr, indices, reps, columns=window)
    inner_at = np.searchsorted(window, inner)
    best = np.full(n_max + 1, -1.0)  # largest value so far per d(a,b)
    d_inf = n_max + 1  # least d(a,b) of a disconnecting triple so far
    winners = []

    def fold(i, ra, needy, rows):
        """Fold the triples at center reps[i], whose rows `needy` of the
        inner region have the punctured distances `rows`."""
        nonlocal d_inf
        t, admissible = _center_triples(ra, ambient, params, n_max)
        values = ambient.copy()
        values[needy] = rows
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
            members, _ = symmetry.orbit_members([reps[i]])
            dabs, *witness = _orbit_witnesses(
                symmetry, members, dab[tied], inner[ii[tied]],
                inner[jj[tied]], t[ii[tied]])
            winners.append((dabs, best[dabs], *witness))

    chunk = block_rows(len(inner))
    first = 0
    while first < len(reps):
        # The punctured rows of consecutive centers, until there are about
        # `chunk` of them, run as one block of breadth-first searches.
        needy_of, blocked = [], []
        stop = first
        while stop < len(reps) and len(blocked) < chunk:
            ra = d_reps[stop, inner_at]
            t, admissible = _center_triples(ra, ambient, params, n_max)
            # A triple needs a punctured search only if its forbidden ball
            # can reach some a-b geodesic: d(c,a) + d(c,b) <= d(a,b) + 2t.
            # Otherwise every geodesic survives and the value is ambient.
            blockable = admissible & (t[:, None] > 0) & (
                ra[None, :] + ra[:, None] <= ambient + 2 * t[:, None])
            needy = np.flatnonzero(blockable.any(axis=1))
            # Row a avoids B_c(floor t), the vertices within t of c.
            keys, key_of = np.unique(np.floor(t[needy]), return_inverse=True)
            balls = [window[d_reps[stop] <= key] for key in keys]
            blocked += [balls[i] for i in key_of.tolist()]
            needy_of.append(needy)
            stop += 1
        found = bfs_rows(indptr, indices, inner[np.concatenate(needy_of)],
                         blocked, inner)
        at = 0
        for i, needy in zip(range(first, stop), needy_of):
            fold(i, d_reps[i, inner_at], needy, found[at:at + len(needy)])
            at += len(needy)
        del found  # freed before the next block allocates its rows
        first = stop
    buckets = _Buckets(n_max)
    if winners:
        dab, value, lo, hi, hc, radius = map(np.concatenate, zip(*winners))
        buckets.offer(lo, hi, hc, dab, value, radius)
    return buckets.finalize(n_min, "exhaustive", seed)


def _sampled_estimate(ball, n_max, params, inner, n_min, seed, pairs_per_n,
                      c_per_pair):
    rng = random.Random(seed)
    indptr, indices = ball.csr_arrays
    # The draws' one unit-weight scipy search: its heap order picks the
    # geodesic that the later draws read.
    unit = sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                         shape=(ball.vertex_count,) * 2)
    inner_set = set(inner.tolist())
    # Draw every triple first: only the search from a feeds the draws.
    triples: list[tuple[int, int, int, int]] = []  # (a, b, c, n)
    for n in range(1, n_max + 1):
        for _ in range(pairs_per_n):
            a = int(inner[rng.randrange(len(inner))])
            # A vertex within n of a gets its predecessor from a vertex
            # within n - 1, popped before any vertex at distance n is; until
            # then the heap holds only vertices within n, limit or not. So
            # the limit n keeps the partners and the geodesic of an
            # unbounded search.
            d_a, pred = dijkstra(unit, directed=True, indices=[a],
                                 limit=n, return_predecessors=True)
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
            triples += [(a, b, c, n) for c in centers]
    buckets = _Buckets(n_max)
    if not triples:
        return buckets.finalize(n_min, "sampled", seed)
    a, b, c, dab = (np.array(col, dtype=np.int64) for col in zip(*triples))
    radius, forbidden = _forbidden_balls(ball, params, a, b, c, dab)
    value = dab.astype(float)
    cut = radius > 0  # a BFS path is a shortest one
    paths = punctured_paths(indptr, indices, a[cut], b[cut], forbidden)
    value[cut] = [math.inf if p is None else len(p) - 1 for p in paths]
    buckets.offer(a, b, c, dab, value, radius)
    return buckets.finalize(n_min, "sampled", seed)


def _forbidden_balls(ball, params, a, b, c, dab):
    """The forbidden radius t of every triple (a[i], b[i], c[i]) with
    d(a, b) = dab[i] (ascending), and the vertices of B_c(t) of each triple
    with t > 0, from one breadth-first search per center, run in blocks of
    `block_rows(V)` consecutive triples.

    c lies within 2 steps of the a-b geodesic, so ra = d(c, {a, b}) <=
    n // 2 + 2, which a block's cap, that of its largest n, is at least.
    The threshold is below ra, so ra and the forbidden ball B_c(threshold)
    are those of an uncapped search: an end beyond the cap reads -1, taken
    as inf, and a vertex beyond the cap is never reached, so no forbidden
    ball holds it.
    """
    indptr, indices = ball.csr_arrays
    radius = np.empty(len(dab))
    forbidden = []
    block = block_rows(ball.vertex_count)
    for lo in range(0, len(dab), block):
        rows = slice(lo, lo + block)
        d_c, _, reached = bfs_parents(indptr, indices, c[rows],
                                      cap=int(dab[rows][-1]) // 2 + 2, parents=False)
        ends = np.take_along_axis(d_c, np.column_stack([a[rows], b[rows]]), 1)
        ra = np.where(ends < 0, np.inf, ends).min(axis=1)
        t = params.delta * ra - params.gamma
        radius[rows] = t
        # Row i's ball is the run of keys i * V + v among the sorted keys
        # that the searches reach within t.
        width = d_c.shape[1]
        key = np.sort(reached[d_c.reshape(-1)[reached] <= t[reached // width]])
        bounds = np.searchsorted(key, np.arange(len(d_c) + 1) * width).tolist()
        vertex = key % width
        forbidden += [vertex[bounds[i]:bounds[i + 1]]
                      for i in np.flatnonzero(t > 0).tolist()]
    return radius, forbidden


def div_function_estimate(ball: GraphBall, n_max: int, params: DivergenceParams,
                          protocol: str = "auto", seed: int = 0, *,
                          margin: float = 3.0, n_min: int = 1,
                          pairs_per_n: int = 8, c_per_pair: int = 4
                          ) -> list[DivergenceSample]:
    """Estimate Div(n) for n = n_min..n_max over triples drawn from the
    inner region B_b(ball.radius / margin).

    protocol "exhaustive" covers every admissible triple in the inner region
    (grouped so one punctured search serves many partners), scanning one
    center per orbit of `ball.symmetry` and picking each witness over the
    images of the tied triples at every center of the orbit, with the same
    samples as a scan of every center; "sampled" draws seeded a-b pairs at
    distance n and centers c near their geodesics (a heuristic for finding
    large values, kept out of exhaustive mode); "auto" picks exhaustive for
    balls up to EXHAUSTIVE_CAP vertices. A forced "exhaustive" on an inner
    region of more than EXHAUSTIVE_CAP vertices warns first
    (RuntimeWarning): it can take minutes. Values are certified lower bounds
    on Div at ball scale; the supremum is approximated, never certified.
    margin must be a finite real >= 1.

    Both protocols pick values and witnesses from arrays of triples by one
    rule (`_Buckets.offer`). The sampled protocol first draws every triple,
    running one Dijkstra search from a up to n per a-b pair on a unit matrix
    of the CSR arrays, built once per call (its heap order picks the
    geodesic that the later draws read); it then runs the centers'
    breadth-first searches in blocks of `graph_core.block_rows` triples
    (`graph_core.bfs_parents`, capped at n // 2 + 2 of the block's largest
    n), and all punctured detours in blocks of breadth-first searches that
    stop when they reach b (`graph_core.punctured_paths`). The exhaustive
    protocol runs no Dijkstra: its ambient rows, its centers' rows and its
    punctured rows (row a in the ball minus B_c(floor t)) are bit-parallel
    breadth-first searches (`graph_core.bfs_rows`): the centers' rows kept
    only over the base ball that holds every forbidden ball, the punctured
    rows of consecutive centers gathered into blocks of about
    BLOCK_CELLS / |inner| searches.

    div_triple reads d(c, .) and d(a, .) from one `bfs_rows` call and takes
    one detour from `punctured_paths`.
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
