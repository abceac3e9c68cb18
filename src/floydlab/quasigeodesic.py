"""Quasi-geodesic certification, escape-constant solving, ball-avoiding ray
search, and the finite-scale wideness probe.

A path is a C-quasi-geodesic when every pair of its vertices v, v' satisfies
(1/C) d(v,v') - C <= |p(v,v')| <= C d(v,v') + C, where |p(v,v')| is the
subpath length. Certification checks all position pairs of the vertex
sequence, so a path revisiting a vertex is bounded below by its loop length.
Distances are ball distances; near the truncation boundary they upper-bound
the ambient metric, which can only raise the certified constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRadii, NonPath, SegmentTooLong
from .graph_core import (
    GraphBall,
    bfs_distances,
    bfs_parents,
    bfs_rows,
    block_rows,
    csr_induced,
    punctured_paths,
)

SLACK_PATHS = 200  # escape_ray_search's budget of backtracked paths per start
U_CAP = 6  # wideness_probe's ring vertices tried as segment ends per anchor


@dataclass(frozen=True)
class PathWitness:
    """An edge path given by its vertex sequence, optionally with a
    certified quasi-geodesic constant (None = uncertified)."""

    vertices: tuple[int, ...]
    certified_C: float | None = None


def format_witness(witness: PathWitness) -> str:
    """Serialize as 'C=<value> v0 v1 ...' (one path per line)."""
    c = "uncertified" if witness.certified_C is None else repr(witness.certified_C)
    return " ".join([f"C={c}", *map(str, witness.vertices)])


def _vertices_of(path) -> tuple[int, ...]:
    if isinstance(path, PathWitness):
        return path.vertices
    return tuple(path)


def qg_certify(ball: GraphBall, path) -> float:
    """Least C >= 1 satisfying both quasi-geodesic inequalities for every
    pair of path positions.

    Each pair contributes two closed-form constraints, so the minimum is
    exact: the upper inequality gives C >= L/(d+1) and the lower one
    C >= (sqrt(L^2 + 4d) - L)/2 for subpath length L and distance d.
    """
    verts = _vertices_of(path)
    if not verts:
        raise ValueError("empty path")
    for v in verts:
        ball.check_index(v)
    indptr, indices = ball.csr_arrays
    for u, v in zip(verts, verts[1:]):
        if v not in indices[indptr[u]:indptr[u + 1]]:
            raise NonPath(f"vertices {u} and {v} not adjacent")
    total = len(verts) - 1
    if total == 0:
        return 1.0
    # Path vertices lie within `total` of each other, so the cap cuts no
    # distance that is read. Every operation below is exact or correctly
    # rounded, so the maximum is the same as one taken pair by pair.
    at = np.array(verts)
    distinct, row_of = np.unique(at, return_inverse=True)
    dist = bfs_parents(*ball.csr_arrays, distinct, cap=total, parents=False)[0]
    i, j = np.triu_indices(len(verts), 1)
    sub, d = (j - i).astype(float), dist[row_of[i], at[j]]
    return max(1.0, float((sub / (d + 1)).max()),
               float(((np.sqrt(sub * sub + 4 * d) - sub) / 2).max()))


@dataclass(frozen=True)
class EscapeConstants:
    K: float
    R: float


def escape_constants(C: float) -> EscapeConstants:
    """Constants (K, R) making 2r/K + C < ((KC-1)/(KC)) r - C strict for all
    r > R.

    K is fixed at 4 (any K >= 2 works; fixing it gives a closed form):
    rearranging, the inequality holds exactly for r > 2C / (1 - 1/(KC) - 2/K),
    and the denominator is at least 1/4 for C >= 1.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    k = 4.0
    r = 2.0 * C / (1.0 - 1.0 / (k * C) - 2.0 / k)
    return EscapeConstants(K=k, R=r)


def escape_ray_search(ball: GraphBall, x: int, C: float, inner_radius: float,
                      outer_radius: int) -> PathWitness | None:
    """Search for a C-quasi-geodesic from within distance C of x out to the
    sphere S_outer, avoiding the closed base ball of radius inner_radius.

    Strategy: shortest paths in the punctured ball from candidate starts,
    certified after the fact; then bounded backtracking over near-shortest
    paths (slack 2C edges, at most SLACK_PATHS paths per start). Returns
    None when nothing certifies: at finite scale absence is inconclusive,
    never a refutation.
    """
    ball.check_index(x)
    if inner_radius >= outer_radius:
        raise BadRadii(f"inner radius {inner_radius} >= outer radius {outer_radius}")
    if outer_radius > ball.radius:
        raise ValueError(f"outer radius {outer_radius} exceeds ball radius")
    if C < 1:
        raise ValueError("C must be >= 1")
    if ball.dist[x] <= inner_radius:
        raise ValueError(f"x = {x} at distance {ball.dist[x]} from the base "
                         f"lies inside the closed inner ball of radius {inner_radius}")

    targets = np.flatnonzero(ball.dist == outer_radius)
    if not targets.size:
        return None

    near = bfs_distances(*ball.csr_arrays, x, cap=int(C))
    starts = np.flatnonzero((near >= 0) & (ball.dist > inner_radius))
    starts = starts[np.argsort(near[starts], kind="stable")]
    # Every search runs in the ball minus the closed inner ball: one induced
    # graph on the vertices outside it serves them all.
    inside = np.flatnonzero(ball.dist <= inner_radius)
    outside = np.flatnonzero(ball.dist > inner_radius)
    rank = np.full(ball.vertex_count, -1, dtype=np.int64)
    rank[outside] = np.arange(len(outside))
    punctured = csr_induced(*ball.csr_arrays, outside)
    to_target = None  # each vertex's distance to the nearest target, once read
    block = block_rows(len(targets))  # start rows per bfs_rows call
    for lo in range(0, len(starts), block):
        chunk = starts[lo:lo + block]
        rows = bfs_rows(*punctured, rank[chunk], columns=rank[targets])
        for start, dist in zip(chunk.tolist(), rows):
            best = int(np.argmin(dist))  # the first of the nearest targets
            if math.isinf(dist[best]):
                continue
            path, = punctured_paths(*ball.csr_arrays, [start], [targets[best]],
                                    [inside])
            c = qg_certify(ball, path)
            if c <= C + 1e-12:
                return PathWitness(vertices=tuple(path), certified_C=c)
            if to_target is None:  # inf inside the inner ball and where cut off
                d = bfs_distances(*punctured, rank[targets])
                nearest = np.full(ball.vertex_count, math.inf)
                nearest[outside] = np.where(d < 0, math.inf, d)
                to_target = nearest.tolist()
            witness = _backtrack(ball, start, C, targets, dist[best] + int(2 * C),
                                 to_target)
            if witness is not None:
                return witness
    return None


def _backtrack(ball, start, C, targets, budget, dist_to_target):
    """Bounded backtracking from `start`: enumerate paths of length <=
    `budget` whose every prefix can still reach a target within budget,
    and return the first that certifies at C. The budget keeps the DFS off
    the inner ball and off vertices cut off from the targets, which
    `dist_to_target` reads as inf."""
    at_target = set(targets.tolist())
    tried = 0
    indptr, indices = ball.csr_arrays
    ptr, row = memoryview(indptr), memoryview(indices)

    def dfs(v, used, seen, trail):
        nonlocal tried
        if tried >= SLACK_PATHS:
            return None
        if v in at_target:
            tried += 1
            c_here = qg_certify(ball, trail)
            if c_here <= C + 1e-12:
                return PathWitness(vertices=tuple(trail), certified_C=c_here)
            return None
        for w in row[ptr[v]:ptr[v + 1]]:
            if w in seen or used + 1 + dist_to_target[w] > budget:
                continue
            seen.add(w)
            trail.append(w)
            found = dfs(w, used + 1, seen, trail)
            trail.pop()
            seen.discard(w)
            if found is not None or tried >= SLACK_PATHS:
                return found
        return None

    return dfs(start, 0, {start}, [start])


@dataclass(frozen=True)
class WidenessReport:
    C: float
    segment_length: int
    eligible: tuple[int, ...]
    witnesses: dict
    failures: tuple[int, ...]
    pass_fraction: float


def wideness_probe(ball: GraphBall, C: float, segment_length: int) -> WidenessReport:
    """Finite-scale surrogate of 'every point lies near a bi-infinite
    quasi-geodesic': for each eligible vertex x, look for a certified
    segment of length >= segment_length passing within C of x with x near
    its middle.

    Checked only for vertices with room for half a segment:
    ball.dist <= radius - ceil(segment_length / 2). The search tries
    diametrically opposed geodesic arms through a point x' in B_x(C), taking
    the first U_CAP vertices of the ring at distance half a segment from x'
    as one end; when the arm endpoints are at full distance the
    concatenation is a geodesic and certifies at 1. For C > 1 a relaxed
    endpoint distance is accepted if the concatenation certifies at C.

    The search runs on each symmetry orbit of `ball.symmetry` until a
    member passes: round r searches the r-th eligible member, in ascending
    order, of every orbit that has not passed. A round's vertices are
    searched together, `block_rows(V)` vertices to a block of breadth-first
    searches (`bfs_parents`), each vertex trying its candidates in the
    order above. An automorphism h keeps every ball distance, so it keeps
    eligibility and maps a segment certified at C around x onto one
    certified at C around h(x). When x is the first of its orbit to pass,
    every member y of the orbit (`Symmetry.orbit_members`) gets
    u_y(u_x^-1(path)) as its witness, u being the transversal elements
    that send the orbit's smallest vertex to x and to y; x keeps its own,
    and the members before x, which failed, get theirs this way too. The
    pass set is thus the union of the orbits that hold a vertex the search
    passes on its own, with one witness per passing vertex.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    if segment_length < 2:
        raise ValueError("segment_length must be >= 2")
    half = math.ceil(segment_length / 2)
    if ball.radius - half < 0:
        raise SegmentTooLong(
            f"segment of length {segment_length} cannot fit in radius {ball.radius}")
    eligible = tuple(np.flatnonzero(ball.dist <= ball.radius - half).tolist())
    symmetry = ball.symmetry
    orbit = symmetry.orbit_min
    passed = np.zeros(ball.vertex_count, dtype=bool)  # by smallest vertex
    found_at: dict[int, PathWitness] = {}
    pending = np.array(eligible, dtype=np.int64)
    while len(pending):
        # One round: the smallest pending member of every orbit not passed.
        _, first = np.unique(orbit[pending], return_index=True)
        first.sort()
        xs = pending[first]
        hits = [(x, found) for x, found in
                zip(xs.tolist(), _middle_segments(ball, xs, C, half))
                if found is not None]
        if hits:
            x = np.array([x for x, _ in hits])
            passed[orbit[x]] = True
            # Each passing path, moved to its orbit's smallest vertex, then
            # to every member of the orbit.
            to_min = symmetry.to_rep(x, [found.vertices for _, found in hits])
            members, sizes = symmetry.orbit_members(orbit[x])
            owner = np.repeat(np.arange(len(hits)), sizes)
            images = symmetry.from_rep(members, to_min[owner]).tolist()
            for y, i, path in zip(members.tolist(), owner.tolist(), images):
                found_at[y] = PathWitness(vertices=tuple(path),
                                          certified_C=hits[i][1].certified_C)
        pending = np.delete(pending, first)
        pending = pending[~passed[orbit[pending]]]
    witnesses = {x: found_at[x] for x in eligible if x in found_at}
    failures = tuple(x for x in eligible if x not in found_at)
    frac = len(witnesses) / len(eligible) if eligible else 1.0
    return WidenessReport(C=C, segment_length=segment_length, eligible=eligible,
                          witnesses=witnesses, failures=failures,
                          pass_fraction=frac)


def _middle_segments(ball, xs, C, half):
    """The segment found around each vertex of `xs` (None where there is
    none), searched in blocks of `block_rows(V)` vertices, as every block
    of searches is."""
    block = block_rows(ball.vertex_count)
    found = []
    for i in range(0, len(xs), block):
        found += _segment_block(ball, xs[i:i + block], C, half)
    return found


def _segment_block(ball, xs, C, half):
    """Each x of `xs` tries anchors x1 within C of it, nearest first (ties
    by id), and as segment ends u the first U_CAP vertices, by id, of the
    ring at distance `half` from x1, until one (x1, u) gives a segment:
    the tree path from u back to x1 and on to the ring's antipode of u, or
    for C > 1 to its farthest ring vertex if the path certifies at C. All
    unresolved vertices take their next candidate together, each kind of
    search running as one `bfs_parents` call."""
    csr = ball.csr_arrays
    k = len(xs)
    anchors, bounds = _anchor_lists(csr, xs, C)
    anchor, last = bounds[:-1].copy(), bounds[1:]
    rings: list[np.ndarray] = [anchors[:0]] * k
    tried = np.zeros(k, dtype=np.int64)  # ring vertices tried as u at the anchor
    found: list[PathWitness | None] = [None] * k
    trees = None  # row x: the parents of x's current anchor search
    todo = np.arange(k)  # vertices whose current anchor is not searched yet
    live = np.zeros(k, dtype=bool)  # vertices with an anchor tree and a u to try
    while True:
        while len(todo):
            parent1, ring_row, ring_v = _anchor_trees(csr, anchors[anchor[todo]], half)
            cut = np.searchsorted(ring_row, np.arange(len(todo) + 1))
            has = cut[1:] > cut[:-1]
            for i, x in enumerate(todo.tolist()):
                rings[x] = ring_v[cut[i]:cut[i + 1]]
            if trees is None:
                trees = parent1  # the first search covers every vertex
            else:
                trees[todo[has]] = parent1[has]
            live[todo[has]] = True
            tried[todo[has]] = 0
            # An empty ring moves on to the next anchor.
            anchor[todo[~has]] += 1
            todo = todo[~has]
            todo = todo[anchor[todo] < last[todo]]
        at = np.flatnonzero(live)
        if not len(at):
            return found
        ring_all = [rings[x] for x in at.tolist()]
        sizes = np.array([len(r) for r in ring_all])
        us = np.array([r[t] for r, t in zip(ring_all, tried[at].tolist())])
        sources, search_of = np.unique(us, return_inverse=True)
        dist_u = bfs_parents(*csr, sources, cap=2 * half - 1, parents=False)[0]
        flat = np.concatenate(ring_all)
        owner = np.repeat(np.arange(len(at)), sizes)
        starts = np.cumsum(sizes) - sizes
        du = dist_u[search_of[owner], flat]
        # Every ring vertex is within 2*half of u through x1, so the ones the
        # u search leaves unreached are exactly those at 2*half: the first
        # such is the antipode. Else the first one farthest from u is the
        # relaxed end.
        missed = np.flatnonzero(du < 0)
        has_antipode = np.logical_or.reduceat(du < 0, starts)
        antipode = flat[missed[np.searchsorted(missed, starts[has_antipode])]]
        farthest = np.flatnonzero(du == np.maximum.reduceat(du, starts)[owner])
        relaxed = flat[farthest[np.searchsorted(farthest, starts)]]
        ends = relaxed.copy()
        ends[has_antipode] = antipode
        paths = _tree_paths(trees, at, us, ends, half).tolist()
        for i, x in enumerate(at.tolist()):
            if has_antipode[i]:
                # Endpoints at full distance make every subpath geodesic.
                found[x] = PathWitness(vertices=tuple(paths[i]), certified_C=1.0)
            elif C > 1 and relaxed[i] != us[i]:
                c = qg_certify(ball, paths[i])
                if c <= C + 1e-12:
                    found[x] = PathWitness(vertices=tuple(paths[i]), certified_C=c)
        done = np.array([found[x] is not None for x in at.tolist()])
        live[at[done]] = False
        rest = at[~done]
        tried[rest] += 1
        spent = rest[tried[rest] == np.minimum(U_CAP, sizes[~done])]
        live[spent] = False
        anchor[spent] += 1
        todo = spent[anchor[spent] < last[spent]]


def _anchor_lists(csr, xs, C):
    """The anchors of every x of `xs`, the vertices within C of it by
    distance, then id, as one array, and the bounds of each x's run."""
    near, _, reached = bfs_parents(*csr, xs, cap=int(C), parents=False)
    row, v = np.divmod(reached, near.shape[1])
    by_near = np.lexsort((v, near.reshape(-1)[reached], row))
    return v[by_near], np.searchsorted(row[by_near], np.arange(len(xs) + 1))


def _anchor_trees(csr, sources, half):
    """The parent rows of the searches from `sources` to depth `half`, and
    their rings, the vertices at distance `half`, as (search, vertex)
    arrays sorted by search, then vertex."""
    dist, parent, order = bfs_parents(*csr, sources, cap=half)
    ring = np.sort(order[dist.reshape(-1)[order] == half])
    return (parent, *np.divmod(ring, dist.shape[1]))


def _tree_paths(trees, rows, us, ends, half):
    """The path from us[i] up tree rows[i] to its root, `half` steps, and on
    down to ends[i], for every i: the tree paths are read in lockstep."""
    walk = np.empty((2 * len(rows), half + 1), dtype=np.int64)
    walk[:, 0] = np.concatenate([us, ends])
    both = np.concatenate([rows, rows])
    for step in range(half):
        walk[:, step + 1] = trees[both, walk[:, step]]
    up, down = walk[:len(rows)], walk[len(rows):]
    return np.concatenate([up, down[:, half - 1::-1]], axis=1)
