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
    bfs,
    bfs_distances,
    extract_path,
    find_automorphisms,
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
    for i in range(len(verts) - 1):
        if verts[i + 1] not in ball.adjacency[verts[i]]:
            raise NonPath(f"vertices {verts[i]} and {verts[i + 1]} not adjacent")
    total = len(verts) - 1
    if total == 0:
        return 1.0
    dist_from: dict[int, list[int]] = {}
    for v in set(verts):
        if v not in dist_from:
            dist_from[v] = bfs_distances(ball.adjacency, v, cap=total)
    c = 1.0
    for i in range(len(verts)):
        row = dist_from[verts[i]]
        for j in range(i + 1, len(verts)):
            sub = j - i
            d = row[verts[j]]
            c = max(c, sub / (d + 1))
            c = max(c, (math.sqrt(sub * sub + 4 * d) - sub) / 2)
    return c


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
        raise ValueError(f"x must lie outside the closed inner ball")

    allowed = (ball.dist > inner_radius).tolist()
    targets = set(np.flatnonzero(ball.dist == outer_radius).tolist())
    if not targets:
        return None

    near = bfs_distances(ball.adjacency, x, cap=int(C))
    candidates = sorted(
        (d, v) for v, d in enumerate(near) if 0 <= d <= C and allowed[v])
    for _, start in candidates:
        witness = _search_from(ball, start, C, allowed, targets)
        if witness is not None:
            return witness
    return None


def _search_from(ball, start, C, allowed, targets):
    _, dist, parent = bfs(ball.adjacency, [start], allowed=allowed)
    reachable = [(dist[t], t) for t in targets if dist[t] >= 0]
    if not reachable:
        return None
    shortest, best_target = min(reachable)
    path = extract_path(parent, best_target)
    c = qg_certify(ball, path)
    if c <= C + 1e-12:
        return PathWitness(vertices=tuple(path), certified_C=c)

    # Bounded backtracking: enumerate paths of length <= shortest + 2C whose
    # every prefix can still reach a target within budget.
    dist_to_target = bfs(ball.adjacency, sorted(targets), allowed=allowed)[1]
    budget = shortest + int(2 * C)
    tried = 0

    def dfs(v, used, seen, trail):
        nonlocal tried
        if tried >= SLACK_PATHS:
            return None
        if v in targets:
            tried += 1
            c_here = qg_certify(ball, trail)
            if c_here <= C + 1e-12:
                return PathWitness(vertices=tuple(trail), certified_C=c_here)
            return None
        for w in ball.adjacency[v]:
            if w in seen or not allowed[w] or dist_to_target[w] < 0:
                continue
            if used + 1 + dist_to_target[w] > budget:
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

    The search runs on each symmetry orbit until a member passes: eligible
    vertices are walked in ascending order, and a vertex whose orbit under
    the ball's base-fixing automorphisms (`find_automorphisms`) has passed
    is skipped. An automorphism h keeps every ball distance, so it keeps
    eligibility and maps a segment certified at C around x onto one
    certified at C around h(x). When x is the first of its orbit to pass,
    every h(x) gets h(path) as its witness (the first such h in group
    order), including the members before x, which failed; x keeps its own.
    The pass set is thus the union of the orbits that hold a vertex the
    search passes on its own, with one witness per passing vertex.
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
    # Found here rather than read from the cached `ball.automorphisms`, so
    # the (|G|, V) rows are freed when the probe returns: in verify_thick
    # the leaf's next user, its sampled divergence, has no use for them,
    # and kept they raised its peak memory (4.8 MiB of rows on the
    # prod:zn:1,free:2 r=8 leaf). Orbits are named by their smallest
    # vertex, the rule of `GraphBall.orbit_min`.
    group = find_automorphisms(ball)
    orbit = group.min(axis=0)
    passed = np.zeros(ball.vertex_count, dtype=bool)  # by smallest vertex
    found_at: dict[int, PathWitness] = {}
    for x in eligible:
        if passed[orbit[x]]:
            continue
        found = _middle_segment(ball, x, C, half, U_CAP)
        if found is None:
            continue
        passed[orbit[x]] = True
        images = group[:, list(found.vertices)].tolist()
        for y, path in zip(group[:, x].tolist(), images):
            if y not in found_at:
                found_at[y] = PathWitness(vertices=tuple(path),
                                          certified_C=found.certified_C)
    witnesses = {x: found_at[x] for x in eligible if x in found_at}
    failures = tuple(x for x in eligible if x not in found_at)
    frac = len(witnesses) / len(eligible) if eligible else 1.0
    return WidenessReport(C=C, segment_length=segment_length, eligible=eligible,
                          witnesses=witnesses, failures=failures,
                          pass_fraction=frac)


def _middle_segment(ball, x, C, half, u_cap):
    adjacency = ball.adjacency
    order, near, _ = bfs(adjacency, [x], cap=int(C))
    for x1 in sorted(order, key=lambda v: (near[v], v)):
        order1, dist1, parent1 = bfs(adjacency, [x1], cap=half)
        ring = sorted(v for v in order1 if dist1[v] == half)
        if not ring:
            continue
        for u in ring[:u_cap]:
            # Every ring vertex is within 2*half of u through x1, so the ones
            # this search leaves unreached are exactly those at 2*half.
            du = bfs(adjacency, [u], cap=2 * half - 1)[1]
            antipode = None
            relaxed = None
            for wv in ring:
                if du[wv] < 0:
                    antipode = wv
                    break
                if relaxed is None or du[wv] > du[relaxed]:
                    relaxed = wv
            if antipode is not None:
                path = extract_path(parent1, u)[::-1] + extract_path(parent1, antipode)[1:]
                # Endpoints at full distance make every subpath geodesic.
                return PathWitness(vertices=tuple(path), certified_C=1.0)
            if C > 1 and relaxed is not None and relaxed != u:
                path = extract_path(parent1, u)[::-1] + extract_path(parent1, relaxed)[1:]
                c = qg_certify(ball, path)
                if c <= C + 1e-12:
                    return PathWitness(vertices=tuple(path), certified_C=c)
    return None
