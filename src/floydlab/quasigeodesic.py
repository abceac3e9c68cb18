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

from .errors import BadRadii, NonPath, SegmentTooLong
from .graph_core import GraphBall, bfs, bfs_distances, extract_path


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
                      outer_radius: int, *, slack_paths: int = 200) -> PathWitness | None:
    """Search for a C-quasi-geodesic from within distance C of x out to the
    sphere S_outer, avoiding the closed base ball of radius inner_radius.

    Strategy: shortest paths in the punctured ball from candidate starts,
    certified after the fact; then bounded backtracking over near-shortest
    paths (slack 2C edges). Returns None when nothing certifies: at finite
    scale absence is inconclusive, never a refutation.
    """
    ball.check_index(x)
    if inner_radius >= outer_radius:
        raise BadRadii(f"inner radius {inner_radius} >= outer radius {outer_radius}")
    if outer_radius > ball.radius:
        raise ValueError(f"outer radius {outer_radius} exceeds ball radius")
    if C < 1:
        raise ValueError("C must be >= 1")
    dist_b = ball.dist_to_base
    if dist_b[x] <= inner_radius:
        raise ValueError(f"x must lie outside the closed inner ball")

    allowed = [dist_b[v] > inner_radius for v in range(ball.vertex_count)]
    targets = {v for v in range(ball.vertex_count) if dist_b[v] == outer_radius}
    if not targets:
        return None

    near = bfs_distances(ball.adjacency, x, cap=int(C))
    candidates = sorted(
        (d, v) for v, d in enumerate(near) if 0 <= d <= C and allowed[v])
    for _, start in candidates:
        witness = _search_from(ball, start, C, allowed, targets, slack_paths)
        if witness is not None:
            return witness
    return None


def _search_from(ball, start, C, allowed, targets, slack_paths):
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
        if tried >= slack_paths:
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
            if found is not None or tried >= slack_paths:
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


def wideness_probe(ball: GraphBall, C: float, segment_length: int, *,
                   u_cap: int = 6) -> WidenessReport:
    """Finite-scale surrogate of 'every point lies near a bi-infinite
    quasi-geodesic': for each eligible vertex x, look for a certified
    segment of length >= segment_length passing within C of x with x near
    its middle.

    Checked only for vertices with room for half a segment:
    dist_to_base <= radius - ceil(segment_length / 2). The search tries
    diametrically opposed geodesic arms through a point x' in B_x(C); when
    the arm endpoints are at full distance the concatenation is a geodesic
    and certifies at 1. For C > 1 a relaxed endpoint distance is accepted if
    the concatenation certifies at C.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    if segment_length < 2:
        raise ValueError("segment_length must be >= 2")
    half = math.ceil(segment_length / 2)
    if ball.radius - half < 0:
        raise SegmentTooLong(
            f"segment of length {segment_length} cannot fit in radius {ball.radius}")
    dist_b = ball.dist_to_base
    eligible = tuple(v for v in range(ball.vertex_count)
                     if dist_b[v] <= ball.radius - half)
    witnesses: dict[int, PathWitness] = {}
    failures: list[int] = []
    for x in eligible:
        found = _middle_segment(ball, x, C, half, u_cap)
        if found is None:
            failures.append(x)
        else:
            witnesses[x] = found
    frac = len(witnesses) / len(eligible) if eligible else 1.0
    return WidenessReport(C=C, segment_length=segment_length, eligible=eligible,
                          witnesses=witnesses, failures=tuple(failures),
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
