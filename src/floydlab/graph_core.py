"""Finite balls of locally finite graphs: construction, distances, file format.

A ball is stored with dense vertex indices 0..V-1; after construction the
base is always index 0 and remaining vertices appear in breadth-first order.
Distances computed inside the ball agree with the ambient graph for every
vertex of the ball (all neighbors of interior vertices are present); between
two non-base vertices near the truncation boundary they are only an upper
bound on the ambient distance.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import (
    ConsistencyError,
    DisconnectedGraph,
    ParseError,
    RadiusMismatch,
    RadiusOutOfRange,
    SelfLoop,
)

FILE_MAGIC = "floydlab-graph v1"


@dataclass(frozen=True)
class GraphBall:
    """Immutable finite ball of a locally finite graph with a basepoint.

    Safe for concurrent reads; construction happens once, up front.
    """

    vertex_count: int
    base: int
    radius: int
    adjacency: tuple[tuple[int, ...], ...]
    dist_to_base: tuple[int, ...]

    @cached_property
    def dist_array(self) -> np.ndarray:
        return np.asarray(self.dist_to_base, dtype=np.int64)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, sorted ascending."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        out.sort()
        return tuple(out)

    @cached_property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the symmetric unweighted adjacency in CSR form."""
        degrees = np.fromiter((len(n) for n in self.adjacency), dtype=np.int64,
                              count=self.vertex_count)
        indptr = np.zeros(self.vertex_count + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.fromiter((v for nbrs in self.adjacency for v in nbrs),
                              dtype=np.int64, count=int(indptr[-1]))
        return indptr, indices

    @cached_property
    def spheres_by_radius(self) -> tuple[tuple[int, ...], ...]:
        buckets: list[list[int]] = [[] for _ in range(self.radius + 1)]
        for v, d in enumerate(self.dist_to_base):
            buckets[d].append(v)
        return tuple(tuple(b) for b in buckets)

    def check_index(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range 0..{self.vertex_count - 1}")


@dataclass(frozen=True)
class Sphere:
    """Vertices at exact graph distance `radius` from the base."""

    radius: int
    vertices: tuple[int, ...]


def bfs(adjacency: Sequence[Sequence[int]], sources: Iterable[int],
        cap: int | None = None, allowed: Sequence[bool] | None = None
        ) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from `sources`; returns (order, dist, parent).

    `order` lists the reached vertices in discovery order (every source
    first); `dist` and `parent` are dense, with -1 for unreached vertices and
    for the parents of sources. Sources are seeded in the order given,
    skipping duplicates and sources outside `allowed`. The queue is FIFO over
    each vertex's adjacency in stored order, and the first discoverer of a
    vertex becomes its parent. `cap` stops the search beyond that depth
    (distances > cap stay -1); `allowed` restricts the search to vertices
    whose entry is true.

    The cost is the part of the graph the search reaches plus two lists of
    length V, so capped searches stay local.
    """
    dist = [-1] * len(adjacency)
    parent = [-1] * len(adjacency)
    order: list[int] = []
    for s in sources:
        if dist[s] < 0 and (allowed is None or allowed[s]):
            dist[s] = 0
            order.append(s)
    # `order` doubles as the FIFO queue; its distances never decrease, so
    # the first vertex at depth `cap` ends the search.
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        du = dist[u]
        if cap is not None and du >= cap:
            break
        du += 1
        for v in adjacency[u]:
            if dist[v] < 0 and (allowed is None or allowed[v]):
                dist[v] = du
                parent[v] = u
                order.append(v)
    return order, dist, parent


def bfs_distances(adjacency: Sequence[Sequence[int]], source: int,
                  cap: int | None = None) -> list[int]:
    """BFS distances from `source`; unreached vertices get -1.

    `cap` stops the search beyond that depth (distances > cap stay -1).
    """
    return bfs(adjacency, (source,), cap)[1]


def bfs_parents(adjacency: Sequence[Sequence[int]], source: int,
                cap: int | None = None) -> tuple[list[int], list[int]]:
    """BFS distances and predecessor tree (the first discoverer is the parent)."""
    _, dist, parent = bfs(adjacency, (source,), cap)
    return dist, parent


def extract_path(parent: Sequence[int], target: int) -> list[int]:
    """Path from the BFS source to `target` following predecessors."""
    path = [target]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def build_ball(edges: Iterable[tuple[Hashable, Hashable]], base: Hashable,
               declared_radius: int) -> GraphBall:
    """Validate an edge list and assemble a GraphBall rooted at `base`.

    Vertices may be arbitrary hashable labels; the result is relabeled to
    dense indices with the base at 0 and the rest in BFS discovery order.
    """
    if declared_radius < 0:
        raise ValueError("declared_radius must be nonnegative")
    edge_set: set[tuple[Hashable, Hashable]] = set()
    adjacency: dict[Hashable, list[Hashable]] = {}
    order: dict[Hashable, int] = {}

    def note(label: Hashable) -> None:
        if label not in order:
            order[label] = len(order)
            adjacency[label] = []

    n_edges = 0
    for u, v in edges:
        n_edges += 1
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u!r}")
        note(u)
        note(v)
        pair = frozenset((u, v))
        if pair in edge_set:
            continue
        edge_set.add(pair)
        adjacency[u].append(v)
        adjacency[v].append(u)
    if n_edges == 0:
        raise ValueError("edge list is empty")
    if base not in order:
        raise DisconnectedGraph(f"base {base!r} does not appear in any edge")

    # BFS from the base; discovery order defines the dense relabeling.
    index: dict[Hashable, int] = {base: 0}
    dist = [0]
    labels = [base]
    queue = deque([base])
    while queue:
        u = queue.popleft()
        du = dist[index[u]]
        for v in adjacency[u]:
            if v not in index:
                index[v] = len(labels)
                labels.append(v)
                dist.append(du + 1)
                queue.append(v)
    if len(index) != len(order):
        missing = len(order) - len(index)
        raise DisconnectedGraph(f"{missing} vertices unreachable from the base")
    max_dist = max(dist)
    if max_dist > declared_radius:
        raise RadiusMismatch(
            f"vertex at distance {max_dist} exceeds declared radius {declared_radius}")

    new_adj: list[tuple[int, ...]] = [
        tuple(sorted(index[v] for v in adjacency[label])) for label in labels
    ]
    return GraphBall(
        vertex_count=len(labels),
        base=0,
        radius=declared_radius,
        adjacency=tuple(new_adj),
        dist_to_base=tuple(dist),
    )


def single_vertex_ball() -> GraphBall:
    """The degenerate radius-0 ball (one vertex, no edges)."""
    return GraphBall(vertex_count=1, base=0, radius=0, adjacency=((),),
                     dist_to_base=(0,))


def sphere(ball: GraphBall, r: int) -> Sphere:
    """Exactly the vertices at graph distance r from the base."""
    if not 0 <= r <= ball.radius:
        raise RadiusOutOfRange(f"sphere radius {r} outside 0..{ball.radius}")
    return Sphere(radius=r, vertices=ball.spheres_by_radius[r])


def graph_distance(ball: GraphBall, u: int, v: int) -> int:
    """BFS shortest-path length between u and v inside the ball.

    Equals the ambient distance away from the truncation boundary; near it
    the value is an upper bound on the ambient distance.
    """
    ball.check_index(u)
    ball.check_index(v)
    if u == v:
        return 0
    dist = [-1] * ball.vertex_count
    dist[u] = 0
    queue = deque([u])
    while queue:
        x = queue.popleft()
        dx = dist[x]
        for y in ball.adjacency[x]:
            if dist[y] < 0:
                if y == v:
                    return dx + 1
                dist[y] = dx + 1
                queue.append(y)
    # Unreachable inside a connected ball only if indices were equal, handled above.
    raise AssertionError("ball is connected by construction")


def write_graph_file(path, ball: GraphBall) -> None:
    """Serialize a ball in the bit-exact v1 text format (LF endings)."""
    lines = [FILE_MAGIC, f"{ball.vertex_count} {ball.edge_count} {ball.base} {ball.radius}"]
    lines.extend(f"{u} {v}" for u, v in ball.edges)
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)


def _parse_int_fields(text: str, n_fields: int, line_no: int) -> list[int]:
    """The integers of a line of `n_fields` fields separated by single spaces.

    Each field must be written canonically, as str() writes an int: ASCII
    digits with an optional minus sign, no leading zeros, and no "-0".
    """
    parts = text.split(" ")
    if len(parts) != n_fields or "" in parts:
        raise ParseError(f"expected {n_fields} space-separated integers", line=line_no)
    out = []
    for p in parts:
        try:
            v = int(p)
        except ValueError:
            raise ParseError(f"not an integer: {p!r}", line=line_no) from None
        if str(v) != p:
            raise ParseError(f"not a canonical integer: {p!r}", line=line_no)
        out.append(v)
    return out


def read_graph_file(path) -> GraphBall:
    """Parse and validate a v1 graph file; rejects any format deviation."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        data = fh.read()
    if not data.endswith("\n"):
        raise ParseError("missing trailing newline", line=data.count("\n") + 1)
    if "\r" in data:
        raise ParseError("CR byte found; LF line endings required",
                         line=data[: data.index("\r")].count("\n") + 1)
    lines = data.split("\n")[:-1]
    if not lines or lines[0] != FILE_MAGIC:
        raise ParseError(f"bad header, expected {FILE_MAGIC!r}", line=1)
    if len(lines) < 2:
        raise ParseError("missing counts line", line=2)
    v_count, e_count, base, radius = _parse_int_fields(lines[1], 4, 2)
    if v_count <= 0 or e_count < 0 or radius < 0 or not 0 <= base < v_count:
        raise ParseError("counts line out of range", line=2)
    if len(lines) != 2 + e_count:
        raise ParseError(
            f"declared {e_count} edges but file has {len(lines) - 2} edge lines",
            line=len(lines) + 1)

    edges: list[tuple[int, int]] = []
    prev: tuple[int, int] | None = None
    for i, text in enumerate(lines[2:], start=3):
        u, v = _parse_int_fields(text, 2, i)
        if not (0 <= u < v_count and 0 <= v < v_count):
            raise ParseError(f"vertex index out of range in edge {u} {v}", line=i)
        if u >= v:
            raise ParseError(f"edge must satisfy u < v, got {u} {v}", line=i)
        if prev is not None and (u, v) <= prev:
            raise ParseError("edges not in ascending order", line=i)
        prev = (u, v)
        edges.append((u, v))

    if v_count == 1:
        ball = single_vertex_ball()
        if radius != 0:
            raise ConsistencyError("single-vertex ball must declare radius 0")
        return ball

    try:
        raw = _assemble_without_relabel(v_count, edges, base, radius)
    except (DisconnectedGraph, SelfLoop, RadiusMismatch) as exc:
        raise ConsistencyError(str(exc)) from exc
    return raw


def _assemble_without_relabel(v_count: int, edges: list[tuple[int, int]],
                              base: int, radius: int) -> GraphBall:
    """Build a ball keeping the file's vertex numbering (round-trip identity)."""
    adjacency: list[list[int]] = [[] for _ in range(v_count)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    adj = tuple(tuple(sorted(n)) for n in adjacency)
    dist = bfs_distances(adj, base)
    if min(dist) < 0:
        raise DisconnectedGraph("graph in file is not connected")
    if max(dist) > radius:
        raise RadiusMismatch(
            f"vertex at distance {max(dist)} exceeds declared radius {radius}")
    return GraphBall(vertex_count=v_count, base=base, radius=radius,
                     adjacency=adj, dist_to_base=tuple(dist))
