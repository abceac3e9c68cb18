"""Finite balls of locally finite graphs: construction, distances, file format.

A ball is stored with dense vertex indices 0..V-1; after construction the
base is always index 0 and remaining vertices appear in breadth-first order.
Distances computed inside the ball agree with the ambient graph for every
vertex of the ball (all neighbors of interior vertices are present); between
two non-base vertices near the truncation boundary they are only an upper
bound on the ambient distance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .errors import (
    ConsistencyError,
    DisconnectedGraph,
    ParseError,
    RadiusMismatch,
    RadiusOutOfRange,
    SelfLoop,
)

FILE_MAGIC = "floydlab-graph v1"


@dataclass(frozen=True, eq=False)
class GraphBall:
    """Immutable finite ball of a locally finite graph with a basepoint.

    The stored form is three int64 arrays: the symmetric adjacency in CSR
    form (`indptr`, `indices`, each row sorted ascending) and the distance of
    every vertex from the base; every constructor builds these arrays, and
    no other edge layout is stored. The ball keeps the arrays it is given
    and makes them read-only. `slot_rows`, `edge_arrays` and the neighbor
    tuple view `adjacency` are derived on first use; `dist` is the only view
    of base distances. Safe for concurrent reads; construction happens
    once, up front.
    """

    base: int
    radius: int
    indptr: np.ndarray
    indices: np.ndarray
    dist: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices", "dist"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if len(self.indptr) != len(self.dist) + 1 or self.indptr[-1] != len(self.indices):
            raise ValueError("CSR arrays do not match the vertex count")

    def __eq__(self, other):
        if not isinstance(other, GraphBall):
            return NotImplemented
        return (self.base == other.base and self.radius == other.radius
                and np.array_equal(self.dist, other.dist)
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.base, self.radius, self.vertex_count, self.edge_count))

    @property
    def vertex_count(self) -> int:
        return len(self.dist)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @property
    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the symmetric unweighted adjacency."""
        return self.indptr, self.indices

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuple of every vertex."""
        # One shared int object per vertex: `indices.tolist()` would make one
        # per CSR entry, about 2.5 MB more on a ball of 80k entries.
        labels = list(range(self.vertex_count))
        flat = list(map(labels.__getitem__, memoryview(self.indices)))
        bounds = self.indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def slot_rows(self) -> np.ndarray:
        """The row of every CSR entry: entry k is the directed edge
        slot_rows[k] -> indices[k]."""
        rows = np.repeat(np.arange(self.vertex_count, dtype=np.int64),
                         np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (u, v) of all edges with u < v, sorted ascending."""
        upper = self.indices > self.slot_rows
        return self.slot_rows[upper], self.indices[upper]

    @cached_property
    def automorphisms(self) -> np.ndarray:
        """Base-fixing automorphisms found in the graph: a read-only (|G|, V)
        int32 array whose rows are verified permutations of the vertices,
        forming a group, with the identity first (see `find_automorphisms`)."""
        perms = find_automorphisms(self)
        perms.flags.writeable = False
        return perms

    @cached_property
    def orbit_min(self) -> np.ndarray:
        """The smallest vertex of every vertex's orbit under `automorphisms`:
        a read-only array of length V, the representative that each
        orbit-reduced scan runs in place of the vertex."""
        low = self.automorphisms.min(axis=0)
        low.flags.writeable = False
        return low

    def check_index(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range 0..{self.vertex_count - 1}")


def csr_from_edges(vertex_count: int, u: np.ndarray,
                   v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR (indptr, indices), rows sorted, of distinct edges u-v."""
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=vertex_count), out=indptr[1:])
    return indptr, cols[order]


def csr_restrict(indptr: np.ndarray, indices: np.ndarray,
                 allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices) of the edges between vertices whose
    `allowed` entry is true, in the same numbering; the rows of the other
    vertices are empty. The kept entries keep their CSR order, so the rows
    stay sorted."""
    keep = np.repeat(allowed, np.diff(indptr)) & allowed[indices]
    kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return kept_before[indptr], indices[keep]


def csr_induced(indptr: np.ndarray, indices: np.ndarray,
                members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices) of the subgraph induced by `members`
    (sorted ascending, distinct), with members[i] renumbered i. Only the
    members' rows are read, and the rows stay sorted."""
    rank = np.full(len(indptr) - 1, -1, dtype=np.int64)
    rank[members] = np.arange(len(members))
    stops = indptr[members + 1]
    sizes = stops - indptr[members]
    ends = np.cumsum(sizes)
    # Slot k of the gathered rows is entry k + stop - end of its row.
    cols = rank[indices[np.arange(sizes.sum()) + np.repeat(stops - ends, sizes)]]
    keep = cols >= 0
    kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return kept_before[np.append(0, ends)], cols[keep]


def unit_matrix(indptr: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    """The sparse matrix of CSR arrays with every entry 1, for scipy's
    searches."""
    n = len(indptr) - 1
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def csr_distances(indptr: np.ndarray, indices: np.ndarray,
                  source: int) -> np.ndarray:
    """Breadth-first distances from `source` over CSR arrays; unreached
    vertices get -1."""
    dist = dijkstra(unit_matrix(indptr, indices), directed=True,
                    unweighted=True, indices=source)
    dist[np.isinf(dist)] = -1
    return dist.astype(np.int64)


GROUP_CAP = 64  # most automorphisms find_automorphisms keeps
_S1_CAP = 64  # larger first spheres are not searched for symmetries
_SEARCH_CAP = 20_000  # S_1 vertex images the candidate search may try
_EXTENSION_CAP = 64  # candidate maps extended past S_1


def is_automorphism(ball: GraphBall, perm: np.ndarray) -> bool:
    """Whether `perm` (vertex v goes to perm[v]) is a bijection of the
    vertices that fixes the base and maps the edge set onto itself."""
    n = ball.vertex_count
    # int64 keeps the edge keys below from wrapping: min * n passes 2^31
    # on balls of more than 46,340 vertices.
    perm = np.asarray(perm, dtype=np.int64)
    if (perm.shape != (n,) or perm.min() < 0 or perm.max() >= n
            or perm[ball.base] != ball.base):
        return False
    hit = np.zeros(n, dtype=bool)
    hit[perm] = True
    if not hit.all():
        return False
    # A bijection maps distinct edges to distinct pairs, so the edge set
    # goes onto itself exactly when the sorted image keys are its keys.
    u, v = ball.edge_arrays
    a, b = perm[u], perm[v]
    image = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    return np.array_equal(image, u * n + v)


def _first_sphere_maps(ball: GraphBall, s1: np.ndarray):
    """Candidate actions on S_1 (ascending) of a base-fixing automorphism, as
    tuples of positions in s1, in lexicographic order: the bijections of S_1
    that keep each vertex's degree, adjacency inside S_1 and the number of
    common neighbors in S_2 of every pair. Stops after _SEARCH_CAP tries."""
    m = len(s1)
    rows, cols = ball.slot_rows, ball.indices
    index = np.full(ball.vertex_count, -1, dtype=np.int64)
    index[s1] = np.arange(m)
    from_s1 = index[rows] >= 0
    up = from_s1 & (ball.dist[cols] == 2)
    incidence = sp.csr_matrix(
        (np.ones(int(up.sum()), dtype=np.int64), (index[rows[up]], cols[up])),
        shape=(m, ball.vertex_count))
    q = 2 * (incidence @ incidence.T).toarray()
    side = from_s1 & (index[cols] >= 0)
    q[index[rows[side]], index[cols[side]]] += 1
    q[np.arange(m), np.arange(m)] = -1 - np.diff(ball.indptr)[s1]
    q = q.tolist()
    image: list[int] = []
    used = [False] * m
    tries = 0

    def place(i):
        nonlocal tries
        if i == m:
            yield tuple(image)
            return
        for j in range(m):
            tries += 1
            if tries > _SEARCH_CAP:
                return
            if used[j] or q[j][j] != q[i][i] or any(
                    q[image[p]][j] != q[p][i] for p in range(i)):
                continue
            used[j] = True
            image.append(j)
            yield from place(i + 1)
            image.pop()
            used[j] = False

    return place(0)


class _Layering:
    """The BFS layers of a ball beyond S_1, with the sort keys that extend a
    map of S_1 one layer at a time."""

    def __init__(self, ball: GraphBall):
        n = ball.vertex_count
        rows, cols = ball.slot_rows, ball.indices
        lower = ball.dist[cols] == ball.dist[rows] - 1
        r, c = rows[lower], cols[lower]
        start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=n), out=start[1:])
        width = max(int(np.diff(start).max(initial=0)), 1)
        # Lower neighbors of every vertex, ascending, padded with n.
        self.lower = np.full((n, width), n, dtype=np.int64)
        self.lower[r, np.arange(len(r)) - start[r]] = c
        self.degree = np.diff(ball.indptr)
        order = np.argsort(ball.dist, kind="stable")
        self.layers = np.split(order, np.cumsum(np.bincount(ball.dist))[:-1])[2:]
        self.targets = []
        for layer in self.layers:
            keys = np.column_stack([self.degree[layer], self.lower[layer]])
            o = np.lexsort(keys.T[::-1])
            self.targets.append((keys[o], layer[o]))

    def extend(self, base: int, s1: np.ndarray,
               images: Sequence[int]) -> np.ndarray | None:
        """The map fixing the base, sending s1 to `images`, and each vertex of
        layer k >= 2 to the layer-k vertex with its degree and the sorted
        images of its lower neighbors as lower neighbors (ties in ascending
        id order); None at the first layer where the keys differ."""
        n = len(self.degree)
        perm = np.full(n + 1, -1, dtype=np.int64)
        perm[n] = n
        perm[base] = base
        perm[s1] = images
        for layer, (want, dest) in zip(self.layers, self.targets):
            keys = np.column_stack([self.degree[layer],
                                    np.sort(perm[self.lower[layer]], axis=1)])
            o = np.lexsort(keys.T[::-1])
            if not np.array_equal(keys[o], want):
                return None
            perm[layer[o]] = dest
        return perm[:n]


def _closure(group: np.ndarray, size: int, gens: list[np.ndarray],
             key: np.ndarray) -> int | None:
    """Grow the group `group[:size]` in place into the group it generates
    together with the last permutation of `gens`, and return the new size,
    or None when the buffer `group` has no room for it (rows from `size` on
    are then left undefined, so the caller rolls back by keeping its size).

    `group[:size]` must be the group that `gens[:-1]` generate, identity
    first: it is closed under those, so its elements are multiplied by the
    new generator only, and the new elements, appended in breadth-first
    order, by all of them. Elements are told apart by their images of
    `key` first.
    """
    by_key: dict[bytes, list[int]] = {}
    for i in range(size):
        by_key.setdefault(group[i, key].tobytes(), []).append(i)
    old = size
    i = 0
    while i < size:  # grows while it is walked: breadth-first
        for h in gens if i >= old else gens[-1:]:
            p = h[group[i]]
            bucket = by_key.setdefault(p[key].tobytes(), [])
            if any(np.array_equal(p, group[j]) for j in bucket):
                continue
            if size == len(group):
                return None
            bucket.append(size)
            group[size] = p
            size += 1
        i += 1
    return size


def find_automorphisms(ball: GraphBall) -> np.ndarray:
    """A group of base-fixing automorphisms of the ball, as a (|G|, V) int32
    array of permutations with the identity first.

    Each candidate map of S_1 (see `_first_sphere_maps`) that the group found
    so far does not already realise is extended one BFS layer at a time
    (`_Layering.extend`) and kept only if `is_automorphism` verifies it;
    the group is then closed over the kept maps. A map whose group would pass
    GROUP_CAP elements is dropped. Symmetries may be missed, which only
    makes the group smaller: every returned row is a verified automorphism.

    The group lives in one (GROUP_CAP, V) buffer that each closure grows in
    place from the group found so far; a dropped map is rolled back by size.
    The result is a view of the buffer's first |G| rows; the rows past them
    are never written, so they take address space but almost no memory.
    """
    n = ball.vertex_count
    s1 = np.flatnonzero(ball.dist == 1)
    m = len(s1)
    group = np.empty((GROUP_CAP, n), dtype=np.int32)
    group[0] = np.arange(n)
    size = 1
    if not 2 <= m <= _S1_CAP:
        return group[:size]
    # The group's actions on S_1 positions, grown and rolled back alike.
    acting = np.empty((GROUP_CAP, m), dtype=np.int32)
    acting[0] = np.arange(m)
    acting_size = 1
    layering = None
    gens: list[np.ndarray] = []
    actions: list[np.ndarray] = []  # the generators' actions on S_1 positions
    realised = {tuple(range(m))}  # the group's actions on S_1 positions
    extensions = 0
    for action in _first_sphere_maps(ball, s1):
        # A larger group has at least twice the order, so none fits.
        if 2 * size > GROUP_CAP or extensions == _EXTENSION_CAP:
            break
        if action in realised:
            continue
        action = np.array(action, dtype=np.int32)
        # The group's action on S_1 is no larger than the group.
        grown = _closure(acting, acting_size, actions + [action], np.arange(m))
        if grown is None:
            continue
        extensions += 1
        layering = layering or _Layering(ball)
        perm = layering.extend(ball.base, s1, s1[action])
        if perm is None or not is_automorphism(ball, perm):
            continue
        perm = perm.astype(np.int32)
        closed = _closure(group, size, gens + [perm], s1)
        if closed is None:
            continue
        gens.append(perm)
        actions.append(action)
        realised.update(map(tuple, acting[acting_size:grown].tolist()))
        size, acting_size = closed, grown
    return group[:size]


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
    edge_set: set[tuple[int, int]] = set()
    order: dict[Hashable, int] = {}  # label -> number in order of appearance
    adjacency: list[list[int]] = []

    def note(label: Hashable) -> int:
        if label not in order:
            order[label] = len(order)
            adjacency.append([])
        return order[label]

    n_edges = 0
    for u, v in edges:
        n_edges += 1
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u!r}")
        iu, iv = note(u), note(v)
        pair = (min(iu, iv), max(iu, iv))
        if pair in edge_set:
            continue
        edge_set.add(pair)
        adjacency[iu].append(iv)
        adjacency[iv].append(iu)
    if n_edges == 0:
        raise ValueError("edge list is empty")
    if base not in order:
        raise DisconnectedGraph(f"base {base!r} does not appear in any edge")

    # BFS from the base; discovery order defines the dense relabeling.
    found, dist, _ = bfs(adjacency, (order[base],))
    if len(found) != len(order):
        missing = len(order) - len(found)
        raise DisconnectedGraph(f"{missing} vertices unreachable from the base")
    max_dist = dist[found[-1]]
    if max_dist > declared_radius:
        raise RadiusMismatch(
            f"vertex at distance {max_dist} exceeds declared radius {declared_radius}")
    index = np.empty(len(found), dtype=np.int64)
    index[found] = np.arange(len(found))
    pairs = index[np.array(list(edge_set), dtype=np.int64)]
    indptr, indices = csr_from_edges(len(found), pairs[:, 0], pairs[:, 1])
    return GraphBall(base=0, radius=declared_radius, indptr=indptr,
                     indices=indices, dist=np.array(dist)[found])


def single_vertex_ball() -> GraphBall:
    """The degenerate radius-0 ball (one vertex, no edges)."""
    none = np.empty(0, dtype=np.int64)
    indptr, indices = csr_from_edges(1, none, none)
    return GraphBall(base=0, radius=0, indptr=indptr, indices=indices, dist=(0,))


def sphere(ball: GraphBall, r: int) -> Sphere:
    """Exactly the vertices at graph distance r from the base."""
    if not 0 <= r <= ball.radius:
        raise RadiusOutOfRange(f"sphere radius {r} outside 0..{ball.radius}")
    vertices = np.flatnonzero(ball.dist == r).tolist()
    return Sphere(radius=r, vertices=tuple(vertices))


_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _format_edges(u: np.ndarray, v: np.ndarray) -> bytes:
    """The edge lines "u v\\n" of nonnegative endpoint arrays, as str() would
    write them: one row of right-aligned digits plus separator per number,
    with the leading blanks masked out."""
    if len(u) == 0:
        return b""
    x = np.empty(2 * len(u), dtype=np.int64)
    x[0::2], x[1::2] = u, v
    ndigits = np.maximum(np.searchsorted(_POW10, x, side="right"), 1)
    width = int(ndigits.max())
    cells = np.empty((len(x), width + 1), dtype=np.uint8)
    for col in range(width - 1, -1, -1):
        q = x // 10
        cells[:, col] = x - 10 * q
        x = q
    cells += ord("0")
    cells[0::2, width] = ord(" ")
    cells[1::2, width] = ord("\n")
    return cells[np.arange(width + 1) >= width - ndigits[:, None]].tobytes()


_WRITE_CHUNK = 1 << 20  # edges formatted at once, to bound the writer's memory


def write_graph_file(path, ball: GraphBall) -> None:
    """Serialize a ball in the bit-exact v1 text format (LF endings)."""
    head = (f"{FILE_MAGIC}\n"
            f"{ball.vertex_count} {ball.edge_count} {ball.base} {ball.radius}\n")
    u, v = ball.edge_arrays
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for i in range(0, len(u), _WRITE_CHUNK):
            fh.write(_format_edges(u[i:i + _WRITE_CHUNK], v[i:i + _WRITE_CHUNK]))


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


def _parse_edges_fast(body: str, v_count: int, e_count: int):
    """Endpoint arrays of the edge lines, or None if anything is off.

    Every check is done on whole arrays: the values are parsed loosely, then
    range, u < v and strict ascending order are checked, and the arrays are
    written back in the exact format and compared with the text, which
    accepts canonical integers and single separators only.
    """
    try:
        raw = body.encode("ascii")
        with warnings.catch_warnings():
            # numpy warns (and will raise) when the text stops parsing early.
            warnings.simplefilter("error", DeprecationWarning)
            flat = np.fromstring(raw, dtype=np.int64, sep=" ")
    except (UnicodeEncodeError, ValueError, DeprecationWarning):
        return None
    if len(flat) != 2 * e_count:
        return None
    u, v = flat[0::2], flat[1::2]
    if e_count and not (u.min() >= 0 and v.max() < v_count and (u < v).all()):
        return None
    key = u * v_count + v
    if not (key[1:] > key[:-1]).all():
        return None
    if _format_edges(u, v) != raw:
        return None
    return u, v


def _parse_edges_by_line(lines: list[str], v_count: int):
    """Endpoint arrays of the edge lines, checked line by line; raises
    ParseError at the first bad line."""
    edges: list[tuple[int, int]] = []
    prev: tuple[int, int] | None = None
    for i, text in enumerate(lines, start=3):
        u, v = _parse_int_fields(text, 2, i)
        if not (0 <= u < v_count and 0 <= v < v_count):
            raise ParseError(f"vertex index out of range in edge {u} {v}", line=i)
        if u >= v:
            raise ParseError(f"edge must satisfy u < v, got {u} {v}", line=i)
        if prev is not None and (u, v) <= prev:
            raise ParseError("edges not in ascending order", line=i)
        prev = (u, v)
        edges.append((u, v))
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def read_graph_file(path) -> GraphBall:
    """Parse and validate a v1 graph file; rejects any format deviation.

    The edge lines are checked as arrays; on any deviation they are parsed
    again line by line, so the error names the first offending line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        data = fh.read()
    if not data.endswith("\n"):
        raise ParseError("missing trailing newline", line=data.count("\n") + 1)
    if "\r" in data:
        raise ParseError("CR byte found; LF line endings required",
                         line=data[: data.index("\r")].count("\n") + 1)
    n_lines = data.count("\n")
    head = data.split("\n", 2)
    if head[0] != FILE_MAGIC:
        raise ParseError(f"bad header, expected {FILE_MAGIC!r}", line=1)
    if n_lines < 2:
        raise ParseError("missing counts line", line=2)
    v_count, e_count, base, radius = _parse_int_fields(head[1], 4, 2)
    if v_count <= 0 or e_count < 0 or radius < 0 or not 0 <= base < v_count:
        raise ParseError("counts line out of range", line=2)
    if n_lines != 2 + e_count:
        raise ParseError(
            f"declared {e_count} edges but file has {n_lines - 2} edge lines",
            line=n_lines + 1)
    body = head[2]
    edges = _parse_edges_fast(body, v_count, e_count)
    if edges is None:
        edges = _parse_edges_by_line(body.split("\n")[:-1], v_count)

    if v_count == 1:
        ball = single_vertex_ball()
        if radius != 0:
            raise ConsistencyError("single-vertex ball must declare radius 0")
        return ball

    indptr, indices = csr_from_edges(v_count, *edges)
    dist = csr_distances(indptr, indices, base)
    if dist.min() < 0:
        raise ConsistencyError("graph in file is not connected")
    if dist.max() > radius:
        raise ConsistencyError(
            f"vertex at distance {dist.max()} exceeds declared radius {radius}")
    return GraphBall(base=base, radius=radius, indptr=indptr, indices=indices,
                     dist=dist)
