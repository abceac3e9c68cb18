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
    PreconditionViolated,
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
    no other edge layout is stored: every search reads its rows from them.
    The ball keeps the arrays it is given and makes them read-only; it
    rejects a base or a CSR entry outside 0..V-1 with a ValueError. The
    unit `matrix`, `slot_rows`, `edge_arrays` and `symmetry` are derived
    read-only on first use; `dist` is the only view of base distances, and
    `symmetry` the only view of orbits (`orbit_min`, `orbit_members`).
    Safe for concurrent reads: two threads may both derive a value, equal
    both times, and no search writes to the ball: a punctured search keeps
    its forbidden vertices in its own arrays.
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
        n = len(self.dist)
        if len(self.indptr) != n + 1 or self.indptr[-1] != len(self.indices):
            raise ValueError("CSR arrays do not match the vertex count")
        if not 0 <= self.base < n:
            raise ValueError(f"base {self.base} out of range 0..{n - 1}")
        bad = np.flatnonzero((self.indices < 0) | (self.indices >= n))
        if len(bad):
            k = int(bad[0])
            raise ValueError(
                f"indices[{k}] = {self.indices[k]} out of range 0..{n - 1}")

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
    def matrix(self) -> sp.csr_matrix:
        """The read-only unit matrix of the adjacency: every unit-weight
        scipy search of the whole ball runs on it. The numpy searches
        (`bfs_parents`, `bfs_rows`, `punctured_paths`) read the CSR arrays
        instead."""
        matrix = unit_matrix(self.indptr, self.indices)
        for arr in (matrix.data, matrix.indices, matrix.indptr):
            arr.flags.writeable = False
        return matrix

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
    def symmetry(self) -> "Symmetry":
        """Base-fixing automorphisms found in the graph, as verified sparse
        generators with their orbits and a Schreier transversal (see
        `find_automorphisms` and `Symmetry`)."""
        return find_automorphisms(self)

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


def csr_induced(indptr: np.ndarray, indices: np.ndarray,
                members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices) of the subgraph induced by `members`
    (sorted ascending, distinct), with members[i] renumbered i. Only the
    members' rows are read, and the rows stay sorted."""
    rank = np.full(len(indptr) - 1, -1, dtype=np.int64)
    rank[members] = np.arange(len(members))
    slots, sizes = _row_slots(indptr, members)
    cols = rank[indices[slots]]
    keep = cols >= 0
    kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return kept_before[np.append(0, np.cumsum(sizes))], cols[keep]


def _row_slots(indptr: np.ndarray,
               rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR slots of `rows` (repeats allowed), concatenated in order,
    and the size of each row."""
    stops = indptr[rows + 1]
    sizes = stops - indptr[rows]
    # Slot j of the gathered rows is entry j + stop - end of its row.
    return np.arange(sizes.sum()) + np.repeat(stops - np.cumsum(sizes), sizes), sizes


def unit_matrix(indptr: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    """The sparse matrix of CSR arrays with every entry 1, for scipy's
    searches."""
    n = len(indptr) - 1
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


GROUP_CAP = 64  # most S_1 actions the symmetry search closes over
_S1_CAP = 64  # larger first spheres are not searched for symmetries
_SEARCH_CAP = 20_000  # S_1 vertex images the candidate search may try
_EXTENSION_CAP = 64  # candidate maps extended past S_1 or past a twin pair


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


def is_sparse_automorphism(ball: GraphBall, moved: np.ndarray,
                           images: np.ndarray) -> bool:
    """Whether the map sending moved[i] to images[i] and fixing every other
    vertex is a base-fixing automorphism, checked on the edges at moved
    vertices only: `moved` must be ascending, `images` a permutation of it,
    the base unmoved, and the neighbors of each image the images of the
    moved vertex's neighbors. Such a map is a bijection that sends every
    edge to an edge (an edge with no moved end is fixed), so it maps the
    finite edge set onto itself, which is what `is_automorphism` checks on
    the whole ball."""
    moved = np.asarray(moved, dtype=np.int64)
    images = np.asarray(images, dtype=np.int64)
    if moved.ndim != 1 or moved.shape != images.shape:
        return False
    if len(moved) == 0:
        return True
    if (moved[0] < 0 or moved[-1] >= ball.vertex_count
            or (np.diff(moved) <= 0).any() or ball.base in moved
            or not np.array_equal(np.sort(images), moved)):
        return False
    slots, sizes = _row_slots(ball.indptr, moved)
    image_slots, image_sizes = _row_slots(ball.indptr, images)
    if not np.array_equal(sizes, image_sizes):
        return False
    # The neighbors of the moved vertices under the map, each row sorted.
    ends = ball.indices[slots]
    at = np.minimum(np.searchsorted(moved, ends), len(moved) - 1)
    mapped = np.where(moved[at] == ends, images[at], ends)
    mapped = mapped[np.lexsort((mapped, np.repeat(np.arange(len(moved)), sizes)))]
    return np.array_equal(mapped, ball.indices[image_slots])


class Symmetry:
    """Base-fixing automorphisms of a ball, kept as verified generators and
    never listed as a group (see `find_automorphisms`).

    Generator j is sparse: `moves[j] = (moved, images)` sends moved[i] to
    images[i], with `moved` ascending, and fixes every other vertex.
    `orbit_min[v]` is the smallest vertex of v's orbit under the group the
    generators generate. The Schreier transversal spans each orbit from
    that vertex: generator via[v] sends parent[v] to v, and an orbit
    minimum has parent and via -1, so u_v = g_via[v] . u_parent[v] is a
    group element that sends orbit_min[v] to v. Every array is read-only.
    """

    def __init__(self, moves: tuple[tuple[np.ndarray, np.ndarray], ...],
                 orbit_min: np.ndarray, parent: np.ndarray, via: np.ndarray):
        self.moves, self.orbit_min, self.parent, self.via = moves, orbit_min, parent, via
        for arr in (orbit_min, parent, via, *(a for move in moves for a in move)):
            arr.flags.writeable = False

    @cached_property
    def _by_orbit(self) -> tuple[np.ndarray, np.ndarray]:
        """Every vertex as int32, grouped by orbit in ascending order of the
        orbit minima and ascending within each orbit, and the start of the
        orbit of minimum v at entry v (V + 1 entries)."""
        by_orbit = np.argsort(self.orbit_min, kind="stable").astype(np.int32)
        start = np.searchsorted(self.orbit_min[by_orbit],
                                np.arange(len(self.orbit_min) + 1))
        return by_orbit, start

    def orbit_members(self, orbits: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The members of the orbits whose minima are `orbits`, one orbit
        after another in that order, each ascending, as one int32 array, and
        the size of each orbit. Generators fix the base, so an orbit lies in
        one sphere: a union of spheres holds the whole orbit of each of its
        vertices."""
        by_orbit, start = self._by_orbit
        slots, sizes = _row_slots(start, np.asarray(orbits, dtype=np.int64))
        return by_orbit[slots], sizes

    def _steps(self, v: np.ndarray) -> list[np.ndarray]:
        """The transversal's generators from each v up to its orbit minimum:
        entry k holds, per v, the generator of the k-th step up, -1 for a
        walk that has reached its minimum."""
        at = np.asarray(v, dtype=np.int64)
        steps = []
        while True:
            gen = self.via[at]
            if (gen < 0).all():
                return steps
            steps.append(gen)
            at = np.where(gen >= 0, self.parent[at], at)

    def _walk(self, v: Sequence[int], x: np.ndarray, inverse: bool) -> np.ndarray:
        """Row i of the vertices x mapped by u_v[i], or by its inverse, all
        rows in lockstep: one gather per step from a table of the dense
        maps of the generators the walks use (-1, no generator, reads the
        identity row)."""
        out = np.array(x, dtype=np.int64)
        steps = self._steps(v)
        if not steps:
            return out
        used, row = np.unique(np.stack(steps), return_inverse=True)
        table = np.empty((len(used), len(self.orbit_min)), dtype=np.int32)
        for i, j in enumerate(used.tolist()):
            table[i] = np.arange(table.shape[1])
            if j >= 0:
                moved, images = self.moves[j]
                if inverse:
                    table[i, images] = moved
                else:
                    table[i, moved] = images
        flat = out.reshape(len(out), -1)
        for gen in row if inverse else row[::-1]:
            flat[:] = table[gen[:, None], flat]
        return out

    def from_rep(self, v: Sequence[int], x: np.ndarray) -> np.ndarray:
        """u_v[i](x[i]) for every row i: the vertices x[i] (any trailing
        shape) mapped by the transversal element that sends orbit_min[v[i]]
        to v[i]."""
        return self._walk(v, x, inverse=False)

    def to_rep(self, v: Sequence[int], x: np.ndarray) -> np.ndarray:
        """u_v[i]^-1(x[i]) for every row i, the inverse of `from_rep`: it
        sends v[i] to orbit_min[v[i]]."""
        return self._walk(v, x, inverse=True)


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
        self.ball = ball
        order = np.argsort(ball.dist, kind="stable")
        self.layers = np.split(order, np.cumsum(np.bincount(ball.dist))[:-1])[2:]
        self.targets = []
        # Twin pairs: adjacent equal rows of a layer's targets, the layers
        # in ascending order.
        twins = [np.empty((0, 2), dtype=np.int64)]
        for layer in self.layers:
            keys = np.column_stack([self.degree[layer], self.lower[layer]])
            o = np.lexsort(keys.T[::-1])
            keys, dest = keys[o], layer[o]
            self.targets.append((keys, dest))
            same = np.flatnonzero((keys[1:] == keys[:-1]).all(axis=1))
            twins.append(np.column_stack([dest[same], dest[same + 1]]))
        self.twins = np.concatenate(twins)

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

    def lift(self, v: int, w: int) -> tuple[np.ndarray, np.ndarray] | None:
        """The swap of the twins v and w (two equal rows of one layer's
        `targets`) extended up the layers above theirs, as (moved, images)
        with `moved` ascending; None at the first layer whose keys differ.

        Layer by layer, a vertex whose sorted lower-neighbor images equal
        its own lower neighbors stays, and the others go as `extend` maps a
        layer: each to the vertex with its degree and those images as lower
        neighbors, ties in ascending id order. The two kinds never share a
        key (the map so far is a bijection of the layer below, so an image
        set equal to a fixed vertex's lower neighbors is the preimage's own),
        so this is `extend` run on the whole ball from the swap, and only
        the upper neighbors of moved vertices are read."""
        ball, lower = self.ball, self.lower
        n = ball.vertex_count
        image = np.arange(n + 1)
        image[[v, w]] = w, v
        layer = np.array(sorted((v, w)))
        level = int(ball.dist[v])
        moved = [layer]
        while True:
            slots, _ = _row_slots(ball.indptr, layer)
            level += 1
            up = np.unique(ball.indices[slots])
            up = up[ball.dist[up] == level]
            keys = np.sort(image[lower[up]], axis=1)
            change = (keys != lower[up]).any(axis=1)
            layer = up[change]
            if not len(layer):
                break
            degree = self.degree[layer][:, None]
            got = np.hstack([degree, keys[change]])
            want = np.hstack([degree, lower[layer]])
            o_got, o_want = np.lexsort(got.T[::-1]), np.lexsort(want.T[::-1])
            if not np.array_equal(got[o_got], want[o_want]):
                return None
            image[layer[o_got]] = layer[o_want]
            moved.append(layer)
        moved = np.sort(np.concatenate(moved))
        return moved.astype(np.int32), image[moved].astype(np.int32)


def _closure(gens: list[tuple[int, ...]],
             m: int) -> set[tuple[int, ...]] | None:
    """The set of actions on m S_1 positions, as position tuples, that the
    actions `gens` generate, or None once it would pass GROUP_CAP elements."""
    group = {tuple(range(m))}
    frontier = list(group)
    while frontier:  # breadth-first over products with the generators
        fresh = []
        for g in frontier:
            for h in gens:
                p = tuple(h[i] for i in g)
                if p not in group:
                    if len(group) == GROUP_CAP:
                        return None
                    group.add(p)
                    fresh.append(p)
        frontier = fresh
    return group


def _first_sphere_generators(ball: GraphBall, s1: np.ndarray,
                             layering: _Layering, moves: list) -> int:
    """Append to `moves` the verified extensions of candidate actions on
    S_1 that the actions kept so far do not generate, and return the
    number of candidates extended."""
    n = ball.vertex_count
    actions: list[tuple[int, ...]] = []
    realised = {tuple(range(len(s1)))}  # the group the kept actions generate
    extensions = 0
    for action in _first_sphere_maps(ball, s1):
        # A larger group has at least twice the order, so none fits.
        if 2 * len(realised) > GROUP_CAP or extensions == _EXTENSION_CAP:
            break
        if action in realised:
            continue
        grown = _closure(actions + [action], len(s1))
        if grown is None:
            continue
        extensions += 1
        perm = layering.extend(ball.base, s1, s1[list(action)])
        if perm is None or not is_automorphism(ball, perm):
            continue
        moved = np.flatnonzero(perm != np.arange(n))
        moves.append((moved.astype(np.int32), perm[moved].astype(np.int32)))
        actions.append(action)
        realised = grown
    return extensions


def _twin_generators(ball: GraphBall, layering: _Layering, moves: list,
                     extensions: int, low: np.ndarray) -> np.ndarray:
    """Append to `moves` verified twin swaps that merge orbits of the maps
    found so far, whose minima are `low`, and return the minima of the
    merged orbits.

    A twin pair with an upper neighbor has its swap extended, in the order
    of `_Layering.twins`, while the extensions stay within _EXTENSION_CAP;
    each kept swap is a generator. A leaf pair, neither twin having an
    upper neighbor, moves nothing else: its swap needs no extension, and
    the swaps of disjoint leaf pairs commute, so the verified ones still
    apart go into generators that are products of disjoint swaps, taken
    greedily in order until no leaf pair is apart.
    """
    pv, pw = layering.twins.T
    if not len(pv):
        return low
    dist, rows, cols = ball.dist, ball.slot_rows, ball.indices
    has_upper = np.zeros(ball.vertex_count, dtype=bool)
    has_upper[rows[dist[cols] > dist[rows]]] = True
    leaf = ~(has_upper[pv] | has_upper[pw])
    up_v, up_w = pv[~leaf], pw[~leaf]
    at = 0
    while extensions < _EXTENSION_CAP:
        # The next pair, in order, whose twins lie in two orbits.
        apart = np.flatnonzero(low[up_v[at:]] != low[up_w[at:]])
        if not len(apart):
            break
        at += int(apart[0]) + 1
        extensions += 1
        swap = layering.lift(int(up_v[at - 1]), int(up_w[at - 1]))
        if swap is not None and is_sparse_automorphism(ball, *swap):
            moves.append(swap)
            low = _merge_orbits(low, *swap)
    # Twins whose only neighbors are their common lower ones swap freely;
    # a neighbor in their own layer calls for the check.
    pv, pw = pv[leaf], pw[leaf]
    sideways = np.zeros(ball.vertex_count, dtype=bool)
    sideways[rows[dist[cols] == dist[rows]]] = True
    good = ~(sideways[pv] | sideways[pw])
    for i in np.flatnonzero(~good).tolist():
        pair = np.sort([pv[i], pw[i]])
        good[i] = is_sparse_automorphism(ball, pair, pair[::-1])
    pv, pw = pv[good], pw[good]
    n = ball.vertex_count
    while True:
        # The first pair, in order, joining each two orbits; a pair joins
        # the product unless an earlier chosen one already joins its orbits
        # (union-find over the orbits' minima) or shares a vertex with it.
        apart = np.flatnonzero(low[pv] != low[pw])
        a, b = low[pv[apart]], low[pw[apart]]
        _, first = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_index=True)
        first.sort()
        root: dict[int, int] = {}

        def find(x):
            while root.get(x, x) != x:
                root[x] = x = root.get(root[x], root[x])
            return x

        used, chosen = set(), []
        for i, x, y in zip(apart[first].tolist(), a[first].tolist(), b[first].tolist()):
            x, y = find(x), find(y)
            v, w = int(pv[i]), int(pw[i])
            if x != y and v not in used and w not in used:
                root[max(x, y)] = min(x, y)
                used |= {v, w}
                chosen.append(i)
        if not chosen:
            return low
        moved = np.concatenate([pv[chosen], pw[chosen]])
        order = np.argsort(moved)
        swaps = (moved[order].astype(np.int32),
                 np.concatenate([pw[chosen], pv[chosen]])[order].astype(np.int32))
        moves.append(swaps)
        low = _merge_orbits(low, *swaps)


def _merge_orbits(low: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The orbit minima `low` (one per vertex) after the orbits of x[i] and
    y[i] are joined for every i: until the minima at the two ends of every
    join agree, each orbit takes the least minimum it is joined to."""
    while True:
        a, b = low[x], low[y]
        apart = a != b
        if not apart.any():
            return low
        least = np.arange(len(low))
        np.minimum.at(least, a[apart], b[apart])
        np.minimum.at(least, b[apart], a[apart])
        low = least[low]


def _transversal(moves: list[tuple[np.ndarray, np.ndarray]],
                 low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Schreier transversal (parent, via) of the orbits `low` under the
    sparse maps `moves`: a breadth-first search from every orbit minimum at
    once along the maps, each newly reached vertex keeping the first map,
    in order, that reached it."""
    n = len(low)
    parent = np.full(n, -1, dtype=np.int32)
    via = np.full(n, -1, dtype=np.int32)
    reached = low == np.arange(n)
    frontier = reached.copy()
    while frontier.any():
        fresh = np.zeros(n, dtype=bool)
        for j, (x, y) in enumerate(moves):
            step = frontier[x] & ~reached[y]
            parent[y[step]], via[y[step]] = x[step], j
            reached[y[step]] = fresh[y[step]] = True
        frontier = fresh
    return parent, via


def find_automorphisms(ball: GraphBall) -> Symmetry:
    """Base-fixing automorphisms of the ball, from two sources of generators.

    First the maps of S_1: each candidate action on S_1 (see
    `_first_sphere_maps`) that the actions kept so far do not already
    generate is extended one BFS layer at a time (`_Layering.extend`) and
    kept only if `is_automorphism` verifies it. The kept actions' group is
    kept as a set of tuples of S_1 positions (`_closure`); an action whose
    group would pass GROUP_CAP elements is dropped.

    Then the twin swaps (`_twin_generators`). Twins are two vertices of one
    layer beyond S_1 with the same degree and the same lower neighbors:
    adjacent equal rows of `_Layering.targets`. Layer by layer upward, a
    twin pair in two different orbits has its swap extended over the
    layers above (`_Layering.lift`), verified on the edges at its moved
    vertices (`is_sparse_automorphism`) and kept, which merges orbits. The
    extensions of both phases count against _EXTENSION_CAP. Twins without
    upper neighbors extend nothing: their swaps go, uncounted, into a few
    products of disjoint swaps.

    Symmetries may be missed, which only makes the orbits smaller: every
    generator is a verified automorphism. A ball whose S_1 has fewer than
    2 or more than _S1_CAP vertices gets none.
    """
    n = ball.vertex_count
    s1 = np.flatnonzero(ball.dist == 1)
    moves: list[tuple[np.ndarray, np.ndarray]] = []
    low = np.arange(n)
    if 2 <= len(s1) <= _S1_CAP:
        layering = _Layering(ball)
        extensions = _first_sphere_generators(ball, s1, layering, moves)
        for move in moves:
            low = _merge_orbits(low, *move)
        low = _twin_generators(ball, layering, moves, extensions, low)
    parent, via = _transversal(moves, low)
    return Symmetry(moves=tuple(moves), orbit_min=low, parent=parent, via=via)


@dataclass(frozen=True)
class Sphere:
    """Vertices at exact graph distance `radius` from the base."""

    radius: int
    vertices: tuple[int, ...]


def bfs_distances(matrix: sp.csr_matrix, sources: int | Sequence[int],
                  cap: int | None = None) -> np.ndarray:
    """Breadth-first distances over a unit matrix (a ball's `matrix`, or
    `unit_matrix` of CSR arrays) from `sources` (one vertex, or several: the
    distance to the nearest), as one int64 array of length V; unreached
    vertices get -1.

    `cap` stops the search beyond that depth (distances > cap stay -1).
    """
    dist = dijkstra(matrix, directed=True, indices=sources,
                    limit=np.inf if cap is None else cap, min_only=True)
    dist[np.isinf(dist)] = -1
    return dist.astype(np.int64)


# A block of `bfs_parents` searches keeps each of its (search, vertex) int32
# arrays within BLOCK_CELLS cells: each level gathers the rows of all the
# block's searches, and the arrays are O(kV) whatever the searches reach.
BLOCK_CELLS = 2**17


def block_rows(vertex_count: int) -> int:
    """Rows per block of searches over `vertex_count` vertices: as many as
    fit BLOCK_CELLS cells, at least one."""
    return max(1, BLOCK_CELLS // vertex_count)


def bfs_parents(indptr: np.ndarray, indices: np.ndarray,
                sources: int | Sequence[int], cap: int | None = None, *,
                blocked: Sequence[np.ndarray] | None = None,
                targets: Sequence[int] | None = None, parents: bool = True
                ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Breadth-first searches over CSR arrays, one from each entry of
    `sources` (one vertex, or a sequence: one search per entry, repeats
    included), run together one level at a time; the one such loop in
    Python. Returns (dist, parent, order).

    `dist` and `parent` are int32 arrays, of shape (k, V) for k sources or
    (V,) for one vertex; -1 marks an unreached vertex and the parent of a
    source. `order` holds the key i * V + v of every vertex v that search i
    reaches, level by level, each level grouped by search; the keys of one
    search, in the order they appear, are its discovery order. Each search
    is a FIFO queue over each CSR row in stored order, and the first
    discoverer of a vertex is its parent. `cap` stops the searches beyond
    that depth.
    `blocked[i]` lists vertices that search i never enters (the search
    sees the graph minus them; a search that starts on one raises
    `PreconditionViolated`), and `targets[i]` stops search i once it has
    discovered that vertex. Neither changes a reached vertex's distance or
    parent. `parents=False` skips the parent array and returns None for it.
    Besides the O(kV) result arrays the cost is what the searches reach,
    so capped and targeted searches stay local.
    """
    src = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    k, n = len(src), len(indptr) - 1
    dist = np.full((k, n), -1, dtype=np.int32)
    parent = np.full((k, n), -1, dtype=np.int32) if parents else None
    flat_dist = dist.reshape(-1)
    # The frontier keys stay grouped by search, each group in its search's
    # discovery order, so gathering their rows in order walks every queue.
    frontier = np.arange(k) * n + src
    if blocked is not None:
        # A blocked vertex reads -2 until the searches end: never fresh.
        walls = np.concatenate([i * n + np.asarray(b, dtype=np.int64)
                                for i, b in enumerate(blocked)])
        flat_dist[walls] = -2
        if (flat_dist[frontier] == -2).any():
            raise PreconditionViolated(
                "a punctured search starts inside its forbidden ball")
    goals = None if targets is None else (
        np.arange(k) * n + np.asarray(targets, dtype=np.int64))
    flat_dist[frontier] = 0
    levels = [frontier]
    depth = 0
    while len(frontier) and (cap is None or depth < cap):
        depth += 1
        search, u = np.divmod(frontier, n)
        if goals is not None:  # a search that has found its target stops
            going = flat_dist[goals[search]] < 0
            search, u = search[going], u[going]
        slots, sizes = _row_slots(indptr, u)
        keys = np.repeat(search * n, sizes) + indices[slots]
        fresh = flat_dist[keys] == -1
        keys = keys[fresh]
        # A fresh key keeps the largest mark, len(keys) - position, of its
        # occurrences, so `first` is each key's first discoverer, in order;
        # every marked key is then overwritten with its depth.
        mark = np.arange(len(keys), 0, -1, dtype=np.int32)
        np.maximum.at(flat_dist, keys, mark)
        first = np.flatnonzero(flat_dist[keys] == mark)
        frontier = keys[first]
        flat_dist[frontier] = depth
        if parents:
            parent.reshape(-1)[frontier] = np.repeat(u, sizes)[fresh][first]
        levels.append(frontier)
    if blocked is not None:
        flat_dist[walls] = -1
    order = np.concatenate(levels)
    if np.ndim(sources) == 0:
        return dist[0], None if parent is None else parent[0], order
    return dist, parent, order


def bfs_rows(indptr: np.ndarray, indices: np.ndarray, sources: Sequence[int],
             blocked: Sequence[np.ndarray] | None = None,
             columns: np.ndarray | None = None) -> np.ndarray:
    """Distances of breadth-first searches over CSR arrays, one from each
    entry of `sources` (repeats included), as a float64 (k, len(columns))
    array: row i holds search i's distance to each vertex of `columns`
    (every vertex when None), inf where the search does not reach it.
    `blocked[i]` lists vertices that search i never enters, which read
    inf; a search that starts on one raises `PreconditionViolated`.

    The searches are bit-parallel: search i is bit i % 64 of word i // 64
    of a vertex's '<u8' row in the (V, W) `seen` and frontier arrays. Each
    level gathers the frontier words over the CSR slots and ORs each row's
    slots together, so one numpy pass advances every search; the searches
    end when every search has reached or blocked every column, or when a
    level sets no new bit. A level costs O(E W + len(columns) k) whatever
    the searches reach, so run them in blocks of about
    BLOCK_CELLS / len(columns) sources.
    """
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    k, n = len(src), len(indptr) - 1
    cols = np.arange(n) if columns is None else np.asarray(columns, dtype=np.int64)
    out = np.full((k, len(cols)), np.inf)
    if k == 0:
        return out
    words = (k + 63) // 64
    word = np.arange(k) // 64
    bit = np.left_shift(np.uint64(1), (np.arange(k) % 64).astype(np.uint64))
    seen = np.zeros((n, words), dtype="<u8")
    if blocked is not None:
        walls = [np.asarray(b, dtype=np.int64) for b in blocked]
        sizes = [len(w) for w in walls]
        np.bitwise_or.at(seen, (np.concatenate(walls), np.repeat(word, sizes)),
                         np.repeat(bit, sizes))
        if (seen[src, word] & bit).any():
            raise PreconditionViolated(
                "a punctured search starts inside its forbidden ball")
    new = np.zeros_like(seen)
    np.bitwise_or.at(new, (src, word), bit)
    every = np.bitwise_or.reduce(new, axis=0)  # the bits of all k searches
    seen |= new
    # A row without slots would read its successor's first slot in reduceat.
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    starts = indptr[rows]
    reach = np.zeros_like(seen)
    depth = 0
    while True:
        # Bit i of byte j of a little-endian word is search 8j + i of it.
        hit = np.unpackbits(new[cols].view(np.uint8), axis=1, count=k,
                            bitorder="little").view(bool)
        out.T[hit] = depth
        if (seen[cols] == every).all():  # every column reached or blocked
            return out
        reach[rows] = np.bitwise_or.reduceat(new[indices], starts, axis=0)
        np.bitwise_and(reach, ~seen, out=new)
        if not new.any():
            return out
        seen |= new
        depth += 1


def punctured_paths(indptr: np.ndarray, indices: np.ndarray,
                    sources: Sequence[int], targets: Sequence[int],
                    forbidden: Sequence[np.ndarray]) -> list[list[int] | None]:
    """For each job i, the path of a breadth-first search from sources[i]
    to targets[i] in the graph minus the vertices forbidden[i] (a ball
    B_c(t), or any vertex set), None when the target is unreached: a
    shortest path, each vertex's parent its first discoverer in the stored
    row order (the `bfs_parents` rule) on the punctured graph.
    A source inside its forbidden set raises `PreconditionViolated`.

    The jobs run in blocks of `block_rows(V)` searches, each block one
    `bfs_parents` call that stops each search at its target, and the
    block's paths are read back in lockstep.
    """
    n = len(indptr) - 1
    block = block_rows(n)
    paths: list[list[int] | None] = []
    for lo in range(0, len(sources), block):
        src = np.asarray(sources[lo:lo + block], dtype=np.int64)
        dst = np.asarray(targets[lo:lo + block], dtype=np.int64)
        dist, parent, _ = bfs_parents(indptr, indices, src,
                                      blocked=forbidden[lo:lo + block],
                                      targets=dst)
        rows = np.arange(len(src))
        length = dist[rows, dst]
        walk = np.empty((len(src), max(int(length.max()), 0) + 1), dtype=np.int64)
        walk[:, 0] = dst
        for step in range(1, walk.shape[1]):
            # A walk that has reached its source stays there.
            up = parent[rows, walk[:, step - 1]]
            walk[:, step] = np.where(up >= 0, up, walk[:, step - 1])
        for steps, row in zip(length.tolist(), walk.tolist()):
            paths.append(None if steps < 0 else row[steps::-1])
    return paths


def extract_path(parent, target: int) -> list[int]:
    """Path from the search source to `target` following predecessors:
    `parent` maps a vertex to its predecessor, and a negative entry ends the
    path (a `bfs_parents` parent row, where the source and unreached
    vertices hold -1, or a scipy predecessor row, where they hold -9999)."""
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
    order: dict[Hashable, int] = {}  # label -> number in order of appearance
    distinct: dict[tuple[int, int], None] = {}  # edges in order of appearance

    n_edges = 0
    for u, v in edges:
        n_edges += 1
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u!r}")
        iu = order.setdefault(u, len(order))
        iv = order.setdefault(v, len(order))
        distinct[min(iu, iv), max(iu, iv)] = None
    if n_edges == 0:
        raise ValueError("edge list is empty")
    if base not in order:
        raise DisconnectedGraph(f"base {base!r} does not appear in any edge")

    # Edge k gives the entries u->v and v->u; the stable sort by row keeps
    # every row in the order its edges appeared, which the breadth-first
    # numbering walks.
    pairs = np.array(list(distinct), dtype=np.int64)
    rows = pairs.ravel()
    by_row = np.argsort(rows, kind="stable")
    indptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(order)), out=indptr[1:])
    dist, _, found = bfs_parents(indptr, pairs[:, ::-1].ravel()[by_row],
                                 order[base], parents=False)
    if len(found) != len(order):
        missing = len(order) - len(found)
        raise DisconnectedGraph(f"{missing} vertices unreachable from the base")
    dist = dist[found]  # found[i] is the new i
    if dist.max() > declared_radius:
        raise RadiusMismatch(f"vertex at distance {dist.max()} exceeds "
                             f"declared radius {declared_radius}")
    index = np.empty(len(found), dtype=np.int64)
    index[found] = np.arange(len(found))
    pairs = index[pairs]
    indptr, indices = csr_from_edges(len(found), pairs[:, 0], pairs[:, 1])
    return GraphBall(base=0, radius=declared_radius, indptr=indptr,
                     indices=indices, dist=dist)


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
    dist = bfs_distances(unit_matrix(indptr, indices), base)
    if dist.min() < 0:
        raise ConsistencyError("graph in file is not connected")
    if dist.max() > radius:
        raise ConsistencyError(
            f"vertex at distance {dist.max()} exceeds declared radius {radius}")
    return GraphBall(base=base, radius=radius, indptr=indptr, indices=indices,
                     dist=dist)
