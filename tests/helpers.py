"""Independent oracles and small generators shared across the test modules.

Everything here deliberately avoids the library's own shortest-path and
enumeration machinery: brute-force simple-path search, coordinate BFS on the
integer grid, and matrix arithmetic for the nilpotent model, so the tests
check two genuinely different routes.
"""

from collections import deque
from itertools import count
import random

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from floydlab.graph_core import GraphBall, build_ball, csr_from_edges


def unit_matrix(indptr, indices):
    """The sparse matrix of CSR arrays with every entry 1, for scipy's
    searches (the library keeps no matrix of a ball's adjacency)."""
    n = len(indptr) - 1
    return sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))


def neighbors(ball, v):
    """The neighbor tuple of vertex v, read from the ball's CSR arrays."""
    return tuple(ball.indices[ball.indptr[v]:ball.indptr[v + 1]].tolist())


def min_floyd_over_simple_paths(weighting, u, v):
    """Exhaustive minimum of Floyd path lengths over all simple u-v paths.

    Each edge weight is recomputed from its definition, f(min(d(b,x), d(b,y))),
    not read from the weighting's stored weights."""
    ball = weighting.ball
    dist = ball.dist.tolist()
    f = weighting.floyd
    if u == v:
        return 0.0
    best = [float("inf")]
    seen = [False] * ball.vertex_count
    seen[u] = True

    def dfs(x, acc):
        if acc >= best[0]:
            return
        if x == v:
            best[0] = acc
            return
        for y in neighbors(ball, x):
            if not seen[y]:
                seen[y] = True
                dfs(y, acc + f.value(min(dist[x], dist[y])))
                seen[y] = False

    dfs(u, 0.0)
    return best[0]


def random_connected_edges(rng: random.Random, n_vertices: int):
    """Random connected simple graph on 0..n_vertices-1: spanning tree plus
    a few extra edges."""
    edges = set()
    for v in range(1, n_vertices):
        edges.add((rng.randrange(v), v))
    extras = rng.randrange(0, n_vertices)
    for _ in range(extras):
        a = rng.randrange(n_vertices)
        b = rng.randrange(n_vertices)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def random_small_ball(rng: random.Random, max_vertices: int = 8):
    n = rng.randrange(2, max_vertices + 1)
    edges = random_connected_edges(rng, n)
    return build_ball(edges, 0, n)


def wind_and_rail_ball():
    """Hub at 1; from x = 3 the shortest punctured route to the unique
    sphere vertex 10 winds past hub-close vertices (certifies only at 4/3),
    while an equally long rail-supported chain certifies at 1.2."""
    edges = [(0, 1), (0, 2), (2, 3), (1, 4), (1, 5), (3, 4), (4, 6), (6, 7),
             (7, 8), (8, 5), (5, 9), (9, 10), (3, 11), (11, 12), (12, 13),
             (13, 14), (14, 15), (15, 16), (16, 10), (1, 17), (17, 7),
             (1, 18), (18, 12), (1, 19), (19, 13), (1, 20), (20, 14),
             (1, 21), (21, 15), (1, 22), (22, 16)]
    u, v = np.array(edges).T
    indptr, indices = csr_from_edges(23, u, v)
    dist = dijkstra(unit_matrix(indptr, indices), indices=0).astype(np.int64)
    return GraphBall(base=0, radius=int(dist.max()), indptr=indptr,
                     indices=indices, dist=dist)


def grid_punctured_distance(a, b, c, threshold, box):
    """BFS on Z^2 coordinates from a to b avoiding the closed L1 ball of
    radius `threshold` around c, restricted to the L1 box of radius `box`
    around the origin. Returns None when disconnected. Independent of any
    GraphBall machinery."""

    def l1(p, q):
        return abs(p[0] - q[0]) + abs(p[1] - q[1])

    def allowed(p):
        return l1(p, (0, 0)) <= box and l1(p, c) > threshold

    if not (allowed(a) and allowed(b)):
        raise ValueError("endpoints must be allowed")
    dist = {a: 0}
    queue = deque([a])
    while queue:
        p = queue.popleft()
        if p == b:
            return dist[p]
        x, y = p
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if q not in dist and allowed(q):
                dist[q] = dist[p] + 1
                queue.append(q)
    return None


def heisenberg_matrix_words(radius):
    """Word-length table for the discrete Heisenberg group computed with
    3x3 upper-triangular integer matrices, enumerating all words up to the
    given length. Returns {matrix_entries: word_length}."""

    def mul(m, g):
        return tuple(
            tuple(sum(m[i][k] * g[k][j] for k in range(3)) for j in range(3))
            for i in range(3))

    def mat(x, y, z):
        return ((1, x, z), (0, 1, y), (0, 0, 1))

    gens = [mat(1, 0, 0), mat(-1, 0, 0), mat(0, 1, 0), mat(0, -1, 0)]
    identity = mat(0, 0, 0)
    lengths = {identity: 0}
    frontier = [identity]
    for step in range(1, radius + 1):
        nxt = []
        for m in frontier:
            for g in gens:
                image = mul(m, g)
                if image not in lengths:
                    lengths[image] = step
                    nxt.append(image)
        frontier = nxt
    return lengths


def brute_force_word_lengths(model, radius):
    """Word lengths via plain breadth-first multiplication, keyed by
    canonical key; independent of cayley_ball's edge bookkeeping."""
    lengths = {model.canonical_key(model.identity()): 0}
    frontier = [model.identity()]
    for step in range(1, radius + 1):
        nxt = []
        for el in frontier:
            for g in model.generator_labels():
                image = model.multiply(el, g)
                key = model.canonical_key(image)
                if key not in lengths:
                    lengths[key] = step
                    nxt.append(image)
        frontier = nxt
    return lengths


def python_punctured_bfs(ball, source, target, forbidden):
    """Pure-python BFS in ball minus a forbidden vertex set; None if cut."""
    if source == target:
        return 0
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in neighbors(ball, x):
            if y not in dist and y not in forbidden:
                if y == target:
                    return dist[x] + 1
                dist[y] = dist[x] + 1
                queue.append(y)
    return None


def graph_distance(ball, u, v):
    """BFS shortest-path length between u and v inside the ball."""
    ball.check_index(u)
    ball.check_index(v)
    d = python_punctured_bfs(ball, u, v, set())
    if d is None:
        raise AssertionError("ball is connected by construction")
    return d


def is_quasi_geodesic(ball, path, C):
    """Whether `path` is an edge path of the ball whose vertex pairs all
    satisfy (1/C) d - C <= |subpath| <= C d + C, with every d a python BFS
    distance and a 1e-9 tolerance."""
    if any(w not in neighbors(ball, v) for v, w in zip(path, path[1:])):
        return False
    for i in range(len(path)):
        for j in range(i + 1, len(path)):
            d, sub = graph_distance(ball, path[i], path[j]), j - i
            if not d / C - C <= sub + 1e-9 or not sub <= C * d + C + 1e-9:
                return False
    return True


def vertex_of(model, elements, element):
    """Index of a group element inside a labeled ball (KeyError if absent)."""
    key = model.canonical_key(element)
    for i, el in enumerate(elements):
        if model.canonical_key(el) == key:
            return i
    raise KeyError(f"element {element!r} not in ball")


def naive_div_triple(ball, a, b, c, delta, gamma):
    """Reference divergence value from scipy's distances from c and a
    python BFS over the ball."""
    d_c = dijkstra(unit_matrix(*ball.csr_arrays), indices=c).tolist()
    r = min(d_c[a], d_c[b])
    assert r > 0
    threshold = delta * r - gamma
    if threshold <= 0:
        forbidden = set()
    else:
        forbidden = {v for v, d in enumerate(d_c) if d <= threshold}
    return python_punctured_bfs(ball, a, b, forbidden)


def check_automorphism_generators(ball, moves):
    """Assert that each generator (moved, images), vertex moved[i] going to
    images[i] and every other vertex staying, is a base-fixing automorphism
    of the ball that moves every vertex it lists, using only Python sets
    over the neighbor lists."""
    n = ball.vertex_count
    edges = {frozenset((u, v)) for u in range(n) for v in neighbors(ball, u)}
    for moved, images in moves:
        g = dict(zip(moved.tolist(), images.tolist()))
        assert len(g) == len(moved) and sorted(g) == moved.tolist(), \
            "moved vertices not ascending and distinct"
        assert set(g.values()) == set(g), "not a bijection of the moved set"
        assert all(x != y for x, y in g.items()), "a listed vertex stays"
        assert ball.base not in g, "base moved"
        image = {frozenset(g.get(x, x) for x in e) for e in edges}
        assert image == edges, "adjacency not preserved"


def python_orbits(ball, moves):
    """The orbit of every vertex under the generators (moved, images), as a
    list of frozensets, by a Python search over each generator and its
    inverse."""
    n = ball.vertex_count
    steps = [dict(zip(m.tolist(), i.tolist())) for m, i in moves]
    steps += [{y: x for x, y in g.items()} for g in steps]
    orbit_of = [None] * n
    for v in range(n):
        if orbit_of[v] is not None:
            continue
        orbit, todo = {v}, [v]
        while todo:
            x = todo.pop()
            for g in steps:
                y = g.get(x, x)
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        orbit = frozenset(orbit)
        for x in orbit:
            orbit_of[x] = orbit
    return orbit_of
