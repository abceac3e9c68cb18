"""Differential tests of the traversal fast paths against the code they
replaced.

The `old_*` functions below are verbatim copies of the hand-written loops
that `graph_core.bfs` replaced (only their names changed), and of the
wideness probe's middle-segment search as it scanned whole distance rows.
The sampled divergence estimate runs bounded searches; its reference is the
same code with every search limit removed.
"""

import random
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from floydlab import divergence, quasigeodesic
from floydlab.divergence import DivergenceParams, div_function_estimate
from floydlab.floyd_metric import _punctured_geodesic
from floydlab.graph_core import (
    bfs,
    bfs_distances,
    bfs_parents,
    build_ball,
    extract_path,
)
from floydlab.group_models import DirectProduct, Free, FreeAbelian, Heisenberg, cayley_ball
from floydlab.quasigeodesic import PathWitness, qg_certify, wideness_probe

from helpers import random_connected_edges


def old_bfs_distances(adjacency, source, cap=None):
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if cap is not None and du >= cap:
            continue
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def old_bfs_parents(adjacency, source, cap=None):
    dist = [-1] * len(adjacency)
    parent = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if cap is not None and du >= cap:
            continue
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def old_punctured_bfs(ball, sources, allowed):
    dist = [-1] * ball.vertex_count
    parent = [-1] * ball.vertex_count
    queue = deque()
    for s in sources:
        if allowed[s]:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for v in ball.adjacency[u]:
            if dist[v] < 0 and allowed[v]:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def old_neighborhood_distances(ball, seeds, cap):
    dist = [-1] * ball.vertex_count
    queue = deque()
    for s in seeds:
        if dist[s] < 0:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        if dist[u] >= cap:
            continue
        for v in ball.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def old_punctured_geodesic(ball, u, v, rho):
    dist_b = ball.dist_to_base
    parent = {u: -1}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            path = [v]
            while parent[path[-1]] >= 0:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        for y in ball.adjacency[x]:
            if y not in parent and dist_b[y] > rho:
                parent[y] = x
                queue.append(y)
    return None


def old_middle_segment(ball, x, C, half, u_cap):
    near = old_bfs_distances(ball.adjacency, x, cap=int(C))
    anchors = sorted((d, v) for v, d in enumerate(near) if d >= 0)
    for _, x1 in anchors:
        dist1, parent1 = old_bfs_parents(ball.adjacency, x1, cap=half)
        ring = [v for v, d in enumerate(dist1) if d == half]
        if not ring:
            continue
        for u in ring[:u_cap]:
            du = old_bfs_distances(ball.adjacency, u, cap=2 * half)
            antipode = None
            relaxed = None
            for wv in ring:
                if du[wv] == 2 * half:
                    antipode = wv
                    break
                if relaxed is None or du[wv] > du[relaxed]:
                    relaxed = wv
            if antipode is not None:
                path = extract_path(parent1, u)[::-1] + extract_path(parent1, antipode)[1:]
                return PathWitness(vertices=tuple(path), certified_C=1.0)
            if C > 1 and relaxed is not None and relaxed != u:
                path = extract_path(parent1, u)[::-1] + extract_path(parent1, relaxed)[1:]
                c = qg_certify(ball, path)
                if c <= C + 1e-12:
                    return PathWitness(vertices=tuple(path), certified_C=c)
    return None


def random_adjacency(rng, n):
    """Sorted adjacency of a random simple graph, possibly disconnected."""
    edges = set(random_connected_edges(rng, n))
    for _ in range(rng.randrange(n)):  # drop some edges to cut components off
        edges.discard(rng.choice(sorted(edges)))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(a)) for a in adj)


@pytest.mark.parametrize("seed", range(40))
def test_bfs_matches_replaced_loops(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    adj = random_adjacency(rng, n)
    graph = SimpleNamespace(vertex_count=n, adjacency=adj)
    for _ in range(10):
        source = rng.randrange(n)
        cap = rng.choice([None, 0, 1, 2, 3, 5])
        assert bfs(adj, [source], cap)[1] == old_bfs_distances(adj, source, cap)
        assert bfs_distances(adj, source, cap) == old_bfs_distances(adj, source, cap)
        assert bfs_parents(adj, source, cap) == old_bfs_parents(adj, source, cap)

        # Duplicate and disallowed sources, in a shuffled order.
        sources = [rng.randrange(n) for _ in range(rng.randrange(1, 5))]
        sources += sources[: rng.randrange(len(sources) + 1)]
        rng.shuffle(sources)
        allowed = [rng.random() < 0.8 for _ in range(n)]
        _, dist, parent = bfs(adj, sources, allowed=allowed)
        assert (dist, parent) == old_punctured_bfs(graph, sources, allowed)
        seed_cap = rng.choice([0, 1, 2, 4])
        assert (bfs(adj, sources, seed_cap)[1]
                == old_neighborhood_distances(graph, sources, seed_cap))


@pytest.mark.parametrize("seed", range(20))
def test_bfs_order_is_the_discovery_order(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    adj = random_adjacency(rng, n)
    sources = [rng.randrange(n) for _ in range(3)]
    allowed = [rng.random() < 0.7 for _ in range(n)]
    cap = rng.choice([None, 1, 3])
    order, dist, parent = bfs(adj, sources, cap, allowed)
    assert sorted(order) == [v for v in range(n) if dist[v] >= 0]
    assert len(order) == len(set(order))
    assert [dist[v] for v in order] == sorted(dist[v] for v in order)
    seeded = [s for s in dict.fromkeys(sources) if allowed[s]]
    assert order[: len(seeded)] == seeded
    for v in order[len(seeded):]:
        assert allowed[v] and dist[parent[v]] == dist[v] - 1
        assert order.index(parent[v]) < order.index(v)


@pytest.mark.parametrize("seed", range(15))
def test_punctured_geodesic_matches_replaced_loop(seed):
    rng = random.Random(seed)
    ball = build_ball(random_connected_edges(rng, rng.randrange(2, 40)), 0, 40)
    for _ in range(15):
        u, v = rng.randrange(ball.vertex_count), rng.randrange(ball.vertex_count)
        rho = rng.randrange(-1, max(1, max(ball.dist_to_base)))
        if ball.dist_to_base[u] > rho and ball.dist_to_base[v] > rho:
            assert _punctured_geodesic(ball, u, v, rho) == old_punctured_geodesic(
                ball, u, v, rho)


def star_ball():
    edges = []
    for leg in range(2):
        prev = 0
        for k in range(1, 11):
            edges.append((prev, 100 * (leg + 1) + k))
            prev = 100 * (leg + 1) + k
    edges += [(0, 900), (900, 901)]
    return build_ball(edges, 0, 10)


def triangular_ball(radius):
    """Ball of the triangular lattice: not bipartite, so two ring vertices
    can sit at odd distance, unlike in every Cayley ball of the models."""
    steps = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    seen = {(0, 0): 0}
    frontier = [(0, 0)]
    edges = []
    while frontier:
        nxt = []
        for p in frontier:
            for dx, dy in steps:
                q = (p[0] + dx, p[1] + dy)
                if q not in seen and seen[p] < radius:
                    seen[q] = seen[p] + 1
                    nxt.append(q)
                if q in seen and p < q:
                    edges.append((p, q))
        frontier = nxt
    return build_ball(edges, (0, 0), radius)


PROBE_BALLS = {
    "z2": lambda: cayley_ball(FreeAbelian(2), 9),
    "triangular": lambda: triangular_ball(7),
    "random": lambda: build_ball(
        random_connected_edges(random.Random(5), 120), 0, 120),
    "f2": lambda: cayley_ball(Free(2), 5),
    "heis": lambda: cayley_ball(Heisenberg(), 7),
    "product": lambda: cayley_ball(DirectProduct(FreeAbelian(1), Free(2)), 5),
    "star": star_ball,
}


@pytest.mark.parametrize("name", sorted(PROBE_BALLS))
@pytest.mark.parametrize("C", [1.0, 1.5])
def test_wideness_probe_matches_full_row_scan(name, C, monkeypatch):
    ball = PROBE_BALLS[name]()
    for segment_length, u_cap in ((6, 6), (8, 6), (5, 1)):
        new = wideness_probe(ball, C, segment_length, u_cap=u_cap)
        monkeypatch.setattr(quasigeodesic, "_middle_segment", old_middle_segment)
        old = wideness_probe(ball, C, segment_length, u_cap=u_cap)
        monkeypatch.undo()
        assert new.eligible == old.eligible
        assert new.witnesses == old.witnesses
        assert new.failures == old.failures
        assert new.pass_fraction == old.pass_fraction


def test_wideness_differential_covers_relaxed_and_failing_segments():
    # The Heisenberg ball at C = 1.5 needs relaxed segments, which go through
    # qg_certify; the star has failures. Both branches are compared above.
    heis = wideness_probe(PROBE_BALLS["heis"](), 1.5, 8)
    assert any(w.certified_C > 1.0 for w in heis.witnesses.values())
    assert wideness_probe(star_ball(), 1.0, 8).failures


def cycle_ball(length):
    return build_ball([(i, (i + 1) % length) for i in range(length)], 0, length // 2)


SAMPLED_CASES = {
    "z2": (lambda: cayley_ball(FreeAbelian(2), 24), 8, 3.0),
    "f2": (lambda: cayley_ball(Free(2), 6), 3, 2.0),
    "heis": (lambda: cayley_ball(Heisenberg(), 9), 3, 3.0),
    # Detours of length 38 around a 40-cycle are much longer than n.
    "cycle": (lambda: cycle_ball(40), 2, 1.0),
}


def _unbounded(dijkstra):
    def search(*args, limit=None, **kwargs):
        return dijkstra(*args, **kwargs)
    return search


@pytest.mark.parametrize("name", sorted(SAMPLED_CASES))
def test_sampled_estimate_matches_unbounded_searches(name, monkeypatch):
    make, n_max, margin = SAMPLED_CASES[name]
    ball = make()
    params = DivergenceParams(0.5, 0.0)
    for seed in range(10):
        bounded = div_function_estimate(ball, n_max, params, protocol="sampled",
                                        seed=seed, margin=margin)
        monkeypatch.setattr(divergence, "dijkstra", _unbounded(divergence.dijkstra))
        unbounded = div_function_estimate(ball, n_max, params, protocol="sampled",
                                          seed=seed, margin=margin)
        monkeypatch.undo()
        assert bounded == unbounded


def test_sampled_differential_covers_long_detours():
    ball = cycle_ball(40)
    samples = div_function_estimate(ball, 2, DivergenceParams(0.5, 0.0),
                                    protocol="sampled", seed=0, margin=1.0)
    assert samples[-1].value is not None and samples[-1].value > samples[-1].n + 3


@pytest.mark.parametrize("seed", range(10))
def test_punctured_matrix_equals_coo_build(seed):
    rng = np.random.default_rng(seed)
    ball = cayley_ball(FreeAbelian(2), 6) if seed % 2 else cayley_ball(Free(2), 3)
    rows, cols = divergence._directed_edges(ball)
    allowed = rng.random(ball.vertex_count) < 0.7
    keep = allowed[rows] & allowed[cols]
    coo = sp.csr_matrix((np.ones(int(keep.sum())), (rows[keep], cols[keep])),
                        shape=(ball.vertex_count, ball.vertex_count))
    csr = divergence._punctured_matrix(ball, rows, cols, allowed)
    assert csr.shape == coo.shape and csr.nnz == coo.nnz
    assert np.array_equal(csr.indptr, coo.indptr)
    assert np.array_equal(csr.indices, coo.indices)
    assert np.array_equal(csr.data, coo.data)
