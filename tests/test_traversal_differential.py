"""Differential tests of the traversal fast paths against the code they
replaced.

The `old_*` functions below are verbatim copies of the hand-written loops
that `graph_core.bfs` replaced (only their names changed), including
`build_ball` with its own breadth-first loop (its final assembly builds the
ball's CSR arrays with `csr_from_edges`, as every ball is now built), and of the
wideness probe's middle-segment search as it scanned whole distance rows.
The sampled divergence estimate runs bounded searches, most of them on the
window B_a(2n + 4) of each pair; its references are the same code with
every search limit removed and `old_sampled_estimate`, whose searches all
run on the whole ball, and `window_exits` checks that the compared cases
take every exit of the window rule. The `old_*` divergence functions
and `OldBuckets` are verbatim copies of both estimates, the exhaustive
one's per-tie witness loops and `div_triple` as they were before one search
object and one array witness rule replaced them.

The next group compares the code that kept a second edge layout beside the
ball's CSR arrays with the CSR-only code that replaced it: the COO-built
Floyd matrix, the numpy level-by-level `csr_distances`, `induced_ball` with
its neighbor-list loop, and the punctured search's inline edge mask.

The next group compares the sphere scan that ran Dijkstra from every source
with the scan that runs it once per symmetry orbit, and the escape-set
estimate that built its punctured-search mask on every call with the one
that builds it once per radius.

The next group compares the exhaustive divergence estimate that scanned
every center (`old_all_centers_exhaustive_estimate`, a verbatim copy) with
the one that scans one center per symmetry orbit and picks each witness
over the images of the tied triples.

The wideness probe is compared with `old_wideness_probe`, a verbatim copy
of the loop that searched every eligible vertex: equal outright on balls
without symmetries, and on symmetric balls (with `U_CAP` lowered to 1 to
provoke misses) its pass set must be the orbit closure of the old one,
with every mapped witness certified by `qg_certify` and the oracle in
`helpers`.

The last group compares `find_automorphisms`, which grows the group in
place in one int32 buffer, with `old_find_automorphisms` and
`old_closure`, verbatim copies of the list-based search, under several
group caps.
"""

import collections
import functools
import math
import random
import tempfile
from pathlib import Path
from collections import deque
from types import SimpleNamespace
from typing import Hashable, Iterable

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from floydlab import divergence, graph_core, quasigeodesic
from floydlab.divergence import (
    DivergenceParams,
    DivergenceSample,
    _Buckets,
    _Searches,
    div_function_estimate,
    div_triple,
)
from floydlab.errors import (
    DisconnectedGraph,
    PreconditionViolated,
    RadiusMismatch,
    RadiusOutOfMargin,
    RadiusOutOfRange,
    SampleExhausted,
    SegmentTooLong,
    SelfLoop,
)
from floydlab.floyd_metric import (
    FloydFunction,
    FloydWeighting,
    KarlssonEstimate,
    SphereDiameter,
    _dijkstra_rows,
    _punctured_geodesic,
    floyd_weighting,
    karlsson_set_estimate,
    parse_floyd,
    sphere_floyd_diameter,
)
from floydlab.graph_core import (
    _EXTENSION_CAP,
    _Layering,
    _S1_CAP,
    _first_sphere_maps,
    bfs,
    bfs_distances,
    bfs_parents,
    GraphBall,
    build_ball,
    csr_distances,
    csr_from_edges,
    csr_restrict,
    extract_path,
    is_automorphism,
    read_graph_file,
    single_vertex_ball,
    sphere,
)
from floydlab.group_models import (
    DirectProduct,
    Free,
    FreeAbelian,
    FreeProduct,
    Heisenberg,
    cayley_ball,
)
from floydlab.quasigeodesic import (
    PathWitness,
    WidenessReport,
    qg_certify,
    wideness_probe,
)
from floydlab.thickness import induced_ball

from helpers import (
    check_automorphism_group,
    graph_distance,
    is_quasi_geodesic,
    random_connected_edges,
)


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
    dist_b = ball.dist.tolist()
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


def old_wideness_probe(ball, C, segment_length, u_cap):
    if C < 1:
        raise ValueError("C must be >= 1")
    if segment_length < 2:
        raise ValueError("segment_length must be >= 2")
    half = math.ceil(segment_length / 2)
    if ball.radius - half < 0:
        raise SegmentTooLong(
            f"segment of length {segment_length} cannot fit in radius {ball.radius}")
    eligible = tuple(np.flatnonzero(ball.dist <= ball.radius - half).tolist())
    witnesses: dict[int, PathWitness] = {}
    failures: list[int] = []
    for x in eligible:
        found = old_middle_segment(ball, x, C, half, u_cap)
        if found is None:
            failures.append(x)
        else:
            witnesses[x] = found
    frac = len(witnesses) / len(eligible) if eligible else 1.0
    return WidenessReport(C=C, segment_length=segment_length, eligible=eligible,
                          witnesses=witnesses, failures=tuple(failures),
                          pass_fraction=frac)


def old_build_ball(edges: Iterable[tuple[Hashable, Hashable]], base: Hashable,
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

    pairs = np.array([(index[label], index[v]) for label in labels
                      for v in adjacency[label]], dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    indptr, indices = csr_from_edges(len(labels), pairs[:, 0], pairs[:, 1])
    return GraphBall(base=0, radius=declared_radius, indptr=indptr,
                     indices=indices, dist=dist)


def random_edge_case(seed):
    """A random edge list with unsorted, reversed and repeated edges under
    hashable labels, sometimes a second component, a self-loop, a base
    outside the edges or a radius too small; with its base and radius."""
    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    edges = list(random_connected_edges(rng, n))
    if rng.random() < 0.3:
        edges += [(n + 1, n + 2), (n + 2, n + 3)]
    if rng.random() < 0.1:
        edges.append((rng.randrange(n),) * 2)
    edges += [(v, u) for u, v in rng.sample(edges, len(edges) // 3)]
    edges += rng.sample(edges, len(edges) // 4)
    rng.shuffle(edges)
    label = rng.choice([lambda v: v, lambda v: f"v{v}", lambda v: ("x", -v),
                        lambda v: frozenset({v, 1000})])
    edges = [(label(u), label(v)) for u, v in edges]
    return edges, label(rng.randrange(n + 2)), rng.randrange(-1, n + 1)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(80))
def test_build_ball_matches_replaced_loop(seed):
    case = random_edge_case(seed)
    new = _outcome(build_ball, *case)
    assert new == _outcome(old_build_ball, *case)
    if isinstance(new, GraphBall):
        assert new.adjacency == old_build_ball(*case).adjacency


def test_build_ball_differential_covers_every_outcome():
    kinds = set()
    for seed in range(80):
        outcome = _outcome(build_ball, *random_edge_case(seed))
        kinds.add(outcome[0] if isinstance(outcome, tuple) else type(outcome))
    assert {GraphBall, DisconnectedGraph, RadiusMismatch, SelfLoop,
            ValueError} <= kinds


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
        rho = rng.randrange(-1, max(1, max(ball.dist.tolist())))
        if ball.dist[u] > rho and ball.dist[v] > rho:
            allowed = (ball.dist > rho).tolist()
            assert _punctured_geodesic(ball, u, v, allowed) == old_punctured_geodesic(
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


def first_passes(ball, report):
    """The first vertex of each orbit that `report` passes: the vertices
    the orbit-reduced probe searches and passes, given the unreduced
    probe's `report`."""
    low = ball.orbit_min
    first = {}
    for x in report.witnesses:
        first.setdefault(int(low[x]), x)
    return set(first.values())


@pytest.mark.parametrize("name", sorted(PROBE_BALLS))
@pytest.mark.parametrize("C", [1.0, 1.5])
def test_wideness_probe_matches_full_row_scan(name, C, monkeypatch):
    ball = PROBE_BALLS[name]()
    for segment_length, u_cap in ((6, 6), (8, 6), (5, 1)):
        monkeypatch.setattr(quasigeodesic, "U_CAP", u_cap)
        new = wideness_probe(ball, C, segment_length)
        old = old_wideness_probe(ball, C, segment_length, u_cap)
        assert new.eligible == old.eligible
        # A vertex the reduced probe searches gets the same witness.
        for x in first_passes(ball, old):
            assert new.witnesses[x] == old.witnesses[x]
        if len(ball.automorphisms) == 1:
            assert new.witnesses == old.witnesses
            assert new.failures == old.failures
            assert new.pass_fraction == old.pass_fraction


def test_wideness_differential_covers_relaxed_and_failing_segments():
    # The Heisenberg ball at C = 1.5 needs relaxed segments, which go through
    # qg_certify; the star has failures. Both branches are compared above,
    # on balls without symmetries and on balls with them.
    heis = wideness_probe(PROBE_BALLS["heis"](), 1.5, 8)
    assert any(w.certified_C > 1.0 for w in heis.witnesses.values())
    assert wideness_probe(star_ball(), 1.0, 8).failures
    orders = {name: len(make().automorphisms) for name, make in PROBE_BALLS.items()}
    assert orders["heis"] == orders["random"] == 1
    assert orders["z2"] == 8 and orders["star"] == 2


def glued_ball(seed, n, copies):
    """`copies` copies of a random connected graph on n vertices glued at
    vertex 0, the base: permuting the copies gives the ball symmetries that
    the breadth-first numbering does not follow."""
    edges = random_connected_edges(random.Random(seed), n)
    glued = [((c, u) if u else 0, (c, v) if v else 0)
             for c in range(copies) for u, v in edges]
    radius = int(build_ball(glued, 0, 2 * n).dist.max())
    return build_ball(glued, 0, radius)


# Balls with symmetries, probed with U_CAP = 1: on the glued balls some
# orbit member fails where another passes, because the ring's first vertex
# by id differs between them.
ORBIT_PROBE_BALLS = {
    "glued-0-7x3": lambda: glued_ball(0, 7, 3),
    "glued-56-10x2": lambda: glued_ball(56, 10, 2),
    "glued-108-10x2": lambda: glued_ball(108, 10, 2),
    "glued-128-9x2": lambda: glued_ball(128, 9, 2),
    **{name: PROBE_BALLS[name] for name in ("z2", "triangular", "f2", "product", "star")},
}
ORBIT_PROBE_CASES = [(4, 1.0), (4, 1.5), (6, 1.0)]


def orbit_closure(ball, vertices):
    low = ball.orbit_min
    orbits = {int(low[x]) for x in vertices}
    return {v for v in range(ball.vertex_count) if int(low[v]) in orbits}


@pytest.mark.parametrize("name", sorted(ORBIT_PROBE_BALLS))
def test_reduced_probe_passes_the_orbit_closure(name, monkeypatch):
    ball = ORBIT_PROBE_BALLS[name]()
    monkeypatch.setattr(quasigeodesic, "U_CAP", 1)
    for segment_length, C in ORBIT_PROBE_CASES:
        new = wideness_probe(ball, C, segment_length)
        old = old_wideness_probe(ball, C, segment_length, 1)
        passed = orbit_closure(ball, old.witnesses) & set(old.eligible)
        assert set(new.witnesses) == passed
        assert new.failures == tuple(x for x in old.eligible if x not in passed)
        assert new.pass_fraction == len(passed) / len(old.eligible)
        half = math.ceil(segment_length / 2)
        for y, w in new.witnesses.items():
            # Each witness certifies at its constant, is long enough and
            # has its middle vertex within C of its own vertex.
            assert qg_certify(ball, w) == w.certified_C
            assert is_quasi_geodesic(ball, w.vertices, w.certified_C)
            assert len(w.vertices) == 2 * half + 1
            assert graph_distance(ball, y, w.vertices[half]) <= C


def test_orbit_probe_differential_covers_mapped_failures(monkeypatch):
    monkeypatch.setattr(quasigeodesic, "U_CAP", 1)
    mapped = set()
    for name, make in ORBIT_PROBE_BALLS.items():
        ball = make()
        for segment_length, C in ORBIT_PROBE_CASES:
            old = old_wideness_probe(ball, C, segment_length, 1)
            if orbit_closure(ball, old.witnesses) & set(old.failures):
                mapped.add(name)
    assert mapped == {name for name in ORBIT_PROBE_BALLS if name.startswith("glued")}
    assert len(ORBIT_PROBE_BALLS["glued-0-7x3"]().automorphisms) == 6


@pytest.mark.parametrize("name", sorted(ORBIT_PROBE_BALLS))
def test_probe_searches_each_orbit_until_its_first_pass(name, monkeypatch):
    ball = ORBIT_PROBE_BALLS[name]()
    monkeypatch.setattr(quasigeodesic, "U_CAP", 1)
    searched = []
    middle_segment = quasigeodesic._middle_segment

    def spy(ball, x, *args):
        searched.append(x)
        return middle_segment(ball, x, *args)

    monkeypatch.setattr(quasigeodesic, "_middle_segment", spy)
    for segment_length, C in ORBIT_PROBE_CASES:
        searched.clear()
        new = wideness_probe(ball, C, segment_length)
        old = old_wideness_probe(ball, C, segment_length, 1)
        firsts = first_passes(ball, old)
        low = ball.orbit_min
        # An orbit is searched in ascending order up to its first pass.
        expected, done = [], set()
        for x in old.eligible:
            if low[x] not in done:
                expected.append(x)
                if x in firsts:
                    done.add(low[x])
        assert searched == expected
        # Every other member gets the first image of that witness.
        group = ball.automorphisms
        for y, w in new.witnesses.items():
            x = next(f for f in firsts if low[f] == low[y])
            h = group[np.flatnonzero(group[:, x] == y)[0]]
            assert w == PathWitness(tuple(h[list(old.witnesses[x].vertices)].tolist()),
                                    old.witnesses[x].certified_C)


def cycle_ball(length):
    return build_ball([(i, (i + 1) % length) for i in range(length)], 0, length // 2)


SAMPLED_CASES = {
    "z2": (lambda: cayley_ball(FreeAbelian(2), 24), 8, 3.0),
    "f2": (lambda: cayley_ball(Free(2), 6), 3, 2.0),
    "heis": (lambda: cayley_ball(Heisenberg(), 9), 3, 3.0),
    # Detours of length 38 around a 40-cycle are much longer than n.
    "cycle": (lambda: cycle_ball(40), 2, 1.0),
    # Tree cuts whose side of a reaches the rim of the window B_a(2n + 4).
    "f2-rim": (lambda: cayley_ball(Free(2), 6), 3, 1.0),
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


def window_exits(ball, n_max, params, margin, seeds, monkeypatch):
    """How each triple of sampled estimates got its value: with no
    forbidden set, in a window that is the whole ball, inside a smaller
    window, as a cut closed inside it, or by a whole-ball fallback for a
    long detour or for a cut whose side of a reaches the window's rim."""
    exits = collections.Counter()
    for seed in seeds:
        detours, offered = [], []
        detour, offer = divergence._window_detour, _Buckets.offer

        def detour_spy(*args):
            detours.append((args[-1], detour(*args)))
            return detours[-1][1]

        def offer_spy(self, *arrays):
            offered.append(arrays)
            return offer(self, *arrays)

        with monkeypatch.context() as patch:
            patch.setattr(divergence, "_window_detour", detour_spy)
            patch.setattr(_Buckets, "offer", offer_spy)
            div_function_estimate(ball, n_max, params, protocol="sampled",
                                  seed=seed, margin=margin)
        (*_, value, radius), = offered
        exits["no-puncture"] += int((radius <= 0).sum())
        for (bound, found), final in zip(detours, value[radius > 0], strict=True):
            if found is not None:
                assert found == final
                exits["whole" if math.isinf(bound) else
                      "closed" if math.isinf(found) else "inside"] += 1
            elif math.isinf(final):
                exits["rim-fallback"] += 1
            else:
                assert final > bound
                exits["long-fallback"] += 1
    return +exits  # drop the exits that never occurred


def test_sampled_differential_covers_every_window_exit(monkeypatch):
    half, seeds = DivergenceParams(0.5, 0.0), range(10)

    def exits(name, params=half):
        make, n_max, margin = SAMPLED_CASES[name]
        return window_exits(make(), n_max, params, margin, seeds, monkeypatch)

    assert exits("cycle").keys() == {"inside", "long-fallback"}
    assert exits("f2-rim").keys() == {"inside", "whole", "closed", "rim-fallback"}
    assert exits("z2").keys() == {"inside"}
    assert exits("z2", DivergenceParams(0.5, 100.0)).keys() == {"no-puncture"}


def test_sampled_searches_leave_the_ball_only_from_a(monkeypatch):
    ball = cayley_ball(FreeAbelian(2), 24)
    shapes = []

    def recorded(matrix, **kw):
        shapes.append((matrix.shape[0], kw.get("return_predecessors", False)))
        return dijkstra(matrix, **kw)

    monkeypatch.setattr(divergence, "dijkstra", recorded)
    div_function_estimate(ball, 8, DivergenceParams(0.5, 0.0), protocol="sampled",
                          seed=0, margin=3.0)
    on_ball = [from_a for size, from_a in shapes if size == ball.vertex_count]
    assert on_ball == [True] * (8 * 8)  # one search per (a, n) pair, no fallback
    assert len(shapes) > len(on_ball)


@pytest.mark.parametrize("seed", range(10))
def test_punctured_matrix_equals_coo_build(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    ball = cayley_ball(FreeAbelian(2), 6) if seed % 2 else cayley_ball(Free(2), 3)
    rows, cols = old_directed_edges(ball)
    allowed = rng.random(ball.vertex_count) < 0.7
    keep = allowed[rows] & allowed[cols]
    coo = sp.csr_matrix((np.ones(int(keep.sum())), (rows[keep], cols[keep])),
                        shape=(ball.vertex_count, ball.vertex_count))
    searched = []
    monkeypatch.setattr(divergence, "dijkstra",
                        lambda mat, **kw: searched.append(mat))
    # d_c = 1 on allowed vertices and 0 elsewhere keeps exactly `allowed`.
    divergence._Searches(*ball.csr_arrays).punctured(allowed.astype(float), 0.5, [0])
    csr, = searched
    assert csr.shape == coo.shape and csr.nnz == coo.nnz
    assert np.array_equal(csr.indptr, coo.indptr)
    assert np.array_equal(csr.indices, coo.indices)
    assert np.array_equal(csr.data, coo.data)


def old_base_matrix(ball: GraphBall) -> sp.csr_matrix:
    indptr, indices = ball.csr_arrays
    data = np.ones(len(indices))
    return sp.csr_matrix((data, indices, indptr),
                         shape=(ball.vertex_count, ball.vertex_count))


def old_directed_edges(ball: GraphBall) -> tuple[np.ndarray, np.ndarray]:
    indptr, indices = ball.csr_arrays
    degrees = np.diff(indptr)
    rows = np.repeat(np.arange(ball.vertex_count, dtype=np.int64), degrees)
    return rows, indices


def old_punctured_matrix(ball: GraphBall, rows: np.ndarray, cols: np.ndarray,
                      allowed: np.ndarray) -> sp.csr_matrix:
    """The ball's adjacency restricted to edges between allowed vertices.

    `rows`, `cols` are the directed edges in CSR order (from old_directed_edges),
    so the kept ones are already the punctured matrix's CSR arrays.
    """
    keep = allowed[rows] & allowed[cols]
    kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    indptr = kept_before[ball.csr_arrays[0]]
    return sp.csr_matrix((np.ones(int(indptr[-1])), cols[keep], indptr),
                         shape=(ball.vertex_count, ball.vertex_count))


def old_div_triple(ball: GraphBall, a: int, b: int, c: int,
               params: DivergenceParams) -> int | None:
    """Shortest a-b path length avoiding the closed ball B_c(delta*r - gamma),
    or None when the removal disconnects a from b.

    With delta*r - gamma <= 0 the forbidden set is empty and the value is
    exactly the graph distance.
    """
    for v in (a, b, c):
        ball.check_index(v)
    mat = old_base_matrix(ball)
    d_c = dijkstra(mat, directed=True, unweighted=True, indices=[c])[0]
    r = min(d_c[a], d_c[b])
    if r == 0:
        raise PreconditionViolated("d(c, {a, b}) must be positive")
    threshold = params.delta * r - params.gamma
    if threshold <= 0:
        return graph_distance(ball, a, b)
    if a == b:
        return 0
    rows, cols = old_directed_edges(ball)
    sub = old_punctured_matrix(ball, rows, cols, d_c > threshold)
    val = dijkstra(sub, directed=True, unweighted=True, indices=[a])[0][b]
    return None if math.isinf(val) else int(val)


class OldBuckets:
    """Per-pair-distance maxima with deterministic lexicographic witnesses."""

    def __init__(self, n_max: int):
        self.n_max = n_max
        self.best = np.full(n_max + 1, -1.0)
        self.wit: list[tuple[int, int, int] | None] = [None] * (n_max + 1)
        self.radius: list[float] = [0.0] * (n_max + 1)
        self.inf_dab: int | None = None
        self.inf_wit: tuple[int, int, int] | None = None
        self.inf_radius = 0.0

    def offer(self, dab: int, value: float, witness: tuple[int, int, int],
              forbidden_radius: float) -> None:
        if value > self.best[dab] or (value == self.best[dab]
                                      and witness < self.wit[dab]):
            self.best[dab] = value
            self.wit[dab] = witness
            self.radius[dab] = forbidden_radius

    def offer_infinite(self, dab: int, witness: tuple[int, int, int],
                       forbidden_radius: float) -> None:
        key = (dab, witness)
        if self.inf_dab is None or key < (self.inf_dab, self.inf_wit):
            self.inf_dab, self.inf_wit = dab, witness
            self.inf_radius = forbidden_radius

    def finalize(self, n_min: int, protocol: str,
                 seed: int | None) -> list[DivergenceSample]:
        samples = []
        run = (-1.0, None, 0.0)
        for n in range(1, self.n_max + 1):
            if self.best[n] > run[0]:
                run = (float(self.best[n]), self.wit[n], self.radius[n])
            if n < n_min:
                continue
            if self.inf_dab is not None and self.inf_dab <= n:
                samples.append(DivergenceSample(
                    n=n, value=None, witness=self.inf_wit,
                    forbidden_radius=self.inf_radius, protocol=protocol,
                    seed=seed))
            elif run[1] is not None:
                samples.append(DivergenceSample(
                    n=n, value=int(run[0]), witness=run[1],
                    forbidden_radius=run[2], protocol=protocol, seed=seed))
            else:
                raise ValueError(f"no admissible triples with d(a,b) <= {n}")
        return samples


def old_offer_group(buckets: OldBuckets, c: int, a_vec: np.ndarray, ra_vec: np.ndarray,
                 params: DivergenceParams, prows: np.ndarray,
                 ambient_rows: np.ndarray, d_c_inner: np.ndarray,
                 inner: np.ndarray, n_max: int) -> None:
    """Fold a batch of (source a, center c) triples into the buckets.

    Keeps only partners b with d(c, b) >= d(c, a), so each unordered pair is
    enumerated with r = min(d(c,a), d(c,b)) exactly once (twice, harmlessly,
    when the two distances tie).
    """
    vv = prows[:, inner]
    sel = ((d_c_inner[None, :] >= ra_vec[:, None])
           & (ambient_rows <= n_max)
           & (inner[None, :] != a_vec[:, None]))
    if not sel.any():
        return
    finite = np.isfinite(vv) & sel
    infinite = sel & ~np.isfinite(vv)

    if infinite.any():
        dd_inf = ambient_rows[infinite].astype(np.int64)
        dmin = int(dd_inf.min())
        ii, jj = np.nonzero(infinite)
        hits = dd_inf == dmin
        best_wit = None
        best_ra = 0
        for i, j in zip(ii[hits].tolist(), jj[hits].tolist()):
            a, b = int(a_vec[i]), int(inner[j])
            wit = (min(a, b), max(a, b), c)
            if best_wit is None or wit < best_wit:
                best_wit, best_ra = wit, int(ra_vec[i])
        buckets.offer_infinite(dmin, best_wit,
                               params.delta * best_ra - params.gamma)

    if finite.any():
        dd_f = ambient_rows[finite].astype(np.int64)
        vv_f = vv[finite]
        group_best = np.full(n_max + 1, -1.0)
        np.maximum.at(group_best, dd_f, vv_f)
        for dab in np.flatnonzero((group_best >= 0) & (group_best >= buckets.best)):
            val = float(group_best[dab])
            ach = finite & (ambient_rows == dab) & (vv == val)
            ii, jj = np.nonzero(ach)
            best_wit = None
            best_ra = 0
            for i, j in zip(ii.tolist(), jj.tolist()):
                a, b = int(a_vec[i]), int(inner[j])
                wit = (min(a, b), max(a, b), c)
                if best_wit is None or wit < best_wit:
                    best_wit, best_ra = wit, int(ra_vec[i])
            buckets.offer(int(dab), val, best_wit,
                          params.delta * best_ra - params.gamma)


def old_exhaustive_estimate(ball, n_max, params, inner, n_min, seed):
    mat = old_base_matrix(ball)
    rows, cols = old_directed_edges(ball)
    d_inner = dijkstra(mat, directed=True, unweighted=True, indices=inner.tolist())
    buckets = OldBuckets(n_max)
    for ci, c in enumerate(inner.tolist()):
        d_c = d_inner[ci]
        d_c_inner = d_c[inner]
        groups: dict[int, list[int]] = {}
        for ai, ra in enumerate(d_c_inner.astype(np.int64).tolist()):
            if ra < 1:
                continue
            threshold = params.delta * ra - params.gamma
            groups.setdefault(-1 if threshold <= 0 else int(threshold), []).append(ai)
        for fk in sorted(groups):
            members = np.asarray(groups[fk], dtype=np.int64)
            ra_vec = d_c_inner[members].astype(np.int64)
            ambient_rows = d_inner[members][:, inner]
            if fk < 0:
                prows = d_inner[members][:, :]
            else:
                # A triple needs a punctured search only if its forbidden ball
                # can reach some a-b geodesic: d(c,a) + d(c,b) <= d(a,b) + 2t.
                # Otherwise every geodesic survives and the value is ambient.
                t_vec = params.delta * ra_vec - params.gamma
                sel = ((d_c_inner[None, :] >= ra_vec[:, None])
                       & (ambient_rows <= n_max)
                       & (inner[None, :] != inner[members][:, None]))
                blockable = sel & (d_c_inner[None, :] + ra_vec[:, None]
                                   <= ambient_rows + 2 * t_vec[:, None])
                needy = np.flatnonzero(blockable.any(axis=1))
                prows = d_inner[members].copy()
                if needy.size:
                    sub = old_punctured_matrix(ball, rows, cols, d_c > fk)
                    prows[needy] = dijkstra(
                        sub, directed=True, unweighted=True,
                        indices=inner[members[needy]].tolist())
            old_offer_group(buckets, c, inner[members], ra_vec, params, prows,
                         ambient_rows, d_c_inner, inner, n_max)
    return buckets.finalize(n_min, "exhaustive", seed)


def old_sampled_estimate(ball, n_max, params, inner, n_min, seed, pairs_per_n,
                      c_per_pair):
    rng = random.Random(seed)
    mat = old_base_matrix(ball)
    rows, cols = old_directed_edges(ball)
    inner_set = set(inner.tolist())
    buckets = OldBuckets(n_max)
    for n in range(1, n_max + 1):
        for _ in range(pairs_per_n):
            a = int(inner[rng.randrange(len(inner))])
            d_a, pred = dijkstra(mat, directed=True, unweighted=True,
                                 indices=[a], return_predecessors=True)
            d_a, pred = d_a[0], pred[0]
            partners = inner[d_a[inner] == n]
            if partners.size == 0:
                continue
            b = int(partners[rng.randrange(partners.size)])
            path = [b]
            while path[-1] != a:
                path.append(int(pred[path[-1]]))
            path.reverse()
            cands = [path[len(path) // 2]]
            for _ in range(c_per_pair - 1):
                v = path[rng.randrange(len(path))]
                for _ in range(rng.randrange(3)):
                    v = ball.adjacency[v][rng.randrange(len(ball.adjacency[v]))]
                cands.append(v)
            seen = set()
            for c in cands:
                if c in seen or c not in inner_set or c in (a, b):
                    continue
                seen.add(c)
                # c lies within 2 steps of the a-b geodesic, so
                # ra = d(c, {a, b}) <= n/2 + 2 < n + 3 is exact, and a vertex
                # beyond the limit (read as inf) is beyond the threshold too.
                d_c = dijkstra(mat, directed=True, unweighted=True, indices=[c],
                               limit=n + 3)[0]
                ra = int(min(d_c[a], d_c[b]))
                threshold = params.delta * ra - params.gamma
                wit = (min(a, b), max(a, b), c)
                if threshold <= 0:
                    buckets.offer(n, float(n), wit, threshold)
                    continue
                sub = old_punctured_matrix(ball, rows, cols, d_c > threshold)
                val = dijkstra(sub, directed=True, unweighted=True, indices=[a])[0][b]
                if math.isinf(val):
                    buckets.offer_infinite(n, wit, threshold)
                else:
                    buckets.offer(n, float(val), wit, threshold)
    return buckets.finalize(n_min, "sampled", seed)


ENGINE_BALLS = {
    # name: (ball, margin) with inner region B(radius / margin)
    "z2": (lambda: cayley_ball(FreeAbelian(2), 8), 2.0),
    "f2": (lambda: cayley_ball(Free(2), 4), 1.0),
    "heis": (lambda: cayley_ball(Heisenberg(), 6), 2.0),
    "product": (lambda: cayley_ball(DirectProduct(FreeAbelian(1), Free(2)), 4), 2.0),
    "cycle": (lambda: cycle_ball(14), 1.0),
    "random": (lambda: build_ball(
        random_connected_edges(random.Random(3), 40), 0, 40), 1.0),
}
ENGINE_PARAMS = [(0.5, 0.0), (0.3, 0.0), (0.8, 1.0), (0.5, 100.0)]


@pytest.mark.parametrize("name", sorted(ENGINE_BALLS))
@pytest.mark.parametrize("delta,gamma", ENGINE_PARAMS)
def test_exhaustive_estimate_matches_replaced_code(name, delta, gamma):
    make, margin = ENGINE_BALLS[name]
    ball = make()
    params = DivergenceParams(delta, gamma)
    n_max = int(ball.radius / margin)
    inner = np.flatnonzero(ball.dist <= n_max)
    new = div_function_estimate(ball, n_max, params, protocol="exhaustive",
                                seed=4, margin=margin)
    old = old_exhaustive_estimate(ball, n_max, params, inner, 1, 4)
    assert len(old) == n_max
    assert_same_samples(new, old)


@pytest.mark.parametrize("name", sorted(ENGINE_BALLS))
@pytest.mark.parametrize("delta,gamma", ENGINE_PARAMS)
def test_div_triple_matches_replaced_code(name, delta, gamma):
    ball = ENGINE_BALLS[name][0]()
    params = DivergenceParams(delta, gamma)
    rng = random.Random(len(name))
    triples = [tuple(rng.randrange(ball.vertex_count) for _ in range(3))
               for _ in range(150)]
    for a, b, c in triples + [(0, 0, 1), (1, 1, 0)]:
        if c in (a, b):
            with pytest.raises(PreconditionViolated):
                div_triple(ball, a, b, c, params)
            continue
        assert div_triple(ball, a, b, c, params) == old_div_triple(ball, a, b, c, params)


def assert_same_samples(new, old):
    assert len(new) == len(old)
    for s_new, s_old in zip(new, old):
        assert (s_new.n, s_new.value, s_new.witness, s_new.forbidden_radius) == (
            s_old.n, s_old.value, s_old.witness, s_old.forbidden_radius)
        assert type(s_new.forbidden_radius) is float
    assert new == old


@pytest.mark.parametrize("name", sorted(SAMPLED_CASES))
@pytest.mark.parametrize("delta,gamma", ENGINE_PARAMS)
def test_sampled_estimate_matches_replaced_code(name, delta, gamma):
    make, n_max, margin = SAMPLED_CASES[name]
    ball = make()
    params = DivergenceParams(delta, gamma)
    inner = np.flatnonzero(ball.dist <= int(ball.radius / margin + 1e-9))
    for seed in range(10):
        new = _outcome(div_function_estimate, ball, n_max, params, "sampled", seed,
                       margin=margin)
        old = _outcome(old_sampled_estimate, ball, n_max, params, inner, 1, seed, 8, 4)
        if isinstance(old, tuple):
            assert new == old
        else:
            assert_same_samples(new, old)


def test_engine_differential_covers_every_branch():
    # Disconnecting triples, detours longer than d(a, b) and an empty
    # forbidden set all occur among the cases compared above.
    f2 = div_function_estimate(ENGINE_BALLS["f2"][0](), 4, DivergenceParams(0.5, 0.0),
                               protocol="exhaustive", margin=1.0)
    assert any(s.is_infinite for s in f2)
    z2 = div_function_estimate(ENGINE_BALLS["z2"][0](), 4, DivergenceParams(0.5, 0.0),
                               protocol="exhaustive", margin=2.0)
    assert any(s.value > s.n for s in z2)
    nothing = div_function_estimate(ENGINE_BALLS["z2"][0](), 4,
                                    DivergenceParams(0.5, 100.0),
                                    protocol="exhaustive", margin=2.0)
    assert [s.value for s in nothing] == [1, 2, 3, 4]


# ------------------------------------------------- one edge layout: CSR only

def old_floyd_matrix(ball: GraphBall, f: FloydFunction) -> sp.csr_matrix:
    """`floyd_weighting` and `FloydWeighting.matrix` as they were: weights
    per undirected edge, then a COO build of both directions."""
    if ball.edge_count == 0:
        edge_u = np.empty(0, dtype=np.int64)
        edge_v = np.empty(0, dtype=np.int64)
        edge_weight = np.empty(0)
    else:
        edge_u, edge_v = ball.edge_arrays
        dist = ball.dist
        level = np.minimum(dist[edge_u], dist[edge_v])
        edge_weight = f.values_through(int(level.max()))[level]
    n = ball.vertex_count
    rows = np.concatenate([edge_u, edge_v])
    cols = np.concatenate([edge_v, edge_u])
    data = np.concatenate([edge_weight, edge_weight])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def old_csr_distances(indptr: np.ndarray, indices: np.ndarray,
                      source: int) -> np.ndarray:
    """Breadth-first distances from `source` over CSR arrays, level by level;
    unreached vertices get -1."""
    dist = np.full(len(indptr) - 1, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        # Positions of every neighbor slot of the frontier, row after row.
        slots = np.repeat(starts - np.cumsum(counts) + counts, counts)
        slots += np.arange(len(slots), dtype=np.int64)
        nbrs = indices[slots]
        frontier = np.unique(nbrs[dist[nbrs] < 0])
        dist[frontier] = level
    return dist


def old_induced_ball(ball: GraphBall, vertices):
    """Ball on the induced subgraph of `vertices`, or None if `vertices` is
    empty or that subgraph is disconnected; one vertex gives the radius-0
    ball. Returns (sub_ball, original_labels)."""
    verts = sorted(set(vertices))
    if not verts:
        return None
    rank = {v: i for i, v in enumerate(verts)}
    adjacency = []
    for v in verts:
        adjacency.append(tuple(rank[u] for u in ball.adjacency[v] if u in rank))
    base = min(verts, key=lambda v: (ball.dist[v], v))
    dist = bfs_distances(adjacency, rank[base])
    if min(dist) < 0:
        return None
    pairs = np.array([(i, j) for i, row in enumerate(adjacency) for j in row
                      if i < j], dtype=np.int64).reshape(-1, 2)
    indptr, indices = csr_from_edges(len(verts), pairs[:, 0], pairs[:, 1])
    sub = GraphBall(base=rank[base], radius=max(dist), indptr=indptr,
                    indices=indices, dist=dist)
    return sub, tuple(verts)


LAYOUT_BALLS = {
    "z2": lambda: cayley_ball(FreeAbelian(2), 7),
    "f2": lambda: cayley_ball(Free(2), 4),
    "heis": lambda: cayley_ball(Heisenberg(), 5),
    "product": lambda: cayley_ball(DirectProduct(FreeAbelian(1), Free(2)), 4),
    "star": star_ball,
    "random": lambda: build_ball(
        random_connected_edges(random.Random(11), 60), 0, 60),
    "single": single_vertex_ball,
}
LAYOUT_FLOYD = [FloydFunction.inverse_power(2), FloydFunction.exponential(0.5),
                FloydFunction.custom_table([1.0, 0.75, 0.5, 0.3, 0.2, 0.1, 0.05,
                                            0.02, 0.01, 0.005, 0.002])]


def _vertex_masks(ball: GraphBall, seed: int):
    """Every vertex, none, a random half, most vertices, and the ball minus
    a closed ball around a vertex (which may disconnect it)."""
    rng = np.random.default_rng(seed)
    n = ball.vertex_count
    yield np.ones(n, dtype=bool)
    yield np.zeros(n, dtype=bool)
    for share in (0.5, 0.8):
        yield rng.random(n) < share
    d_c = old_csr_distances(*ball.csr_arrays, int(rng.integers(n)))
    yield d_c > 1


@pytest.mark.parametrize("name", sorted(LAYOUT_BALLS))
@pytest.mark.parametrize("floyd", LAYOUT_FLOYD, ids=lambda f: f.kind)
def test_floyd_matrix_equals_coo_build(name, floyd):
    ball = LAYOUT_BALLS[name]()
    old = old_floyd_matrix(ball, floyd)
    new = floyd_weighting(ball, floyd).matrix
    assert new.shape == old.shape and new.nnz == old.nnz
    assert np.array_equal(new.indptr, old.indptr)
    assert np.array_equal(new.indices, old.indices)
    assert np.array_equal(new.data, old.data)


@pytest.mark.parametrize("name", sorted(LAYOUT_BALLS))
def test_csr_distances_match_level_bfs(name):
    ball = LAYOUT_BALLS[name]()
    rng = random.Random(name)
    for mask in _vertex_masks(ball, len(name)):
        indptr, indices = csr_restrict(*ball.csr_arrays, mask)
        for source in {0, ball.vertex_count - 1,
                       rng.randrange(ball.vertex_count)}:
            new = csr_distances(indptr, indices, source)
            assert new.dtype == np.int64
            assert np.array_equal(new, old_csr_distances(indptr, indices, source))


@pytest.mark.parametrize("name", sorted(LAYOUT_BALLS))
def test_csr_restrict_equals_inline_punctured_mask(name):
    ball = LAYOUT_BALLS[name]()
    rows, cols = old_directed_edges(ball)
    for mask in _vertex_masks(ball, 3 * len(name)):
        old = old_punctured_matrix(ball, rows, cols, mask)
        indptr, indices = csr_restrict(*ball.csr_arrays, mask)
        assert np.array_equal(indptr, old.indptr)
        assert np.array_equal(indices, old.indices)


@pytest.mark.parametrize("name", sorted(LAYOUT_BALLS))
def test_induced_ball_matches_neighbor_list_loop(name):
    ball = LAYOUT_BALLS[name]()
    outcomes = set()
    for mask in _vertex_masks(ball, 5 * len(name)):
        vertices = np.flatnonzero(mask).tolist()
        for chosen in (vertices, vertices[::-1] + vertices[:3], vertices[:1]):
            new = induced_ball(ball, chosen)
            old = old_induced_ball(ball, chosen)
            outcomes.add(old is None)
            if old is None:
                assert new is None
                continue
            (sub, labels), (old_sub, old_labels) = new, old
            assert labels == old_labels
            assert sub == old_sub
            assert sub.adjacency == old_sub.adjacency
            assert sub.dist.tolist() == old_sub.dist.tolist()
    assert outcomes == {True, False}


# ---------------------------------------------------------------- orbit scan

def old_sphere_floyd_diameter(w: FloydWeighting, r: int, *, margin: float = 3.0,
                              pair_cap: int = 250_000) -> SphereDiameter:
    """Max Floyd distance over pairs on the sphere S_r, with a witness pair.

    Refuses radii with r * margin > ball.radius: closer to the boundary the
    truncation can distort optimal (outward-detouring) Floyd paths. When
    |S_r|^2 exceeds pair_cap, a deterministic evenly-spaced subset of source
    vertices is used and pairs = sources x sphere. Ties on the max are broken
    toward the lexicographically smallest witness pair.
    """
    ball = w.ball
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    if r * margin > ball.radius + 1e-9:
        raise RadiusOutOfMargin(
            f"sphere radius {r} violates margin {margin} on ball radius {ball.radius}")
    verts = sphere(ball, r).vertices
    if not verts:
        raise RadiusOutOfRange(f"sphere at radius {r} is empty")
    if len(verts) == 1:
        return SphereDiameter(radius=r, diameter=0.0, witness=(verts[0], verts[0]),
                              exhaustive=True, sources_used=1, pair_count=1)

    n = len(verts)
    exhaustive = n * n <= pair_cap
    if exhaustive:
        sources = list(verts)
    else:
        k = max(1, pair_cap // n)
        sources = sorted({verts[(i * n) // k] for i in range(k)})
    target_idx = np.asarray(verts, dtype=np.int64)

    rows = _dijkstra_rows(w, sources)[:, target_idx]
    row_max = rows.max(axis=1)
    best = row_max.max()
    # Targets ascend, so a row's first argmax is its smallest tied target t,
    # and (min(s, t), max(s, t)) grows with t: that target gives the row's
    # smallest pair.
    tied = np.flatnonzero(row_max == best)
    s = np.asarray(sources, dtype=np.int64)[tied]
    t = target_idx[rows[tied].argmax(axis=1)]
    lo, hi = np.minimum(s, t), np.maximum(s, t)
    k = np.lexsort((hi, lo))[0]
    return SphereDiameter(radius=r, diameter=float(best),
                          witness=(int(lo[k]), int(hi[k])),
                          exhaustive=exhaustive, sources_used=len(sources),
                          pair_count=len(sources) * n)


def relabeled_file_ball():
    """A Z^2 ball written to a graph file under a random numbering, so its
    base is not vertex 0 and its vertices are not in BFS order."""
    ball = cayley_ball(FreeAbelian(2), 9)
    label = np.random.default_rng(4).permutation(ball.vertex_count)
    u, v = ball.edge_arrays
    a, b = label[u], label[v]
    edges = sorted(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
    text = (f"floydlab-graph v1\n{ball.vertex_count} {len(edges)} {label[0]} "
            f"{ball.radius}\n" + "".join(f"{x} {y}\n" for x, y in edges))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "z2.graph"
        path.write_text(text)
        return read_graph_file(path)


# name -> (ball, margin, radii)
SCAN_BALLS = {
    "z2": (lambda: cayley_ball(FreeAbelian(2), 12), 3.0, range(0, 5)),
    "f2": (lambda: cayley_ball(Free(2), 6), 1.0, range(1, 7)),
    "z3": (lambda: cayley_ball(FreeAbelian(3), 6), 3.0, range(1, 3)),
    "heis": (lambda: cayley_ball(Heisenberg(), 9), 3.0, range(1, 4)),
    "product": (lambda: cayley_ball(DirectProduct(FreeAbelian(1), Free(2)), 4),
                1.0, range(1, 5)),
    "free-product": (lambda: cayley_ball(FreeProduct(FreeAbelian(1), FreeAbelian(1)), 6),
                     1.0, range(1, 7)),
    "random": (lambda: build_ball(random_connected_edges(random.Random(7), 80), 0, 80),
               1.0, range(1, 9)),
    "file": (relabeled_file_ball, 1.0, range(1, 10)),
}


@pytest.mark.parametrize("name", sorted(SCAN_BALLS))
@pytest.mark.parametrize("floyd", ["invpow:2", "exp:0.5"])
@pytest.mark.parametrize("pair_cap", [250_000, 40])
def test_sphere_scan_matches_unreduced_scan(name, floyd, pair_cap):
    make, margin, radii = SCAN_BALLS[name]
    w = floyd_weighting(make(), parse_floyd(floyd))
    for r in radii:
        outcome = _outcome(sphere_floyd_diameter, w, r, margin=margin,
                           pair_cap=pair_cap)
        old = _outcome(old_sphere_floyd_diameter, w, r, margin=margin,
                       pair_cap=pair_cap)
        if isinstance(old, tuple):
            assert outcome == old
            continue
        assert repr(outcome.diameter) == repr(old.diameter)
        assert outcome.witness == old.witness
        assert outcome.exhaustive == old.exhaustive
        assert outcome.sources_used == old.sources_used
        assert outcome.pair_count == old.pair_count


def test_scan_differential_covers_symmetric_sampled_and_asymmetric_balls():
    orders = {name: len(make().automorphisms)
              for name, (make, _, _) in SCAN_BALLS.items()}
    assert orders["random"] == orders["heis"] == 1
    assert orders["file"] == 8 and orders["f2"] == 24
    make, margin, _ = SCAN_BALLS["f2"]
    w = floyd_weighting(make(), FloydFunction.inverse_power(2))
    assert not sphere_floyd_diameter(w, 6, margin=margin).exhaustive
    assert relabeled_file_ball().base != 0


# ---------------------------------------------------------------- escape set

def old_karlsson_set_estimate(w: FloydWeighting, C: float, epsilon: float,
                              samples: int, seed: int) -> KarlssonEstimate:
    """Smallest ball radius rho such that every sampled C-quasi-geodesic
    avoiding the closed ball B_b(rho) has Floyd length < epsilon.

    Sampling is seed-deterministic: geodesic segments between random vertex
    pairs (geodesics are C-quasi-geodesic for every C >= 1), plus, for C > 1,
    detour segments around random base balls kept when they certify at C.
    """
    if C < 1:
        raise ValueError("C must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ball = w.ball
    if ball.vertex_count < 2 or samples <= 0:
        raise SampleExhausted("no quasi-geodesic segments available to sample")

    from floydlab.quasigeodesic import PathWitness, qg_certify  # local: avoids heavier import at module load

    rng = random.Random(seed)
    dist = ball.dist.tolist()
    segments: list[tuple[int, float]] = []  # (min base distance, floyd length)

    def record(path: list[int]) -> None:
        md = min(dist[x] for x in path)
        segments.append((md, w.path_length(path)))

    for _ in range(samples):
        u = rng.randrange(ball.vertex_count)
        v = rng.randrange(ball.vertex_count)
        if u == v:
            continue
        _, parent = bfs_parents(ball.adjacency, u)
        path = extract_path(parent, v)
        record(path)
        if C > 1:
            rho = rng.randrange(0, max(1, ball.radius))
            if dist[u] > rho and dist[v] > rho:
                detour = old_rho_punctured_geodesic(ball, u, v, rho)
                if detour is not None and qg_certify(
                        ball, PathWitness(vertices=tuple(detour))) <= C:
                    record(detour)

    if not segments:
        raise SampleExhausted("no qualifying quasi-geodesic segments found")
    bad = [md for md, length in segments if length >= epsilon]
    return KarlssonEstimate(radius=max(bad, default=0), epsilon=epsilon, C=C,
                            segments_used=len(segments), bad_segments=len(bad),
                            seed=seed)


def old_rho_punctured_geodesic(ball: GraphBall, u: int, v: int,
                               rho: int) -> list[int] | None:
    """Shortest u-v path avoiding the closed base ball of radius rho."""
    _, dist, parent = bfs(ball.adjacency, [u],
                          allowed=(ball.dist > rho).tolist())
    return extract_path(parent, v) if dist[v] >= 0 else None


KARLSSON_BALLS = {
    "z2": lambda: cayley_ball(FreeAbelian(2), 8),
    "f2": lambda: cayley_ball(Free(2), 5),
}


@pytest.mark.parametrize("name", sorted(KARLSSON_BALLS))
@pytest.mark.parametrize("C", [1.0, 1.5])
def test_karlsson_estimate_matches_mask_per_call(name, C):
    w = floyd_weighting(KARLSSON_BALLS[name](), FloydFunction.inverse_power(2))
    for seed in range(10):
        new = karlsson_set_estimate(w, C=C, epsilon=0.3, samples=40, seed=seed)
        old = old_karlsson_set_estimate(w, C=C, epsilon=0.3, samples=40, seed=seed)
        assert new == old


# ------------------------------------------- one divergence center per orbit

def old_all_centers_exhaustive_estimate(ball, n_max, params, inner, n_min, seed):
    search = _Searches(*ball.csr_arrays)
    d_inner = search.plain(inner)
    ambient = d_inner[:, inner]
    buckets = _Buckets(n_max)
    for ci, c in enumerate(inner.tolist()):
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
        buckets.offer(inner[ii], inner[jj], c, ambient[ii, jj], values[ii, jj],
                      t[ii])
    return buckets.finalize(n_min, "exhaustive", seed)


# name -> (ball, margin), with inner region and n_max floor(radius / margin)
ORBIT_BALLS = {
    "z2": (lambda: cayley_ball(FreeAbelian(2), 15), 1.5),
    "f2": (lambda: cayley_ball(Free(2), 4), 1.0),
    "z3": (lambda: cayley_ball(FreeAbelian(3), 9), 3.0),
    "heis": (lambda: cayley_ball(Heisenberg(), 9), 3.0),
    "product": (lambda: cayley_ball(DirectProduct(FreeAbelian(1), Free(2)), 6), 2.0),
    "free3": (lambda: cayley_ball(Free(3), 3), 1.0),
    "random": (SCAN_BALLS["random"][0], 1.0),
    "file": (relabeled_file_ball, 1.5),
    **{f"engine-{name}": case for name, case in ENGINE_BALLS.items()},
}


@functools.cache
def orbit_ball(name):
    make, margin = ORBIT_BALLS[name]
    return make(), margin


@pytest.mark.parametrize("name", sorted(ORBIT_BALLS))
@pytest.mark.parametrize("delta,gamma", ENGINE_PARAMS)
def test_exhaustive_estimate_matches_all_centers(name, delta, gamma):
    ball, margin = orbit_ball(name)
    n_max = int(ball.radius / margin + 1e-9)
    inner = np.flatnonzero(ball.dist <= n_max)
    params = DivergenceParams(delta, gamma)
    new = div_function_estimate(ball, n_max, params, protocol="exhaustive",
                                seed=2, margin=margin)
    old = old_all_centers_exhaustive_estimate(ball, n_max, params, inner, 1, 2)
    assert len(old) == n_max
    assert_same_samples(new, old)


def test_orbit_differential_covers_symmetric_asymmetric_and_cut_balls():
    orders = {name: len(orbit_ball(name)[0].automorphisms) for name in ORBIT_BALLS}
    assert orders["z2"] == orders["file"] == 8
    assert orders["f2"] == 24 and orders["z3"] == orders["free3"] == 48
    assert orders["heis"] == orders["engine-heis"] == orders["random"] == 1
    assert orbit_ball("file")[0].base != 0
    tree = div_function_estimate(orbit_ball("f2")[0], 4, DivergenceParams(0.5, 0.0),
                                 protocol="exhaustive", margin=1.0)
    assert [s.is_infinite for s in tree] == [False, True, True, True]


def test_exhaustive_runs_one_center_per_orbit(monkeypatch):
    ball, margin = orbit_ball("z2")
    centers = set()
    punctured = _Searches.punctured

    def spy(self, d_c, threshold, sources):
        centers.add(int(np.flatnonzero(d_c == 0)[0]))
        return punctured(self, d_c, threshold, sources)

    monkeypatch.setattr(_Searches, "punctured", spy)
    div_function_estimate(ball, 10, DivergenceParams(0.5, 0.0),
                          protocol="exhaustive", margin=margin)
    group = ball.automorphisms
    assert len(centers) == 36
    assert all(c == group[:, c].min() for c in centers)


def old_closure(gens: list[np.ndarray], key: np.ndarray) -> list[np.ndarray] | None:
    group = [np.arange(len(gens[0]), dtype=np.int64)]
    by_key = {group[0][key].tobytes(): [group[0]]}
    for g in group:  # grows while it is walked: breadth-first
        for h in gens:
            p = h[g]
            bucket = by_key.setdefault(p[key].tobytes(), [])
            if any(np.array_equal(p, e) for e in bucket):
                continue
            if len(group) == graph_core.GROUP_CAP:
                return None
            bucket.append(p)
            group.append(p)
    return group


def old_find_automorphisms(ball: GraphBall) -> np.ndarray:
    n = ball.vertex_count
    s1 = np.flatnonzero(ball.dist == 1)
    group = [np.arange(n, dtype=np.int64)]
    m = len(s1)
    if not 2 <= m <= _S1_CAP:
        return np.stack(group)
    layering = None
    gens: list[np.ndarray] = []
    actions: list[np.ndarray] = []  # the generators' actions on S_1 positions
    realised = {tuple(range(m))}  # the group's actions on S_1 positions
    extensions = 0
    for action in _first_sphere_maps(ball, s1):
        # A larger group has at least twice the order, so none fits.
        if 2 * len(group) > graph_core.GROUP_CAP or extensions == _EXTENSION_CAP:
            break
        if action in realised:
            continue
        action = np.array(action)
        # The group's action on S_1 is no larger than the group.
        acting = old_closure(actions + [action], np.arange(m))
        if acting is None:
            continue
        extensions += 1
        layering = layering or _Layering(ball)
        perm = layering.extend(ball.base, s1, s1[action])
        if perm is None or not is_automorphism(ball, perm):
            continue
        closed = old_closure(gens + [perm], s1)
        if closed is None:
            continue
        gens.append(perm)
        actions.append(action)
        group = closed
        realised = {tuple(a.tolist()) for a in acting}
    return np.stack(group)


GROUP_BALLS = {
    "z2": lambda: cayley_ball(FreeAbelian(2), 6),
    "f2": lambda: cayley_ball(Free(2), 4),
    "z3": lambda: cayley_ball(FreeAbelian(3), 4),
    "heis": lambda: cayley_ball(Heisenberg(), 6),
    "product": lambda: cayley_ball(DirectProduct(FreeAbelian(1), Free(2)), 4),
    "free-product": lambda: cayley_ball(FreeProduct(FreeAbelian(1), Free(1)), 4),
    "glued": lambda: glued_ball(0, 7, 3),
}


def rows(perms):
    return {tuple(row) for row in perms.tolist()}


@pytest.mark.parametrize("name", sorted(GROUP_BALLS))
@pytest.mark.parametrize("cap", [64, 4, 2])
def test_group_in_place_matches_list_closure(name, cap, monkeypatch):
    monkeypatch.setattr(graph_core, "GROUP_CAP", cap)
    ball = GROUP_BALLS[name]()
    group = graph_core.find_automorphisms(ball)
    assert group.dtype == np.int32
    assert rows(group) == rows(old_find_automorphisms(ball))
    check_automorphism_group(ball, group)


def test_group_cap_rolls_back_a_group_that_does_not_fit(monkeypatch):
    full = cayley_ball(FreeAbelian(2), 6).automorphisms
    assert len(full) == 8
    # Under a cap of 4 the closures that would pass it are dropped by size,
    # and what is kept is still a group.
    monkeypatch.setattr(graph_core, "GROUP_CAP", 4)
    ball = cayley_ball(FreeAbelian(2), 6)
    assert 1 < len(ball.automorphisms) <= 4
    check_automorphism_group(ball, ball.automorphisms)
    # The closure itself: a generator whose group passes the buffer leaves
    # the group before it in the buffer's first rows.
    s1 = np.flatnonzero(ball.dist == 1)
    flip = next(g for g in full[1:] if (g[g] == full[0]).all())
    turn = next(g for g in full[1:] if not (g[g] == full[0]).all())
    buffer = np.empty((4, ball.vertex_count), dtype=np.int32)
    buffer[0] = full[0]
    size = graph_core._closure(buffer, 1, [flip], s1)
    assert size == 2
    kept = buffer[:size].copy()
    assert graph_core._closure(buffer, size, [flip, turn], s1) is None
    assert np.array_equal(buffer[:size], kept)
    check_automorphism_group(ball, buffer[:size])
