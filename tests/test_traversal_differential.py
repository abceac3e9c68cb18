"""Differential tests of the traversal fast paths against the code they
replaced.

The `old_*` functions below are verbatim copies of the hand-written loops
that one breadth-first loop replaced (only their names changed, and the
searches that took a ball take its neighbor tuples), including
`build_ball` with its own breadth-first loop (its final assembly builds the
ball's CSR arrays with `csr_from_edges`, as every ball is now built), and
of the wideness probe's middle-segment search as it scanned whole distance
rows. `old_bfs` is a verbatim copy of the list-based loop that the Python
search was before it read the CSR arrays and kept its distances and
parents in dicts over the reached vertices. That search is now
`bfs_parents`, which runs one search per source, all together one level
at a time in numpy; the keys of search i in its `order` are its discovery
order, and each search must give `old_bfs` and `old_bfs_parents`'s
distances, parents and order from its source, with sources repeated, on
the rim and at cap 0 (multi-source distances to the nearest source are
`bfs_distances`). Whole-graph searches, `build_ball`'s numbering and
`karlsson_set_estimate`'s geodesics, run in scipy's `breadth_first_order`,
which must give `old_bfs`'s order and parents on rows in any stored order.
Balls no longer keep neighbor tuples, so the copies walk the tuples that
`csr_rows` and `tuple_rows` read from the CSR arrays.
No search takes a vertex mask: the masked searches of
`old_punctured_bfs` and `old_bfs`, from allowed sources, are compared
with searches on `OldPuncture`, a verbatim copy of the deleted
`graph_core.Puncture` (the sink-punctured copy of a unit matrix), on the
graph minus the excluded vertices (`breadth_first_order` parents for one
source, multi-source Dijkstra distances, also stopped at a cap) and with
`punctured_paths`, and `old_punctured_geodesic` with `punctured_paths`.
`bfs_rows`, which packs 64 searches into each word and ORs the frontier
words over each CSR row per level, must give the distances of
`bfs_parents` and of Dijkstra on an `OldPuncture`, with 1, 63, 64, 65
and 129 searches, empty and non-empty blocked sets, a column subset,
cut-off components and an isolated vertex.
`punctured_paths` runs its jobs in blocks of `bfs_parents` searches that
never enter their forbidden sets and stop at their targets. It is compared
with `old_punctured_path`, a verbatim copy of the `Puncture.path` it
replaced (one scipy search over the whole sink-punctured matrix per job),
on the sampled balls and random graphs, with targets next to the ball,
inside it and unreachable, repeated sources, and blocks split by a small
cell budget; on the F2 tree a search that cannot reach its target must
exhaust exactly its source's component.
The sampled divergence estimate draws every triple first, with one bounded
Dijkstra search per pair, then runs one bounded search per n and block of
centers and all punctured detours through `punctured_paths`, which a
spy counts.
Its references are the same code with every search limit removed,
`old_sampled_estimate`, whose searches all run on the whole ball, and
`old_windowed_sampled_estimate` with `OldSearches` and `old_window_detour`,
verbatim copies of the estimate that ran its punctured searches on the
window B_a(2n + 4) of each pair; `window_exits` checks that the compared
cases take every exit of the window rule. The `OldPuncture` searches,
which point the index slots entering the forbidden ball at a sink row in
place, are compared row by row with searches on `csr_restrict`, a
verbatim copy of the edge-deleting restriction they replaced, and with
`naive_div_triple` in `helpers`. Every caller of a punctured search (the
sampled and exhaustive protocols, `div_triple`, `escape_ray_search` and
`karlsson_set_estimate`) must leave the ball's CSR arrays and unit matrix
bit-identical, also when a search raises.
Dijkstra on a ball's unit matrix, plain and punctured, must return what it
returned with `unweighted=True`.
The `old_*` divergence functions and `OldBuckets` are verbatim copies of
both estimates, the exhaustive one's per-tie witness loops and
`div_triple` as they were before one search object and one array witness
rule replaced them.

The next group compares the code that kept a second edge layout beside the
ball's CSR arrays with the CSR-only code that replaced it: the COO-built
Floyd matrix, the numpy level-by-level search that `bfs_distances` runs in
scipy, `induced_ball` with its neighbor-list loop, and the punctured
search's inline edge mask.

The next group compares the sphere scan that ran Dijkstra from every source
with the scan that runs it once per symmetry orbit, and the escape-set
estimate that built its punctured-search mask on every call with the one
that punctures the ball's matrix.

`qg_certify`, which runs one multi-row Dijkstra per path and takes the
maximum over all position pairs with array arithmetic, is compared bit for
bit with `old_qg_certify`, a copy of the loop that ran one search per
distinct path vertex and walked the pairs (only its `bfs_distances` call
takes the new matrix argument).

The escape-ray search, whose searches now run on one induced graph of the
ball minus the inner ball and through `punctured_paths`, is compared with
`old_escape_ray_search` and `old_search_from`, verbatim copies of the
masked search that walked neighbor tuples, on balls where it finds
geodesic rays, bent rays (through its bounded backtracking) and nothing,
and on a gadget where two bent chains certify and the backtracking's row
order decides which is returned.

The next group compares the exhaustive divergence estimate that scanned
every center (`old_all_centers_exhaustive_estimate`, a verbatim copy, on
`OldSinkSearches`, a verbatim copy of the search object that divergence
kept before `Puncture` and `GraphBall.matrix` replaced it) with the one
that scans one center per symmetry orbit and picks each witness over the
images of the tied triples. `old_puncture_exhaustive_estimate` is a
verbatim copy of that scan as it ran its punctured rows, one multi-row
Dijkstra per center and forbidden radius, on a `Puncture` (here
`OldPuncture`); the scan that runs them as blocks of `bfs_rows` searches
across consecutive centers must give its samples on every case, at the
default block budget and with blocks cut after one center and in the
middle of the center list (`EXHAUSTIVE_BLOCKS`).

The wideness probe is compared with `old_wideness_probe`, a verbatim copy
of the loop that searched every eligible vertex: equal outright on balls
without symmetries, and on symmetric balls (with `U_CAP` lowered to 1 to
provoke misses) its pass set must be the orbit closure of the old one,
with every mapped witness certified by `qg_certify` and the oracle in
`helpers`; both comparisons also run with blocks of one search and of
three rows of cells (`PROBE_BLOCKS`).

The last group compares `find_automorphisms`, which keeps verified
generators (maps of S_1 and twin swaps) and their orbits, with
`old_find_automorphisms` and `old_closure`, verbatim copies of the search
that listed its group: every generator passes the set oracle in `helpers`,
and the new orbits are unions of the old ones, under several group caps.
"""

import collections
import functools
import itertools
import math
import random
import tempfile
from pathlib import Path
from collections import deque
from contextlib import contextmanager
from typing import Hashable, Iterable

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from floydlab import divergence, floyd_metric, graph_core, quasigeodesic
from floydlab.divergence import (
    DivergenceParams,
    DivergenceSample,
    _Buckets,
    div_function_estimate,
    div_triple,
)
from floydlab.errors import (
    DisconnectedGraph,
    NonPath,
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
    bfs_distances,
    bfs_parents,
    bfs_rows,
    GraphBall,
    build_ball,
    csr_from_edges,
    csr_induced,
    extract_path,
    is_automorphism,
    punctured_paths,
    read_graph_file,
    single_vertex_ball,
    sphere,
    unit_matrix,
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
    escape_ray_search,
    qg_certify,
    wideness_probe,
)
from floydlab.thickness import induced_ball

from helpers import (
    check_automorphism_generators,
    graph_distance,
    naive_div_triple,
    is_quasi_geodesic,
    neighbors,
    python_orbits,
    random_connected_edges,
    wind_and_rail_ball,
)


def csr_rows(indptr, indices):
    """The neighbor tuple of every vertex of CSR arrays, in stored order."""
    bounds = indptr.tolist()
    return tuple(tuple(indices[a:b].tolist()) for a, b in zip(bounds, bounds[1:]))


@functools.lru_cache(maxsize=8)
def tuple_rows(ball):
    """The neighbor tuples of a ball, the layout the list-based copies walk."""
    return tuple(neighbors(ball, v) for v in range(ball.vertex_count))


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


def old_punctured_bfs(adjacency, sources, allowed):
    dist = [-1] * len(adjacency)
    parent = [-1] * len(adjacency)
    queue = deque()
    for s in sources:
        if allowed[s]:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0 and allowed[v]:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def old_neighborhood_distances(adjacency, seeds, cap):
    dist = [-1] * len(adjacency)
    queue = deque()
    for s in seeds:
        if dist[s] < 0:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        if dist[u] >= cap:
            continue
        for v in adjacency[u]:
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
        for y in tuple_rows(ball)[x]:
            if y not in parent and dist_b[y] > rho:
                parent[y] = x
                queue.append(y)
    return None


def old_middle_segment(ball, x, C, half, u_cap):
    near = old_bfs_distances(tuple_rows(ball), x, cap=int(C))
    anchors = sorted((d, v) for v, d in enumerate(near) if d >= 0)
    for _, x1 in anchors:
        dist1, parent1 = old_bfs_parents(tuple_rows(ball), x1, cap=half)
        ring = [v for v, d in enumerate(dist1) if d == half]
        if not ring:
            continue
        for u in ring[:u_cap]:
            du = old_bfs_distances(tuple_rows(ball), u, cap=2 * half)
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
    assert _outcome(build_ball, *case) == _outcome(old_build_ball, *case)


def test_build_ball_numbers_vertices_in_insertion_order():
    # Labels appear as b, c, a, d. The base a met c before b, so c is
    # discovered first although b was numbered first: rows are walked in
    # the order their edges appeared, not sorted.
    edges = [("b", "c"), ("a", "c"), ("a", "b"), ("b", "d")]
    ball = build_ball(edges, "a", 2)
    assert ball == old_build_ball(edges, "a", 2)
    assert neighbors(ball, 2) == (0, 1, 3)  # b is vertex 2
    assert ball.dist.tolist() == [0, 1, 1, 2]


def test_build_ball_differential_covers_every_outcome():
    kinds = set()
    for seed in range(80):
        outcome = _outcome(build_ball, *random_edge_case(seed))
        kinds.add(outcome[0] if isinstance(outcome, tuple) else type(outcome))
    assert {GraphBall, DisconnectedGraph, RadiusMismatch, SelfLoop,
            ValueError} <= kinds


def old_bfs(adjacency, sources, cap=None, allowed=None):
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


class OldPuncture:
    """`graph_core.Puncture` as it was before `bfs_rows` replaced it
    (verbatim, the class renamed): whole-row Dijkstra searches in a graph
    minus a closed ball B_c(t) = {v : d_c[v] <= t}, on `cut`, a private
    copy of a unit matrix plus an empty sink row V.

    `without` points every slot that enters the ball at the sink, yields
    `cut`, and puts the slots back in a `finally`. A sink has no way out,
    so a search from outside the ball sees the graph minus the ball; a
    source inside it raises `PreconditionViolated`. One object per caller.
    Paths that avoid a ball come from `punctured_paths`, which changes no
    matrix.
    """

    def __init__(self, matrix: sp.csr_matrix):
        n, m = matrix.shape[0], matrix.nnz
        self.cut = sp.csr_matrix((matrix.data, matrix.indices.copy(),
                                  np.append(matrix.indptr, m)),
                                 shape=(n + 1, n + 1))
        # The slots whose column is v: by_column[col_start[v]:col_start[v + 1]].
        self.by_column = np.argsort(self.cut.indices, kind="stable")
        self.col_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.cut.indices, minlength=n),
                  out=self.col_start[1:])

    @contextmanager
    def without(self, d_c: np.ndarray, threshold: float, sources):
        """`cut` minus the closed ball B_c(threshold) while the with block
        runs; every search in it must start at one of `sources`."""
        if (d_c[sources] <= threshold).any():
            raise PreconditionViolated(
                "a punctured search starts inside its forbidden ball")
        inside = np.flatnonzero(d_c <= threshold)
        starts = self.col_start[inside]
        sizes = self.col_start[inside + 1] - starts
        ends = np.cumsum(sizes)
        slots = self.by_column[np.arange(sizes.sum())
                               + np.repeat(starts - ends + sizes, sizes)]
        indices = self.cut.indices
        indices[slots] = self.cut.shape[0] - 1  # the sink
        try:
            yield self.cut
        finally:
            indices[slots] = np.repeat(inside, sizes)


def random_csr(rng, n):
    """CSR arrays of a random simple graph, possibly disconnected, with
    every row in a random order."""
    edges = set(random_connected_edges(rng, n))
    for _ in range(rng.randrange(n)):  # drop some edges to cut components off
        edges.discard(rng.choice(sorted(edges)))
    u, v = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2).T
    indptr, indices = csr_from_edges(n, u, v)
    for a, b in zip(indptr[:-1], indptr[1:]):
        rng.shuffle(indices[a:b])
    return indptr, indices


@pytest.mark.parametrize("seed", range(40))
def test_bfs_matches_replaced_loops(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    indptr, indices = random_csr(rng, n)
    adj = csr_rows(indptr, indices)
    for _ in range(10):
        source = rng.randrange(n)
        cap = rng.choice([None, 0, 1, 2, 3, 5])
        dist, parent, order = bfs_parents(indptr, indices, source, cap)
        assert (order.tolist(), dist.tolist(), parent.tolist()) == old_bfs(
            adj, [source], cap)
        assert (dist.tolist(), parent.tolist()) == old_bfs_parents(adj, source, cap)
        assert (bfs_distances(unit_matrix(indptr, indices), source, cap).tolist()
                == old_bfs_distances(adj, source, cap))
        # Whole-graph searches run in scipy, which walks the rows in the
        # same stored order.
        order, pred = breadth_first_order(unit_matrix(indptr, indices), source,
                                          directed=True, return_predecessors=True)
        old_order, _, old_parent = old_bfs(adj, [source])
        assert order.tolist() == old_order
        assert np.maximum(pred, -1).tolist() == old_parent

        # Duplicate sources, in a shuffled order.
        sources = [rng.randrange(n) for _ in range(rng.randrange(1, 5))]
        sources += sources[: rng.randrange(len(sources) + 1)]
        rng.shuffle(sources)
        seed_cap = rng.choice([0, 1, 2, 4])
        assert (old_neighborhood_distances(adj, sources, seed_cap)
                == bfs_distances(unit_matrix(indptr, indices), sources, seed_cap).tolist())

        # The masked searches, as punctured searches from allowed sources.
        allowed = [rng.random() < 0.8 for _ in range(n)]
        sources = [s for s in sources if allowed[s]]
        if sources:
            assert_punctured_searches_match_mask(indptr, indices, sources,
                                                 allowed, seed_cap)


def assert_punctured_searches_match_mask(indptr, indices, sources, allowed, cap):
    """Punctured searches on the graph minus the vertices that `allowed`
    excludes equal the masked loops: `breadth_first_order` and the BFS path
    of each vertex give the single-source parents, and multi-source
    Dijkstra gives the distances, also stopped at `cap`."""
    n = len(allowed)
    adj = csr_rows(indptr, indices)
    puncture = OldPuncture(unit_matrix(indptr, indices))
    # d_c = 1 on allowed vertices and 0 elsewhere forbids exactly the rest.
    d_c = np.array(allowed, dtype=float)
    with puncture.without(d_c, 0.5, sources) as cut:
        _, pred = breadth_first_order(cut, sources[0], directed=True,
                                      return_predecessors=True)
        near = dijkstra(cut, directed=True, indices=sources, min_only=True)
        capped = dijkstra(cut, directed=True, indices=sources, min_only=True,
                          limit=cap)
    dist, parent = old_punctured_bfs(adj, sources[:1], allowed)
    assert np.maximum(pred[:n], -1).tolist() == parent
    outside = np.flatnonzero(d_c <= 0.5)
    assert punctured_paths(indptr, indices, [sources[0]] * n, list(range(n)),
                           [outside] * n) == [
        extract_path(parent, v) if dist[v] >= 0 else None for v in range(n)]
    for want, got in ((old_punctured_bfs(adj, sources, allowed)[0], near),
                      (old_bfs(adj, sources, cap, allowed)[1], capped)):
        assert got[:n].tolist() == [math.inf if d < 0 else d for d in want]


@pytest.mark.parametrize("seed", range(30))
def test_bfs_rows_match_block_search_and_punctured_dijkstra(seed):
    """`bfs_rows` gives search i the distances of `bfs_parents` from its
    source in the graph minus its blocked set, and those of scipy's
    Dijkstra on an `OldPuncture` of that set, at `columns`, inf where the
    search does not reach: on random graphs with shuffled rows, cut-off
    components and an isolated last vertex, with k searches filling part
    of a word, one word, one word and a bit, and several words."""
    rng = random.Random(seed)
    n = rng.randrange(2, 40)
    indptr, indices = random_csr(rng, n)
    indptr, n = np.append(indptr, indptr[-1]), n + 1  # vertex n - 1: isolated
    puncture = OldPuncture(unit_matrix(indptr, indices))
    k = [1, 63, 64, 65, 129][seed % 5]
    sources = [rng.randrange(n) for _ in range(k)]
    if seed % 3 == 0:
        sources[-1] = n - 1
    blocked = []
    for s in sources:
        share = rng.choice([0.0, 0.2, 0.5])
        blocked.append(np.array([v for v in range(n)
                                 if v != s and rng.random() < share], dtype=np.int64))
    columns = np.array(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
    got = bfs_rows(indptr, indices, sources, blocked, columns)
    assert got.shape == (k, len(columns)) and got.dtype == np.float64
    dist, _, _ = bfs_parents(indptr, indices, sources, blocked=blocked,
                             parents=False)
    assert np.array_equal(got, np.where(dist < 0, np.inf, dist)[:, columns])
    for i, (s, walls) in enumerate(zip(sources, blocked)):
        # d_c = 0 on the blocked vertices and 1 elsewhere forbids exactly them.
        d_c = np.ones(n)
        d_c[walls] = 0
        with puncture.without(d_c, 0.5, [s]) as cut:
            want = dijkstra(cut, directed=True, indices=s)
        assert np.array_equal(got[i], want[columns])
    # No blocked sets and every vertex as a column: the plain searches.
    assert np.array_equal(bfs_rows(indptr, indices, sources), dijkstra(
        unit_matrix(indptr, indices), directed=True, indices=sources))


def test_bfs_rows_differential_covers_every_kind_of_row():
    """The graphs of the cases above include vertices cut off from a
    source by the graph itself, graphs whose other vertices all reach each
    other, and the isolated vertex, which reaches no other."""
    kinds = collections.Counter()
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randrange(2, 40)
        indptr, indices = random_csr(rng, n)
        indptr, n = np.append(indptr, indptr[-1]), n + 1
        reach = bfs_rows(indptr, indices, range(n))
        kinds["cut-off"] += int(np.isinf(reach).any())
        kinds["connected"] += int(np.isfinite(reach[:-1, :-1]).all())
        kinds["isolated"] += int(np.isinf(reach[-1, :-1]).all())
    assert min(kinds.values()) > 0 and len(kinds) == 3


@pytest.mark.parametrize("seed", range(20))
def test_bfs_order_is_the_discovery_order(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    indptr, indices = random_csr(rng, n)
    source = rng.randrange(n)
    cap = rng.choice([None, 1, 3])
    dist, parent, order = bfs_parents(indptr, indices, source, cap)
    order = order.tolist()
    assert sorted(order) == np.flatnonzero(dist >= 0).tolist()
    assert [dist[v] for v in order] == sorted(dist[v] for v in order)
    assert order[0] == source and parent[source] == -1
    for v in order[1:]:
        assert dist[parent[v]] == dist[v] - 1
        assert order.index(parent[v]) < order.index(v)


@pytest.mark.parametrize("seed", range(15))
def test_punctured_geodesic_matches_replaced_loop(seed):
    rng = random.Random(seed)
    ball = build_ball(random_connected_edges(rng, rng.randrange(2, 40)), 0, 40)
    jobs = []
    for _ in range(15):
        u, v = rng.randrange(ball.vertex_count), rng.randrange(ball.vertex_count)
        rho = rng.randrange(-1, max(1, max(ball.dist.tolist())))
        if ball.dist[u] > rho and ball.dist[v] > rho:
            jobs.append((u, v, rho))
    us, vs, rhos = zip(*jobs) if jobs else ((), (), ())
    forbidden = [np.flatnonzero(ball.dist <= rho) for rho in rhos]
    assert punctured_paths(*ball.csr_arrays, us, vs, forbidden) == [
        old_punctured_geodesic(ball, *job) for job in jobs]


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


def distinct_orbits(ball, vertices):
    """Whether the vertices lie in distinct orbits: the reduced probe then
    searches each of them, as the unreduced one does."""
    return len(np.unique(ball.symmetry.orbit_min[list(vertices)])) == len(vertices)


def first_passes(ball, report):
    """The first vertex of each orbit that `report` passes: the vertices
    the orbit-reduced probe searches and passes, given the unreduced
    probe's `report`."""
    low = ball.symmetry.orbit_min
    first = {}
    for x in report.witnesses:
        first.setdefault(int(low[x]), x)
    return set(first.values())


# Block budgets of the probe's searches: the default, one source per block,
# and three sources per block, set by the cells of their (search, vertex)
# rows.
PROBE_BLOCKS = {
    "default": lambda ball: [],
    "one-source": lambda ball: [(graph_core, "BLOCK_CELLS", ball.vertex_count)],
    "three-rows": lambda ball: [(graph_core, "BLOCK_CELLS", 3 * ball.vertex_count)],
}


def set_probe_blocks(monkeypatch, blocks, ball):
    for owner, attr, value in PROBE_BLOCKS[blocks](ball):
        monkeypatch.setattr(owner, attr, value)


def assert_block_search_matches(indptr, indices, sources, cap):
    """Each search of one multi-source `bfs_parents` call equals the
    list-based loops from its source: distances, parents and discovery
    order; `order` runs level by level."""
    n = len(indptr) - 1
    adj = csr_rows(indptr, indices)
    dist, parent, order = bfs_parents(indptr, indices, sources, cap)
    assert dist.shape == parent.shape == (len(sources), n)
    assert (np.diff(dist.reshape(-1)[order]) >= 0).all()
    # Without the parent array the searches are the same.
    bare = bfs_parents(indptr, indices, sources, cap, parents=False)
    assert bare[1] is None
    assert np.array_equal(bare[0], dist) and np.array_equal(bare[2], order)
    search, vertex = np.divmod(order, n)
    for i, source in enumerate(sources):
        old_order, old_dist, old_parent = old_bfs(adj, [source], cap)
        assert vertex[search == i].tolist() == old_order
        assert dist[i].tolist() == old_dist and parent[i].tolist() == old_parent
        assert (old_dist, old_parent) == old_bfs_parents(adj, source, cap)


@pytest.mark.parametrize("name", sorted(PROBE_BALLS))
def test_block_search_matches_replaced_loops_on_probe_balls(name):
    # Repeated sources, sources on the rim, cap 0, and (in "triangular") a
    # ball that is not bipartite.
    ball = PROBE_BALLS[name]()
    rng = random.Random(name)
    rim = np.flatnonzero(ball.dist == ball.radius).tolist()
    for cap in (0, 1, 3, 7, None):
        sources = [rng.randrange(ball.vertex_count) for _ in range(5)]
        sources += rng.sample(rim, min(3, len(rim))) + sources[:2]
        rng.shuffle(sources)
        assert_block_search_matches(*ball.csr_arrays, sources, cap)


@pytest.mark.parametrize("seed", range(30))
def test_block_search_matches_replaced_loops_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    indptr, indices = random_csr(rng, n)
    sources = [rng.randrange(n) for _ in range(rng.randrange(1, 8))]
    sources += sources[: rng.randrange(len(sources) + 1)]
    rng.shuffle(sources)
    assert_block_search_matches(indptr, indices, sources,
                                rng.choice([None, 0, 1, 2, 3, 5]))


@pytest.mark.parametrize("name", sorted(PROBE_BALLS))
@pytest.mark.parametrize("C", [1.0, 1.5])
@pytest.mark.parametrize("blocks", sorted(PROBE_BLOCKS))
def test_wideness_probe_matches_full_row_scan(name, C, blocks, monkeypatch):
    ball = PROBE_BALLS[name]()
    set_probe_blocks(monkeypatch, blocks, ball)
    for segment_length, u_cap in ((6, 6), (8, 6), (5, 1)):
        monkeypatch.setattr(quasigeodesic, "U_CAP", u_cap)
        new = wideness_probe(ball, C, segment_length)
        old = old_wideness_probe(ball, C, segment_length, u_cap)
        assert new.eligible == old.eligible
        # A vertex the reduced probe searches gets the same witness.
        for x in first_passes(ball, old):
            assert new.witnesses[x] == old.witnesses[x]
        if distinct_orbits(ball, new.eligible):
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
    # Heisenberg's generators are swaps of leaf twins, on its outer sphere:
    # its eligible vertices keep orbits of their own. The grid and the star
    # merge eligible vertices.
    split = {}
    for name, make in PROBE_BALLS.items():
        ball = make()
        split[name] = distinct_orbits(ball, np.flatnonzero(ball.dist <= ball.radius - 3))
    assert split["heis"] and not split["z2"] and not split["star"]
    heis = PROBE_BALLS["heis"]()
    assert heis.symmetry.moves
    assert all(heis.dist[moved].min() == heis.radius for moved, _ in heis.symmetry.moves)


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
    low = ball.symmetry.orbit_min
    orbits = {int(low[x]) for x in vertices}
    return {v for v in range(ball.vertex_count) if int(low[v]) in orbits}


@pytest.mark.parametrize("name", sorted(ORBIT_PROBE_BALLS))
@pytest.mark.parametrize("blocks", sorted(PROBE_BLOCKS))
def test_reduced_probe_passes_the_orbit_closure(name, blocks, monkeypatch):
    ball = ORBIT_PROBE_BALLS[name]()
    set_probe_blocks(monkeypatch, blocks, ball)
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
    # The three copies of the glued ball are permuted: its S_1, two edges
    # at the base in each copy, is two orbits of three.
    glued = ORBIT_PROBE_BALLS["glued-0-7x3"]()
    s1 = glued.symmetry.orbit_min[glued.dist == 1]
    assert len(s1) == 6 and len(np.unique(s1)) == 2


@pytest.mark.parametrize("name", sorted(ORBIT_PROBE_BALLS))
def test_probe_searches_each_orbit_until_its_first_pass(name, monkeypatch):
    ball = ORBIT_PROBE_BALLS[name]()
    monkeypatch.setattr(quasigeodesic, "U_CAP", 1)
    rounds = []
    middle_segments = quasigeodesic._middle_segments

    def spy(ball, xs, *args):
        rounds.append(xs.tolist())
        return middle_segments(ball, xs, *args)

    monkeypatch.setattr(quasigeodesic, "_middle_segments", spy)
    for segment_length, C in ORBIT_PROBE_CASES:
        rounds.clear()
        new = wideness_probe(ball, C, segment_length)
        old = old_wideness_probe(ball, C, segment_length, 1)
        firsts = first_passes(ball, old)
        low = ball.symmetry.orbit_min
        # An orbit is searched in ascending order up to its first pass, and
        # round r searches the r-th of those members of every orbit, in
        # ascending order.
        searched = {}
        for x in old.eligible:
            members = searched.setdefault(low[x], [])
            if not (members and members[-1] in firsts):
                members.append(x)
        depth = max(map(len, searched.values()), default=0)
        assert rounds == [sorted(m[r] for m in searched.values() if len(m) > r)
                          for r in range(depth)]
        # Every other member y gets u_y(u_x^-1(path)) of that witness, u
        # being the transversal elements; x keeps its own.
        symmetry = ball.symmetry
        for y, w in new.witnesses.items():
            x = next(f for f in firsts if low[f] == low[y])
            path = old.witnesses[x].vertices
            image = symmetry.from_rep([y], symmetry.to_rep([x], [path]))[0]
            assert w == PathWitness(tuple(image.tolist()), old.witnesses[x].certified_C)
            if y == x:
                assert w.vertices == path


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


class OldSearches:
    """Unit-weight searches over one graph given as CSR arrays: the matrix
    is built once, then serves plain searches, punctured ones and the
    searches of induced windows."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.matrix = unit_matrix(indptr, indices)

    def plain(self, sources, **kw) -> np.ndarray:
        return dijkstra(self.matrix, directed=True, unweighted=True,
                        indices=sources, **kw)

    def punctured(self, d_c: np.ndarray, threshold: float,
                  sources) -> np.ndarray:
        """Distances from `sources` over the vertices with d_c > threshold,
        i.e. in the graph minus the closed ball B_c(threshold)."""
        sub = unit_matrix(*csr_restrict(self.matrix.indptr, self.matrix.indices,
                                        d_c > threshold))
        return dijkstra(sub, directed=True, unweighted=True, indices=sources)

    def window(self, members: np.ndarray) -> "OldSearches":
        """Searches on the subgraph induced by `members` (sorted, distinct),
        with members[i] numbered i; self when `members` is every vertex."""
        if len(members) == self.matrix.shape[0]:
            return self
        return OldSearches(*csr_induced(self.matrix.indptr, self.matrix.indices,
                                        members))


def old_window_detour(window: OldSearches, d_c: np.ndarray, threshold: float,
                      wa: int, wb: int, rim: np.ndarray, bound: float):
    """The a-b value of a triple from its punctured search on the window
    W = B_a(L), numbered as the window, or None when W cannot decide it.

    A path that leaves W reaches d_a = L + 1 and comes back to b, so it
    is at least `bound` = 2L + 2 - d(a, b) long and a value up to it is
    exact; an unreached b is exact (inf) when a's component reaches no
    vertex of the `rim` d_a = L. `bound` is inf when W is the whole ball.
    """
    row = window.punctured(d_c, threshold, [wa])[0]
    if row[wb] <= bound:
        return float(row[wb])
    if math.isinf(row[wb]) and np.isinf(row[rim]).all():
        return math.inf
    return None


def old_windowed_sampled_estimate(ball, n_max, params, inner, n_min, seed,
                                  pairs_per_n, c_per_pair):
    rng = random.Random(seed)
    search = OldSearches(*ball.csr_arrays)
    indptr, indices = ball.csr_arrays
    inner_set = set(inner.tolist())
    triples: list[tuple[int, int, int, int, float, float]] = []
    for n in range(1, n_max + 1):
        reach = 2 * n + 4  # window radius L
        for _ in range(pairs_per_n):
            a = int(inner[rng.randrange(len(inner))])
            # A vertex within n of a gets its predecessor while the heap
            # holds only vertices within n, which the limit L > n keeps:
            # partners and the geodesic are those of an unbounded search.
            d_a, pred = search.plain([a], limit=reach, return_predecessors=True)
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
            if not centers:
                continue
            # Every search of the pair but the first runs on W = B_a(L).
            # c lies within 2 steps of the a-b geodesic, so d(a, c) <= n + 2
            # and ra = d(c, {a, b}) <= n/2 + 2 < n + 3: the path from c to
            # the nearer endpoint and the forbidden ball B_c(threshold), with
            # the geodesics into it, lie in B_a(1.5n + 4) inside W. So ra,
            # the threshold and the forbidden set are those of the whole
            # ball, and a vertex beyond the limit (read as inf) is beyond
            # the threshold too.
            members = np.flatnonzero(d_a <= reach)
            window = search.window(members)
            wa, wb, *wc = np.searchsorted(members, [a, b, *centers]).tolist()
            bound = math.inf if window is search else 2 * reach + 2 - n
            rim = np.flatnonzero(d_a[members] == reach)
            for c, d_c in zip(centers, window.plain(wc, limit=n + 3)):
                ra = int(min(d_c[wa], d_c[wb]))
                threshold = params.delta * ra - params.gamma
                value = float(n)
                if threshold > 0:
                    value = old_window_detour(window, d_c, threshold, wa, wb, rim,
                                              bound)
                if value is None:  # the forbidden set lies in W
                    d_ball = np.full(ball.vertex_count, math.inf)
                    d_ball[members] = d_c
                    value = search.punctured(d_ball, threshold, [a])[0][b]
                triples.append((a, b, c, n, value, threshold))
    buckets = _Buckets(n_max)
    if triples:
        a, b, c, dab, value, radius = (np.array(col) for col in zip(*triples))
        buckets.offer(a, b, c, dab, value, radius)
    return buckets.finalize(n_min, "sampled", seed)


@pytest.mark.parametrize("name", sorted(SAMPLED_CASES))
@pytest.mark.parametrize("gamma", [0.0, 100.0])
def test_sampled_estimate_matches_windowed_code(name, gamma):
    make, n_max, margin = SAMPLED_CASES[name]
    ball = make()
    params = DivergenceParams(0.5, gamma)
    inner = np.flatnonzero(ball.dist <= int(ball.radius / margin + 1e-9))
    for seed in range(10):
        new = _outcome(div_function_estimate, ball, n_max, params, "sampled", seed,
                       margin=margin)
        old = _outcome(old_windowed_sampled_estimate, ball, n_max, params, inner,
                       1, seed, 8, 4)
        if isinstance(old, tuple):
            assert new == old
        else:
            assert_same_samples(new, old)


def window_exits(ball, n_max, params, margin, seeds, monkeypatch):
    """How each triple of the windowed estimates got its value: with no
    forbidden set, in a window that is the whole ball, inside a smaller
    window, as a cut closed inside it, or by a whole-ball fallback for a
    long detour or for a cut whose side of a reaches the window's rim."""
    inner = np.flatnonzero(ball.dist <= int(ball.radius / margin + 1e-9))
    exits = collections.Counter()
    for seed in seeds:
        detours, offered = [], []
        detour, offer = old_window_detour, _Buckets.offer

        def detour_spy(*args):
            detours.append((args[-1], detour(*args)))
            return detours[-1][1]

        def offer_spy(self, *arrays):
            offered.append(arrays)
            return offer(self, *arrays)

        with monkeypatch.context() as patch:
            patch.setitem(globals(), "old_window_detour", detour_spy)
            patch.setattr(_Buckets, "offer", offer_spy)
            old_windowed_sampled_estimate(ball, n_max, params, inner, 1, seed, 8, 4)
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


def test_windowed_differential_covers_every_window_exit(monkeypatch):
    half, seeds = DivergenceParams(0.5, 0.0), range(10)

    def exits(name, params=half):
        make, n_max, margin = SAMPLED_CASES[name]
        return window_exits(make(), n_max, params, margin, seeds, monkeypatch)

    assert exits("cycle").keys() == {"inside", "long-fallback"}
    assert exits("f2-rim").keys() == {"inside", "whole", "closed", "rim-fallback"}
    assert exits("z2").keys() == {"inside"}
    assert exits("z2", DivergenceParams(0.5, 100.0)).keys() == {"no-puncture"}


def forbidden_ball(ball: GraphBall, c: int, threshold: float):
    """d_c of a search from c, and the sources outside B_c(threshold)."""
    d_c = dijkstra(ball.matrix, directed=True, indices=c)
    return d_c, np.flatnonzero(d_c > threshold)


def test_punctured_searches_refuse_a_source_inside_the_ball():
    ball = cayley_ball(FreeAbelian(2), 4)
    puncture = OldPuncture(ball.matrix)
    d_c, outside = forbidden_ball(ball, 0, 1.0)
    near, far = int(np.flatnonzero(d_c == 1)[0]), int(outside[0])
    # The restricted graph keeps no edge at `near`; a redirect into the
    # sink would still let the search leave it, so both searches refuse.
    with pytest.raises(PreconditionViolated):
        with puncture.without(d_c, 1.0, [far, near]):
            pass
    assert puncture.cut.indices.tobytes() == ball.matrix.indices.tobytes()
    inside = np.flatnonzero(d_c <= 1.0)
    with pytest.raises(PreconditionViolated):
        punctured_paths(*ball.csr_arrays, [far, near], [near, far], [inside] * 2)
    # Search 64, in the second word, starts inside its own forbidden set.
    sources = [far] * 64 + [near]
    with pytest.raises(PreconditionViolated):
        bfs_rows(*ball.csr_arrays, sources, [inside] * 65)
    # A source inside another search's forbidden set is allowed.
    rows = bfs_rows(*ball.csr_arrays, sources, [inside] * 64 + [inside[:0]])
    assert rows[64, near] == 0 and math.isinf(rows[0, near])


def searching_callers():
    """Every caller of a punctured search, each on a case that punctures,
    with the ball it searches: the callers of `punctured_paths` and the
    exhaustive protocol, whose punctured rows run in `bfs_rows`."""
    f2 = cayley_ball(Free(2), 4)
    rail = wind_and_rail_ball()
    params = DivergenceParams(0.5, 0.0)
    w = floyd_weighting(cayley_ball(FreeAbelian(2), 6),
                        FloydFunction.inverse_power(2))
    return {
        "sampled": (f2, lambda: div_function_estimate(
            f2, 2, params, protocol="sampled", margin=2.0)),
        "exhaustive": (f2, lambda: div_function_estimate(
            f2, 4, params, protocol="exhaustive", margin=1.0)),
        "div_triple": (f2, lambda: div_triple(f2, 1, 2, 0, params)),
        "escape_ray_search": (rail, lambda: escape_ray_search(rail, 3, 1.3, 1, 4)),
        "karlsson_set_estimate": (w.ball, lambda: karlsson_set_estimate(
            w, C=1.5, epsilon=0.3, samples=20, seed=0)),
    }


def ball_bytes(ball):
    """The bytes of a ball's CSR arrays, distances and unit matrix."""
    matrix = ball.matrix
    return [arr.tobytes() for arr in (ball.indptr, ball.indices, ball.dist,
                                      matrix.data, matrix.indices, matrix.indptr)]


def test_punctured_paths_leave_the_ball_unchanged(monkeypatch):
    """The punctured searches write to no array of the ball: after every
    caller's searches, also after a search that raises partway, its CSR
    arrays and unit matrix are bit-identical."""
    punctured = []
    bfs, rows = graph_core.bfs_parents, divergence.bfs_rows

    def spy(*args, **kwargs):
        punctured.append(kwargs.get("blocked") is not None)
        return bfs(*args, **kwargs)

    def rows_spy(*args, **kwargs):
        punctured.append(len(args) > 3 and args[3] is not None)
        return rows(*args, **kwargs)

    monkeypatch.setattr(graph_core, "bfs_parents", spy)
    monkeypatch.setattr(divergence, "bfs_rows", rows_spy)
    for name, (ball, call) in searching_callers().items():
        before = ball_bytes(ball)
        punctured.clear()
        call()
        assert any(punctured), name
        assert ball_bytes(ball) == before, name

    # The second level of the first path search raises, and so does the
    # exhaustive protocol's first block of punctured rows.
    row_slots, levels = graph_core._row_slots, []

    def failing(*args):
        levels.append(None)
        if len(levels) > 1:
            raise RuntimeError("search failed")
        return row_slots(*args)

    def failing_rows(*args, **kwargs):
        if len(args) > 3:
            raise RuntimeError("search failed")
        return rows(*args, **kwargs)

    monkeypatch.setattr(graph_core, "_row_slots", failing)
    monkeypatch.setattr(divergence, "bfs_rows", failing_rows)
    for name, (ball, call) in searching_callers().items():
        before = ball_bytes(ball)
        levels.clear()
        with pytest.raises(RuntimeError):
            call()
        assert ball_bytes(ball) == before, name


def old_punctured_path(puncture, d_c, threshold, a, b):
    """`Puncture.path` as it was (verbatim, `self` renamed `puncture`): one
    scipy breadth-first search from a over the whole sink-punctured copy of
    the matrix."""
    with puncture.without(d_c, threshold, [a]) as cut:
        _, pred = breadth_first_order(cut, a, directed=True,
                                      return_predecessors=True)
    path = [int(v) for v in extract_path(pred, b)]
    return path if path[0] == a else None


def detour_jobs(rng, matrix, tries):
    """Up to `tries` random jobs (a, b, d_c, threshold) on a unit matrix:
    a forbidden ball B_c(threshold) around a random c, a outside it (often
    the a of an earlier job), and as b a random vertex, a vertex next to
    the ball, a vertex inside it (never reached) or a itself."""
    n = matrix.shape[0]
    jobs = []
    for _ in range(tries):
        c = rng.randrange(n)
        d_c = dijkstra(matrix, directed=True, indices=c)
        threshold = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        outside = np.flatnonzero(d_c > threshold).tolist()
        if not outside:
            continue
        a = rng.choice(outside)
        if jobs and rng.random() < 0.4 and d_c[jobs[-1][0]] > threshold:
            a = jobs[-1][0]
        pools = [range(n), [a],
                 np.flatnonzero((d_c > threshold) & (d_c <= threshold + 1)),
                 np.flatnonzero(d_c <= threshold)]
        pool = rng.choice([p for p in pools if len(p)])
        jobs.append((a, int(pool[rng.randrange(len(pool))]), d_c, threshold))
    return jobs


def assert_paths_match_old(indptr, indices, jobs):
    """`punctured_paths` on the jobs, in one call, gives each job the path
    (or None) of `old_punctured_path`; returns the paths."""
    puncture = OldPuncture(unit_matrix(indptr, indices))
    a, b, d_c, threshold = zip(*jobs)
    forbidden = [np.flatnonzero(d <= t) for d, t in zip(d_c, threshold)]
    paths = punctured_paths(indptr, indices, a, b, forbidden)
    assert paths == [old_punctured_path(puncture, d, t, s, e)
                     for s, e, d, t in jobs]
    return paths


# Block budgets of the detour searches: the default, and one or three
# (search, vertex) rows of cells per block.
DETOUR_BLOCKS = {"default": None, "one-row": 1, "three-rows": 3}


@pytest.mark.parametrize("blocks", sorted(DETOUR_BLOCKS))
@pytest.mark.parametrize("name", sorted(SAMPLED_CASES))
def test_punctured_paths_match_the_whole_ball_search(name, blocks, monkeypatch):
    ball = SAMPLED_CASES[name][0]()
    if DETOUR_BLOCKS[blocks] is not None:
        monkeypatch.setattr(graph_core, "BLOCK_CELLS",
                            DETOUR_BLOCKS[blocks] * ball.vertex_count)
    assert_paths_match_old(*ball.csr_arrays,
                           detour_jobs(random.Random(name), ball.matrix, 60))


@pytest.mark.parametrize("seed", range(30))
def test_punctured_paths_match_on_random_graphs(seed, monkeypatch):
    rng = random.Random(seed)
    n = rng.randrange(1, 40)
    indptr, indices = random_csr(rng, n)
    monkeypatch.setattr(graph_core, "BLOCK_CELLS", rng.choice([1, 2, 5, 2**17]) * n)
    jobs = detour_jobs(rng, unit_matrix(indptr, indices), 25)
    if jobs:
        assert_paths_match_old(indptr, indices, jobs)


def test_punctured_paths_cover_every_kind_of_job():
    # Unreached targets, paths of one vertex, targets next to the ball,
    # others, and sources repeated in one call all occur in the cases above.
    kinds = collections.Counter()
    for name in sorted(SAMPLED_CASES):
        ball = SAMPLED_CASES[name][0]()
        jobs = detour_jobs(random.Random(name), ball.matrix, 60)
        a, b, d_c, threshold = zip(*jobs)
        paths = punctured_paths(*ball.csr_arrays, a, b, [
            np.flatnonzero(d <= t) for d, t in zip(d_c, threshold)])
        for path, (a, b, d_c, t) in zip(paths, jobs):
            kinds["unreached" if path is None else "one-vertex" if a == b
                  else "next-to-ball" if d_c[b] <= t + 1 else "far"] += 1
        sources = [a for a, *_ in jobs]
        kinds["repeated-source"] += len(sources) - len(set(sources))
    assert min(kinds.values()) > 0 and len(kinds) == 5


def test_punctured_paths_exhaust_the_tree_component():
    """In the F2 tree every forbidden ball around the base cuts the branches
    apart: a search for a target on another branch reaches exactly the
    component of its source before it gives up, and one for a target on
    its own branch stops once it finds it."""
    ball = cayley_ball(Free(2), 5)
    indptr, indices = ball.csr_arrays
    inside = np.flatnonzero(ball.dist <= 1)
    allowed = (ball.dist > 1).tolist()
    a = int(np.flatnonzero(ball.dist == 2)[0])
    dist, _ = old_punctured_bfs(tuple_rows(ball), [a], allowed)
    component = np.flatnonzero(np.array(dist) >= 0)
    other = int(np.flatnonzero((np.array(dist) < 0) & (ball.dist > 1))[0])
    near = int(component[np.array(dist)[component] == 2][0])
    for b, reached in ((other, component), (near, None)):
        found, parent, _ = bfs_parents(indptr, indices, [a], blocked=[inside],
                                       targets=[b])
        if reached is not None:
            assert np.array_equal(np.flatnonzero(found[0] >= 0), reached)
        else:
            assert found[0, b] == dist[b] < max(dist)
            assert (found[0] <= dist[b]).all()
    jobs = [(a, b, ball.dist, 1.0) for b in (other, near)]
    assert assert_paths_match_old(indptr, indices, jobs)[0] is None


def test_sampled_protocol_batches_its_searches(monkeypatch):
    """The sampled protocol runs one Dijkstra search per drawn pair, then
    one per n and block of that n's centers, and one breadth-first search
    per block of punctured triples: no search per triple. Blocks of three
    rows give the same samples."""
    make, n_max, margin = SAMPLED_CASES["z2"]
    ball = make()
    params = DivergenceParams(0.5, 0.0)

    def run():
        calls, blocks, offered = [], [], []
        search, bfs, offer = divergence.dijkstra, graph_core.bfs_parents, _Buckets.offer

        def dijkstra_spy(matrix, **kw):
            calls.append((len(kw["indices"]), kw["limit"],
                          kw.get("return_predecessors", False)))
            return search(matrix, **kw)

        def bfs_spy(indptr, indices, sources, *args, **kw):
            blocks.append(len(sources))
            return bfs(indptr, indices, sources, *args, **kw)

        def offer_spy(self, *arrays):
            offered.append(arrays)
            return offer(self, *arrays)

        with monkeypatch.context() as patch:
            patch.setattr(divergence, "dijkstra", dijkstra_spy)
            patch.setattr(graph_core, "bfs_parents", bfs_spy)
            patch.setattr(_Buckets, "offer", offer_spy)
            samples = div_function_estimate(ball, n_max, params, protocol="sampled",
                                            seed=0, margin=margin)
        (_, _, _, dab, _, radius), = offered
        return samples, calls, blocks, dab, radius

    def split(count, block):
        return [block] * (count // block) + [count % block] * (count % block > 0)

    for rows in (None, 3):
        if rows is not None:
            monkeypatch.setattr(graph_core, "BLOCK_CELLS", rows * ball.vertex_count)
        samples, calls, blocks, dab, radius = run()
        block = graph_core.block_rows(ball.vertex_count)
        draws = [(1, n, True) for n in range(1, n_max + 1) for _ in range(8)]
        centers = [(size, n // 2 + 2, False) for n in range(1, n_max + 1)
                   for size in split(int((dab == n).sum()), block)]
        assert calls == draws + centers
        assert blocks == split(int((radius > 0).sum()), block)
        if rows is None:
            default = samples
            assert len(centers) == len(np.unique(dab))
            assert len(blocks) < (radius > 0).sum()
        else:
            assert samples == default


UNIT_BALLS = {
    "z2": lambda: cayley_ball(FreeAbelian(2), 6),
    "f2": lambda: cayley_ball(Free(2), 4),
    "heis": lambda: cayley_ball(Heisenberg(), 5),
    "random": lambda: build_ball(random_connected_edges(random.Random(7), 40),
                                 0, 40),
}


@pytest.mark.parametrize("name", sorted(UNIT_BALLS))
def test_unit_matrix_searches_match_the_unweighted_flag(name):
    """Dijkstra on the ball's unit matrix, plain and punctured, returns what
    it returned with `unweighted=True`: distances, predecessors and (with
    min_only) the nearest sources."""
    ball = UNIT_BALLS[name]()
    puncture = OldPuncture(ball.matrix)
    rng = random.Random(name)
    options = ({}, {"limit": 2}, {"min_only": True},
               {"min_only": True, "limit": 3})
    for _ in range(8):
        threshold = rng.choice([0.5, 1.0, 2.0])
        d_c, outside = forbidden_ball(ball, rng.randrange(ball.vertex_count),
                                      threshold)
        if not outside.size:
            continue
        sources = rng.sample(outside.tolist(), min(3, outside.size))
        for kw in options:
            for indices in (sources[0], sources):
                def with_and_without_flag(matrix):
                    return [dijkstra(matrix, directed=True, unweighted=flag,
                                     indices=indices, return_predecessors=True,
                                     **kw) for flag in (True, False)]

                runs = [with_and_without_flag(ball.matrix)]
                with puncture.without(d_c, threshold, sources) as cut:
                    runs.append(with_and_without_flag(cut))
                for want, got in runs:
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w)


def detour_lengths(ball, d_c, threshold, a, targets):
    """The length of the `punctured_paths` from a to each target around
    B_c(threshold), inf where there is no path."""
    paths = punctured_paths(*ball.csr_arrays, [a] * len(targets), targets,
                            [np.flatnonzero(d_c <= threshold)] * len(targets))
    return [math.inf if p is None else float(len(p) - 1) for p in paths]


DETOUR_BALLS = {
    "z2": lambda: cayley_ball(FreeAbelian(2), 6),
    "f2": lambda: cayley_ball(Free(2), 4),
    "cycle": lambda: cycle_ball(40),
}


@pytest.mark.parametrize("name", sorted(DETOUR_BALLS))
def test_detour_equals_naive_div_triple(name):
    ball = DETOUR_BALLS[name]()
    rng = random.Random(name)
    values = []
    for _ in range(80):
        a, b, c = rng.sample(range(ball.vertex_count), 3)
        d_c = dijkstra(ball.matrix, directed=True, indices=c)
        for delta, gamma in [(0.5, 0.0), (0.8, 1.0)]:
            threshold = delta * min(d_c[a], d_c[b]) - gamma
            if threshold <= 0:
                continue
            want = naive_div_triple(ball, a, b, c, delta, gamma)
            got, = detour_lengths(ball, d_c, threshold, a, [b])
            assert got == (math.inf if want is None else want)
            values.append((got, graph_distance(ball, a, b)))
    if name == "f2":  # a tree: a blocked geodesic cuts the pair apart
        assert any(math.isinf(v) for v, _ in values)
    else:
        assert any(math.isfinite(v) and v > d for v, d in values)


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
                    row = tuple_rows(ball)[v]
                    v = row[rng.randrange(len(row))]
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
        adjacency.append(tuple(rank[u] for u in tuple_rows(ball)[v] if u in rank))
    base = min(verts, key=lambda v: (ball.dist[v], v))
    dist = old_bfs_distances(adjacency, rank[base])
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
def test_bfs_distances_match_level_bfs(name):
    ball = LAYOUT_BALLS[name]()
    rng = random.Random(name)
    for mask in _vertex_masks(ball, len(name)):
        indptr, indices = csr_restrict(*ball.csr_arrays, mask)
        for source in {0, ball.vertex_count - 1,
                       rng.randrange(ball.vertex_count)}:
            old = old_csr_distances(indptr, indices, source)
            for cap in (None, 0, 1, 3):
                new = bfs_distances(unit_matrix(indptr, indices), source, cap)
                assert new.dtype == np.int64
                want = old if cap is None else np.where(old <= cap, old, -1)
                assert np.array_equal(new, want)


@pytest.mark.parametrize("name", sorted(LAYOUT_BALLS))
def test_csr_restrict_equals_inline_punctured_mask(name):
    ball = LAYOUT_BALLS[name]()
    rows, cols = old_directed_edges(ball)
    for mask in _vertex_masks(ball, 3 * len(name)):
        old = old_punctured_matrix(ball, rows, cols, mask)
        indptr, indices = csr_restrict(*ball.csr_arrays, mask)
        assert np.array_equal(indptr, old.indptr)
        assert np.array_equal(indices, old.indices)


@pytest.mark.parametrize("name", ["z2", "f2"])
@pytest.mark.parametrize("seed", range(5))
def test_punctured_rows_equal_restricted_rows(name, seed):
    ball = LAYOUT_BALLS[name]()
    puncture = OldPuncture(ball.matrix)
    rng = random.Random(seed)
    for mask in _vertex_masks(ball, seed):
        allowed = np.flatnonzero(mask).tolist()
        if not allowed:
            continue
        sources = rng.sample(allowed, min(4, len(allowed)))
        want = dijkstra(unit_matrix(*csr_restrict(*ball.csr_arrays, mask)),
                        directed=True, unweighted=True, indices=sources)
        # d_c = 1 on allowed vertices and 0 elsewhere forbids exactly the rest.
        d_c = mask.astype(float)
        with puncture.without(d_c, 0.5, sources) as cut:
            got = dijkstra(cut, directed=True, indices=sources)
        assert np.array_equal(got[:, :-1], want)
        assert detour_lengths(ball, d_c, 0.5, sources[0],
                              list(range(ball.vertex_count))) == want[0].tolist()


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
            (sub, members), (old_sub, old_labels) = new, old
            assert members.dtype == np.int64
            assert np.array_equal(members, old_labels)
            assert sub == old_sub
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

    rows = dijkstra(w.matrix, directed=True, indices=sources)[:, target_idx]
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
    "glued": (lambda: glued_ball(0, 7, 3), 1.0, range(1, 5)),
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


@pytest.mark.parametrize("name", ["f2", "product", "free-product", "glued", "file"])
@pytest.mark.parametrize("pair_cap", [250_000, 40])
def test_sphere_rows_match_direct_rows_per_source(name, pair_cap):
    # The rows the scan reads off its representatives' rows, source by
    # source and bit for bit, including the sampled sources of small caps.
    make, margin, radii = SCAN_BALLS[name]
    w = floyd_weighting(make(), FloydFunction.inverse_power(2))
    for r in radii:
        verts = sphere(w.ball, r).vertices
        n = len(verts)
        k = max(1, pair_cap // n)
        sources = np.array(sorted({verts[(i * n) // k] for i in range(min(k, n))}))
        targets = np.array(verts)
        rows = floyd_metric._sphere_rows(w, sources, targets)
        direct = dijkstra(w.matrix, directed=True, indices=sources)[:, targets]
        for s, row, want in zip(sources.tolist(), rows, direct):
            assert np.array_equal(row, want), (r, s)


def test_scan_differential_covers_symmetric_sampled_and_asymmetric_balls():
    orbits = {}
    for name, (make, _, radii) in SCAN_BALLS.items():
        ball = make()
        orbits[name] = [len(np.unique(ball.symmetry.orbit_min[ball.dist == r])) for r in radii]
    # Heisenberg spheres 1..3 have an orbit per vertex, every F_2 and Z * Z
    # sphere is one orbit, and the grid's S_r has floor(r / 2) + 1 orbits.
    assert orbits["heis"] == [4, 12, 36]
    assert orbits["f2"] == orbits["free-product"] == [1] * 6
    assert orbits["file"] == [r // 2 + 1 for r in range(1, 10)]
    make, margin, _ = SCAN_BALLS["f2"]
    w = floyd_weighting(make(), FloydFunction.inverse_power(2))
    assert not sphere_floyd_diameter(w, 6, margin=margin).exhaustive
    assert relabeled_file_ball().base != 0


# ----------------------------------------------------- quasi-geodesic check

def old_qg_certify(ball: GraphBall, path) -> float:
    """Least C >= 1 satisfying both quasi-geodesic inequalities for every
    pair of path positions.

    Each pair contributes two closed-form constraints, so the minimum is
    exact: the upper inequality gives C >= L/(d+1) and the lower one
    C >= (sqrt(L^2 + 4d) - L)/2 for subpath length L and distance d.
    """
    verts = quasigeodesic._vertices_of(path)
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
    # Row v holds the distances from v to every path position.
    at = np.array(verts)
    dist_from = {v: bfs_distances(unit_matrix(indptr, indices), v,
                                  cap=total)[at].tolist()
                 for v in set(verts)}
    c = 1.0
    for i in range(len(verts)):
        row = dist_from[verts[i]]
        for j in range(i + 1, len(verts)):
            sub = j - i
            d = row[j]
            c = max(c, sub / (d + 1))
            c = max(c, (math.sqrt(sub * sub + 4 * d) - sub) / 2)
    return c


@pytest.mark.parametrize("name", sorted(UNIT_BALLS))
def test_qg_certify_matches_pair_loop(name):
    """One multi-row Dijkstra and array arithmetic give the constant of the
    pair-by-pair loop bit for bit, on random walks (which revisit vertices
    and backtrack) and on geodesics."""
    ball = UNIT_BALLS[name]()
    rng = random.Random(name)
    indptr, indices = ball.csr_arrays
    bent = 0
    for _ in range(60):
        walk = [rng.randrange(ball.vertex_count)]
        for _ in range(rng.randrange(0, 25)):
            row = indices[indptr[walk[-1]]:indptr[walk[-1] + 1]]
            walk.append(int(row[rng.randrange(len(row))]))
        _, parent, _ = bfs_parents(indptr, indices, walk[0])
        for path in (walk, extract_path(parent, walk[-1])):
            new = qg_certify(ball, path)
            assert new == old_qg_certify(ball, path)
            bent += new > 1.0
    assert bent > 10


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
        _, parent = old_bfs_parents(tuple_rows(ball), u)
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
    dist, parent = old_punctured_bfs(tuple_rows(ball), [u],
                                     (ball.dist > rho).tolist())
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


# ---------------------------------------------------------------- escape rays

def old_escape_ray_search(ball, x, C, inner_radius, outer_radius):
    allowed = (ball.dist > inner_radius).tolist()
    targets = set(np.flatnonzero(ball.dist == outer_radius).tolist())
    if not targets:
        return None

    near = old_bfs_distances(tuple_rows(ball), x, cap=int(C))
    candidates = sorted(
        (d, v) for v, d in enumerate(near) if 0 <= d <= C and allowed[v])
    for _, start in candidates:
        witness = old_search_from(ball, start, C, allowed, targets)
        if witness is not None:
            return witness
    return None


def old_search_from(ball, start, C, allowed, targets):
    _, dist, parent = old_bfs(tuple_rows(ball), [start], allowed=allowed)
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
    dist_to_target = old_bfs(tuple_rows(ball), sorted(targets), allowed=allowed)[1]
    budget = shortest + int(2 * C)
    tried = 0

    def dfs(v, used, seen, trail):
        nonlocal tried
        if tried >= quasigeodesic.SLACK_PATHS:
            return None
        if v in targets:
            tried += 1
            c_here = qg_certify(ball, trail)
            if c_here <= C + 1e-12:
                return PathWitness(vertices=tuple(trail), certified_C=c_here)
            return None
        for w in tuple_rows(ball)[v]:
            if w in seen or not allowed[w] or dist_to_target[w] < 0:
                continue
            if used + 1 + dist_to_target[w] > budget:
                continue
            seen.add(w)
            trail.append(w)
            found = dfs(w, used + 1, seen, trail)
            trail.pop()
            seen.discard(w)
            if found is not None or tried >= quasigeodesic.SLACK_PATHS:
                return found
        return None

    return dfs(start, 0, {start}, [start])


ESCAPE_BALLS = {
    "z2": lambda: cayley_ball(FreeAbelian(2), 6),
    "f2": lambda: cayley_ball(Free(2), 4),
    "heis": lambda: cayley_ball(Heisenberg(), 5),
    **{f"random-{seed}": (lambda seed=seed: build_ball(random_connected_edges(
        random.Random(seed), 40), 0, 40)) for seed in range(6)},
}


def two_rail_ball():
    """`wind_and_rail_ball` with a mirror image 23..28 of the rail 11..16 and
    of its hub spokes 29..33, so that two chains certify at 1.2 and the
    backtracking search returns the one its row order reaches first."""
    ball = wind_and_rail_ball()
    edges = [(3, 23), (23, 24), (24, 25), (25, 26), (26, 27), (27, 28), (28, 10)]
    edges += [e for k in range(5) for e in ((1, 29 + k), (29 + k, 24 + k))]
    u, v = np.concatenate([np.array(ball.edge_arrays), np.array(edges).T], axis=1)
    indptr, indices = csr_from_edges(34, u, v)
    dist = bfs_distances(unit_matrix(indptr, indices), 0)
    return GraphBall(base=0, radius=int(dist.max()), indptr=indptr,
                     indices=indices, dist=dist)


def test_escape_ray_search_matches_list_based_search():
    # The gadgets' shortest route from 3 certifies only at 4/3, so at C = 1.3
    # the backtracking search finds the witness.
    cases = [(ball, 3, C, 1, 4) for ball in (wind_and_rail_ball(), two_rail_ball())
             for C in (1.0, 1.3, 1.4)]
    for name, make in ESCAPE_BALLS.items():
        ball = make()
        rng = random.Random(name)
        radius = int(ball.dist.max())
        for _ in range(12):
            inner = rng.choice([0, 0.5, 1, 1.5, 2])
            outside = np.flatnonzero(ball.dist > inner).tolist()
            if radius > inner:
                cases.append((ball, rng.choice(outside), rng.choice([1.0, 1.2, 1.5, 2.0]),
                              inner, radius))
    outcomes = set()
    for case in cases:
        new = escape_ray_search(*case)
        assert new == old_escape_ray_search(*case)
        outcomes.add("none" if new is None else
                     "geodesic" if new.certified_C == 1.0 else "bent")
    assert outcomes == {"none", "geodesic", "bent"}


# ------------------------------------------- one divergence center per orbit

class OldSinkSearches:
    """Unit-weight searches over one graph given as CSR arrays, built once
    per graph. Plain searches run on `matrix`. Punctured searches run on
    `cut`, a second matrix with the same rows plus an empty sink row V:
    each one points every slot that enters its forbidden ball at the sink,
    searches, and puts the slots back. A sink has no way out, so this is
    the graph minus the ball for every search that starts outside it."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.matrix = unit_matrix(indptr, indices)
        n, m = self.matrix.shape[0], self.matrix.nnz
        self.cut = sp.csr_matrix((self.matrix.data, self.matrix.indices.copy(),
                                  np.append(self.matrix.indptr, m)),
                                 shape=(n + 1, n + 1))
        # The slots whose column is v: by_column[col_start[v]:col_start[v + 1]].
        self.by_column = np.argsort(self.cut.indices, kind="stable")
        self.col_start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.cut.indices, minlength=n),
                  out=self.col_start[1:])

    def plain(self, sources, **kw) -> np.ndarray:
        return dijkstra(self.matrix, directed=True, unweighted=True,
                        indices=sources, **kw)

    @contextmanager
    def _puncture(self, d_c: np.ndarray, threshold: float, sources):
        """`cut` minus the closed ball B_c(threshold), the vertices with
        d_c <= threshold, while the with block runs."""
        if (d_c[sources] <= threshold).any():
            raise PreconditionViolated(
                "a punctured search starts inside its forbidden ball")
        inside = np.flatnonzero(d_c <= threshold)
        starts = self.col_start[inside]
        sizes = self.col_start[inside + 1] - starts
        ends = np.cumsum(sizes)
        slots = self.by_column[np.arange(sizes.sum())
                               + np.repeat(starts - ends + sizes, sizes)]
        indices = self.cut.indices
        indices[slots] = self.matrix.shape[0]
        try:
            yield self.cut
        finally:
            indices[slots] = np.repeat(inside, sizes)

    def punctured(self, d_c: np.ndarray, threshold: float,
                  sources) -> np.ndarray:
        """Distances from `sources` in the graph minus the closed ball
        B_c(threshold), one row per source."""
        with self._puncture(d_c, threshold, sources) as cut:
            dist = dijkstra(cut, directed=True, unweighted=True, indices=sources)
        return dist[:, :-1]

    def detour(self, d_c: np.ndarray, threshold: float, a: int, b: int) -> float:
        """Length of a shortest a-b path in the graph minus the closed ball
        B_c(threshold), inf when there is none: the hop count of b in one
        breadth-first search from a, which is exact at unit weight."""
        with self._puncture(d_c, threshold, [a]) as cut:
            _, pred = breadth_first_order(cut, a, directed=True,
                                          return_predecessors=True)
        path = extract_path(pred, b)
        return float(len(path) - 1) if path[0] == a else math.inf


def old_all_centers_exhaustive_estimate(ball, n_max, params, inner, n_min, seed):
    search = OldSinkSearches(*ball.csr_arrays)
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
    "free-product": (lambda: cayley_ball(FreeProduct(FreeAbelian(1), FreeAbelian(1)), 6),
                     1.5),
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


@pytest.mark.parametrize("name", ["f2", "product", "free-product", "glued"])
@pytest.mark.parametrize("delta,gamma", ENGINE_PARAMS)
def test_orbit_witnesses_match_all_centers_in_small_blocks(name, delta, gamma,
                                                           monkeypatch):
    # Witnesses picked over the images of each representative's triples at
    # every center of its orbit, one center's punctured rows per block.
    if name == "glued":
        ball, margin = glued_ball(0, 7, 3), 1.0
    else:
        ball, margin = orbit_ball(name)
    n_max = int(ball.radius / margin + 1e-9)
    inner = np.flatnonzero(ball.dist <= n_max)
    params = DivergenceParams(delta, gamma)
    monkeypatch.setattr(graph_core, "BLOCK_CELLS", len(inner))
    new = div_function_estimate(ball, n_max, params, protocol="exhaustive",
                                seed=2, margin=margin)
    old = old_all_centers_exhaustive_estimate(ball, n_max, params, inner, 1, 2)
    assert_same_samples(new, old)


def test_orbit_differential_covers_symmetric_asymmetric_and_cut_balls():
    centers = {}
    for name in ORBIT_BALLS:
        ball, margin = orbit_ball(name)
        inner = np.flatnonzero(ball.dist <= int(ball.radius / margin + 1e-9))
        centers[name] = (len(np.unique(ball.symmetry.orbit_min[inner])), len(inner))
    # One center per sphere on the trees; the grid's dihedral orbits; an
    # orbit per inner vertex on the Heisenberg balls.
    assert centers["f2"] == centers["engine-f2"] == (5, 161)
    assert centers["free-product"] == (5, 161)
    assert centers["z2"] == (36, 221) and centers["file"] == (16, 85)
    assert centers["heis"] == centers["engine-heis"] == (53, 53)
    assert orbit_ball("file")[0].base != 0
    tree = div_function_estimate(orbit_ball("f2")[0], 4, DivergenceParams(0.5, 0.0),
                                 protocol="exhaustive", margin=1.0)
    assert [s.is_infinite for s in tree] == [False, True, True, True]


def old_orbit_witnesses(group: np.ndarray, low: np.ndarray, key: np.ndarray,
                        a: np.ndarray, b: np.ndarray, c: int, radius: np.ndarray):
    """Per distinct `key` (a small nonnegative int), the smallest witness
    (min(ha, hb), max(ha, hb), hc) over every h in `group` and every triple
    (a[i], b[i], c) with that key, with the radius of the triple that gives
    it. Returns (key, lo, hi, c, radius) arrays, one entry per key.

    `low` is each vertex's smallest orbit image, so the least first entry
    of a key is lo* = min(low[a], low[b]) over its triples, and only
    triples with low[a] == lo* or low[b] == lo* are mapped through the
    group.
    """
    lo_orbit = np.minimum(low[a], low[b])
    lo_star = np.full(key.max() + 1, len(low))
    np.minimum.at(lo_star, key, lo_orbit)
    near = np.flatnonzero(lo_orbit == lo_star[key])
    key, radius = key[near], radius[near]
    ha, hb = group[:, a[near]], group[:, b[near]]
    g, i = np.nonzero(np.minimum(ha, hb) == lo_star[key])
    hi, hc, key = np.maximum(ha[g, i], hb[g, i]), group[g, c], key[i]
    order = np.lexsort((hc, hi, key))
    first = order[np.flatnonzero(np.diff(key[order], prepend=-1))]
    return (key[first], lo_star[key[first]], hi[first], hc[first],
            radius[i[first]])


def old_puncture_exhaustive_estimate(ball, n_max, params, inner, n_min, seed):
    """`divergence._exhaustive_estimate` as it was before `bfs_rows`
    (verbatim, `Puncture` renamed `OldPuncture`), on the group that
    `old_find_automorphisms` lists, its witnesses picked by
    `old_orbit_witnesses`: one multi-row Dijkstra over a sink-punctured copy
    of the matrix per center and forbidden radius."""
    puncture = OldPuncture(ball.matrix)
    d_inner = dijkstra(ball.matrix, directed=True, indices=inner)
    ambient = d_inner[:, inner]
    # A base-fixing automorphism h keeps every distance, so it maps the
    # inner region onto itself and the triples at c, with their values and
    # radii, onto the triples at h(c). Only the smallest vertex of each
    # orbit is scanned as a center; its winning triples are then turned
    # into the smallest witness over all their images.
    group = old_find_automorphisms(ball)
    low = group.min(axis=0)
    reps = np.unique(low[inner])
    best = np.full(n_max + 1, -1.0)  # largest value so far per d(a,b)
    d_inf = n_max + 1  # least d(a,b) of a disconnecting triple so far
    winners = []
    for ci, c in zip(np.searchsorted(inner, reps).tolist(), reps.tolist()):
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
            with puncture.without(d_c, key, inner[rows]) as cut:
                values[rows] = dijkstra(cut, directed=True,
                                        indices=inner[rows])[:, inner]
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
            dabs, *witness = old_orbit_witnesses(
                group, low, dab[tied], inner[ii[tied]], inner[jj[tied]], c,
                t[ii[tied]])
            winners.append((dabs, best[dabs], *witness))
    buckets = _Buckets(n_max)
    if winners:
        dab, value, lo, hi, hc, radius = map(np.concatenate, zip(*winners))
        buckets.offer(lo, hi, hc, dab, value, radius)
    return buckets.finalize(n_min, "exhaustive", seed)


# Rows per block of the exhaustive protocol's punctured searches: the
# default, one (a block ends after the first center with a punctured row),
# and 300 (two or three centers per block on the z2 case).
EXHAUSTIVE_BLOCKS = {"default": None, "one-row": 1, "300-rows": 300}


def exhaustive_blocks(ball, n_max, params, margin, rows, monkeypatch):
    """The exhaustive samples at `rows` rows per block (None: the default
    budget), and the (centers, rows) of each block of punctured searches.

    Center i is scanned once to collect its rows and once to fold them, so
    between the calls of blocks j - 1 and j the spy sees the folds of block
    j - 1 and then the centers of block j."""
    events = []
    triples, search = divergence._center_triples, divergence.bfs_rows

    def triples_spy(*args):
        events.append(None)
        return triples(*args)

    def search_spy(indptr, indices, sources, blocked=None, columns=None):
        if blocked is not None:
            events.append(len(sources))
        return search(indptr, indices, sources, blocked, columns)

    inner_size = int((ball.dist <= int(ball.radius / margin + 1e-9)).sum())
    with monkeypatch.context() as patch:
        if rows is not None:
            patch.setattr(graph_core, "BLOCK_CELLS", rows * inner_size)
        patch.setattr(divergence, "_center_triples", triples_spy)
        patch.setattr(divergence, "bfs_rows", search_spy)
        samples = div_function_estimate(ball, n_max, params, protocol="exhaustive",
                                        seed=2, margin=margin)
    blocks, seen, folds = [], 0, 0
    for event in events:
        if event is None:
            seen += 1
        else:
            blocks.append((seen - folds, event))
            folds, seen = seen - folds, 0
    return samples, blocks


@functools.cache
def old_exhaustive_samples(name, delta, gamma):
    ball, margin = orbit_ball(name)
    n_max = int(ball.radius / margin + 1e-9)
    inner = np.flatnonzero(ball.dist <= n_max)
    return old_puncture_exhaustive_estimate(
        ball, n_max, DivergenceParams(delta, gamma), inner, 1, 2)


@pytest.mark.parametrize("blocks", sorted(EXHAUSTIVE_BLOCKS))
@pytest.mark.parametrize("name", sorted(ORBIT_BALLS))
@pytest.mark.parametrize("delta,gamma", ENGINE_PARAMS)
def test_exhaustive_blocks_match_puncture_code(name, delta, gamma, blocks,
                                               monkeypatch):
    ball, margin = orbit_ball(name)
    n_max = int(ball.radius / margin + 1e-9)
    new, _ = exhaustive_blocks(ball, n_max, DivergenceParams(delta, gamma),
                               margin, EXHAUSTIVE_BLOCKS[blocks], monkeypatch)
    old = old_exhaustive_samples(name, delta, gamma)
    assert len(old) == n_max
    assert_same_samples(new, old)


def test_exhaustive_blocks_split_after_one_center_and_mid_list(monkeypatch):
    ball, margin = orbit_ball("z2")
    params = DivergenceParams(0.5, 0.0)
    split = {name: exhaustive_blocks(ball, 10, params, margin, rows, monkeypatch)[1]
             for name, rows in EXHAUSTIVE_BLOCKS.items()}
    # Each budget collects each of the 36 centers once, with all its rows.
    for blocks in split.values():
        centers, rows = np.sum(blocks, axis=0)
        assert centers == 36 and rows == np.sum(split["default"], axis=0)[1]
    # One row: every center here has punctured rows, and ends its block.
    assert [centers for centers, _ in split["one-row"]] == [1] * 36
    # 300 rows and the default: several blocks of several centers.
    for name in ("300-rows", "default"):
        assert len(split[name]) > 1
        assert max(centers for centers, _ in split[name]) > 1


def test_exhaustive_runs_one_center_per_orbit(monkeypatch):
    ball, margin = orbit_ball("z2")
    inner = np.flatnonzero(ball.dist <= 10)
    centers = set()
    triples = divergence._center_triples

    def spy(ra, *args):
        centers.add(int(inner[np.flatnonzero(ra == 0)[0]]))
        return triples(ra, *args)

    monkeypatch.setattr(divergence, "_center_triples", spy)
    div_function_estimate(ball, 10, DivergenceParams(0.5, 0.0),
                          protocol="exhaustive", margin=margin)
    orbits = python_orbits(ball, ball.symmetry.moves)
    assert len(centers) == 36
    assert all(c == min(orbits[c]) for c in centers)


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
def test_orbits_coarsen_the_listed_group(name, cap, monkeypatch):
    monkeypatch.setattr(graph_core, "GROUP_CAP", cap)
    ball = GROUP_BALLS[name]()
    symmetry = graph_core.find_automorphisms(ball)
    check_automorphism_generators(ball, symmetry.moves)
    group = old_find_automorphisms(ball)
    low = symmetry.orbit_min
    # Every image of v under the listed group shares v's orbit.
    assert (low[group] == low).all()
    assert low.tolist() == [min(o) for o in python_orbits(ball, symmetry.moves)]
    if name in ("z2", "z3"):
        # No twins: the maps of S_1 alone, as before.
        assert np.array_equal(low, group.min(axis=0))


MEMBER_BALLS = {
    **GROUP_BALLS,
    **{f"random-{seed}": (lambda seed=seed: build_ball(
        random_connected_edges(random.Random(seed), 15), 0, 15)) for seed in range(6)},
    **{f"glued-{seed}": (lambda seed=seed: glued_ball(seed, 6, 2 + seed % 3))
       for seed in range(6)},
}


@pytest.mark.parametrize("name", sorted(MEMBER_BALLS))
def test_orbit_members_equal_a_stable_argsort_grouping(name):
    ball = MEMBER_BALLS[name]()
    symmetry = ball.symmetry
    low = symmetry.orbit_min
    by_orbit = np.argsort(low, kind="stable")
    group = {r: by_orbit[low[by_orbit] == r].tolist() for r in np.unique(low).tolist()}
    rng = random.Random(name)
    every = sorted(group)
    for orbits in (every, [rng.choice(every) for _ in range(7)], []):
        members, sizes = symmetry.orbit_members(orbits)
        assert members.dtype == np.int32
        assert sizes.tolist() == [len(group[r]) for r in orbits]
        assert members.tolist() == [v for r in orbits for v in group[r]]
        # An orbit lies in one sphere, so a union of spheres holds it.
        assert np.array_equal(ball.dist[members], ball.dist[np.repeat(np.array(orbits, dtype=int), sizes)])
    assert np.array_equal(symmetry.orbit_members(every)[0], by_orbit)


def test_group_cap_rolls_back_a_group_that_does_not_fit(monkeypatch):
    ball = cayley_ball(FreeAbelian(2), 6)
    full = ball.symmetry.orbit_min
    # Under a cap of 4 the closures that would pass it are dropped by
    # size: the orbits are unions of fewer images, inside the full ones.
    monkeypatch.setattr(graph_core, "GROUP_CAP", 4)
    capped = graph_core.find_automorphisms(ball)
    check_automorphism_generators(ball, capped.moves)
    assert capped.moves
    assert len(np.unique(capped.orbit_min)) > len(np.unique(full))
    assert np.array_equal(full[capped.orbit_min], full)
    # The closure of actions on S_1 positions, as a set of tuples: None
    # once it would pass the cap.
    flip, turn = (1, 0, 2, 3), (1, 2, 3, 0)
    assert graph_core._closure([flip], 4) == {(0, 1, 2, 3), flip}
    assert graph_core._closure([flip, turn], 4) is None
    assert graph_core._closure([flip, (1, 0, 3, 2)], 4) == {
        (0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)}
    # flip and turn generate all 24 permutations of four positions.
    monkeypatch.setattr(graph_core, "GROUP_CAP", 24)
    assert graph_core._closure([flip, turn], 4) == set(itertools.permutations(range(4)))
    monkeypatch.setattr(graph_core, "GROUP_CAP", 23)
    assert graph_core._closure([flip, turn], 4) is None
