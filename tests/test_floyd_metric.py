import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floydlab.errors import (
    ConditionAViolated,
    RadiusOutOfMargin,
    SampleExhausted,
    TableExhausted,
)
from floydlab import floyd_metric
from floydlab.floyd_metric import (
    FloydFunction,
    _sphere_rows,
    check_sublinearity,
    floyd_distance,
    floyd_weighting,
    karlsson_set_estimate,
    parse_floyd,
    sphere_diameter_trend,
    sphere_floyd_diameter,
    validate_floyd_function,
)
from floydlab.graph_core import (
    _Layering,
    build_ball,
    is_automorphism,
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
    cayley_ball_labeled,
)

from helpers import (
    check_automorphism_group,
    graph_distance,
    min_floyd_over_simple_paths,
    random_connected_edges,
    random_small_ball,
    vertex_of,
)

INVPOW2 = FloydFunction.inverse_power(2)


def test_eval_zero_convention():
    assert INVPOW2.value(0) == 1.0
    assert INVPOW2.value(3) == pytest.approx(1 / 9, abs=0)
    assert FloydFunction.exponential(0.5).value(4) == 0.0625
    table = FloydFunction.custom_table([0.5, 0.25])
    assert table.value(0) == table.value(1) == 0.5
    with pytest.raises(TableExhausted):
        table.value(3)


def test_constructor_validation():
    with pytest.raises(ValueError):
        FloydFunction.inverse_power(1.0)
    with pytest.raises(ValueError):
        FloydFunction.exponential(1.0)
    with pytest.raises(ValueError):
        FloydFunction.custom_table([1.0, 0.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite positive"):
            FloydFunction.custom_table([1.0, bad])
        with pytest.raises(ValueError, match="finite p > 1"):
            FloydFunction.inverse_power(bad)


def test_validate_builtins():
    rep = validate_floyd_function(INVPOW2, 50)
    assert rep.K_observed == 4.0
    assert rep.condition_a_ok
    assert rep.condition_b_certificate == "analytic"
    assert not rep.unverified_tail
    rep = validate_floyd_function(FloydFunction.exponential(0.5), 50)
    assert rep.K_observed == 2.0
    rep = validate_floyd_function(FloydFunction.inverse_square_plus_one(), 50)
    assert rep.K_observed == 2.5


def test_validate_table_partial_sum_only():
    f = FloydFunction.custom_table([1.0, 0.5, 0.25, 0.125, 0.0625])
    rep = validate_floyd_function(f, 4)
    assert rep.condition_b_certificate == "partial-sum-only"
    assert rep.unverified_tail
    assert rep.K_observed == 2.0


def test_validate_rejects_increasing_table():
    with pytest.raises(ConditionAViolated):
        validate_floyd_function(FloydFunction.custom_table([1, 2, 1]), 2)


@given(st.floats(1.01, 6), st.integers(2, 60))
@settings(max_examples=50, deadline=None)
def test_condition_a_holds_for_inverse_power(p, check_range):
    f = FloydFunction.inverse_power(p)
    rep = validate_floyd_function(f, check_range)
    assert 1.0 <= rep.K_observed <= f.K + 1e-12


def test_sublinearity_sequences():
    rep = check_sublinearity(INVPOW2, 100)
    assert rep.values[0] == 1.0
    assert rep.values[-1] == pytest.approx(0.01)
    assert rep.tending_to_zero
    rep = check_sublinearity(FloydFunction.exponential(0.5), 30)
    assert rep.values[-1] < 1e-6
    assert rep.tending_to_zero
    rep = check_sublinearity(FloydFunction.inverse_power(1.01), 1000)
    assert all(b < a for a, b in zip(rep.values, rep.values[1:]))


def test_weighting_path_example():
    ball = build_ball([(0, 1), (1, 2), (2, 3)], 0, 3)
    w = floyd_weighting(ball, INVPOW2)
    # One weight per CSR entry: rows 0: [1], 1: [0, 2], 2: [1, 3], 3: [2].
    assert w.weights.tolist() == [1.0, 1.0, 1.0, 1.0, 0.25, 0.25]
    assert floyd_distance(w, 0, 3) == pytest.approx(2.25, abs=1e-12)
    assert w.path_length([3, 2, 1, 0]) == w.path_length([0, 1, 2, 3]) == 2.25
    assert w.path_length([2]) == 0
    for step in ([0, 2], [3, 0], [1, 1]):
        with pytest.raises(KeyError):
            w.path_length(step)


def test_weighting_uses_min_endpoint_distance():
    # 6-cycle, base 0: edge base distances are 0,1,2,2,1,0.
    ball = build_ball([(i, (i + 1) % 6) for i in range(6)], 0, 3)
    w = floyd_weighting(ball, INVPOW2)
    dist = ball.dist.tolist()
    for u, v, weight in zip(ball.slot_rows, ball.indices, w.weights):
        assert weight == INVPOW2.value(min(dist[u], dist[v]))
    assert sorted(w.weights.tolist()) == [0.25] * 4 + [1.0] * 8


def test_weighting_needs_table_only_through_radius_minus_one():
    # Z^2 is bipartite, so no edge joins two outer-sphere vertices and the
    # largest edge index is radius - 1: a table ending at f(radius - 1) works.
    ball = cayley_ball(FreeAbelian(2), 5)
    short = FloydFunction.custom_table([INVPOW2.value(n) for n in range(1, 5)])
    w = floyd_weighting(ball, short)
    assert w.weights.tolist() == floyd_weighting(ball, INVPOW2).weights.tolist()
    # On a 5-cycle the two outer-sphere vertices are adjacent and need f(2).
    odd = build_ball([(i, (i + 1) % 5) for i in range(5)], 0, 2)
    with pytest.raises(TableExhausted):
        floyd_weighting(odd, FloydFunction.custom_table([1.0]))
    assert floyd_weighting(odd, FloydFunction.custom_table([1.0, 0.5])).weights.min() == 0.5


def test_base_edge_gets_f0():
    ball = build_ball([(0, 1)], 0, 1)
    f = FloydFunction.exponential(0.25)
    w = floyd_weighting(ball, f)
    assert w.weights.tolist() == [f.value(1)] * 2


def test_weights_nonincreasing_outward(z2_small):
    ball, _ = z2_small
    w = floyd_weighting(ball, INVPOW2)
    dist = ball.dist.tolist()

    def weight(x, y):
        return INVPOW2.value(min(dist[x], dist[y]))

    for u, v in zip(*(a.tolist() for a in ball.edge_arrays)):
        assert w.path_length([u, v]) == w.path_length([v, u]) == weight(u, v)
        if dist[v] != dist[u] + 1:
            continue
        for t in ball.adjacency[v]:
            if dist[t] == dist[v] + 1:
                assert weight(v, t) <= weight(u, v)


def test_floyd_distance_identity_and_symmetry(z2_small):
    ball, _ = z2_small
    w = floyd_weighting(ball, INVPOW2)
    assert floyd_distance(w, 5, 5) == 0.0
    assert floyd_distance(w, 0, 7) == pytest.approx(floyd_distance(w, 7, 0), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_floyd_distance_matches_simple_path_oracle(seed):
    rng = random.Random(seed)
    ball = random_small_ball(rng)
    f = FloydFunction.inverse_power(2) if seed % 2 else FloydFunction.exponential(0.5)
    w = floyd_weighting(ball, f)
    for u in range(ball.vertex_count):
        for v in range(u, ball.vertex_count):
            assert floyd_distance(w, u, v) == pytest.approx(
                min_floyd_over_simple_paths(w, u, v), abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_floyd_distance_metric_and_bound(seed):
    ball = random_small_ball(random.Random(seed))
    w = floyd_weighting(ball, INVPOW2)
    n = ball.vertex_count
    d = [[floyd_distance(w, u, v) for v in range(n)] for u in range(n)]
    for u in range(n):
        for v in range(n):
            assert d[u][v] == pytest.approx(d[v][u], abs=1e-12)
            assert d[u][v] <= graph_distance(ball, u, v) * INVPOW2.value(0) + 1e-12
            for t in range(n):
                assert d[u][t] <= d[u][v] + d[v][t] + 1e-12


def test_monotone_in_function(z2_small):
    ball, _ = z2_small
    f = FloydFunction.inverse_power(2)
    g = FloydFunction.inverse_power(1.5)  # g >= f pointwise
    wf = floyd_weighting(ball, f)
    wg = floyd_weighting(ball, g)
    rng = random.Random(7)
    for _ in range(40):
        u = rng.randrange(ball.vertex_count)
        v = rng.randrange(ball.vertex_count)
        assert floyd_distance(wf, u, v) <= floyd_distance(wg, u, v) + 1e-12


def test_scaling_multiplies_distances(z2_small):
    ball, _ = z2_small
    scale = 3.5
    base = [INVPOW2.value(n) for n in range(1, ball.radius + 2)]
    scaled = FloydFunction.custom_table([scale * x for x in base])
    w1 = floyd_weighting(ball, INVPOW2)
    w2 = floyd_weighting(ball, scaled)
    rng = random.Random(11)
    for _ in range(25):
        u = rng.randrange(ball.vertex_count)
        v = rng.randrange(ball.vertex_count)
        assert floyd_distance(w2, u, v) == pytest.approx(
            scale * floyd_distance(w1, u, v), rel=1e-12)
    d1 = sphere_floyd_diameter(w1, 2)
    d2 = sphere_floyd_diameter(w2, 2)
    assert d1.witness == d2.witness
    assert d2.diameter == pytest.approx(scale * d1.diameter, rel=1e-12)


def test_tree_distance_is_unique_path_sum(f2_small):
    ball, elements = f2_small
    w = floyd_weighting(ball, INVPOW2)
    m = Free(2)
    pairs = [("aaa", "bbb"), ("ab", "aB"), ("aa", "ab"), ("babab", "b")]
    for left, right in pairs:
        u = vertex_of(m, elements, m.word(left))
        v = vertex_of(m, elements, m.word(right))
        lw, rw = m.word(left), m.word(right)
        k = 0
        while k < min(len(lw), len(rw)) and lw[k] == rw[k]:
            k += 1
        expected = (sum(INVPOW2.value(n) for n in range(k, len(lw)))
                    + sum(INVPOW2.value(n) for n in range(k, len(rw))))
        assert floyd_distance(w, u, v) == pytest.approx(expected, abs=1e-12)


def test_sphere_diameter_zero_radius(z2_small):
    ball, _ = z2_small
    w = floyd_weighting(ball, INVPOW2)
    res = sphere_floyd_diameter(w, 0, margin=3.0)
    assert res.diameter == 0.0
    assert res.witness == (0, 0)


def test_sphere_diameter_tree_oracle(f2_small):
    ball, _ = f2_small
    w = floyd_weighting(ball, INVPOW2)
    for r in range(1, 7):
        expected = 2 * sum(INVPOW2.value(k) for k in range(r))
        res = sphere_floyd_diameter(w, r, margin=1.0)
        assert res.diameter == pytest.approx(expected, abs=1e-12)
        dist = ball.dist.tolist()
        assert dist[res.witness[0]] == dist[res.witness[1]] == r


def test_sphere_diameter_margin_policy(z2_small):
    ball, _ = z2_small
    w = floyd_weighting(ball, INVPOW2)
    with pytest.raises(RadiusOutOfMargin):
        sphere_floyd_diameter(w, 4, margin=3.0)
    for margin in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="margin must be a finite real >= 1"):
            sphere_floyd_diameter(w, 0, margin=margin)
    res = sphere_floyd_diameter(w, 2, margin=3.0)
    assert res.diameter > 0


def test_sphere_diameter_sampling_matches_exhaustive_on_tree(f2_small):
    ball, _ = f2_small
    w = floyd_weighting(ball, INVPOW2)
    full = sphere_floyd_diameter(w, 5, margin=1.0)
    sampled = sphere_floyd_diameter(w, 5, margin=1.0, pair_cap=400)
    assert full.exhaustive and not sampled.exhaustive
    assert sampled.diameter == pytest.approx(full.diameter, abs=1e-12)


def test_z2_diameters_decrease(z2_mid):
    ball, _ = z2_mid
    w = floyd_weighting(ball, INVPOW2)
    vals = [sphere_floyd_diameter(w, r, margin=3.0).diameter for r in range(2, 6)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_z2_diameter_regression_fixture():
    # Frozen values from the oracle-validated shortest-path machinery on the
    # radius-48 ball; the ratio is the thick-side signature (about 1/4).
    ball = cayley_ball(FreeAbelian(2), 48)
    w = floyd_weighting(ball, INVPOW2)
    d4 = sphere_floyd_diameter(w, 4, margin=3.0)
    d16 = sphere_floyd_diameter(w, 16, margin=3.0)
    assert d4.diameter == pytest.approx(0.5331125901094858, abs=1e-9)
    assert d16.diameter == pytest.approx(0.12666839735699145, abs=1e-9)
    assert d16.diameter / d4.diameter == pytest.approx(0.2376, abs=1e-3)


def test_free_product_contrast_non_vanishing():
    # Z^2 * Z is the relatively hyperbolic contrast case: between points in
    # different factors every path passes the identity, so sphere diameters
    # approach a positive limit instead of vanishing.
    from floydlab.group_models import parse_model

    ball = cayley_ball(parse_model("freeprod:zn:2,zn:1"), 7)
    w = floyd_weighting(ball, INVPOW2)
    diams = [(r, sphere_floyd_diameter(w, r, margin=1.75, pair_cap=20_000).diameter)
             for r in range(2, 5)]
    values = [d for _, d in diams]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(v >= 4.0 for v in values)
    assert sphere_diameter_trend(diams) == "non-vanishing"


def test_trend_verdicts():
    assert sphere_diameter_trend([(2, 1.0), (3, 0.5), (4, 0.2)]) == "vanishing"
    assert sphere_diameter_trend([(2, 4.0), (3, 4.5), (4, 4.7)]) == "non-vanishing"
    assert sphere_diameter_trend([(2, 1.0), (3, 1.5), (4, 0.2)]) == "inconclusive"
    assert sphere_diameter_trend([(2, 1.0), (3, 0.9)]) == "inconclusive"


def test_karlsson_tree_tail_bound(f2_small):
    ball, _ = f2_small
    w = floyd_weighting(ball, INVPOW2)
    est = karlsson_set_estimate(w, C=1.0, epsilon=0.5, samples=300, seed=3)
    # Tree geodesics avoiding B(rho) have Floyd length <= 2 * tail sum of f
    # beyond rho; the smallest rho with 2*tail < 0.5 is 5.
    tail_ok = next(r for r in range(1, 50)
                   if 2 * sum(INVPOW2.value(k) for k in range(r, 2000)) < 0.5)
    assert tail_ok == 5
    assert 0 < est.radius <= tail_ok
    assert est.segments_used >= 250


def test_karlsson_huge_epsilon_gives_zero(f2_small):
    ball, _ = f2_small
    w = floyd_weighting(ball, INVPOW2)
    est = karlsson_set_estimate(w, C=1.0, epsilon=1e6, samples=50, seed=1)
    assert est.radius == 0
    assert est.bad_segments == 0


def test_karlsson_self_consistent_resample(z2_mid):
    from floydlab.graph_core import bfs_parents, extract_path

    ball, _ = z2_mid
    w = floyd_weighting(ball, INVPOW2)
    epsilon = 0.75
    est = karlsson_set_estimate(w, C=1.0, epsilon=epsilon, samples=400, seed=5)
    # Fresh geodesics that avoid the estimated ball must all measure < epsilon.
    rng = random.Random(1234)
    checked = 0
    for _ in range(400):
        u = rng.randrange(ball.vertex_count)
        v = rng.randrange(ball.vertex_count)
        if u == v:
            continue
        _, parent = bfs_parents(ball.adjacency, u)
        path = extract_path(parent, v)
        if min(ball.dist[x] for x in path) > est.radius:
            checked += 1
            assert w.path_length(path) < epsilon
    assert checked > 0


def test_karlsson_sample_exhausted():
    w = floyd_weighting(single_vertex_ball(), INVPOW2)
    with pytest.raises(SampleExhausted):
        karlsson_set_estimate(w, C=1.0, epsilon=0.5, samples=10, seed=0)


def test_parse_floyd(tmp_path):
    assert parse_floyd("invpow:2").kind == "inverse_power"
    assert parse_floyd("exp:0.5").lam == 0.5
    assert parse_floyd("invsq1").kind == "inverse_square_plus_one"
    table = tmp_path / "t.txt"
    table.write_text("1.0\n0.25\n0.125\n")
    f = parse_floyd(f"table:{table}")
    assert f.table == (1.0, 0.25, 0.125)
    with pytest.raises(ValueError):
        parse_floyd("nope:1")
    with pytest.raises(ValueError, match="finite p > 1"):
        parse_floyd("invpow:inf")
    table.write_text("1.0\n\n0.5\nnan\n")
    with pytest.raises(ValueError, match=r"line 4: expected a finite positive real, got 'nan'"):
        parse_floyd(f"table:{table}")


def test_floyd_weighting_equality(z2_small):
    ball, _ = z2_small
    a, b = floyd_weighting(ball, INVPOW2), floyd_weighting(ball, INVPOW2)
    assert a == b and hash(a) == hash(b)
    assert a != floyd_weighting(ball, FloydFunction.exponential(0.5))
    assert a != floyd_weighting(cayley_ball(FreeAbelian(2), 4), INVPOW2)
    assert a != "weighting"


def two_pentagons():
    """Two 5-cycles through the base: the automorphism group has order 8,
    and swapping the far ends of one pair of S_1 vertices extends layer by
    layer but breaks an edge inside S_2."""
    return build_ball([(0, 1), (1, 5), (5, 6), (6, 2), (2, 0),
                       (0, 3), (3, 7), (7, 8), (8, 4), (4, 0)], 0, 2)


@pytest.mark.parametrize("model,radius,order", [
    (FreeAbelian(2), 6, 8), (Free(2), 4, 24), (FreeAbelian(3), 4, 48),
    (Heisenberg(), 6, 1)])
def test_group_orders(model, radius, order):
    ball = cayley_ball(model, radius)
    assert ball.automorphisms.shape == (order, ball.vertex_count)
    assert ball.automorphisms.dtype == np.int32
    assert not ball.automorphisms.flags.writeable
    check_automorphism_group(ball, ball.automorphisms)


ORACLE_BALLS = {
    "product": lambda: cayley_ball(DirectProduct(FreeAbelian(1), Free(2)), 3),
    "free-product": lambda: cayley_ball(FreeProduct(FreeAbelian(1), Free(1)), 4),
    "pentagons": two_pentagons,
    "single": single_vertex_ball,
    **{f"random-{seed}": (lambda seed=seed: build_ball(random_connected_edges(
        random.Random(seed), 12), 0, 12)) for seed in range(20)},
}


@pytest.mark.parametrize("name", sorted(ORACLE_BALLS))
def test_automorphisms_pass_the_set_oracle(name):
    ball = ORACLE_BALLS[name]()
    check_automorphism_group(ball, ball.automorphisms)
    assert not ball.automorphisms.flags.writeable
    # orbit_min[v] is an image of v, and no image of v is smaller.
    group, low = ball.automorphisms, ball.orbit_min
    assert not low.flags.writeable
    assert (group == low).any(axis=0).all()
    assert (group >= low).all()


def test_verification_rejects_maps_that_extend():
    ball = two_pentagons()
    assert len(ball.automorphisms) == 8
    s1 = np.flatnonzero(ball.dist == 1)
    layering = _Layering(ball)
    extended = [layering.extend(ball.base, s1, images)
                for images in itertools.permutations(s1.tolist())]
    assert sum(p is not None for p in extended) == 24
    assert sum(p is not None and is_automorphism(ball, p) for p in extended) == 8


def test_is_automorphism_rejects_non_maps():
    ball = cayley_ball(FreeAbelian(2), 3)
    n = ball.vertex_count
    assert is_automorphism(ball, np.arange(n))
    assert not is_automorphism(ball, np.arange(n - 1))
    assert not is_automorphism(ball, np.zeros(n, dtype=np.int64))
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]
    assert not is_automorphism(ball, swap)  # moves the base
    swap = np.arange(n)
    swap[[1, n - 1]] = [n - 1, 1]
    assert not is_automorphism(ball, swap)  # breaks edges


def test_is_automorphism_takes_int32_maps_of_large_balls():
    # 51,521 vertices: an edge key min * n + max passes 2^31 in int32.
    radius = 160
    ball, elements = cayley_ball_labeled(FreeAbelian(2), radius)
    xy = np.array(elements, dtype=np.int64)
    index = np.full((2 * radius + 1, 2 * radius + 1), -1, dtype=np.int64)
    index[xy[:, 0] + radius, xy[:, 1] + radius] = np.arange(len(xy))
    maps = {"swap": (xy[:, 1], xy[:, 0]), "flip": (-xy[:, 0], xy[:, 1]),
            "turn": (-xy[:, 1], xy[:, 0])}
    for name, (x, y) in maps.items():
        perm = index[x + radius, y + radius].astype(np.int32)
        assert is_automorphism(ball, perm), name
        broken = perm.copy()
        broken[[1, len(perm) - 1]] = broken[[len(perm) - 1, 1]]
        assert not is_automorphism(ball, broken), name


ROW_BALLS = {
    "z2": lambda: cayley_ball(FreeAbelian(2), 10),
    "f2": lambda: cayley_ball(Free(2), 5),
    "z3": lambda: cayley_ball(FreeAbelian(3), 5),
    "product": lambda: cayley_ball(DirectProduct(FreeAbelian(1), Free(2)), 4),
    "free-product": lambda: cayley_ball(FreeProduct(FreeAbelian(1), FreeAbelian(1)), 5),
}


@pytest.mark.parametrize("name", sorted(ROW_BALLS))
@pytest.mark.parametrize("floyd", ["invpow:2", "exp:0.5"])
def test_gathered_rows_equal_direct_rows(name, floyd):
    from scipy.sparse.csgraph import dijkstra

    ball = ROW_BALLS[name]()
    w = floyd_weighting(ball, parse_floyd(floyd))
    assert len(ball.automorphisms) > 1
    for r in range(1, ball.radius + 1):
        verts = np.array(sphere(ball, r).vertices)
        for sources in (verts, verts[1::3]):
            direct = dijkstra(w.matrix, directed=True, indices=sources)[:, verts]
            block = _sphere_rows(w, sources, verts)
            assert np.array_equal(block, direct)  # bit for bit


def test_floyd_distance_is_not_symmetric_in_the_last_place():
    # Why the scan reduces sources only: swapping s and t may change d(s, t).
    ball = cayley_ball(FreeAbelian(2), 10)
    w = floyd_weighting(ball, INVPOW2)
    verts = np.array(sphere(ball, 3).vertices)
    block = _sphere_rows(w, verts, verts)
    assert not np.array_equal(block, block.T)
    assert np.allclose(block, block.T, rtol=1e-12, atol=0)


def test_scan_runs_one_row_per_orbit(monkeypatch):
    ball = cayley_ball(FreeAbelian(2), 12)
    w = floyd_weighting(ball, INVPOW2)
    rows = []
    dijkstra = floyd_metric.dijkstra

    def counted(*args, indices, **kwargs):
        rows.append(list(indices))
        return dijkstra(*args, indices=indices, **kwargs)

    monkeypatch.setattr(floyd_metric, "dijkstra", counted)
    results = [sphere_floyd_diameter(w, r, margin=3.0) for r in range(1, 5)]
    # The dihedral orbits of the Z^2 sphere S_r: floor(r / 2) + 1 of them,
    # each scanned from its smallest vertex.
    assert [len(reps) for reps in rows] == [r // 2 + 1 for r in range(1, 5)]
    for r, reps in zip(range(1, 5), rows):
        assert reps == sorted({int(ball.automorphisms[:, s].min())
                               for s in sphere(ball, r).vertices})
    assert [res.sources_used for res in results] == [4, 8, 12, 16]

    # A sampled radius: pair_cap 32 keeps the sources S_4[0] and S_4[8],
    # and the orbit minimum of one of them is not a source.
    rows.clear()
    sampled = sphere_floyd_diameter(w, 4, margin=3.0, pair_cap=32)
    sources = sphere(ball, 4).vertices[::8]
    assert sampled.sources_used == len(sources) == 2
    reps = sorted({int(ball.orbit_min[s]) for s in sources})
    assert rows == [reps]
    assert not set(reps) <= set(sources)
