import math
import random

import pytest

from floydlab.errors import BadRadii, NonPath, SegmentTooLong
from floydlab.graph_core import bfs_parents, build_ball, extract_path
from floydlab.group_models import (
    DirectProduct,
    Free,
    FreeAbelian,
    Heisenberg,
    cayley_ball,
    cayley_ball_labeled,
)
from floydlab.quasigeodesic import (
    PathWitness,
    escape_constants,
    escape_ray_search,
    format_witness,
    qg_certify,
    wideness_probe,
)

from helpers import graph_distance, neighbors, vertex_of, wind_and_rail_ball


def cycle_ball(d):
    n = 2 * d + 2
    return build_ball([(i, (i + 1) % n) for i in range(n)], 0, d + 1)


def cycle_walk(ball, length):
    """Walk `length` edges around a cycle ball starting at the base."""
    path = [0]
    prev = None
    for _ in range(length):
        nxt = [u for u in neighbors(ball, path[-1]) if u != prev]
        prev = path[-1]
        path.append(nxt[0])
    return path


def test_geodesics_certify_at_one():
    rng = random.Random(0)
    for model in (FreeAbelian(2), Free(2), Heisenberg()):
        ball = cayley_ball(model, 5)
        for _ in range(10):
            u = rng.randrange(ball.vertex_count)
            v = rng.randrange(ball.vertex_count)
            _, parent, _ = bfs_parents(*ball.csr_arrays, u)
            path = extract_path(parent, v)
            assert qg_certify(ball, path) == 1.0


def test_single_vertex_path():
    ball = build_ball([(0, 1)], 0, 1)
    assert qg_certify(ball, [0]) == 1.0


def test_detour_fixture_exact():
    # Around a cycle: length d+2 between endpoints at distance d; the only
    # binding pair is the endpoints, giving exactly (d+2)/(d+1).
    for d in range(2, 11):
        ball = cycle_ball(d)
        path = cycle_walk(ball, d + 2)
        assert graph_distance(ball, path[0], path[-1]) == d
        assert qg_certify(ball, path) == (d + 2) / (d + 1)


def test_certified_constant_is_binding():
    d = 4
    ball = cycle_ball(d)
    path = cycle_walk(ball, d + 2)
    c = qg_certify(ball, path)
    binding = 0
    for i in range(len(path)):
        for j in range(i + 1, len(path)):
            sub = j - i
            dist = graph_distance(ball, path[i], path[j])
            assert sub <= c * dist + c + 1e-12
            assert dist / c - c <= sub + 1e-12
            if math.isclose(sub, c * dist + c):
                binding += 1
    assert binding >= 1


def test_nonpath_rejected():
    ball = build_ball([(0, 1), (1, 2)], 0, 2)
    with pytest.raises(NonPath):
        qg_certify(ball, [0, 2])


def test_loop_path_bounded_by_loop_length():
    ball = cycle_ball(1)  # 4-cycle
    path = cycle_walk(ball, 4)
    assert path[0] == path[-1] == 0
    assert qg_certify(ball, path) == 4.0


def test_escape_constants_closed_form():
    res = escape_constants(1.0)
    assert res.K == 4.0
    assert res.R == 8.0
    res2 = escape_constants(2.0)
    assert res2.R == pytest.approx(32 / 3, abs=1e-12)
    with pytest.raises(ValueError):
        escape_constants(0.5)


@pytest.mark.parametrize("C", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_escape_inequality_strict_on_grid(C):
    res = escape_constants(C)
    k = res.K
    r = res.R + 0.5
    while r <= res.R + 100:
        assert 2 * r / k + C < ((k * C - 1) / (k * C)) * r - C
        r += 0.5


def test_escape_ray_search_grid():
    ball, elements = cayley_ball_labeled(FreeAbelian(2), 10)
    m = FreeAbelian(2)
    x = vertex_of(m, elements, (5, 0))
    witness = escape_ray_search(ball, x, 1.0, 2, 10)
    assert witness is not None
    assert witness.certified_C <= 1.0
    dist = ball.dist.tolist()
    assert all(dist[v] > 2 for v in witness.vertices)
    assert dist[witness.vertices[-1]] == 10
    assert graph_distance(ball, x, witness.vertices[0]) <= 1


def test_escape_ray_search_tree():
    ball, elements = cayley_ball_labeled(Free(2), 10)
    m = Free(2)
    x = vertex_of(m, elements, m.word("aaaaa"))
    witness = escape_ray_search(ball, x, 1.0, 2, 10)
    assert witness is not None
    assert witness.certified_C <= 1.0
    assert all(ball.dist[v] > 2 for v in witness.vertices)


def test_escape_ray_search_gadget_inconclusive():
    # Two spokes from the base; x sits at the dead end of the short one, so
    # every route to the outer sphere passes through the removed inner ball.
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7)]
    ball = build_ball(edges, 0, 4)
    x = next(v for v in range(ball.vertex_count)
             if ball.dist[v] == 3 and len(neighbors(ball, v)) == 1)
    assert escape_ray_search(ball, x, 1.0, 2, 4) is None


def test_escape_ray_search_backtracking_fallback():
    ball = wind_and_rail_ball()
    # The BFS-shortest punctured route is the winding one; at C = 1.3 it
    # fails certification and the bounded backtracking finds the chain.
    w = escape_ray_search(ball, 3, 1.3, 1, 4)
    assert w is not None
    assert w.vertices == (3, 11, 12, 13, 14, 15, 16, 10)
    assert w.certified_C == pytest.approx(1.2)
    # At C = 1.4 the winding shortest route itself certifies (at 4/3).
    w = escape_ray_search(ball, 3, 1.4, 1, 4)
    assert w.vertices == (3, 4, 6, 7, 8, 5, 9, 10)
    assert w.certified_C == pytest.approx(4 / 3)
    # At C = 1.0 a neighboring start anchors a genuine geodesic ray.
    w = escape_ray_search(ball, 3, 1.0, 1, 4)
    assert w.certified_C == 1.0
    assert graph_distance(ball, 3, w.vertices[0]) <= 1


def test_escape_ray_search_bad_radii():
    ball = cayley_ball(FreeAbelian(2), 5)
    with pytest.raises(BadRadii):
        escape_ray_search(ball, 5, 1.0, 4, 3)


def test_wideness_grid_full_pass():
    ball = cayley_ball(FreeAbelian(2), 12)
    report = wideness_probe(ball, 1.0, 8)
    assert report.pass_fraction == 1.0
    assert len(report.eligible) == sum(
        1 for v in range(ball.vertex_count) if ball.dist[v] <= 8)
    sample = report.witnesses[report.eligible[0]]
    assert sample.certified_C == 1.0
    assert len(sample.vertices) == 9
    assert qg_certify(ball, sample.vertices) == 1.0


def test_wideness_tree_full_pass():
    ball = cayley_ball(Free(2), 6)
    report = wideness_probe(ball, 1.0, 8)
    assert report.pass_fraction == 1.0


def test_wideness_star_short_leg_fails():
    edges = []
    for leg in range(2):  # two long legs forming a line through the center
        prev = 0
        for k in range(1, 11):
            node = 100 * (leg + 1) + k
            edges.append((prev, node))
            prev = node
    edges.append((0, 900))
    edges.append((900, 901))  # short leg of length 2
    ball = build_ball(edges, 0, 10)
    report = wideness_probe(ball, 1.0, 8)
    assert report.pass_fraction < 1.0
    # The witness search fails exactly at the short-leg tip: it is 2 away
    # from the long line, beyond the C = 1 reach.
    labels = {v: d for v, d in enumerate(ball.dist.tolist())}
    failing = set(report.failures)
    assert failing
    for v in failing:
        assert labels[v] == 2


def test_wideness_segment_too_long():
    ball = build_ball([(0, 1), (1, 2)], 0, 2)
    with pytest.raises(SegmentTooLong):
        wideness_probe(ball, 1.0, 10)


def test_wideness_product_model():
    model = DirectProduct(FreeAbelian(1), Free(2))
    ball = cayley_ball(model, 5)
    report = wideness_probe(ball, 1.0, 6)
    assert report.pass_fraction == 1.0


def test_format_witness():
    w = PathWitness(vertices=(3, 4, 5), certified_C=1.0)
    assert format_witness(w) == "C=1.0 3 4 5"
    assert format_witness(PathWitness(vertices=(1,))) == "C=uncertified 1"
