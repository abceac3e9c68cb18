import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floydlab.errors import (
    ConsistencyError,
    DisconnectedGraph,
    ParseError,
    RadiusMismatch,
    RadiusOutOfRange,
    SelfLoop,
)
from floydlab.graph_core import (
    build_ball,
    read_graph_file,
    sphere,
    write_graph_file,
)
from floydlab.group_models import FreeAbelian, cayley_ball, cayley_ball_labeled

from helpers import graph_distance, random_small_ball, vertex_of


def test_build_ball_path():
    ball = build_ball([(0, 1), (1, 2)], 0, 2)
    assert ball.vertex_count == 3
    assert ball.dist.tolist() == [0, 1, 2]
    assert ball.base == 0


def test_build_ball_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_ball([(0, 1), (2, 3)], 0, 3)


def test_build_ball_base_absent():
    with pytest.raises(DisconnectedGraph):
        build_ball([(1, 2)], 0, 2)


def test_build_ball_self_loop():
    with pytest.raises(SelfLoop):
        build_ball([(0, 0), (0, 1)], 0, 1)


def test_build_ball_radius_mismatch():
    with pytest.raises(RadiusMismatch):
        build_ball([(0, 1), (1, 2)], 0, 1)


def test_build_ball_four_cycle():
    ball = build_ball([(0, 1), (1, 2), (2, 3), (3, 0)], 0, 2)
    assert sorted(ball.dist.tolist()) == [0, 1, 1, 2]
    assert sphere(ball, 1).vertices == (1, 2)
    assert len(sphere(ball, 2).vertices) == 1


def test_build_ball_deduplicates_edges():
    ball = build_ball([(0, 1), (1, 0), (0, 1)], 0, 1)
    assert ball.edge_count == 1


def test_sphere_base_and_range():
    ball = build_ball([(0, 1), (1, 2)], 0, 2)
    assert sphere(ball, 0).vertices == (0,)
    with pytest.raises(RadiusOutOfRange):
        sphere(ball, 3)
    with pytest.raises(RadiusOutOfRange):
        sphere(ball, -1)


def test_sphere_z2_counts():
    ball = cayley_ball(FreeAbelian(2), 6)
    # L1 sphere of radius r in Z^2 has 4r points; checked by enumeration.
    expected = len([(x, y) for x in range(-3, 4) for y in range(-3, 4)
                    if abs(x) + abs(y) == 3])
    assert expected == 12
    assert len(sphere(ball, 3).vertices) == 12
    for r in range(7):
        assert len(sphere(ball, r).vertices) == (1 if r == 0 else 4 * r)


def test_graph_distance_basics():
    ball = build_ball([(0, 1), (1, 2)], 0, 2)
    assert graph_distance(ball, 1, 1) == 0
    assert graph_distance(ball, 0, 2) == 2
    with pytest.raises(IndexError):
        graph_distance(ball, 0, 5)


def test_graph_distance_z2():
    ball, elements = cayley_ball_labeled(FreeAbelian(2), 8)
    m = FreeAbelian(2)
    u = vertex_of(m, elements, (-2, 0))
    v = vertex_of(m, elements, (2, 0))
    assert graph_distance(ball, u, v) == 4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_graph_distance_is_a_metric(seed):
    ball = random_small_ball(random.Random(seed))
    n = ball.vertex_count
    d = [[graph_distance(ball, u, v) for v in range(n)] for u in range(n)]
    for u in range(n):
        assert d[u][u] == 0
        for v in range(n):
            assert d[u][v] == d[v][u]
            assert (d[u][v] == 0) == (u == v)
            for w in range(n):
                assert d[u][w] <= d[u][v] + d[v][w]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_bfs_layering(seed):
    ball = random_small_ball(random.Random(seed))
    for u, v in zip(*ball.edge_arrays):
        assert abs(ball.dist[u] - ball.dist[v]) <= 1


def test_round_trip_identity(tmp_path, z2_small):
    ball, _ = z2_small
    path = tmp_path / "ball.graph"
    write_graph_file(path, ball)
    again = read_graph_file(path)
    assert again == ball
    path2 = tmp_path / "ball2.graph"
    write_graph_file(path2, again)
    assert path.read_bytes() == path2.read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_round_trip_random(seed):
    import tempfile
    ball = random_small_ball(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/g.graph"
        write_graph_file(path, ball)
        assert read_graph_file(path) == ball


def _write(path, text):
    path.write_bytes(text.encode())
    return path


def test_reader_rejects_bad_header(tmp_path):
    p = _write(tmp_path / "g", "floydlab-graph v2\n1 0 0 0\n")
    with pytest.raises(ParseError) as err:
        read_graph_file(p)
    assert err.value.line == 1


def test_reader_rejects_edge_count_mismatch(tmp_path):
    p = _write(tmp_path / "g", "floydlab-graph v1\n3 2 0 2\n0 1\n")
    with pytest.raises(ParseError):
        read_graph_file(p)


def test_reader_rejects_unsorted_edges(tmp_path):
    p = _write(tmp_path / "g", "floydlab-graph v1\n3 2 0 2\n1 2\n0 1\n")
    with pytest.raises(ParseError) as err:
        read_graph_file(p)
    assert err.value.line == 4


def test_reader_rejects_u_not_less_than_v(tmp_path):
    p = _write(tmp_path / "g", "floydlab-graph v1\n2 1 0 1\n1 0\n")
    with pytest.raises(ParseError):
        read_graph_file(p)


def test_reader_rejects_crlf(tmp_path):
    p = _write(tmp_path / "g", "floydlab-graph v1\r\n2 1 0 1\r\n0 1\r\n")
    with pytest.raises(ParseError):
        read_graph_file(p)


def test_reader_rejects_missing_trailing_newline(tmp_path):
    p = _write(tmp_path / "g", "floydlab-graph v1\n2 1 0 1\n0 1")
    with pytest.raises(ParseError):
        read_graph_file(p)


def test_reader_rejects_extra_fields(tmp_path):
    p = _write(tmp_path / "g", "floydlab-graph v1\n2 1 0 1 9\n0 1\n")
    with pytest.raises(ParseError):
        read_graph_file(p)


def test_reader_consistency_disconnected(tmp_path):
    p = _write(tmp_path / "g", "floydlab-graph v1\n4 2 0 3\n0 1\n2 3\n")
    with pytest.raises(ConsistencyError):
        read_graph_file(p)


def test_reader_consistency_radius(tmp_path):
    p = _write(tmp_path / "g", "floydlab-graph v1\n3 2 0 1\n0 1\n1 2\n")
    with pytest.raises(ConsistencyError):
        read_graph_file(p)


@pytest.mark.parametrize("text, line", [
    ("floydlab-graph v1\n2 1 0 1\n0 01\n", 3),
    ("floydlab-graph v1\n2 1 0 1\n0 ١\n", 3),
    ("floydlab-graph v1\n2 1 0 1\n-0 1\n", 3),
    ("floydlab-graph v1\n2 1 -0 1\n0 1\n", 2),
    ("floydlab-graph v1\n02 1 0 1\n0 1\n", 2),
    ("floydlab-graph v1\n2 1 0 1\n+0 1\n", 3),
    ("floydlab-graph v1\n2 1 0 +1\n0 1\n", 2),
    ("floydlab-graph v1\n12 1 0 1\n0 1_0\n", 3),
])
def test_reader_rejects_non_canonical_integers(tmp_path, text, line):
    p = _write(tmp_path / "g", text)
    with pytest.raises(ParseError) as err:
        read_graph_file(p)
    assert err.value.line == line
