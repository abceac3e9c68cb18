"""Differential tests of the array fast paths against the code they replaced
or sit beside.

- Ball enumeration: the numpy layer expansion of coordinate models against
  the element-by-element search that every model can take.
- Graph files: the array reader against `old_read_graph_file`, a verbatim
  copy of the per-line reader it replaced (only its name and the final
  assembly changed: it returns the adjacency tuples and distances instead
  of a GraphBall), on valid, malformed and randomly mutated files.
- Sphere scan: the array witness choice against `old_scan`, a verbatim copy
  of the per-tie loop it replaced, on balls where most pairs tie.
"""

import math
import random
from collections import deque

import numpy as np
import pytest

from floydlab import floyd_metric
from floydlab.errors import BallTooLarge, ConsistencyError, ModelAxiomViolation, ParseError
from floydlab.floyd_metric import (
    floyd_weighting,
    parse_floyd,
    sphere_floyd_diameter,
)
from floydlab.graph_core import (
    FILE_MAGIC,
    GraphBall,
    build_ball,
    read_graph_file,
    single_vertex_ball,
    sphere,
    write_graph_file,
)
from floydlab.group_models import (
    Free,
    FreeAbelian,
    Heisenberg,
    _enumerate_ball,
    _enumerate_coordinates,
    cayley_ball,
    cayley_ball_labeled,
    parse_model,
)

from helpers import random_connected_edges

COORDINATE_SPECS = ["zn:1", "zn:2", "zn:3", "heis", "prod:zn:1,zn:2", "prod:heis,zn:1",
                    "free:2", "free:3", "prod:zn:1,free:2", "prod:free:2,zn:2"]
# Largest radius compared with the element-by-element search, where it is
# below 8: free:3 at radius 8 has about 586k vertices.
MAX_RADIUS = {"free:3": 5, "prod:free:2,zn:2": 5}
ENUMERATION_CASES = [pytest.param(spec, radius, id=f"{radius}-{spec}")
                     for radius in (1, 2, 3, 5, 8) for spec in COORDINATE_SPECS
                     if radius <= MAX_RADIUS.get(spec, 8)]


# ---------------------------------------------------------------- enumeration

@pytest.mark.parametrize("spec,radius", ENUMERATION_CASES)
def test_array_enumeration_matches_scalar(spec, radius):
    model = parse_model(spec)
    coords, ball = _enumerate_coordinates(model, radius, 10 ** 6)
    elements, scalar = _enumerate_ball(model, radius, 10 ** 6)
    assert ball == scalar
    assert ball.dist.tolist() == scalar.dist.tolist()
    assert all(map(np.array_equal, ball.edge_arrays, scalar.edge_arrays))
    assert model.elements_from_coordinates(coords) == elements


@pytest.mark.parametrize("spec", ["zn:2", "heis", "prod:heis,zn:1", "free:2",
                                  "prod:zn:1,free:2"])
def test_vertex_cap_boundary(spec):
    model = parse_model(spec)
    size = cayley_ball(model, 4).vertex_count
    assert cayley_ball(model, 4, vertex_cap=size).vertex_count == size
    with pytest.raises(BallTooLarge):
        cayley_ball(model, 4, vertex_cap=size - 1)


def test_labeled_elements_are_python_ints():
    for spec in COORDINATE_SPECS:
        _, elements = cayley_ball_labeled(parse_model(spec), 3)
        flat = [x for el in elements for part in el
                for x in (part if isinstance(part, tuple) else (part,))]
        assert all(type(x) is int for x in flat), spec
    _, elements = cayley_ball_labeled(parse_model("prod:heis,zn:1"), 2)
    assert elements[0] == ((0, 0, 0), (0,))


@pytest.mark.parametrize("spec", COORDINATE_SPECS)
def test_coordinates_round_trip(spec):
    model = parse_model(spec)
    elements, _ = _enumerate_ball(model, 3, 10 ** 6)
    elements = elements[::-1]  # any row order
    coords = np.array([model.to_coordinates(el) for el in elements], dtype=np.int64)
    assert coords.shape == (len(elements), model.coordinate_dim)
    assert model.elements_from_coordinates(coords) == elements
    assert model.elements_from_coordinates(coords[:1]) == elements[:1]
    assert [model.to_coordinates(el) for el in
            model.elements_from_coordinates(coords)] == list(map(tuple, coords.tolist()))


def test_free_words_are_coded_in_base_2k_plus_1():
    model = Free(2)  # digits: a 1, b 2, A 3, B 4
    assert model.to_coordinates(()) == (0,)
    assert model.to_coordinates(model.word("aB")) == (1 * 5 + 4,)
    codes = np.array([[0], [9]], dtype=np.int64)
    # Appending a letter shifts in its digit; b cancels the last letter B
    # of aB (code 9), which drops that digit.
    assert model.multiply_all(codes)[:, :, 0].tolist() == [
        [1, 2, 3, 4], [46, 1, 48, 49]]


def packed_width(model, radius):
    return math.prod(2 * int(b) + 1 for b in model.coordinate_bounds(radius))


@pytest.mark.parametrize("spec", ["free:2", "free:3", "prod:zn:1,free:2"])
def test_free_keys_past_int64_are_not_enumerated(spec, monkeypatch):
    model = parse_model(spec)
    radius = next(r for r in range(1, 100) if packed_width(model, r) >= 2 ** 63)
    # One radius below, the keys fit and the array search starts.
    with pytest.raises(BallTooLarge):
        _enumerate_coordinates(model, radius - 1, 100)

    def refuse(coords):
        raise AssertionError("enumerated past the int64 keys")

    monkeypatch.setattr(model, "multiply_all", refuse)
    assert _enumerate_coordinates(model, radius, 100) is None
    with pytest.raises(BallTooLarge):  # the scalar search takes over
        cayley_ball(model, radius, vertex_cap=100)


class _WideBounds(FreeAbelian):
    """Z^2 with bounds too wide to pack into int64 keys."""

    def coordinate_bounds(self, radius):
        return (2 ** 40, 2 ** 40)


def test_keys_that_do_not_fit_fall_back_to_the_scalar_search():
    model = _WideBounds(2)
    assert _enumerate_coordinates(model, 5, 10 ** 6) is None
    assert cayley_ball(model, 5) == cayley_ball(FreeAbelian(2), 5)


class _WrongArrayMultiply(FreeAbelian):
    """The array multiply moves e1 by two steps; the scalar one by one."""

    def multiply_all(self, coords):
        out = super().multiply_all(coords)
        out[:, 0, 0] += 1
        return out


class _FixedGenerator(FreeAbelian):
    """Z^1 plus a generator 'z' that acts as the identity."""

    def __init__(self):
        super().__init__(1)
        self._labels = ("e1", "E1", "z")
        self._steps = np.array([[1], [-1], [0]], dtype=np.int64)

    def inverse_label(self, label):
        return "z" if label == "z" else super().inverse_label(label)

    def multiply(self, element, label):
        return element if label == "z" else super().multiply(element, label)


class _NotInverseClosed(FreeAbelian):
    def inverse_label(self, label):
        return "x"


def test_array_path_keeps_the_safety_checks():
    with pytest.raises(ModelAxiomViolation, match="array multiply by e1"):
        cayley_ball(_WrongArrayMultiply(2), 3)
    with pytest.raises(ModelAxiomViolation, match="generator z fixes an element"):
        cayley_ball(_FixedGenerator(), 3)
    with pytest.raises(ModelAxiomViolation, match="not closed under inverses"):
        cayley_ball(_NotInverseClosed(2), 3)


# ---------------------------------------------------------------- GraphBall

def test_graph_ball_equality_and_round_trip(tmp_path):
    ball = cayley_ball(Heisenberg(), 4)
    same = GraphBall(base=0, radius=4, indptr=ball.indptr.copy(),
                     indices=ball.indices.copy(), dist=ball.dist.copy())
    assert same == ball and hash(same) == hash(ball)
    assert ball != cayley_ball(Heisenberg(), 5)
    assert ball != GraphBall(base=0, radius=5, indptr=ball.indptr,
                             indices=ball.indices, dist=ball.dist)
    path = tmp_path / "heis.graph"
    write_graph_file(path, ball)
    assert read_graph_file(path) == ball
    assert single_vertex_ball() == GraphBall(base=0, radius=0, indptr=[0, 0],
                                             indices=[], dist=[0])
    with pytest.raises(ValueError):
        ball.indices[0] = 1  # the stored arrays are read-only


def test_derived_views_match_the_arrays():
    ball = build_ball([(5, 7), (7, 9), (5, 9), (9, 11), (11, 13)], 7, 3)
    assert ball.adjacency == ((1, 2), (0, 2), (0, 1, 3), (2, 4), (3,))
    assert ball.dist.tolist() == [0, 1, 1, 2, 3]
    assert [a.tolist() for a in ball.edge_arrays] == [[0, 0, 1, 2, 3], [1, 2, 2, 3, 4]]
    assert ball.slot_rows.tolist() == [0, 0, 1, 1, 2, 2, 2, 3, 3, 4]
    assert tuple(sphere(ball, r).vertices for r in range(4)) == ((0,), (1, 2), (3,), (4,))
    assert sphere(ball, 1).vertices == (1, 2)
    assert ball.edge_count == 5 and ball.vertex_count == 5


# ---------------------------------------------------------------- graph files

def old_parse_int_fields(text, n_fields, line_no):
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


def old_read_graph_file(path):
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
    v_count, e_count, base, radius = old_parse_int_fields(lines[1], 4, 2)
    if v_count <= 0 or e_count < 0 or radius < 0 or not 0 <= base < v_count:
        raise ParseError("counts line out of range", line=2)
    if len(lines) != 2 + e_count:
        raise ParseError(
            f"declared {e_count} edges but file has {len(lines) - 2} edge lines",
            line=len(lines) + 1)

    edges = []
    prev = None
    for i, text in enumerate(lines[2:], start=3):
        u, v = old_parse_int_fields(text, 2, i)
        if not (0 <= u < v_count and 0 <= v < v_count):
            raise ParseError(f"vertex index out of range in edge {u} {v}", line=i)
        if u >= v:
            raise ParseError(f"edge must satisfy u < v, got {u} {v}", line=i)
        if prev is not None and (u, v) <= prev:
            raise ParseError("edges not in ascending order", line=i)
        prev = (u, v)
        edges.append((u, v))

    if v_count == 1:
        if radius != 0:
            raise ConsistencyError("single-vertex ball must declare radius 0")
        return 0, 0, ((),), (0,)

    adjacency = [[] for _ in range(v_count)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    adj = tuple(tuple(sorted(n)) for n in adjacency)
    dist = [-1] * v_count
    dist[base] = 0
    queue = deque([base])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    if min(dist) < 0:
        raise ConsistencyError("graph in file is not connected")
    if max(dist) > radius:
        raise ConsistencyError(
            f"vertex at distance {max(dist)} exceeds declared radius {radius}")
    return base, radius, adj, tuple(dist)


def outcome(reader, path):
    """What a reader makes of a file: the error, or the ball's parts."""
    try:
        result = reader(path)
    except (ParseError, ConsistencyError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    if isinstance(result, GraphBall):
        return (result.base, result.radius, result.adjacency,
                tuple(result.dist.tolist()))
    return result


def assert_readers_agree(path):
    old = outcome(old_read_graph_file, path)
    assert outcome(read_graph_file, path) == old
    return old


MALFORMED = [
    "floydlab-graph v2\n1 0 0 0\n",
    "floydlab-graph v1\n3 2 0 2\n0 1\n",
    "floydlab-graph v1\n3 2 0 2\n1 2\n0 1\n",
    "floydlab-graph v1\n2 1 0 1\n1 0\n",
    "floydlab-graph v1\r\n2 1 0 1\r\n0 1\r\n",
    "floydlab-graph v1\n2 1 0 1\n0 1",
    "floydlab-graph v1\n2 1 0 1 9\n0 1\n",
    "floydlab-graph v1\n4 2 0 3\n0 1\n2 3\n",
    "floydlab-graph v1\n3 2 0 1\n0 1\n1 2\n",
    "floydlab-graph v1\n2 1 0 1\n0 01\n",
    "floydlab-graph v1\n2 1 0 1\n0 ١\n",
    "floydlab-graph v1\n2 1 0 1\n-0 1\n",
    "floydlab-graph v1\n2 1 -0 1\n0 1\n",
    "floydlab-graph v1\n02 1 0 1\n0 1\n",
    "floydlab-graph v1\n2 1 0 1\n+0 1\n",
    "floydlab-graph v1\n2 1 0 +1\n0 1\n",
    "floydlab-graph v1\n12 1 0 1\n0 1_0\n",
    # beyond the reader tests: separators, ranges, duplicates, big values
    "floydlab-graph v1\n3 2 0 2\n0 1\n0  2\n",
    "floydlab-graph v1\n3 2 0 2\n0 1\n0\t2\n",
    "floydlab-graph v1\n3 2 0 2\n0 1\n0 2 \n",
    "floydlab-graph v1\n3 2 0 2\n0 1\n0 1\n",
    "floydlab-graph v1\n3 2 0 2\n0 1\n0 3\n",
    "floydlab-graph v1\n3 2 0 2\n-1 1\n0 2\n",
    "floydlab-graph v1\n3 2 0 2\n0 1\n0 99999999999999999999\n",
    "floydlab-graph v1\n3 2 0 2\n0 1\n0 2.0\n",
    "floydlab-graph v1\n3 2 0 2\n0 1\n\n",
    "floydlab-graph v1\n3 0 0 2\n",
    "floydlab-graph v1\n1 0 0 1\n",
    "floydlab-graph v1\n1 0 0 0\n",
    "floydlab-graph v1\n",
    "\n",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_reader_matches_the_per_line_reader_on_malformed_files(tmp_path, text):
    path = tmp_path / "g"
    path.write_bytes(text.encode())
    assert_readers_agree(path)


def random_ball(rng):
    n = rng.randrange(2, 60)
    return build_ball(random_connected_edges(rng, n), rng.randrange(n), n)


@pytest.mark.parametrize("seed", range(30))
def test_reader_matches_the_per_line_reader_on_random_graphs(tmp_path, seed):
    rng = random.Random(seed)
    ball = random_ball(rng)
    path = tmp_path / "g"
    write_graph_file(path, ball)
    assert assert_readers_agree(path)[2] == ball.adjacency
    assert read_graph_file(path) == ball


def mutate(rng, text):
    lines = text.split("\n")
    kind = rng.randrange(6)
    body = text.index("\n", text.index("\n") + 1) + 1
    pos = rng.randrange(body if rng.random() < 0.8 else 0, len(text))
    if kind == 0:
        return text[:pos] + rng.choice(" \n0123456789-+x\r\t") + text[pos + 1:]
    if kind == 1:
        return text[:pos] + rng.choice(" \n0123456789-+٣") + text[pos:]
    if kind == 2:
        return text[:pos] + text[pos + 1:]
    i, j = rng.randrange(len(lines) - 1), rng.randrange(len(lines) - 1)
    if kind == 3:
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 4:
        lines.insert(i, lines[j])
    else:
        lines[i] = lines[i].replace(" ", "  ", 1)
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(300))
def test_reader_matches_the_per_line_reader_on_mutated_files(tmp_path, seed):
    rng = random.Random(seed)
    ball = random_ball(rng)
    path = tmp_path / "g"
    write_graph_file(path, ball)
    text = path.read_text()
    for _ in range(rng.randrange(1, 3)):
        text = mutate(rng, text)
    path.write_bytes(text.encode())
    assert_readers_agree(path)


# ---------------------------------------------------------------- sphere scan

def old_scan(w, r, *, margin=3.0, pair_cap=250_000):
    """The sphere scan's source choice and per-tie witness loop as they
    were before the witness was chosen with arrays."""
    ball = w.ball
    verts = sphere(ball, r).vertices
    n = len(verts)
    exhaustive = n * n <= pair_cap
    if exhaustive:
        sources = list(verts)
    else:
        k = max(1, pair_cap // n)
        sources = sorted({verts[(i * n) // k] for i in range(k)})
    target_idx = np.asarray(verts, dtype=np.int64)
    rows = floyd_metric._dijkstra_rows(w, sources)[:, target_idx]
    best = -1.0
    witness = (0, 0)
    for i, s in enumerate(sources):
        row = rows[i]
        m = float(row.max())
        if m < best:
            continue
        for j in np.flatnonzero(row == m):
            t = int(target_idx[j])
            pair = (min(s, t), max(s, t))
            if m > best or pair < witness:
                best, witness = m, pair
    return best, witness


def _star(leaves):
    return build_ball([(0, i) for i in range(1, leaves + 1)], 0, 1)


def _cycle(n):
    return build_ball([(i, (i + 1) % n) for i in range(n)], 0, n // 2)


TIE_BALLS = {
    "free2": (lambda: cayley_ball(parse_model("free:2"), 6), 1.0, range(1, 7)),
    "star": (lambda: _star(9), 1.0, range(1, 2)),
    "cycle": (lambda: _cycle(14), 1.0, range(1, 8)),
    "z2": (lambda: cayley_ball(FreeAbelian(2), 12), 3.0, range(1, 5)),
}


@pytest.mark.parametrize("name", sorted(TIE_BALLS))
@pytest.mark.parametrize("floyd", ["invpow:2", "exp:0.5"])
@pytest.mark.parametrize("pair_cap", [250_000, 30])
def test_scan_witness_matches_the_per_tie_loop(name, floyd, pair_cap):
    make, margin, radii = TIE_BALLS[name]
    w = floyd_weighting(make(), parse_floyd(floyd))
    for r in radii:
        if len(sphere(w.ball, r).vertices) < 2:
            continue
        res = sphere_floyd_diameter(w, r, margin=margin, pair_cap=pair_cap)
        assert (res.diameter, res.witness) == old_scan(
            w, r, margin=margin, pair_cap=pair_cap)
