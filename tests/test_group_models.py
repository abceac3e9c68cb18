import pytest

from floydlab.errors import BallTooLarge, ModelAxiomViolation
from floydlab.group_models import (
    DirectProduct,
    Free,
    FreeAbelian,
    FreeProduct,
    GroupModel,
    Heisenberg,
    cayley_ball,
    cayley_ball_labeled,
    growth_series,
    parse_model,
)

from helpers import brute_force_word_lengths, graph_distance, heisenberg_matrix_words

ALL_MODELS = [
    FreeAbelian(2),
    Free(2),
    Heisenberg(),
    DirectProduct(FreeAbelian(1), Free(2)),
    FreeProduct(FreeAbelian(2), FreeAbelian(1)),
]


def test_z2_radius2_count():
    ball = cayley_ball(FreeAbelian(2), 2)
    expected = len([(x, y) for x in range(-2, 3) for y in range(-2, 3)
                    if abs(x) + abs(y) <= 2])
    assert expected == 13
    assert ball.vertex_count == 13


def test_free2_radius3_count():
    ball = cayley_ball(Free(2), 3)
    assert ball.vertex_count == 1 + 4 + 12 + 36 == 53


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_radius_zero(model):
    ball = cayley_ball(model, 0)
    assert ball.vertex_count == 1
    assert ball.edge_count == 0
    assert ball.dist.tolist() == [0]


def test_growth_line():
    assert growth_series(FreeAbelian(1), 5) == [1, 2, 2, 2, 2, 2]


def test_growth_free2():
    assert growth_series(Free(2), 4) == [1, 4, 12, 36, 108]


def test_growth_heisenberg_vs_matrix_oracle():
    radius = 6
    oracle = heisenberg_matrix_words(radius)
    counts = [0] * (radius + 1)
    for length in oracle.values():
        counts[length] += 1
    assert growth_series(Heisenberg(), radius) == counts


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_word_length_matches_brute_force(model):
    radius = 4
    ball, elements = cayley_ball_labeled(model, radius)
    oracle = brute_force_word_lengths(model, radius)
    assert ball.vertex_count == len(oracle)
    for i, el in enumerate(elements):
        assert ball.dist[i] == oracle[model.canonical_key(el)]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_base_degree_equals_distinct_generator_images(model):
    ball = cayley_ball(model, 3)
    identity = model.identity()
    images = {model.canonical_key(model.multiply(identity, g))
              for g in model.generator_labels()}
    assert len(ball.adjacency[0]) == len(images)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
def test_generators_closed_under_inverse(model):
    labels = model.generator_labels()
    for g in labels:
        assert model.inverse_label(g) in labels


def test_direct_product_of_lines_is_z2():
    prod = DirectProduct(FreeAbelian(1), FreeAbelian(1))
    plain = FreeAbelian(2)
    for radius in range(1, 7):
        pball, pels = cayley_ball_labeled(prod, radius)
        zball, zels = cayley_ball_labeled(plain, radius)
        assert pball.vertex_count == zball.vertex_count
        # Explicit based-graph isomorphism through the coordinates.
        to_pair = {i: (el[0][0], el[1][0]) for i, el in enumerate(pels)}
        z_index = {el: i for i, el in enumerate(zels)}
        mapping = {i: z_index[to_pair[i]] for i in range(pball.vertex_count)}
        assert mapping[0] == 0
        p_edges = {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                   for u, v in zip(*(a.tolist() for a in pball.edge_arrays))}
        assert p_edges == set(zip(*(a.tolist() for a in zball.edge_arrays)))


def test_free_product_of_lines_matches_free_group():
    rebuilt = FreeProduct(FreeAbelian(1), FreeAbelian(1))
    for radius in range(5):
        assert (growth_series(rebuilt, radius)
                == growth_series(Free(2), radius))


def test_ball_too_large():
    with pytest.raises(BallTooLarge):
        cayley_ball(Free(2), 6, vertex_cap=100)


class _BrokenInverse(GroupModel):
    """Multiplying by 'g' then 'G' lands one step off."""

    name = "broken"

    def identity(self):
        return 0

    def generator_labels(self):
        return ("g", "G")

    def inverse_label(self, label):
        return "G" if label == "g" else "g"

    def multiply(self, element, label):
        return element + (2 if label == "g" else -1)

    def canonical_key(self, element):
        return str(element).encode()


def test_model_axiom_violation():
    with pytest.raises(ModelAxiomViolation):
        cayley_ball(_BrokenInverse(), 3)


def test_heisenberg_central_element_distance():
    # The commutator aba'b' lands on the central element (0, 0, 1).
    m = Heisenberg()
    el = m.identity()
    for g in ("a", "b", "A", "B"):
        el = m.multiply(el, g)
    assert el == (0, 0, 1)
    ball, elements = cayley_ball_labeled(m, 4)
    idx = elements.index((0, 0, 1))
    assert ball.dist[idx] == 4
    assert graph_distance(ball, 0, idx) == 4


@pytest.mark.parametrize("spec,expected", [
    ("zn:2", FreeAbelian),
    ("free:3", Free),
    ("heis", Heisenberg),
    ("prod:zn:1,free:2", DirectProduct),
    ("freeprod:zn:2,zn:1", FreeProduct),
])
def test_parse_model(spec, expected):
    model = parse_model(spec)
    assert isinstance(model, expected)
    assert model.name == spec


@pytest.mark.parametrize("spec", [
    "zn", "zn:0", "free:27", "prod:zn:1", "freeprod:prod:zn:1,zn:1,zn:1",
    "nope:3", "prod:zn:1;zn:1",
])
def test_parse_model_rejects(spec):
    with pytest.raises(ValueError):
        parse_model(spec)
