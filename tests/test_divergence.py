import itertools
import math
import random
import warnings

import pytest

from floydlab.divergence import (
    CriterionResult,
    DivergenceParams,
    DivergenceSample,
    criterion_check,
    div_function_estimate,
    div_triple,
    growth_fit,
)
from floydlab.errors import (
    InsufficientData,
    MarginViolated,
    PreconditionViolated,
    RangeMismatch,
)
from floydlab.floyd_metric import FloydFunction
from floydlab.group_models import Free, FreeAbelian, cayley_ball, cayley_ball_labeled
from floydlab.quasigeodesic import escape_ray_search, qg_certify, wideness_probe
from floydlab.thickness import ThickStructure, ThickSubset, verify_thick

from helpers import (
    graph_distance,
    grid_punctured_distance,
    naive_div_triple,
    random_small_ball,
    vertex_of,
)

HALF = DivergenceParams(0.5, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        DivergenceParams(0.0, 0.0)
    with pytest.raises(ValueError):
        DivergenceParams(1.0, 0.0)
    with pytest.raises(ValueError):
        DivergenceParams(0.5, -1.0)
    for gamma in (math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma must be a finite real"):
            DivergenceParams(0.5, gamma)
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="delta must lie"):
            DivergenceParams(delta, 0.0)


def test_div_triple_grid_example():
    ball, elements = cayley_ball_labeled(FreeAbelian(2), 10)
    m = FreeAbelian(2)
    a = vertex_of(m, elements, (-4, 0))
    b = vertex_of(m, elements, (4, 0))
    c = vertex_of(m, elements, (0, 0))
    value = div_triple(ball, a, b, c, HALF)
    assert value == 14
    # Independent coordinate-level oracle on the grid.
    assert grid_punctured_distance((-4, 0), (4, 0), (0, 0), 2.0, 10) == 14


def test_div_triple_tree_disconnects():
    ball, elements = cayley_ball_labeled(Free(2), 6)
    m = Free(2)
    a = vertex_of(m, elements, m.word("aaa"))
    b = vertex_of(m, elements, m.word("bbb"))
    assert div_triple(ball, a, b, 0, HALF) is None


def test_div_triple_equal_endpoints():
    ball = cayley_ball(FreeAbelian(2), 4)
    assert div_triple(ball, 5, 5, 0, HALF) == 0


def test_div_triple_precondition():
    ball = cayley_ball(FreeAbelian(2), 4)
    with pytest.raises(PreconditionViolated):
        div_triple(ball, 3, 7, 3, HALF)


def test_div_triple_empty_forbidden_set(z2_small):
    ball, _ = z2_small
    # gamma large enough that delta*r - gamma <= 0: value is plain distance.
    params = DivergenceParams(0.5, 100.0)
    rng = random.Random(2)
    for _ in range(20):
        a, b, c = (rng.randrange(ball.vertex_count) for _ in range(3))
        if c in (a, b):
            continue
        assert div_triple(ball, a, b, c, params) == graph_distance(ball, a, b)


def test_div_triple_lower_bound_and_delta_monotonicity():
    for seed in range(12):
        ball = random_small_ball(random.Random(seed))
        n = ball.vertex_count
        for a, b, c in itertools.product(range(n), repeat=3):
            if c == a or c == b or a == b:
                continue
            low = div_triple(ball, a, b, c, DivergenceParams(0.3, 0.0))
            high = div_triple(ball, a, b, c, DivergenceParams(0.8, 0.0))
            if low is not None:
                assert low >= graph_distance(ball, a, b)
            # A larger delta removes a larger ball: value can only grow,
            # possibly all the way to disconnection.
            if high is not None:
                assert low is not None and high >= low


ORACLE_BALLS = {
    # name: (ball, n_max); the inner region is B(n_max)
    "z2": (lambda: cayley_ball(FreeAbelian(2), 9), 3),
    # trees and a random graph: disconnecting triples
    "f2": (lambda: cayley_ball(Free(2), 2), 2),
    "random": (lambda: random_small_ball(random.Random(10), 14), None),
}


@pytest.mark.parametrize("name", sorted(ORACLE_BALLS))
@pytest.mark.parametrize("delta,gamma", [(0.5, 0.0), (0.3, 0.0), (0.8, 1.0)])
def test_exhaustive_matches_naive_oracle(name, delta, gamma):
    make, n_max = ORACLE_BALLS[name]
    ball = make()
    n_max = n_max or max(ball.dist.tolist())
    samples = div_function_estimate(ball, n_max, DivergenceParams(delta, gamma),
                                    protocol="exhaustive",
                                    margin=ball.radius / n_max)
    inner = [v for v in range(ball.vertex_count) if ball.dist[v] <= n_max]
    # Per n, the winning triple's key among triples with d(a,b) <= n: the
    # largest value, then the smallest d(a,b), then the smallest witness
    # (a, b, c) with a < b; any disconnecting triple beats every value, the
    # smallest (d(a,b), witness) winning.
    best = {n: None for n in range(1, n_max + 1)}
    for a, b in itertools.combinations(inner, 2):
        dab = graph_distance(ball, a, b)
        if dab > n_max:
            continue
        for c in inner:
            if c in (a, b):
                continue
            value = naive_div_triple(ball, a, b, c, delta, gamma)
            r = min(graph_distance(ball, c, a), graph_distance(ball, c, b))
            key = ((0, dab, (a, b, c)) if value is None
                   else (1, -value, dab, (a, b, c)))
            for n in range(dab, n_max + 1):
                if best[n] is None or key < best[n][0]:
                    best[n] = (key, value, (a, b, c), delta * r - gamma)
    assert [s.n for s in samples] == list(range(1, n_max + 1))
    for s in samples:
        _, value, witness, radius = best[s.n]
        assert (s.value, s.witness, s.forbidden_radius) == (value, witness, radius)


def test_exhaustive_z2_regression_fixture(z2_mid):
    # Frozen exhaustive values on the radius-16 ball (inner region B(5)):
    # detours cross the forbidden ball at integer offsets, giving the
    # characteristic staircase 1, 4, 5, 8, 9.
    ball, _ = z2_mid
    samples = div_function_estimate(ball, 5, HALF, protocol="exhaustive",
                                    margin=3.0)
    assert [s.value for s in samples] == [1, 4, 5, 8, 9]


def test_exhaustive_nondecreasing(z2_mid):
    ball, _ = z2_mid
    samples = div_function_estimate(ball, 5, HALF, protocol="exhaustive",
                                    margin=3.0)
    values = [s.value for s in samples]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_sampled_below_exhaustive():
    ball = cayley_ball(FreeAbelian(2), 12)
    exhaustive = div_function_estimate(ball, 4, HALF, protocol="exhaustive",
                                       margin=3.0)
    sampled = div_function_estimate(ball, 4, HALF, protocol="sampled", seed=3,
                                    margin=3.0)
    by_n = {s.n: s for s in exhaustive}
    for s in sampled:
        assert not s.is_infinite
        assert s.value <= by_n[s.n].value


def test_sampled_deterministic():
    ball = cayley_ball(FreeAbelian(2), 12)
    one = div_function_estimate(ball, 4, HALF, protocol="sampled", seed=42,
                                margin=3.0)
    two = div_function_estimate(ball, 4, HALF, protocol="sampled", seed=42,
                                margin=3.0)
    assert one == two


def test_searches_derive_no_second_edge_layout():
    # Every search reads the CSR arrays: after the searching callers the
    # ball has cached nothing but its slot rows, edge arrays and symmetry.
    ball = cayley_ball(FreeAbelian(2), 12)
    stored = set(ball.__dict__)
    for protocol in ("sampled", "exhaustive"):
        div_function_estimate(ball, 4, HALF, protocol=protocol, seed=3, margin=3.0)
    assert div_triple(ball, 1, 2, 0, HALF) is not None
    report = wideness_probe(ball, 1.5, 4)
    assert qg_certify(ball, report.witnesses[0]) == 1.0
    assert escape_ray_search(ball, ball.dist.tolist().index(5), 1.0, 2, 12)
    everything = ThickSubset(name="all", vertices=tuple(range(ball.vertex_count)))
    verify_thick(ball, ThickStructure(C=1.0, order=0, D_min=4, subsets=(everything,)))
    assert set(ball.__dict__) - stored <= {"slot_rows", "edge_arrays", "symmetry"}


def test_witness_consistency(z2_mid):
    ball, _ = z2_mid
    samples = div_function_estimate(ball, 5, HALF, protocol="exhaustive",
                                    margin=3.0)
    for s in samples:
        a, b, c = s.witness
        assert graph_distance(ball, a, b) <= s.n
        recomputed = div_triple(ball, a, b, c, HALF)
        if s.is_infinite:
            assert recomputed is None
        else:
            assert recomputed == s.value
            assert s.value >= graph_distance(ball, a, b)


def test_margin_violated(z2_small):
    ball, _ = z2_small
    with pytest.raises(MarginViolated):
        div_function_estimate(ball, 5, HALF, margin=3.0)
    for margin in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="margin must be a finite real >= 1"):
            div_function_estimate(ball, 1, HALF, margin=margin)


def test_forced_exhaustive_warns_above_the_cap():
    big = cayley_ball(FreeAbelian(2), 15)
    with pytest.warns(RuntimeWarning, match="481 inner vertices, above "
                                            "EXHAUSTIVE_CAP = 400"):
        div_function_estimate(big, 1, HALF, protocol="exhaustive", margin=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The inner regions of the benchmark's exhaustive jobs, 221 and 161.
        div_function_estimate(big, 2, HALF, protocol="exhaustive", margin=1.5)
        div_function_estimate(cayley_ball(Free(2), 4), 2, HALF,
                              protocol="exhaustive", margin=1.0)
        div_function_estimate(big, 1, HALF, protocol="auto", margin=1.0)


def _synthetic(values):
    return [DivergenceSample(n=n, value=v, witness=(0, 1, 2),
                             forbidden_radius=1.0, protocol="synthetic",
                             seed=None)
            for n, v in values]


def test_growth_fit_linear():
    fit = growth_fit(_synthetic([(n, 3 * n) for n in range(2, 12)]))
    assert fit.slope == pytest.approx(1.0, abs=1e-9)
    assert fit.verdict == "linear-compatible"


def test_growth_fit_quadratic():
    fit = growth_fit(_synthetic([(n, n * n) for n in range(2, 12)]))
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.verdict == "superlinear"


def test_growth_fit_sublinear():
    fit = growth_fit(_synthetic([(n, 7) for n in range(2, 12)]))
    assert fit.verdict == "sublinear"


def test_growth_fit_infinite():
    samples = _synthetic([(2, 5), (3, 9)])
    samples.append(DivergenceSample(n=4, value=None, witness=(0, 1, 2),
                                    forbidden_radius=1.0, protocol="synthetic",
                                    seed=None))
    fit = growth_fit(samples)
    assert fit.verdict == "infinite"
    assert fit.slope is None


def test_growth_fit_insufficient():
    with pytest.raises(InsufficientData):
        growth_fit(_synthetic([(2, 5), (3, 7), (4, 9)]))


def test_criterion_analytic_decay():
    f = FloydFunction.inverse_power(2)
    samples = _synthetic([(n, 3 * n) for n in range(1, 100)])
    result = criterion_check(samples, f, HALF, range(2, 41))
    assert isinstance(result, CriterionResult)
    # Term is 6n * f(floor(n/2)), roughly 24/n: decays past a tenth of max.
    assert result.verdict == "decaying"
    at3 = next(t for t in result.terms if t.n == 3)
    assert at3.f_argument == 1
    assert at3.term == pytest.approx(18 * f.value(1))


def test_criterion_infinite():
    f = FloydFunction.inverse_power(2)
    samples = _synthetic([(n, 3 * n) for n in range(1, 10)])
    samples[7] = DivergenceSample(n=8, value=None, witness=(0, 1, 2),
                                  forbidden_radius=1.0, protocol="synthetic",
                                  seed=None)
    result = criterion_check(samples, f, HALF, range(2, 5))
    assert result.verdict == "infinite"


def test_criterion_range_mismatch():
    f = FloydFunction.inverse_power(2)
    samples = _synthetic([(n, 3 * n) for n in range(1, 10)])
    with pytest.raises(RangeMismatch):
        criterion_check(samples, f, HALF, range(2, 8))


def test_criterion_non_decaying():
    f = FloydFunction.inverse_power(2)
    samples = _synthetic([(n, 3 * n) for n in range(1, 13)])
    result = criterion_check(samples, f, HALF, range(2, 7))
    assert result.verdict == "non-decaying"
