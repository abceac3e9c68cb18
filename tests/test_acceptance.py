"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria with stated
runtime budgets assert them; heavyweight inputs are generated inside the
timed window so the budgets are honest.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from floydlab.divergence import (
    DivergenceParams,
    criterion_check,
    div_function_estimate,
    growth_fit,
)
from floydlab.errors import ConditionAViolated
from floydlab.floyd_metric import (
    FloydFunction,
    check_sublinearity,
    floyd_distance,
    floyd_weighting,
    sphere_floyd_diameter,
    validate_floyd_function,
)
from floydlab.graph_core import bfs_parents, build_ball, extract_path
from floydlab.group_models import (
    DirectProduct,
    Free,
    FreeAbelian,
    FreeProduct,
    Heisenberg,
    cayley_ball,
    parse_model,
)
from floydlab.quasigeodesic import escape_constants, qg_certify
from floydlab.thickness import (
    DivergenceCheckConfig,
    ThickStructure,
    ThickSubset,
    verify_chains,
    verify_cover,
    verify_thick,
)

from helpers import min_floyd_over_simple_paths, neighbors, random_small_ball

INVPOW2 = FloydFunction.inverse_power(2)
HALF = DivergenceParams(0.5, 0.0)

_shared = {}


def report(number, ok, detail, elapsed):
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {state} [{elapsed:.1f}s] {detail}")
    assert ok, f"criterion {number}: {detail}"


def fixture_graphs():
    yield build_ball([(0, 1), (1, 2), (2, 3)], 0, 3)                     # path
    yield build_ball([(i, (i + 1) % 6) for i in range(6)], 0, 3)         # cycle
    yield build_ball(list(itertools.combinations(range(5), 2)), 0, 1)    # K5
    yield build_ball([(0, i) for i in range(1, 8)], 0, 1)                # star
    yield cayley_ball(FreeAbelian(2), 2)


def test_criterion_01_floyd_distance_oracle():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    balls = list(fixture_graphs())
    balls.extend(random_small_ball(random.Random(seed)) for seed in range(200))
    for i, ball in enumerate(balls):
        f = INVPOW2 if i % 2 == 0 else FloydFunction.exponential(0.5)
        w = floyd_weighting(ball, f)
        for u in range(ball.vertex_count):
            for v in range(u + 1, ball.vertex_count):
                got = floyd_distance(w, u, v)
                want = min_floyd_over_simple_paths(w, u, v)
                worst = max(worst, abs(got - want))
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30
    report(1, ok, f"{checked} pairs on {len(balls)} graphs, "
                  f"max |difference| = {worst:.2e}, oracle = exhaustive "
                  f"simple-path minimum", elapsed)


def test_criterion_02_thick_side_signature():
    t0 = time.perf_counter()
    ball = cayley_ball(FreeAbelian(2), 48)
    w = floyd_weighting(ball, INVPOW2)
    diams = {r: sphere_floyd_diameter(w, r, margin=3.0).diameter
             for r in range(4, 17)}
    _shared["z2_48_diams"] = diams
    values = [diams[r] for r in range(4, 17)]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    ratio = diams[16] / diams[4]
    elapsed = time.perf_counter() - t0
    ok = decreasing and ratio <= 0.35 and elapsed < 120
    report(2, ok, f"strictly decreasing r=4..16: {decreasing}, "
                  f"diam(S16)/diam(S4) = {ratio:.4f} <= 0.35", elapsed)


def test_criterion_03_non_thick_contrast():
    t0 = time.perf_counter()
    ball = cayley_ball(Free(2), 10)
    w = floyd_weighting(ball, INVPOW2)
    # Margin 1 is exact on trees: the unique simple path between any two
    # ball vertices never leaves the ball.
    diams = {r: sphere_floyd_diameter(w, r, margin=1.0).diameter
             for r in range(2, 11)}
    values = [diams[r] for r in range(2, 11)]
    nondecreasing = all(b >= a for a, b in zip(values, values[1:]))
    floor_ok = all(v >= 4.0 for v in values)
    at10 = diams[10]
    elapsed = time.perf_counter() - t0
    ok = nondecreasing and floor_ok and 5.0 <= at10 <= 5.3 and elapsed < 60
    report(3, ok, f"nondecreasing: {nondecreasing}, all >= 4.0: {floor_ok}, "
                  f"diam(S10) = {at10:.4f} in [5.0, 5.3] "
                  f"(tree oracle 5.0795)", elapsed)


def test_criterion_04_margin_stability():
    t0 = time.perf_counter()
    if "z2_48_diams" not in _shared:
        ball48 = cayley_ball(FreeAbelian(2), 48)
        w48 = floyd_weighting(ball48, INVPOW2)
        _shared["z2_48_diams"] = {
            r: sphere_floyd_diameter(w48, r, margin=3.0).diameter
            for r in range(4, 17)}
    base = _shared["z2_48_diams"]
    ball = cayley_ball(FreeAbelian(2), 64)
    w = floyd_weighting(ball, INVPOW2)
    worst = 0.0
    for r in range(4, 17):
        d64 = sphere_floyd_diameter(w, r, margin=3.0).diameter
        worst = max(worst, abs(d64 - base[r]) / base[r])
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05
    report(4, ok, f"radius 48 vs 64: max relative change over r=4..16 "
                  f"= {worst:.4f} <= 0.05", elapsed)


def test_criterion_05_divergence_dichotomy():
    t0 = time.perf_counter()
    z36 = cayley_ball(FreeAbelian(2), 36)
    samples = div_function_estimate(z36, 12, HALF, protocol="exhaustive",
                                    margin=3.0)
    _shared["z2_div_samples"] = samples
    fit = growth_fit([s for s in samples if 4 <= s.n <= 12])
    f4 = cayley_ball(Free(2), 4)
    tree = div_function_estimate(f4, 4, HALF, protocol="exhaustive",
                                 margin=1.0)
    infinities = all(s.is_infinite for s in tree if s.n >= 2)
    elapsed = time.perf_counter() - t0
    ok = (fit.verdict == "linear-compatible" and 0.8 <= fit.slope <= 1.2
          and infinities and elapsed < 120)
    report(5, ok, f"Z2 exhaustive slope n=4..12 = {fit.slope:.4f} in "
                  f"[0.8, 1.2]; F2 infinity markers for all n >= 2: "
                  f"{infinities}", elapsed)


def test_criterion_06_decay_pipeline():
    t0 = time.perf_counter()
    z144 = cayley_ball(FreeAbelian(2), 144)
    samples = div_function_estimate(z144, 48, HALF, protocol="sampled",
                                    seed=0, margin=3.0)
    result = criterion_check(samples, INVPOW2, HALF, range(2, 25))
    terms = [t.term for t in result.terms]
    elapsed = time.perf_counter() - t0
    ok = result.verdict == "decaying"
    report(6, ok, f"measured Z2 divergence * invpow:2 with delta=1/2, "
                  f"gamma=0: final term {terms[-1]:.4f} < 0.1 * max "
                  f"{max(terms):.4f}, verdict {result.verdict}", elapsed)


def test_criterion_07_floyd_validation():
    t0 = time.perf_counter()
    k1 = validate_floyd_function(INVPOW2, 100).K_observed
    k2 = validate_floyd_function(FloydFunction.exponential(0.5), 100).K_observed
    rejected = False
    try:
        validate_floyd_function(FloydFunction.custom_table([1, 2, 1]), 2)
    except ConditionAViolated:
        rejected = True
    sub = check_sublinearity(INVPOW2, 100)
    sub_ok = sub.values[-1] < 0.1 * sub.values[0]
    elapsed = time.perf_counter() - t0
    ok = k1 == 4.0 and k2 == 2.0 and rejected and sub_ok
    report(7, ok, f"K(invpow:2) = {k1} exactly 4, K(exp:0.5) = {k2} exactly "
                  f"2, table [1,2,1] rejected: {rejected}, n*f(n) at n=100 "
                  f"below a tenth of start: {sub_ok}", elapsed)


def test_criterion_08_escape_constants():
    t0 = time.perf_counter()
    exact = escape_constants(1.0)
    grid_ok = True
    for c in (1.0, 1.5, 2.0, 3.0, 4.0):
        res = escape_constants(c)
        k = res.K
        r = res.R + 0.5
        while r <= res.R + 100:
            if not 2 * r / k + c < ((k * c - 1) / (k * c)) * r - c:
                grid_ok = False
            r += 0.5
    elapsed = time.perf_counter() - t0
    ok = exact.K == 4.0 and exact.R == 8.0 and grid_ok
    report(8, ok, f"C=1 gives (K, R) = ({exact.K:g}, {exact.R:g}) with R = 8 "
                  f"exactly; strict inequality on r in (R, R+100], step 0.5, "
                  f"for C in {{1, 1.5, 2, 3, 4}}: {grid_ok}", elapsed)


def test_criterion_09_quasi_geodesic_certification():
    t0 = time.perf_counter()
    models = [FreeAbelian(2), Free(2), Heisenberg(),
              DirectProduct(FreeAbelian(1), Free(2)),
              FreeProduct(FreeAbelian(2), FreeAbelian(1))]
    rng = random.Random(2024)
    geodesics_ok = True
    count = 0
    for model in models:
        ball = cayley_ball(model, 4)
        for _ in range(20):
            u = rng.randrange(ball.vertex_count)
            v = rng.randrange(ball.vertex_count)
            _, parent, _ = bfs_parents(*ball.csr_arrays, u)
            path = extract_path(parent, v)
            if qg_certify(ball, path) != 1.0:
                geodesics_ok = False
            count += 1
    fixture_ok = True
    for d in range(2, 11):
        n = 2 * d + 2
        ball = build_ball([(i, (i + 1) % n) for i in range(n)], 0, d + 1)
        path = [0]
        prev = None
        for _ in range(d + 2):
            nxt = [u for u in neighbors(ball, path[-1]) if u != prev]
            prev = path[-1]
            path.append(nxt[0])
        if qg_certify(ball, path) != (d + 2) / (d + 1):
            fixture_ok = False
    elapsed = time.perf_counter() - t0
    ok = geodesics_ok and count == 100 and fixture_ok
    report(9, ok, f"{count} seeded BFS geodesics across 5 models certify at "
                  f"exactly 1.0: {geodesics_ok}; detour fixture equals "
                  f"(d+2)/(d+1) exactly for d=2..10: {fixture_ok}", elapsed)


def _whole(ball, order=0):
    return ThickStructure(C=1.0, order=order, D_min=4, subsets=(
        ThickSubset(name="all", vertices=tuple(range(ball.vertex_count))),))


def test_criterion_10_thickness_verifier():
    t0 = time.perf_counter()
    z16 = cayley_ball(FreeAbelian(2), 16)
    grid = verify_thick(z16, _whole(z16))
    grid_ok = grid.overall

    f4 = cayley_ball(Free(2), 4)
    tree = verify_thick(f4, _whole(f4), DivergenceCheckConfig(margin=1.0),
                        segment_length=6)
    tree_leaf = tree.subset_verdicts[0].verdict
    tree_ok = (not tree.overall) and tree_leaf.divergence_verdict == "infinite"

    zxf2 = cayley_ball(parse_model("prod:zn:1,free:2"), 7)
    product = verify_thick(
        zxf2, _whole(zxf2),
        DivergenceCheckConfig(margin=1.4, protocol="sampled", seed=0),
        segment_length=6)
    product_ok = product.overall

    # Monotonicity on the even-lines fixture.
    z8 = cayley_ball(FreeAbelian(2), 8)
    from floydlab.group_models import cayley_ball_labeled
    _, elements = cayley_ball_labeled(FreeAbelian(2), 8)
    all_lines = {}
    for i, el in enumerate(elements):
        if el[1] % 2 == 0:
            all_lines.setdefault(el[1], []).append(i)
    subsets_all = tuple(ThickSubset(name=f"y={y}", vertices=tuple(sorted(v)))
                        for y, v in sorted(all_lines.items()))
    central = tuple(s for s in subsets_all
                    if abs(int(s.name.split("=")[1])) <= 4)
    cover_by_c = {c: verify_cover(z8, ThickStructure(
        C=c, order=1, D_min=4, subsets=subsets_all)).ok
        for c in (0.0, 1.0, 2.0)}
    cover_monotone = (not cover_by_c[0.0]) and cover_by_c[1.0] and cover_by_c[2.0]
    chain_by_d = {d: verify_chains(z8, ThickStructure(
        C=2.0, order=1, D_min=d, subsets=central)).ok
        for d in (1, 2, 4, 9)}
    chain_monotone = (chain_by_d[1] and chain_by_d[2] and chain_by_d[4]
                      and not chain_by_d[9])

    elapsed = time.perf_counter() - t0
    ok = grid_ok and tree_ok and product_ok and cover_monotone and chain_monotone
    report(10, ok, f"Z2 order-0 pass: {grid_ok}; F2 order-0 fails infinite: "
                   f"{tree_ok}; ZxF2 order-0 pass: {product_ok}; cover "
                   f"monotone in C: {cover_monotone}; chains monotone in "
                   f"D_min: {chain_monotone}", elapsed)


def _run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "floydlab.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 2), proc.stderr
    return proc


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    graph = tmp_path / "z12.graph"
    _run_cli("gen", "--model", "zn:2", "--radius", "12", "--out", str(graph))
    structure = tmp_path / "structure.json"
    from floydlab.graph_core import read_graph_file
    ball = read_graph_file(graph)
    structure.write_text(json.dumps({
        "C": 1.0, "order": 0, "D_min": 4,
        "subsets": [{"name": "all",
                     "vertices": list(range(ball.vertex_count)),
                     "substructure": None}]}))

    commands = {
        "gen": ["gen", "--model", "zn:2", "--radius", "12"],
        "floyd-diam": ["floyd-diam", "--graph", str(graph), "--floyd",
                       "invpow:2", "--radii", "2..4"],
        "divergence": ["divergence", "--graph", str(graph), "--n-range",
                       "1..4", "--protocol", "sampled", "--seed", "11"],
        "criterion": ["criterion", "--graph", str(graph), "--floyd",
                      "invpow:2", "--n-range", "1..2", "--protocol",
                      "exhaustive", "--seed", "11"],
        "verify-thick": ["verify-thick", "--graph", str(graph), "--structure",
                         str(structure), "--margin", "2.4"],
    }
    all_ok = True
    for name, argv in commands.items():
        outputs = []
        for threads in ("1", "4"):
            for run in range(2):
                out = tmp_path / f"{name}-{threads}-{run}.out"
                _run_cli(*argv, "--threads", threads, "--out", str(out))
                outputs.append(out.read_bytes())
        if not all(o == outputs[0] for o in outputs[1:]):
            all_ok = False
            print(f"  mismatch in {name}")
    elapsed = time.perf_counter() - t0
    report(11, all_ok, "gen, floyd-diam, divergence, criterion, verify-thick "
                       "rerun byte-identical at thread counts 1 and 4",
           elapsed)
