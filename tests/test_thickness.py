import json

import numpy as np
import pytest

from floydlab import graph_core, quasigeodesic, thickness
from floydlab.errors import StructureDepthMismatch
from floydlab.graph_core import bfs_distances, unit_matrix
from floydlab.group_models import Free, FreeAbelian, Heisenberg, cayley_ball
from floydlab.thickness import (
    ChainReport,
    CoverReport,
    DivergenceCheckConfig,
    LeafVerdict,
    SubsetVerdict,
    ThickVerdict,
    ThickStructure,
    ThickSubset,
    induced_ball,
    load_structure,
    structure_from_dict,
    structure_to_dict,
    verify_chains,
    verify_cover,
    verify_thick,
)

from helpers import graph_distance


def whole_ball_structure(ball, order=0, C=1.0, D_min=4):
    return ThickStructure(C=C, order=order, D_min=D_min, subsets=(
        ThickSubset(name="all", vertices=tuple(range(ball.vertex_count))),))


def even_line_subsets(elements, max_y=None):
    lines = {}
    for i, el in enumerate(elements):
        if el[1] % 2 == 0 and (max_y is None or abs(el[1]) <= max_y):
            lines.setdefault(el[1], []).append(i)
    return tuple(ThickSubset(name=f"y={y}", vertices=tuple(sorted(v)))
                 for y, v in sorted(lines.items()))


def test_structure_validation():
    with pytest.raises(ValueError):
        ThickStructure(C=1.0, order=0, D_min=0, subsets=(
            ThickSubset(name="a", vertices=(0,)),))
    with pytest.raises(ValueError):
        ThickStructure(C=1.0, order=0, D_min=1, subsets=())
    with pytest.raises(ValueError):
        ThickStructure(C=1.0, order=0, D_min=1, subsets=(
            ThickSubset(name="a", vertices=()),))


def test_structure_json_round_trip(tmp_path):
    inner = ThickStructure(C=2.0, order=0, D_min=3, subsets=(
        ThickSubset(name="core", vertices=(0, 1, 2)),))
    outer = ThickStructure(C=1.0, order=1, D_min=4, subsets=(
        ThickSubset(name="a", vertices=(0, 1, 2, 3), substructure=inner),
        ThickSubset(name="b", vertices=(2, 3, 4, 5)),))
    doc = structure_to_dict(outer)
    assert structure_from_dict(doc) == outer
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(doc))
    assert load_structure(path) == outer


def test_cover_single_subset(z2_small):
    ball, _ = z2_small
    report = verify_cover(ball, whole_ball_structure(ball))
    assert report.ok and not report.violators


def test_cover_even_lines(z2_small):
    ball, elements = z2_small
    subsets = even_line_subsets(elements)
    ok = verify_cover(ball, ThickStructure(C=1.0, order=1, D_min=4,
                                           subsets=subsets))
    assert ok.ok
    bad = verify_cover(ball, ThickStructure(C=0.0, order=1, D_min=4,
                                            subsets=subsets))
    assert not bad.ok
    # violators are exactly the odd rows
    odd = {i for i, el in enumerate(elements) if el[1] % 2 != 0}
    assert set(bad.violators) == odd


def test_cover_monotone_in_C(z2_small):
    ball, elements = z2_small
    subsets = even_line_subsets(elements, max_y=4)
    results = {}
    for c in (0.0, 1.0, 2.0, 3.0, 4.0):
        results[c] = verify_cover(
            ball, ThickStructure(C=c, order=1, D_min=4, subsets=subsets)).ok
    passing = [c for c, ok in results.items() if ok]
    if passing:
        threshold = min(passing)
        assert all(results[c] for c in results if c >= threshold)


def test_chains_far_apart_subsets(z2_small):
    ball, elements = z2_small
    top = tuple(i for i, el in enumerate(elements) if el[1] >= 7)
    bottom = tuple(i for i, el in enumerate(elements) if el[1] <= -7)
    st = ThickStructure(C=1.0, order=1, D_min=2, subsets=(
        ThickSubset(name="top", vertices=top),
        ThickSubset(name="bottom", vertices=bottom)))
    report = verify_chains(ball, st)
    assert not report.ok
    assert report.edges == ()


def test_chains_even_lines_connected(z2_small):
    ball, elements = z2_small
    subsets = even_line_subsets(elements, max_y=4)
    report = verify_chains(ball, ThickStructure(C=2.0, order=1, D_min=4,
                                                subsets=subsets))
    assert report.ok
    assert len(report.edges) >= len(subsets) - 1


def test_chains_single_subset_vacuous(z2_small):
    ball, _ = z2_small
    report = verify_chains(ball, whole_ball_structure(ball))
    assert report.ok


def test_chains_monotone_in_dmin(z2_small):
    ball, elements = z2_small
    subsets = even_line_subsets(elements, max_y=4)
    oks = {}
    for dmin in (1, 2, 4, 8, 40):
        oks[dmin] = verify_chains(ball, ThickStructure(
            C=2.0, order=1, D_min=dmin, subsets=subsets)).ok
    passing = [d for d, ok in oks.items() if ok]
    if passing:
        threshold = max(passing)
        assert all(oks[d] for d in oks if d <= threshold)


def test_chains_count_link_components(z2_small):
    # Two linked pairs far apart: the link graph has exactly two components.
    ball, elements = z2_small
    top = tuple(i for i, el in enumerate(elements) if el[1] >= 4)
    bottom = tuple(i for i, el in enumerate(elements) if el[1] <= -4)
    st = ThickStructure(C=1.0, order=1, D_min=2, subsets=(
        ThickSubset(name="top-a", vertices=top),
        ThickSubset(name="bottom-a", vertices=bottom),
        ThickSubset(name="top-b", vertices=top),
        ThickSubset(name="bottom-b", vertices=bottom)))
    report = verify_chains(ball, st)
    assert report.edges == ((0, 2), (1, 3))
    assert report.component_count == 2
    assert not report.ok


BAD_VERTEX_CASES = {
    # name: (subsets, message), on zn:2 at radius 4 (vertices 0..40)
    "negative": (
        (ThickSubset(name="a", vertices=(0, 1, 2, 3, 4, 5, 6, 7)),
         ThickSubset(name="b", vertices=(-1, -2, -3, 5, 6, 7))),
        "structure subsets[1].vertices[0]: vertex -1 out of range 0..40"),
    "past-the-end": (
        (ThickSubset(name="a", vertices=(0, 1, 2)),
         ThickSubset(name="b", vertices=(3, 4, 41))),
        "structure subsets[1].vertices[2]: vertex 41 out of range 0..40"),
    "nested-stray": (
        (ThickSubset(name="a", vertices=(0, 1, 2, 3), substructure=ThickStructure(
            C=1.0, order=0, D_min=1, subsets=(
                ThickSubset(name="core", vertices=(1, 9)),))),
         ThickSubset(name="b", vertices=(2, 3, 4))),
        "structure subsets[0].substructure.subsets[0].vertices[1]: vertex 9 "
        "not in parent subset 'a'"),
}


@pytest.mark.parametrize("name", sorted(BAD_VERTEX_CASES))
@pytest.mark.parametrize("check", [verify_chains, verify_cover])
def test_chains_and_cover_reject_bad_vertices_by_json_path(name, check):
    # Unchecked, numpy would read a negative id as one counted from the end.
    ball = cayley_ball(FreeAbelian(2), 4)
    subsets, message = BAD_VERTEX_CASES[name]
    st = ThickStructure(C=1.0, order=1, D_min=2, subsets=subsets)
    with pytest.raises(ValueError) as err:
        check(ball, st)
    assert str(err.value) == message


def test_induced_metric_dominates_ambient(z2_small):
    ball, elements = z2_small
    ring = tuple(i for i, el in enumerate(elements)
                 if 2 <= abs(el[0]) + abs(el[1]) <= 4)
    sub, members = induced_ball(ball, ring)
    assert members.tolist() == sorted(ring)
    for i in range(0, sub.vertex_count, 5):
        dists = bfs_distances(sub.matrix, i)
        for j in range(sub.vertex_count):
            assert dists[j] >= graph_distance(ball, int(members[i]), int(members[j]))


def test_induced_disconnected_subset_returns_none(z2_small):
    ball, elements = z2_small
    split = tuple(i for i, el in enumerate(elements) if abs(el[1]) >= 6)
    assert induced_ball(ball, split) is None


def test_induced_one_vertex_subset_is_its_radius_0_ball(z2_small):
    ball, _ = z2_small
    sub, members = induced_ball(ball, (5,))
    assert (sub.vertex_count, sub.edge_count, sub.radius) == (1, 0, 0)
    assert members.dtype == np.int64 and members.tolist() == [5]


def test_verify_thick_one_vertex_subset_is_connected_and_inconclusive(z2_small):
    # A point is connected; no segment fits in it, so the probe fails and
    # the verdict is inconclusive, as a leaf and inside a nested structure.
    ball, _ = z2_small
    point = ThickStructure(C=1.0, order=0, D_min=4, subsets=(
        ThickSubset(name="p", vertices=(5,)),))
    st = ThickStructure(C=1.0, order=1, D_min=4, subsets=(
        ThickSubset(name="leaf", vertices=(5,)),
        ThickSubset(name="nested", vertices=(5,), substructure=point)))
    verdict = verify_thick(ball, st)
    leaf = verdict.subset_verdicts[0].verdict
    nested = verdict.subset_verdicts[1].verdict.subset_verdicts[0].verdict
    for v in (leaf, nested):
        assert v.connected
        assert v.divergence_verdict == "probe-failed"
    assert verdict.inconclusive


def test_verify_thick_grid_passes(z2_mid):
    ball, _ = z2_mid
    verdict = verify_thick(ball, whole_ball_structure(ball))
    assert verdict.overall
    leaf = verdict.subset_verdicts[0].verdict
    assert leaf.wide_ok
    assert leaf.probe_pass_fraction == 1.0
    assert leaf.divergence_verdict == "linear-compatible"


def test_each_leaf_builds_its_unit_matrix_once(monkeypatch):
    # induced_ball reads the leaf's base distances without a unit matrix,
    # and the leaf builds its cached `matrix` once for the probe (relaxed
    # segments, C = 1.5, go through qg_certify) and the divergence.
    built, leaves = [], []

    def counting_unit_matrix(indptr, indices):
        built.append(indices)
        return unit_matrix(indptr, indices)

    def leaf_of(ball, vertices):
        found = induced_ball(ball, vertices)
        leaves.append(found[0])
        return found

    for module in (graph_core, thickness):
        monkeypatch.setattr(module, "unit_matrix", counting_unit_matrix)
    monkeypatch.setattr(thickness, "induced_ball", leaf_of)
    certified = []
    qg_certify = quasigeodesic.qg_certify
    monkeypatch.setattr(quasigeodesic, "qg_certify",
                        lambda ball, path: certified.append(ball) or qg_certify(ball, path))
    ball = cayley_ball(Heisenberg(), 7)
    verdict = verify_thick(ball, whole_ball_structure(ball, C=1.5),
                           DivergenceCheckConfig(margin=1.0, protocol="sampled"),
                           segment_length=8)
    # The divergence ran: neither the probe nor the scale stopped it.
    assert verdict.subset_verdicts[0].verdict.divergence_verdict not in (
        "probe-failed", "insufficient-scale")
    assert certified and all(b is leaves[0] for b in certified)
    assert [sum(b is leaf.indices for b in built) for leaf in leaves] == [1]


def test_verify_thick_tree_fails_infinite():
    ball = cayley_ball(Free(2), 4)
    verdict = verify_thick(
        ball, whole_ball_structure(ball),
        DivergenceCheckConfig(margin=1.0),
        segment_length=6)
    assert not verdict.overall
    leaf = verdict.subset_verdicts[0].verdict
    assert leaf.divergence_verdict == "infinite"
    assert not leaf.wide_ok


def test_verify_thick_two_half_planes(z2_mid):
    # Deeply overlapping halves: the cut rows sit outside the region the
    # leaf divergence check samples, so both leaves measure as wide.
    ball, elements = z2_mid
    upper = tuple(i for i, el in enumerate(elements) if el[1] >= -8)
    lower = tuple(i for i, el in enumerate(elements) if el[1] <= 8)
    st = ThickStructure(C=1.0, order=1, D_min=4, subsets=(
        ThickSubset(name="upper", vertices=upper),
        ThickSubset(name="lower", vertices=lower)))
    verdict = verify_thick(ball, st)
    assert verdict.cover_ok
    assert verdict.chain_ok
    assert verdict.recursive_ok, [v.to_dict() for v in verdict.subset_verdicts]
    assert verdict.overall


def test_verify_thick_depth_mismatch(z2_small):
    ball, _ = z2_small
    nested = whole_ball_structure(ball)
    bad = ThickStructure(C=1.0, order=0, D_min=4, subsets=(
        ThickSubset(name="all", vertices=tuple(range(ball.vertex_count)),
                    substructure=nested),))
    with pytest.raises(StructureDepthMismatch):
        verify_thick(ball, bad)
    bad2 = ThickStructure(C=1.0, order=1, D_min=4, subsets=(
        ThickSubset(name="all", vertices=tuple(range(ball.vertex_count)),
                    substructure=whole_ball_structure(ball, order=1)),))
    with pytest.raises(StructureDepthMismatch):
        verify_thick(ball, bad2)


def test_verify_thick_disconnected_leaf(z2_small):
    ball, elements = z2_small
    split = tuple(i for i, el in enumerate(elements) if abs(el[1]) >= 6)
    rest = tuple(range(ball.vertex_count))
    st = ThickStructure(C=1.0, order=1, D_min=4, subsets=(
        ThickSubset(name="split", vertices=split),
        ThickSubset(name="all", vertices=rest)))
    verdict = verify_thick(ball, st)
    leaf = verdict.subset_verdicts[0].verdict
    assert not leaf.connected
    assert leaf.divergence_verdict == "disconnected"
    assert not verdict.overall


def test_leaf_probe_failed_only_for_a_segment_too_long():
    ball = cayley_ball(Free(2), 2)
    verdict = verify_thick(ball, whole_ball_structure(ball),
                           segment_length=8)
    leaf = verdict.subset_verdicts[0].verdict
    assert leaf.divergence_verdict == "probe-failed"
    assert leaf.probe_pass_fraction is None


def test_leaf_probe_errors_propagate(z2_small, monkeypatch):
    ball, _ = z2_small

    def broken(*args, **kwargs):
        raise RuntimeError("bug inside the probe")

    monkeypatch.setattr(thickness, "wideness_probe", broken)
    with pytest.raises(RuntimeError, match="bug inside the probe"):
        verify_thick(ball, whole_ball_structure(ball))


def test_verdict_json_shape(z2_mid):
    ball, _ = z2_mid
    verdict = verify_thick(ball, whole_ball_structure(ball))
    doc = verdict.to_dict()
    text = json.dumps(doc, sort_keys=True)
    again = json.loads(text)
    assert again["overall"] is True
    assert again["surrogate_D_min"] == 4
    assert again["subsets"][0]["kind"] == "leaf"


def _leaf_verdict(divergence_verdict):
    return LeafVerdict(name="leaf", connected=True, probe_pass_fraction=None,
                       divergence_verdict=divergence_verdict,
                       divergence_slope=None, wide_ok=False)


def _node_verdict(*verdicts):
    return ThickVerdict(
        cover_ok=True, chain_ok=True, recursive_ok=False, overall=False,
        cover=CoverReport(ok=True, violators=(), C=1.0),
        chain=ChainReport(ok=True, edges=(), component_count=1, D_min=1),
        subset_verdicts=tuple(SubsetVerdict(name=str(i), verdict=v)
                              for i, v in enumerate(verdicts)),
        D_min=1, order=1)


@pytest.mark.parametrize("leaf,inconclusive", [
    ("insufficient-scale", True), ("insufficient-data", True),
    ("probe-failed", True), ("linear-compatible", False),
    ("superlinear", False), ("sublinear", False), ("infinite", False),
    ("disconnected", False)])
def test_inconclusive_verdict_at_any_depth(leaf, inconclusive):
    decided = _leaf_verdict("linear-compatible")
    assert _leaf_verdict(leaf).inconclusive is inconclusive
    assert _node_verdict(decided, _leaf_verdict(leaf)).inconclusive is inconclusive
    deep = _node_verdict(decided, _node_verdict(_node_verdict(_leaf_verdict(leaf))))
    assert deep.inconclusive is inconclusive
    assert not _node_verdict(decided, _node_verdict(decided)).inconclusive
