"""Verification of declared thick structures on a ball.

A structure declares a constant C, a claimed order, a list of named vertex
subsets (optionally carrying their own nested structures), and D_min, the
finite-scale stand-in for "infinite diameter": no finite computation can
certify infinity, so chain intersections only need diameter >= D_min and
every verdict records the surrogate used.

Order-0 leaves are checked as wide: the probe must find a mid-anchored
quasi-geodesic segment near every eligible vertex, and the divergence of the
subset in its induced metric must fit as linear. The induced metric is the
shortest-path metric of the induced subgraph; a disconnected subset fails
immediately (the stricter of the two readings, and the documented one).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .divergence import DivergenceParams, div_function_estimate, growth_fit
from .errors import InsufficientData, SegmentTooLong, StructureDepthMismatch
from .graph_core import GraphBall, bfs_distances, csr_induced
from .quasigeodesic import wideness_probe

DIV_N_MIN = 2  # smallest n of a leaf's divergence fit
DIV_N_MAX_CAP = 12  # largest n of a leaf's divergence fit, when the ball allows it


@dataclass(frozen=True)
class ThickSubset:
    name: str
    vertices: tuple[int, ...]
    substructure: "ThickStructure | None" = None


@dataclass(frozen=True)
class ThickStructure:
    """A declared cover of a ball by subsets with order assignments."""

    C: float
    order: int
    D_min: int
    subsets: tuple[ThickSubset, ...]

    def __post_init__(self):
        if self.C < 0:
            raise ValueError("C must be >= 0")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.D_min < 1:
            raise ValueError("D_min must be >= 1")
        if not self.subsets:
            raise ValueError("structure needs at least one subset")
        for s in self.subsets:
            if not s.vertices:
                raise ValueError(f"subset {s.name!r} is empty")


def _at(path: str, key: str | int) -> str:
    """JSON path of `key` (a name or a list index) below `path`."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _located(where: str) -> str:
    return f"structure {where}" if where else "structure"


def _checked(value, kinds, what: str, where: str):
    """`value` if it is one of `kinds` (a bool is never a number, nor an
    infinite or NaN float), else a ValueError naming its JSON path."""
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or isinstance(value, float) and not math.isfinite(value)):
        shown = json.dumps(value, default=repr)
        shown = shown if len(shown) <= 40 else shown[:37] + "..."
        raise ValueError(f"{_located(where)}: expected {what}, got {shown}")
    return value


def _field(doc: dict, key: str, kinds, what: str, path: str):
    if key not in doc:
        raise ValueError(f"{_located(_at(path, key))}: missing")
    return _checked(doc[key], kinds, what, _at(path, key))


def _structure_at(doc, path: str) -> ThickStructure:
    _checked(doc, dict, "an object", path)
    subsets = []
    for i, entry in enumerate(_field(doc, "subsets", list, "a list", path)):
        here = _at(_at(path, "subsets"), i)
        _checked(entry, dict, "an object", here)
        vertices = _field(entry, "vertices", list, "a list", here)
        name = _field(entry, "name", str, "a string", here)
        for j, v in enumerate(vertices):
            if type(v) is not int:  # exact ints need no JSON path
                _checked(v, int, "an integer", _at(_at(here, "vertices"), j))
        sub = entry.get("substructure")
        subsets.append(ThickSubset(
            name=name, vertices=tuple(vertices),
            substructure=None if sub is None
            else _structure_at(sub, _at(here, "substructure"))))
    C = float(_field(doc, "C", (int, float), "a finite number", path))
    order = _field(doc, "order", int, "an integer", path)
    D_min = _field(doc, "D_min", int, "an integer", path)
    try:
        return ThickStructure(C=C, order=order, D_min=D_min, subsets=tuple(subsets))
    except ValueError as exc:
        raise ValueError(f"{_located(path)}: {exc}") from None


def structure_from_dict(doc: dict) -> ThickStructure:
    """Structure from its JSON form. Malformed input raises ValueError
    naming the JSON path of the offending value, e.g. subsets[0].vertices[2]."""
    return _structure_at(doc, "")


def structure_to_dict(structure: ThickStructure) -> dict:
    return {
        "C": structure.C,
        "order": structure.order,
        "D_min": structure.D_min,
        "subsets": [
            {
                "name": s.name,
                "vertices": list(s.vertices),
                "substructure": structure_to_dict(s.substructure)
                if s.substructure else None,
            }
            for s in structure.subsets
        ],
    }


def load_structure(path) -> ThickStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return structure_from_dict(json.load(fh))


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    violators: tuple[int, ...]
    C: float


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    edges: tuple[tuple[int, int], ...]
    component_count: int
    D_min: int


def _check_vertex_range(ball: GraphBall, structure: ThickStructure,
                        path: str, parent: ThickSubset | None = None) -> None:
    """ValueError naming the JSON path of the first vertex, at any depth,
    that is not a vertex of the ball or, inside a substructure, not a
    vertex of its parent subset (the range test first, at the same vertex)."""
    count = ball.vertex_count
    for i, s in enumerate(structure.subsets):
        here = _at(_at(path, "subsets"), i)
        verts = s.vertices
        # The first vertex out of range, if any, ends the parent test, so
        # the first failing index wins.
        bad, problem = len(verts), f"out of range 0..{count - 1}"
        if min(verts) < 0 or max(verts) >= count:
            bad = next(j for j, v in enumerate(verts) if not 0 <= v < count)
        if parent is not None:
            stray = np.flatnonzero(~np.isin(verts[:bad], parent.vertices))
            if stray.size:
                bad, problem = int(stray[0]), f"not in parent subset {parent.name!r}"
        if bad < len(verts):
            raise ValueError(f"{_located(_at(_at(here, 'vertices'), bad))}: "
                             f"vertex {verts[bad]} {problem}")
        if s.substructure is not None:
            _check_vertex_range(ball, s.substructure, _at(here, "substructure"), s)


def verify_cover(ball: GraphBall, structure: ThickStructure) -> CoverReport:
    """Every ball vertex must lie within C of some subset; violators are
    reported as data, not errors."""
    _check_vertex_range(ball, structure, "")
    cap = int(math.floor(structure.C))
    covered = np.zeros(ball.vertex_count, dtype=bool)
    for s in structure.subsets:
        covered |= bfs_distances(*ball.csr_arrays, s.vertices, cap) >= 0
    violators = tuple(np.flatnonzero(~covered).tolist())
    return CoverReport(ok=not violators, violators=violators, C=structure.C)


def _set_diameter_at_least(ball: GraphBall, vertices: Sequence[int],
                           bound: int) -> bool:
    """Whether the set has ball-metric diameter >= bound (early exit)."""
    if len(vertices) < 2:
        return bound <= 0
    members = np.unique(vertices)
    best = 0
    for s in members.tolist():
        ecc = int(bfs_distances(*ball.csr_arrays, s)[members].max())
        best = max(best, ecc)
        if best >= bound:
            return True
    return best >= bound


def verify_chains(ball: GraphBall, structure: ThickStructure) -> ChainReport:
    """Chain connectivity: subsets i, j are linked when N_C(Y_i) meets Y_j in
    a set of diameter >= D_min (either orientation); ok iff the link graph
    is connected. A vertex outside the ball raises ValueError naming its
    JSON path, as in verify_cover."""
    _check_vertex_range(ball, structure, "")
    m = len(structure.subsets)
    cap = int(math.floor(structure.C))
    near = [bfs_distances(*ball.csr_arrays, s.vertices, cap) >= 0
            for s in structure.subsets]
    members = [np.array(s.vertices) for s in structure.subsets]
    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            meet_ij = members[j][near[i][members[j]]]
            meet_ji = members[i][near[j][members[i]]]
            if (_set_diameter_at_least(ball, meet_ij, structure.D_min)
                    or _set_diameter_at_least(ball, meet_ji, structure.D_min)):
                edges.append((i, j))
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    links = sp.coo_matrix((np.ones(len(ends)), ends.T), shape=(m, m))
    components = int(connected_components(links, directed=False)[0])
    return ChainReport(ok=components == 1, edges=tuple(edges),
                       component_count=components, D_min=structure.D_min)


@dataclass(frozen=True)
class DivergenceCheckConfig:
    params: DivergenceParams = field(default_factory=DivergenceParams)
    margin: float = 3.0
    protocol: str = "auto"
    seed: int = 0
    pairs_per_n: int = 8
    c_per_pair: int = 4


# Leaf verdicts that could not be decided at the ball's scale.
_INCONCLUSIVE = frozenset({"insufficient-scale", "insufficient-data", "probe-failed"})


@dataclass(frozen=True)
class LeafVerdict:
    name: str
    connected: bool
    probe_pass_fraction: float | None
    divergence_verdict: str
    divergence_slope: float | None
    wide_ok: bool

    @property
    def inconclusive(self) -> bool:
        return self.divergence_verdict in _INCONCLUSIVE

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": "leaf",
            "connected": self.connected,
            "probe_pass_fraction": self.probe_pass_fraction,
            "divergence_verdict": self.divergence_verdict,
            "divergence_slope": self.divergence_slope,
            "wide_ok": self.wide_ok,
        }


@dataclass(frozen=True)
class ThickVerdict:
    cover_ok: bool
    chain_ok: bool
    recursive_ok: bool
    overall: bool
    cover: CoverReport
    chain: ChainReport
    subset_verdicts: tuple
    D_min: int
    order: int

    @property
    def inconclusive(self) -> bool:
        """Whether some leaf, at any depth, could not be decided at this
        scale (see `_INCONCLUSIVE`)."""
        return any(s.verdict.inconclusive for s in self.subset_verdicts)

    def to_dict(self) -> dict:
        return {
            "kind": "structure",
            "order": self.order,
            "surrogate_D_min": self.D_min,
            "cover_ok": self.cover_ok,
            "chain_ok": self.chain_ok,
            "recursive_ok": self.recursive_ok,
            "overall": self.overall,
            "cover_violators": list(self.cover.violators[:50]),
            "chain_edges": [list(e) for e in self.chain.edges],
            "subsets": [v.to_dict() for v in self.subset_verdicts],
        }


@dataclass(frozen=True)
class SubsetVerdict:
    name: str
    verdict: "ThickVerdict | LeafVerdict"

    @property
    def ok(self) -> bool:
        if isinstance(self.verdict, ThickVerdict):
            return self.verdict.overall
        return self.verdict.wide_ok

    def to_dict(self) -> dict:
        doc = self.verdict.to_dict()
        doc["name"] = self.name
        return doc


def _check_nesting(structure: ThickStructure) -> None:
    for s in structure.subsets:
        if s.substructure is None:
            continue
        if structure.order == 0:
            raise StructureDepthMismatch(
                f"order-0 structure cannot nest a substructure ({s.name!r})")
        if s.substructure.order >= structure.order:
            raise StructureDepthMismatch(
                f"substructure {s.name!r} claims order {s.substructure.order} "
                f">= parent order {structure.order}")
        _check_nesting(s.substructure)


def induced_ball(ball: GraphBall, vertices: Sequence[int]):
    """Ball on the induced subgraph of `vertices`, or None if `vertices` is
    empty or that subgraph is disconnected; one vertex gives the radius-0
    ball. Returns (sub_ball, members): `members` is the ascending int64
    array of the original ids, so vertex i of sub_ball is members[i]."""
    verts = np.unique(np.asarray(vertices, dtype=np.int64))
    if verts.size == 0:
        return None
    indptr, indices = csr_induced(*ball.csr_arrays, verts)
    base = int(np.argmin(ball.dist[verts]))  # nearest the base, then smallest
    # One search on the leaf's CSR arrays, the only layout a ball keeps.
    dist = bfs_distances(indptr, indices, base)
    if dist.min() < 0:
        return None
    sub = GraphBall(base=base, radius=int(dist.max()), indptr=indptr,
                    indices=indices, dist=dist)
    return sub, verts


def _leaf_wideness(name: str, ball: GraphBall, C: float, segment_length: int,
                   div: DivergenceCheckConfig) -> LeafVerdict:
    effective_c = max(1.0, C)
    try:
        report = wideness_probe(ball, effective_c, segment_length)
        frac = report.pass_fraction
    except SegmentTooLong:
        return LeafVerdict(name=name, connected=True, probe_pass_fraction=None,
                           divergence_verdict="probe-failed",
                           divergence_slope=None, wide_ok=False)
    n_max = min(DIV_N_MAX_CAP, int(math.floor(ball.radius / div.margin + 1e-9)))
    if n_max < DIV_N_MIN:
        return LeafVerdict(name=name, connected=True, probe_pass_fraction=frac,
                           divergence_verdict="insufficient-scale",
                           divergence_slope=None, wide_ok=False)
    samples = div_function_estimate(
        ball, n_max, div.params, protocol=div.protocol, seed=div.seed,
        margin=div.margin, n_min=DIV_N_MIN, pairs_per_n=div.pairs_per_n,
        c_per_pair=div.c_per_pair)
    try:
        fit = growth_fit(samples)
        verdict, slope = fit.verdict, fit.slope
    except InsufficientData:
        verdict, slope = "insufficient-data", None
    wide = frac == 1.0 and verdict == "linear-compatible"
    return LeafVerdict(name=name, connected=True, probe_pass_fraction=frac,
                       divergence_verdict=verdict, divergence_slope=slope,
                       wide_ok=wide)


def verify_thick(ball: GraphBall, structure: ThickStructure,
                 divergence_params: DivergenceCheckConfig | None = None,
                 segment_length: int = 8) -> ThickVerdict:
    """Full recursive verdict: coarse cover, chain connectivity through
    large-diameter intersections, and order-0 wideness at the leaves.

    A leaf is wide when `wideness_probe` finds a segment of length
    segment_length near every eligible vertex and the divergence of its
    induced ball, estimated for n = DIV_N_MIN..min(DIV_N_MAX_CAP,
    radius / margin) with `divergence_params`, fits as linear."""
    div = divergence_params or DivergenceCheckConfig()
    _check_nesting(structure)
    cover = verify_cover(ball, structure)
    chain = verify_chains(ball, structure)
    subset_verdicts = []
    for s in structure.subsets:
        induced = induced_ball(ball, s.vertices)
        if induced is None:
            leaf = LeafVerdict(name=s.name, connected=False,
                               probe_pass_fraction=None,
                               divergence_verdict="disconnected",
                               divergence_slope=None, wide_ok=False)
            subset_verdicts.append(SubsetVerdict(name=s.name, verdict=leaf))
            continue
        sub_ball, members = induced
        if s.substructure is not None:
            remap = {v: i for i, v in enumerate(members.tolist())}
            nested = _remap_structure(s.substructure, remap)
            verdict = verify_thick(sub_ball, nested, div, segment_length)
        else:
            verdict = _leaf_wideness(s.name, sub_ball, structure.C,
                                     segment_length, div)
        subset_verdicts.append(SubsetVerdict(name=s.name, verdict=verdict))
    recursive_ok = all(v.ok for v in subset_verdicts)
    return ThickVerdict(
        cover_ok=cover.ok, chain_ok=chain.ok, recursive_ok=recursive_ok,
        overall=cover.ok and chain.ok and recursive_ok,
        cover=cover, chain=chain, subset_verdicts=tuple(subset_verdicts),
        D_min=structure.D_min, order=structure.order)


def _remap_structure(structure: ThickStructure, remap: dict) -> ThickStructure:
    subsets = tuple(ThickSubset(
        name=s.name, vertices=tuple(remap[v] for v in s.vertices),
        substructure=_remap_structure(s.substructure, remap)
        if s.substructure else None) for s in structure.subsets)
    return ThickStructure(C=structure.C, order=structure.order,
                          D_min=structure.D_min, subsets=subsets)
