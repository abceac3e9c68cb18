"""Group arithmetic with canonical normal forms, and Cayley ball enumeration.

Every model exposes the same small contract: an identity element, a fixed
symmetric generator list, multiplication by a single generator, and a
hashable normal form (`canonical_key`) for deduplication. Word lengths are
never computed from closed formulas; they emerge from the breadth-first
enumeration.

Coordinate models (Z^n, the Heisenberg group and direct products of them)
also multiply whole arrays of integer coordinate vectors at once; their
balls are enumerated layer by layer with numpy, with the same vertex
numbering as the element-by-element search that every other model uses.

Generator conventions are fixed per model (documented on each class) since
Floyd geometry depends on the generating set.
"""

from __future__ import annotations

import math
import string
from abc import ABC, abstractmethod
from typing import Any, Hashable

import numpy as np

from .errors import BallTooLarge, ModelAxiomViolation
from .graph_core import GraphBall, csr_from_edges, single_vertex_ball

DEFAULT_VERTEX_CAP = 5_000_000

_AXIOM_CHECK_LIMIT = 512


class GroupModel(ABC):
    """Pluggable group arithmetic driving Cayley ball generation."""

    name: str

    @abstractmethod
    def identity(self) -> Any: ...

    @abstractmethod
    def generator_labels(self) -> tuple[str, ...]: ...

    @abstractmethod
    def inverse_label(self, label: str) -> str: ...

    @abstractmethod
    def multiply(self, element: Any, label: str) -> Any: ...

    @abstractmethod
    def canonical_key(self, element: Any) -> Hashable:
        """Normal form of `element`: equal exactly for equal group elements."""

    # Coordinate models set this to the length of their integer coordinate
    # vectors and implement the four methods below.
    coordinate_dim: int | None = None

    def coordinate_bounds(self, radius: int) -> tuple[int, ...]:
        """Per coordinate, a bound on |c| over all elements of word length
        <= radius + 1."""
        raise NotImplementedError

    def to_coordinates(self, element) -> tuple[int, ...]:
        raise NotImplementedError

    def elements_from_coordinates(self, coords: np.ndarray) -> list:
        """The elements whose coordinate vectors are the rows of `coords`."""
        raise NotImplementedError

    def multiply_all(self, coords: np.ndarray) -> np.ndarray:
        """Images of each row of `coords` (shape (m, dim)) under every
        generator, in generator_labels() order: shape (m, labels, dim)."""
        raise NotImplementedError


class _IntVectorModel(GroupModel):
    """A coordinate model whose elements are the coordinate tuples."""

    def canonical_key(self, element):
        return element

    def to_coordinates(self, element):
        return element

    def elements_from_coordinates(self, coords):
        return list(map(tuple, coords.tolist()))


class FreeAbelian(_IntVectorModel):
    """Z^n with generators e1..en and inverses E1..En; elements are int tuples."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("rank must be >= 1")
        self.n = n
        self.name = f"zn:{n}"
        self.coordinate_dim = n
        self._labels = tuple(f"e{i + 1}" for i in range(n)) + tuple(
            f"E{i + 1}" for i in range(n))
        self._steps = np.concatenate([np.eye(n, dtype=np.int64),
                                      -np.eye(n, dtype=np.int64)])

    def identity(self):
        return (0,) * self.n

    def generator_labels(self):
        return self._labels

    def inverse_label(self, label):
        return label[0].swapcase() + label[1:]

    def multiply(self, element, label):
        i = int(label[1:]) - 1
        step = 1 if label[0] == "e" else -1
        return element[:i] + (element[i] + step,) + element[i + 1:]

    def coordinate_bounds(self, radius):
        return (radius + 1,) * self.n

    def multiply_all(self, coords):
        return coords[:, None, :] + self._steps


class Free(GroupModel):
    """Free group on k letters; elements are reduced words of signed ints.

    Letter i+1 carries label string.ascii_lowercase[i]; its inverse is the
    uppercase letter.
    """

    def __init__(self, k: int):
        if not 1 <= k <= 26:
            raise ValueError("rank must be in 1..26")
        self.k = k
        self.name = f"free:{k}"
        letters = string.ascii_lowercase[:k]
        self._labels = tuple(letters) + tuple(letters.upper())

    def identity(self):
        return ()

    def generator_labels(self):
        return self._labels

    def inverse_label(self, label):
        return label.swapcase()

    def _signed(self, label):
        low = label.lower()
        i = ord(low) - ord("a") + 1
        return i if label.islower() else -i

    def multiply(self, element, label):
        s = self._signed(label)
        if element and element[-1] == -s:
            return element[:-1]
        return element + (s,)

    def canonical_key(self, element):
        return element

    def word(self, text: str) -> tuple[int, ...]:
        """Convenience: evaluate a letter string like 'aaB' to an element."""
        el = self.identity()
        for ch in text:
            el = self.multiply(el, ch)
        return el


class Heisenberg(_IntVectorModel):
    """Integer Heisenberg group: triples with (x,y,z)*(x',y',z') =
    (x+x', y+y', z+z'+x*y'); generators a=(1,0,0), b=(0,1,0) and inverses.
    """

    name = "heis"
    coordinate_dim = 3

    _STEPS = {"a": (1, 0, 0), "A": (-1, 0, 0), "b": (0, 1, 0), "B": (0, -1, 0)}
    _STEP_ARRAY = np.array(list(_STEPS.values()), dtype=np.int64)

    def identity(self):
        return (0, 0, 0)

    def generator_labels(self):
        return ("a", "A", "b", "B")

    def inverse_label(self, label):
        return label.swapcase()

    def multiply(self, element, label):
        x, y, z = element
        gx, gy, gz = self._STEPS[label]
        return (x + gx, y + gy, z + gz + x * gy)

    def coordinate_bounds(self, radius):
        # x and y move by one per letter; z by |x| <= radius per b-letter.
        return (radius + 1, radius + 1, (radius + 1) ** 2)

    def multiply_all(self, coords):
        out = coords[:, None, :] + self._STEP_ARRAY
        out[:, :, 2] += coords[:, 0:1] * self._STEP_ARRAY[:, 1]
        return out


class DirectProduct(GroupModel):
    """A x B with generators of A acting on the left slot and B on the right."""

    def __init__(self, a: GroupModel, b: GroupModel):
        self.a = a
        self.b = b
        self.name = f"prod:{a.name},{b.name}"
        self._labels = tuple(f"l.{g}" for g in a.generator_labels()) + tuple(
            f"r.{g}" for g in b.generator_labels())
        if a.coordinate_dim is not None and b.coordinate_dim is not None:
            self.coordinate_dim = a.coordinate_dim + b.coordinate_dim

    def identity(self):
        return (self.a.identity(), self.b.identity())

    def generator_labels(self):
        return self._labels

    def inverse_label(self, label):
        side, inner = label.split(".", 1)
        factor = self.a if side == "l" else self.b
        return f"{side}.{factor.inverse_label(inner)}"

    def multiply(self, element, label):
        side, inner = label.split(".", 1)
        ea, eb = element
        if side == "l":
            return (self.a.multiply(ea, inner), eb)
        return (ea, self.b.multiply(eb, inner))

    def canonical_key(self, element):
        return (self.a.canonical_key(element[0]), self.b.canonical_key(element[1]))

    def coordinate_bounds(self, radius):
        return self.a.coordinate_bounds(radius) + self.b.coordinate_bounds(radius)

    def to_coordinates(self, element):
        return self.a.to_coordinates(element[0]) + self.b.to_coordinates(element[1])

    def elements_from_coordinates(self, coords):
        da = self.a.coordinate_dim
        return list(zip(self.a.elements_from_coordinates(coords[:, :da]),
                        self.b.elements_from_coordinates(coords[:, da:])))

    def multiply_all(self, coords):
        da = self.a.coordinate_dim
        left, right = coords[:, :da], coords[:, da:]
        la, lb = len(self.a.generator_labels()), len(self.b.generator_labels())
        out = np.empty((len(coords), la + lb, coords.shape[1]), dtype=np.int64)
        out[:, :la, :da] = self.a.multiply_all(left)
        out[:, :la, da:] = right[:, None, :]
        out[:, la:, :da] = left[:, None, :]
        out[:, la:, da:] = self.b.multiply_all(right)
        return out


class FreeProduct(GroupModel):
    """A * B with alternating-syllable normal forms.

    An element is a tuple of (factor_index, factor_element) syllables with
    no identity syllables and no equal consecutive factor indices; the
    normal form theorem makes the key injective.
    """

    def __init__(self, a: GroupModel, b: GroupModel):
        self.a = a
        self.b = b
        self.factors = (a, b)
        self.name = f"freeprod:{a.name},{b.name}"
        self._labels = tuple(f"l.{g}" for g in a.generator_labels()) + tuple(
            f"r.{g}" for g in b.generator_labels())
        self._id_keys = (a.canonical_key(a.identity()), b.canonical_key(b.identity()))

    def identity(self):
        return ()

    def generator_labels(self):
        return self._labels

    def inverse_label(self, label):
        side, inner = label.split(".", 1)
        factor = self.a if side == "l" else self.b
        return f"{side}.{factor.inverse_label(inner)}"

    def multiply(self, element, label):
        side, inner = label.split(".", 1)
        fi = 0 if side == "l" else 1
        factor = self.factors[fi]
        if element and element[-1][0] == fi:
            merged = factor.multiply(element[-1][1], inner)
            if factor.canonical_key(merged) == self._id_keys[fi]:
                return element[:-1]
            return element[:-1] + ((fi, merged),)
        return element + ((fi, factor.multiply(factor.identity(), inner)),)

    def canonical_key(self, element):
        return tuple((fi, self.factors[fi].canonical_key(el)) for fi, el in element)


def _spot_check(model: GroupModel, element, labels) -> None:
    key = model.canonical_key(element)
    for g in labels:
        image = model.multiply(element, g)
        back = model.multiply(image, model.inverse_label(g))
        if model.canonical_key(back) != key:
            raise ModelAxiomViolation(
                f"{model.name}: multiply by {g} then its inverse does not return "
                f"to the same element")


def _check_inverse_closed(model: GroupModel, labels) -> None:
    for g in labels:
        if model.inverse_label(g) not in labels:
            raise ModelAxiomViolation(
                f"{model.name}: generator set not closed under inverses ({g})")


def _too_large(model: GroupModel, radius: int, vertex_cap: int) -> BallTooLarge:
    return BallTooLarge(
        f"{model.name} ball of radius {radius} exceeds vertex cap {vertex_cap}")


def _fixes_an_element(model: GroupModel, g: str) -> ModelAxiomViolation:
    return ModelAxiomViolation(f"{model.name}: generator {g} fixes an element")


def _enumerate_ball(model: GroupModel, radius: int, vertex_cap: int):
    """BFS over canonical keys; returns (elements, ball)."""
    labels = model.generator_labels()
    _check_inverse_closed(model, labels)
    identity = model.identity()
    index = {model.canonical_key(identity): 0}
    elements = [identity]
    dist = [0]
    edges: set[tuple[int, int]] = set()
    frontier = [0]
    for layer in range(radius + 1):
        if not frontier:
            break
        next_frontier: list[int] = []
        for i in frontier:
            el = elements[i]
            if i < _AXIOM_CHECK_LIMIT:
                _spot_check(model, el, labels)
            for g in labels:
                image = model.multiply(el, g)
                key = model.canonical_key(image)
                j = index.get(key)
                if j is None:
                    if layer == radius:
                        continue
                    j = len(elements)
                    if j >= vertex_cap:
                        raise _too_large(model, radius, vertex_cap)
                    index[key] = j
                    elements.append(image)
                    dist.append(layer + 1)
                    next_frontier.append(j)
                if i == j:
                    raise _fixes_an_element(model, g)
                edges.add((min(i, j), max(i, j)))
        frontier = next_frontier
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    indptr, indices = csr_from_edges(len(elements), pairs[:, 0], pairs[:, 1])
    ball = GraphBall(base=0, radius=radius, indptr=indptr, indices=indices,
                     dist=dist)
    return elements, ball


def _enumerate_coordinates(model: GroupModel, radius: int, vertex_cap: int):
    """The same BFS as _enumerate_ball, one layer at a time with numpy.

    Returns (coordinates, ball), or None when the packed keys would not fit
    in int64. Each coordinate vector is packed into one int64 key using the
    model's bounds for the radius. In a Cayley graph a neighbor of a vertex
    at distance k is at distance k-1, k or k+1, so the images of a layer are
    looked up among the previous and the current layer only; the unseen
    ones form the next layer, numbered by first occurrence over (frontier
    vertex, generator), exactly as the element-by-element search numbers
    them. Row i of the adjacency is the sorted set of images of vertex i,
    which is symmetric because the generator set is closed under inverses.
    """
    labels = model.generator_labels()
    _check_inverse_closed(model, labels)
    bounds = np.array(model.coordinate_bounds(radius), dtype=np.int64)
    widths = [2 * int(b) + 1 for b in bounds]
    if math.prod(widths) >= 2 ** 63:
        return None
    strides = np.array([math.prod(widths[:k]) for k in range(len(widths))],
                       dtype=np.int64)
    n_labels, dim = len(labels), len(bounds)

    coords = [np.array([model.to_coordinates(model.identity())], dtype=np.int64)]
    nbr_blocks: list[tuple[np.ndarray, np.ndarray]] = []  # (row entries, degrees)
    layer_sizes = [1]
    total = 1
    # (sorted keys, vertex ids) of the previous and the current layer
    known = [((coords[0] + bounds) @ strides, np.zeros(1, dtype=np.int64))]
    for layer in range(radius + 1):
        frontier = coords[-1]
        start = total - len(frontier)
        images = model.multiply_all(frontier)
        if start < _AXIOM_CHECK_LIMIT:
            _spot_check_array(model, frontier[:_AXIOM_CHECK_LIMIT - start],
                              images, labels)
        if (np.abs(images) > bounds).any():
            raise ModelAxiomViolation(
                f"{model.name}: coordinates outside the bounds for radius {radius}")
        keys = ((images + bounds) @ strides).ravel()
        nbrs = np.full(len(keys), -1, dtype=np.int64)
        for sorted_keys, ids in known:
            pos = np.searchsorted(sorted_keys, keys).clip(0, len(ids) - 1)
            hit = sorted_keys[pos] == keys
            nbrs[hit] = ids[pos[hit]]
        unseen = np.flatnonzero(nbrs < 0)
        grow = layer < radius and len(unseen) > 0
        if grow:
            new_keys, first, inverse = np.unique(
                keys[unseen], return_index=True, return_inverse=True)
            if total + len(new_keys) > vertex_cap:
                raise _too_large(model, radius, vertex_cap)
            new_ids = np.empty(len(new_keys), dtype=np.int64)
            new_ids[np.argsort(first)] = np.arange(total, total + len(new_keys))
            nbrs[unseen] = new_ids[inverse.ravel()]
            coords.append(images.reshape(-1, dim)[unseen[np.sort(first)]])
            layer_sizes.append(len(new_keys))
            total += len(new_keys)
            known = [known[-1], (new_keys, new_ids)]
        nbrs = nbrs.reshape(len(frontier), n_labels)
        fixed = np.flatnonzero(nbrs == np.arange(start, start + len(frontier))[:, None])
        if len(fixed):
            raise _fixes_an_element(model, labels[fixed[0] % n_labels])
        nbrs.sort(axis=1)
        keep = nbrs >= 0
        keep[:, 1:] &= nbrs[:, 1:] != nbrs[:, :-1]
        nbr_blocks.append((nbrs[keep], keep.sum(axis=1)))
        if not grow:
            break
    indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.concatenate([deg for _, deg in nbr_blocks]), out=indptr[1:])
    ball = GraphBall(
        base=0, radius=radius, indptr=indptr,
        indices=np.concatenate([row for row, _ in nbr_blocks]),
        dist=np.repeat(np.arange(len(layer_sizes), dtype=np.int64), layer_sizes))
    return np.concatenate(coords), ball


def _spot_check_array(model: GroupModel, frontier: np.ndarray,
                      images: np.ndarray, labels) -> None:
    """_spot_check on the elements of `frontier`, whose array images must
    also equal their images under the scalar multiply."""
    for row, el in enumerate(model.elements_from_coordinates(frontier)):
        _spot_check(model, el, labels)
        for k, g in enumerate(labels):
            if tuple(images[row, k].tolist()) != model.to_coordinates(
                    model.multiply(el, g)):
                raise ModelAxiomViolation(
                    f"{model.name}: array multiply by {g} disagrees with multiply")


def _ball_and_elements(model: GroupModel, radius: int, vertex_cap: int,
                       want_elements: bool):
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius == 0:
        return single_vertex_ball(), (model.identity(),)
    if model.coordinate_dim is not None:
        found = _enumerate_coordinates(model, radius, vertex_cap)
        if found is not None:
            coords, ball = found
            elements = (tuple(model.elements_from_coordinates(coords))
                        if want_elements else None)
            return ball, elements
    elements, ball = _enumerate_ball(model, radius, vertex_cap)
    return ball, tuple(elements)


def cayley_ball_labeled(model: GroupModel, radius: int,
                        vertex_cap: int = DEFAULT_VERTEX_CAP):
    """Cayley ball plus the group element carried by each vertex index."""
    return _ball_and_elements(model, radius, vertex_cap, want_elements=True)


def cayley_ball(model: GroupModel, radius: int,
                vertex_cap: int = DEFAULT_VERTEX_CAP) -> GraphBall:
    """All elements of word length <= radius with generator edges between them."""
    return _ball_and_elements(model, radius, vertex_cap, want_elements=False)[0]


def growth_series(model: GroupModel, radius: int,
                  vertex_cap: int = DEFAULT_VERTEX_CAP) -> list[int]:
    """Sphere sizes |S_0|, |S_1|, ..., |S_radius| of the Cayley ball."""
    ball = cayley_ball(model, radius, vertex_cap)
    return np.bincount(ball.dist, minlength=radius + 1).tolist()


def parse_model(spec: str) -> GroupModel:
    """Parse a CLI model string.

    Grammar: ``zn:<n>``, ``free:<k>``, ``heis``, ``prod:<m1>,<m2>``,
    ``freeprod:<m1>,<m2>``. Composite factors must themselves be simple
    (zn/free/heis).
    """
    if spec == "heis":
        return Heisenberg()
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"unknown model spec {spec!r}")
    if kind == "zn":
        return FreeAbelian(_positive_int(rest, spec))
    if kind == "free":
        return Free(_positive_int(rest, spec))
    if kind in ("prod", "freeprod"):
        factors = _split_factors(rest, spec)
        cls = DirectProduct if kind == "prod" else FreeProduct
        return cls(*factors)
    raise ValueError(f"unknown model spec {spec!r}")


def _positive_int(text: str, spec: str) -> int:
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise ValueError(f"bad rank in model spec {spec!r}")
    return int(text)


def _split_factors(rest: str, spec: str) -> tuple[GroupModel, GroupModel]:
    for pos in range(len(rest)):
        if rest[pos] != ",":
            continue
        left, right = rest[:pos], rest[pos + 1:]
        try:
            fa, fb = parse_model(left), parse_model(right)
        except ValueError:
            continue
        if isinstance(fa, (DirectProduct, FreeProduct)) or isinstance(
                fb, (DirectProduct, FreeProduct)):
            raise ValueError(f"nested composite factors not supported: {spec!r}")
        return fa, fb
    raise ValueError(f"cannot split factors in model spec {spec!r}")
