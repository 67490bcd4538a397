"""Projection capacities for sets in several complex variables.

A set K in C^m is reduced one coordinate at a time: the projection keeps the
points of C^{m-1} whose fiber (the slice of K over the last coordinate) has
a positive 1-D capacity estimate.  Iterating down to C^1 and taking the
capacity of what survives gives a projection capacity; maximizing over a
sample of unitary images of K gives the reported value.  The supremum over
all unitaries is not computable, so the sampled maximum is a deterministic
lower-bound estimator, which is the useful direction when the quantity is
used as a positivity hypothesis.

Sets are supplied as predicates over C^m with finite bounding boxes.
Membership is exact (no grid-cell thickening): a fiber that is a finite
point set, or a curve the scan grid misses, is polar at sampled scale.
Products of 1-D shapes keep their structure through identity projections,
so common cases (polydisks, products with clouds or segments) are resolved
from the shape geometry instead of the scan grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .capacity import EPS_CAP, capacity, capacity_of_cloud, quick_cloud_capacity
from .errors import GammaPolar, UnboundedSet
from .sets import CompactSet, PointCloud, bounding_box, contains, discretize

MAX_DIMENSION = 3


@dataclass(frozen=True)
class GridSpec:
    """Scan resolutions; recorded in every result for reproducibility."""

    fiber_resolution: int = 64       # grid points per real dimension, fiber plane
    projected_resolution: int = 32   # per real dimension, final plane
    fiber_capacity_points: int = 32  # quick capacity size for fiber positivity
    capacity_points: int = 128       # capacity size for the final cloud
    shape_candidates: int = 4096     # discretization of structural 1-D shapes


@dataclass(frozen=True)
class SetPredicate:
    """Membership predicate over C^m with a finite bounding box.

    ``membership`` maps an (N, m) complex array to an (N,) boolean array and
    must be deterministic.  ``bounding_box`` holds ((re_lo, re_hi), (im_lo, im_hi))
    per coordinate.  ``product_factors`` carries the 1-D factor shapes when
    the set is a known coordinate product (enables exact fibers).
    """

    membership: Callable = field(compare=False)
    bounding_box: tuple
    dimension: int
    product_factors: tuple | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("predicate dimension must be >= 1")
        if len(self.bounding_box) != self.dimension:
            raise ValueError("bounding box must list one entry per coordinate")


@dataclass(frozen=True)
class UnitarySample:
    """Unitary matrix plus the index it was derived from (0 = identity)."""

    matrix: np.ndarray
    seed: int


@dataclass(frozen=True)
class GammaCapResult:
    value: float
    best_unitary: UnitarySample
    per_unitary: tuple            # ((seed, capacity value), ...)
    fiber_threshold: float
    grid: GridSpec


def _require_finite_box(pred: SetPredicate) -> None:
    for coord in pred.bounding_box:
        for interval in coord:
            for v in interval:
                if not math.isfinite(v):
                    raise UnboundedSet("predicate bounding box must be finite")


def predicate_from_set(shape: CompactSet) -> SetPredicate:
    """1-D predicate backed by a compact shape."""
    return product_predicate([shape])


def product_predicate(factors) -> SetPredicate:
    """Coordinate product of 1-D compact shapes."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("product needs at least one factor")

    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        ok = np.ones(len(zs), dtype=bool)
        for i, f in enumerate(factors):
            ok &= contains(f, zs[:, i])
        return ok

    return SetPredicate(membership=member,
                        bounding_box=tuple(bounding_box(f) for f in factors),
                        dimension=len(factors),
                        product_factors=factors)


def ball_predicate(center, radius: float) -> SetPredicate:
    """Closed Euclidean ball in C^m."""
    center = np.asarray(center, dtype=np.complex128)
    if radius <= 0:
        raise ValueError("ball radius must be positive")

    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        return np.sum(np.abs(zs - center) ** 2, axis=1) <= radius ** 2

    box = tuple(((c.real - radius, c.real + radius), (c.imag - radius, c.imag + radius))
                for c in center)
    return SetPredicate(membership=member, bounding_box=box, dimension=len(center))


def _enclosing_radius(box: tuple) -> float:
    s = 0.0
    for (re_lo, re_hi), (im_lo, im_hi) in box:
        s += max(re_lo ** 2, re_hi ** 2) + max(im_lo ** 2, im_hi ** 2)
    return math.sqrt(s)


def linear_image(matrix, pred: SetPredicate) -> SetPredicate:
    """Image of the set under an invertible linear map."""
    a = np.asarray(matrix, dtype=np.complex128)
    if a.shape != (pred.dimension, pred.dimension):
        raise ValueError("matrix shape must match the predicate dimension")
    inv = np.linalg.inv(a)
    inner = pred.membership

    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        return inner(zs @ inv.T)

    r = _enclosing_radius(pred.bounding_box) * float(np.linalg.norm(a, 2))
    box = tuple(((-r, r), (-r, r)) for _ in range(pred.dimension))
    return SetPredicate(membership=member, bounding_box=box, dimension=pred.dimension)


def transform_unitary(pred: SetPredicate, unitary: np.ndarray) -> SetPredicate:
    """Image under a unitary map; the exact identity keeps the predicate."""
    if np.array_equal(unitary, np.eye(pred.dimension, dtype=np.complex128)):
        return pred
    return linear_image(unitary, pred)


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R diagonal phases are folded into Q so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _coordinate_grid(coord_box, resolution: int) -> np.ndarray:
    (re_lo, re_hi), (im_lo, im_hi) = coord_box
    re = np.linspace(re_lo, re_hi, resolution)
    im = np.linspace(im_lo, im_hi, resolution)
    return (re[:, None] + 1j * im[None, :]).ravel()


def _empty_predicate(m: int) -> SetPredicate:
    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        return np.zeros(len(zs), dtype=bool)

    return SetPredicate(membership=member,
                        bounding_box=tuple(((0.0, 0.0), (0.0, 0.0)) for _ in range(m)),
                        dimension=m)


def gamma_project(pred: SetPredicate, grid: GridSpec = GridSpec(),
                  eps_cap: float = EPS_CAP) -> SetPredicate:
    """Drop the last coordinate, keeping points with a non-polar fiber.

    The result is true at z in C^{m-1} iff the sampled fiber
    {w : (z, w) in K} has a capacity estimate above ``eps_cap``.  For
    coordinate products the fiber equals the last factor everywhere over the
    prefix product, so the projection is resolved exactly.
    """
    if pred.dimension < 2:
        raise ValueError("gamma_project needs dimension >= 2")
    _require_finite_box(pred)
    m = pred.dimension

    if pred.product_factors is not None:
        fiber = capacity(pred.product_factors[-1], n=grid.capacity_points,
                         candidates=grid.shape_candidates, eps_cap=eps_cap)
        if fiber.value > eps_cap:
            return product_predicate(pred.product_factors[:-1])
        return _empty_predicate(m - 1)

    fiber_grid = _coordinate_grid(pred.bounding_box[-1], grid.fiber_resolution)
    inner = pred.membership
    nfib = grid.fiber_capacity_points

    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        out = np.zeros(len(zs), dtype=bool)
        stacked = np.empty((len(fiber_grid), m), dtype=np.complex128)
        for i, z in enumerate(zs):
            stacked[:, :-1] = z
            stacked[:, -1] = fiber_grid
            alive = fiber_grid[inner(stacked)]
            out[i] = quick_cloud_capacity(alive, nfib) > eps_cap
        return out

    return SetPredicate(membership=member, bounding_box=pred.bounding_box[:-1], dimension=m - 1)


def _final_cloud(pred: SetPredicate, grid: GridSpec) -> np.ndarray:
    """Point cloud of a 1-D predicate: shape discretization or grid scan."""
    if pred.product_factors is not None:
        return np.asarray(discretize(pred.product_factors[0], grid.shape_candidates))
    scan = _coordinate_grid(pred.bounding_box[0], grid.projected_resolution)
    return scan[pred.membership(scan[:, None])]


def _project_to_m1(pred: SetPredicate, unitary: np.ndarray, grid: GridSpec,
                   eps_cap: float) -> SetPredicate:
    """The set's image under the unitary, projected down to C^1."""
    p = transform_unitary(pred, unitary)
    for _ in range(pred.dimension - 1):
        p = gamma_project(p, grid, eps_cap)
    return p


def gamma_cap(pred: SetPredicate, unitary_count: int = 1, seed: int = 0,
              grid: GridSpec = GridSpec(), eps_cap: float = EPS_CAP) -> GammaCapResult:
    """Sampled-maximum projection capacity of the set.

    The identity is always evaluated; further unitaries are Haar samples
    drawn from per-index generators split off ``seed``, so results do not
    depend on evaluation order.  ``value`` is the max over the sample, a
    lower bound for the supremum over all unitaries.  At dimension 1 this
    degenerates to the plain 1-D capacity estimate.
    """
    if unitary_count < 1:
        raise ValueError("unitary_count must be >= 1")
    m = pred.dimension
    if m > MAX_DIMENSION:
        raise ValueError(f"dimension {m} exceeds the supported maximum {MAX_DIMENSION}")
    _require_finite_box(pred)

    unitaries = [UnitarySample(np.eye(m, dtype=np.complex128), 0)]
    for i in range(1, unitary_count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        unitaries.append(UnitarySample(haar_unitary(m, rng), i))

    per = []
    best_idx = 0
    for k, u in enumerate(unitaries):
        p = _project_to_m1(pred, u.matrix, grid, eps_cap)
        if p.product_factors is not None:
            value = capacity(p.product_factors[0], n=grid.capacity_points,
                             candidates=grid.shape_candidates, eps_cap=eps_cap).value
        else:
            value = capacity_of_cloud(_final_cloud(p, grid), n=grid.capacity_points,
                                      eps_cap=eps_cap).value
        per.append((u.seed, value))
        if value > per[best_idx][1]:
            best_idx = k

    return GammaCapResult(value=per[best_idx][1], best_unitary=unitaries[best_idx],
                          per_unitary=tuple(per), fiber_threshold=eps_cap, grid=grid)


def reduce_to_m1(pred: SetPredicate, result: GammaCapResult) -> tuple:
    """Witness 1-D point cloud behind a positive projection capacity.

    Recomputes the iterated projection for the best unitary and returns the
    surviving cloud together with that unitary.  Raises :class:`GammaPolar`
    when the result's value is at or below the polar threshold.
    """
    if result.value <= result.fiber_threshold:
        raise GammaPolar(
            f"projection capacity {result.value:.3e} is polar at threshold "
            f"{result.fiber_threshold:g}")
    p = _project_to_m1(pred, result.best_unitary.matrix, result.grid, result.fiber_threshold)
    cloud = _final_cloud(p, result.grid)
    return PointCloud(tuple(complex(z) for z in cloud)), result.best_unitary


# ---------------------------------------------------------------------------
# JSON schema: {"kind": "product"|"ball"|"linear_image", ...}
# Products list 1-D set documents; matrices are nested [re, im] pairs.
# ---------------------------------------------------------------------------

def predicate_from_json(doc: dict) -> SetPredicate:
    from .sets import set_from_json

    kind = doc.get("kind")
    if kind == "product":
        return product_predicate([set_from_json(f) for f in doc["factors"]])
    if kind == "ball":
        center = [complex(c[0], c[1]) for c in doc["center"]]
        return ball_predicate(center, float(doc["radius"]))
    if kind == "linear_image":
        matrix = [[complex(e[0], e[1]) for e in row] for row in doc["matrix"]]
        return linear_image(np.asarray(matrix), predicate_from_json(doc["of"]))
    raise ValueError(f"unknown predicate kind: {kind!r}")
