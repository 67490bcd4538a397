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
Two structures are carried instead of scanned.  Products of 1-D shapes keep
their structure through identity projections, so polydisks and products
with clouds or segments are resolved from the shape geometry.  Balls and
their linear images (unitary images included) are ellipsoids
{z : |B(z - c)| <= r}; every fiber of an ellipsoid is a disk, a disk's
capacity is its radius, and the prefixes whose fiber disk has radius above
``eps_cap`` form an ellipsoid again, so these sets resolve exactly in closed
form.  Everything else (linear images of products, opaque predicates) is
scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .capacity import EPS_CAP, capacity, capacity_of_cloud, quick_cloud_capacity
from .errors import GammaPolar, UnboundedSet
from .sets import CompactSet, Disk, PointCloud, bounding_box, contains, discretize

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
    the set is a known coordinate product, and ``ellipsoid`` holds (c, B, r)
    when the set is {z : |B(z - c)| <= r} with B invertible (both enable
    exact fibers).
    """

    membership: Callable = field(compare=False)
    bounding_box: tuple
    dimension: int
    product_factors: tuple | None = None
    ellipsoid: tuple | None = field(default=None, compare=False)

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
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"ball radius must be positive and finite, got {radius}")
    if not np.all(np.isfinite(center)):
        raise ValueError(f"ball center must have finite coordinates, got {center.tolist()}")

    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        return np.sum(np.abs(zs - center) ** 2, axis=1) <= radius ** 2

    box = tuple(((c.real - radius, c.real + radius), (c.imag - radius, c.imag + radius))
                for c in center)
    return SetPredicate(membership=member, bounding_box=box, dimension=len(center),
                        ellipsoid=(center, np.eye(len(center), dtype=np.complex128), radius))


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
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        raise ValueError("linear image matrix entries must be finite, got "
                         + ", ".join(f"{a[i, j]} at ({i}, {j})" for i, j in bad))
    inv = np.linalg.inv(a)
    inner = pred.membership

    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        return inner(zs @ inv.T)

    r = _enclosing_radius(pred.bounding_box) * float(np.linalg.norm(a, 2))
    box = tuple(((-r, r), (-r, r)) for _ in range(pred.dimension))
    ellipsoid = None
    if pred.ellipsoid is not None:
        c, b, radius = pred.ellipsoid
        ellipsoid = (a @ c, b @ inv, radius)
    return SetPredicate(membership=member, bounding_box=box, dimension=pred.dimension,
                        ellipsoid=ellipsoid)


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


def _project_ellipsoid(pred: SetPredicate, eps_cap: float) -> SetPredicate:
    """Closed-form projection of {z : |B(z - c)| <= r}.

    With b the last column of B, the fiber over a prefix p is a disk of
    radius sqrt(r^2 - |R(p - c')|^2) / |b|, where R is the triangular factor
    of B's other columns with their b component removed.  The disk's
    capacity is its radius, so the kept prefixes form the ellipsoid
    (c', R, sqrt(r^2 - eps_cap^2 |b|^2)), empty when that radicand is not
    positive.  A non-finite or zero column can only come from over- or
    underflow in composing near-singular maps; the projection is then empty
    rather than a NaN.
    """
    c, b, r = pred.ellipsoid
    empty = _empty_predicate(pred.dimension - 1)
    if not np.all(np.isfinite(b)):
        return empty
    last = b[:, -1]
    norm = math.hypot(*np.abs(last))    # scaled, so the squares cannot overflow
    q = eps_cap * norm / r              # eps_cap over the largest fiber radius
    if not (norm > 0 and q < 1):
        return empty
    unit = last / norm
    rest = b[:, :-1]
    _, tri = np.linalg.qr(rest - np.outer(unit, unit.conj() @ rest))
    kept = r * math.sqrt(1.0 - q * q)
    if not (kept > 0 and np.all(np.isfinite(tri))):
        return empty
    centre = c[:-1]

    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        return np.sum(np.abs((zs - centre) @ tri.T) ** 2, axis=1) <= kept * kept

    return SetPredicate(membership=member, bounding_box=pred.bounding_box[:-1],
                        dimension=pred.dimension - 1, ellipsoid=(centre, tri, kept))


def gamma_project(pred: SetPredicate, grid: GridSpec = GridSpec(),
                  eps_cap: float = EPS_CAP) -> SetPredicate:
    """Drop the last coordinate, keeping points with a non-polar fiber.

    The result is true at z in C^{m-1} iff the fiber {w : (z, w) in K} has
    a capacity above ``eps_cap``.  Two structures resolve exactly: for
    coordinate products the fiber equals the last factor everywhere over the
    prefix product, and for balls and their linear images (ellipsoids) each
    fiber is a disk, kept iff its radius exceeds ``eps_cap``.  Any other
    predicate is scanned: its fiber is sampled on a grid over the last
    coordinate's box and screened by a quick capacity estimate.
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
    if pred.ellipsoid is not None:
        return _project_ellipsoid(pred, eps_cap)

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


def _shape_1d(pred: SetPredicate) -> CompactSet | None:
    """The 1-D shape of a structured predicate in C^1, or None when it must be scanned.

    An ellipsoid in C^1 is Disk(c, r / |B|); one whose radius is not a
    positive float (under- or overflow) falls back to the scan.
    """
    if pred.product_factors is not None:
        return pred.product_factors[0]
    if pred.ellipsoid is not None:
        c, b, r = pred.ellipsoid
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            radius = float(r / np.abs(b[0, 0]))
        if 0.0 < radius < math.inf:
            return Disk(complex(c[0]), radius)
    return None


def _final_cloud(pred: SetPredicate, grid: GridSpec) -> np.ndarray:
    """Point cloud of a 1-D predicate: shape discretization or grid scan."""
    shape = _shape_1d(pred)
    if shape is not None:
        return np.asarray(discretize(shape, grid.shape_candidates))
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
        shape = _shape_1d(p)
        if shape is not None:
            value = capacity(shape, n=grid.capacity_points,
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
