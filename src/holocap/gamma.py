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
Membership is exact (no grid-cell thickening).  Two structures are carried
instead of scanned.  Products of 1-D shapes and all their linear images are
preimages {z : (M z)_i in K_i} of a product under an invertible M; the fiber
over a prefix is the intersection of the affine images of the factors that
the last coordinate enters, so the projection is empty when one of those
images is polar at scale (cap(K_i)/|b_i| <= ``eps_cap``), is again a preimage
when only one factor is involved, and is otherwise decided prefix by prefix
from the closed-form capacity of the intersection (exact for segments and for
the lens of two disks, the cloud rule for point clouds; three or more disks,
like unions, take boundary samples).  Balls and their linear images are
ellipsoids {z : |B(z - c)| <= r}; every fiber of an ellipsoid is a disk, a
disk's capacity is its radius, and the prefixes whose fiber disk has radius
above ``eps_cap`` form an ellipsoid again, so these sets resolve exactly in
closed form.  Only opaque predicates are scanned; there a fiber that is a
finite point set, or a curve the scan grid misses, is polar at sampled
scale.

Resolutions are fixed: a scanned fiber is a ``FIBER_RESOLUTION`` (64) square
grid screened by a greedy capacity of ``FIBER_CAPACITY_POINTS`` (32) points,
and a scanned final set a ``PROJECTED_RESOLUTION`` (32) square grid.  A final
set in C^1 that is a disk or a segment takes its capacity in closed form (its
radius, or its length over 4); unions, point clouds and scanned sets take the
estimate at the working resolution of :mod:`holocap.capacity` (128 points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import schema
from .capacity import (CANDIDATES, EPS_CAP, FEKETE_N, _closed_form_capacity, capacity,
                       capacity_of_cloud, quick_cloud_capacity)
from .errors import UnboundedSet
from .sets import (MEMBERSHIP_TOL, CompactSet, Disk, PointCloud, Segment, affine_image,
                   bounding_box, contains, discretize, set_from_json)

MAX_DIMENSION = 3   # products and scans only: ellipsoids project in closed form

FIBER_RESOLUTION = 64
PROJECTED_RESOLUTION = 32
FIBER_CAPACITY_POINTS = 32


@dataclass(frozen=True)
class SetPredicate:
    """Membership predicate over C^m with a finite bounding box.

    ``membership`` maps an (N, m) complex array to an (N,) boolean array and
    must be deterministic.  ``bounding_box`` holds ((re_lo, re_hi), (im_lo, im_hi))
    per coordinate.  ``preimage`` holds (M, factors) when the set is
    {z : (M z)_i in factors[i] for every i} with M invertible and the factors
    1-D shapes (M = I for a coordinate product), and ``ellipsoid`` holds
    (c, B, r) when the set is {z : |B(z - c)| <= r} with B invertible (both
    enable exact fibers).
    """

    membership: Callable = field(compare=False)
    bounding_box: tuple
    dimension: int
    preimage: tuple | None = field(default=None, compare=False)
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


def _require_finite_box(pred: SetPredicate) -> None:
    for coord in pred.bounding_box:
        for interval in coord:
            for v in interval:
                if not math.isfinite(v):
                    raise UnboundedSet("predicate bounding box must be finite")


def product_predicate(factors) -> SetPredicate:
    """Coordinate product of 1-D compact shapes."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("product 'factors' must be nonempty")
    return _preimage_predicate(np.eye(len(factors), dtype=np.complex128), factors,
                               tuple(bounding_box(f) for f in factors))


def _preimage_predicate(mat: np.ndarray, factors: tuple, box: tuple) -> SetPredicate:
    """{z : (mat z)_i in factors[i] for every i}."""

    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        images = zs @ mat.T
        ok = np.ones(len(zs), dtype=bool)
        for i, f in enumerate(factors):
            ok &= contains(f, images[:, i])
        return ok

    return SetPredicate(membership=member, bounding_box=box, dimension=mat.shape[1],
                        preimage=(mat, factors))


def ball_predicate(center, radius: float) -> SetPredicate:
    """Closed Euclidean ball in C^m."""
    center = np.asarray(center, dtype=np.complex128)
    schema.check(radius, ">0", "ball radius")
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
    """Radius of a ball about 0 holding the box; a scaled norm, so no square overflows."""
    return math.hypot(*(max(abs(lo), abs(hi)) for coord in box for lo, hi in coord))


def linear_image(matrix, pred: SetPredicate) -> SetPredicate:
    """Image of the set under an invertible linear map."""
    if len(matrix) != pred.dimension or {np.shape(row) for row in matrix} != {(pred.dimension,)}:
        raise ValueError("linear image 'matrix' must be square, of its predicate's dimension")
    a = np.asarray(matrix, dtype=np.complex128)
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        raise ValueError("linear image matrix entries must be finite, got "
                         + ", ".join(f"{a[i, j]} at ({i}, {j})" for i, j in bad))
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:   # numpy's message names no field
        raise ValueError("linear image 'matrix' is singular") from None
    inner = pred.membership

    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        return inner(zs @ inv.T)

    r = _enclosing_radius(pred.bounding_box) * float(np.linalg.norm(a, 2))
    box = tuple(((-r, r), (-r, r)) for _ in range(pred.dimension))
    preimage = ellipsoid = None
    if pred.preimage is not None:
        mat, factors = pred.preimage
        preimage = (mat @ inv, factors)
    if pred.ellipsoid is not None:
        c, b, radius = pred.ellipsoid
        ellipsoid = (a @ c, b @ inv, radius)
    return SetPredicate(membership=member, bounding_box=box, dimension=pred.dimension,
                        preimage=preimage, ellipsoid=ellipsoid)


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
    re, im = (np.linspace(lo, hi, resolution) if math.isfinite(float(hi) - float(lo))
              else 2.0 * np.linspace(lo / 2.0, hi / 2.0, resolution)   # halves: no overflow
              for lo, hi in coord_box)
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
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite factor is refused below
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


def _factor_capacity(shape: CompactSet, eps_cap: float) -> float:
    """Capacity of a 1-D shape: its closed form, else the estimate.

    A disk, a segment and a union of collinear segments take their exact
    closed forms (Ransford 1995, ch. 5; ``capacity._closed_form_capacity``);
    other unions and point clouds take the ``FEKETE_N``-point estimate of
    :func:`capacity.capacity`.
    Both the fiber decisions and ``gamma_cap``'s final value read it.
    """
    value = _closed_form_capacity(shape)
    return capacity(shape, n=FEKETE_N, eps_cap=eps_cap).value if value is None else value


def _lens_capacity(dist: np.ndarray, r1: float, r2: float) -> np.ndarray:
    """Capacity of the intersection of two disks at centre distance ``dist``.

    Nested disks give the smaller one and disjoint (or tangent) disks a polar
    set.  A proper lens has vertices p, q at the ends of its common chord
    (half-length h) and exterior angle s = a1 + a2 there, a_i = atan2(h, -x_i)
    with x_i the signed distance from centre i to the chord toward the other
    centre.  z -> ((z - p)/(z - q))^(pi/s) maps its exterior onto a half-plane,
    so cap = pi h / (s sin(pi a_i / s)) (conformal invariance; Ransford 1995,
    ch. 5); the smaller a_i keeps the sine accurate next to either tangency.
    """
    small, big = min(r1, r2), max(r1, r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (dist + (r1 - r2) / dist * (r1 + r2)) / 2.0   # signed distance from c1 to the chord
        h = np.sqrt(np.maximum(r1 - x, 0.0)) * np.sqrt(np.maximum(r1 + x, 0.0))
        a1, a2 = np.arctan2(h, -x), np.arctan2(h, x - dist)
        s = a1 + a2
        lens = math.pi * (h / s) / np.sin(math.pi * np.minimum(a1, a2) / s)
    return np.where(dist + small <= big, small, np.where(dist >= r1 + r2, 0.0, lens))


def _clip_segment(seg: Segment, scale: complex, offsets: np.ndarray, others) -> np.ndarray:
    """Capacity of the fiber (seg - offset)/scale cut by the ``others`` parts, per prefix.

    A segment part cut by disks and collinear segments is a sub-segment, whose
    capacity is its length over 4; a non-collinear segment leaves at most a
    point.  Positions are parameters t of w = origin + t * step, t in [0, 1]; a prefix
    whose parameters are not all finite keeps nothing, so no NaN decides a fiber.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        origin = (seg.a - offsets) / scale
        step = (seg.b - seg.a) / scale
        lo, hi = np.zeros(len(offsets)), np.ones(len(offsets))
        finite = np.isfinite(origin) & np.isfinite(step)
        for part, b, off in others:
            tol = MEMBERSHIP_TOL / abs(b * step)
            if isinstance(part, Disk):
                u = ((part.center - off) / b - origin) / step
                reach = part.radius / abs(b * step) + tol
                across = np.abs(u.imag)
                half = np.sqrt(np.maximum(reach - across, 0.0)) * np.sqrt(reach + across)
                lo, hi = np.maximum(lo, u.real - half), np.minimum(hi, u.real + half)
                hi[across > reach] = -np.inf
                finite &= np.isfinite(u) & np.isfinite(reach)
            else:
                ta = ((part.a - off) / b - origin) / step
                tb = ((part.b - off) / b - origin) / step
                lo = np.maximum(lo, np.minimum(ta.real, tb.real))
                hi = np.minimum(hi, np.maximum(ta.real, tb.real))
                hi[(np.abs(ta.imag) > tol) | (np.abs(tb.imag) > tol)] = -np.inf
                finite &= np.isfinite(ta) & np.isfinite(tb) & np.isfinite(tol)
        return np.where(finite, np.maximum(hi - lo, 0.0) * abs(step) / 4.0, 0.0)


def _fiber_capacity(parts: tuple, scales: np.ndarray, offsets: np.ndarray,
                    cloud_value: Callable) -> np.ndarray | None:
    """cap(intersection of (K_i - offsets[:, i]) / scales[i]), one value per prefix.

    One row of ``offsets`` per prefix.  A point-cloud part is cut to its
    points inside every other part, and ``cloud_value`` gives the cloud
    rule's capacity of those points (scaled, not shifted); a segment part is
    clipped exactly; two disks give a lens.  Unions and three or more disks
    have no closed form here: None.
    """
    kinds = [type(p) for p in parts]
    if PointCloud in kinds:
        c = kinds.index(PointCloud)
        pts = np.asarray(parts[c].points)
        w = (pts[None, :] - offsets[:, c:c + 1]) / scales[c]
        inside = np.ones(w.shape, dtype=bool)
        for j, part in enumerate(parts):
            if j != c:
                inside &= contains(part, offsets[:, j:j + 1] + scales[j] * w)
        return np.array([cloud_value(pts[mask] / scales[c]) for mask in inside])
    if Segment in kinds and set(kinds) <= {Disk, Segment}:
        s = kinds.index(Segment)
        others = [(p, scales[j], offsets[:, j]) for j, p in enumerate(parts) if j != s]
        return _clip_segment(parts[s], scales[s], offsets[:, s], others)
    if kinds == [Disk, Disk]:
        (d1, d2), (b1, b2) = parts, scales
        dist = np.abs((d2.center - offsets[:, 1]) / b2 - (d1.center - offsets[:, 0]) / b1)
        return _lens_capacity(dist, d1.radius / abs(b1), d2.radius / abs(b2))
    return None


def _intersection_samples(parts: tuple, count: int) -> np.ndarray:
    """Boundary samples of the intersection of 1-D shapes.

    The intersection's boundary lies in the union of the parts' boundaries,
    so it is sampled by each part's samples that lie in all the other parts.
    """
    per = max(-(-count // len(parts)), 2)
    kept = []
    for i, part in enumerate(parts):
        pts = discretize(part, per)
        for j, other in enumerate(parts):
            if j != i:
                pts = pts[contains(other, pts)]
        kept.append(pts)
    return np.concatenate(kept)


def _project_preimage(pred: SetPredicate, eps_cap: float) -> SetPredicate:
    """Drop the last coordinate of {z : (M z)_i in K_i}.

    With b = M[:, -1] and a_i the rest of row i, the fiber over a prefix p
    is the intersection of (K_i - a_i p) / b_i over the rows with b_i != 0;
    the rows with b_i = 0 constrain p alone.  Each such part has capacity
    cap(K_i)/|b_i| whatever p is, so by monotonicity the projection is empty
    when one of them is at most ``eps_cap``.  With one such row the fiber is
    that part, and the kept set is the preimage of the other rows.  With
    several, each prefix is decided from the intersection's closed-form
    capacity (:func:`_fiber_capacity`), or, for unions and three or more
    disks, from a quick capacity of its boundary samples.  A non-finite M can
    only come from over- or underflow in composing near-singular maps; the
    projection is then empty rather than a NaN.
    """
    mat, factors = pred.preimage
    empty = _empty_predicate(pred.dimension - 1)
    if not np.all(np.isfinite(mat)):
        return empty
    last = mat[:, -1]
    cut = np.flatnonzero(last != 0)
    if any(_factor_capacity(factors[i], eps_cap) <= eps_cap * abs(last[i]) for i in cut):
        return empty
    free = np.flatnonzero(last == 0)
    kept = _preimage_predicate(mat[free, :-1], tuple(factors[i] for i in free),
                               pred.bounding_box[:-1])
    if len(cut) == 1:
        return kept

    parts, scales, enter = tuple(factors[i] for i in cut), last[cut], mat[cut, :-1]
    cloud_values = {}

    def cloud_value(points: np.ndarray) -> float:
        key = points.tobytes()
        if key not in cloud_values:
            cloud_values[key] = capacity_of_cloud(points, eps_cap=eps_cap).value
        return cloud_values[key]

    def fiber_member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        ok = kept.membership(zs)
        idx = np.flatnonzero(ok)
        offsets = zs[idx] @ enter.T
        values = _fiber_capacity(parts, scales, offsets, cloud_value)
        if values is None:
            values = np.array([quick_cloud_capacity(_intersection_samples(
                tuple(affine_image(f, 1 / b, -off / b) for f, b, off in zip(parts, scales, row)),
                CANDIDATES), FIBER_CAPACITY_POINTS) for row in offsets])
        ok[idx] = values > eps_cap
        return ok

    return SetPredicate(membership=fiber_member, bounding_box=pred.bounding_box[:-1],
                        dimension=pred.dimension - 1)


def gamma_project(pred: SetPredicate, eps_cap: float = EPS_CAP) -> SetPredicate:
    """Drop the last coordinate, keeping points with a non-polar fiber.

    The result is true at z in C^{m-1} iff the fiber {w : (z, w) in K} has
    a capacity above ``eps_cap``.  Two structures resolve without a scan:
    preimages of products (coordinate products and all their linear images),
    whose fiber is an intersection of affine images of the factors, and
    ellipsoids (balls and their linear images), whose fiber is a disk, kept
    iff its radius exceeds ``eps_cap``.  Only an opaque predicate is
    scanned: its fiber is sampled on a 64 x 64 grid over the last
    coordinate's box and screened by a 32-point greedy capacity.
    """
    if pred.dimension < 2:
        raise ValueError("gamma_project needs dimension >= 2")
    _require_finite_box(pred)
    m = pred.dimension

    if pred.preimage is not None:
        return _project_preimage(pred, eps_cap)
    if pred.ellipsoid is not None:
        return _project_ellipsoid(pred, eps_cap)

    fiber_grid = _coordinate_grid(pred.bounding_box[-1], FIBER_RESOLUTION)
    inner = pred.membership

    def member(zs: np.ndarray) -> np.ndarray:
        zs = np.atleast_2d(np.asarray(zs, dtype=np.complex128))
        out = np.zeros(len(zs), dtype=bool)
        stacked = np.empty((len(fiber_grid), m), dtype=np.complex128)
        for i, z in enumerate(zs):
            stacked[:, :-1] = z
            stacked[:, -1] = fiber_grid
            alive = fiber_grid[inner(stacked)]
            out[i] = quick_cloud_capacity(alive, FIBER_CAPACITY_POINTS) > eps_cap
        return out

    return SetPredicate(membership=member, bounding_box=pred.bounding_box[:-1], dimension=m - 1)


def _shape_1d(pred: SetPredicate) -> CompactSet | None:
    """The 1-D shape of a structured predicate in C^1, or None when it must be scanned.

    A preimage in C^1 is the factor's image K / M; an ellipsoid is
    Disk(c, r / |B|).  A shape whose size under- or overflows falls back to
    the scan.
    """
    if pred.preimage is not None:
        mat, (factor,) = pred.preimage
        try:
            return affine_image(factor, 1 / complex(mat[0, 0]))
        except ValueError:
            return None
    if pred.ellipsoid is not None:
        c, b, r = pred.ellipsoid
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            radius = float(r / np.abs(b[0, 0]))
        if 0.0 < radius < math.inf:
            return Disk(complex(c[0]), radius)
    return None


def gamma_cap(pred: SetPredicate, unitary_count: int = 1, seed: int = 0,
              eps_cap: float = EPS_CAP) -> GammaCapResult:
    """Sampled-maximum projection capacity of the set.

    The identity is always evaluated; further unitaries are Haar samples
    drawn from per-index generators split off ``seed``, so results do not
    depend on evaluation order.  ``value`` is the max over the sample, a
    lower bound for the supremum over all unitaries; ``best_unitary`` is the
    first within 1e-12 relative of it, so rounding does not pick the witness.
    At dimension 1 this degenerates to the 1-D capacity of the set.  Scans
    use the fixed grids of the module docstring.  A final disk, segment or
    union of collinear segments takes its closed form (:func:`_factor_capacity`);
    another union, a point cloud or a scanned set takes the estimate at 128
    points on 4,096 candidates (``capacity.FEKETE_N``, ``capacity.CANDIDATES``).
    """
    schema.check(unitary_count, "int>=1", "unitary_count")
    m = pred.dimension
    if m > MAX_DIMENSION and pred.ellipsoid is None:
        raise ValueError(f"dimension {m} exceeds the supported maximum {MAX_DIMENSION} "
                         "of a product's 'factors'")
    _require_finite_box(pred)

    unitaries = [UnitarySample(np.eye(m, dtype=np.complex128), 0)]
    for i in range(1, unitary_count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        unitaries.append(UnitarySample(haar_unitary(m, rng), i))

    per = []
    for u in unitaries:
        p = pred if np.array_equal(u.matrix, np.eye(m)) else linear_image(u.matrix, pred)
        for _ in range(m - 1):
            p = gamma_project(p, eps_cap)
        shape = _shape_1d(p)
        if shape is not None:
            value = _factor_capacity(shape, eps_cap)
        else:
            scan = _coordinate_grid(p.bounding_box[0], PROJECTED_RESOLUTION)
            value = capacity_of_cloud(scan[p.membership(scan[:, None])], eps_cap=eps_cap).value
        per.append((u.seed, value))

    best = max(value for _, value in per)
    best_idx = next(k for k, (_, value) in enumerate(per) if best - value <= 1e-12 * best)
    return GammaCapResult(value=best, best_unitary=unitaries[best_idx],
                          per_unitary=tuple(per), fiber_threshold=eps_cap)


# ---------------------------------------------------------------------------
# JSON schema: {"kind": "product"|"ball"|"linear_image", ...}
# Products list 1-D set documents; matrices are nested [re, im] pairs.
# ---------------------------------------------------------------------------

_KINDS = {"product": (("factors", "list"),), "ball": (("center", "pairs"), ("radius", ">0")),
          "linear_image": (("matrix", "list"), ("of", "object"))}


def predicate_from_json(doc: dict, what: str = "predicate") -> SetPredicate:
    """The predicate of a JSON document; ``what`` names the document in every refusal."""
    where = what + " field"
    kind = schema.field(schema.check(doc, "object", what), "kind", tuple(_KINDS), where)
    got = schema.read(doc, _KINDS[kind], where)
    if kind == "product":
        return product_predicate([set_from_json(f, f"{where} 'factors' item {i}")
                                  for i, f in enumerate(got["factors"])])
    if kind == "ball":
        return ball_predicate(got["center"], float(got["radius"]))
    matrix = [schema.check(row, "pairs", f"{where} 'matrix' item {i}")
              for i, row in enumerate(got["matrix"])]
    return linear_image(matrix, predicate_from_json(got["of"], f"{where} 'of'"))
