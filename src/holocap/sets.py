"""Compact subsets of the complex plane and their discretizations.

Shapes are immutable value objects.  Disks are represented by their boundary
circle for all sampling purposes: polynomial sup-norms and equilibrium
problems on a closed disk live on the boundary (maximum principle), so
boundary-only sampling loses nothing.  Point clouds are the universal
fallback; every intermediate set produced by the extension pipeline is a
cloud over the user-supplied samples.

All sampling is deterministic (no RNG) so downstream certificates are
reproducible bit for bit.  Everything here is a pure function over frozen
values and is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import schema

#: points closer than this to a shape count as members of it
MEMBERSHIP_TOL = 1e-12

def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must have finite coordinates, got {z!r}")
    return z


@dataclass(frozen=True)
class Disk:
    """Closed disk; discretized by its boundary circle."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _require_finite(self.center, "Disk center"))
        schema.check(self.radius, ">0", "Disk radius")


@dataclass(frozen=True)
class Segment:
    """Closed straight segment between two distinct endpoints."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", _require_finite(self.a, "Segment endpoint"))
        object.__setattr__(self, "b", _require_finite(self.b, "Segment endpoint"))
        if self.a == self.b:
            raise ValueError(f"Segment endpoints 'a' and 'b' must differ, got {self.a!r} twice")


@dataclass(frozen=True)
class PointCloud:
    """Finite nonempty set of points."""

    points: tuple

    def __post_init__(self):
        z = np.fromiter(map(complex, self.points), np.complex128)
        if not np.isfinite(z).all():   # name the first non-finite point
            _require_finite(z[~np.isfinite(z)][0], "PointCloud point")
        pts = tuple(z.tolist())
        if not pts:
            raise ValueError("PointCloud must be nonempty")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class UnionSet:
    """Finite union of compact sets."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("UnionSet 'parts' must be nonempty")
        object.__setattr__(self, "parts", parts)


CompactSet = Union[Disk, Segment, PointCloud, UnionSet]


def discretize(set_: CompactSet, count: int) -> np.ndarray:
    """Deterministic sample of ``count`` points of the set.

    Disk boundaries are sampled at uniform angles starting at angle 0,
    segments at uniform parameters including both endpoints.  Clouds smaller
    than ``count`` are returned whole; larger clouds are evenly subsampled.
    Returns a complex128 array.
    """
    if count < 2:
        raise ValueError(f"discretize needs count >= 2, got {count}")
    if isinstance(set_, Disk):
        angles = 2.0 * np.pi * np.arange(count) / count
        return set_.center + set_.radius * np.exp(1j * angles)
    if isinstance(set_, Segment):
        t = np.linspace(0.0, 1.0, count)
        return set_.a + t * (set_.b - set_.a)
    if isinstance(set_, PointCloud):
        pts = np.asarray(set_.points, dtype=np.complex128)
        if len(pts) <= count:
            return pts
        idx = (np.arange(count) * len(pts)) // count
        return pts[idx]
    per = -(-count // len(set_.parts))  # a union: ceil division
    per = max(per, 2)
    return np.concatenate([discretize(p, per) for p in set_.parts])


def affine_image(set_: CompactSet, scale: complex, shift: complex = 0j) -> CompactSet:
    """The set scale * K + shift, for a nonzero ``scale``.

    Raises ``ValueError`` when the image is not a valid shape of the same
    kind, e.g. a disk radius that over- or underflows.
    """
    if isinstance(set_, Disk):
        return Disk(set_.center * scale + shift, set_.radius * abs(scale))
    if isinstance(set_, Segment):
        return Segment(set_.a * scale + shift, set_.b * scale + shift)
    if isinstance(set_, PointCloud):
        return PointCloud(tuple(p * scale + shift for p in set_.points))
    return UnionSet(tuple(affine_image(p, scale, shift) for p in set_.parts))


def distance_to(set_: CompactSet, z: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point of ``z`` to the (closed) set."""
    z = np.asarray(z, dtype=np.complex128)
    if isinstance(set_, Disk):
        return np.maximum(np.abs(z - set_.center) - set_.radius, 0.0)
    if isinstance(set_, Segment):
        d = set_.b - set_.a
        t = np.clip(((z - set_.a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
        return np.abs(z - (set_.a + t * d))
    if isinstance(set_, PointCloud):
        pts = np.asarray(set_.points, dtype=np.complex128)
        return np.min(np.abs(z[..., None] - pts), axis=-1)
    return np.min(np.stack([distance_to(p, z) for p in set_.parts]), axis=0)


def contains(set_: CompactSet, z: np.ndarray) -> np.ndarray:
    """Membership test at tolerance ``MEMBERSHIP_TOL`` (closed-set semantics)."""
    return distance_to(set_, z) <= MEMBERSHIP_TOL


def bounding_box(set_: CompactSet) -> tuple:
    """((re_lo, re_hi), (im_lo, im_hi)) enclosing the set."""
    if isinstance(set_, Disk):
        c, r = set_.center, set_.radius
        return ((c.real - r, c.real + r), (c.imag - r, c.imag + r))
    if isinstance(set_, Segment):
        re = sorted((set_.a.real, set_.b.real))
        im = sorted((set_.a.imag, set_.b.imag))
        return ((re[0], re[1]), (im[0], im[1]))
    if isinstance(set_, PointCloud):
        pts = np.asarray(set_.points, dtype=np.complex128)
        return (
            (float(pts.real.min()), float(pts.real.max())),
            (float(pts.imag.min()), float(pts.imag.max())),
        )
    boxes = [bounding_box(p) for p in set_.parts]
    return (
        (min(b[0][0] for b in boxes), max(b[0][1] for b in boxes)),
        (min(b[1][0] for b in boxes), max(b[1][1] for b in boxes)),
    )


# ---------------------------------------------------------------------------
# JSON schema:  {"shape": "disk"|"segment"|"cloud"|"union", ...fields...}
# Complex values are encoded as [re, im] pairs.
# ---------------------------------------------------------------------------

def _c2j(z: complex) -> list:
    return [z.real, z.imag]


def set_to_json(set_: CompactSet) -> dict:
    if isinstance(set_, Disk):
        return {"shape": "disk", "center": _c2j(set_.center), "radius": set_.radius}
    if isinstance(set_, Segment):
        return {"shape": "segment", "a": _c2j(set_.a), "b": _c2j(set_.b)}
    if isinstance(set_, PointCloud):
        return {"shape": "cloud", "points": [_c2j(p) for p in set_.points]}
    return {"shape": "union", "parts": [set_to_json(p) for p in set_.parts]}


# each shape's fields; a key not listed is ignored
_SHAPES = {"disk": (("center", "pair"), ("radius", ">0")),
           "segment": (("a", "pair"), ("b", "pair")),
           "cloud": (("points", "pairs"),), "union": (("parts", "list"),)}


def set_from_json(doc: dict, what: str = "set") -> CompactSet:
    """The set of a JSON document; ``what`` names the document in every refusal."""
    where = what + " field"
    shape = schema.field(schema.check(doc, "object", what), "shape", tuple(_SHAPES), where)
    got = schema.read(doc, _SHAPES[shape], where)
    set_ = (Disk(got["center"], float(got["radius"])) if shape == "disk" else
            Segment(got["a"], got["b"]) if shape == "segment" else
            PointCloud(got["points"].tolist()) if shape == "cloud" else
            UnionSet(tuple(set_from_json(p, f"{where} 'parts' item {i}")
                           for i, p in enumerate(got["parts"]))))
    if not math.isfinite(math.hypot(*(hi - lo for lo, hi in bounding_box(set_)))):
        raise ValueError(f"{where} {_SHAPES[shape][-1][0]!r}: the set's extent is beyond the "
                         "float range (its bounding box has no finite diagonal)")
    return set_
