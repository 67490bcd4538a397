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

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

#: points closer than this to a shape count as members of it
MEMBERSHIP_TOL = 1e-12

def _require_finite(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must have finite coordinates, got {z!r}")
    return z


def _require_finite_points(z: np.ndarray, what: str) -> np.ndarray:
    """``z``, or :func:`_require_finite`'s error for its first non-finite point ``z[i]``;
    ``what.format(i)`` names the point."""
    bad = np.flatnonzero(~np.isfinite(z))
    if len(bad):
        _require_finite(z[bad[0]], what.format(bad[0]))
    return z


@dataclass(frozen=True)
class Disk:
    """Closed disk; discretized by its boundary circle."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _require_finite(self.center, "Disk center"))
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"Disk radius must be positive and finite, got {self.radius}")


@dataclass(frozen=True)
class Segment:
    """Closed straight segment between two distinct endpoints."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", _require_finite(self.a, "Segment endpoint"))
        object.__setattr__(self, "b", _require_finite(self.b, "Segment endpoint"))
        if self.a == self.b:
            raise ValueError("Segment endpoints must be distinct")


@dataclass(frozen=True)
class PointCloud:
    """Finite nonempty set of points."""

    points: tuple

    def __post_init__(self):
        z = np.fromiter(map(complex, self.points), np.complex128)
        pts = tuple(_require_finite_points(z, "PointCloud point").tolist())
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
            raise ValueError("UnionSet must have at least one part")
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
    if isinstance(set_, UnionSet):
        per = -(-count // len(set_.parts))  # ceil division
        per = max(per, 2)
        return np.concatenate([discretize(p, per) for p in set_.parts])
    raise TypeError(f"not a CompactSet: {set_!r}")


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
    if isinstance(set_, UnionSet):
        return UnionSet(tuple(affine_image(p, scale, shift) for p in set_.parts))
    raise TypeError(f"not a CompactSet: {set_!r}")


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
    if isinstance(set_, UnionSet):
        return np.min(np.stack([distance_to(p, z) for p in set_.parts]), axis=0)
    raise TypeError(f"not a CompactSet: {set_!r}")


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
    if isinstance(set_, UnionSet):
        boxes = [bounding_box(p) for p in set_.parts]
        return (
            (min(b[0][0] for b in boxes), max(b[0][1] for b in boxes)),
            (min(b[1][0] for b in boxes), max(b[1][1] for b in boxes)),
        )
    raise TypeError(f"not a CompactSet: {set_!r}")


# ---------------------------------------------------------------------------
# JSON schema:  {"shape": "disk"|"segment"|"cloud"|"union", ...fields...}
# Complex values are encoded as [re, im] pairs.
# ---------------------------------------------------------------------------

def _c2j(z: complex) -> list:
    return [z.real, z.imag]


def _j2c(v) -> complex:
    """The complex number of a JSON [re, im] pair; anything else raises ``ValueError``."""
    if type(v) is list and len(v) == 2:
        re, im = v
        if type(re) in (int, float) and type(im) in (int, float):   # a bool is not a number
            return complex(re, im)
    raise ValueError(f"expected an [re, im] pair of numbers, got {v!r}")


_FIELD_KINDS = {numbers.Real: "a number", numbers.Integral: "an integer", bool: "a boolean",
                dict: "an object", list: "a list"}


def _field(doc: dict, name: str, kind: type, default=None, where: str = "certificate field"):
    """``doc[name]`` checked against ``kind``; a missing name without a default raises."""
    if name not in doc:
        if default is None:
            raise ValueError(f"{where} {name!r} is missing")
        return default
    value = doc[name]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"{where} {name!r} must be {_FIELD_KINDS[kind]}, got {value!r}")
    return value


def _points_from_json(values) -> np.ndarray:
    """A JSON list of [re, im] pairs as complex128, in one numpy pass if each pair passes
    :func:`_j2c`'s check, else pair by pair through it, naming the first fault."""
    try:
        flat = list(itertools.chain.from_iterable(values))
        if (set(map(type, values)) <= {list} and set(map(len, values)) <= {2}
                and set(map(type, flat)) <= {int, float}):
            return np.array(flat, dtype=np.float64).view(np.complex128)
    except (TypeError, OverflowError):
        pass
    return np.array([_j2c(v) for v in values], dtype=np.complex128)


def set_to_json(set_: CompactSet) -> dict:
    if isinstance(set_, Disk):
        return {"shape": "disk", "center": _c2j(set_.center), "radius": set_.radius}
    if isinstance(set_, Segment):
        return {"shape": "segment", "a": _c2j(set_.a), "b": _c2j(set_.b)}
    if isinstance(set_, PointCloud):
        return {"shape": "cloud", "points": [_c2j(p) for p in set_.points]}
    if isinstance(set_, UnionSet):
        return {"shape": "union", "parts": [set_to_json(p) for p in set_.parts]}
    raise TypeError(f"not a CompactSet: {set_!r}")


def set_from_json(doc: dict) -> CompactSet:
    if not isinstance(doc, dict):
        raise ValueError(f"a set must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("shape")
    if kind == "disk":
        radius = float(_field(doc, "radius", numbers.Real, where="set field"))
        return Disk(_j2c(doc["center"]), radius)
    if kind == "segment":
        return Segment(_j2c(doc["a"]), _j2c(doc["b"]))
    if kind == "cloud":
        return PointCloud(_points_from_json(doc["points"]).tolist())
    if kind == "union":
        return UnionSet(tuple(set_from_json(p) for p in doc["parts"]))
    raise ValueError(f"unknown shape kind: {kind!r}")
