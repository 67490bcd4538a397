"""Polynomial sup-norms on compacts and the capacity-based growth bound.

For a polynomial p of degree n and a non-polar compact K, the modulus off K
is controlled by the sup-norm on K amplified by the complement's Green
function:

    |p(z)| <= sup_K |p| * exp(n * g(z)).

``sup_norm`` reads sup_K |p| off two grids per disk or segment, a boundary
grid and a fine grid around its three best points, so up to rounding it is
a lower bound: every value is |p| at a point of K.  ``bernstein_bound``
evaluates the right-hand side; ``verify_bernstein`` checks the inequality on
a list of test points, widening the tolerance by the Green evaluator's clamp
magnitude so discrete-potential backings do not produce spurious violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import green_function
from .errors import FloatOverflow
from .sets import CompactSet, Disk, PointCloud, Segment, UnionSet

@dataclass(frozen=True)
class Polynomial1D:
    """Univariate polynomial, coefficients in ascending degree order."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(complex(c) for c in self.coefficients))

    @property
    def degree(self):
        """Index of the last nonzero coefficient; -inf for the zero polynomial."""
        for i in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[i] != 0:
                return i
        return -math.inf

    @property
    def is_zero(self) -> bool:
        return self.degree == -math.inf

    def __call__(self, z):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if len(coeffs) == 0:
            coeffs = np.zeros(1, dtype=np.complex128)
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=np.complex128), coeffs)


def sup_norm(p: Polynomial1D, set_: CompactSet) -> float:
    """Maximum of |p| over the set, read off two grids per disk or segment.

    The first grid has max(4096, 64 * (deg + 1)) points along the
    parameterization (angle on a disk's boundary circle, [0, 1] on a
    segment).  The second puts 4,097 points across the two cells around
    each of the first grid's three largest values, wrapping around on a
    disk and clipped to [0, 1] on a segment.  Each grid is one vectorized
    evaluation, and the larger maximum is returned.  Every value is taken
    at a point of the set, so up to rounding in p's values the result is a
    lower bound on the true sup-norm.  Clouds are exact, and unions take the
    max over their parts.
    """
    if p.is_zero:
        return 0.0
    if isinstance(set_, PointCloud):
        return float(np.max(np.abs(p(np.asarray(set_.points, dtype=np.complex128)))))
    if isinstance(set_, UnionSet):
        return max(sup_norm(p, part) for part in set_.parts)
    samples = max(4096, 64 * (int(p.degree) + 1))
    if isinstance(set_, Disk):
        params = 2.0 * np.pi * np.arange(samples) / samples
        point = lambda t: set_.center + set_.radius * np.exp(1j * t)
    else:   # a segment
        params = np.linspace(0.0, 1.0, samples)
        point = lambda t: set_.a + t * (set_.b - set_.a)
    values = np.abs(p(point(params)))
    fine = (params[np.argsort(values)[-3:], None]
            + (params[1] - params[0]) * np.linspace(-1.0, 1.0, 4097)).ravel()
    if isinstance(set_, Segment):
        fine = np.clip(fine, 0.0, 1.0)
    return float(max(values.max(), np.abs(p(point(fine))).max()))


def bernstein_bound(p: Polynomial1D, set_: CompactSet, z: complex) -> float:
    """Growth bound sup_K |p| * exp(deg(p) * g(z)) at the point z.

    A constant gets its sup-norm back (g is finite, so exp(0 * g) is 1), the
    zero polynomial gets 0.  Raises ``GreenUndefinedPolarSet`` for polar sets.
    """
    if p.is_zero:
        return 0.0
    z = complex(z)
    return _growth_bound(sup_norm(p, set_), int(p.degree), float(green_function(set_)(z)), z)


def _growth_bound(norm: float, deg: int, g: float, z: complex) -> float:
    """norm * exp(deg * g) for g = g(z); :class:`FloatOverflow` at stage bernstein_bound
    if not finite."""
    try:
        bound = norm * math.exp(deg * g)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise FloatOverflow(f"the bound at z = {z} is {bound!r}").with_stage("bernstein_bound")
    return bound


@dataclass(frozen=True)
class PointCheck:
    z: complex
    abs_value: float
    bound: float
    ratio: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    slack: float
    all_passed: bool
    clamp_magnitude: float


def verify_bernstein(p: Polynomial1D, set_: CompactSet, test_points) -> VerificationReport:
    """Check |p(z)| <= bound * (1 + slack) at each test point.

    slack = deg(p) * clamp_magnitude + 1e-9: discrete Green backings can
    under-report g near the set by at most the recorded clamp, which enters
    the bound exponentiated by the degree.  Failures are report entries, not
    exceptions, but a bound beyond the float range raises :class:`FloatOverflow`.
    Entries keep the input order, and g is evaluated at all of them at once.
    """
    green = green_function(set_)
    norm = sup_norm(p, set_)
    deg = 0 if p.is_zero else int(p.degree)
    slack = deg * green.clamp_magnitude + 1e-9
    checks = []
    all_passed = True
    zs = [complex(z) for z in test_points]
    for z, g in zip(zs, green(np.array(zs, dtype=np.complex128)).tolist()):
        bound = 0.0 if p.is_zero else _growth_bound(norm, deg, g, z)
        value = float(abs(p(z)))
        ratio = value / bound if bound > 0 else (0.0 if value == 0 else math.inf)
        ok = value <= bound * (1.0 + slack)
        all_passed &= ok
        checks.append(PointCheck(z=z, abs_value=value, bound=bound, ratio=ratio, passed=ok))
    return VerificationReport(checks=tuple(checks), slack=slack,
                              all_passed=all_passed,
                              clamp_magnitude=green.clamp_magnitude)
