"""Polynomial sup-norms on compacts and the capacity-based growth bound.

For a polynomial p of degree n and a non-polar compact K, the modulus off K
is controlled by the sup-norm on K amplified by the complement's Green
function:

    |p(z)| <= sup_K |p| * exp(n * g(z)).

``bernstein_bound`` evaluates the right-hand side; ``verify_bernstein``
checks the inequality on a list of test points, widening the tolerance by
the Green evaluator's clamp magnitude so discrete-potential backings do not
produce spurious violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import green_function
from .sets import CompactSet, Disk, PointCloud, Segment, UnionSet

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _golden_max(fn, lo: float, hi: float) -> float:
    """Golden-section maximum of a scalar function on [lo, hi], in 80 steps."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(80):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
    return max(f1, f2)


def _refine_top(fn, params: np.ndarray, values: np.ndarray, wrap: bool) -> float:
    """Refine the three best grid brackets; returns the refined maximum."""
    best = float(values.max())
    order = np.argsort(values)[::-1][:3]
    m = len(params)
    span = params[1] - params[0]
    for k in order:
        if wrap:
            lo, hi = params[k] - span, params[k] + span
        else:
            lo = params[max(k - 1, 0)]
            hi = params[min(k + 1, m - 1)]
            if lo == hi:
                continue
        best = max(best, _golden_max(fn, float(lo), float(hi)))
    return best


def sup_norm(p: Polynomial1D, set_: CompactSet) -> float:
    """Maximum of |p| over the set.

    Dense boundary sampling plus golden-section refinement along the
    parameterization for disks and segments; the result is a lower bound on
    the true sup-norm, accurate to the grid density (the grid is scaled with
    the degree so that the relative error stays near 1e-6).
    """
    if p.is_zero:
        return 0.0
    deg = int(p.degree)
    samples = max(getattr(set_, "boundary_samples", 4096), 64 * (deg + 1))

    if isinstance(set_, Disk):
        theta = 2.0 * np.pi * np.arange(samples) / samples
        zs = set_.center + set_.radius * np.exp(1j * theta)
        vals = np.abs(p(zs))
        fn = lambda t: float(abs(p(set_.center + set_.radius * np.exp(1j * t))))
        return _refine_top(fn, theta, vals, wrap=True)
    if isinstance(set_, Segment):
        t = np.linspace(0.0, 1.0, samples)
        zs = set_.a + t * (set_.b - set_.a)
        vals = np.abs(p(zs))
        fn = lambda u: float(abs(p(set_.a + u * (set_.b - set_.a))))
        return _refine_top(fn, t, vals, wrap=False)
    if isinstance(set_, PointCloud):
        return float(np.max(np.abs(p(np.asarray(set_.points, dtype=np.complex128)))))
    if isinstance(set_, UnionSet):
        return max(sup_norm(p, part) for part in set_.parts)
    raise TypeError(f"not a CompactSet: {set_!r}")


def bernstein_bound(p: Polynomial1D, set_: CompactSet, z: complex) -> float:
    """Growth bound sup_K |p| * exp(deg(p) * g(z)) at the point z.

    Degree-0 polynomials get their sup-norm back unchanged, the zero
    polynomial gets 0.  Raises ``GreenUndefinedPolarSet`` for polar sets.
    """
    if p.is_zero:
        return 0.0
    green = green_function(set_)
    norm = sup_norm(p, set_)
    deg = int(p.degree)
    if deg == 0:
        return norm
    return norm * math.exp(deg * float(green(complex(z))))


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
    exceptions.  Entries keep the input order.
    """
    green = green_function(set_)
    norm = sup_norm(p, set_)
    deg = 0 if p.is_zero else int(p.degree)
    slack = deg * green.clamp_magnitude + 1e-9
    checks = []
    all_passed = True
    for z in test_points:
        z = complex(z)
        value = float(abs(p(z)))
        bound = 0.0 if p.is_zero else norm * math.exp(deg * float(green(z)))
        ratio = value / bound if bound > 0 else (0.0 if value == 0 else math.inf)
        ok = value <= bound * (1.0 + slack)
        all_passed &= ok
        checks.append(PointCheck(z=z, abs_value=value, bound=bound, ratio=ratio, passed=ok))
    return VerificationReport(checks=tuple(checks), slack=slack,
                              all_passed=all_passed,
                              clamp_magnitude=green.clamp_magnitude)
