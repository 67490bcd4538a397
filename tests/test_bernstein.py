import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holocap.bernstein import (Polynomial1D, _growth_bound, bernstein_bound, sup_norm,
                               verify_bernstein)
from holocap.capacity import green_function
from holocap.errors import FloatOverflow, GreenUndefinedPolarSet
from holocap.sets import Disk, PointCloud, Segment, UnionSet

T3 = Polynomial1D((0, -3, 0, 4))           # 4z^3 - 3z
T8 = Polynomial1D((1, 0, -32, 0, 160, 0, -256, 0, 128))


def test_degree_and_zero_marker():
    assert Polynomial1D((1, 2, 0, 0)).degree == 1
    assert Polynomial1D((5,)).degree == 0
    assert Polynomial1D((0, 0)).degree == -math.inf
    assert Polynomial1D((0,)).is_zero
    assert Polynomial1D(()).is_zero and Polynomial1D(())(2.0) == 0


def test_sup_norm_of_zero_polynomial_is_zero():
    for s in (Disk(0, 1), Segment(-1, 1), PointCloud((0j, 1j))):
        assert sup_norm(Polynomial1D((0, 0)), s) == 0.0


def test_sup_norm_cube_on_disk():
    assert sup_norm(Polynomial1D((0, 0, 0, 1)), Disk(0, 2)) == pytest.approx(8.0, rel=1e-9)


def test_sup_norm_chebyshev_equioscillation():
    # brute-force oracle on a dense grid
    t = np.linspace(-1, 1, 20001)
    oracle = np.max(np.abs(4 * t**3 - 3 * t))
    assert oracle == pytest.approx(1.0, abs=1e-7)
    assert sup_norm(T3, Segment(-1, 1)) == pytest.approx(1.0, abs=1e-9)


def test_sup_norm_constant():
    for s in (Disk(0, 1), Segment(-1, 1), PointCloud((0j, 1j))):
        assert sup_norm(Polynomial1D((5,)), s) == 5.0


def test_sup_norm_refines_off_grid_maximum():
    # maximum of |z - a| on the unit circle sits opposite a, generally off-grid
    p = Polynomial1D((-0.3 - 0.7j, 1))
    assert sup_norm(p, Disk(0, 1)) == pytest.approx(1 + abs(0.3 + 0.7j), rel=1e-9)


def _reference_sup(p, part, count=400_000):
    """max |p| over ``count`` evenly spaced parameters of a disk's circle or a segment."""
    if isinstance(part, Disk):
        z = part.center + part.radius * np.exp(2j * np.pi * np.arange(count) / count)
    else:
        z = part.a + np.linspace(0.0, 1.0, count) * (part.b - part.a)
    return float(np.abs(p(z)).max())


@pytest.mark.parametrize("set_", [
    Disk(0.4 - 0.3j, 1.7),
    Segment(-0.6 - 0.9j, 1.1 + 0.4j),
    UnionSet((Segment(-2, -1), Segment(1, 2))),
], ids=["off_centre_disk", "tilted_segment", "two_intervals"])
def test_sup_norm_matches_dense_reference(set_):
    # the second grid finds maxima between the first grid's points: the first
    # grid alone reads up to ~1e-6 low at degree 120; no value exceeds the sup
    rng = np.random.default_rng(7)
    parts = set_.parts if isinstance(set_, UnionSet) else (set_,)
    polys = [Polynomial1D(tuple(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))
             for deg in (1, 2, 5, *rng.integers(6, 120, 4), 120)]
    # random coefficients peak at a segment's end, which is a grid point; a
    # polynomial vanishing at every end peaks inside, between grid points
    ends = [z for part in parts if isinstance(part, Segment) for z in (part.a, part.b)]
    polys.append(Polynomial1D(tuple(np.polynomial.polynomial.polyfromroots(ends + [0.3 + 2j]))))
    for p in polys:
        ref = max(_reference_sup(p, part) for part in parts)
        assert (1 - 1e-12) * ref <= sup_norm(p, set_) <= (1 + 1e-6) * ref, p.degree


@pytest.mark.parametrize("set_, parts", [
    (Disk(0, 1), 1),
    (Segment(-1, 1j), 1),
    (UnionSet((Segment(-2, -1), Disk(3, 0.5))), 2),
], ids=["disk", "segment", "union"])
def test_sup_norm_two_evaluations_per_part(monkeypatch, set_, parts):
    # one call for the grid and one for the fine grid around its best points
    cls = sys.modules["holocap.bernstein"].Polynomial1D
    calls, original = [], cls.__call__
    monkeypatch.setattr(cls, "__call__", lambda self, z: calls.append(1) or original(self, z))
    sup_norm(Polynomial1D(tuple(range(1, 42))), set_)
    assert 0 < len(calls) <= 2 * parts


def test_bound_chebyshev_at_two():
    bound = bernstein_bound(T3, Segment(-1, 1), 2.0)
    assert bound == pytest.approx((2 + math.sqrt(3)) ** 3, rel=1e-9)
    assert abs(complex(T3(2.0))) == pytest.approx(26.0, rel=1e-12)
    assert 26.0 <= bound


def test_bound_monomial_equality_case():
    for n in (1, 3, 6):
        p = Polynomial1D((0,) * n + (1,))
        for r in (2.0, 5.0):
            z = r * np.exp(0.4j)
            assert bernstein_bound(p, Disk(0, 1), z) == pytest.approx(r**n, rel=1e-9)


def test_bound_constant_ignores_green():
    assert bernstein_bound(Polynomial1D((7,)), Segment(-1, 1), 100.0) == 7.0


def test_bound_inside_set_is_sup_norm():
    assert bernstein_bound(T3, Segment(-1, 1), 0.5) == pytest.approx(1.0, abs=1e-9)


def test_bound_monotone_in_modulus_on_disk():
    p = Polynomial1D((1, 2, 3))
    radii = np.linspace(1.01, 6.0, 40)
    bounds = [bernstein_bound(p, Disk(0, 1), complex(r)) for r in radii]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_verify_random_degree10_all_pass():
    rng = np.random.default_rng(11)
    coeffs = rng.uniform(-1, 1, 11) + 1j * rng.uniform(-1, 1, 11)
    p = Polynomial1D(tuple(coeffs))
    zs = 3.0 * np.exp(1j * np.linspace(0, 2 * np.pi, 100, endpoint=False))
    report = verify_bernstein(p, Disk(0, 1), zs)
    assert report.all_passed
    # brute-force check of the reported quantities at one point
    z0 = complex(zs[0])
    direct = abs(complex(np.polynomial.polynomial.polyval(z0, coeffs)))
    assert report.checks[0].abs_value == pytest.approx(direct, rel=1e-12)


def test_verify_chebyshev_ratios_stay_large():
    zs = 2.0 * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    report = verify_bernstein(T8, Segment(-1, 1), zs)
    assert report.all_passed
    assert min(c.ratio for c in report.checks) >= 0.4


def test_verify_polar_set_raises():
    with pytest.raises(GreenUndefinedPolarSet):
        verify_bernstein(Polynomial1D((0, 1)), PointCloud((0j,)), [1.0 + 0j])


def test_verify_report_keeps_input_order():
    zs = [3.0 + 0j, 2.0 + 1j, 5.0 - 1j]
    report = verify_bernstein(T3, Disk(0, 1), zs)
    assert [c.z for c in report.checks] == zs


def _point_by_point(p, set_, zs):
    """(|p(z)|, bound) per point as verify_bernstein took them before it evaluated |p| in
    one array call: one polyval call per point."""
    green, norm = green_function(set_), sup_norm(p, set_)
    deg = 0 if p.is_zero else int(p.degree)
    gs = green(np.array(zs, dtype=np.complex128)).tolist()
    return [(float(abs(p(z))), 0.0 if p.is_zero else _growth_bound(norm, deg, g, z))
            for z, g in zip(zs, gs)]


@pytest.mark.parametrize("set_", [
    Disk(0.3 - 0.2j, 1.5), Segment(-1 + 0.5j, 2 - 1j),
    UnionSet((Segment(-2, -1), Segment(1, 2))), UnionSet((Segment(-2, -1), Disk(2, 0.5))),
], ids=["disk", "segment", "collinear_union", "disk_and_segment"])
def test_verify_in_one_array_call_matches_point_by_point(set_):
    rng = np.random.default_rng(35)
    zs = [complex(z) for z in 4.0 * (rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100))]
    for deg in (0, 1, 7, 20):
        p = Polynomial1D(tuple(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)))
        report = verify_bernstein(p, set_, zs)
        # bit for bit the one array call's values
        array_call = np.abs(np.polynomial.polynomial.polyval(np.array(zs), p._array)).tolist()
        assert [c.abs_value for c in report.checks] == array_call
        # numpy's array loops round a complex product and abs otherwise than its loops for
        # one value, each within Horner's rounding bound: (deg + 2) multiply-adds and an
        # abs of at most 2 unit roundoffs each, relative to sum |c_i| |z|^i
        scale = np.polynomial.polynomial.polyval(np.abs(zs), np.abs(p.coefficients))
        tol = 4 * (deg + 2) * 2.0 ** -53 * scale
        slack = report.slack
        for check, z, (value, bound), t in zip(report.checks, zs, _point_by_point(p, set_, zs),
                                                tol):
            assert check.z == z and check.bound == bound
            assert abs(check.abs_value - value) <= t
            assert check.passed == (value <= bound * (1.0 + slack))
            assert check.ratio == check.abs_value / bound
        assert report.all_passed == all(c.passed for c in report.checks)


def test_verify_overflow_at_1e300_reaches_no_warning():
    # |p| at 1e300 overflows in the array call; the bound there raises, as before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatOverflow, match=r"the bound at z = \(1e\+300\+0j\) is inf"):
            verify_bernstein(Polynomial1D((1, 1, 1)), Disk(0, 1), [2, 1e300, 1e300j])
        assert verify_bernstein(Polynomial1D((1, 1)), Disk(0, 1), [1e300]).checks[0].passed


@given(st.complex_numbers(min_magnitude=1e-300, max_magnitude=10,
                          allow_nan=False, allow_infinity=False))
@example(0j)
@settings(max_examples=30, deadline=None)
def test_bound_homogeneity(c):
    # linear in the coefficient scale; complex-multiply rounding limits the
    # match to a few ulps.  Scales are kept out of the subnormal range, where
    # rounding c * x alone costs far more than rel=1e-13.
    p = Polynomial1D((0.5, -1j, 2))
    scaled = Polynomial1D(tuple(c * x for x in p.coefficients))
    z = 2.5 + 0.5j
    s = Segment(-1, 1)
    assert bernstein_bound(scaled, s, z) == pytest.approx(
        abs(c) * bernstein_bound(p, s, z), rel=1e-13, abs=0.0)


def test_zero_polynomial_bound_is_zero():
    assert bernstein_bound(Polynomial1D((0,)), Disk(0, 1), 3.0) == 0.0
