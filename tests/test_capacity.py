import math

import numpy as np
import pytest

from holocap.capacity import (
    capacity,
    capacity_of_cloud,
    fekete_points,
    green_function,
    robin_constant,
)
from holocap.errors import GreenUndefinedPolarSet
from holocap.gamma import GridSpec, gamma_cap, product_predicate
from holocap.sets import Disk, PointCloud, Segment

CIRCLE_100 = tuple(np.exp(2j * np.pi * np.arange(100) / 100))
DUPLICATED_CIRCLE = PointCloud(CIRCLE_100 + CIRCLE_100)


def brute_force_d4_circle() -> float:
    """Independent oracle: exhaustive 4-point max over a dense circle grid.

    By rotation invariance the first point can be pinned at angle 0, which
    makes full enumeration over a 60-point grid affordable.
    """
    m = 60
    zs = np.exp(2j * np.pi * np.arange(m) / m)
    best = -np.inf
    for b in range(1, m):
        for c in range(b + 1, m):
            for d in range(c + 1, m):
                quad = zs[[0, b, c, d]]
                prod = 1.0
                for i in range(4):
                    for j in range(i + 1, 4):
                        prod *= abs(quad[i] - quad[j])
                best = max(best, prod)
    return best ** (1.0 / 6.0)


def test_fekete_disk_four_points_match_brute_force():
    oracle = brute_force_d4_circle()
    assert abs(oracle - 4 ** (1 / 3)) < 1e-3  # oracle agrees with the closed form
    res = fekete_points(Disk(0, 1), 4)
    assert abs(res.d_n - 4 ** (1 / 3)) < 1e-6
    # points are a rotated copy of the 4th roots of unity
    angles = np.sort(np.mod(np.angle(res.points), 2 * np.pi))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    assert np.allclose(gaps, np.pi / 2, atol=1e-6)


def test_fekete_segment_two_points_are_endpoints():
    res = fekete_points(Segment(-1, 1), 2)
    assert set(np.round(res.points, 12)) == {-1.0, 1.0}
    assert abs(res.d_n - 2.0) < 1e-12


def test_fekete_degenerate_single_point():
    res = fekete_points(PointCloud((0j,)), 2)
    assert res.degenerate
    est = capacity_of_cloud([0j])
    assert est.value == 0.0 and est.polar
    assert math.isinf(est.robin_constant)


def test_capacity_disk():
    est = capacity(Disk(0, 1), 128)
    assert 0.92 <= est.value <= 1.08
    assert est.fekete.d_n == pytest.approx(128 ** (1 / 127), rel=1e-3)
    fek = est.fekete
    assert fek.d_n == math.exp(2.0 * fek.log_vdm / (fek.n * (fek.n - 1)))


def test_capacity_segment():
    est = capacity(Segment(-1, 1), 128)
    assert 0.45 <= est.value <= 0.55


def test_capacity_translated_disk():
    est = capacity(Disk(5 + 5j, 3), 128)
    assert abs(est.value - 3.0) <= 0.3


def test_capacity_requires_n8():
    with pytest.raises(ValueError):
        capacity(Disk(0, 1), 4)


def test_diameter_sequence_non_increasing():
    for s in (Disk(0, 1), Segment(-1, 1), Disk(2 - 1j, 0.5)):
        seq = capacity(s, 128).fekete.diameter_sequence
        ds = [d for _, d in seq]
        assert all(ds[i + 1] <= ds[i] + 1e-9 for i in range(len(ds) - 1))


def test_capacity_monotone_under_cloud_inclusion():
    big = np.exp(2j * np.pi * np.arange(200) / 200)
    small = big[::2]
    v_small = capacity_of_cloud(small, 64).value
    v_big = capacity_of_cloud(big, 64).value
    assert v_small <= v_big + 1e-9


@pytest.mark.parametrize("lam", [2, 1 + 1j])
def test_capacity_scaling(lam):
    base_disk = capacity(Disk(0, 1), 96).value
    scaled_disk = capacity(Disk(0, abs(lam)), 96).value
    assert scaled_disk == pytest.approx(abs(lam) * base_disk, rel=0.01)
    base_seg = capacity(Segment(-1, 1), 96).value
    scaled_seg = capacity(Segment(-lam, lam), 96).value
    assert scaled_seg == pytest.approx(abs(lam) * base_seg, rel=0.01)


# ---------------------------------------------------------------------------
# Green functions
# ---------------------------------------------------------------------------

def test_green_disk_analytic_values():
    g = green_function(Disk(0, 1))
    assert g(2.0) == pytest.approx(math.log(2), abs=1e-12)
    assert g(0.5) == 0.0
    assert g(1.0) == 0.0


def test_green_segment_joukowski_value():
    g = green_function(Segment(-1, 1))
    assert g(2.0) == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-12)
    assert g(0.0) == pytest.approx(0.0, abs=1e-12)
    # branch continuity across the negative real axis
    assert g(-2.0) == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-12)
    near = g(np.array([-2.0 + 1e-9j, -2.0 - 1e-9j]))
    assert abs(near[0] - near[1]) < 1e-6


def test_green_fekete_matches_analytic_on_disk():
    g_fek = green_function(Disk(0, 1), method="fekete")
    zs = 2.0 * np.exp(1j * np.linspace(0, 2 * np.pi, 100, endpoint=False))
    err = np.max(np.abs(g_fek(zs) - np.log(np.abs(zs))))
    assert err <= 0.02


def test_green_nonnegative_everywhere():
    g = green_function(PointCloud(tuple(np.exp(2j * np.pi * np.arange(64) / 64))))
    zs = np.asarray([0.0, 0.5 + 0.1j, 1.0 + 0j, 1.5j, -3.0 + 2j])
    assert np.all(g(zs) >= 0.0)
    assert g.clamp_magnitude >= 0.0


def test_green_polar_set_raises():
    with pytest.raises(GreenUndefinedPolarSet):
        green_function(PointCloud((0j,)))


@pytest.mark.parametrize("method", ["analytic", "fekete"])
def test_green_asymptotics_match_robin(method):
    """g(z) - log|z| approaches the evaluator's own Robin constant."""
    for s in (Disk(0, 1), Segment(-1, 1)):
        g = green_function(s, method=method)
        for r in (1e3, 1e4):
            z = r * np.exp(0.37j)
            assert abs(float(g(z)) - math.log(r) - g.robin_constant) < 1e-3


def test_robin_constants():
    assert robin_constant(Disk(0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert robin_constant(Segment(-1, 1)) == pytest.approx(math.log(2), abs=1e-12)
    assert robin_constant(Disk(0, math.e)) == pytest.approx(-1.0, abs=1e-12)
    assert math.isinf(robin_constant(PointCloud((1 + 1j,))))


def test_robin_cross_check_against_capacity_estimate():
    # the closed form and the transfinite-diameter estimate must agree
    for s, exact in ((Disk(0, 1), 0.0), (Segment(-1, 1), math.log(2))):
        est = capacity(s, 128)
        assert -math.log(est.value) == pytest.approx(exact, abs=0.11)


def test_one_cloud_rule_for_duplicate_points():
    # 100 distinct points, each listed twice: every consumer sees the same
    # 100-point estimate, none calls the cloud polar
    est = capacity(DUPLICATED_CIRCLE, 128)
    assert not est.polar and est.n_used == 100
    assert est.value == pytest.approx(1.0, abs=1e-6)
    assert est == capacity_of_cloud(CIRCLE_100, 128)
    assert green_function(DUPLICATED_CIRCLE).robin_constant == est.robin_constant
    assert robin_constant(DUPLICATED_CIRCLE) == est.robin_constant
    pred = product_predicate([DUPLICATED_CIRCLE, DUPLICATED_CIRCLE])
    assert gamma_cap(pred).value == est.value


def test_one_cloud_rule_beyond_default_candidates():
    # more points than the 4096 default candidates: the cloud is not subsampled
    rng = np.random.default_rng(3)
    big = PointCloud(tuple(rng.uniform(-1, 1, 5000) + 1j * rng.uniform(-1, 1, 5000)))
    est = capacity(big, 32)
    assert est.fekete.points.size == 32
    assert est == capacity_of_cloud(big.points, 32)
    assert green_function(big, n=32).robin_constant == robin_constant(big, n=32)
    assert robin_constant(big, n=32) == est.robin_constant
    pred = product_predicate([big, Disk(0, 1)])
    assert gamma_cap(pred, grid=GridSpec(capacity_points=32)).value == est.value
