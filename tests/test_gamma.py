import math
import re
import time

import numpy as np
import pytest

from holocap.errors import UnboundedSet
from holocap.gamma import (
    PROJECTED_RESOLUTION,
    SetPredicate,
    ball_predicate,
    gamma_cap,
    gamma_project,
    haar_unitary,
    linear_image,
    predicate_from_json,
    product_predicate,
)
from holocap.capacity import EPS_CAP, FEKETE_N, capacity, capacity_of_cloud
from holocap.sets import Disk, PointCloud, Segment, UnionSet, contains, discretize

BIDISK = product_predicate([Disk(0, 1), Disk(0, 1)])
# complex line {w = 0}, truncated to a bounded box
LINE = product_predicate([Disk(0, 1.5), PointCloud((0j,))])


def test_haar_unitary_is_unitary():
    for m in (1, 2, 3):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(1,)))
        u = haar_unitary(m, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(m))) < 1e-10


def test_bidisk_projection_is_unit_disk():
    proj = gamma_project(BIDISK)
    assert proj.membership(np.array([[0.5 + 0j]]))[0]
    assert proj.membership(np.array([[0.9j]]))[0]
    assert not proj.membership(np.array([[1.5 + 0j]]))[0]


def test_line_projects_to_nothing():
    proj = gamma_project(LINE)
    zs = np.array([[0j], [0.5 + 0j], [1.0 + 0.2j]])
    assert not proj.membership(zs).any()


def test_finite_fibers_are_polar():
    five = PointCloud(tuple(0.8 * np.exp(2j * np.pi * k / 5) for k in range(5)))
    proj = gamma_project(product_predicate([Disk(0, 1), five]))
    assert not proj.membership(np.array([[0j], [0.5 + 0j]])).any()


def test_generic_projection_via_grid_scan():
    # rotate the bidisk: each fiber is a lens, the intersection of two disks,
    # decided in closed form without a scan
    rng = np.random.default_rng(np.random.SeedSequence(entropy=9, spawn_key=(1,)))
    u = haar_unitary(2, rng)
    proj = gamma_project(linear_image(u, BIDISK))
    assert proj.membership(np.array([[0j]]))[0]  # the origin survives any rotation


def test_gamma_cap_bidisk_identity():
    res = gamma_cap(BIDISK, unitary_count=1, seed=0)
    assert res.value == 1.0
    assert res.per_unitary[0][0] == 0
    assert np.array_equal(res.best_unitary.matrix, np.eye(2))


def test_gamma_cap_line_is_polar():
    res = gamma_cap(LINE, unitary_count=16, seed=42)
    assert res.value < 1e-3


def test_gamma_cap_m1_segment():
    res = gamma_cap(product_predicate([Segment(-1, 1)]), unitary_count=1, seed=0)
    assert res.value == 0.5


def test_gamma_cap_rotation_invariance_m1():
    a = gamma_cap(product_predicate([Segment(-1, 1)]), unitary_count=4, seed=3)
    rot = np.exp(0.7j)
    b = gamma_cap(product_predicate([Segment(-rot, rot)]), unitary_count=4, seed=3)
    assert b.value == pytest.approx(a.value, rel=1e-15)


def test_gamma_cap_monotone_in_set():
    small = product_predicate([Disk(0, 0.5), Disk(0, 1)])
    res_small = gamma_cap(small, unitary_count=1, seed=0)
    res_big = gamma_cap(BIDISK, unitary_count=1, seed=0)
    assert res_small.value <= res_big.value * 1.05


def test_more_unitaries_never_decrease_value():
    res4 = gamma_cap(BIDISK, unitary_count=4, seed=11)
    res8 = gamma_cap(BIDISK, unitary_count=8, seed=11)
    assert res8.value >= res4.value - 1e-12
    # the per-unitary table of the smaller run is a prefix of the larger one
    assert res8.per_unitary[:4] == res4.per_unitary


def test_gamma_cap_ball_ties_report_the_first_unitary():
    # every unitary image of a ball projects to the same disk; the values
    # differ only by rounding, the last digit of unitary 2 above the others
    res = gamma_cap(ball_predicate([0, 0], 2.0), unitary_count=4, seed=1)
    values = [value for _, value in res.per_unitary]
    assert max(values) - min(values) <= 1e-15 * max(values)
    assert values[2] > values[0]
    assert res.best_unitary.seed == 0
    assert np.array_equal(res.best_unitary.matrix, np.eye(2))
    assert res.value == max(values)


def test_gamma_cap_deterministic():
    a = gamma_cap(LINE, unitary_count=6, seed=123)
    b = gamma_cap(LINE, unitary_count=6, seed=123)
    assert a.per_unitary == b.per_unitary
    assert a.value == b.value


def test_unbounded_box_rejected():
    bad = SetPredicate(membership=lambda zs: np.ones(len(np.atleast_2d(zs)), bool),
                       bounding_box=(((0.0, np.inf), (0.0, 1.0)),), dimension=1)
    with pytest.raises(UnboundedSet):
        gamma_cap(bad, unitary_count=1, seed=0)


def test_dimension_cap():
    quad = product_predicate([Disk(0, 1)] * 4)
    with pytest.raises(ValueError):
        gamma_cap(quad, unitary_count=1, seed=0)


def test_tridisk_identity():
    tri = product_predicate([Disk(0, 1), Disk(0, 2), Disk(0, 0.5)])
    res = gamma_cap(tri, unitary_count=1, seed=0)
    assert 0.9 <= res.value <= 1.1  # both inner fibers are fat; shadow is Disk(0, 1)


def test_ball_predicate_membership():
    ball = ball_predicate([0j, 0j], 1.0)
    inside = np.array([[0.5 + 0j, 0.5 + 0j]])
    outside = np.array([[0.9 + 0j, 0.9 + 0j]])
    assert ball.membership(inside)[0]
    assert not ball.membership(outside)[0]


def test_linear_image_membership():
    doubled = linear_image(np.array([[2.0 + 0j]]), product_predicate([Disk(0, 1)]))
    assert doubled.membership(np.array([[1.8 + 0j]]))[0]
    assert not doubled.membership(np.array([[2.2 + 0j]]))[0]


def test_predicate_json():
    doc = {"kind": "product", "factors": [
        {"shape": "disk", "center": [0, 0], "radius": 1.0},
        {"shape": "cloud", "points": [[0, 0]]},
    ]}
    pred = predicate_from_json(doc)
    assert pred.dimension == 2
    assert pred.membership(np.array([[0.5 + 0j, 0j]]))[0]
    ball_doc = {"kind": "ball", "center": [[0, 0], [0, 0]], "radius": 2.0}
    assert predicate_from_json(ball_doc).dimension == 2
    img_doc = {"kind": "linear_image",
               "matrix": [[[0, 1]]],
               "of": {"kind": "product", "factors": [{"shape": "segment", "a": [-1, 0], "b": [1, 0]}]}}
    pred_i = predicate_from_json(img_doc)
    assert pred_i.membership(np.array([[0.5j]]))[0]


def _random_image_of_ball(m, seed):
    """(A, c, r) with A well conditioned, so eps_cap shrinks the shadow by < 1e-7."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) + 3 * np.eye(m)
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return a, c, rng.uniform(0.5, 2.0)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_linear_image_of_ball_matches_shadow(m, seed):
    # the first coordinate of A(ball(c, r)) sweeps a disk of radius r |A[0, :]|
    a, c, r = _random_image_of_ball(m, seed)
    res = gamma_cap(linear_image(a, ball_predicate(c, r)), unitary_count=1, seed=0)
    assert res.value == pytest.approx(r * np.linalg.norm(a[0]), rel=1e-6)


def test_ball_value_is_radius_under_every_unitary():
    # a ball is unitarily invariant: every shadow is a disk of its radius, and
    # each of the m - 1 projections keeps the fibers of radius above eps_cap,
    # which erodes the radius to sqrt(r^2 - (m - 1) eps_cap^2)
    for m, r in ((2, 0.7), (3, 1.6)):
        res = gamma_cap(ball_predicate([0.3 - 0.2j] * m, r), unitary_count=5, seed=8)
        for _, value in res.per_unitary:
            assert value == pytest.approx(math.sqrt(r * r - (m - 1) * EPS_CAP ** 2), rel=1e-14)


def _no_solve_on_disks_or_segments(monkeypatch):
    def estimator(shape, *args, **kwargs):
        if isinstance(shape, (Disk, Segment)):
            raise AssertionError(f"capacity estimate of {shape}")
        return capacity(shape, *args, **kwargs)

    monkeypatch.setattr("holocap.gamma.capacity", estimator)


def test_final_disk_or_segment_takes_its_closed_form(monkeypatch):
    # a final disk or segment is never solved for: its value is r or length/4
    _no_solve_on_disks_or_segments(monkeypatch)
    r = 0.7
    ball = ball_predicate([0.3 - 0.2j, 0.1j], r)
    for pred in (ball, linear_image(_haar(5), ball)):
        res = gamma_cap(pred, unitary_count=3, seed=4)
        for _, value in res.per_unitary:
            assert value == pytest.approx(math.sqrt(r * r - EPS_CAP ** 2), rel=1e-14)
    assert gamma_cap(product_predicate([Disk(0.2, 0.7), Disk(1j, 1.3)])).value == 0.7
    assert gamma_cap(product_predicate([Segment(-1, 1), Disk(0, 1)])).value == 0.5
    assert gamma_cap(product_predicate([Segment(-1, 1)])).value == 0.5


def test_final_union_still_takes_the_estimate(monkeypatch):
    # a union with a disk has no closed form: its value is the 128-point estimate
    _no_solve_on_disks_or_segments(monkeypatch)
    union = UnionSet((Segment(-2, -1), Disk(1, 0.5)))
    res = gamma_cap(product_predicate([union, Disk(0, 1)]))
    assert res.value == capacity(union, FEKETE_N).value


def test_c3_unit_ball_at_default_grid():
    start = time.perf_counter()
    res = gamma_cap(ball_predicate([0j, 0j, 0j], 1.0))
    assert time.perf_counter() - start < 5.0
    assert res.value == pytest.approx(1.0, rel=0.05)


def test_balls_and_their_images_never_scan(monkeypatch):
    def no_scan(points, n):
        raise AssertionError("fiber scan reached")

    monkeypatch.setattr("holocap.gamma.quick_cloud_capacity", no_scan)
    a, c, r = _random_image_of_ball(2, 11)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=4, spawn_key=(1,)))
    ball = ball_predicate(c, r)
    for pred in (ball, linear_image(haar_unitary(2, rng), ball), linear_image(a, ball)):
        assert gamma_cap(pred, unitary_count=3, seed=2).value > 0.1


@pytest.mark.parametrize("m, eps_cap", [(2, 1e-4), (2, 0.4), (3, 1e-4), (3, 0.4)])
def test_projected_ellipsoid_membership_matches_fiber_radius(m, eps_cap):
    a, c, r = _random_image_of_ball(m, 20 + m)
    proj = gamma_project(linear_image(a, ball_predicate(c, r)), eps_cap=eps_cap)
    # the image is {z : |inv(A) z - c| <= r}; its fiber over p is a disk of radius
    # sqrt(r^2 - d^2) / |inv(A)[:, -1]|, d the least-squares residual over the last coordinate
    inv = np.linalg.inv(a)
    centre = (a @ c)[:-1]
    rng = np.random.default_rng(m)
    checked = 0
    for _ in range(400):
        p = centre + 2 * r * (rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1))
        rhs = c - inv[:, :-1] @ p
        w = np.linalg.lstsq(inv[:, -1:], rhs, rcond=None)[0]
        d2 = np.linalg.norm(inv[:, -1:] @ w - rhs) ** 2
        radius = np.sqrt(max(r * r - d2, 0.0)) / np.linalg.norm(inv[:, -1]) if d2 < r * r else -1.0
        if abs(radius - eps_cap) < 1e-3:
            continue
        assert proj.membership(p[None, :])[0] == (radius > eps_cap)
        checked += 1
    assert checked > 300


SCAN = "gamma_project.<locals>.member"
DISK_SEGMENT = product_predicate([Disk(0, 1), Segment(-1, 1)])


def _haar(entropy, m=2):
    return haar_unitary(m, np.random.default_rng(np.random.SeedSequence(entropy=entropy,
                                                                        spawn_key=(1,))))


def _projection_qualnames(monkeypatch):
    """Record the membership qualname of every predicate gamma_project returns."""
    seen = []
    real = gamma_project

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append(result.membership.__qualname__)
        return result

    monkeypatch.setattr("holocap.gamma.gamma_project", spy)
    return seen


def test_products_and_their_images_never_scan(monkeypatch):
    seen = _projection_qualnames(monkeypatch)
    circle20 = PointCloud(tuple(0.8 * np.exp(2j * np.pi * k / 20) for k in range(20)))
    nested = linear_image(np.array([[1.0, 0.5j], [0.2, 2.0]]),
                          linear_image(_haar(3), DISK_SEGMENT))
    two_intervals = UnionSet((Segment(-2, -1), Segment(1, 2)))
    for pred in (LINE, linear_image(_haar(1), BIDISK), linear_image(_haar(2), DISK_SEGMENT),
                 nested, product_predicate([Disk(0, 1), circle20]),
                 product_predicate([Disk(0, 1), two_intervals])):
        gamma_cap(pred, unitary_count=3, seed=7)
    assert len(seen) == 18
    assert SCAN not in seen


def test_opaque_predicate_still_scans(monkeypatch):
    seen = _projection_qualnames(monkeypatch)
    opaque = SetPredicate(membership=BIDISK.membership, bounding_box=BIDISK.bounding_box,
                          dimension=2)
    res = gamma_cap(opaque, unitary_count=1, seed=0)
    assert seen == [SCAN]
    assert 0.8 <= res.value <= 1.1


@pytest.mark.parametrize("entropy", range(6))
def test_rotated_disk_times_segment_shadow(entropy):
    # the first coordinate of U(D x S) sweeps the stadium U00 D + U01 S: it holds a
    # disk of radius |U00| and lies in one of radius |U00| + |U01|; the final cloud
    # is a grid sample of it, so the lower bound gives one grid step
    u = _haar(entropy)
    pred = linear_image(u, DISK_SEGMENT)
    (re_lo, re_hi), _ = pred.bounding_box[0]
    step = (re_hi - re_lo) / (PROJECTED_RESOLUTION - 1)
    res = gamma_cap(pred, unitary_count=1, seed=0)
    assert abs(u[0, 0]) - step <= res.value <= abs(u[0, 0]) + abs(u[0, 1])


def test_rotated_square_keeps_the_real_chords():
    # over a prefix x the fiber of R(S x S), R a real rotation, is the intersection of two
    # segments: a real chord for real |x| < 1.4, and no more than a point off the real line
    pred = linear_image([[0.8, 0.6], [-0.6, 0.8]], product_predicate([Segment(-1, 1)] * 2))
    member = gamma_project(pred).membership
    assert member(np.array([[0j], [0.6], [-0.6], [1.2], [-1.2], [1.38]])).all()
    assert not member(np.array([[1.5], [2], [0.5 + 0.01j]])).any()


@pytest.mark.parametrize("pred", [ball_predicate([0, 0], 1.0), BIDISK], ids=["ball", "bidisk"])
def test_projection_under_an_overflowing_inverse_is_empty(pred):
    # the inverse of a 1e-310 entry is not finite, so the composed map has no finite entry
    proj = gamma_project(linear_image([[1e-310, 0], [0, 1]], pred))
    assert proj.bounding_box == (((0.0, 0.0), (0.0, 0.0)),)
    assert not proj.membership(np.array([[0j], [0.5]])).any()


def test_ellipsoid_projection_with_an_overflowing_factor_is_empty():
    # B = [[1.5e308, 1], [1.5e308, 2]]: taking the last column's direction out of the first
    # overflows, so the triangular factor is not finite
    inner = linear_image([[1e-300, 0], [0, 1e-300]], ball_predicate([0, 0], 1.0))
    pred = linear_image([[4e-8 / 3, -2e-8 / 3], [-1e300, 1e300]], inner)
    with np.errstate(over="ignore", invalid="ignore"):   # numpy warns in the overflow
        proj = gamma_project(pred)
    assert proj.ellipsoid is None and not proj.membership(np.array([[0j]]))[0]


def test_final_shape_beyond_the_float_range_is_scanned():
    # a 1e-300 disk under 1e-30 has a radius below the float range: no shape is formed, and
    # the scan of its zero-width box finds one point, a polar set
    pred = linear_image([[1e-30]], product_predicate([Disk(0, 1e-300)]))
    assert pred.bounding_box == (((0.0, 0.0), (0.0, 0.0)),)
    assert gamma_cap(pred).value == 0.0


@pytest.mark.parametrize("make, message", [
    (lambda: SetPredicate(membership=None, bounding_box=(), dimension=0),
     "predicate dimension must be >= 1"),
    (lambda: SetPredicate(membership=None, bounding_box=(((0, 1), (0, 1)),), dimension=2),
     "bounding box must list one entry per coordinate"),
    (lambda: product_predicate([]), "product 'factors' must be nonempty"),
    (lambda: ball_predicate([0, complex(math.nan, 0)], 1.0),
     "ball center must have finite coordinates, got [0j, (nan+0j)]"),
    (lambda: linear_image([[1, 0]], BIDISK),
     "linear image 'matrix' must be square, of its predicate's dimension"),
    (lambda: linear_image([[1, 0], [0, math.inf]], BIDISK),
     "linear image matrix entries must be finite, got (inf+0j) at (1, 1)"),
    (lambda: gamma_project(product_predicate([Disk(0, 1)])), "gamma_project needs dimension >= 2"),
], ids=["dimension_zero", "box_short", "product_empty", "ball_center_nan", "matrix_one_row",
        "matrix_inf", "project_dimension_one"])
def test_library_arguments_are_refused_by_name(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("eps_cap", [1e-4, 0.1])
def test_rotated_disk_times_segment_membership_matches_chord(eps_cap):
    # over a prefix p the fiber is the chord {w : M (p, w) in D x S}, M = inv(U):
    # w = (y - M10 p) / M11 for y in S with |M00 p + M01 w| <= 1, so its length
    # is the measure of those y over |M11|, and its capacity a quarter of that
    u = _haar(17)
    inv = np.linalg.inv(u)
    proj = gamma_project(linear_image(u, DISK_SEGMENT), eps_cap=eps_cap)
    ys = np.linspace(-1.0, 1.0, 200001)
    rng = np.random.default_rng(5)
    checked = 0
    for p in 1.2 * (rng.standard_normal(300) + 1j * rng.standard_normal(300)):
        w = (ys - inv[1, 0] * p) / inv[1, 1]
        inside = ys[np.abs(inv[0, 0] * p + inv[0, 1] * w) <= 1.0]
        cap = (inside[-1] - inside[0]) / abs(inv[1, 1]) / 4.0 if len(inside) else 0.0
        if abs(cap - eps_cap) < 5e-5:   # within the chord's sampling error
            continue
        assert proj.membership(np.array([[p]]))[0] == (cap > eps_cap)
        checked += 1
    assert checked > 250


def _lens_capacity(disks, samples=16384):
    """Capacity estimate of the intersection of two disks from a dense sample of its
    boundary: the arcs of each circle inside the other disk."""
    arcs = [discretize(d, samples) for d in disks]
    pts = np.concatenate([arcs[0][contains(disks[1], arcs[0])],
                          arcs[1][contains(disks[0], arcs[1])]])
    return capacity_of_cloud(pts, n=128).value


@pytest.mark.parametrize("dist, r1, r2", [
    (0.0, 1.0, 0.5), (0.3, 1.0, 0.5), (0.9, 1.0, 0.5), (1.4, 1.0, 0.5),
    (1.0, 1.0, 1.0), (1.9, 1.0, 1.0), (1.99, 1.0, 1.0), (2.5, 1.0, 1.0)])
def test_lens_bounds_bracket_the_capacity(dist, r1, r2):
    from holocap.gamma import _lens_capacity_bounds

    lower, upper = _lens_capacity_bounds(np.array([dist]), r1, r2)
    estimate = _lens_capacity((Disk(0, r1), Disk(dist, r2))) if dist < r1 + r2 else 0.0
    assert lower[0] <= upper[0]
    assert lower[0] * (1 - 0.02) <= estimate <= upper[0] * (1 + 0.02)


def test_rotated_bidisk_membership_matches_lens_capacity():
    # at eps_cap = 0.3 many fibers are lenses whose bounds straddle the threshold,
    # so those prefixes are decided from the lens's boundary samples
    u = _haar(4)
    inv = np.linalg.inv(u)
    eps_cap = 0.3
    proj = gamma_project(linear_image(u, BIDISK), eps_cap=eps_cap)
    rng = np.random.default_rng(2)
    checked = 0
    for p in 0.8 * (rng.standard_normal(120) + 1j * rng.standard_normal(120)):
        # over p the fiber is the intersection of the disks |M_i0 p + M_i1 w| <= 1, M = inv(U)
        estimate = _lens_capacity([Disk(-inv[i, 0] * p / inv[i, 1], 1 / abs(inv[i, 1]))
                                   for i in range(2)])
        if abs(estimate - eps_cap) < 0.05 * eps_cap:
            continue
        assert proj.membership(np.array([[p]]))[0] == (estimate > eps_cap)
        checked += 1
    assert checked > 100
