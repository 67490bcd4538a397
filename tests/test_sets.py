import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocap.sets import (
    Disk,
    PointCloud,
    Segment,
    UnionSet,
    bounding_box,
    discretize,
    distance_to,
    set_from_json,
    set_to_json,
)


def test_disk_boundary_four_points():
    pts = discretize(Disk(0, 1), 4)
    assert np.allclose(np.sort_complex(pts), np.sort_complex(np.array([1, 1j, -1, -1j])))


def test_segment_three_points():
    pts = discretize(Segment(-1, 1), 3)
    assert np.allclose(pts, [-1.0, 0.0, 1.0])


def test_small_cloud_returned_whole():
    pts = discretize(PointCloud((2 + 0j,)), 10)
    assert list(pts) == [2 + 0j]


def test_large_cloud_subsampled_deterministically():
    cloud = PointCloud(tuple(complex(k, 0) for k in range(100)))
    a = discretize(cloud, 17)
    b = discretize(cloud, 17)
    assert len(a) == 17
    assert np.array_equal(a, b)


def test_union_covers_all_parts():
    u = UnionSet((Disk(0, 1), Segment(2, 3)))
    pts = discretize(u, 64)
    assert len(pts) >= 64
    assert np.all(distance_to(u, pts) <= 1e-12)


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        Disk(0, 0.0)
    with pytest.raises(ValueError):
        Segment(1 + 1j, 1 + 1j)
    with pytest.raises(ValueError):
        PointCloud(())
    with pytest.raises(ValueError):
        Disk(complex("inf"), 1.0)
    with pytest.raises(ValueError):
        discretize(Disk(0, 1), 1)


@given(st.integers(min_value=2, max_value=300))
@settings(max_examples=25, deadline=None)
def test_discretize_points_lie_in_set(count):
    for s in (Disk(0.3 - 0.4j, 2.0), Segment(-1 - 1j, 2 + 0.5j)):
        pts = discretize(s, count)
        assert len(pts) >= 2
        assert np.all(distance_to(s, pts) <= 1e-12)


def test_discretize_idempotent():
    s = Disk(1 + 2j, 3.5)
    assert np.array_equal(discretize(s, 777), discretize(s, 777))


def test_bounding_box():
    (re_lo, re_hi), (im_lo, im_hi) = bounding_box(Disk(1 + 1j, 2))
    assert (re_lo, re_hi, im_lo, im_hi) == (-1, 3, -1, 3)


@pytest.mark.parametrize("s", [
    Disk(0.5 - 0.25j, 1.5),
    Segment(-1, 1j),
    PointCloud((0j, 1 + 1j, -2j)),
    UnionSet((Disk(0, 1), PointCloud((5 + 0j,)))),
])
def test_json_round_trip(s):
    assert set_from_json(set_to_json(s)) == s
