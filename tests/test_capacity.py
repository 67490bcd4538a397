import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from holocap.capacity import (
    CANDIDATES,
    EPS_CAP,
    FEKETE_N,
    MIN_POINTS,
    GreenEvaluator,
    _EXCHANGE_TOL,
    _MAX_SWEEPS,
    _candidates,
    _checkpoints,
    _distinct,
    _exchange_refine,
    _final_estimate,
    _greedy_leja,
    _log_vdm,
    capacity,
    capacity_of_cloud,
    fekete_green,
    fekete_points,
    green_from_selection,
    green_function,
    quick_cloud_capacity,
    robin_constant,
)
from holocap.bernstein import Polynomial1D, verify_bernstein
from holocap.errors import GreenUndefinedPolarSet
from holocap.gamma import gamma_cap, product_predicate
from holocap.sets import Disk, PointCloud, Segment, UnionSet, discretize

CIRCLE_100 = tuple(np.exp(2j * np.pi * np.arange(100) / 100))
DUPLICATED_CIRCLE = PointCloud(CIRCLE_100 + CIRCLE_100)
CIRCLE_5000 = PointCloud(tuple(np.exp(2j * np.pi * np.arange(5000) / 5000)))


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


@pytest.mark.parametrize("n", [8, 100, 128])
def test_fekete_solve_computes_log_vdm_once_per_checkpoint(monkeypatch, n):
    # each checkpoint's log VDM comes from its one refinement's totals; the
    # rebuild from points (of green_from_selection) never runs in a solve
    # the package attribute holocap.capacity is the function; patch the module
    module = sys.modules["holocap.capacity"]
    refine, log_vdm, refined, summed = module._exchange_refine, module._log_vdm, [], []
    monkeypatch.setattr(module, "_exchange_refine",
                        lambda cand, sel, logdist: refined.append(len(sel))
                        or refine(cand, sel, logdist))
    monkeypatch.setattr(module, "_log_vdm", lambda pts: summed.append(len(pts)) or log_vdm(pts))
    fek = capacity_of_cloud(np.exp(2j * np.pi * np.arange(200) / 200), n=n).fekete
    assert refined == _checkpoints(n)
    assert summed == []
    assert fek.log_vdm == log_vdm(fek.points)
    assert fek.diameter_sequence[-1] == (n, fek.d_n)


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


def full_resum_exchange(cand, sel):
    """Reference exchange: re-sums every candidate's log distances after each swap."""
    n = len(sel)
    with np.errstate(divide="ignore", invalid="ignore"):
        logdist = np.log(np.abs(cand[:, None] - cand[sel][None, :]))  # (N, n)
        for _ in range(_MAX_SWEEPS):
            improved = False
            rowsum = logdist.sum(axis=1)
            for i in range(n):
                scores = rowsum - logdist[:, i]
                scores[sel] = -np.inf
                cur = logdist[sel[i], :].copy()
                cur[i] = 0.0
                current = float(cur.sum())
                best = int(np.argmax(scores))
                if scores[best] - current > _EXCHANGE_TOL * max(1.0, abs(current)):
                    sel[i] = best
                    logdist[:, i] = np.log(np.abs(cand - cand[best]))
                    rowsum = logdist.sum(axis=1)
                    improved = True
            if not improved:
                break
    return sel


def _exchange_inputs(count):
    rng = np.random.default_rng(11)
    cloud = rng.normal(size=300) + 1j * rng.normal(size=300)
    return {
        "segment": discretize(Segment(-1, 1), count),
        "union": discretize(UnionSet((Segment(-2, -0.5), Segment(0.3, 1.7))), count),
        "disk": discretize(Disk(0.5j, 2), count),
        "cloud": cloud,
    }


def _greedy_with_rows(cand, n):
    """The greedy selection and the (n, N) log-distance matrix it fills."""
    rows = np.empty((n, len(cand)))
    sel, _ = _greedy_leja(cand, n, rows)
    return sel, rows


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("name", ["segment", "union", "disk", "cloud"])
def test_exchange_matches_full_resum_reference(name, n):
    cand = _distinct(_exchange_inputs(512)[name])
    sel, rows = _greedy_with_rows(cand, n)
    expected = full_resum_exchange(cand, sel.copy())
    refined, total = _exchange_refine(cand, sel.copy(), rows)
    assert np.array_equal(refined, expected)
    # the totals handed back are the final rows' own sum, not a running update
    assert np.array_equal(total, rows.sum(axis=0))
    assert np.array_equal(rows, np.array([_reference_row(cand, s) for s in refined]))


@pytest.mark.parametrize("name", ["segment", "union", "disk"])
def test_exchange_result_is_locally_optimal(name):
    cand = _distinct(_exchange_inputs(256)[name])
    sel, _ = _exchange_refine(cand, *_greedy_with_rows(cand, 16))
    lv = _log_vdm(cand[sel])
    slack = _EXCHANGE_TOL * max(1.0, abs(lv))
    outside = np.setdiff1d(np.arange(len(cand)), sel)
    for i in range(len(sel)):
        for c in outside:
            swapped = sel.copy()
            swapped[i] = c
            assert _log_vdm(cand[swapped]) - lv <= slack


def _reference_row(cand, s):
    row = np.abs(cand - cand[s])
    row[s] = 1.0
    return np.log(row)


def reference_fekete_over(cand, n, checkpoints):
    """Reference solve: greedy Leja, then each checkpoint refined from its greedy
    prefix on log-distance rows built afresh, the totals masked per visit."""
    sel = [int(np.argmax(np.abs(cand)))]
    logsum = np.zeros(len(cand))
    with np.errstate(divide="ignore"):
        for _ in range(1, n):
            logsum += np.log(np.abs(cand - cand[sel[-1]]))
            sel.append(int(np.argmax(logsum)))
    greedy = np.asarray(sel, dtype=np.intp)
    seq = []
    for k in checkpoints:
        sel = greedy[:k].copy()
        logdist = np.array([_reference_row(cand, s) for s in sel])
        for _ in range(_MAX_SWEEPS):
            improved = False
            total = logdist.sum(axis=0)
            for i in range(k):
                scores = total - logdist[i]
                scores[sel] = -np.inf
                current = float(total[sel[i]])
                best = int(np.argmax(scores))
                if scores[best] - current > _EXCHANGE_TOL * max(1.0, abs(current)):
                    sel[i] = best
                    new_row = _reference_row(cand, best)
                    total += new_row - logdist[i]
                    logdist[i] = new_row
                    improved = True
            if not improved:
                break
        lv = _log_vdm(cand[sel])
        seq.append((k, math.exp(2.0 * lv / (k * (k - 1)))))
    return cand[sel], sel, lv, tuple(seq)


# sets of the whole-solve reference test: shapes at the default candidates, and
# clouds, one of them with fewer distinct points than most of the sizes
SOLVE_SETS = {
    "segment": Segment(-1, 1),
    "union": UnionSet((Segment(-2, -0.5), Segment(0.3, 1.7))),
    "disk": Disk(0.5j, 2),
    "cloud": PointCloud(tuple(_exchange_inputs(512)["cloud"])),
    "duplicated_circle": DUPLICATED_CIRCLE,
}


@pytest.mark.parametrize("final", [False, True], ids=["schedule", "final"])
@pytest.mark.parametrize("n", [8, 16, 100, 128, 256])
@pytest.mark.parametrize("name", list(SOLVE_SETS))
def test_solve_matches_fresh_rows_reference(name, n, final):
    set_ = SOLVE_SETS[name]
    cand = _candidates(set_, n, CANDIDATES)
    size = min(n, len(cand))
    est = _final_estimate(set_, n, CANDIDATES, EPS_CAP) if final else capacity(set_, n)
    points, sel, lv, seq = reference_fekete_over(cand, size,
                                                 (size,) if final else _checkpoints(size))
    fek = est.fekete
    assert np.array_equal(fek.points, points)
    assert np.array_equal(fek.selection, sel)
    assert fek.log_vdm == lv
    assert fek.diameter_sequence == seq


def _gaussian_cloud(count, seed):
    rng = np.random.default_rng(seed)
    return PointCloud(tuple(rng.normal(size=count) + 1j * rng.normal(size=count)))


@pytest.mark.parametrize("n", [16, 128, 256])
@pytest.mark.parametrize("set_", [
    Segment(-1, 1), UnionSet((Segment(-2, -1), Segment(1, 2))), _gaussian_cloud(300, 7),
], ids=["segment", "union", "cloud"])
def test_solve_refines_n_half_and_n_as_the_doubling_schedule_did(monkeypatch, set_, n):
    # an estimate reads sizes n/2 and n alone, and each size is refined from its
    # own greedy prefix: both come out bit for bit as in the doubling schedule
    module = sys.modules["holocap.capacity"]
    refine, refined = module._exchange_refine, []
    monkeypatch.setattr(module, "_exchange_refine",
                        lambda cand, sel, logdist: refined.append(len(sel))
                        or refine(cand, sel, logdist))
    est = capacity(set_, n)
    assert refined == [n // 2, n]
    doubling = sorted({n // 2, n} | {2 ** j for j in range(1, n.bit_length()) if 2 ** j < n})
    points, sel, lv, seq = reference_fekete_over(_candidates(set_, n, CANDIDATES), n, doubling)
    d = dict(seq)
    fek = est.fekete
    assert np.array_equal(fek.points, points)
    assert np.array_equal(fek.selection, sel)
    assert fek.log_vdm == lv
    assert fek.diameter_sequence == ((n // 2, d[n // 2]), (n, d[n]))
    assert est.value == d[n] / n ** (1.0 / (n - 1))
    assert est.error_indicator == abs(d[n // 2] - d[n])


# sets of the log-VDM identity test: shapes at the default candidates, and
# clouds of more points than the largest size
LOG_VDM_SETS = {
    "disk": Disk(0.5j, 2),
    "segment": Segment(-1, 1),
    "union": UnionSet((Segment(-2, -0.5), Segment(0.3, 1.7))),
    "gaussian_cloud": _gaussian_cloud(700, 17),
    "ring_cloud": PointCloud(tuple(np.exp(2j * np.pi * np.random.default_rng(23).random(900))
                                   * (1.0 + 0.2 * np.random.default_rng(29).random(900)))),
}


@pytest.mark.parametrize("n", [8, 16, 64, 128, 256, 512])
@pytest.mark.parametrize("name", list(LOG_VDM_SETS))
def test_solve_log_vdm_equals_the_rebuild_bit_for_bit(monkeypatch, name, n):
    # a solve takes log VDM from its exchange totals, green_from_selection from
    # the points: eval's Robin constant is extend's only if the two agree exactly
    fek = fekete_points(LOG_VDM_SETS[name], n)
    assert not fek.degenerate
    assert fek.log_vdm == _log_vdm(fek.points)
    # blocks of every width, the last one overlapping, keep each column's sum
    # in row order (a one-column block would be summed pairwise)
    for cells in (1, 3 * n):
        monkeypatch.setattr(sys.modules["holocap.capacity"], "_GREEN_CHUNK_CELLS", cells)
        assert fek.log_vdm == _log_vdm(fek.points)


def test_solve_stopped_mid_swap_resums_its_totals(monkeypatch):
    # one sweep that swaps, then the sweep limit: the running totals carry
    # the swaps' rounding, so the solve must sum its final rows afresh
    monkeypatch.setattr(sys.modules["holocap.capacity"], "_MAX_SWEEPS", 1)
    cand = _candidates(Segment(-1, 1), 64, CANDIDATES)
    greedy, rows = _greedy_with_rows(cand, 64)
    sel, total = _exchange_refine(cand, greedy.copy(), rows)
    assert not np.array_equal(sel, greedy)
    assert np.array_equal(total, rows.sum(axis=0))
    union = LOG_VDM_SETS["union"]
    fek = fekete_points(union, 128)
    assert fek.log_vdm == _log_vdm(fek.points)


def test_fekete_solve_peaks_at_its_one_row_matrix():
    cloud, n = _gaussian_cloud(2000, 13), 1024
    tracemalloc.start()
    try:
        fek = fekete_points(cloud, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fek.n == n
    # the n x N log-distance matrix and O(N) vectors; an n x n log-VDM
    # temporary would add another ~1.5 n x N
    assert peak < 1.2 * n * 2000 * 8


@pytest.mark.parametrize("count", [1, 2, MIN_POINTS - 1, 60])
def test_degenerate_sequence_is_the_prefix_log_vdms(count):
    # a cloud below MIN_POINTS, and fekete_points asked for more than a cloud has
    pts = _distinct(_exchange_inputs(512)["cloud"])[:count]
    fek = (capacity_of_cloud(pts).fekete if count < MIN_POINTS
           else fekete_points(PointCloud(tuple(pts)), count + 1))
    assert fek.degenerate and np.array_equal(fek.points, pts)
    assert fek.log_vdm == _log_vdm(pts)
    assert [k for k, _ in fek.diameter_sequence] == list(range(2, len(pts) + 1))
    for k, d_k in fek.diameter_sequence:
        assert d_k == pytest.approx(math.exp(2.0 * _log_vdm(pts[:k]) / (k * (k - 1))),
                                    rel=1e-14)


def test_degenerate_sequence_runs_in_quadratic_time():
    # 1,000 points at n = 1,001: the prefix sums take one row per point,
    # where a log VDM per prefix took seconds
    start = time.perf_counter()
    fek = fekete_points(PointCloud(CIRCLE_5000.points[::5]), 1001)
    assert fek.degenerate and len(fek.diameter_sequence) == 999
    assert time.perf_counter() - start < 1.0


def test_disk_solve_computes_one_row_per_point(monkeypatch):
    # the greedy rows serve every checkpoint, and the disk's exchange swaps nothing
    module = sys.modules["holocap.capacity"]
    row, counted = module._log_dist_row, []
    monkeypatch.setattr(module, "_log_dist_row",
                        lambda cand, s, out: counted.append(s) or row(cand, s, out))
    capacity(Disk(0, 1), 128)
    assert len(counted) == 128


def test_quick_cloud_capacity_allocates_no_matrix():
    points = np.exp(2j * np.pi * np.arange(4096) / 4096)
    tracemalloc.start()
    try:
        quick_cloud_capacity(points, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 32 x 4,096 float64 matrix alone takes 1 MB
    assert peak < 0.5 * 2**20


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
    g_fek = fekete_green(Disk(0, 1), capacity(Disk(0, 1), FEKETE_N))
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
        g = green_function(s) if method == "analytic" else fekete_green(s, capacity(s, FEKETE_N))
        for r in (1e3, 1e4):
            z = r * np.exp(0.37j)
            assert abs(float(g(z)) - math.log(r) - g.robin_constant) < 1e-3


def test_robin_constants():
    assert robin_constant(Disk(0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert robin_constant(Segment(-1, 1)) == pytest.approx(math.log(2), abs=1e-12)
    assert robin_constant(Disk(0, math.e)) == pytest.approx(-1.0, abs=1e-12)
    assert math.isinf(robin_constant(PointCloud((1 + 1j,))))
    # one closed form per analytic shape: the Green function's, to the last bit
    for shape in (Segment(0, 3), Disk(0, 2)):
        assert robin_constant(shape) == green_function(shape).robin_constant


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
    assert gamma_cap(pred).value == capacity(big, FEKETE_N).value


def test_fekete_points_selects_among_every_cloud_point():
    # a 5,000-point circle: fekete_points takes the candidates capacity takes
    fek, solved = fekete_points(CIRCLE_5000, FEKETE_N), capacity(CIRCLE_5000, FEKETE_N).fekete
    assert np.array_equal(fek.points, solved.points)
    assert np.array_equal(fek.selection, solved.selection)


def test_fekete_points_cloud_n_above_candidates():
    # the candidates bound (default 4096) is for discretized shapes only: on a
    # cloud both calls select 4100 of its 5,000 points, and agree (~14 s)
    fek, solved = fekete_points(CIRCLE_5000, 4100), capacity(CIRCLE_5000, 4100).fekete
    assert fek.n == 4100
    assert np.array_equal(fek.points, solved.points)
    assert np.array_equal(fek.selection, solved.selection)
    assert fek.diameter_sequence == solved.diameter_sequence
    with pytest.raises(ValueError, match="candidates"):
        fekete_points(Disk(0, 1), 4100)


def _big_cloud() -> PointCloud:
    rng = np.random.default_rng(5)
    return PointCloud(tuple(rng.uniform(-1, 1, 5000) + 1j * rng.uniform(-1, 1, 5000)))


@pytest.mark.parametrize("set_, n", [
    (DUPLICATED_CIRCLE, 128),
    (_big_cloud(), 32),
    (UnionSet((Segment(-2, -1), Disk(1, 0.5))), 32),
], ids=["duplicated_circle", "cloud_beyond_candidates", "union"])
def test_green_from_selection_reproduces_the_solve(set_, n):
    green = green_function(set_, n=n)
    back = green_from_selection(set_, green.selection.tolist(), green.clamp_magnitude, n=n)
    assert np.array_equal(back.points, green.points)
    assert np.array_equal(back.selection, green.selection)
    assert back.robin_constant == green.robin_constant
    assert back.clamp_magnitude == green.clamp_magnitude
    grid = np.linspace(-3.0, 3.0, 9)[:, None] + 1j * np.linspace(-3.0, 3.0, 9)[None, :]
    assert np.array_equal(back(grid), green(grid))


# the sets of a Green solve: (set, n); a cloud of fewer distinct points than n
# resolves to all of them, MIN_POINTS at the edge of the rule
GREEN_SOLVES = {
    "union": (UnionSet((Segment(-2, -1), Disk(1, 0.5))), FEKETE_N),
    "cloud": (PointCloud(tuple(np.random.default_rng(7).normal(size=300)
                               + 1j * np.random.default_rng(8).normal(size=300))), 64),
    "duplicated_cloud": (DUPLICATED_CIRCLE, 64),
    "cloud_below_n": (DUPLICATED_CIRCLE, FEKETE_N),
    "cloud_at_min_points": (PointCloud(CIRCLE_100[:MIN_POINTS] * 2), FEKETE_N),
}


def _exterior(count):
    rng = np.random.default_rng(19)
    return (3.0 + 2.0 * rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


@pytest.mark.parametrize("name", list(GREEN_SOLVES))
def test_green_function_refines_only_its_final_size(monkeypatch, name):
    set_, n = GREEN_SOLVES[name]
    module = sys.modules["holocap.capacity"]
    refine, log_vdm, refined, summed = module._exchange_refine, module._log_vdm, [], []
    monkeypatch.setattr(module, "_exchange_refine",
                        lambda cand, sel, logdist: refined.append(len(sel))
                        or refine(cand, sel, logdist))
    monkeypatch.setattr(module, "_log_vdm", lambda pts: summed.append(len(pts)) or log_vdm(pts))
    green = green_function(set_, n=n)
    size = len(green.points)
    count = len(_distinct(np.asarray(set_.points))) if isinstance(set_, PointCloud) else n
    assert size == min(n, count)
    assert refined == [size]
    # the Robin constant comes from the one refinement's totals
    assert summed == []


@pytest.mark.parametrize("name", list(GREEN_SOLVES))
def test_green_function_is_capacity_s_evaluator(name):
    set_, n = GREEN_SOLVES[name]
    green, est = green_function(set_, n=n), capacity(set_, n)
    full = fekete_green(set_, est)
    assert green.robin_constant == full.robin_constant == est.robin_constant
    assert np.array_equal(green.points, full.points)
    assert np.array_equal(green.selection, full.selection)
    assert green.clamp_magnitude == full.clamp_magnitude
    zs = _exterior(1000)
    assert np.array_equal(green(zs), full(zs))
    assert robin_constant(set_, n=n) == est.robin_constant
    # capacity refines sizes n/2 and n, for clouds at their own size
    assert [k for k, _ in est.fekete.diameter_sequence] == _checkpoints(len(green.points))


@pytest.mark.parametrize("set_", [UnionSet((Segment(-2, -1), Disk(1, 0.5))), CIRCLE_5000],
                         ids=["union", "cloud"])
def test_green_and_robin_keep_capacity_s_checks(set_):
    def of_cloud(s, n):
        return capacity_of_cloud(discretize(s, 4096), n=n)

    for fn in (green_function, robin_constant, capacity, of_cloud):
        with pytest.raises(ValueError, match=f"n >= {MIN_POINTS}"):
            fn(set_, n=MIN_POINTS - 1)


@pytest.mark.parametrize("cloud", [
    PointCloud(tuple(complex(k) for k in range(MIN_POINTS - 1))),
    PointCloud(tuple(1e-6 * np.exp(2j * np.pi * np.arange(10) / 10))),
], ids=["too_few_points", "below_eps_cap"])
def test_green_of_a_polar_cloud_raises(cloud):
    with pytest.raises(GreenUndefinedPolarSet):
        green_function(cloud)
    assert math.isinf(robin_constant(cloud))


def test_green_potential_memory_is_bounded():
    nodes = np.exp(2j * np.pi * np.arange(256) / 256)
    green = GreenEvaluator("fekete_potential", Disk(0, 1), 0.0, points=nodes)
    zs = 2.0 * np.exp(2j * np.pi * np.arange(65536) / 65536)
    tracemalloc.start()
    try:
        green(zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 256 x 65,536 complex differences at once would peak near 400 MB
    assert peak < 16 * 2**20


@pytest.mark.parametrize("set_, n", [
    (UnionSet((Segment(-2, -1), Disk(1, 0.5))), 64),
    (DUPLICATED_CIRCLE, FEKETE_N),
], ids=["union", "cloud"])
def test_green_potential_chunks_leave_values_unchanged(set_, n):
    green = green_function(set_, n=n)
    # three chunks and a part, half the points on the set and half off it
    half = 3 * sys.modules["holocap.capacity"]._GREEN_CHUNK_CELLS // len(green.points) // 2 + 1
    zs = np.concatenate([discretize(set_, half), _exterior(half)])
    assert np.array_equal(green(zs), np.array([green(z) for z in zs]))


# ---------------------------------------------------------------------------
# unions of collinear segments in closed form, against independent closed forms
# ---------------------------------------------------------------------------

def _interval_green(wm1, wp1):
    """g of [-1, 1] at w, from w - 1 and w + 1 formed as products, so that both keep
    their relative precision next to the ends."""
    return np.log(np.abs(1.0 + wm1 + np.sqrt(wm1) * np.sqrt(wp1)))


def _symmetric_pair(a, b):
    """+-[a, b], the preimage of [a^2, b^2] under z^2: g is g_[a^2, b^2](z^2)/2 and the
    capacity sqrt((b^2 - a^2)/4) (Ransford 1995, Theorem 5.2.5)."""
    def green(z):
        scale = 2.0 / (b * b - a * a)
        return _interval_green(scale * (z - b) * (z + b), scale * (z - a) * (z + a)) / 2.0
    return np.array([-b, -a, a, b]), green, math.sqrt((b * b - a * a) / 4.0)


def _chebyshev_preimage(d, alpha):
    """T_d^{-1}([alpha, 1]): g is g_[alpha, 1](T_d(z))/d and the capacity
    ((1 - alpha)/2^{d+1})^{1/d}, with T_d(z) - c = 2^{d-1} prod (z - cos((acos c + 2 pi j)/d))."""
    def roots(c):
        return np.cos((np.arccos(c) + 2.0 * np.pi * np.arange(d)) / d)

    def green(z):
        def t_minus(c):
            return 2.0 ** d / (1.0 - alpha) * np.prod(z[:, None] - roots(c), axis=1)
        return _interval_green(t_minus(1.0), t_minus(alpha)) / d
    ends = np.sort(np.concatenate([roots(alpha), [1.0], [-1.0] * (d % 2 == 0)]))
    return ends, green, ((1.0 - alpha) / 2.0 ** (d + 1)) ** (1.0 / d)


EXACT_UNIONS = {f"pm_{a}_{b}": _symmetric_pair(a, b)
                for a, b in ((0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (1.0, 2.0), (0.3, 1.7))}
EXACT_UNIONS.update({f"chebyshev_{d}_{alpha}": _chebyshev_preimage(d, alpha)
                     for d in range(2, 9) for alpha in (-0.5, 0.5, 0.9)})


def _union_of(ends, scale=1.0, shift=0.0):
    return UnionSet(tuple(Segment(scale * a + shift, scale * b + shift)
                          for a, b in zip(ends[0::2], ends[1::2])))


def _probes(ends, rng):
    """Points of the plane off E: inside the parts' spans and 1e-9 off them, 1e-9 from
    every end along and across the line, and exterior points out to 1e8."""
    parts = list(zip(ends[0::2], ends[1::2]))
    inner = np.concatenate([a + (b - a) * rng.uniform(0.01, 0.99, 8) for a, b in parts])
    tips = np.concatenate([ends[0::2] - 1e-9, ends[1::2] + 1e-9, ends + 1e-9j, ends - 1e-9j])
    radii = np.concatenate([rng.uniform(0.0, 3.0, 200), [1e3, 1e8]])
    outer = radii * np.exp(2j * np.pi * rng.uniform(size=len(radii)))
    return inner + 1e-9 * np.exp(2j * np.pi * rng.uniform(size=len(inner))), tips, outer


@pytest.mark.parametrize("name", list(EXACT_UNIONS))
def test_collinear_union_matches_its_closed_form(name):
    ends, exact_green, exact_cap = EXACT_UNIONS[name]
    union = _union_of(ends)
    green = green_function(union)
    assert green.backing == "analytic_union"
    assert green.robin_constant == robin_constant(union)
    assert abs(math.exp(-green.robin_constant) / exact_cap - 1.0) <= 1e-12
    for zs in _probes(ends, np.random.default_rng(len(name))):
        assert np.max(np.abs(green(zs) - exact_green(zs))) <= 1e-12


def test_short_part_beside_a_long_gap():
    # T_7^{-1}([0.9, 1]) ends in a part 0.002 long beside a gap 0.32 long
    ends, exact_green, exact_cap = EXACT_UNIONS["chebyshev_7_0.9"]
    assert (ends[-1] - ends[-2]) < 1e-2 * (ends[-2] - ends[-3])
    green = green_function(_union_of(ends))
    assert abs(math.exp(-green.robin_constant) / exact_cap - 1.0) <= 1e-12
    zs = ends[-2:, None] + 1e-9 * np.exp(2j * np.pi * np.arange(16) / 16)
    assert np.max(np.abs(green(zs.ravel()) - exact_green(zs.ravel()))) <= 1e-12


def test_rotated_union_keeps_the_closed_form():
    # plane's unions are alpha * (+-[a, b]) + beta: collinear only to rounding
    ends, exact_green, exact_cap = EXACT_UNIONS["pm_0.3_1.7"]
    alpha, beta = 1.3 * np.exp(0.7j), -0.4 + 1.1j
    green = green_function(_union_of(ends, alpha, beta))
    assert green.backing == "analytic_union"
    assert abs(math.exp(-green.robin_constant) / (abs(alpha) * exact_cap) - 1.0) <= 1e-12
    inner, _, outer = _probes(ends, np.random.default_rng(3))
    for w in (inner, outer):
        assert np.max(np.abs(green(alpha * w + beta) - exact_green(w))) <= 1e-12


def test_union_parts_merge_and_polar_parts_drop():
    ends = EXACT_UNIONS["pm_0.5_1.0"][0]
    whole = green_function(_union_of(ends))
    # overlapping and touching pieces of the same two parts, one part given backwards,
    # and a part across the line too short for the chart to tell its ends apart
    pieces = UnionSet((Segment(-1.0, -0.7), Segment(-0.8, -0.5), Segment(1.0, 0.75),
                       Segment(0.5, 0.75), Segment(0.25, 0.25 + 1e-17j)))
    zs = np.random.default_rng(4).normal(size=50) + 1j * np.random.default_rng(5).normal(size=50)
    assert np.array_equal(green_function(pieces)(zs), whole(zs))
    assert robin_constant(pieces) == whole.robin_constant


@pytest.mark.parametrize("union, backing", [
    # an end off the line by 1e-13 and by 1e-11 of the span
    (UnionSet((Segment(-1, -0.5), Segment(0.5, 1 + 2e-13j))), "analytic_union"),
    (UnionSet((Segment(-1, -0.5), Segment(0.5, 1 + 2e-11j))), "fekete_potential"),
    # a part 1e-9 of the span long would need more Gauss-Legendre nodes than the budget
    (UnionSet((Segment(-1, -0.5), Segment(0.5, 0.5 + 2e-9))), "fekete_potential"),
], ids=["within_tolerance", "beyond_tolerance", "beyond_node_budget"])
def test_which_unions_take_the_closed_form(union, backing):
    assert green_function(union, n=16).backing == backing


def test_collinear_unions_run_no_solve(monkeypatch):
    module = sys.modules["holocap.capacity"]
    monkeypatch.setattr(module, "_fekete_over", lambda *args: pytest.fail("a Fekete solve ran"))
    union = UnionSet((Segment(-2, -1), Segment(1, 2)))
    assert robin_constant(union) == green_function(union).robin_constant
    assert verify_bernstein(Polynomial1D((1, 0, -2, 0, 1)), union, _exterior(20)).all_passed
    assert gamma_cap(product_predicate([union, Disk(0, 1)])).value == pytest.approx(
        math.sqrt(3) / 2, rel=1e-14)


def test_union_quadratures_in_blocks_leave_values_unchanged(monkeypatch):
    union = UnionSet((Segment(-2, -1), Segment(1, 2)))
    green = green_function(union)
    assert green.backing == "analytic_union"
    zs = np.concatenate([discretize(union, 17), _exterior(18)])
    whole = green(zs)
    monkeypatch.setattr(sys.modules["holocap.capacity"], "_GREEN_CHUNK_CELLS", 1)
    assert np.array_equal(green(zs), whole)
    assert np.array_equal(np.array([green(z) for z in zs]), whole)


def test_union_extremes_raise_no_float_warning():
    # the chart takes halves before it adds and roots before it divides
    ends, exact_green, _ = _symmetric_pair(5.0, 8.0)
    rng = np.random.default_rng(6)
    inner, _, outer = _probes(ends, rng)   # 1e307 w rounds, so no probes 1e-9 from an end
    w = np.concatenate([inner, outer[np.abs(outer) < 10.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # far from a tiny union g is log|z - c| + robin to rounding
        tiny = green_function(UnionSet((Segment(1e-300, 1e-13), Segment(2e-13, 3e-13))))
        zs = np.array([1e300, -1e300j, 1e300 + 1e300j])
        expect = np.log(np.abs(zs - 1.5e-13)) + tiny.robin_constant
        assert np.max(np.abs(tiny(zs) - expect) / expect) <= 1e-15
        # +-[5e307, 8e307] spans 1.6e308
        huge = green_function(_union_of(ends, 1e307))
        assert huge.backing == "analytic_union"
        assert np.max(np.abs(huge(1e307 * w) - exact_green(w))) <= 1e-12
        # a part of one subnormal step has no chart: the Fekete path takes the union
        sub = UnionSet((Segment(-1, -0.5), Segment(0, 5e-324), Segment(0.5, 1)))
        assert green_function(sub, n=16).backing == "fekete_potential"
