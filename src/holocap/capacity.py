"""Logarithmic capacity, Fekete/Leja points, Green functions, Robin constants.

The capacity estimator realizes the transfinite diameter: pick n points of
the set maximizing the product of pairwise distances (greedy Leja selection
over a finite candidate discretization, then single-point exchange refinement
to a local maximum) and report

    d_n = exp(2 * log_vdm / (n (n - 1))),   log_vdm = sum_{i<j} log|z_i - z_j|.

d_n decreases to the capacity from above with a universal-looking n^{1/(n-1)}
first-order excess (exact for circles, where optimal points are rotated roots
of unity and d_n = r * n^{1/(n-1)}).  The reported capacity divides that
excess out; the raw d_k at sizes n/2 and n are kept alongside.

Green functions and Robin constants have four backings: "analytic_disk",
"analytic_segment" and "analytic_union" (segments on one line) in closed form,
and "fekete_potential", the discrete potential of a capacity solve, for any
other set; :func:`capacity` estimates every shape, those three included.

Every capacity solve (of :func:`capacity`, :func:`capacity_of_cloud`,
:func:`green_function` and :func:`robin_constant`) keeps one rule: n is at
least ``MIN_POINTS``; a shape is solved at n over ``max(candidates, n)``
discretization points; a cloud at min(n, distinct count) over its distinct
points, and below ``MIN_POINTS`` distinct points it is polar at sampled scale
(finite sets have capacity zero).  Otherwise "polar" is an estimate below
``EPS_CAP``.

All operations are pure and deterministic: ties in argmax resolve to the
lowest index, reductions run in a fixed order.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import GreenUndefinedPolarSet
from .sets import CompactSet, Disk, PointCloud, Segment, UnionSet, discretize

#: capacity estimates below this are treated as polar
EPS_CAP = 1e-4

#: clouds with fewer distinct points than this are polar at sampled scale
MIN_POINTS = 8

#: working resolution: Fekete points per estimate, candidates per discretized shape
FEKETE_N = 128
CANDIDATES = 4096

_EXCHANGE_TOL = 1e-12
_MAX_SWEEPS = 30

#: point x node pairs a Green potential or _log_vdm evaluates at once (~6 MB of temporaries)
_GREEN_CHUNK_CELLS = 1 << 18

#: a union's segments are collinear when every end lies within this share of the span
#: of the line through its two farthest ends
_COLLINEAR_TOL = 1e-12


@dataclass(frozen=True)
class FeketeResult:
    """Near-extremal point configuration and its diameter sequence."""

    points: np.ndarray                 # selected points, complex128
    log_vdm: float                     # sum over pairs of log distances: _log_vdm(points)
    # ((k, d_k), ...) at the refined sizes: n/2 and n, or the final one alone
    diameter_sequence: tuple
    degenerate: bool = False           # fewer distinct candidates than requested
    # positions of ``points`` in the candidate array the solve ran over
    selection: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d_n(self) -> float:
        n = self.n
        return math.exp(2.0 * self.log_vdm / (n * (n - 1))) if n >= 2 else 0.0


@dataclass(frozen=True)
class CapacityEstimate:
    value: float                       # bias-corrected transfinite diameter
    n_used: int
    error_indicator: float             # |d_{n/2} - d_n| over the raw sequence
    robin_constant: float              # -log(value); +inf when polar
    polar: bool
    degenerate: bool
    fekete: FeketeResult | None = field(default=None, repr=False, compare=False)


def _distinct(points: np.ndarray) -> np.ndarray:
    """Stable dedupe preserving first-occurrence order."""
    _, idx = np.unique(points, return_index=True)
    return points[np.sort(idx)]


def _log_vdm(points: np.ndarray) -> float:
    """Sum of log|z_i - z_j| over the pairs i < j, bit for bit a solve's: half the
    column sums of log|z_j - z_i| over the rows i in order, in blocks of one width
    >= 2 (numpy sums one column pairwise) and about ``_GREEN_CHUNK_CELLS`` cells."""
    k = len(points)
    cols = max(2, _GREEN_CHUNK_CELLS // max(k, 1))
    sums = np.empty(k)
    for lo in range(0, k, cols):
        lo = max(0, min(lo, k - cols))   # the last block overlaps the one before it
        blk = np.abs(points[lo:lo + cols] - points[:, None])   # rows i, columns j
        np.fill_diagonal(blk[lo:], 1.0)   # log 1 = 0 in place of log 0 at i = j
        sums[lo:lo + cols] = np.log(blk, out=blk).sum(axis=0)
    return 0.5 * float(np.sum(sums))


def _greedy_leja(cand: np.ndarray, n: int, rows: np.ndarray | None = None):
    """Greedy selection of n candidate indices plus prefix log-VDM values.

    Starts from the largest-modulus candidate (ties: lowest index), then
    repeatedly adds the candidate maximizing the product of distances to the
    points already chosen.  Point j's :func:`_log_dist_row` goes into
    ``rows[j]`` of a given (n, N) matrix, else into one reused scratch row.
    """
    sel = [int(np.argmax(np.abs(cand)))]
    logsum = np.full(len(cand), 0.0)
    scratch = np.empty(len(cand)) if rows is None else None
    prefix_lv = [0.0]  # log VDM of the first k points, k = 1..n
    for j in range(n - 1):
        logsum += _log_dist_row(cand, sel[j], scratch if rows is None else rows[j])
        logsum[sel[j]] = -np.inf   # the log 0 that its row leaves out
        k = int(logsum.argmax())
        prefix_lv.append(prefix_lv[-1] + float(logsum[k]))
        sel.append(k)
    if rows is not None:
        _log_dist_row(cand, sel[-1], rows[n - 1])
    return np.asarray(sel, dtype=np.intp), prefix_lv


def _log_dist_row(cand: np.ndarray, s: int, row: np.ndarray) -> np.ndarray:
    """Write log|cand - cand[s]| into ``row``, with 0 in place of log 0 at s."""
    np.abs(cand - cand[s], out=row)
    row[s] = 1.0
    return np.log(row, out=row)


def _exchange_refine(cand: np.ndarray, sel: np.ndarray, logdist: np.ndarray):
    """Single-point exchange until no swap improves the log VDM, in place.

    Row i of ``logdist`` holds slot i's :func:`_log_dist_row` (``cand`` must
    be distinct), so ``total[c]`` is candidate c's log-distance sum to the
    selection and, for a selected c, its sum to the other selected points.
    The totals, and a copy masked with -inf at the selected candidates, are
    summed at the start of each sweep and updated by the row difference
    after every accepted swap.  Returns ``sel`` (it and ``logdist`` end as the
    result) and the final rows' totals, re-summed if ``_MAX_SWEEPS`` cut a swap.
    """
    scores, row = np.empty(len(cand)), np.empty(len(cand))
    for _ in range(_MAX_SWEEPS):
        improved = False
        total = logdist.sum(axis=0)
        masked = total.copy()
        masked[sel] = -np.inf
        for i in range(len(sel)):
            best = int(np.subtract(masked, logdist[i], out=scores).argmax())
            current = float(total[sel[i]])
            if scores[best] - current > _EXCHANGE_TOL * max(1.0, abs(current)):
                diff = np.subtract(_log_dist_row(cand, best, row), logdist[i], out=scores)
                total += diff
                masked += diff
                masked[sel[i]], masked[best] = total[sel[i]], -np.inf
                logdist[i] = row
                sel[i] = best
                improved = True
        if not improved:
            return sel, total
    return sel, logdist.sum(axis=0)


def _checkpoints(n: int) -> list:
    """The sizes an estimate reads: n//2 (at least 2) for its error indicator, and n."""
    return sorted({max(2, n // 2), n})


def fekete_points(set_: CompactSet, n: int, candidates: int = CANDIDATES) -> FeketeResult:
    """Near-Fekete configuration of ``n`` points on the set.

    Greedy Leja selection over the candidates of :func:`capacity` (a cloud's
    distinct points, else the ``candidates``-point discretization) followed
    by pairwise-exchange refinement.  The diameter sequence lists n/2 and n,
    each refined from its own greedy prefix, so a solve at n = k gives d_k of
    any other size k as its last row.  A set with fewer than ``n`` distinct
    candidate points yields all of them with ``degenerate=True``.
    """
    if candidates < n and not isinstance(set_, PointCloud):
        raise ValueError(f"candidates ({candidates}) must be >= n ({n})")
    return _fekete_over(_candidates(set_, n, candidates), n, _checkpoints(n))


def _fekete_over(cand: np.ndarray, n: int, checkpoints: Sequence[int]) -> FeketeResult:
    """Near-Fekete selection of ``n`` points among distinct candidates.

    Each size k in ``checkpoints`` (n/2 and n, or n alone) is refined by
    exchange from the greedy prefix of size k, independently of the other,
    and the diameter sequence lists exactly these sizes; the size-n
    refinement is the result.  The greedy selection fills one (n, N)
    log-distance matrix that serves both sizes, so a solve peaks at one n x N
    float64 (16 MB at n = 512, N = 4,096), and no n x n array: size k is refined
    on its first k rows, after recomputing those that size n/2 swapped, and
    its log VDM is half the sum of its final totals at the selection.
    """
    if n < 2:
        raise ValueError(f"fekete_points needs n >= 2, got {n}")
    if len(cand) < n:
        return _degenerate_fekete(cand)

    rows = np.empty((n, len(cand)))
    greedy, _ = _greedy_leja(cand, n, rows)
    held = greedy.copy()   # held[j]: the candidate whose row rows[j] holds
    seq = []
    for k in checkpoints:
        for j in np.flatnonzero(held[:k] != greedy[:k]):
            held[j] = greedy[j]
            _log_dist_row(cand, held[j], rows[j])
        sel_k, total = _exchange_refine(cand, held[:k], rows[:k])
        lv_k = 0.5 * float(np.sum(total[sel_k]))
        seq.append((k, math.exp(2.0 * lv_k / (k * (k - 1)))))
    return FeketeResult(points=cand[sel_k], log_vdm=lv_k, diameter_sequence=tuple(seq),
                        selection=sel_k)


def _degenerate_fekete(pts: np.ndarray) -> FeketeResult:
    """All of too few distinct points; prefix diameters from running sums as in _greedy_leja."""
    logsum, row, prefix_lv, seq = np.zeros(len(pts)), np.empty(len(pts)), 0.0, []
    for k in range(2, len(pts) + 1):
        logsum += _log_dist_row(pts, k - 2, row)
        prefix_lv += float(logsum[k - 1])
        seq.append((k, math.exp(2.0 * prefix_lv / (k * (k - 1)))))
    return FeketeResult(points=pts, log_vdm=_log_vdm(pts), diameter_sequence=tuple(seq),
                        degenerate=True, selection=np.arange(len(pts)))


def _bias_correction(n: int) -> float:
    # first-order excess of d_n over the capacity; exact on circles
    return n ** (1.0 / (n - 1)) if n >= 2 else 1.0


def capacity(set_: CompactSet, n: int, candidates: int = CANDIDATES,
             eps_cap: float = EPS_CAP) -> CapacityEstimate:
    """Logarithmic capacity estimate via the n-point transfinite diameter.

    Continuous shapes are discretized with ``candidates`` points and solved
    by :func:`fekete_points`.  A :class:`PointCloud` goes to
    :func:`capacity_of_cloud`: its distinct points are the candidates and
    ``candidates`` does not apply.
    """
    if isinstance(set_, PointCloud):
        return capacity_of_cloud(set_.points, n, eps_cap)
    return _solve(set_, n, candidates, eps_cap, cloud=False)


def capacity_of_cloud(points: Sequence[complex] | np.ndarray, n: int = FEKETE_N,
                      eps_cap: float = EPS_CAP) -> CapacityEstimate:
    """Capacity of a finite point cloud at working resolution ``min(n, size)``.

    Duplicates are removed and every distinct point is a candidate.  Clouds
    with fewer than ``MIN_POINTS`` distinct points are polar at sampled
    scale: value 0, Robin constant +inf.
    """
    return _solve(points, n, CANDIDATES, eps_cap, cloud=True)


def _solve(source, n: int, candidates: int, eps_cap: float, *, cloud: bool,
           final: bool = False) -> CapacityEstimate:
    """Solve a cloud's points or a shape by the module's rule: sizes n/2 and
    n (a shape's through :func:`fekete_points`) or, if ``final``, the final
    size alone, refined from the same greedy prefix, so that only
    ``error_indicator`` (then 0) differs."""
    _floor(n)
    if not cloud and not final:
        return _estimate_from_fekete(fekete_points(source, n, max(candidates, n)), eps_cap)
    cand = (_distinct(np.asarray(source, dtype=np.complex128)) if cloud
            else _candidates(source, n, candidates))
    if cloud and len(cand) < MIN_POINTS:
        return _estimate_from_fekete(_degenerate_fekete(cand), eps_cap)
    size = _solve_size(cloud, n, len(cand))
    return _estimate_from_fekete(
        _fekete_over(cand, size, (size,) if final else _checkpoints(size)), eps_cap)


def _floor(n: int) -> int:
    """``n`` if a solve may refine that size: at least ``MIN_POINTS``."""
    if n < MIN_POINTS:
        raise ValueError(f"capacity needs n >= {MIN_POINTS}, got {n}")
    return n


def _solve_size(cloud: bool, n: int, count: int) -> int:
    """The size a solve refines last over ``count`` distinct candidates."""
    return min(n, count) if cloud else n


def quick_cloud_capacity(points: np.ndarray, n: int) -> float:
    """Greedy-only capacity estimate of a cloud, for fiber positivity screening."""
    pts = _distinct(points)
    if len(pts) < MIN_POINTS:
        return 0.0
    n = min(n, len(pts))
    _, prefix_lv = _greedy_leja(pts, n)
    return math.exp(2.0 * prefix_lv[n - 1] / (n * (n - 1))) / _bias_correction(n)


def _estimate_from_fekete(fek: FeketeResult, eps_cap: float) -> CapacityEstimate:
    if fek.degenerate or fek.n < 2:
        # cannot realize the requested resolution: polar at sampled scale
        return CapacityEstimate(value=0.0, n_used=fek.n, error_indicator=0.0,
                                robin_constant=math.inf, polar=True,
                                degenerate=True, fekete=fek)
    value = fek.d_n / _bias_correction(fek.n)
    d_half = dict(fek.diameter_sequence).get(max(2, fek.n // 2), fek.d_n)
    err = abs(d_half - fek.d_n)
    polar = value < eps_cap
    robin = math.inf if polar else -math.log(value)
    return CapacityEstimate(value=value, n_used=fek.n, error_indicator=err,
                            robin_constant=robin, polar=polar,
                            degenerate=False, fekete=fek)


# ---------------------------------------------------------------------------
# Green functions of complement domains
# ---------------------------------------------------------------------------

class GreenEvaluator:
    """Green function g(z, infinity) of the complement of a compact set.

    ``backing`` is one of "analytic_disk", "analytic_segment", "analytic_union"
    (segments on one line, :func:`_union_green`) and "fekete_potential".
    Evaluations clamp tiny negative values (discrete potentials can dip below
    zero near the set) to 0; the construction-time clamp magnitude is exposed
    so consumers can widen tolerances.  A Fekete backing keeps its potential's
    ``points`` and their ``selection``, the positions of the points among the
    solve's candidates.
    """

    def __init__(self, backing: str, domain_set: CompactSet, robin_constant: float,
                 points: np.ndarray | None = None, clamp_magnitude: float = 0.0,
                 selection: np.ndarray | None = None):
        self.backing = backing
        self.domain_set = domain_set
        self.robin_constant = robin_constant
        self.points = points
        self.clamp_magnitude = clamp_magnitude
        self.selection = selection

    def _raw(self, z: np.ndarray) -> np.ndarray:
        s = self.domain_set
        if self.backing == "analytic_disk":
            r = np.abs(z - s.center)
            with np.errstate(divide="ignore"):
                return np.where(r >= s.radius, np.log(np.maximum(r, s.radius) / s.radius), 0.0)
        if self.backing == "analytic_segment":
            # affine map onto [-1, 1]; principal roots factor by factor keep
            # the branch positive off the segment and avoid the cut of
            # sqrt(w^2 - 1) on the negative real axis
            w = (2.0 * z - (s.a + s.b)) / (s.b - s.a)
            surd = np.sqrt(w - 1.0) * np.sqrt(w + 1.0)
            return np.log(np.abs(w + surd))
        # a union's quadratures, or the discrete equilibrium potential of the
        # near-Fekete points, in blocks of about _GREEN_CHUNK_CELLS point x node
        # cells; each point's value is its own row's, so blocks change none
        flat, out, pts, robin = z.reshape(-1), np.empty(z.size), self.points, self.robin_constant
        if self.backing == "analytic_union":
            _, cells, block = _union_green(s)
        else:
            cells = len(pts)
            block = lambda b: np.mean(np.log(np.abs(b[:, None] - pts)), axis=1) + robin
        chunk = max(1, _GREEN_CHUNK_CELLS // cells)
        with np.errstate(divide="ignore"):
            for lo in range(0, len(flat), chunk):
                out[lo:lo + chunk] = block(flat[lo:lo + chunk])
        return out.reshape(z.shape)

    def __call__(self, z) -> np.ndarray | float:
        scalar = np.isscalar(z) or (isinstance(z, complex))
        arr = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        g = np.maximum(self._raw(arr), 0.0)
        g = np.where(np.isfinite(g), g, 0.0)  # z exactly on a potential node
        return float(g[0]) if scalar and g.size == 1 else g.reshape(np.shape(z))


def green_function(set_: CompactSet, n: int = FEKETE_N, candidates: int = CANDIDATES,
                   eps_cap: float = EPS_CAP) -> GreenEvaluator:
    """Green evaluator for the complement of the set.

    Disks, segments and unions of collinear segments take their closed
    forms (:func:`_closed_form_capacity`).  Any other set takes
    ``fekete_green(set_, capacity(set_, n, candidates, eps_cap))`` bit for
    bit, from a solve that refines the final size alone.  Raises
    :class:`GreenUndefinedPolarSet` when the estimate is polar: the Green
    function of the complement of a polar set degenerates.
    """
    cap = _closed_form_capacity(set_)
    if cap is not None:
        backing = "analytic_" + {Disk: "disk", Segment: "segment"}.get(type(set_), "union")
        return GreenEvaluator(backing, set_, -math.log(cap))
    return fekete_green(set_, _final_estimate(set_, n, candidates, eps_cap), candidates, eps_cap)


def _closed_form_capacity(set_: CompactSet) -> float | None:
    """Exact capacity of a disk (r), a segment (|b - a|/4) or a union of collinear
    segments (:func:`_union_green`); None for other sets."""
    if isinstance(set_, (Disk, Segment)):
        return set_.radius if isinstance(set_, Disk) else abs(set_.b - set_.a) / 4.0
    collinear = isinstance(set_, UnionSet) and all(isinstance(p, Segment) for p in set_.parts)
    u = _union_green(set_) if collinear else None   # None too for segments off one line
    return None if u is None else u[0]


@functools.lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple:
    """n Gauss-Legendre nodes and weights, built (numpy.polynomial imported) on first use."""
    return np.polynomial.legendre.leggauss(n)


@functools.lru_cache(maxsize=64)
def _union_green(set_: UnionSet) -> tuple | None:
    """(capacity, point x node cells, g) of a union of segments if they lie on one line
    (up to ``_COLLINEAR_TOL``), else None.  t = (z - c)/h maps the line onto [-1, 1], c
    and h the middle and half of its two farthest ends; touching parts merge and a part
    of zero length (polar) drops.  With p the product of (t - e) over the parts' ends and
    sqrt(p) that of their principal roots, g = |Re int_e^t q/sqrt(p)| from any end e, the
    monic q making the integral vanish across every gap (Embree & Trefethen, SIAM Review
    41, 1999): Gauss-Chebyshev rows, exact at a gap's ends, in a Chebyshev basis.  Node
    counts grow with a gap over its shorter neighbour and with the shortest step between
    ends; a set whose nodes squared (Gauss-Legendre's matrix) or gap system exceed
    ``_GREEN_CHUNK_CELLS`` cells is left to the Fekete path."""
    z = np.array([[p.a, p.b] for p in set_.parts])
    hi = z.flat[np.argmax(np.abs(z - z[0, 0]))]
    lo = z.flat[np.argmax(np.abs(z - hi))]
    h, c, ends = hi / 2.0 - lo / 2.0, lo / 2.0 + hi / 2.0, []   # halves first: no overflow
    if h == 0:   # a span of one subnormal step
        return None
    t = (z - c) / h
    for a, b in sorted(map(sorted, t.real.tolist())):
        if ends and a <= ends[-1]:
            ends[-1] = max(ends[-1], b)
        elif a < b:
            ends += [a, b]
    e, k, tip = np.array(ends), len(ends) // 2, dict(zip(t.real.flat, z.flat))
    step, gap = np.diff(e), np.arange(1, 2 * k - 1, 2)   # step[gap]: the gaps, from e[gap]
    nodes = max(32, math.ceil(20.0 * 3.0 ** 0.25 / step.min(initial=1.0) ** 0.25))
    m = max(64, math.ceil(12.0 * max(np.sqrt(step[gap]) / np.sqrt(np.minimum(
        step[gap - 1], step[gap + 1])), default=0.0)))   # roots first: no overflow
    if not (np.abs(t.imag).max() <= 2.0 * _COLLINEAR_TOL and ends   # a NaN fails too
            and max(nodes * nodes, m * k * 2 * k) <= _GREEN_CHUNK_CELLS):
        return None
    x = e[gap, None] + step[gap, None] * np.sin((np.arange(m) + 0.5) * (np.pi / m / 2.0)) ** 2
    dist = np.abs(x[..., None] - e)
    dist[np.arange(k - 1), :, gap] = dist[np.arange(k - 1), :, gap + 1] = 1.0
    rows = (np.polynomial.chebyshev.chebvander(x, k - 1)
            / np.sqrt(dist).prod(axis=2)[..., None]).sum(axis=1)
    zeros = np.polynomial.chebyshev.chebroots(np.append(
        np.linalg.solve(rows[:, :-1], -rows[:, -1]), 1.0))
    tips, (s, w) = np.array([tip[end] for end in ends]), _leggauss(nodes)
    s, w = (s + 1.0) / 2.0, w / 2.0   # nodes and weights on [0, 1]

    def near(d: np.ndarray, j: np.ndarray) -> np.ndarray:
        # g at t = e_j + d, along e_j + d s^2, which takes 1/sqrt(zeta - e_j) out exactly
        d = d.real + 1j * np.abs(d.imag)   # g(conj t) = g(t): every path in Im >= +0
        zeta = (e[j, None] + d[:, None] * (s * s))[..., None]
        roots = np.sqrt(zeta - e)
        roots[np.arange(len(j)), :, j] = 1.0
        f = np.prod(zeta - zeros, axis=2) / roots.prod(axis=2)
        return np.abs((2.0 * np.sqrt(d) * (f * w).sum(axis=1)).real)

    def far(u: np.ndarray) -> np.ndarray:
        # Re int_t^inf (q/sqrt(p) - 1/zeta) at t = 1/u, over v = 1/zeta = s u, where
        # q/sqrt(p) = v prod(1 - zero v) / prod sqrt(1 - end v)
        v = (s * u[:, None])[..., None]
        f = np.prod(1.0 - v * zeros, axis=2) / np.sqrt(1.0 - v * e).prod(axis=2)
        return ((f - 1.0) * (w / s)).sum(axis=1).real

    def green(z: np.ndarray) -> np.ndarray:
        # g - robin = log|z - c| - far(1/t) at |t| > 2
        r, out = z - c, np.empty(len(z))
        away = np.abs(r) > 2.0 * abs(h)
        j = np.argmin(np.abs(r[~away, None] / h - e), axis=1)
        out[~away] = near((z[~away] - tips[j]) / h, j)   # t - e_j as precise as z - tip
        out[away] = robin + np.log(np.abs(r[away])) - far(h / r[away])
        return out

    # g(3) in both forms, in the chart: robin is -log cap
    robin = float(near(np.array([3.0 - e[-1] + 0j]), np.array([2 * k - 1]))[0] - math.log(3.0)
                  + far(np.array([1.0 / 3.0 + 0j]))[0] - math.log(abs(h)))
    return math.exp(-robin), nodes * 2 * k, green


def _final_estimate(set_: CompactSet, n: int, candidates: int,
                    eps_cap: float) -> CapacityEstimate:
    """:func:`capacity`'s estimate of the set with only its final size refined."""
    cloud = isinstance(set_, PointCloud)
    return _solve(set_.points if cloud else set_, n, candidates, eps_cap, cloud=cloud, final=True)


def fekete_green(set_: CompactSet, est: CapacityEstimate, candidates: int = CANDIDATES,
                 eps_cap: float = EPS_CAP) -> GreenEvaluator:
    """:func:`green_function`'s Fekete-backed evaluator, built from the set's own
    estimate ``est`` without a solve; raises :class:`GreenUndefinedPolarSet` if polar."""
    if est.polar:
        raise GreenUndefinedPolarSet(
            f"capacity estimate {est.value:.3e} below polar threshold {eps_cap:g}")
    ev = GreenEvaluator("fekete_potential", set_, est.robin_constant,
                        points=est.fekete.points, selection=est.fekete.selection)
    # clamp magnitude: worst negative dip of the raw potential on the set itself
    raw = ev._raw(np.asarray(discretize(set_, min(candidates, 4096)), dtype=np.complex128))
    raw = raw[np.isfinite(raw)]
    ev.clamp_magnitude = float(max(0.0, -raw.min())) if len(raw) else 0.0
    return ev


def _candidates(set_: CompactSet, n: int, candidates: int) -> np.ndarray:
    """The distinct candidates ``capacity`` and ``fekete_points`` select from."""
    if isinstance(set_, PointCloud):
        return _distinct(np.asarray(set_.points, dtype=np.complex128))
    return _distinct(discretize(set_, max(candidates, n)))


def green_from_selection(set_: CompactSet, selection, clamp_magnitude: float,
                         n: int = FEKETE_N, candidates: int = CANDIDATES,
                         eps_cap: float = EPS_CAP) -> GreenEvaluator:
    """The Fekete-backed evaluator of :func:`green_function`, rebuilt from its selection.

    ``selection`` and ``clamp_magnitude`` are an evaluator's own, so no
    solve runs: :func:`_log_vdm` sums the points as the solve's final totals
    did (no n x n array), reproducing every value bit for bit.  The selection
    is checked as outside input (distinct integer positions among the
    candidates, as many as the solve selects, a capacity not below
    ``eps_cap``); a violation raises ``ValueError``.
    """
    cand = _candidates(set_, _floor(n), candidates)
    size = _solve_size(isinstance(set_, PointCloud), n, len(cand))
    if len(selection) != size:
        raise ValueError(f"{len(selection)} indices where the solve selects {size}")
    if not (set(map(type, selection)) <= {int}
            and 0 <= min(selection) <= max(selection) < len(cand)):
        for i in selection:   # a fault: name the first, checking index by index
            if isinstance(i, bool) or not isinstance(i, numbers.Integral):
                raise ValueError(f"index {i!r} is not an integer")
            if not 0 <= i < len(cand):
                raise ValueError(f"index {i} is out of range for {len(cand)} candidates")
    sel = np.asarray(selection, dtype=np.intp)
    if len(np.unique(sel)) != len(sel):
        raise ValueError("an index repeats")
    pts = cand[sel]
    fek = FeketeResult(points=pts, log_vdm=_log_vdm(pts), diameter_sequence=(),
                       degenerate=len(pts) < MIN_POINTS, selection=sel)
    est = _estimate_from_fekete(fek, eps_cap)
    if est.polar:
        raise ValueError(f"capacity {est.value:.3e} of the selected points is below "
                         f"eps_cap {eps_cap:g}")
    return GreenEvaluator("fekete_potential", set_, est.robin_constant, points=pts,
                          clamp_magnitude=clamp_magnitude, selection=sel)


def robin_constant(set_: CompactSet, n: int = FEKETE_N, candidates: int = CANDIDATES,
                   eps_cap: float = EPS_CAP) -> float:
    """Robin constant lim_{|z| -> inf} (g(z) - log|z|) of the complement.

    -log of the closed-form capacity of a disk, a segment or a union of
    collinear segments; for any other set
    ``capacity(set_, n, candidates, eps_cap).robin_constant`` bit for bit, from
    a solve that refines the final size alone.  Polar sets get +inf.
    """
    cap = _closed_form_capacity(set_)
    if cap is not None:
        return -math.log(cap)
    return _final_estimate(set_, n, candidates, eps_cap).robin_constant
