"""Logarithmic capacity, Fekete/Leja points, Green functions, Robin constants.

The capacity estimator realizes the transfinite diameter: pick n points of
the set maximizing the product of pairwise distances (greedy Leja selection
over a finite candidate discretization, then single-point exchange refinement
to a local maximum) and report

    d_n = exp(2 * log_vdm / (n (n - 1))),   log_vdm = sum_{i<j} log|z_i - z_j|.

d_n decreases to the capacity from above with a universal-looking n^{1/(n-1)}
first-order excess (exact for circles, where optimal points are rotated roots
of unity and d_n = r * n^{1/(n-1)}).  The reported capacity divides that
excess out; the raw d_n sequence is kept alongside.

"Polar" is operationalized as a capacity estimate below ``EPS_CAP`` at the
working resolution; a set that cannot furnish even ``MIN_POINTS`` distinct
points is polar at sampled scale (finite sets have capacity zero).

All operations are pure and deterministic: ties in argmax resolve to the
lowest index, reductions run in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import GreenUndefinedPolarSet
from .sets import CompactSet, Disk, PointCloud, Segment, discretize

#: capacity estimates below this are treated as polar
EPS_CAP = 1e-4

#: clouds with fewer distinct points than this are polar at sampled scale
MIN_POINTS = 8

_EXCHANGE_TOL = 1e-12
_MAX_SWEEPS = 30


@dataclass(frozen=True)
class FeketeResult:
    """Near-extremal point configuration and its diameter sequence."""

    points: np.ndarray                 # selected points, complex128
    log_vdm: float                     # sum over pairs of log distances
    diameter_sequence: tuple           # ((k, d_k), ...) at refined checkpoints
    degenerate: bool = False           # fewer distinct candidates than requested

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d_n(self) -> float:
        n = self.n
        if n < 2:
            return 0.0
        return math.exp(2.0 * self.log_vdm / (n * (n - 1)))


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
    n = len(points)
    if n < 2:
        return 0.0
    diff = np.abs(points[:, None] - points[None, :])
    iu = np.triu_indices(n, k=1)
    with np.errstate(divide="ignore"):
        return float(np.sum(np.log(diff[iu])))


def _greedy_leja(cand: np.ndarray, n: int):
    """Greedy selection of n candidate indices plus prefix log-VDM values.

    Starts from the largest-modulus candidate (ties: lowest index), then
    repeatedly adds the candidate maximizing the product of distances to the
    points already chosen.
    """
    sel = [int(np.argmax(np.abs(cand)))]
    logsum = np.full(len(cand), 0.0)
    prefix_lv = [0.0]  # log VDM of the first k points, k = 1..n
    with np.errstate(divide="ignore"):
        for _ in range(1, n):
            logsum += np.log(np.abs(cand - cand[sel[-1]]))
            k = int(np.argmax(logsum))
            prefix_lv.append(prefix_lv[-1] + float(logsum[k]))
            sel.append(k)
    return np.asarray(sel, dtype=np.intp), prefix_lv


def _exchange_refine(cand: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Single-point exchange until no swap improves the log VDM."""
    n = len(sel)
    with np.errstate(divide="ignore", invalid="ignore"):
        logdist = np.log(np.abs(cand[:, None] - cand[sel][None, :]))  # (N, n)
        for _ in range(_MAX_SWEEPS):
            improved = False
            rowsum = logdist.sum(axis=1)
            for i in range(n):
                scores = rowsum - logdist[:, i]
                scores[sel] = -np.inf  # a selected point cannot re-enter
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


def _checkpoints(n: int) -> list:
    """Doubling schedule 2, 4, 8, ... plus n//2 and n, sorted and deduped."""
    ks = {n, max(2, n // 2)}
    k = 2
    while k < n:
        ks.add(k)
        k *= 2
    return sorted(ks)


def fekete_points(set_: CompactSet, n: int, candidates: int = 4096) -> FeketeResult:
    """Near-Fekete configuration of ``n`` points on the set.

    Greedy Leja selection over the candidate discretization followed by
    pairwise-exchange refinement.  The diameter sequence is computed at a
    doubling schedule of sizes, each refined independently (greedy prefixes
    alone are not reliably monotone).  A set with fewer than ``n`` distinct
    candidate points yields all of them with ``degenerate=True``.
    """
    if candidates < n:
        raise ValueError(f"candidates ({candidates}) must be >= n ({n})")
    return _fekete_over(_distinct(discretize(set_, candidates)), n)


def _fekete_over(cand: np.ndarray, n: int) -> FeketeResult:
    """Near-Fekete selection of ``n`` points among distinct candidates."""
    if n < 2:
        raise ValueError(f"fekete_points needs n >= 2, got {n}")
    if len(cand) < n:
        return _degenerate_fekete(cand)

    sel, _ = _greedy_leja(cand, n)
    seq = []
    final_sel = None
    for k in _checkpoints(n):
        sel_k = _exchange_refine(cand, sel[:k].copy())
        lv_k = _log_vdm(cand[sel_k])
        seq.append((k, math.exp(2.0 * lv_k / (k * (k - 1)))))
        if k == n:
            final_sel = sel_k
    pts = cand[final_sel]
    return FeketeResult(points=pts, log_vdm=_log_vdm(pts), diameter_sequence=tuple(seq))


def _degenerate_fekete(pts: np.ndarray) -> FeketeResult:
    """All of too few distinct points, with their prefix diameter sequence."""
    seq = tuple((k, math.exp(2.0 * _log_vdm(pts[:k]) / (k * (k - 1))))
                for k in range(2, len(pts) + 1))
    return FeketeResult(points=pts, log_vdm=_log_vdm(pts), diameter_sequence=seq,
                        degenerate=True)


def _bias_correction(n: int) -> float:
    # first-order excess of d_n over the capacity; exact on circles
    return n ** (1.0 / (n - 1)) if n >= 2 else 1.0


def capacity(set_: CompactSet, n: int, candidates: int = 4096,
             eps_cap: float = EPS_CAP) -> CapacityEstimate:
    """Logarithmic capacity estimate via the n-point transfinite diameter.

    Continuous shapes are discretized with ``candidates`` points.  A
    :class:`PointCloud` goes to :func:`capacity_of_cloud`: its distinct
    points are the candidates and ``candidates`` does not apply.
    """
    if n < 8:
        raise ValueError(f"capacity needs n >= 8, got {n}")
    if isinstance(set_, PointCloud):
        return capacity_of_cloud(set_.points, n=n, eps_cap=eps_cap)
    fek = fekete_points(set_, n, candidates=max(candidates, n))
    return _estimate_from_fekete(fek, eps_cap)


def capacity_of_cloud(points: Sequence[complex] | np.ndarray, n: int = 128,
                      eps_cap: float = EPS_CAP) -> CapacityEstimate:
    """Capacity of a finite point cloud at working resolution ``min(n, size)``.

    Duplicates are removed and every distinct point is a candidate.  Clouds
    with fewer than ``MIN_POINTS`` distinct points are polar at sampled
    scale: value 0, Robin constant +inf.
    """
    pts = _distinct(np.asarray(points, dtype=np.complex128))
    if len(pts) < MIN_POINTS:
        return _estimate_from_fekete(_degenerate_fekete(pts), eps_cap)
    return _estimate_from_fekete(_fekete_over(pts, min(n, len(pts))), eps_cap)


def quick_cloud_capacity(points: np.ndarray, n: int) -> float:
    """Greedy-only capacity estimate of a cloud, for fiber positivity screening."""
    pts = _distinct(points)
    if len(pts) < MIN_POINTS:
        return 0.0
    n = min(n, len(pts))
    _, prefix_lv = _greedy_leja(pts, n)
    d_n = math.exp(2.0 * prefix_lv[n - 1] / (n * (n - 1)))
    return d_n / _bias_correction(n)


def _estimate_from_fekete(fek: FeketeResult, eps_cap: float) -> CapacityEstimate:
    if fek.degenerate or fek.n < 2:
        # cannot realize the requested resolution: polar at sampled scale
        return CapacityEstimate(value=0.0, n_used=fek.n, error_indicator=0.0,
                                robin_constant=math.inf, polar=True,
                                degenerate=True, fekete=fek)
    value = fek.d_n / _bias_correction(fek.n)
    seq = dict(fek.diameter_sequence)
    half = max(2, fek.n // 2)
    err = abs(seq.get(half, fek.d_n) - fek.d_n)
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

    ``backing`` is one of "analytic_disk", "analytic_segment",
    "fekete_potential".  Evaluations clamp tiny negative values (discrete
    potentials can dip below zero near the set) to 0; the construction-time
    clamp magnitude is exposed so consumers can widen tolerances.
    """

    def __init__(self, backing: str, domain_set: CompactSet, robin_constant: float,
                 points: np.ndarray | None = None, clamp_magnitude: float = 0.0):
        self.backing = backing
        self.domain_set = domain_set
        self.robin_constant = robin_constant
        self.points = points
        self.clamp_magnitude = clamp_magnitude

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
        # discrete equilibrium potential of the near-Fekete points
        pts = self.points
        out = np.empty(z.shape, dtype=np.float64)
        flat = z.reshape(-1)
        chunk = 65536
        with np.errstate(divide="ignore"):
            for lo in range(0, len(flat), chunk):
                blk = flat[lo:lo + chunk]
                out.reshape(-1)[lo:lo + chunk] = (
                    np.mean(np.log(np.abs(blk[:, None] - pts[None, :])), axis=1)
                )
        return out + self.robin_constant

    def __call__(self, z) -> np.ndarray | float:
        scalar = np.isscalar(z) or (isinstance(z, complex))
        arr = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        g = np.maximum(self._raw(arr), 0.0)
        g = np.where(np.isfinite(g), g, 0.0)  # z exactly on a potential node
        return float(g[0]) if scalar and g.size == 1 else g.reshape(np.shape(z))


def green_function(set_: CompactSet, method: str = "auto", n: int = 128,
                   candidates: int = 4096, eps_cap: float = EPS_CAP) -> GreenEvaluator:
    """Green evaluator for the complement of the set.

    ``method`` is "auto", "analytic" (disks and segments only) or "fekete".
    Raises :class:`GreenUndefinedPolarSet` when the capacity estimate is
    polar: the Green function of the complement of a polar set degenerates.
    """
    if method not in ("auto", "analytic", "fekete"):
        raise ValueError(f"unknown Green method {method!r}")
    analytic_ok = isinstance(set_, (Disk, Segment))
    if method == "analytic" and not analytic_ok:
        raise ValueError("analytic Green backing requires a Disk or Segment")

    if method in ("auto", "analytic") and analytic_ok:
        if isinstance(set_, Disk):
            return GreenEvaluator("analytic_disk", set_, -math.log(set_.radius))
        length = abs(set_.b - set_.a)
        return GreenEvaluator("analytic_segment", set_, -math.log(length / 4.0))

    est = capacity(set_, n=n, candidates=candidates, eps_cap=eps_cap)
    if est.polar:
        raise GreenUndefinedPolarSet(
            f"capacity estimate {est.value:.3e} below polar threshold {eps_cap:g}")
    ev = GreenEvaluator("fekete_potential", set_, est.robin_constant,
                        points=est.fekete.points)
    # clamp magnitude: worst negative dip of the raw potential on the set itself
    probe = discretize(set_, min(candidates, 4096))
    raw = ev._raw(np.asarray(probe, dtype=np.complex128))
    raw = raw[np.isfinite(raw)]
    ev.clamp_magnitude = float(max(0.0, -raw.min())) if len(raw) else 0.0
    return ev


def robin_constant(set_: CompactSet, n: int = 128, candidates: int = 4096,
                   eps_cap: float = EPS_CAP) -> float:
    """Robin constant lim_{|z| -> inf} (g(z) - log|z|) of the complement.

    Closed forms for disks (-log r) and segments (log(4/length)); otherwise
    -log of the capacity estimate.  Polar sets get the +inf marker.
    """
    if isinstance(set_, Disk):
        return -math.log(set_.radius)
    if isinstance(set_, Segment):
        return math.log(4.0 / abs(set_.b - set_.a))
    return capacity(set_, n=n, candidates=candidates, eps_cap=eps_cap).robin_constant
