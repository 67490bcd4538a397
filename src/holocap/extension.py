"""Certified extension domains for power series sum_n P_n(z2) z1^n.

Finite data about the coefficient polynomials (all indices up to a norm
cutoff) plus a sample cloud where the series is known to converge are turned
into an :class:`ExtensionCertificate`: constants (rho1, M0, C0, C1) and a
witness compact C such that

    |P_n(z2)| <= M0 * rho1^{||n||} * exp((C0 + C1 ||n||) * g(z2))

holds on all of C (by construction on the samples, globally by the
polynomial growth bound), which makes the series dominated by an explicit
geometric tail on the domain |z1| < C2 / (1 + |z2|)^{C1}.

Limit operations of the underlying argument are realized as finite-data
surrogates: radii of convergence use a max over a tail window instead of a
limsup, and the selection of a uniformly bounded sub-compact runs a doubling
search over sublevel sets (a countable exhaustion, so the search terminates
on finite data).  Certificates record the norm cutoff and every threshold
used, so all claims are explicitly conditional on the supplied data.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from math import comb, isqrt
from typing import Callable

import numpy as np

from . import __version__
from .bernstein import Polynomial1D
from .capacity import EPS_CAP, MIN_POINTS, GreenEvaluator, capacity_of_cloud, green_function
from .errors import (
    AllStrataPolar,
    DegreeGrowthViolated,
    HolocapError,
    InsufficientData,
    NoUniformStratum,
    NotSublinear,
    OutsideCertifiedDomain,
    WindowEmpty,
)
from .sets import CompactSet, PointCloud, set_from_json, set_to_json


# ---------------------------------------------------------------------------
# Multi-indices and polynomial sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndex:
    """Tuple of nonnegative integers with its 1-norm."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        if not entries:
            raise ValueError("MultiIndex needs at least one entry")
        if any(e < 0 for e in entries):
            raise ValueError(f"MultiIndex entries must be nonnegative: {entries}")
        object.__setattr__(self, "entries", entries)

    @property
    def norm(self) -> int:
        return sum(self.entries)

    @property
    def k(self) -> int:
        return len(self.entries)

    @classmethod
    def single(cls, n: int) -> "MultiIndex":
        return cls((n,))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_indices(k: int, lo: int, hi: int):
    """All multi-indices of length k with lo <= norm <= hi, by norm then lex."""
    for j in range(lo, hi + 1):
        for entries in _compositions(j, k):
            yield MultiIndex(entries)


@dataclass
class PolynomialSequence:
    """Coefficient family of a power series, available up to a norm cutoff.

    ``provider`` must be total on indices with norm <= max_norm and safe to
    call concurrently (results are cached here).  Declared growth constants,
    when present, are validated by :func:`fit_degree_growth` against every
    available degree.
    """

    provider: Callable[[MultiIndex], Polynomial1D]
    max_norm: int
    k: int = 1
    declared_C0: float | None = None
    declared_C1: float | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def poly(self, index: MultiIndex) -> Polynomial1D:
        if index.k != self.k:
            raise ValueError(f"index length {index.k} != sequence k {self.k}")
        if index.norm > self.max_norm:
            raise ValueError(f"index norm {index.norm} beyond available {self.max_norm}")
        p = self._cache.get(index.entries)
        if p is None:
            p = self.provider(index)
            self._cache[index.entries] = p
        return p

    def indices(self, lo: int = 0, hi: int | None = None):
        return iter_indices(self.k, lo, self.max_norm if hi is None else hi)


def geometric_sequence(lam: complex, max_norm: int, k: int = 1) -> PolynomialSequence:
    """P_n(z) = (lam * z)^{||n||}."""
    lam = complex(lam)

    def provider(idx: MultiIndex) -> Polynomial1D:
        j = idx.norm
        return Polynomial1D((0,) * j + (lam ** j,))

    return PolynomialSequence(provider=provider, max_norm=max_norm, k=k)


def constant_sequence(value: complex, max_norm: int, k: int = 1) -> PolynomialSequence:
    """P_n = value for every index."""
    p = Polynomial1D((complex(value),))
    return PolynomialSequence(provider=lambda idx: p, max_norm=max_norm, k=k)


def delta_sequence(value: complex, max_norm: int, k: int = 1) -> PolynomialSequence:
    """P_0 = value, every other index zero (multiplicative unit at value=1)."""
    unit = Polynomial1D((complex(value),))
    zero = Polynomial1D((0j,))
    return PolynomialSequence(provider=lambda idx: unit if idx.norm == 0 else zero,
                              max_norm=max_norm, k=k)


def sqrt_degree_sequence(max_norm: int, k: int = 1) -> PolynomialSequence:
    """P_n(z) = z^{isqrt(||n||)}; degrees grow like the square root of the norm."""

    def provider(idx: MultiIndex) -> Polynomial1D:
        d = isqrt(idx.norm)
        return Polynomial1D((0,) * d + (1,))

    return PolynomialSequence(provider=provider, max_norm=max_norm, k=k)


def table_sequence(entries: dict, max_norm: int, k: int = 1,
                   declared_C0: float | None = None,
                   declared_C1: float | None = None) -> PolynomialSequence:
    """Sequence backed by an explicit {entries tuple: Polynomial1D} table.

    Missing indices are the zero polynomial.
    """
    zero = Polynomial1D((0j,))
    table = {tuple(int(e) for e in key): p for key, p in entries.items()}
    return PolynomialSequence(provider=lambda idx: table.get(idx.entries, zero),
                              max_norm=max_norm, k=k,
                              declared_C0=declared_C0, declared_C1=declared_C1)


# ---------------------------------------------------------------------------
# Degree growth
# ---------------------------------------------------------------------------

def fit_degree_growth(seq: PolynomialSequence) -> tuple:
    """(C0, C1) with deg P_n <= C0 + C1 * ||n|| on every available index.

    Declared constants are validated and returned unchanged.  Otherwise C0
    is anchored at the norm-zero degree (the smallest feasible constant) and
    C1 is the least slope that covers the rest of the data.
    """
    if seq.max_norm < 1:
        raise ValueError("degree-growth fit needs at least 2 available indices")
    degrees = [(idx, seq.poly(idx).degree) for idx in seq.indices()]

    if seq.declared_C0 is not None or seq.declared_C1 is not None:
        c0 = float(seq.declared_C0 or 0.0)
        c1 = float(seq.declared_C1 or 0.0)
        for idx, deg in degrees:
            if deg > c0 + c1 * idx.norm:
                raise DegreeGrowthViolated(
                    f"deg P_{idx.entries} = {deg} exceeds declared "
                    f"{c0} + {c1} * {idx.norm}")
        return c0, c1

    c0 = 0.0
    for idx, deg in degrees:
        if idx.norm == 0 and deg > c0:
            c0 = float(deg)
    c1 = 0.0
    for idx, deg in degrees:
        if idx.norm >= 1 and deg != -math.inf:
            c1 = max(c1, (deg - c0) / idx.norm)
    return c0, c1


# ---------------------------------------------------------------------------
# Radius profile and stratification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusProfile:
    """Per-sample estimated radius of convergence in the series variable."""

    samples: tuple   # ((z2, R), ...); R may be math.inf


def radius_profile(seq: PolynomialSequence, samples, window: int) -> RadiusProfile:
    """Tail-window estimate R(z2) = 1 / max_tail |P_n(z2)|^{1/||n||}.

    The max runs over indices with max_norm - window < ||n|| <= max_norm
    (norm >= 1); vanishing values are skipped and an all-zero tail yields
    the +inf marker.
    """
    if window < 1 or window > seq.max_norm:
        raise WindowEmpty(f"tail window {window} not within 1..{seq.max_norm}")
    lo = max(1, seq.max_norm - window + 1)
    tail = list(seq.indices(lo, seq.max_norm))
    if not tail:
        raise WindowEmpty("no indices in the tail window")
    zs = np.asarray(list(samples), dtype=np.complex128)
    rate = np.zeros(len(zs))
    for idx in tail:
        vals = np.abs(seq.poly(idx)(zs))
        np.maximum(rate, np.where(vals > 0.0, vals ** (1.0 / idx.norm), 0.0), out=rate)
    out = tuple((complex(z), (1.0 / r) if r > 0.0 else math.inf)
                for z, r in zip(zs, rate))
    return RadiusProfile(samples=out)


def stratify_and_find_nonpolar(profile: RadiusProfile, i_max: int = 100,
                               eps_cap: float = EPS_CAP,
                               fekete_n: int = 128) -> tuple:
    """Smallest stratum index i whose cloud {R >= 1/i} is non-polar.

    Raises :class:`AllStrataPolar` when no stratum up to ``i_max`` clears
    the capacity threshold.
    """
    if not profile.samples:
        raise ValueError("radius profile is empty")
    for i in range(1, i_max + 1):
        pts = [z for z, r in profile.samples if r >= 1.0 / i]
        if len(pts) < MIN_POINTS:
            continue
        est = capacity_of_cloud(np.asarray(pts), n=fekete_n, eps_cap=eps_cap)
        if est.value > eps_cap:
            return i, PointCloud(tuple(pts))
    raise AllStrataPolar(f"no stratum up to i_max={i_max} has a non-polar cloud")


def uniform_bound_compact(seq: PolynomialSequence, stratum: PointCloud,
                          rho0: float, eps_cap: float = EPS_CAP,
                          fekete_n: int = 128) -> tuple:
    """Sub-cloud C with a uniform coefficient bound, via a doubling search.

    The score phi(z2) = max_n |P_n(z2)| rho0^{-||n||} is finite on the
    samples, so doubling the sublevel threshold terminates; the first level
    whose sublevel cloud is non-polar is kept.  Returns (C, rho1, M0, level)
    with |P_n(z2)| <= M0 * rho1^{||n||} on C for every available n, exactly
    as floating-point numbers (rho1 is nudged up by ulps when needed), and
    the doubling level 2^j that selected C.
    """
    if rho0 <= 0:
        raise ValueError("rho0 must be positive")
    pts = np.asarray(stratum.points, dtype=np.complex128)
    values = {}   # index -> |P_n| over the stratum cloud
    phi = np.zeros(len(pts))
    for idx in seq.indices():
        vals = np.abs(seq.poly(idx)(pts))
        values[idx.entries] = vals
        np.maximum(phi, vals * rho0 ** (-idx.norm), out=phi)

    chosen = None
    for exp2 in range(0, 65):
        level = float(2 ** exp2)
        mask = phi <= level
        if int(mask.sum()) < MIN_POINTS:
            continue
        est = capacity_of_cloud(pts[mask], n=fekete_n, eps_cap=eps_cap)
        if est.value > eps_cap:
            chosen = (level, mask)
            break
    if chosen is None:
        raise NoUniformStratum("no doubling level up to 2^64 gives a non-polar sublevel cloud")
    level, mask = chosen

    m0 = 1.0
    rho1 = 0.0
    for idx in seq.indices():
        vals = values[idx.entries][mask]
        if idx.norm == 0:
            m0 = max(m0, float(vals.max()))
        else:
            nz = vals[vals > 0.0]
            if len(nz):
                rho1 = max(rho1, float(np.max(nz ** (1.0 / idx.norm))))
    if rho1 == 0.0:
        rho1 = 1.0  # only the constant term constrains the bound

    # enforce |P_n| <= M0 * rho1^||n|| exactly despite pow rounding
    for idx in seq.indices(1):
        vals = values[idx.entries][mask]
        while np.any(vals > m0 * rho1 ** idx.norm):
            rho1 = math.nextafter(rho1, math.inf)

    cloud = PointCloud(tuple(complex(z) for z in pts[mask]))
    return cloud, rho1, m0, level


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class ExtensionCertificate:
    """Machine-checkable record of a certified convergence domain.

    The domain is |z1| < C2 / (1 + |z2|)^{exponent} with
    C2 = 1 / (rho1 * exp(exponent_slope * gammaC)); the per-point evaluator
    additionally enforces the sharper Green-function condition
    q = rho1 * exp(slope * g(z2)) * |z1| < 1.
    """

    rho0: float
    rho1: float
    M0: float
    C0: float
    C1: float
    gammaC: float
    C2: float
    exponent: float
    witness: CompactSet
    N_used: int
    thresholds: dict
    exponent_differs: bool = False   # flagged when exponent != 1 (domain shape
                                     # is then not the first-power reference form)
    _green: GreenEvaluator | None = field(default=None, repr=False, compare=False)

    def green(self) -> GreenEvaluator:
        if self._green is None:
            self._green = green_function(
                self.witness, method="auto",
                n=int(self.thresholds.get("fekete_n", 128)),
                candidates=int(self.thresholds.get("candidates", 4096)),
                eps_cap=float(self.thresholds.get("eps_cap", EPS_CAP)))
        return self._green

    @property
    def tail_slope(self) -> float:
        return float(self.thresholds["tail_slope"])

    @property
    def tail_start(self) -> int:
        return int(self.thresholds.get("tail_start", 0))

    def certified_radius(self, z2: complex) -> float:
        return self.C2 / (1.0 + abs(z2)) ** self.exponent


@dataclass(frozen=True)
class ExtendConfig:
    window: int | None = None        # tail window; defaults to max_norm // 2
    i_max: int = 100
    theta: float = 0.5               # rate margin: rho0 = stratum index / theta
    z2_max: float = 1e3
    eps_cap: float = EPS_CAP
    fekete_n: int = 128
    candidates: int = 4096
    gamma_radial: int = 48
    gamma_angular: int = 16
    sublinear_tol: float = 0.05

    def __post_init__(self):
        ints = ("i_max", "fekete_n", "candidates", "gamma_radial", "gamma_angular")
        for name in ints + (("window",) if self.window is not None else ()):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"config field {name!r} must be an integer, got {value!r}")
        if not (isinstance(self.theta, numbers.Real) and math.isfinite(self.theta)
                and self.theta > 0):
            raise ValueError(f"config field 'theta' must be finite and > 0, got {self.theta!r}")

    @classmethod
    def from_json(cls, doc: dict) -> "ExtendConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(doc) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        return cls(**doc)


def _gamma_c(green: GreenEvaluator, z2_max: float, n_radial: int, n_angular: int) -> float:
    """sup of g(z) - log(1 + |z|) over a radial-angular grid plus the limit.

    The limit as |z| -> inf equals the evaluator's Robin constant, so the
    supremum is covered whether it is attained at finite radius or at
    infinity.
    """
    radii = np.geomspace(1e-2, z2_max, n_radial)
    angles = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n_angular, endpoint=False))
    zs = np.concatenate([np.zeros(1, dtype=np.complex128),
                         (radii[:, None] * angles[None, :]).ravel()])
    vals = green(zs) - np.log1p(np.abs(zs))
    return float(max(vals.max(), green.robin_constant))


def _run_stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except HolocapError as err:
        raise err.with_stage(name)


def _certify(seq: PolynomialSequence, samples, cfg: ExtendConfig, c0: float, c1: float,
             exponent: float, tail_slope: float, tail_start: int, c2_of,
             **extra_thresholds) -> ExtensionCertificate:
    """Stages shared by both modes, after the degree-growth fit.

    ``c2_of(rho1, gammaC)`` is the mode's domain constant C2.
    """
    window = cfg.window if cfg.window is not None else max(1, seq.max_norm // 2)
    profile = _run_stage("radius_profile", radius_profile, seq, samples, window)
    i, stratum = _run_stage("stratify", stratify_and_find_nonpolar, profile,
                            cfg.i_max, cfg.eps_cap, cfg.fekete_n)
    # rho0 is a growth-rate bound: on the stratum the coefficient rates
    # |P_n|^{1/||n||} stay near or below i, so rho0 = i/theta (theta < 1 a
    # margin) keeps the sublevel score max_n |P_n| rho0^{-||n||} small and
    # the doubling search short.  A rate below i makes the score blow up
    # geometrically in max_norm and the search cannot terminate.
    rho0 = i / cfg.theta
    witness, rho1, m0, level = _run_stage("uniform_bound", uniform_bound_compact,
                                          seq, stratum, rho0, cfg.eps_cap, cfg.fekete_n)
    green = _run_stage("green", green_function, witness, "auto",
                       cfg.fekete_n, cfg.candidates, cfg.eps_cap)
    gamma_c = _gamma_c(green, cfg.z2_max, cfg.gamma_radial, cfg.gamma_angular)
    thresholds = {
        "eps_cap": cfg.eps_cap, "theta": cfg.theta, "window": window,
        "i_max": cfg.i_max, "z2_max": cfg.z2_max, "fekete_n": cfg.fekete_n,
        "candidates": cfg.candidates, "gamma_radial": cfg.gamma_radial,
        "gamma_angular": cfg.gamma_angular, "stratum_index": i,
        "uniform_level": level, "tail_slope": tail_slope, "tail_start": tail_start,
        **extra_thresholds,
    }
    cert = ExtensionCertificate(rho0=rho0, rho1=rho1, M0=m0, C0=c0, C1=c1,
                                gammaC=gamma_c, C2=c2_of(rho1, gamma_c), exponent=exponent,
                                witness=witness, N_used=seq.max_norm,
                                thresholds=thresholds,
                                exponent_differs=(exponent != 1.0))
    cert._green = green
    return cert


def certify_extension(seq: PolynomialSequence, K_samples,
                      config: ExtendConfig | None = None) -> ExtensionCertificate:
    """Full pipeline: fit growth, profile radii, stratify, bound, certify.

    The certified domain is |z1| < C2 / (1 + |z2|)^{C1}; on it the series is
    dominated termwise by M0 e^{C0 g(z2)} q^{||n||} with
    q = rho1 e^{C1 g(z2)} |z1| < 1.  Stage failures propagate with the stage
    name attached.
    """
    cfg = config or ExtendConfig()
    c0, c1 = _run_stage("fit_degree_growth", fit_degree_growth, seq)
    return _certify(seq, K_samples, cfg, c0, c1, exponent=c1, tail_slope=c1, tail_start=0,
                    c2_of=lambda rho1, gamma_c: 1.0 / (rho1 * math.exp(c1 * gamma_c)))


def certify_uniform(seq: PolynomialSequence, K_samples,
                    config: ExtendConfig | None = None) -> ExtensionCertificate:
    """Uniform-domain variant for sublinear degree growth.

    Tail slopes max (deg P_n - C0)/||n|| are examined over shrinking tail
    windows; the run must reach ``sublinear_tol`` (inclusive) or
    :class:`NotSublinear` is raised.  The certificate has exponent 0 and
    C2 = (1/rho1) * exp(-eps * gammaC) for the residual slope eps, so the
    domain |z1| < C2 does not depend on z2.
    """
    cfg = config or ExtendConfig()
    c0, c1 = _run_stage("fit_degree_growth", fit_degree_growth, seq)

    best_slope = math.inf
    best_start = 0
    for j in range(1, 7):
        start = seq.max_norm - max(1, seq.max_norm >> j)
        if start < 1:
            continue
        slope = 0.0
        for idx in seq.indices(start):
            deg = seq.poly(idx).degree
            if deg != -math.inf:
                slope = max(slope, (deg - c0) / idx.norm)
        if slope < best_slope:
            best_slope, best_start = slope, start
    if best_slope > cfg.sublinear_tol:
        raise NotSublinear(
            f"tail degree slope {best_slope:.4f} stays above tolerance "
            f"{cfg.sublinear_tol}").with_stage("sublinearity")

    eps = best_slope
    return _certify(seq, K_samples, cfg, c0, c1, exponent=0.0, tail_slope=eps,
                    tail_start=best_start,
                    c2_of=lambda rho1, gamma_c: (1.0 / rho1) * math.exp(-eps * gamma_c),
                    sublinear_tol=cfg.sublinear_tol)


def global_bound(cert: ExtensionCertificate, z2: complex, index,
                 green: GreenEvaluator | None = None) -> float:
    """Coefficient bound M0 rho1^{||n||} exp((C0 + C1||n||) g(z2)) anywhere."""
    norm = index.norm if isinstance(index, MultiIndex) else int(index)
    g = float((green or cert.green())(complex(z2)))
    return cert.M0 * cert.rho1 ** norm * math.exp((cert.C0 + cert.C1 * norm) * g)


# ---------------------------------------------------------------------------
# Evaluation with certified tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationResult:
    value: complex
    tail_bound: float
    terms_used: int


def _z1_norm(z1) -> float:
    if np.isscalar(z1) or isinstance(z1, complex):
        return abs(complex(z1))
    return max(abs(complex(c)) for c in z1)


def _z1_power(z1, idx: MultiIndex) -> complex:
    if np.isscalar(z1) or isinstance(z1, complex):
        return complex(z1) ** idx.entries[0]
    out = 1.0 + 0j
    for c, e in zip(z1, idx.entries):
        out *= complex(c) ** e
    return out


def evaluate(cert: ExtensionCertificate, seq: PolynomialSequence, z1, z2: complex,
             tol: float) -> EvaluationResult:
    """Partial sum with a certified geometric tail bound below ``tol``.

    The truncation norm N satisfies

        M0 e^{C0 g} * binom(N+k-1, k-1) * q^{N+1} c / (1 - c q) <= tol,
        c = (N + k) / (N + 1),

    which dominates the count of multi-indices per norm for k > 1 and
    reduces to the plain geometric tail q^{N+1}/(1-q) at k = 1.  Points with
    q >= 1 are outside the certified domain even if the series happens to
    converge there; an unreachable tolerance raises
    :class:`InsufficientData` carrying the bound achievable at max_norm.
    """
    z2 = complex(z2)
    if not (np.all(np.isfinite(np.asarray(z1, dtype=np.complex128))) and cmath.isfinite(z2)
            and math.isfinite(tol) and tol > 0):
        raise ValueError(f"z1, z2 and tol must be finite and tol positive, "
                         f"got {z1!r}, {z2!r}, {tol!r}")
    k = seq.k
    r1 = _z1_norm(z1)
    if r1 == 0.0:
        zero_idx = MultiIndex((0,) * k)
        return EvaluationResult(value=complex(seq.poly(zero_idx)(z2)),
                                tail_bound=0.0, terms_used=0)

    g = float(cert.green()(z2))
    q = cert.rho1 * math.exp(cert.tail_slope * g) * r1
    if q >= 1.0:
        raise OutsideCertifiedDomain(
            f"q = {q:.6g} >= 1 at z1 norm {r1:.6g}, z2 = {z2}")
    amp = cert.M0 * math.exp(cert.C0 * g)

    def tail_at(n: int) -> float:
        c = (n + k) / (n + 1)
        if c * q >= 1.0:
            return math.inf
        return amp * comb(n + k - 1, k - 1) * q ** (n + 1) * c / (1.0 - c * q)

    n_used = None
    for n in range(cert.tail_start, seq.max_norm + 1):
        if tail_at(n) <= tol:
            n_used = n
            break
    if n_used is None:
        raise InsufficientData(
            f"tolerance {tol:g} unreachable with indices up to {seq.max_norm}",
            achievable_tail_bound=tail_at(seq.max_norm))

    value = 0j
    for idx in seq.indices(0, n_used):
        value += complex(seq.poly(idx)(z2)) * _z1_power(z1, idx)
    return EvaluationResult(value=value, tail_bound=tail_at(n_used), terms_used=n_used)


# ---------------------------------------------------------------------------
# Ring structure
# ---------------------------------------------------------------------------

def ring_multiply(f: PolynomialSequence, g: PolynomialSequence,
                  n_max: int) -> PolynomialSequence:
    """Cauchy product up to norm n_max: (fg)_n = sum_{a+b=n} P_a Q_b.

    Degree growth of the product stays within C0_f + C0_g + max(C1_f, C1_g)
    * ||n|| on the computed range, which is the ring-closure property the
    tests exercise.
    """
    if f.k != g.k:
        raise ValueError(f"factor index lengths differ: {f.k} != {g.k}")
    if n_max > f.max_norm or n_max > g.max_norm:
        raise ValueError(
            f"need both factors past norm {n_max}; have {f.max_norm} and {g.max_norm}")
    P = np.polynomial.polynomial
    table = {}
    for idx in iter_indices(f.k, 0, n_max):
        acc = np.zeros(1, dtype=np.complex128)
        for a_entries in _below(idx.entries):
            a = MultiIndex(a_entries)
            b = MultiIndex(tuple(n - x for n, x in zip(idx.entries, a_entries)))
            pa = np.asarray(f.poly(a).coefficients, dtype=np.complex128)
            pb = np.asarray(g.poly(b).coefficients, dtype=np.complex128)
            acc = P.polyadd(acc, P.polymul(pa, pb))
        table[idx.entries] = Polynomial1D(tuple(acc))
    return table_sequence(table, max_norm=n_max, k=f.k)


def _below(entries: tuple):
    """All componentwise-smaller-or-equal tuples, lexicographic order."""
    if len(entries) == 1:
        for a in range(entries[0] + 1):
            yield (a,)
        return
    for a in range(entries[0] + 1):
        for rest in _below(entries[1:]):
            yield (a,) + rest


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def certificate_to_json(cert: ExtensionCertificate) -> dict:
    return {
        "rho0": cert.rho0, "rho1": cert.rho1, "M0": cert.M0,
        "C0": cert.C0, "C1": cert.C1, "gammaC": cert.gammaC, "C2": cert.C2,
        "exponent": cert.exponent, "N_used": cert.N_used,
        "witness": set_to_json(cert.witness),
        "thresholds": dict(cert.thresholds),
        "exponent_differs": cert.exponent_differs,
        "tool_version": __version__,
        "guarantee": ("termwise geometric domination: |P_n(z2) z1^n| <= "
                      "M0 exp(C0 g(z2)) q^{||n||}, q = rho1 exp(slope g(z2)) |z1|"),
    }


def certificate_from_json(doc: dict) -> ExtensionCertificate:
    return ExtensionCertificate(
        rho0=float(doc["rho0"]), rho1=float(doc["rho1"]), M0=float(doc["M0"]),
        C0=float(doc["C0"]), C1=float(doc["C1"]), gammaC=float(doc["gammaC"]),
        C2=float(doc["C2"]), exponent=float(doc["exponent"]),
        witness=set_from_json(doc["witness"]), N_used=int(doc["N_used"]),
        thresholds=dict(doc["thresholds"]),
        exponent_differs=bool(doc["exponent_differs"]))


def sequence_from_json(doc: dict) -> PolynomialSequence:
    """Builtin families and explicit tables; no code execution from input."""
    kind = doc.get("kind")
    max_norm = int(doc["max_norm"])
    k = int(doc.get("k", 1))
    if kind == "geometric":
        lam = complex(doc["lambda"][0], doc["lambda"][1])
        return geometric_sequence(lam, max_norm, k)
    if kind == "constant":
        val = complex(doc["value"][0], doc["value"][1])
        return constant_sequence(val, max_norm, k)
    if kind == "sqrt_degree":
        return sqrt_degree_sequence(max_norm, k)
    if kind == "table":
        entries = {}
        for item in doc["entries"]:
            key = tuple(int(e) for e in item["index"])
            coeffs = tuple(complex(c[0], c[1]) for c in item["coefficients"])
            entries[key] = Polynomial1D(coeffs)
        return table_sequence(entries, max_norm, k,
                              declared_C0=doc.get("declared_C0"),
                              declared_C1=doc.get("declared_C1"))
    raise ValueError(f"unknown sequence kind: {kind!r}")
