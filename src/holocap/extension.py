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
import itertools
import math
import numbers
from dataclasses import dataclass, field
from math import comb, isqrt

import numpy as np

from . import __version__, schema
from .bernstein import Polynomial1D
from .capacity import (CANDIDATES, EPS_CAP, FEKETE_N, GreenEvaluator, _closed_form_capacity,
                       capacity_of_cloud, fekete_green, green_from_prefix, green_function)
from .errors import (
    AllStrataPolar,
    DegreeGrowthViolated,
    FloatOverflow,
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

_INDEX_FIELDS = (("k", "int>=1", 1), ("max_norm", "int>=0"))


def _index_rows(k: int, max_norm: int) -> np.ndarray:
    """Every multi-index of length k and norm <= max_norm, one row each, by norm then lex."""
    schema.read({"k": k, "max_norm": max_norm}, _INDEX_FIELDS, "sequence field")
    rows = np.zeros((1, 0), dtype=np.int64)
    for _ in range(k):   # extend each row by every admissible last entry, keeping lex order
        reps = max_norm + 1 - rows.sum(axis=1)
        last = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), last])
    return rows[np.argsort(rows.sum(axis=1), kind="stable")]


def _row(index, k: int, what: str = "index") -> int:
    """Row of a multi-index in the enumeration of :func:`_index_rows`; ValueError naming
    ``index`` unless it is k nonnegative integers."""
    if len(index) != k or any(isinstance(e, bool) or not isinstance(e, numbers.Integral)
                              or e < 0 for e in index):
        raise ValueError(f"{what} {schema.shown(index)} must have length {k} and "
                         "nonnegative integer entries")
    entries = tuple(map(int, index))
    rest = sum(entries)
    row = comb(rest + k - 1, k)   # the indices of smaller norm
    for i, e in enumerate(entries[:-1]):
        parts = k - 1 - i         # compositions of rest with a smaller entry at i
        row += comb(rest + parts, parts) - comb(rest - e + parts, parts)
        rest -= e
    return row


_CHUNK_CELLS = 1 << 15   # (norm, block) pairs x points norm_peaks evaluates at once (512 KB)


class PolynomialSequence:
    """Coefficient family of a power series: every index up to a norm cutoff.

    Row r is the index ``entries[r]`` of norm ``norms[r]``, in
    :func:`_index_rows` order, and the rows of norm j are
    ``starts[j]:starts[j + 1]``.  Its polynomial, of degree ``degrees[r]``
    (-inf for zero), is coefficient block ``blocks[r]``; equal rows may share
    a block.  Block b holds the ``counts[b]`` >= 1 coefficients
    ``coeffs[offsets[b]:offsets[b] + counts[b]]``, ascending.  Declared growth
    constants, when present, are validated by :func:`fit_degree_growth`
    against every degree.
    """

    def __init__(self, entries: np.ndarray, blocks: np.ndarray, counts: np.ndarray,
                 coeffs: np.ndarray, declared_C0: float | None = None,
                 declared_C1: float | None = None):
        self.entries = entries
        self.blocks = blocks
        self.counts = counts
        self.coeffs = coeffs
        self.declared_C0 = declared_C0
        self.declared_C1 = declared_C1
        self.norms = entries.sum(axis=1)
        self.offsets = np.cumsum(counts) - counts
        self.starts = np.searchsorted(self.norms, np.arange(self.norms[-1] + 2))
        place = np.arange(len(coeffs)) - np.repeat(self.offsets, counts)
        self.degrees = np.maximum.reduceat(np.where(coeffs != 0, place, -math.inf),
                                           self.offsets)[blocks]
        below = coeffs != 0   # positions where some block has a nonzero below its lead
        below[self.offsets + counts - 1] = False
        self._adds = np.bincount(place[below], minlength=counts.max()) > 0
        self.max_norm = len(self.starts) - 2
        self.k = entries.shape[1]

    def _block(self, row: int) -> np.ndarray:   # row's coefficients, ascending
        b = self.blocks[row]
        return self.coeffs[self.offsets[b]:self.offsets[b] + self.counts[b]]

    def poly(self, index: tuple) -> Polynomial1D:
        """P_n for the tuple ``index`` of k nonnegative integers, of norm at most max_norm."""
        row = _row(index, self.k)
        if row >= len(self.blocks):
            raise ValueError(f"index norm {sum(index)} beyond available {self.max_norm}")
        return Polynomial1D(tuple(self._block(row).tolist()))

    def _horner(self, zs: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """The polynomials of ``blocks`` (block indices, in their order) at every point of zs.

        Each block runs Horner's rule in the operation order of
        ``Polynomial1D.__call__`` (numpy's polyval), leaving out only the
        operations that change no value: a block joins at its leading
        coefficient by assignment, and a step adds coefficients only where
        some block has a nonzero one below its lead.  Since x + (+-0) is x
        but for -0.0 + 0.0 = +0.0, every value equals polyval's up to the
        sign of an exactly-zero real or imaginary part, and every |value| is
        bit-identical.  Blocks are sorted by coefficient count.
        """
        order = np.argsort(-self.counts[blocks], kind="stable")
        counts, offsets = self.counts[blocks][order], self.offsets[blocks][order]
        joined = np.searchsorted(-counts, -np.arange(counts[0] + 1))  # blocks with count > i
        # numpy rounds a complex product differently in its loops for a
        # broadcast operand and for an in-place one-element product, so each
        # product takes two same-shape operands and a separate output, as
        # in polyval: the running rows alternate between two buffers
        grid = np.tile(zs, (len(counts), 1))
        acc, prod = np.empty_like(grid), np.empty_like(grid)
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow is a value, inf or NaN
            for i in range(counts[0] - 1, -1, -1):
                m, new = joined[i + 1], joined[i]
                if m:
                    np.multiply(acc[:m], grid[:m], out=prod[:m])
                    if self._adds[i]:
                        np.add(prod[:m], self.coeffs[offsets[:m] + i][:, None], out=prod[:m])
                    acc, prod = prod, acc
                acc[m:new] = self.coeffs[offsets[m:new] + i][:, None]
        out = np.empty_like(acc)
        out[order] = acc
        return out

    def norm_peaks(self, zs, lo: int, hi: int) -> np.ndarray:
        """Array whose entry (j - lo, z) is max over ||n|| = j of |P_n(z)|, lo <= j <= hi.

        The distinct (norm, block) pairs of those rows are evaluated in
        chunks of about ``_CHUNK_CELLS`` values, each reduced to per-norm
        peaks before the next; a chunk evaluates each of its blocks once.
        NaN values propagate into their norm's peak.
        """
        zs = np.asarray(zs, dtype=np.complex128)
        peaks = np.full((hi - lo + 1, len(zs)), -np.inf)
        rows = slice(self.starts[lo], self.starts[hi + 1])
        width = len(self.counts)
        norms, blocks = np.divmod(np.unique(self.norms[rows] * width + self.blocks[rows]), width)
        step = max(1, _CHUNK_CELLS // max(1, len(zs)))
        for a in range(0, len(norms), step):
            chunk = norms[a:a + step]
            distinct, inverse = np.unique(blocks[a:a + step], return_inverse=True)
            vals = np.abs(self._horner(zs, distinct))[inverse]
            segments = np.flatnonzero(np.r_[True, chunk[1:] != chunk[:-1]])
            dest = peaks[chunk[0] - lo:chunk[-1] - lo + 1]
            np.maximum(dest, np.maximum.reduceat(vals, segments, axis=0), out=dest)
        return peaks


def _family(k: int, max_norm: int, count, lead) -> PolynomialSequence:
    """Each index of norm j is block j: count(j) coefficients, zeros, then lead(j)."""
    entries = _index_rows(k, max_norm)
    counts = np.array([count(j) for j in range(max_norm + 1)], dtype=np.int64)
    coeffs = np.zeros(counts.sum(), dtype=np.complex128)
    coeffs[np.cumsum(counts) - 1] = np.array([lead(j) for j in range(max_norm + 1)],
                                             dtype=np.complex128)
    return PolynomialSequence(entries, entries.sum(axis=1), counts, coeffs)


def geometric_sequence(lam: complex, max_norm: int, k: int = 1) -> PolynomialSequence:
    """P_n(z) = (lam * z)^{||n||}; ValueError names the first norm whose lam^j overflows."""
    lam = complex(lam)

    def power(j: int) -> complex:
        try:
            return lam ** j
        except OverflowError:
            raise ValueError(f"sequence field 'lambda': {lam!r} ** {j} overflows") from None
    return _family(k, max_norm, lambda j: j + 1, power)


def constant_sequence(value: complex, max_norm: int, k: int = 1) -> PolynomialSequence:
    """P_n = value for every index."""
    return _family(k, max_norm, lambda j: 1, lambda j: complex(value))


def sqrt_degree_sequence(max_norm: int, k: int = 1) -> PolynomialSequence:
    """P_n(z) = z^{isqrt(||n||)}; degrees grow like the square root of the norm."""
    return _family(k, max_norm, lambda j: isqrt(j) + 1, lambda j: 1)


def _table(items, max_norm: int, k: int, declared_C0: float | None = None,
           declared_C1: float | None = None) -> PolynomialSequence:
    """Sequence of (index, coefficient tuple) pairs, as in :func:`table_sequence`."""
    entries = _index_rows(k, max_norm)
    polys = [(0j,)] * len(entries)
    seen = set()
    for index, coefficients in items:
        r = _row(index, k, "table index")
        if r in seen:
            raise ValueError(f"table index {schema.shown(index)} is repeated")
        seen.add(r)
        if r < len(polys):   # norm <= max_norm
            polys[r] = coefficients or (0j,)
    data = np.array([c for cs in polys for c in cs], dtype=np.complex128).tobytes()
    ends, firsts = list(itertools.accumulate(16 * len(c) for c in polys)), {}
    # rows with equal coefficient bytes (so -0.0 != 0.0) share a block, in first-seen order
    blocks = np.array([firsts.setdefault(data[a:e], len(firsts))
                       for a, e in zip([0] + ends, ends)], dtype=np.int64)
    counts = np.array([len(b) // 16 for b in firsts], dtype=np.int64)
    coeffs = np.frombuffer(b"".join(firsts), np.complex128)
    return PolynomialSequence(entries, blocks, counts, coeffs, declared_C0, declared_C1)


def table_sequence(entries: dict, max_norm: int, k: int = 1,
                   declared_C0: float | None = None,
                   declared_C1: float | None = None) -> PolynomialSequence:
    """Sequence backed by an explicit {entries tuple: Polynomial1D} table.

    Every index must be k nonnegative integers, or ValueError names it.
    Missing indices are the zero polynomial; indices of norm above max_norm
    are ignored.
    """
    return _table(((key, p.coefficients) for key, p in entries.items()), max_norm, k,
                  declared_C0, declared_C1)


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
        raise ValueError(f"degree-growth fit needs 'max_norm' >= 1, got {seq.max_norm}")

    if seq.declared_C0 is not None or seq.declared_C1 is not None:
        c0 = float(seq.declared_C0 or 0.0)
        c1 = float(seq.declared_C1 or 0.0)
        if c0 < 0.0 or c1 < 0.0:   # a certificate's C0 and C1 are >= 0
            raise ValueError(f"declared_C0 and declared_C1 must be >= 0, got {c0} and {c1}")
        violated = np.flatnonzero(seq.degrees > c0 + c1 * seq.norms)
        if len(violated):
            r = violated[0]
            raise DegreeGrowthViolated(
                f"deg P_{tuple(seq.entries[r].tolist())} = {int(seq.degrees[r])} "
                f"exceeds declared {c0} + {c1} * {int(seq.norms[r])}")
        return c0, c1

    c0 = max(0.0, float(seq.degrees[0]))   # row 0 is the norm-zero index
    return c0, _degree_slope(seq, c0)


def _degree_slope(seq: PolynomialSequence, c0: float, start: int = 1) -> float:
    """Least slope >= 0 with deg <= c0 + slope * ||n|| over non-zero rows of norm >= start."""
    rows = slice(seq.starts[start], None)
    degrees, norms = seq.degrees[rows], seq.norms[rows]
    nonzero = degrees != -math.inf
    return float(np.max((degrees[nonzero] - c0) / norms[nonzero], initial=0.0))


# ---------------------------------------------------------------------------
# Radius profile and stratification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadiusProfile:
    """Per-sample estimated radius of convergence in the series variable."""

    samples: tuple   # ((z2, R), ...); R may be math.inf
    peaks: np.ndarray | None = field(default=None, repr=False, compare=False)   # window rows


def _column_max(rows: np.ndarray, lo: int, terms) -> np.ndarray:
    """Per column, the max of 0 and every ``terms(block, norms)`` value, where the rows
    are norms lo, lo + 1, ... taken in blocks of about ``_CHUNK_CELLS`` values."""
    out = np.zeros(rows.shape[1])
    step = max(1, _CHUNK_CELLS // max(1, rows.shape[1]))
    for a in range(0, len(rows), step):
        block = rows[a:a + step]
        np.maximum(out, terms(block, np.arange(lo + a, lo + a + len(block))).max(axis=0), out=out)
    return out


def _roots(rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """rows ** (1 / norms) where positive, inf where NaN (a value beyond the float range),
    else 0, each root rounded as a per-norm ``row ** (1 / j)``: numpy's stride-0 power
    loop, and at norm 2 its sqrt for ``** 0.5``."""
    roots = rows ** (1.0 / norms)[:, None]
    roots[norms == 2] = rows[norms == 2] ** 0.5
    return np.where(rows > 0.0, roots, np.where(np.isnan(rows), np.inf, 0.0))


def radius_profile(seq: PolynomialSequence, samples, window: int) -> RadiusProfile:
    """Tail-window estimate R(z2) = 1 / max_tail |P_n(z2)|^{1/||n||}.

    The max runs over indices with max_norm - window < ||n|| <= max_norm
    (norm >= 1); vanishing values are skipped, an all-zero tail yields
    the +inf marker and a NaN value (an overflow) yields R = 0.  The profile
    keeps those norms' ``norm_peaks`` rows.
    """
    if window < 1 or window > seq.max_norm:
        raise WindowEmpty(f"tail window {window} not within 1..{seq.max_norm}")
    lo = max(1, seq.max_norm - window + 1)
    zs = np.asarray(list(samples), dtype=np.complex128)
    peaks = seq.norm_peaks(zs, lo, seq.max_norm)
    rate = _column_max(peaks, lo, _roots)
    out = tuple((complex(z), (1.0 / r) if r > 0.0 else math.inf) for z, r in zip(zs, rate))
    return RadiusProfile(samples=out, peaks=peaks)


def _first_nonpolar(clouds, eps_cap: float) -> tuple | None:
    """First (key, points, estimate) of ``clouds``, nested (key, points, own estimate
    or None) triples, with capacity above ``eps_cap``, or None.  A cloud no larger than
    the one before is that one: it is not solved again."""
    last = 0
    for key, pts, est in clouds:
        if len(pts) > last:
            est = est if est is not None else capacity_of_cloud(pts, n=FEKETE_N, eps_cap=eps_cap)
            if not est.polar:
                return key, pts, est
        last = len(pts)
    return None


def stratify_and_find_nonpolar(profile: RadiusProfile, i_max: int = 100,
                               eps_cap: float = EPS_CAP) -> tuple:
    """Smallest stratum index i whose cloud {R >= 1/i} is non-polar.

    Returns (i, stratum, estimate), the estimate being the stratum's
    capacity.  Raises :class:`AllStrataPolar` when no stratum up to
    ``i_max`` clears the capacity threshold.
    """
    if not profile.samples:
        raise ValueError("radius profile is empty")
    strata = ((i, [z for z, r in profile.samples if r >= 1.0 / i], None)
              for i in range(1, i_max + 1))
    found = _first_nonpolar(strata, eps_cap)
    if found is None:
        raise AllStrataPolar(f"no stratum up to i_max={i_max} has a non-polar cloud")
    i, pts, est = found
    return i, PointCloud(tuple(pts)), est


def uniform_bound_compact(seq: PolynomialSequence, stratum: PointCloud, rho0: float,
                          eps_cap: float = EPS_CAP, stratum_est=None, window_peaks=None) -> tuple:
    """Sub-cloud C with a uniform coefficient bound, via a doubling search.

    The score phi(z2) = max_n |P_n(z2)| rho0^{-||n||} is finite on the
    samples, so doubling the sublevel threshold terminates; the first level
    whose sublevel cloud is non-polar is kept.  Returns (C, rho1, M0, level,
    estimate) with |P_n(z2)| <= M0 * rho1^{||n||} on C for every available
    n, exactly as floating-point numbers (rho1 is nudged up by ulps when
    needed), the doubling level 2^j that selected C and C's capacity
    estimate.  A level that keeps the whole stratum takes ``stratum_est``,
    the stratum's estimate, if given, in place of a second solve; the top
    norms' rows are read from ``window_peaks``, the profile's on the stratum.
    """
    if rho0 <= 0:
        raise ValueError("rho0 must be positive")
    if not math.isfinite(rho0):
        raise NoUniformStratum(f"rho0 = {rho0!r} is not finite")
    pts = np.asarray(stratum.points, dtype=np.complex128)
    top = np.empty((0, len(pts))) if window_peaks is None else window_peaks
    peaks = np.concatenate([seq.norm_peaks(pts, 0, seq.max_norm - len(top)), top])
    try:
        scale = np.array([rho0 ** (-j) for j in range(len(peaks))])[:, None]   # row j: norm j
    except OverflowError:
        raise NoUniformStratum(f"rho0 = {rho0!r}: rho0 ** -{seq.max_norm} overflows") from None
    phi = _column_max(peaks, 0, lambda rows, norms: rows * scale[norms])

    masks = ((level, phi <= level) for level in (2.0 ** exp2 for exp2 in range(0, 65)))
    found = _first_nonpolar((((level, mask), pts[mask], stratum_est if mask.all() else None)
                             for level, mask in masks), eps_cap)
    if found is None:
        raise NoUniformStratum("no doubling level up to 2^64 gives a non-polar sublevel cloud")
    (level, mask), _, est = found

    kept = peaks[:, mask]
    m0 = max(1.0, float(kept[0].max()))
    rho1 = float(_column_max(kept[1:], 1, _roots).max(initial=0.0)) or 1.0   # 1: only M0 binds

    # enforce |P_n| <= M0 * rho1^||n|| exactly despite pow rounding; fmax skips NaN, as > does
    for j, peak in enumerate(np.fmax.reduce(kept[1:], axis=1).tolist(), 1):
        while peak > m0 * rho1 ** j:
            rho1 = math.nextafter(rho1, math.inf)

    cloud = PointCloud(tuple(complex(z) for z in pts[mask]))
    return cloud, rho1, m0, level, est


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class ExtensionCertificate:
    """Machine-checkable record of a certified convergence domain.

    The domain is |z1| < C2 / (1 + |z2|)^{exponent} with
    C2 = exp(-tail_slope * gammaC) / rho1; the per-point evaluator
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
    _green: GreenEvaluator | None = field(default=None, repr=False, compare=False)

    def green(self) -> GreenEvaluator:
        """The carried evaluator (a cloud's, from extend or its JSON) or a closed form's."""
        if self._green is None:
            if _closed_form_capacity(self.witness) is None:
                raise ValueError("certificate witness carries no Green evaluator: a cloud's "
                                 "comes from extend or from its certificate JSON")
            self._green = green_function(self.witness)
        return self._green

    @property
    def exponent_differs(self) -> bool:   # the domain is not of the first-power reference form
        return self.exponent != 1.0

    @property
    def tail_slope(self) -> float:
        return float(self.thresholds["tail_slope"])

    @property
    def tail_start(self) -> int:
        return int(self.thresholds.get("tail_start", 0))

    def certified_radius(self, z2: complex) -> float:
        try:
            return self.C2 / (1.0 + abs(z2)) ** self.exponent
        except OverflowError:
            return 0.0   # the true radius is below C2 / 1.8e308


_CONFIG_FIELDS = (("window", "int>=1", None), ("i_max", "int>=1"), ("theta", ">0"),
                  ("z2_max", ">0"), ("eps_cap", ">0"), ("sublinear_tol", ">=0"))


@dataclass(frozen=True)
class ExtendConfig:
    """The hypotheses a certificate is conditional on; the resolution it records is fixed."""

    window: int | None = None        # tail window; defaults to max_norm // 2
    i_max: int = 100
    theta: float = 0.5               # rate margin: rho0 = stratum index / theta
    z2_max: float = 1e3
    eps_cap: float = EPS_CAP
    sublinear_tol: float = 0.05

    def __post_init__(self):
        schema.read(vars(self), _CONFIG_FIELDS, "config field")

    @classmethod
    def from_json(cls, doc: dict) -> "ExtendConfig":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(doc) - known
        if bad:
            raise ValueError(f"unknown config keys: {schema.shown(sorted(bad))}")
        return cls(**doc)


GAMMA_RADIAL = 48
GAMMA_ANGULAR = 16


def _gamma_c(green: GreenEvaluator, z2_max: float) -> float:
    """sup of g(z) - log(1 + |z|) over a radial-angular grid plus the limit.

    The limit as |z| -> inf equals the evaluator's Robin constant, so the
    supremum is covered whether it is attained at finite radius or at
    infinity.
    """
    radii = np.geomspace(1e-2, z2_max, GAMMA_RADIAL)
    angles = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, GAMMA_ANGULAR, endpoint=False))
    zs = np.concatenate([np.zeros(1, dtype=np.complex128),
                         (radii[:, None] * angles[None, :]).ravel()])
    vals = green(zs) - np.log1p(np.abs(zs))
    return float(max(vals.max(), green.robin_constant))


def _run_stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except HolocapError as err:
        raise err.with_stage(name)


def _exp(x: float) -> float:
    """math.exp(x), or inf beyond the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _domain_c2(rho1: float, gamma_c: float, tail_slope: float, exponent: float) -> float:
    """The domain constant C2 = exp(-tail_slope * gammaC) / rho1, rounded as each mode
    computes it: uniform mode has exponent 0, extension mode exponent C1 = tail_slope.
    It is 0 where exp(tail_slope * gammaC) is beyond the float range."""
    if exponent == 0.0:
        return (1.0 / rho1) * math.exp(-tail_slope * gamma_c)
    return 1.0 / (rho1 * _exp(tail_slope * gamma_c))


def _certify(seq: PolynomialSequence, samples, cfg: ExtendConfig, c0: float, c1: float,
             exponent: float, tail_slope: float, tail_start: int,
             **extra_thresholds) -> ExtensionCertificate:
    """Stages shared by both modes, after the degree-growth fit."""
    window = cfg.window if cfg.window is not None else max(1, seq.max_norm // 2)
    profile = _run_stage("radius_profile", radius_profile, seq, samples, window)
    i, stratum, est = _run_stage("stratify", stratify_and_find_nonpolar, profile, cfg.i_max,
                                 cfg.eps_cap)
    # rho0 is a growth-rate bound: on the stratum the coefficient rates
    # |P_n|^{1/||n||} stay near or below i, so rho0 = i/theta (theta < 1 a
    # margin) keeps the sublevel score max_n |P_n| rho0^{-||n||} small and
    # the doubling search short.  A rate below i makes the score blow up
    # geometrically in max_norm and the search cannot terminate.
    rho0 = i / cfg.theta
    cols = [r >= 1.0 / i for _, r in profile.samples]   # the stratum's samples
    witness, rho1, m0, level, est = _run_stage("uniform_bound", uniform_bound_compact, seq,
                                               stratum, rho0, cfg.eps_cap, stratum_est=est,
                                               window_peaks=profile.peaks[:, cols])
    thresholds = {
        "eps_cap": cfg.eps_cap, "theta": cfg.theta, "window": window,
        "i_max": cfg.i_max, "z2_max": cfg.z2_max, "fekete_n": FEKETE_N,
        "candidates": CANDIDATES, "gamma_radial": GAMMA_RADIAL,
        "gamma_angular": GAMMA_ANGULAR, "stratum_index": i,
        "uniform_level": level, "tail_slope": tail_slope, "tail_start": tail_start,
        **extra_thresholds,
    }
    green = _run_stage("green", fekete_green, witness, est, CANDIDATES, cfg.eps_cap)
    gamma_c = _gamma_c(green, cfg.z2_max)
    return ExtensionCertificate(rho0=rho0, rho1=rho1, M0=m0, C0=c0, C1=c1, gammaC=gamma_c,
                                C2=_domain_c2(rho1, gamma_c, tail_slope, exponent),
                                exponent=exponent, witness=_potential_first(witness, green),
                                N_used=seq.max_norm, thresholds=thresholds, _green=green)


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
    return _certify(seq, K_samples, cfg, c0, c1, exponent=c1, tail_slope=c1, tail_start=0)


def _tail_slope(seq: PolynomialSequence, c0: float) -> tuple:
    """(slope, start): the least degree slope over the tail windows ||n|| >= start."""
    best_slope, best_start = math.inf, 0
    for j in range(1, 7):
        start = seq.max_norm - max(1, seq.max_norm >> j)
        if start < 1:
            continue
        slope = _degree_slope(seq, c0, start)
        if slope < best_slope:
            best_slope, best_start = slope, start
    return best_slope, best_start


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

    eps, start = _tail_slope(seq, c0)
    if eps > cfg.sublinear_tol:
        raise NotSublinear(
            f"tail degree slope {eps:.4f} stays above tolerance "
            f"{cfg.sublinear_tol}").with_stage("sublinearity")

    return _certify(seq, K_samples, cfg, c0, c1, exponent=0.0, tail_slope=eps,
                    tail_start=start, sublinear_tol=cfg.sublinear_tol)


# ---------------------------------------------------------------------------
# Evaluation with certified tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationResult:
    value: complex
    tail_bound: float
    terms_used: int


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
    At z1 = 0 the sum is P_0(z2), bound 0.  A sum or a power of z1 beyond the
    float range raises :class:`FloatOverflow` at stage "evaluate".
    ``z1`` is a number when k = 1 and k numbers otherwise.
    """
    k = seq.k
    coords = tuple(complex(c) for c in ((z1,) if np.ndim(z1) == 0 else z1))
    if len(coords) != k:
        raise ValueError(f"z1 needs k = {k} coordinates, got {len(coords)}")
    z2 = complex(z2)
    if not (all(map(cmath.isfinite, coords)) and cmath.isfinite(z2)
            and math.isfinite(tol) and tol > 0):
        raise ValueError(f"z1, z2 and tol must be finite and tol positive, "
                         f"got {z1!r}, {z2!r}, {tol!r}")
    r1 = max(map(abs, coords))
    n_used, tail = 0, 0.0   # at z1 = 0 the sum is P_0(z2)
    if r1 > 0.0:
        g = float(cert.green()(z2))
        q = cert.rho1 * _exp(cert.tail_slope * g) * r1   # inf, so refused, beyond the float range
        if q >= 1.0:
            raise OutsideCertifiedDomain(
                f"q = {q:.6g} >= 1 at z1 norm {r1:.6g}, z2 = {z2}")
        amp = cert.M0 * _exp(cert.C0 * g) if cert.M0 else 0.0   # not 0 * inf = NaN

        def tail_at(n: int) -> float:
            c = (n + k) / (n + 1)
            if c * q >= 1.0 or amp == math.inf:   # not inf * 0 = NaN where q ** (n + 1) underflows
                return math.inf
            return amp * comb(n + k - 1, k - 1) * q ** (n + 1) * c / (1.0 - c * q)

        for n_used in range(cert.tail_start, seq.max_norm + 1):
            tail = tail_at(n_used)
            if tail <= tol:   # the least N >= tail_start within tol
                break
        else:
            raise InsufficientData(
                f"tolerance {tol:g} unreachable with indices up to {seq.max_norm}",
                achievable_tail_bound=tail_at(seq.max_norm))
        assert math.isfinite(tail) and tail >= 0.0, f"tail bound {tail!r}"

    stop = seq.starts[n_used + 1]
    value = 0j   # summed from 0j: no zero's sign (-0.0) is published
    try:
        for term, entries in zip(seq._horner(np.array([z2]), seq.blocks[:stop])[:, 0].tolist(),
                                 seq.entries[:stop].tolist()):
            value += term * math.prod(c ** e for c, e in zip(coords, entries))
    except OverflowError:   # complex ** beyond the float range
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise FloatOverflow(f"the partial sum to norm {n_used} at z2 = {z2} is beyond "
                            "the float range").with_stage("evaluate")
    return EvaluationResult(value=value, tail_bound=tail, terms_used=n_used)


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
    items = []
    for n in f.entries[f.norms <= n_max].tolist():
        acc = np.zeros(1, dtype=np.complex128)
        # every componentwise-smaller-or-equal a, in lexicographic order
        for a in itertools.product(*(range(e + 1) for e in n)):
            b = [x - y for x, y in zip(n, a)]
            acc = P.polyadd(acc, P.polymul(f._block(_row(a, f.k)), g._block(_row(b, f.k))))
        items.append((n, tuple(acc.tolist())))
    return _table(items, n_max, f.k)


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def _potential_first(witness: PointCloud, green: GreenEvaluator) -> PointCloud:
    """The cloud witness with the first occurrence of each of its Green potential's points
    moved to the front, in the potential's order, the other points following in their
    order: the same multiset."""
    pts = np.asarray(witness.points, dtype=np.complex128)
    distinct, first = np.unique(pts, return_index=True)
    head = first[np.searchsorted(distinct, green.points)]
    return PointCloud(tuple(np.concatenate([pts[head], np.delete(pts, head)]).tolist()))


def certificate_to_json(cert: ExtensionCertificate) -> dict:
    """The certificate as JSON.  A cloud witness, potential first as extend leaves it, goes
    with its evaluator's ``clamp_magnitude``: :func:`certificate_from_json` needs no solve."""
    green = cert.green()
    doc = {
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
    if green.backing == "fekete_potential":
        doc["clamp_magnitude"] = green.clamp_magnitude
    return doc


# the certificate's fields, and its thresholds' fields evaluate reads; the signs are
# those the pipeline produces, and every certificate constant is finite
_CONSTANTS = (("rho0", "finite"), ("rho1", ">0"), ("M0", ">=0"), ("C0", ">=0"), ("C1", ">=0"),
              ("gammaC", ">=0"), ("C2", "finite"), ("exponent", "finite"))
_CERTIFICATE_FIELDS = _CONSTANTS + (("thresholds", "object"), ("witness", "object"),
                                    ("N_used", "int>=0"), ("exponent_differs", "bool"))
_THRESHOLD_FIELDS = (("tail_slope", ">=0"), ("tail_start", "int>=0", 0),
                     ("fekete_n", "int>=1", FEKETE_N), ("candidates", "int>=1", CANDIDATES),
                     ("eps_cap", ">0", EPS_CAP))


def certificate_from_json(doc: dict) -> ExtensionCertificate:
    """Certificate from :func:`certificate_to_json` output, every field checked.

    A witness without a closed-form Green function (not a disk, a segment or a
    union of collinear segments) must be a cloud with ``clamp_magnitude``: its
    evaluator is rebuilt by :func:`green_from_prefix` and no Fekete solve runs.  A
    missing, wrong-typed or inconsistent field raises ``ValueError`` naming it, and
    so does the ``green_points`` of a certificate whose witness is in sample order.
    """
    got = schema.read(schema.check(doc, "object", "certificate"), _CERTIFICATE_FIELDS,
                      "certificate field")
    thresholds = dict(got.pop("thresholds"))   # a null threshold takes its default
    thresholds.update(schema.read(thresholds, _THRESHOLD_FIELDS, "certificate threshold"))
    floats = {name: float(got.pop(name)) for name, _ in _CONSTANTS}
    if floats["exponent"] not in (floats["C1"], 0.0):
        raise ValueError(f"certificate field 'exponent' must be C1 ({floats['C1']!r}) or 0, "
                         f"got {floats['exponent']!r}")
    c2 = _domain_c2(floats["rho1"], floats["gammaC"], float(thresholds["tail_slope"]),
                    floats["exponent"])
    if not abs(floats["C2"] - c2) <= 1e-12 * c2:
        raise ValueError(f"certificate field 'C2' must be exp(-tail_slope * gammaC) / rho1 = "
                         f"{c2!r} to 1e-12 relative, got {floats['C2']!r}")
    if got["exponent_differs"] != (floats["exponent"] != 1.0):
        raise ValueError(f"certificate field 'exponent_differs' must be exponent != 1, "
                         f"got {got['exponent_differs']!r} for exponent {floats['exponent']!r}")
    witness = set_from_json(got.pop("witness"), "certificate field 'witness'")
    cert = ExtensionCertificate(**floats, N_used=got["N_used"], witness=witness,
                                thresholds=thresholds)
    if _closed_form_capacity(witness) is not None:   # analytic Green backing, nothing stored
        return cert
    if not isinstance(witness, PointCloud):
        raise ValueError("certificate field 'witness' must be a cloud or a set with a "
                         "closed-form Green function: a disk, a segment or collinear segments")
    if "green_points" in doc:
        raise ValueError("certificate field 'green_points': the certificate comes from an "
                         "earlier holocap, whose witness is in sample order; run extend again")
    clamp = float(schema.field(doc, "clamp_magnitude", ">=0", "certificate field"))
    try:
        cert._green = green_from_prefix(witness, clamp, thresholds["fekete_n"],
                                        thresholds["eps_cap"])
    except ValueError as err:
        raise ValueError(f"certificate field 'witness': {err}") from None
    return cert


# each kind's fields besides _INDEX_FIELDS, and a table entry's; a key not listed is ignored
_SEQUENCES = {"geometric": (("lambda", "pair"),), "constant": (("value", "pair"),),
              "sqrt_degree": (), "table": (("entries", "list"), ("declared_C0", ">=0", None),
                                           ("declared_C1", ">=0", None))}
_ENTRY_FIELDS = (("index", "list"), ("coefficients", "list"))


def sequence_from_json(doc: dict) -> PolynomialSequence:
    """Builtin families and explicit tables; no code execution from input."""
    where = "sequence field"
    kind = schema.field(schema.check(doc, "object", "sequence"), "kind", tuple(_SEQUENCES), where)
    got = schema.read(doc, _INDEX_FIELDS + _SEQUENCES[kind], where)
    k, max_norm = got["k"], got["max_norm"]
    if kind == "geometric":
        return geometric_sequence(got["lambda"], max_norm, k)
    if kind == "constant":
        return constant_sequence(got["value"], max_norm, k)
    if kind == "sqrt_degree":
        return sqrt_degree_sequence(max_norm, k)
    items = []
    for i, item in enumerate(got["entries"]):
        what = f"{where} 'entries' item {i}"
        entry = schema.read(schema.check(item, "object", what), _ENTRY_FIELDS, what + " field")
        coefficients = entry["coefficients"]   # an empty list is the zero polynomial
        if coefficients:
            what += " field 'coefficients'"
            coefficients = schema.check(coefficients, "pairs", what).tolist()
        items.append((entry["index"], tuple(coefficients)))
    return _table(items, max_norm, k, got["declared_C0"], got["declared_C1"])
