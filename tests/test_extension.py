import cmath
import hashlib
import itertools
import json
import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocap import extension
from holocap.bernstein import Polynomial1D
from holocap.capacity import (FEKETE_N, MIN_POINTS, capacity_of_cloud, green_from_prefix,
                              green_function)
from holocap.errors import (
    AllStrataPolar,
    DegreeGrowthViolated,
    FloatOverflow,
    InsufficientData,
    NotSublinear,
    NoUniformStratum,
    OutsideCertifiedDomain,
    WindowEmpty,
)
from holocap.extension import (
    ExtendConfig,
    ExtensionCertificate,
    PolynomialSequence,
    RadiusProfile,
    _index_rows,
    _row,
    _tail_slope,
    certificate_from_json,
    certificate_to_json,
    certify_extension,
    certify_uniform,
    constant_sequence,
    evaluate,
    fit_degree_growth,
    geometric_sequence,
    radius_profile,
    ring_multiply,
    sequence_from_json,
    sqrt_degree_sequence,
    stratify_and_find_nonpolar,
    table_sequence,
    uniform_bound_compact,
)
from holocap.sets import Disk, PointCloud, Segment, UnionSet

CIRCLE = [complex(np.cos(2 * np.pi * k / 200), np.sin(2 * np.pi * k / 200))
          for k in range(200)]
CIRCLE_CLOUD = PointCloud(tuple(CIRCLE))


def delta_sequence(value: complex, max_norm: int, k: int = 1) -> PolynomialSequence:
    """P_0 = value, every other index zero (the ring's unit at value = 1): a one-entry table."""
    return table_sequence({(0,) * k: Polynomial1D((complex(value),))}, max_norm, k)


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------

def _indices(seq, lo=0, hi=None):
    """The index tuples of norm lo to hi (max_norm by default), in row order."""
    rows = seq.entries[seq.starts[lo]:seq.starts[(seq.max_norm if hi is None else hi) + 1]]
    return list(map(tuple, rows.tolist()))


def test_multi_index_basics():
    seq = geometric_sequence(2, 10, k=3)
    p = seq.poly((2, 0, 3))   # an index is a plain tuple of k entries; its norm is their sum
    assert p.degree == 5 and p.coefficients == (0j,) * 5 + (32 + 0j,)
    with pytest.raises(ValueError):
        geometric_sequence(2, 10).poly((-1,))
    with pytest.raises(ValueError):
        geometric_sequence(2, 10).poly(())


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_multi_index_norm_is_sum(entries):
    k, norm = len(entries), sum(entries)
    # the rows of norm j are those after the comb(j + k - 1, k) indices of smaller norm
    assert math.comb(norm + k - 1, k) <= extension._row(tuple(entries), k) < math.comb(norm + k, k)


def test_poly_refuses_an_index_the_sequence_lacks():
    seq = geometric_sequence(2, 10, k=2)
    for index in [(1,), (1, 2, 0), (-1, 2), (1.0, 2), (True, 2)]:
        with pytest.raises(ValueError, match=re.escape(
                f"index {index!r} must have length 2 and nonnegative integer entries")):
            seq.poly(index)
    with pytest.raises(ValueError, match="index norm 11 beyond available 10"):
        seq.poly((5, 6))


def test_poly_reads_the_row_of_its_tuple():
    seq = geometric_sequence(2, 10, k=2)
    assert seq.poly((2, 3)).coefficients == (0j,) * 5 + (32 + 0j,)
    assert seq.poly((np.int64(0), 0)) == seq.poly((0, 0)) == Polynomial1D((1,))
    assert seq.poly((10, 0)).degree == seq.poly((0, 10)).degree == 10


# ---------------------------------------------------------------------------
# degree growth
# ---------------------------------------------------------------------------

def test_fit_geometric_is_zero_one():
    assert fit_degree_growth(geometric_sequence(1, 30)) == (0.0, 1.0)


def test_fit_constants_is_zero_zero():
    assert fit_degree_growth(constant_sequence(3, 30)) == (0.0, 0.0)


def test_fit_validates_declared_constants():
    seq = geometric_sequence(2, 20)
    seq.declared_C0, seq.declared_C1 = 1.0, 1.0
    assert fit_degree_growth(seq) == (1.0, 1.0)
    seq_bad = geometric_sequence(2, 20)
    seq_bad.declared_C0, seq_bad.declared_C1 = 0.0, 0.5
    with pytest.raises(DegreeGrowthViolated):
        fit_degree_growth(seq_bad)
    seq_bad.declared_C0 = -1.0   # the reader refuses it; a library caller is told
    with pytest.raises(ValueError, match="must be >= 0, got -1.0 and 0.5"):
        fit_degree_growth(seq_bad)


def test_fit_idempotent():
    seq = sqrt_degree_sequence(100)
    c0, c1 = fit_degree_growth(seq)
    seq.declared_C0, seq.declared_C1 = c0, c1
    assert fit_degree_growth(seq) == (c0, c1)


def test_fit_skips_zero_polynomials():
    seq = delta_sequence(7, 20)
    assert fit_degree_growth(seq) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# radius profile / stratification
# ---------------------------------------------------------------------------

def test_radius_geometric_at_two():
    prof = radius_profile(geometric_sequence(1, 60), [2.0 + 0j], window=30)
    assert prof.samples[0][1] == pytest.approx(0.5, rel=1e-12)


def test_radius_infinite_when_tail_vanishes():
    prof = radius_profile(geometric_sequence(1, 60), [0j], window=30)
    assert math.isinf(prof.samples[0][1])


def test_radius_constant_sequence_is_one():
    prof = radius_profile(constant_sequence(1, 60), [5.0 + 1j], window=30)
    assert prof.samples[0][1] == pytest.approx(1.0, rel=1e-12)


def test_radius_window_validation():
    with pytest.raises(WindowEmpty):
        radius_profile(geometric_sequence(1, 10), [1.0 + 0j], window=0)
    with pytest.raises(WindowEmpty):
        radius_profile(geometric_sequence(1, 10), [1.0 + 0j], window=11)


def test_stratify_half_radius():
    prof = RadiusProfile(tuple((z, 0.5) for z in CIRCLE))
    i, cloud, est = stratify_and_find_nonpolar(prof)
    assert i == 2
    assert len(cloud.points) == len(CIRCLE)
    assert est == capacity_of_cloud(CIRCLE)


def test_stratify_infinite_radii():
    prof = RadiusProfile(tuple((z, math.inf) for z in CIRCLE))
    i, _, _ = stratify_and_find_nonpolar(prof)
    assert i == 1


def test_stratify_empty_profile_is_refused():
    with pytest.raises(ValueError, match="radius profile is empty"):
        stratify_and_find_nonpolar(RadiusProfile(()))


def test_estimate_at_eps_cap_is_polar_everywhere():
    # a 40-point circle at eps_cap equal to its own estimate v: the capacity verdict,
    # the stratum search and the prefix Green rebuild all call v polar
    circle = CIRCLE[::5]
    v = capacity_of_cloud(circle).value
    est = capacity_of_cloud(circle, eps_cap=v)
    assert est.value == v and est.polar and est.robin_constant == math.inf
    with pytest.raises(AllStrataPolar):
        stratify_and_find_nonpolar(RadiusProfile(tuple((z, 1.0) for z in circle)), eps_cap=v)
    # listed in the solve's selection order, the rebuild's capacity is v bit for bit
    selected = PointCloud(tuple(capacity_of_cloud(circle).fekete.points))
    assert green_from_prefix(selected, 0.0).robin_constant == -math.log(v)
    with pytest.raises(ValueError, match="at or below eps_cap"):
        green_from_prefix(selected, 0.0, eps_cap=v)


def test_stratify_single_good_point_is_polar():
    samples = [(CIRCLE[0], 1.0)] + [(z, 1e-9) for z in CIRCLE[1:]]
    with pytest.raises(AllStrataPolar):
        stratify_and_find_nonpolar(RadiusProfile(tuple(samples)), i_max=100)


# ---------------------------------------------------------------------------
# uniform bound compact
# ---------------------------------------------------------------------------

def test_uniform_bound_geometric_rate_margin():
    # with rate 4 the score max_n |2 z|^n 4^{-n} is 1 on the circle
    cloud, rho1, m0, level, _ = uniform_bound_compact(
        geometric_sequence(2, 60), CIRCLE_CLOUD, rho0=4.0)
    assert level == 1.0
    assert len(cloud.points) == len(CIRCLE)
    assert rho1 == pytest.approx(2.0, rel=1e-9)
    assert m0 == 1.0


def test_uniform_bound_refuses_a_rate_that_is_not_positive():
    with pytest.raises(ValueError, match="rho0 must be positive"):
        uniform_bound_compact(geometric_sequence(2, 60), CIRCLE_CLOUD, rho0=0.0)


def test_uniform_bound_geometric_tight_rate():
    # rate 0.5 makes the score 2^60; the doubling search still terminates
    cloud, rho1, m0, level, _ = uniform_bound_compact(
        geometric_sequence(1, 60), CIRCLE_CLOUD, rho0=0.5)
    assert level <= 2.0 ** 61
    assert len(cloud.points) >= 8
    assert rho1 == pytest.approx(1.0, rel=1e-9)
    assert m0 == 1.0


def test_uniform_bound_constant_only():
    seq = delta_sequence(7, 20)
    cloud, rho1, m0, level, _ = uniform_bound_compact(seq, CIRCLE_CLOUD, rho0=2.0)
    assert len(cloud.points) == len(CIRCLE)
    assert rho1 == 1.0  # empty max convention
    assert m0 == 7.0


def test_uniform_bound_invariant_exact():
    seq = geometric_sequence(1 + 1j, 40)
    cloud, rho1, m0, _, _ = uniform_bound_compact(seq, CIRCLE_CLOUD, rho0=4.0)
    pts = np.asarray(cloud.points)
    for idx in _indices(seq):
        vals = np.abs(seq.poly(idx)(pts))
        assert np.all(vals <= m0 * rho1 ** sum(idx))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certify_geometric_pipeline():
    cert = certify_extension(geometric_sequence(1, 60), CIRCLE)
    assert (cert.C0, cert.C1) == (0.0, 1.0)
    assert cert.rho1 == pytest.approx(1.0, rel=1e-9)
    assert cert.M0 == 1.0
    assert cert.C2 >= 0.98
    assert cert.C2 == 1.0 / (cert.rho1 * math.exp(cert.C1 * cert.gammaC))
    assert cert.exponent == 1.0
    assert not cert.exponent_differs
    assert cert.N_used == 60
    # certified radius below the true radius 1/|z2| on a sweep of moduli
    for r in np.geomspace(0.1, 100, 50):
        assert cert.certified_radius(r) <= 1.0 / r * (1 + 1e-9)


def test_certify_single_point_k_is_polar():
    with pytest.raises(AllStrataPolar) as err:
        certify_extension(geometric_sequence(1, 60), [1.0 + 0j])
    assert err.value.stage == "stratify"


def test_certify_monotone_under_more_samples():
    rng = np.random.default_rng(17)
    extra = [complex(np.cos(a), np.sin(a)) for a in rng.uniform(0, 2 * np.pi, 100)]
    cert_small = certify_extension(geometric_sequence(1, 60), CIRCLE)
    cert_big = certify_extension(geometric_sequence(1, 60), CIRCLE + extra)
    assert len(cert_big.witness.points) >= len(cert_small.witness.points)
    assert cert_big.C2 >= cert_small.C2 * 0.98


def test_certify_uniform_sqrt_family():
    cert = certify_uniform(sqrt_degree_sequence(400), CIRCLE)
    assert cert.exponent == 0.0
    assert cert.tail_slope <= 0.05
    assert cert.C2 == pytest.approx(1.0, rel=0.02)


def test_certify_uniform_rejects_linear_growth():
    with pytest.raises(NotSublinear):
        certify_uniform(geometric_sequence(1, 60), CIRCLE)


def test_certify_uniform_needs_a_tail_window():
    # at max_norm 1 every window starts at norm 0, so no tail slope is measured
    assert _tail_slope(sqrt_degree_sequence(1), 0.0) == (math.inf, 0)
    with pytest.raises(NotSublinear):
        certify_uniform(sqrt_degree_sequence(1), CIRCLE)


def test_certify_uniform_constant_sequence():
    cert = certify_uniform(constant_sequence(1, 60), CIRCLE)
    assert cert.exponent == 0.0
    assert cert.C2 == pytest.approx(1.0 / cert.rho1, rel=1e-12)


def _run_certify(kind, seq, samples, config=None):
    certify = certify_uniform if kind == "uniform" else certify_extension
    return certify(seq, samples, config)


RING = [0.3 * z for z in CIRCLE[::2]] + [0.9 * z for z in CIRCLE[1::2]]

# (mode, sequence, samples, config).  stratum_2: i = 2, and the first level
# keeps the whole stratum.  strict_subcloud: i = 1, and theta = 2 (rho0 = 0.5)
# makes the first level keep only the 0.3 circle of the two-circle stratum.
CARRIED_CASES = {
    "geometric_k1": ("extension", geometric_sequence(1, 60), CIRCLE, None),
    "geometric_k3": ("extension", geometric_sequence(0.5, 12, k=3), CIRCLE[::2], None),
    "sqrt_degree": ("uniform", sqrt_degree_sequence(400), CIRCLE, None),
    "stratum_2": ("extension", geometric_sequence(1.5, 60), CIRCLE, None),
    "strict_subcloud": ("extension", geometric_sequence(1, 60), RING, ExtendConfig(theta=2.0)),
}


@pytest.fixture
def solves(monkeypatch):
    """(hash of the candidate array, n) of every _fekete_over call, in order."""
    # the package attribute holocap.capacity is the function; patch the module
    module = sys.modules["holocap.capacity"]
    solve, solved = module._fekete_over, []

    def counted(cand, n, checkpoints):
        solved.append((hashlib.sha256(cand.tobytes()).hexdigest(), n))
        return solve(cand, n, checkpoints)

    monkeypatch.setattr(module, "_fekete_over", counted)
    return solved


@pytest.mark.parametrize("case", ["geometric_k1", "geometric_k3", "sqrt_degree"])
def test_extend_solves_each_candidate_array_once(solves, case):
    _run_certify(*CARRIED_CASES[case])
    assert solves
    assert len(set(solves)) == len(solves)


def test_repeated_polar_stratum_is_solved_once(solves):
    # strata 1-4 are the same 10 points within 1e-6 of 0, which are polar;
    # the circle joins at i = 5
    tiny = [1e-6 * cmath.exp(2j * math.pi * k / 10) for k in range(10)]
    prof = RadiusProfile(tuple([(z, 1.5) for z in tiny] + [(z, 0.21) for z in CIRCLE[::2]]))
    assert stratify_and_find_nonpolar(prof)[0] == 5
    assert len(solves) == 2
    assert len(set(solves)) == 2


@pytest.mark.parametrize("case", list(CARRIED_CASES))
def test_extend_runs_public_stages(monkeypatch, case):
    want = json.dumps(certificate_to_json(_run_certify(*CARRIED_CASES[case])))
    module = sys.modules["holocap.extension"]   # where perfbench's tracer wraps them
    calls = []
    for name in ("stratify_and_find_nonpolar", "uniform_bound_compact"):
        def counted(*args, _name=name, _stage=getattr(module, name), **kwargs):
            calls.append(_name)
            return _stage(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    got = json.dumps(certificate_to_json(_run_certify(*CARRIED_CASES[case])))
    assert calls == ["stratify_and_find_nonpolar", "uniform_bound_compact"]
    assert got == want


@pytest.mark.parametrize("case", list(CARRIED_CASES))
def test_uniform_bound_stratum_estimate_changes_nothing(case):
    _, seq, samples, config = CARRIED_CASES[case]
    i, stratum, est = stratify_and_find_nonpolar(radius_profile(seq, samples,
                                                                seq.max_norm // 2))
    rho0 = i / (config or ExtendConfig()).theta
    carried = uniform_bound_compact(seq, stratum, rho0, stratum_est=est)
    fresh = uniform_bound_compact(seq, stratum, rho0)
    assert (carried[4] is est) == (case != "strict_subcloud")   # the estimate was reused
    assert repr(carried) == repr(fresh)
    assert carried[4].fekete.points.tobytes() == fresh[4].fekete.points.tobytes()


def _sampled_witness(mode, seq, samples, config) -> tuple:
    """(stratum, witness) of a certificate's run, the witness in sample order, as
    uniform_bound_compact returns it."""
    i, stratum, _ = stratify_and_find_nonpolar(radius_profile(seq, samples, seq.max_norm // 2))
    rho0 = i / (config or ExtendConfig()).theta
    return stratum, np.asarray(uniform_bound_compact(seq, stratum, rho0)[0].points)


@pytest.mark.parametrize("case", ["geometric_k1", "stratum_2", "strict_subcloud"])
def test_carried_green_matches_fresh_build(case):
    mode, seq, samples, config = CARRIED_CASES[case]
    cert = _run_certify(mode, seq, samples, config)
    if case == "stratum_2":
        assert cert.thresholds["stratum_index"] == 2
    stratum, sampled = _sampled_witness(mode, seq, samples, config)
    strict = len(sampled) < len(stratum.points)
    assert strict == (case == "strict_subcloud")
    # the witness in sample order is the cloud that was solved
    carried = cert.green()
    fresh = green_function(PointCloud(tuple(sampled)), n=FEKETE_N,
                           eps_cap=cert.thresholds["eps_cap"])
    assert carried.robin_constant == fresh.robin_constant
    assert carried.points.tobytes() == fresh.points.tobytes()
    assert carried.clamp_magnitude == fresh.clamp_magnitude
    radii = np.geomspace(1e-2, cert.thresholds["z2_max"], extension.GAMMA_RADIAL)
    angles = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, extension.GAMMA_ANGULAR,
                                     endpoint=False))
    grid = np.concatenate([np.zeros(1), (radii[:, None] * angles[None, :]).ravel()])
    assert carried(grid).tobytes() == fresh(grid).tobytes()


def test_certificate_json_round_trip_lossless():
    cert = certify_extension(geometric_sequence(1 + 1j, 60), CIRCLE)
    doc = certificate_to_json(cert)
    text = json.dumps(doc)
    back = certificate_from_json(json.loads(text))
    for name in ("rho0", "rho1", "M0", "C0", "C1", "gammaC", "C2", "exponent"):
        assert getattr(back, name) == getattr(cert, name)  # bit-exact floats
    assert back.witness == cert.witness
    assert back.thresholds == cert.thresholds
    assert doc["tool_version"]
    assert "green_points" not in doc
    # the Green function is rebuilt from the witness's first distinct points, bit for bit
    assert np.array_equal(back.green().points, cert.green().points)
    assert back.green().robin_constant == cert.green().robin_constant
    assert back.green().clamp_magnitude == cert.green().clamp_magnitude
    grid = np.linspace(-3.0, 3.0, 7)[:, None] + 1j * np.linspace(-3.0, 3.0, 7)[None, :]
    assert np.array_equal(back.green()(grid), cert.green()(grid))
    assert certificate_to_json(back) == doc


@pytest.mark.parametrize("witness", [
    Segment(-1.5, 0.5j), UnionSet((Segment(-2 - 1j, -1 - 0.5j), Segment(2 + 1j, 1 + 0.5j))),
], ids=["segment", "collinear_union"])
def test_closed_form_witness_reads_no_green_points(witness):
    # a witness with a closed-form Green function stores no selection, and reading it
    # back ignores one: malformed green_points or clamp_magnitude are never read
    cert = ExtensionCertificate(
        rho0=2.0, rho1=0.5, M0=1.0, C0=0.5, C1=1.0, gammaC=0.25,
        C2=extension._domain_c2(0.5, 0.25, 1.0, 1.0), exponent=1.0, witness=witness,
        N_used=40, thresholds={"tail_slope": 1.0})
    doc = certificate_to_json(cert)
    assert "green_points" not in doc and "clamp_magnitude" not in doc
    back = certificate_from_json(json.loads(json.dumps(
        {**doc, "green_points": "not a list", "clamp_magnitude": -1})))
    assert back.witness == witness
    assert back.green().backing == cert.green().backing != "fekete_potential"
    seq = geometric_sequence(0.5, 40)
    for z1, z2 in ((0.3, 0.2j), (0.03 - 0.05j, 2.5 + 1j), (0.02, -3.0)):
        want, got = evaluate(cert, seq, z1, z2, 1e-6), evaluate(back, seq, z1, z2, 1e-6)
        assert (got.value, got.tail_bound, got.terms_used) == (
            want.value, want.tail_bound, want.terms_used)


@pytest.mark.parametrize("exponent", [0.5, 0.0], ids=["extension_half", "uniform"])
def test_code_built_certificate_round_trips(exponent):
    # exponent_differs is the exponent's: a certificate built in code with exponent 0.5
    # or 0 (C2 by the rule of its mode) writes the flag certificate_from_json requires
    cert = ExtensionCertificate(
        rho0=2.0, rho1=0.5, M0=1.0, C0=0.0, C1=0.5, gammaC=0.25,
        C2=extension._domain_c2(0.5, 0.25, 0.5, exponent), exponent=exponent,
        witness=Disk(0.5j, 1.5), N_used=40, thresholds={"tail_slope": 0.5})
    assert cert.exponent_differs
    doc = json.loads(json.dumps(certificate_to_json(cert)))
    assert doc["exponent_differs"] is True
    back = certificate_from_json(doc)
    assert back.exponent_differs
    for name in ("rho0", "rho1", "M0", "C0", "C1", "gammaC", "C2", "exponent", "N_used"):
        assert getattr(back, name) == getattr(cert, name)
    assert back.witness == cert.witness
    assert certificate_to_json(back) == {**doc, "thresholds": back.thresholds}


@pytest.mark.parametrize("witness", [
    CIRCLE_CLOUD, UnionSet((Segment(-2, -1), Disk(1, 0.5))),
], ids=["cloud", "disk_and_segment"])
def test_green_refuses_a_witness_without_an_evaluator(witness):
    # no certificate solves its witness: a cloud's evaluator comes from extend, which
    # passes it to the constructor, or from the certificate's JSON
    cert = ExtensionCertificate(
        rho0=2.0, rho1=1.0, M0=1.0, C0=0.0, C1=1.0, gammaC=0.0, C2=1.0, exponent=1.0,
        witness=witness, N_used=60, thresholds={"tail_slope": 1.0})
    seq = geometric_sequence(1, 60)
    for call in (cert.green, lambda: certificate_to_json(cert),
                 lambda: evaluate(cert, seq, 0.1, 2.0, 1e-10)):
        with pytest.raises(ValueError, match="^certificate witness carries no Green evaluator"):
            call()
    carried = certify_extension(seq, CIRCLE)
    given = ExtensionCertificate(**vars(carried))   # the _green extend passed, passed again
    assert given.green() is carried.green()
    assert evaluate(given, seq, 0.1, 2.0, 1e-10) == evaluate(carried, seq, 0.1, 2.0, 1e-10)


# (mode, sequence, samples) of the witness-order tests: 220 samples of 200 distinct
# points, and 100 distinct points listed twice (fewer than fekete_n = 128)
ORDER_CASES = {
    "geometric_k1": ("extension", geometric_sequence(1, 60), CIRCLE),
    "geometric_k3": ("extension", geometric_sequence(0.5, 12, k=3), CIRCLE),
    "sqrt_degree": ("uniform", sqrt_degree_sequence(400), CIRCLE),
    "duplicates": ("extension", geometric_sequence(1, 60), CIRCLE + CIRCLE[::10]),
    "duplicates_below_n": ("extension", geometric_sequence(1, 60), CIRCLE[::2] * 2),
}


def _order_case(case) -> tuple:
    """(certificate, its JSON, the witness in sample order) of an order case."""
    mode, seq, samples = ORDER_CASES[case]
    cert = _run_certify(mode, seq, samples)
    return cert, json.loads(json.dumps(certificate_to_json(cert))), _sampled_witness(
        mode, seq, samples, None)[1]


def _with_witness(doc: dict, points: list) -> ExtensionCertificate:
    return certificate_from_json({**doc, "witness": {"shape": "cloud", "points": points}})


@pytest.mark.parametrize("case", list(ORDER_CASES))
def test_witness_lists_its_potential_first(case):
    cert, doc, sampled = _order_case(case)
    head = cert.green().points
    n = len(head)
    assert n == min(FEKETE_N, len(set(sampled.tolist())))
    # a permutation of the cloud: the potential's points first, in its order, then every
    # other point in sample order, duplicates kept
    first = {}
    for j, z in enumerate(sampled.tolist()):
        first.setdefault(z, j)
    moved = {first[z] for z in head.tolist()}
    rest = np.asarray([z for j, z in enumerate(sampled.tolist()) if j not in moved],
                      dtype=np.complex128)
    for witness in (cert.witness, certificate_from_json(doc).witness):
        listed = np.asarray(witness.points)
        assert np.sort(listed, kind="stable").tobytes() == np.sort(
            sampled, kind="stable").tobytes()
        assert listed[:n].tobytes() == head.tobytes()
        assert listed[n:].tobytes() == rest.tobytes()
    back = certificate_from_json(doc)
    assert back.green().points.tobytes() == head.tobytes()
    assert back.green().robin_constant == cert.green().robin_constant


@pytest.mark.parametrize("case", list(ORDER_CASES))
def test_eval_ignores_the_witness_tail_order(case):
    cert, doc, _ = _order_case(case)
    n, points = len(cert.green().points), doc["witness"]["points"]
    assert len(points) > n
    back, flipped = certificate_from_json(doc), _with_witness(doc, points[:n] + points[:n - 1:-1])
    assert flipped.witness != back.witness
    seq, share = ORDER_CASES[case][1], 0.15 if case == "geometric_k3" else 0.5
    for z2 in (0.5 + 0.5j, 2.0, -3.0 + 1.0j):
        z1 = share * cert.certified_radius(z2)
        z1 = z1 if seq.k == 1 else (z1,) * seq.k
        want, got = evaluate(back, seq, z1, z2, 1e-8), evaluate(flipped, seq, z1, z2, 1e-8)
        assert repr((got.value, got.tail_bound, got.terms_used)) == repr(
            (want.value, want.tail_bound, want.terms_used))


@pytest.mark.parametrize("case", [c for c in ORDER_CASES if c != "duplicates_below_n"])
def test_swapping_a_witness_head_point_changes_g(case):
    # every distinct point is in the head of duplicates_below_n: its tail has no other
    cert, doc, _ = _order_case(case)
    n, points = len(cert.green().points), doc["witness"]["points"]
    j = max(j for j in range(n, len(points)) if points[j] not in points[:n])
    swapped = list(points)
    swapped[0], swapped[j] = swapped[j], swapped[0]
    grid = np.linspace(-3.0, 3.0, 9)[:, None] + 1j * np.linspace(-3.0, 3.0, 9)[None, :]
    g = certificate_from_json(doc).green()(grid)
    assert not np.array_equal(_with_witness(doc, swapped).green()(grid), g)


# ---------------------------------------------------------------------------
# the certificate's witness Green function
# ---------------------------------------------------------------------------

def _analytic_circle_cert() -> ExtensionCertificate:
    return ExtensionCertificate(
        rho0=2.0, rho1=1.0, M0=1.0, C0=0.0, C1=1.0, gammaC=0.0, C2=1.0,
        exponent=1.0, witness=Disk(0, 1), N_used=60,
        thresholds={"tail_slope": 1.0})


def test_green_on_witness_is_flat():
    cert = certify_extension(geometric_sequence(1, 60), CIRCLE)
    green = cert.green()
    flat = [z for z in cert.witness.points if float(green(z)) == 0.0]
    assert len(flat) > len(cert.witness.points) // 2  # the clamp pins them at exactly zero


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_geometric_against_closed_form():
    seq = geometric_sequence(1, 60)
    cert = certify_extension(seq, CIRCLE)
    res = evaluate(cert, seq, 0.1, 2.0, tol=1e-10)
    assert abs(res.value - 1.25) <= 1e-10
    assert res.tail_bound <= 1e-10
    assert res.terms_used <= 60


def test_evaluate_at_zero_returns_constant_term():
    seq = geometric_sequence(2, 60)
    cert = certify_extension(seq, CIRCLE)
    res = evaluate(cert, seq, 0.0, 123.0 + 4j, tol=1e-12)
    assert res.value == 1.0 + 0j
    assert res.tail_bound == 0.0
    assert res.terms_used == 0


def test_evaluate_asserts_its_tail_bound_is_nonnegative():
    # a negative M0 gave a negative "bound"; the reader refuses one from JSON
    seq = geometric_sequence(1, 60)
    cert = certify_extension(seq, CIRCLE)
    cert.M0 = -1.0
    with pytest.raises(AssertionError, match="tail bound -"):
        evaluate(cert, seq, 0.1, 2.0, tol=1e-10)


def test_evaluate_outside_domain():
    seq = geometric_sequence(1, 60)
    cert = certify_extension(seq, CIRCLE)
    with pytest.raises(OutsideCertifiedDomain):
        evaluate(cert, seq, 0.9, 2.0, tol=1e-10)


# (sequence, certificate, z1, z2, tol) whose partial sum is beyond the float range:
# P_0(1e300) = 1e310 at z1 = 0; 1e10^n overflows past n = 30 while 5e-11^n underflows,
# a NaN product; (1e190)^3 raises OverflowError in complex ** (k = 1 and k = 2)
NON_FINITE_SUMS = {
    "p0_infinite": (table_sequence({(0,): Polynomial1D((0, 1e10))}, 4),
                    lambda seq: _disk_cert(1.0, 1.0, 0.0, 1.0, 0, 1.0), 0.0, 1e300, 1e-10),
    "inf_times_zero": (geometric_sequence(1, 60),
                       lambda seq: certify_extension(seq, CIRCLE), 5e-11, 1e10, 1e-10),
    "power_k1": (geometric_sequence(1e-200, 12), lambda seq: _disk_cert(1e-200, 1.0, 0.0,
                                                                         1.0, 0, 1.0),
                 1e190, 0.5, 1e-30),
    "power_k2": (geometric_sequence(1e-200, 12, k=2),
                 lambda seq: _disk_cert(1e-200, 1.0, 0.0, 1.0, 0, 1.0),
                 (1e190, 1e190j), 0.5, 1e-30),
}


@pytest.mark.parametrize("case", list(NON_FINITE_SUMS))
def test_evaluate_refuses_a_sum_beyond_the_float_range(case):
    seq, cert, z1, z2, tol = NON_FINITE_SUMS[case]
    with pytest.raises(FloatOverflow, match="is beyond the float range") as err:
        evaluate(cert(seq), seq, z1, z2, tol)
    assert err.value.stage == "evaluate"


def test_evaluate_insufficient_data():
    seq = geometric_sequence(1, 60)
    cert = certify_extension(seq, CIRCLE)
    # q close to 1: the tail cannot reach 1e-10 with 60 terms
    z2 = 2.0
    q_target = 0.93
    z1 = q_target / (cert.rho1 * math.exp(cert.tail_slope * float(cert.green()(z2))))
    with pytest.raises(InsufficientData) as err:
        evaluate(cert, seq, z1, z2, tol=1e-10)
    assert err.value.achievable_tail_bound > 1e-10


def test_evaluate_overflowing_amplitude_bounds_nothing():
    # exp(C0 g) = inf while q = rho1 |z1| underflows to 0: the achievable bound read
    # inf * 0 = NaN
    seq = geometric_sequence(1, 4)
    cert = _analytic_circle_cert()
    cert.rho1, cert.C0 = 1e-300, 1e300
    with pytest.raises(InsufficientData) as err:
        evaluate(cert, seq, 1e-300, 2.0, tol=1e-10)
    assert err.value.achievable_tail_bound == math.inf


def test_evaluate_two_series_variables():
    # f(z1, z2) = sum_n (lam z2)^{||n||} z1^n over n in N^2 has the closed form
    # (x/(1-a x) - y/(1-a y)) / (x - y), a = lam z2
    lam = 1.0
    seq = geometric_sequence(lam, 40, k=2)
    cert = certify_extension(seq, CIRCLE)
    x, y = 0.10 + 0.02j, 0.05 - 0.01j
    z2 = 1.5 + 0j
    a = lam * z2
    truth = (x / (1 - a * x) - y / (1 - a * y)) / (x - y)
    res = evaluate(cert, seq, (x, y), z2, tol=1e-9)
    assert abs(res.value - truth) <= 1e-9


@pytest.mark.parametrize("k, z1", [(3, (0.01, 0.02)), (1, (0.05, 0.3))], ids=["k3_two", "k1_two"])
def test_evaluate_rejects_wrong_z1_length(k, z1):
    seq = geometric_sequence(1, 40, k=k)
    cert = certify_extension(seq, CIRCLE)
    with pytest.raises(ValueError, match=f"z1 needs k = {k} coordinates, got 2"):
        evaluate(cert, seq, z1, 2.0, tol=1e-9)


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------

def test_ring_square_of_geometric():
    f = geometric_sequence(1, 20)
    prod = ring_multiply(f, f, 20)
    for n in (0, 1, 5, 20):
        coeffs = prod.poly((n,)).coefficients
        assert coeffs[-1] == n + 1  # (n+1) z^n
        assert prod.poly((n,)).degree == n


def test_ring_identity():
    f = geometric_sequence(2 - 1j, 15)
    prod = ring_multiply(f, delta_sequence(1, 15), 15)
    for n in range(16):
        assert prod.poly((n,)) == f.poly((n,))


def test_ring_multiply_two_variables():
    # (f f)_n sums P_a P_{n-a} over the (n1 + 1)(n2 + 1) indices a <= n
    f = geometric_sequence(2.0, 6, k=2)
    prod = ring_multiply(f, f, 6)
    for entries in ((0, 0), (1, 0), (0, 3), (2, 4), (3, 3)):
        n1, n2 = entries
        p = prod.poly(entries)
        assert p.degree == n1 + n2
        assert p.coefficients[-1] == (n1 + 1) * (n2 + 1) * 2.0 ** (n1 + n2)


def test_ring_insufficient_norm():
    with pytest.raises(ValueError):
        ring_multiply(geometric_sequence(1, 10), geometric_sequence(1, 20), 15)
    with pytest.raises(ValueError, match="factor index lengths differ: 1 != 2"):
        ring_multiply(geometric_sequence(1, 10), geometric_sequence(1, 10, k=2), 5)


def _random_table(rng, n_max: int):
    entries = {}
    for n in range(n_max + 1):
        deg = int(rng.integers(0, 6))
        coeffs = rng.integers(-5, 6, deg + 1).astype(float)
        if coeffs[-1] == 0:
            coeffs[-1] = 1.0
        if n == 0 and not coeffs.any():
            coeffs[0] = 1.0
        entries[(n,)] = Polynomial1D(tuple(complex(c) for c in coeffs))
    return table_sequence(entries, max_norm=n_max)


def test_ring_closure_of_growth_constants():
    rng = np.random.default_rng(99)
    for _ in range(20):
        f, g = _random_table(rng, 12), _random_table(rng, 12)
        c0f, c1f = fit_degree_growth(f)
        c0g, c1g = fit_degree_growth(g)
        prod = ring_multiply(f, g, 12)
        c0p, c1p = fit_degree_growth(prod)
        assert c0p <= c0f + c0g + 1e-12
        assert c1p <= max(c1f, c1g) + 1e-12


def test_ring_associativity_exact():
    rng = np.random.default_rng(7)
    f, g, h = (_random_table(rng, 8) for _ in range(3))
    left = ring_multiply(ring_multiply(f, g, 8), h, 8)
    right = ring_multiply(f, ring_multiply(g, h, 8), 8)
    for n in range(9):
        idx = (n,)
        assert left.poly(idx).coefficients == right.poly(idx).coefficients


def test_ring_multiply_k2():
    f = geometric_sequence(1, 6, k=2)
    prod = ring_multiply(f, delta_sequence(1, 6, k=2), 6)
    idx = (2, 3)
    assert prod.poly(idx).coefficients == f.poly(idx).coefficients


# ---------------------------------------------------------------------------
# coefficient table: bit-identity with the per-index loops it replaced
# ---------------------------------------------------------------------------

# Frozen copies of the per-index loops that fit_degree_growth, radius_profile,
# uniform_bound_compact and certify_uniform ran before the coefficient table.
# Every stage on the table must reproduce them exactly.

def _ref_fit_degree_growth(seq):
    if seq.max_norm < 1:
        raise ValueError(f"degree-growth fit needs 'max_norm' >= 1, got {seq.max_norm}")
    degrees = [(idx, seq.poly(idx).degree) for idx in _indices(seq)]
    if seq.declared_C0 is not None or seq.declared_C1 is not None:
        c0 = float(seq.declared_C0 or 0.0)
        c1 = float(seq.declared_C1 or 0.0)
        for idx, deg in degrees:
            if deg > c0 + c1 * sum(idx):
                raise DegreeGrowthViolated(
                    f"deg P_{idx} = {deg} exceeds declared "
                    f"{c0} + {c1} * {sum(idx)}")
        return c0, c1
    c0 = 0.0
    for idx, deg in degrees:
        if sum(idx) == 0 and deg > c0:
            c0 = float(deg)
    return c0, _ref_degree_slope(degrees, c0)


def _ref_degree_slope(degrees, c0):
    slope = 0.0
    for idx, deg in degrees:
        if sum(idx) >= 1 and deg != -math.inf:
            slope = max(slope, (deg - c0) / sum(idx))
    return slope


def _ref_tail_slope(seq, c0):
    best_slope, best_start = math.inf, 0
    for j in range(1, 7):
        start = seq.max_norm - max(1, seq.max_norm >> j)
        if start < 1:
            continue
        slope = _ref_degree_slope(((idx, seq.poly(idx).degree)
                                   for idx in _indices(seq, start)), c0)
        if slope < best_slope:
            best_slope, best_start = slope, start
    return best_slope, best_start


def _ref_radius_profile(seq, samples, window):
    lo = max(1, seq.max_norm - window + 1)
    zs = np.asarray(list(samples), dtype=np.complex128)
    rate = np.zeros(len(zs))
    for idx in _indices(seq, lo, seq.max_norm):
        vals = np.abs(seq.poly(idx)(zs))
        np.maximum(rate, np.where(vals > 0.0, vals ** (1.0 / sum(idx)), 0.0), out=rate)
    return RadiusProfile(tuple((complex(z), (1.0 / r) if r > 0.0 else math.inf)
                               for z, r in zip(zs, rate)))


def _ref_norm_radius_profile(seq, samples, window):
    """The per-norm loop radius_profile ran on norm_peaks, its peaks taken here from
    per-index values: a norm's peak is NaN where one of its values is, and a NaN peak
    (an overflowed value) is an infinite rate, so its sample gets R = 0."""
    lo = max(1, seq.max_norm - window + 1)
    zs = np.asarray(list(samples), dtype=np.complex128)
    rate = np.zeros(len(zs))
    for j in range(lo, seq.max_norm + 1):
        vals = np.max([np.abs(seq.poly(idx)(zs)) for idx in _indices(seq, j, j)], axis=0)
        roots = np.where(vals > 0.0, vals ** (1.0 / j), np.where(np.isnan(vals), np.inf, 0.0))
        np.maximum(rate, roots, out=rate)
    return RadiusProfile(tuple((complex(z), (1.0 / r) if r > 0.0 else math.inf)
                               for z, r in zip(zs, rate)))


def test_radius_profile_gives_a_nan_peak_radius_zero():
    # |P_3(1e5)| = 1e320 overflows to NaN in Horner's rule: the NaN stands for a
    # value beyond the float range, so R = 0 (a NaN peak was once skipped, giving R = 1)
    seq = table_sequence({(2,): Polynomial1D((1,)), (3,): Polynomial1D((0,) * 8 + (1e280,)),
                          (4,): Polynomial1D((1,))}, 4)
    profile = radius_profile(seq, [1e5], 2)
    assert np.isnan(profile.peaks[0, 0]) and profile.peaks[1, 0] == 1.0
    assert profile.samples == ((1e5 + 0j, 0.0),)


def _ref_uniform_bound_compact(seq, stratum, rho0, eps_cap):
    pts = np.asarray(stratum.points, dtype=np.complex128)
    values = {}
    phi = np.zeros(len(pts))
    for idx in _indices(seq):
        vals = np.abs(seq.poly(idx)(pts))
        values[idx] = vals
        np.maximum(phi, vals * rho0 ** (-sum(idx)), out=phi)
    chosen = None
    for exp2 in range(0, 65):
        level = float(2 ** exp2)
        mask = phi <= level
        if int(mask.sum()) < MIN_POINTS:
            continue
        est = capacity_of_cloud(pts[mask], n=FEKETE_N, eps_cap=eps_cap)
        if est.value > eps_cap:
            chosen = (level, mask, est)
            break
    if chosen is None:
        raise NoUniformStratum("no doubling level up to 2^64 gives a non-polar sublevel cloud")
    level, mask, est = chosen
    m0 = 1.0
    rho1 = 0.0
    for idx in _indices(seq):
        vals = values[idx][mask]
        if sum(idx) == 0:
            m0 = max(m0, float(vals.max()))
        else:
            nz = vals[vals > 0.0]
            if len(nz):
                rho1 = max(rho1, float(np.max(nz ** (1.0 / sum(idx)))))
    if rho1 == 0.0:
        rho1 = 1.0
    for idx in _indices(seq, 1):
        vals = values[idx][mask]
        while np.any(vals > m0 * rho1 ** sum(idx)):
            rho1 = math.nextafter(rho1, math.inf)
    cloud = PointCloud(tuple(complex(z) for z in pts[mask]))
    return cloud, rho1, m0, level, est


def _outcome(fn, *args):
    """A call's result, or its exception type and message, for exact comparison."""
    try:
        return "ok", repr(fn(*args))
    except Exception as err:  # both sides must fail the same way
        return type(err).__name__, str(err)


def _polar(modulus_lo: float, modulus_hi: float):
    return st.builds(lambda e, a: 10.0 ** e * cmath.exp(1j * a),
                     st.floats(math.log10(modulus_lo), math.log10(modulus_hi)),
                     st.floats(0.0, 2.0 * math.pi))


# exact zeros of either sign: the kernel may skip adding one, and polyval may not
_ZEROS = st.sampled_from((0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)))

# coefficient tuples: empty, exact zeros, mixed lengths and trailing zeros
_COEFFS = st.builds(lambda head, zeros: tuple(head) + zeros,
                    st.lists(st.one_of(_ZEROS, _polar(1e-3, 1e3)), max_size=6),
                    st.lists(_ZEROS, max_size=3).map(tuple))


# coefficient moduli up to 1e300: with points up to 1e10, values overflow to inf and NaN
_WIDE_COEFFS = st.builds(lambda head, zeros: tuple(head) + zeros,
                         st.lists(st.one_of(_ZEROS, _polar(1e-3, 1e3), _polar(1e-3, 1e300)),
                                  max_size=6),
                         st.lists(_ZEROS, max_size=3).map(tuple))


@st.composite
def _table_sequences(draw, max_norm_hi: int = 6, coeffs=_COEFFS):
    """table_sequence with k in {1, 2, 3}; a skipped index is the zero polynomial."""
    k = draw(st.sampled_from((1, 2, 3)))
    max_norm = draw(st.integers(1, max_norm_hi))
    entries = {idx: Polynomial1D(draw(coeffs))
               for idx in map(tuple, _index_rows(k, max_norm).tolist()) if draw(st.booleans())}
    return table_sequence(entries, max_norm, k)


_POINTS = st.lists(_polar(1e-3, 1e3), min_size=1, max_size=30)
_WIDE_POINTS = st.lists(st.one_of(_polar(1e-3, 1e3), _polar(1e-3, 1e10)), min_size=1, max_size=30)


def _window(data, seq):
    """A tail window; the whole range, norms 1 and 2 included, half of the time."""
    return data.draw(st.one_of(st.just(seq.max_norm), st.integers(1, seq.max_norm)))


@given(_table_sequences(), _POINTS, st.integers(1, 400), st.data())
@settings(max_examples=80, deadline=None)
def test_norm_peaks_bit_identical_to_polyval(seq, points, chunk_cells, data):
    zs = np.asarray(points, dtype=np.complex128)
    lo = data.draw(st.integers(0, seq.max_norm))
    hi = data.draw(st.integers(lo, seq.max_norm))
    # a small chunk splits norm blocks across chunks, as large inputs do
    with mock.patch.object(extension, "_CHUNK_CELLS", chunk_cells):
        peaks = seq.norm_peaks(zs, lo, hi)
    assert peaks.shape == (hi - lo + 1, len(zs))
    for j in range(lo, hi + 1):
        expect = np.max([np.abs(seq.poly(idx)(zs)) for idx in _indices(seq, j, j)], axis=0)
        assert peaks[j - lo].tobytes() == expect.tobytes()


_DECLARED = st.one_of(st.none(), st.sampled_from((0.0, 1.0, 2.0, 5.0)))


@given(_table_sequences(coeffs=_WIDE_COEFFS), _DECLARED, _DECLARED, _WIDE_POINTS,
       st.integers(1, 100), st.data())
@settings(max_examples=80, deadline=None)
def test_degree_and_radius_stages_match_reference(seq, c0, c1, points, chunk_cells, data):
    seq.declared_C0, seq.declared_C1 = c0, c1
    assert _outcome(fit_degree_growth, seq) == _outcome(_ref_fit_degree_growth, seq)
    seq.declared_C0 = seq.declared_C1 = None
    fit_c0, _ = fit_degree_growth(seq)
    assert _tail_slope(seq, fit_c0) == _ref_tail_slope(seq, fit_c0)
    window = _window(data, seq)
    # a small block size runs the profile's rows in several blocks
    with mock.patch.object(extension, "_CHUNK_CELLS", chunk_cells), np.errstate(all="ignore"):
        profile = _outcome(radius_profile, seq, points, window)
        assert profile == _outcome(_ref_norm_radius_profile, seq, points, window)
        # the per-index loop skips a NaN value, where the profile gives its sample R = 0
        nan = np.isnan(seq.norm_peaks(points, max(1, seq.max_norm - window + 1), seq.max_norm))
        assert profile == _outcome(_ref_radius_profile, seq, points, window) or nan.any()


def _uniform_cases():
    rng = np.random.default_rng(2024)
    tables = []
    for k in (1, 2, 3):
        entries = {idx: Polynomial1D(tuple(rng.normal(size=int(rng.integers(0, 5)))
                                           * 10.0 ** rng.uniform(-2, 2)))
                   for idx in map(tuple, _index_rows(k, 6).tolist())}
        tables.append(table_sequence(entries, 6, k))
    # coefficient moduli up to 1e300, so that values overflow at the larger radii
    for k in (1, 2):
        entries = {idx: Polynomial1D(tuple(rng.normal(size=int(rng.integers(1, 5)))
                                           * 10.0 ** rng.uniform(0, 300)))
                   for idx in map(tuple, _index_rows(k, 5).tolist())}
        tables.append(table_sequence(entries, 5, k))
    return [geometric_sequence(1.3 - 0.4j, 30), geometric_sequence(0.9 + 0.5j, 12, k=2),
            geometric_sequence(1.1, 8, k=3), sqrt_degree_sequence(60),
            constant_sequence(2 - 1j, 20, k=2), delta_sequence(7, 10),
            geometric_sequence(1e25, 12),
            # rho1 = 1e300 from norm 1, so rho1^2 overflows in the nudge at rho0 = 1e300
            table_sequence({(1,): Polynomial1D((1e300,)), (2,): Polynomial1D((1.0,))}, 2)] + tables


@pytest.mark.parametrize("seq", _uniform_cases(), ids=lambda s: f"k{s.k}N{s.max_norm}")
@pytest.mark.parametrize("radius, rho0", [(1.0, 4.0), (0.4, 0.5), (2.5, 3.0), (1e10, 2.0),
                                         (1.0, 1e25), (1.0, 1e300)])
def test_uniform_bound_matches_reference(seq, radius, rho0):
    cloud = PointCloud(tuple(radius * z for z in CIRCLE[::5]))
    args = (seq, cloud, rho0, 1e-4)
    # 40 points: blocks of two norm rows
    with mock.patch.object(extension, "_CHUNK_CELLS", 80), np.errstate(all="ignore"):
        assert (_outcome(uniform_bound_compact, *args)
                == _outcome(_ref_uniform_bound_compact, *args))


@pytest.mark.parametrize("seq", [sqrt_degree_sequence(400), constant_sequence(1, 60)],
                         ids=["sqrt", "constant"])
def test_certify_uniform_tail_matches_reference(seq):
    cert = certify_uniform(seq, CIRCLE)
    c0, _ = _ref_fit_degree_growth(seq)
    assert (cert.tail_slope, cert.tail_start) == _ref_tail_slope(seq, c0)


def test_norm_peaks_memory_is_bounded():
    # 12,341 rows: one (rows x points) complex array would take 79 MB
    seq = geometric_sequence(0.9 + 0.2j, 40, k=3)
    zs = 1.3 * np.exp(2j * np.pi * np.arange(400) / 400)
    tracemalloc.start()
    try:
        peaks = seq.norm_peaks(zs, 0, 40)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peaks.shape == (41, 400)
    assert peak_bytes < 4e6


def test_norm_peaks_memory_is_bounded_on_distinct_rows():
    # 12,341 distinct rows of degree = norm, one block each: the chunks stay small
    rng = np.random.default_rng(40)
    entries = _index_rows(3, 40)
    counts = entries.sum(axis=1) + 1
    seq = PolynomialSequence(entries, np.arange(len(counts)), counts,
                             rng.normal(size=(counts.sum(), 2)) @ [1, 1j])
    zs = 1.3 * np.exp(2j * np.pi * np.arange(400) / 400)
    tracemalloc.start()
    try:
        peaks = seq.norm_peaks(zs, 0, 40)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peaks.shape == (41, 400)
    assert peak_bytes < 4e6


def test_norm_peaks_evaluates_each_distinct_row_once_per_chunk(monkeypatch):
    seq = geometric_sequence(0.9 + 0.2j, 40, k=3)   # 12,341 rows, 41 blocks
    horner, blocks = PolynomialSequence._horner, []

    def counted(self, zs, which):
        out = horner(self, zs, which)
        blocks.append(len(out))
        return out

    monkeypatch.setattr(PolynomialSequence, "_horner", counted)
    seq.norm_peaks(1.3 * np.exp(2j * np.pi * np.arange(400) / 400), 0, 40)
    # 41 (norm, block) pairs fit one chunk of up to 81; each block is evaluated once
    assert (len(blocks), sum(blocks)) == (1, 41)
    assert sum(blocks) < 0.05 * len(seq.blocks)


def test_table_blocks_are_byte_exact():
    zero, signed = Polynomial1D((1j, 0j)), Polynomial1D((1j, complex(-0.0, 0.0)))
    nan = Polynomial1D((complex(math.nan, 0.0),))
    seq = table_sequence({(0,): zero, (1,): signed, (2,): zero, (3,): nan, (4,): nan,
                          (5,): signed}, 6)
    assert seq.blocks.tolist() == [0, 1, 0, 2, 2, 1, 3]


def test_table_missing_indices_share_one_zero_block():
    seq = table_sequence({(0, 0): Polynomial1D((2j,)), (1, 1): Polynomial1D((1, 3)),
                          (0, 3): Polynomial1D(())}, 3, k=2)
    given = [_row((0, 0), 2), _row((1, 1), 2)]
    zero = np.setdiff1d(np.arange(len(seq.blocks)), given)   # (0, 3) is empty: zero too
    assert len(zero) == 8 and len(np.unique(seq.blocks[zero])) == 1
    assert _row_coeffs(seq, zero[0]).tobytes() == np.zeros(1, np.complex128).tobytes()
    assert len(seq.counts) == 3 and len(np.unique(seq.blocks[given])) == 2


@pytest.mark.parametrize("k, max_norm", [(1, 12), (3, 6)])
def test_constant_sequence_values_match_per_row_polyval(k, max_norm):
    # one block per norm, every block holding the same value
    value = 1.5 - 0.5j
    seq = constant_sequence(value, max_norm, k)
    zs = np.asarray(CIRCLE[::7]) * 1.7
    expect = np.tile(np.abs(np.polynomial.polynomial.polyval(zs, np.array([value]))),
                     (max_norm + 1, 1))
    assert seq.norm_peaks(zs, 0, max_norm).tobytes() == expect.tobytes()
    cert = _disk_cert(1.2, 2.0, 0.0, 0.0, 0, 1.0)
    for z1 in ((0.0,) * k, (0.3,) * k, tuple(0.1j * (i + 1) for i in range(k))):
        args = (cert, seq, z1, 0.4 - 0.9j, 1e-9)
        assert _outcome(evaluate, *args) == _outcome(_ref_evaluate, *args)


# long rows of zeros below one leading coefficient: every step but a row's first is a
# product alone, with no coefficient added
_MONOMIAL_ROWS = [geometric_sequence(0.9 - 0.7j, 60), geometric_sequence(1.02 + 0.05j, 240),
                  geometric_sequence(0.6 + 0.5j, 60, k=2), sqrt_degree_sequence(3600),
                  sqrt_degree_sequence(60, k=2),
                  table_sequence({(n,): Polynomial1D((0j,) * n + (1,)) for n in range(61)}, 60)]


@pytest.mark.parametrize("seq", _MONOMIAL_ROWS, ids=["geometric_60", "geometric_240",
                                                     "geometric_k2_60", "sqrt_degree_3600",
                                                     "sqrt_degree_k2_60", "zeros_then_one_60"])
@pytest.mark.parametrize("chunk_cells", [1, 1 << 15])
def test_norm_peaks_of_monomial_rows_bit_identical_to_polyval(seq, chunk_cells):
    zs = np.array([1.3, -0.7 + 0.2j, complex(-0.0, 1.1), complex(0.95, -0.0), 0.01j, 2.0 - 3.0j])
    with mock.patch.object(extension, "_CHUNK_CELLS", chunk_cells), np.errstate(all="ignore"):
        peaks = seq.norm_peaks(zs, 0, seq.max_norm)
        expect = [np.max([np.abs(seq.poly(idx)(zs)) for idx in _indices(seq, j, j)], axis=0)
                  for j in range(seq.max_norm + 1)]
    assert peaks.tobytes() == np.array(expect).tobytes()


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("z2", [2.0, -2.0 + 1.0j, -2.0 - 1.0j, complex(-0.0, -1.0)])
def test_evaluate_at_z1_zero_gives_positive_zeros(k, z2):
    """P_0 = [-0.0, 0.0] at z1 = 0: the kernel may give -0.0, evaluate gives +0.0."""
    seq = table_sequence({(0,) * k: Polynomial1D((complex(-0.0, 0.0),)),
                          (1,) + (0,) * (k - 1): Polynomial1D((0j, 1.0))}, 2, k)
    value = evaluate(_disk_cert(0.5, 1.0, 0.0, 0.0, 0, 1.0), seq, (0j,) * k, z2, 1e-9).value
    assert (math.copysign(1.0, value.real), math.copysign(1.0, value.imag)) == (1.0, 1.0)


def _twins(coeffs):
    """coeffs, and copies of it that differ only in the sign of a zero or hold a NaN."""
    return [coeffs] + [coeffs + (c,) for c in (0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                                                 complex(math.nan, 0.0))]


@st.composite
def _repeating_tables(draw):
    """table_sequence whose rows repeat a few coefficient tuples and their twins, or
    whose rows are all distinct."""
    k = draw(st.sampled_from((1, 2, 3)))
    max_norm = draw(st.integers(1, 6))
    indices = list(map(tuple, _index_rows(k, max_norm).tolist()))
    if draw(st.booleans()):   # row r leads with r + 1
        rows = [(complex(r + 1),) + draw(_COEFFS) for r in range(len(indices))]
    else:
        pool = [c for _ in range(draw(st.integers(1, 3))) for c in _twins(draw(_COEFFS))]
        rows = [draw(st.sampled_from(pool)) for _ in indices]
    return table_sequence({idx: Polynomial1D(c) for idx, c in zip(indices, rows)},
                          max_norm, k)


@given(_repeating_tables(), _POINTS, st.integers(1, 400), st.data())
@settings(max_examples=80, deadline=None)
def test_norm_peaks_of_repeated_rows_bit_identical_to_polyval(seq, points, chunk_cells, data):
    zs = np.asarray(points, dtype=np.complex128)
    lo = data.draw(st.integers(0, seq.max_norm))
    hi = data.draw(st.integers(lo, seq.max_norm))
    with mock.patch.object(extension, "_CHUNK_CELLS", chunk_cells):
        peaks = seq.norm_peaks(zs, lo, hi)
    for j in range(lo, hi + 1):
        expect = np.max([np.abs(seq.poly(idx)(zs)) for idx in _indices(seq, j, j)], axis=0)
        nan = np.isnan(expect)
        assert np.array_equal(np.isnan(peaks[j - lo]), nan)
        assert peaks[j - lo][~nan].tobytes() == expect[~nan].tobytes()

    row_bytes = [_row_coeffs(seq, r).tobytes() for r in range(len(seq.blocks))]
    for r, q in itertools.combinations(range(len(row_bytes)), 2):
        assert (seq.blocks[r] == seq.blocks[q]) == (row_bytes[r] == row_bytes[q])


def _shifted_geometric(lam: float, center: complex, max_norm: int):
    """P_n(z) = (lam (z - center))^n, expanded; its values are not radial about 0."""
    return table_sequence({(n,): Polynomial1D(tuple(lam ** n * math.comb(n, d)
                                                    * (-center) ** (n - d) for d in range(n + 1)))
                           for n in range(max_norm + 1)}, max_norm)


# strict_stratum: i = 2, and the stratum is the 0.3 circle, half of the samples.
# shifted: i = 1, and the stratum is the 63 samples within 0.5 of 0.3
STRATA_CASES = {**CARRIED_CASES,
                "strict_stratum": ("extension", geometric_sequence(4, 60), RING, None),
                "shifted": ("extension", _shifted_geometric(2.0, 0.3, 30), RING, None)}


@pytest.mark.parametrize("case", list(STRATA_CASES))
def test_uniform_bound_window_peaks_change_nothing(case):
    _, seq, samples, config = STRATA_CASES[case]
    profile = radius_profile(seq, samples, seq.max_norm // 2)
    i, stratum, est = stratify_and_find_nonpolar(profile)
    cols = [r >= 1.0 / i for _, r in profile.samples]
    assert sum(cols) == len(stratum.points)
    if case in ("strict_stratum", "shifted"):
        assert (i, len(stratum.points)) == {"strict_stratum": (2, 100), "shifted": (1, 63)}[case]
    rho0 = i / (config or ExtendConfig()).theta
    shared = uniform_bound_compact(seq, stratum, rho0, stratum_est=est,
                                   window_peaks=profile.peaks[:, cols])
    assert repr(shared) == repr(uniform_bound_compact(seq, stratum, rho0, stratum_est=est))


@pytest.mark.parametrize("case", list(STRATA_CASES))
def test_extend_with_window_peaks_matches_full_pass(monkeypatch, case):
    shared = json.dumps(certificate_to_json(_run_certify(*STRATA_CASES[case])))
    stage = uniform_bound_compact

    def full_pass(*args, window_peaks=None, **kwargs):
        assert window_peaks is not None
        return stage(*args, **kwargs)

    monkeypatch.setattr(sys.modules["holocap.extension"], "uniform_bound_compact", full_pass)
    assert json.dumps(certificate_to_json(_run_certify(*STRATA_CASES[case]))) == shared


def test_extend_evaluates_the_window_once(monkeypatch):
    peaks, calls = PolynomialSequence.norm_peaks, []

    def recorded(self, zs, lo, hi):
        calls.append((len(zs), lo, hi))
        return peaks(self, zs, lo, hi)

    monkeypatch.setattr(PolynomialSequence, "norm_peaks", recorded)
    _run_certify(*STRATA_CASES["strict_stratum"])
    # the profile's window on all 200 samples, then the norms below it on the stratum
    assert calls == [(200, 31, 60), (100, 0, 30)]


@given(_table_sequences(coeffs=_WIDE_COEFFS), st.sampled_from((0.4, 1.0, 2.5, 1e10)),
       st.sampled_from((0.5, 3.0, 4.0)), st.integers(1, 100), st.data())
@settings(max_examples=30, deadline=None)
def test_uniform_bound_window_peaks_match_reference_pass(seq, radius, rho0, chunk_cells, data):
    samples = [radius * z for z in CIRCLE[::10]] + [2 * radius * z for z in CIRCLE[5::10]]
    with mock.patch.object(extension, "_CHUNK_CELLS", chunk_cells), np.errstate(all="ignore"):
        profile = radius_profile(seq, samples, _window(data, seq))
        cut = data.draw(st.sampled_from(sorted({r for _, r in profile.samples})))
        cols = [r >= cut for _, r in profile.samples]
        stratum = PointCloud(tuple(z for (z, r) in profile.samples if r >= cut))
        args = (seq, stratum, rho0, 1e-4)

        def shared(*args):
            return uniform_bound_compact(*args, window_peaks=profile.peaks[:, cols])

        outcome = _outcome(shared, *args)
        assert outcome == _outcome(uniform_bound_compact, *args)
        assert outcome == _outcome(_ref_uniform_bound_compact, *args)


# ---------------------------------------------------------------------------
# sequence arrays and evaluate: bit-identity with the per-index code they replaced
# ---------------------------------------------------------------------------

# Frozen copies of the recursive enumeration, the per-index providers of the
# builtin families and the table build that read them one index at a time.

def _ref_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _ref_compositions(total - first, parts - 1):
            yield (first,) + rest


def _ref_geometric(lam):
    lam = complex(lam)
    return lambda idx: Polynomial1D((0,) * sum(idx) + (lam ** sum(idx),))


def _ref_constant(value):
    p = Polynomial1D((complex(value),))
    return lambda idx: p


def _ref_delta(value):
    unit, zero = Polynomial1D((complex(value),)), Polynomial1D((0j,))
    return lambda idx: unit if sum(idx) == 0 else zero


def _ref_sqrt_degree():
    return lambda idx: Polynomial1D((0,) * math.isqrt(sum(idx)) + (1,))


def _ref_arrays(provider, k, max_norm):
    indices = [e for j in range(max_norm + 1) for e in _ref_compositions(j, k)]
    polys = [provider(idx) for idx in indices]
    entries = np.array(indices, dtype=np.int64).reshape(-1, k)
    norms = entries.sum(axis=1)
    return {"entries": entries, "norms": norms,
            "degrees": np.array([p.degree for p in polys], dtype=np.float64),
            "starts": np.searchsorted(norms, np.arange(max_norm + 2)),
            "rows": [np.array(p.coefficients or (0j,), dtype=np.complex128) for p in polys]}


def _row_coeffs(seq, r):
    """Row r's coefficients, read through its block."""
    b = seq.blocks[r]
    return seq.coeffs[seq.offsets[b]:seq.offsets[b] + seq.counts[b]]


def _assert_arrays_equal(seq, ref):
    assert (seq.k, seq.max_norm) == (ref["entries"].shape[1], len(ref["starts"]) - 2)
    for name in ("entries", "norms", "degrees", "starts"):
        got, want = getattr(seq, name), ref[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    assert seq.blocks.shape == (len(ref["rows"]),)
    for r, want in enumerate(ref["rows"]):
        got = _row_coeffs(seq, r)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), r
        assert got.tobytes() == want.tobytes(), r


_FAMILIES = [(geometric_sequence, (1.0,), _ref_geometric(1.0)),
             (geometric_sequence, (0.7 + 0.3j,), _ref_geometric(0.7 + 0.3j)),
             (geometric_sequence, (-3 + 2j,), _ref_geometric(-3 + 2j)),
             (geometric_sequence, (0,), _ref_geometric(0)),
             (constant_sequence, (2 - 1j,), _ref_constant(2 - 1j)),
             (constant_sequence, (0,), _ref_constant(0)),
             # the ring's unit, a one-entry table, has the per-index delta family's arrays
             (delta_sequence, (7,), _ref_delta(7)),
             (delta_sequence, (0,), _ref_delta(0)),
             (sqrt_degree_sequence, (), _ref_sqrt_degree())]


@pytest.mark.parametrize("family", _FAMILIES,
                         ids=lambda f: f"{f[0].__name__[:-9]}{f[1]}".replace(" ", ""))
@pytest.mark.parametrize("k, max_norm", [(1, 0), (1, 30), (2, 1), (2, 9), (3, 7), (4, 5)])
def test_builtin_family_arrays_match_reference(family, k, max_norm):
    build, args, provider = family
    _assert_arrays_equal(build(*args, max_norm, k), _ref_arrays(provider, k, max_norm))


@pytest.mark.parametrize("family", [f for f in _FAMILIES if f[0] is not delta_sequence],
                         ids=lambda f: f"{f[0].__name__[:-9]}{f[1]}".replace(" ", ""))
@pytest.mark.parametrize("k, max_norm", [(1, 30), (3, 7)])
def test_builtin_family_stores_one_block_per_norm(family, k, max_norm):
    build, args, provider = family
    seq = build(*args, max_norm, k)
    per_norm = [len(provider((j,) + (0,) * (k - 1)).coefficients)
                for j in range(max_norm + 1)]
    assert len(seq.counts) == max_norm + 1 and seq.counts.tolist() == per_norm
    assert len(seq.coeffs) == sum(per_norm)
    assert seq.blocks.tolist() == seq.norms.tolist()


@st.composite
def _tables(draw):
    """(entries, max_norm, k) of a table_sequence; some entries lie beyond max_norm."""
    k = draw(st.sampled_from((1, 2, 3)))
    max_norm = draw(st.integers(0, 5))
    entries = {idx: Polynomial1D(draw(_COEFFS))
               for idx in map(tuple, _index_rows(k, max_norm + 1).tolist())
               if draw(st.booleans())}
    return entries, max_norm, k


@given(_tables())
@settings(max_examples=60, deadline=None)
def test_table_arrays_match_reference(table):
    entries, max_norm, k = table
    zero = Polynomial1D((0j,))
    ref = _ref_arrays(lambda idx: entries.get(idx, zero), k, max_norm)
    _assert_arrays_equal(table_sequence(entries, max_norm, k), ref)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_iter_indices_match_recursive_enumeration(k):
    rows = [e for j in range(9) for e in _ref_compositions(j, k)]
    assert [extension._row(e, k) for e in rows] == list(range(len(rows)))
    for max_norm in range(9):
        want = rows[:math.comb(max_norm + k, k)]   # the indices of norm <= max_norm
        assert list(map(tuple, _index_rows(k, max_norm).tolist())) == want
    seq = constant_sequence(1, 8, k)   # its rows of norm lo to hi, by seq.starts
    for lo in range(9):
        for hi in range(lo, 9):
            assert _indices(seq, lo, hi) == [e for e in rows if lo <= sum(e) <= hi]


@pytest.mark.parametrize("index, message", [
    ((-1,), "table index (-1,) must have length 1"),
    ((1, 2), "table index (1, 2) must have length 1"),
    ((1.5,), "table index (1.5,) must have length 1"),
    ((True,), "table index (True,) must have length 1"),
], ids=["negative", "too_long", "fractional", "bool"])
def test_table_sequence_rejects_malformed_index(index, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        table_sequence({index: Polynomial1D((1,))}, 4)


def _ref_z1_power(z1, idx):
    if len(z1) == 1:
        return z1[0] ** idx[0]
    out = 1.0 + 0j
    for c, e in zip(z1, idx):
        out *= c ** e
    return out


def _ref_evaluate(cert, seq, z1, z2, tol):
    """The per-index evaluate loop: one polyval per index, in row order."""
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
    if r1 == 0.0:
        zero_idx = (0,) * k
        # added to 0j, as the partial sum below is: a zero's sign is not published
        return extension.EvaluationResult(value=0j + complex(seq.poly(zero_idx)(z2)),
                                          tail_bound=0.0, terms_used=0)
    g = float(cert.green()(z2))
    q = cert.rho1 * math.exp(cert.tail_slope * g) * r1
    if q >= 1.0:
        raise OutsideCertifiedDomain(
            f"q = {q:.6g} >= 1 at z1 norm {r1:.6g}, z2 = {z2}")
    amp = cert.M0 * math.exp(cert.C0 * g)

    def tail_at(n):
        c = (n + k) / (n + 1)
        if c * q >= 1.0:
            return math.inf
        return amp * math.comb(n + k - 1, k - 1) * q ** (n + 1) * c / (1.0 - c * q)

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
    for idx in _indices(seq, 0, n_used):
        value += complex(seq.poly(idx)(z2)) * _ref_z1_power(coords, idx)
    return extension.EvaluationResult(value=value, tail_bound=tail_at(n_used),
                                      terms_used=n_used)


def _family_sequences():
    lam = st.one_of(st.just(0j), _polar(0.1, 3.0))
    return st.builds(lambda build, k, max_norm: build(k, max_norm),
                     st.sampled_from([
                         lambda k, n, lam=l: geometric_sequence(lam, n, k) for l in
                         (1.0, 0.6 - 0.2j, 2.5j)] + [
                         lambda k, n: constant_sequence(1.5 - 0.5j, n, k),
                         lambda k, n: delta_sequence(3, n, k),
                         lambda k, n: sqrt_degree_sequence(n, k)]),
                     st.sampled_from((1, 2, 3)), st.integers(1, 12))


def _disk_cert(rho1, m0, c0, slope, start, radius):
    return ExtensionCertificate(rho0=2.0, rho1=rho1, M0=m0, C0=c0, C1=slope, gammaC=0.0,
                                C2=1.0, exponent=slope, witness=Disk(0, radius), N_used=0,
                                thresholds={"tail_slope": slope, "tail_start": start})


@given(st.one_of(_table_sequences(), _family_sequences()), st.data())
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_reference(seq, data):
    cert = _disk_cert(data.draw(st.floats(0.3, 3.0)), data.draw(st.floats(1.0, 10.0)),
                      data.draw(st.sampled_from((0.0, 1.0, 2.0))),
                      data.draw(st.sampled_from((0.0, 0.5, 1.0))),
                      data.draw(st.integers(0, seq.max_norm)),
                      data.draw(st.sampled_from((0.5, 1.0, 2.0))))
    z2 = data.draw(_polar(1e-3, 10.0))
    # q = share: 0 is the z1 = 0 branch, >= 1 lies outside the certified domain
    share = data.draw(st.one_of(st.just(0.0), st.floats(0.01, 0.9), st.floats(1.0, 1.5)))
    r1 = share / (cert.rho1 * math.exp(cert.tail_slope * float(cert.green()(z2))))
    z1 = tuple(r1 * data.draw(st.sampled_from((1.0, 0.5, 0.1)))
               * cmath.exp(1j * data.draw(st.floats(0.0, 2.0 * math.pi))) for _ in range(seq.k))
    z1 = z1[0] if seq.k == 1 and data.draw(st.booleans()) else z1
    tol = data.draw(st.sampled_from((1e-2, 1e-5, 1e-9, 1e-13)))
    args = (cert, seq, z1, z2, tol)
    assert _outcome(evaluate, *args) == _outcome(_ref_evaluate, *args)


@pytest.mark.parametrize("z1, tol, kind", [
    ((0j, 0j), 1e-9, "ok"),
    ((0.05 + 0.01j, -0.02j), 1e-9, "ok"),
    ((0.3, 0.28j), 1e-12, "InsufficientData"),
    ((0.9, 0.1), 1e-9, "OutsideCertifiedDomain"),
], ids=["z1_zero", "inside", "insufficient", "outside"])
def test_evaluate_matches_reference_at_each_outcome(z1, tol, kind):
    seq = geometric_sequence(0.8 - 0.3j, 12, k=2)
    args = (_disk_cert(1.2, 1.0, 0.0, 1.0, 0, 1.0), seq, z1, 0.7 + 0.2j, tol)
    assert _outcome(evaluate, *args) == _outcome(_ref_evaluate, *args)
    assert _outcome(evaluate, *args)[0] == kind


# ---------------------------------------------------------------------------
# sequence JSON
# ---------------------------------------------------------------------------

def test_sequence_from_json_builtins():
    geo = sequence_from_json({"kind": "geometric", "lambda": [2, 0], "max_norm": 10})
    assert geo.poly((3,)).coefficients[-1] == 8.0
    const = sequence_from_json({"kind": "constant", "value": [3, 1], "max_norm": 5})
    assert const.poly((4,)).coefficients == (3 + 1j,)
    sq = sequence_from_json({"kind": "sqrt_degree", "max_norm": 50})
    assert sq.poly((49,)).degree == 7
    table = sequence_from_json({
        "kind": "table", "max_norm": 2,
        "entries": [{"index": [0], "coefficients": [[1, 0]]},
                    {"index": [2], "coefficients": [[0, 0], [0, 1]]}],
        "declared_C0": 0.0, "declared_C1": 0.5,
    })
    assert table.poly((2,)).coefficients == (0j, 1j)
    assert table.poly((1,)).is_zero
    assert fit_degree_growth(table) == (0.0, 0.5)
