"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, none is configurable.
"""

import csv
import functools
import json
import math
import time

import numpy as np
import pytest

from holocap.bernstein import Polynomial1D, verify_bernstein
from holocap.capacity import FEKETE_N, capacity, fekete_green, green_function, robin_constant
from holocap.cli import main
from holocap.extension import (
    MultiIndex,
    certify_extension,
    certify_uniform,
    evaluate,
    fit_degree_growth,
    geometric_sequence,
    ring_multiply,
    sqrt_degree_sequence,
    table_sequence,
)
from holocap.errors import NotSublinear
from holocap.gamma import gamma_cap, product_predicate
from holocap.sets import Disk, PointCloud, Segment

CIRCLE_200 = [complex(math.cos(2 * math.pi * k / 200), math.sin(2 * math.pi * k / 200))
              for k in range(200)]


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            line = f"criterion {num} ({name}): PASS"
            if detail:
                line += f" [{detail}]"
            print(line)
        return wrapper
    return deco


@criterion(1, "capacity oracles")
def test_criterion_1_capacity_oracles():
    t0 = time.perf_counter()
    disk = capacity(Disk(0, 1), 128, candidates=4096)
    t_disk = time.perf_counter() - t0
    t0 = time.perf_counter()
    seg = capacity(Segment(-1, 1), 128, candidates=4096)
    t_seg = time.perf_counter() - t0

    assert abs(disk.value - 1.0) <= 0.10 * 1.0
    assert abs(seg.value - 0.5) <= 0.10 * 0.5
    assert t_disk < 10.0 and t_seg < 10.0
    for est in (disk, seg):
        ds = [d for _, d in est.fekete.diameter_sequence]
        assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))
    return f"disk {disk.value:.4f} in {t_disk:.2f}s, segment {seg.value:.4f} in {t_seg:.2f}s"


@criterion(2, "Green/Robin oracles")
def test_criterion_2_green_robin():
    zs = 2.0 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False))
    g_analytic = green_function(Disk(0, 1))
    err_analytic = float(np.max(np.abs(g_analytic(zs) - np.log(np.abs(zs)))))
    assert err_analytic < 1e-12

    g_fekete = fekete_green(Disk(0, 1), capacity(Disk(0, 1), FEKETE_N))
    err_fekete = float(np.max(np.abs(g_fekete(zs) - np.log(np.abs(zs)))))
    assert err_fekete < 0.02

    robin = robin_constant(Segment(-1, 1))
    assert abs(robin - math.log(2)) <= 0.10 * math.log(2)
    # the transfinite-diameter estimate agrees at the same tolerance
    est = -math.log(capacity(Segment(-1, 1), 128).value)
    assert abs(est - math.log(2)) <= 0.10 * math.log(2)
    return f"analytic {err_analytic:.2e}, fekete {err_fekete:.2e}, robin {robin:.4f}"


@criterion(3, "Bernstein suite")
def test_criterion_3_bernstein_suite():
    rng = np.random.default_rng(2024)
    sets = (Disk(0, 1), Segment(-1, 1))
    violations = 0
    checks = 0
    for _ in range(200):
        deg = int(rng.integers(0, 21))
        coeffs = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
        scale = np.abs(coeffs)
        coeffs = np.where(scale > 1.0, coeffs / scale, coeffs)  # modulus <= 1
        p = Polynomial1D(tuple(coeffs))
        radii = rng.uniform(1.5, 3.0, 100)
        angles = rng.uniform(0.0, 2.0 * np.pi, 100)
        points = radii * np.exp(1j * angles)
        for s in sets:
            report = verify_bernstein(p, s, points)
            checks += len(report.checks)
            violations += sum(not c.passed for c in report.checks)
    assert violations == 0

    for n in range(1, 9):
        p = Polynomial1D((0,) * n + (1,))
        for r in (2.0, 5.0):
            report = verify_bernstein(p, Disk(0, 1), [r * np.exp(0.3j)])
            assert abs(report.checks[0].ratio - 1.0) <= 1e-9
    return f"{checks} checks, 0 violations, monomial ratios sharp"


@criterion(4, "projection capacity dichotomy")
def test_criterion_4_gamma_dichotomy():
    bidisk = product_predicate([Disk(0, 1), Disk(0, 1)])
    t0 = time.perf_counter()
    fat = gamma_cap(bidisk, unitary_count=1, seed=0)
    t_fat = time.perf_counter() - t0
    assert 0.9 <= fat.value <= 1.1
    assert t_fat < 60.0

    line = product_predicate([Disk(0, 1.5), PointCloud((0j,))])
    t0 = time.perf_counter()
    polar = gamma_cap(line, unitary_count=16, seed=42)
    t_polar = time.perf_counter() - t0
    assert polar.value < 1e-3
    assert t_polar < 60.0
    return f"bidisk {fat.value:.4f} in {t_fat:.2f}s, line {polar.value:.1e} in {t_polar:.2f}s"


@criterion(5, "end-to-end extension")
def test_criterion_5_end_to_end():
    t_start = time.perf_counter()
    rng = np.random.default_rng(31)
    radii = np.geomspace(0.1, 100.0, 100)
    for lam in (1, 2, 1 + 1j):
        seq = geometric_sequence(lam, 60)
        cert = certify_extension(seq, CIRCLE_200)
        assert (cert.C0, cert.C1) == (0.0, 1.0)
        assert cert.C2 >= 0.5 / abs(lam)

        for r in radii:
            z2 = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            assert cert.certified_radius(z2) <= 1.0 / (abs(lam) * abs(z2))

        for r in radii:
            z2 = complex(r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            z1 = complex(0.5 * cert.certified_radius(z2)
                         * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            got = evaluate(cert, seq, z1, z2, tol=1e-9)
            truth = 1.0 / (1.0 - lam * z1 * z2)
            assert abs(got.value - truth) <= 1e-8
    elapsed = time.perf_counter() - t_start
    assert elapsed < 30.0
    return f"3 families certified and matched in {elapsed:.2f}s"


@criterion(6, "uniform-domain variant")
def test_criterion_6_uniform_variant():
    cert = certify_uniform(sqrt_degree_sequence(400), CIRCLE_200)
    assert cert.exponent == 0.0
    with pytest.raises(NotSublinear):
        certify_uniform(geometric_sequence(1, 60), CIRCLE_200)
    return f"sqrt family C2 {cert.C2:.4f}, geometric rejected"


@criterion(7, "ring closure")
def test_criterion_7_ring_closure():
    rng = np.random.default_rng(404)

    def random_sequence(n_max):
        entries = {}
        for n in range(n_max + 1):
            deg = int(rng.integers(0, 7))
            coeffs = rng.integers(-9, 10, deg + 1).astype(float)
            if coeffs[-1] == 0:
                coeffs[-1] = 1.0
            entries[(n,)] = Polynomial1D(tuple(complex(c) for c in coeffs))
        return table_sequence(entries, max_norm=n_max)

    for _ in range(20):
        f, g = random_sequence(10), random_sequence(10)
        c0f, c1f = fit_degree_growth(f)
        c0g, c1g = fit_degree_growth(g)
        prod = ring_multiply(f, g, 10)
        c0p, c1p = fit_degree_growth(prod)
        assert c0p <= c0f + c0g + 1e-12
        assert c1p <= max(c1f, c1g) + 1e-12

    f, g, h = random_sequence(8), random_sequence(8), random_sequence(8)
    left = ring_multiply(ring_multiply(f, g, 8), h, 8)
    right = ring_multiply(f, ring_multiply(g, h, 8), 8)
    for n in range(9):
        idx = MultiIndex((n,))
        assert left.poly(idx).coefficients == right.poly(idx).coefficients
    return "20 pairs closed, associativity exact"


@criterion(8, "negative paths via CLI")
def test_criterion_8_negative_paths(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    seq_path = write("seq.json", {"kind": "geometric", "lambda": [1, 0], "max_norm": 60})
    single = write("single.json", [[1.0, 0.0]])
    code = main(["extend", "--seq", seq_path, "--samples", single,
                 "--out", str(tmp_path / "cert.json")])
    err = capsys.readouterr().err
    assert code == 3 and "stratify" in err

    point_set = write("point.json", {"shape": "cloud", "points": [[0, 0]]})
    pts_path = tmp_path / "pts.csv"
    with open(pts_path, "w", newline="") as fh:
        csv.writer(fh).writerows([["re", "im"], [2.0, 0.0]])
    code = main(["green", "--set", point_set, "--points", str(pts_path),
                 "--out", str(tmp_path / "g.csv")])
    err = capsys.readouterr().err
    assert code == 3 and "GreenUndefinedPolarSet" in err

    samples = write("samples.json",
                    [[z.real, z.imag] for z in CIRCLE_200])
    cert_path = tmp_path / "cert_ok.json"
    assert main(["extend", "--seq", seq_path, "--samples", samples,
                 "--out", str(cert_path)]) == 0
    code = main(["eval", "--cert", str(cert_path), "--seq", seq_path,
                 "--z1", "0.9+0j", "--z2", "2+0j",
                 "--out", str(tmp_path / "v.json")])
    err = capsys.readouterr().err
    assert code == 3 and "OutsideCertifiedDomain" in err
    return "AllStrataPolar, GreenUndefinedPolarSet, OutsideCertifiedDomain all exit 3"


@criterion(9, "byte-identical reproducibility")
def test_criterion_9_reproducibility(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    seq_path = write("seq.json", {"kind": "geometric", "lambda": [2, 0], "max_norm": 60})
    samples = write("samples.json", [[z.real, z.imag] for z in CIRCLE_200])
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"cert_{tag}.json"
        assert main(["extend", "--seq", seq_path, "--samples", samples,
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    pred_path = write("pred.json", {"kind": "product", "factors": [
        {"shape": "disk", "center": [0, 0], "radius": 1.5},
        {"shape": "cloud", "points": [[0, 0]]},
    ]})
    gouts = []
    for tag in ("a", "b"):
        out = tmp_path / f"gamma_{tag}.json"
        assert main(["gammacap", "--set", pred_path, "--unitaries", "8",
                     "--seed", "77", "--out", str(out)]) == 0
        gouts.append(out.read_bytes())
    assert gouts[0] == gouts[1]
    return "extend and gammacap outputs byte-identical"
