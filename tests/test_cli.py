import csv
import json
import math

import numpy as np
import pytest

from holocap.cli import main

DISK = {"shape": "disk", "center": [0, 0], "radius": 1.0}
SEGMENT = {"shape": "segment", "a": [-1, 0], "b": [1, 0]}
POINT = {"shape": "cloud", "points": [[0, 0]]}
# 100 distinct unit-circle points, each listed twice
DUPLICATED_CIRCLE = {"shape": "cloud", "points": 2 * [
    [math.cos(2 * math.pi * k / 100), math.sin(2 * math.pi * k / 100)] for k in range(100)]}
GEOMETRIC = {"kind": "geometric", "lambda": [1, 0], "max_norm": 60}
CIRCLE_SAMPLES = [[math.cos(2 * math.pi * k / 200), math.sin(2 * math.pi * k / 200)]
                  for k in range(200)]


def write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def write_points_csv(path, points):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["re", "im"])
        for z in points:
            w.writerow([z.real, z.imag])
    return str(path)


def test_cap_disk(tmp_path):
    set_path = write(tmp_path / "disk.json", DISK)
    out = tmp_path / "est.json"
    assert main(["cap", "--set", set_path, "--n", "128", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["capacity"]["value"] - 1.0) <= 0.1
    assert not doc["capacity"]["polar"]
    assert doc["manifest"]["command"] == "cap"
    rows = list(csv.reader(open(tmp_path / "est_dn.csv")))
    assert rows[0] == ["n", "d_n"]
    ds = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))


def test_cap_segment(tmp_path):
    set_path = write(tmp_path / "seg.json", SEGMENT)
    out = tmp_path / "est.json"
    assert main(["cap", "--set", set_path, "--n", "128", "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["capacity"]["value"] - 0.5) <= 0.05


def test_cap_polar_cloud_reports_flag_exit_zero(tmp_path):
    set_path = write(tmp_path / "pt.json", POINT)
    out = tmp_path / "est.json"
    assert main(["cap", "--set", set_path, "--n", "128", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["capacity"]["value"] == 0.0
    assert doc["capacity"]["polar"]


def test_cap_malformed_json_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["cap", "--set", str(bad), "--out", str(tmp_path / "o.json")]) == 2


def test_green_values(tmp_path):
    set_path = write(tmp_path / "disk.json", DISK)
    pts_path = write_points_csv(tmp_path / "pts.csv", [2 + 0j, 0.3 + 0j])
    out = tmp_path / "green.csv"
    assert main(["green", "--set", set_path, "--points", pts_path, "--out", str(out)]) == 0
    rows = list(csv.reader(open(out)))[1:]
    assert float(rows[0][2]) == pytest.approx(math.log(2), abs=1e-9)
    assert float(rows[1][2]) == 0.0
    manifest = json.loads((tmp_path / "green.csv.manifest.json").read_text())
    assert manifest["manifest"]["command"] == "green"

    seg_path = write(tmp_path / "seg.json", SEGMENT)
    out2 = tmp_path / "green2.csv"
    assert main(["green", "--set", seg_path, "--points", pts_path, "--out", str(out2)]) == 0
    rows = list(csv.reader(open(out2)))[1:]
    assert float(rows[0][2]) == pytest.approx(math.log(2 + math.sqrt(3)), abs=1e-9)

    cloud_path = write(tmp_path / "cloud.json", DUPLICATED_CIRCLE)
    out3 = tmp_path / "green3.csv"
    assert main(["green", "--set", cloud_path, "--points", pts_path, "--out", str(out3)]) == 0
    rows = list(csv.reader(open(out3)))[1:]
    assert float(rows[0][2]) == pytest.approx(math.log(2), abs=0.02)


def test_green_polar_exit_three(tmp_path):
    set_path = write(tmp_path / "pt.json", POINT)
    pts_path = write_points_csv(tmp_path / "pts.csv", [2 + 0j])
    code = main(["green", "--set", set_path, "--points", pts_path,
                 "--out", str(tmp_path / "g.csv")])
    assert code == 3


def test_bernstein_report(tmp_path):
    poly_path = write(tmp_path / "p.json", {"coefficients": [[0, 0], [-3, 0], [0, 0], [4, 0]]})
    set_path = write(tmp_path / "seg.json", SEGMENT)
    pts = [2 * complex(math.cos(a), math.sin(a)) for a in np.linspace(0, 6, 20)]
    pts_path = write_points_csv(tmp_path / "pts.csv", pts)
    out = tmp_path / "report.json"
    assert main(["bernstein", "--poly", poly_path, "--set", set_path,
                 "--points", pts_path, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"]
    assert len(doc["checks"]) == 20

    cloud_path = write(tmp_path / "cloud.json", DUPLICATED_CIRCLE)
    out2 = tmp_path / "report2.json"
    assert main(["bernstein", "--poly", poly_path, "--set", cloud_path,
                 "--points", pts_path, "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["all_passed"]


def test_gammacap_command_and_reproducibility(tmp_path):
    pred = {"kind": "product", "factors": [DISK, DISK]}
    pred_path = write(tmp_path / "pred.json", pred)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gammacap", "--set", pred_path, "--unitaries", "2",
                 "--seed", "5", "--out", str(out_a)]) == 0
    assert main(["gammacap", "--set", pred_path, "--unitaries", "2",
                 "--seed", "5", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    # the identity floor is ~1; a rotated bidisk can shadow up to sqrt(2)
    assert 0.9 <= doc["value"] <= 1.5
    assert doc["per_unitary"][0][1] >= 0.9


def test_extend_eval_round_trip(tmp_path):
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    cert_a, cert_b = tmp_path / "cert_a.json", tmp_path / "cert_b.json"
    assert main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(cert_a)]) == 0
    assert main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(cert_b)]) == 0
    assert cert_a.read_bytes() == cert_b.read_bytes()

    doc = json.loads(cert_a.read_text())
    assert doc["C1"] == 1.0
    curve = list(csv.reader(open(tmp_path / "cert_a_domain.csv")))
    assert curve[0] == ["abs_z2", "certified_radius"]
    assert len(curve) == 201
    radii = [float(r[1]) for r in curve[1:]]  # every cell parses as a plain float
    assert all(b <= a for a, b in zip(radii, radii[1:]))  # radius shrinks with |z2|

    out = tmp_path / "value.json"
    assert main(["eval", "--cert", str(cert_a), "--seq", seq_path,
                 "--z1", "0.1+0j", "--z2", "2+0j", "--tol", "1e-10",
                 "--out", str(out)]) == 0
    value = json.loads(out.read_text())["value"]
    assert abs(complex(value[0], value[1]) - 1.25) <= 1e-10


def test_extend_uniform_mode(tmp_path):
    seq_path = write(tmp_path / "seq.json", {"kind": "sqrt_degree", "max_norm": 400})
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    cfg_path = write(tmp_path / "cfg.json", {"mode": "uniform"})
    out = tmp_path / "cert.json"
    assert main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--config", cfg_path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["exponent"] == 0.0


def test_extend_single_point_exit_three(tmp_path, capsys):
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", [[1.0, 0.0]])
    code = main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(tmp_path / "c.json")])
    assert code == 3
    assert "stratify" in capsys.readouterr().err


def test_eval_outside_domain_exit_three(tmp_path, capsys):
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    cert = tmp_path / "cert.json"
    assert main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(cert)]) == 0
    code = main(["eval", "--cert", str(cert), "--seq", seq_path,
                 "--z1", "0.9+0j", "--z2", "2+0j", "--tol", "1e-10",
                 "--out", str(tmp_path / "v.json")])
    assert code == 3
    assert "OutsideCertifiedDomain" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, message", [
    ({"theta": 0}, "'theta' must be finite and > 0"),
    ({"window": "5"}, "'window' must be an integer"),
], ids=["theta_zero", "window_string"])
def test_extend_invalid_config_exit_two(tmp_path, capsys, cfg, message):
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    cfg_path = write(tmp_path / "cfg.json", cfg)
    code = main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--config", cfg_path, "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_extend_overflowing_coefficients_exit_two(tmp_path, capsys):
    seq_path = write(tmp_path / "seq.json",
                     {"kind": "geometric", "lambda": [1e200, 0], "max_norm": 60})
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    code = main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("z1, z2, tol", [
    ("0.1+0j", "nan", "1e-10"),
    ("nan", "2+0j", "1e-10"),
    ("0.1+0j", "2+0j", "inf"),
], ids=["z2_nan", "z1_nan", "tol_inf"])
def test_eval_non_finite_input_exit_two(tmp_path, capsys, z1, z2, tol):
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    cert = tmp_path / "cert.json"
    assert main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(cert)]) == 0
    out = tmp_path / "v.json"
    code = main(["eval", "--cert", str(cert), "--seq", seq_path, "--z1", z1,
                 "--z2", z2, "--tol", tol, "--out", str(out)])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()
