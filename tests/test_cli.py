import builtins
import collections
import csv
import hashlib
import importlib
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocap import __version__, schema
from holocap.cli import COMMANDS, _dumps, _plain_args, build_parser, main
from holocap.extension import ExtensionCertificate

DISK = {"shape": "disk", "center": [0, 0], "radius": 1.0}
SEGMENT = {"shape": "segment", "a": [-1, 0], "b": [1, 0]}
POINT = {"shape": "cloud", "points": [[0, 0]]}
# 100 distinct unit-circle points, each listed twice
DUPLICATED_CIRCLE = {"shape": "cloud", "points": 2 * [
    [math.cos(2 * math.pi * k / 100), math.sin(2 * math.pi * k / 100)] for k in range(100)]}
GEOMETRIC = {"kind": "geometric", "lambda": [1, 0], "max_norm": 60}
EXTENT = "the set's extent is beyond the float range (its bounding box has no finite diagonal)"
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


@pytest.mark.parametrize("flag", ["--out", "--set"])
def test_flag_written_with_double_dash_exit_two(tmp_path, monkeypatch, capsys, flag):
    # the parser stores [] for --flag=--: refused by name before any read or solve
    line = {"--set": write(tmp_path / "disk.json", DISK), "--out": str(tmp_path / "est.json")}
    line[flag] = "--"
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open",
                        lambda f, *a, **k: opened.append(f) or real_open(f, *a, **k))
    monkeypatch.setattr("holocap.cli.capacity", lambda *a, **k: pytest.fail("solved"))
    assert main(["cap"] + [f"{f}={v}" for f, v in line.items()]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: argument {flag}: expected one value, got '--'\n"
    assert opened == []
    assert [p.name for p in tmp_path.iterdir()] == ["disk.json"]


@pytest.mark.parametrize("size, message", [
    (["--candidates", "-1"], "argument --candidates: expected a count >= 1, got -1"),
    (["--candidates", "0"], "argument --candidates: expected a count >= 1, got 0"),
    # an n x N matrix beyond cli.MATRIX_BYTES is refused before anything is allocated,
    # naming --n when n x n alone is beyond it
    (["--n", str(10 ** 11)], f"argument --n: a solve at n = {10 ** 11} over {10 ** 11} points "
     f"needs {8 * 10 ** 22} bytes, above the 4294967296-byte budget"),
    (["--n", str(10 ** 20)], f"argument --n: a solve at n = {10 ** 20} over {10 ** 20} points "
     f"needs {8 * 10 ** 40} bytes, above the 4294967296-byte budget"),
    (["--candidates", str(10 ** 20)], f"argument --candidates: a solve at n = 128 over "
     f"{10 ** 20} points needs {1024 * 10 ** 20} bytes, above the 4294967296-byte budget"),
    (["--n", "16384", "--candidates", "32769"], "argument --candidates: a solve at n = 16384 "
     "over 32769 points needs 4295098368 bytes, above the 4294967296-byte budget"),
], ids=["candidates_negative", "candidates_zero", "n_unallocatable", "n_beyond_index_range",
        "candidates_beyond_index_range", "candidates_one_past_budget"])
def test_cap_size_flags_exit_two(tmp_path, capsys, monkeypatch, size, message):
    monkeypatch.setattr("holocap.cli.capacity", lambda *a, **k: pytest.fail("solved"))
    out = tmp_path / "est.json"
    argv = ["cap", "--set", write(tmp_path / "seg.json", SEGMENT), "--out", str(out)]
    assert main(argv + size) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


def test_cap_cloud_is_not_sized_by_the_flags(tmp_path):
    # a cloud is solved at min(n, distinct points) over its own points
    out = tmp_path / "est.json"
    argv = ["cap", "--set", write(tmp_path / "cloud.json", DUPLICATED_CIRCLE), "--out", str(out),
            "--n", str(10 ** 20), "--candidates", str(10 ** 20)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["capacity"]["n_used"] == 100


def test_cap_matrix_at_the_budget_is_attempted(tmp_path, capsys, monkeypatch):
    """16384 x 32768 doubles are exactly cli.MATRIX_BYTES: the solve is tried, and a
    MemoryError from it still names --n."""
    def unallocatable(set_, n, candidates):
        assert (n, candidates) == (16384, 32768)
        raise MemoryError
    monkeypatch.setattr("holocap.cli.capacity", unallocatable)
    argv = ["cap", "--set", write(tmp_path / "seg.json", SEGMENT), "--out", str(tmp_path / "e.json"),
            "--n", "16384", "--candidates", "32768"]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("input error: argument --n: a solve at n = 16384 does not "
                                       "fit in memory\n")


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


def test_bernstein_ignores_boundary_samples_key(tmp_path):
    # sets no longer carry a sample count; a document that still has one (an
    # old certificate witness, say) reads as the same set, even at a count
    # no array could hold
    poly_path = write(tmp_path / "p.json", {"coefficients": [[0.5, 0], [0, -1], [2, 0]]})
    pts_path = write_points_csv(tmp_path / "pts.csv", [2.5 + 0.5j, -3j, 1.5])
    reports = []
    for name, doc in (("plain", SEGMENT), ("keyed", {**SEGMENT, "boundary_samples": 10**11})):
        set_path, out = write(tmp_path / f"{name}_set.json", doc), tmp_path / f"{name}.json"
        assert main(["bernstein", "--poly", poly_path, "--set", set_path,
                     "--points", pts_path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        del report["manifest"]["input_digest"]
        reports.append(report)
    assert reports[0] == reports[1]


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


BALL = {"kind": "ball", "center": [[0, 0], [0, 0]], "radius": 1.0}


def _diagonal_image(d1, d2):
    return {"kind": "linear_image", "matrix": [[[d1, 0], [0, 0]], [[0, 0], [d2, 0]]], "of": BALL}


PAIR = "must be an [re, im] pair of finite numbers, got "


@pytest.mark.parametrize("pred, message", [
    ({**BALL, "radius": math.nan}, "predicate field 'radius' must be a finite number > 0, got nan"),
    ({**BALL, "radius": math.inf}, "predicate field 'radius' must be a finite number > 0, got inf"),
    ({**BALL, "radius": -1.0}, "predicate field 'radius' must be a finite number > 0, got -1.0"),
    ({**BALL, "center": [[0, math.nan], [0, 0]]},
     f"predicate field 'center' item 0 {PAIR}[0, nan]"),
    (_diagonal_image(math.nan, 1), f"predicate field 'matrix' item 0 item 0 {PAIR}[nan, 0]"),
    (_diagonal_image(1, math.inf), f"predicate field 'matrix' item 1 item 1 {PAIR}[inf, 0]"),
    (_diagonal_image(1, 0), "linear image 'matrix' is singular"),
], ids=["radius_nan", "radius_inf", "radius_negative", "center_nan", "matrix_nan",
        "matrix_inf", "matrix_singular"])
def test_gammacap_invalid_predicate_exit_two(tmp_path, capsys, pred, message):
    pred_path = write(tmp_path / "pred.json", pred)
    code = main(["gammacap", "--set", pred_path, "--out", str(tmp_path / "g.json")])
    assert code == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def _cloud_with(*bad):
    """A 20-point circle cloud with ``bad`` points put in from position 3 on."""
    points = [[math.cos(k / 3), math.sin(k / 3)] for k in range(20)]
    points[3:3 + len(bad)] = bad
    return {"shape": "cloud", "points": points}


def _samples_with(*bad):
    return CIRCLE_SAMPLES[:3] + list(bad) + CIRCLE_SAMPLES[3 + len(bad):]


TABLE = {"kind": "table", "max_norm": 2,
         "entries": [{"index": [0], "coefficients": [[1, 0]]},
                     {"index": [1], "coefficients": [[0, 0], [1]]}]}


@pytest.mark.parametrize("command, inputs, message", [
    ("cap", {"--set": {**DISK, "center": [1]}}, f"set field 'center' {PAIR}[1]"),
    ("cap", {"--set": {**DISK, "center": ["1", "0"]}}, f"set field 'center' {PAIR}['1', '0']"),
    ("cap", {"--set": {**DISK, "center": [True, 0]}}, f"set field 'center' {PAIR}[True, 0]"),
    ("cap", {"--set": {**SEGMENT, "b": [1, 0, 0]}}, f"set field 'b' {PAIR}[1, 0, 0]"),
    ("cap", {"--set": []}, "set must be an object, got []"),
    ("extend", {"--seq": {**GEOMETRIC, "lambda": [1]}, "--samples": CIRCLE_SAMPLES},
     f"sequence field 'lambda' {PAIR}[1]"),
    ("extend", {"--seq": {"kind": "constant", "value": 1, "max_norm": 4},
                "--samples": CIRCLE_SAMPLES}, f"sequence field 'value' {PAIR}1"),
    ("extend", {"--seq": TABLE, "--samples": CIRCLE_SAMPLES},
     f"sequence field 'entries' item 1 field 'coefficients' item 1 {PAIR}[1]"),
    ("extend", {"--seq": GEOMETRIC, "--samples": [[1]]}, f"samples item 0 {PAIR}[1]"),
    ("extend", {"--seq": [], "--samples": CIRCLE_SAMPLES}, "sequence must be an object, got []"),
    ("bernstein", {"--poly": {"coefficients": [[1]]}, "--set": SEGMENT,
                   "--points": "re,im\n2,0\n"},
     f"polynomial field 'coefficients' item 0 {PAIR}[1]"),
    ("gammacap", {"--set": {**BALL, "center": [[0], [0, 0]]}},
     f"predicate field 'center' item 0 {PAIR}[0]"),
    ("gammacap", {"--set": {**_diagonal_image(1, 1), "matrix": [[[1], [0, 0]], [[0, 0], [1, 0]]]}},
     f"predicate field 'matrix' item 0 item 0 {PAIR}[1]"),
    ("gammacap", {"--set": []}, "predicate must be an object, got []"),
    ("green", {"--set": DISK, "--points": "re,im\n2,0\n1.0\n"},
     f"line 3 {PAIR}[1.0]"),
    # non-finite samples and CSV rows are named (the parent went on with them)
    ("extend", {"--seq": GEOMETRIC, "--samples": _samples_with([math.nan, 0])},
     f"samples item 3 {PAIR}[nan, 0]"),
    ("green", {"--set": DISK, "--points": "re,im\n2,0\nnan,0\n"},
     f"line 3 {PAIR}[nan, 0.0]"),
    ("green", {"--set": DISK, "--points": "re,im\n2,0\n3,inf\n"},
     f"line 3 {PAIR}[3.0, inf]"),
    ("bernstein", {"--poly": {"coefficients": [[0, 0], [1, 0]]}, "--set": DISK,
                   "--points": "nan,0\n"}, f"line 1 {PAIR}[nan, 0.0]"),
    ("bernstein", {"--poly": {"coefficients": [[0, 0], [math.nan, 0]]}, "--set": DISK,
                   "--points": "2,0\n"}, f"polynomial field 'coefficients' item 1 {PAIR}[nan, 0]"),
    # point lists parsed in one pass name the first fault as the pair-by-pair parse does
    ("cap", {"--set": _cloud_with([True, 0])}, f"set field 'points' item 3 {PAIR}[True, 0]"),
    ("cap", {"--set": _cloud_with(["1", 0])}, f"set field 'points' item 3 {PAIR}['1', 0]"),
    ("cap", {"--set": _cloud_with([1, 0, 0])}, f"set field 'points' item 3 {PAIR}[1, 0, 0]"),
    ("cap", {"--set": _cloud_with([math.inf, 0])}, f"set field 'points' item 3 {PAIR}[inf, 0]"),
    ("cap", {"--set": _cloud_with([math.nan, 0], [True, 0])},
     f"set field 'points' item 3 {PAIR}[nan, 0]"),
    ("extend", {"--seq": GEOMETRIC, "--samples": _samples_with([True, 0])},
     f"samples item 3 {PAIR}[True, 0]"),
    ("extend", {"--seq": GEOMETRIC, "--samples": _samples_with(["1", 0])},
     f"samples item 3 {PAIR}['1', 0]"),
    ("extend", {"--seq": GEOMETRIC, "--samples": _samples_with([1, 0, 0])},
     f"samples item 3 {PAIR}[1, 0, 0]"),
    ("extend", {"--seq": GEOMETRIC, "--samples": _samples_with([math.nan, 0], [True, 0])},
     f"samples item 3 {PAIR}[nan, 0]"),
    # every number is a JSON number: no numeric string, no boolean
    ("cap", {"--set": {**DISK, "radius": "2"}},
     "set field 'radius' must be a finite number > 0, got '2'"),
    ("cap", {"--set": {**DISK, "radius": True}},
     "set field 'radius' must be a finite number > 0, got True"),
    ("gammacap", {"--set": {**BALL, "radius": "0.5"}},
     "predicate field 'radius' must be a finite number > 0, got '0.5'"),
    ("extend", {"--seq": {**TABLE, "entries": TABLE["entries"][:1], "declared_C1": True},
                "--samples": CIRCLE_SAMPLES},
     "sequence field 'declared_C1' must be a finite number >= 0, got True"),
    # a missing key, a value of the wrong JSON type and a count beyond int64 are named
    ("cap", {"--set": {"shape": "disk", "radius": 1.0}}, "set field 'center' is missing"),
    ("cap", {"--set": {"shape": "union", "parts": 5}}, "set field 'parts' must be a list, got 5"),
    ("cap", {"--set": {"shape": "union", "parts": [SEGMENT, {"shape": "disk", "center": [0, 0]}]}},
     "set field 'parts' item 1 field 'radius' is missing"),
    ("cap", {"--set": {"shape": "ring"}},
     "set field 'shape' must be one of 'disk', 'segment', 'cloud', 'union', got 'ring'"),
    ("extend", {"--seq": {**GEOMETRIC, "max_norm": 10 ** 20}, "--samples": CIRCLE_SAMPLES},
     "sequence field 'max_norm' must be an integer below 2**63, got 100000000000000000000"),
    # a power of lambda beyond the float range names lambda and the first such norm
    ("extend", {"--seq": {**GEOMETRIC, "lambda": [1e100, 0]},
                "--samples": [[0.9 * x, 0.9 * y] for x, y in CIRCLE_SAMPLES[::2]]},
     "sequence field 'lambda': (1e+100+0j) ** 4 overflows"),
    # a set whose extent is beyond the float range names its last field
    ("cap", {"--set": {**DISK, "radius": 1.7e308}}, f"set field 'radius': {EXTENT}"),
    ("bernstein", {"--poly": {"coefficients": [[1, 0]]}, "--points": "2,0\n",
                   "--set": {**SEGMENT, "a": [-1e308, 0], "b": [1e308, 0]}},
     f"set field 'b': {EXTENT}"),
    ("green", {"--points": "2,0\n", "--set": {"shape": "union", "parts": [
        {**DISK, "center": [-1e308, 0]}, {**DISK, "center": [1e308, 0]}]}},
     f"set field 'parts': {EXTENT}"),
], ids=["set_pair_short", "set_pair_strings", "set_pair_bool", "set_pair_long", "set_list",
        "lambda_short", "value_number", "coefficient_short", "sample_short", "sequence_list",
        "poly_coefficient_short", "ball_center_short", "matrix_entry_short", "predicate_list",
        "points_row_short", "sample_nan", "points_row_nan", "points_row_inf",
        "bernstein_points_row_nan", "poly_coefficient_nan", "cloud_point_bool",
        "cloud_point_string", "cloud_point_long", "cloud_point_inf", "cloud_bool_after_nan",
        "sample_bool", "sample_string", "sample_long", "sample_bool_after_nan",
        "radius_string", "radius_bool", "ball_radius_string", "declared_c1_bool",
        "disk_center_missing", "union_parts_number", "union_part_radius_missing",
        "shape_unknown", "max_norm_beyond_int64",
        "lambda_power_overflow", "disk_beyond_float_range", "segment_beyond_float_range",
        "union_beyond_float_range"])
def test_malformed_input_exit_two(tmp_path, capsys, command, inputs, message):
    argv = [command]
    for flag, doc in inputs.items():
        path = tmp_path / flag[2:]
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        argv += [flag, str(path)]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err.endswith(f"{message}\n")   # a CSV row follows its path


@pytest.mark.parametrize("d1, d2", [(1.0, 1e-300), (1e-300, 1.0)])
def test_gammacap_near_singular_image_is_finite(tmp_path, d1, d2):
    # |b|^2 overflows for diag(1, 1e-300); the shadow disk has radius 1e-300 for diag(1e-300, 1)
    pred_path = write(tmp_path / "pred.json", _diagonal_image(d1, d2))
    out = tmp_path / "g.json"
    assert main(["gammacap", "--set", pred_path, "--unitaries", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    values = [doc["value"]] + [v for _, v in doc["per_unitary"]]
    assert all(math.isfinite(v) and 0.0 <= v <= 1e-299 for v in values)


def test_gammacap_ball_beyond_max_dimension(tmp_path):
    # every projection of an ellipsoid is closed form, so no dimension cap applies
    pred_path = write(tmp_path / "pred.json", {"kind": "ball", "center": [[0, 0]] * 8,
                                               "radius": 2.0})
    out = tmp_path / "g.json"
    assert main(["gammacap", "--set", pred_path, "--unitaries", "8", "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["value"] - 2.0) <= 1e-6


def test_gammacap_product_beyond_max_dimension_exit_two(tmp_path, capsys):
    pred_path = write(tmp_path / "pred.json", {"kind": "product", "factors": [DISK] * 4})
    code = main(["gammacap", "--set", pred_path, "--out", str(tmp_path / "g.json")])
    assert code == 2
    assert "dimension 4 exceeds the supported maximum 3" in capsys.readouterr().err


HUGE_DISK = {"shape": "disk", "center": [0, 0], "radius": 1e200}


@pytest.mark.parametrize("pred, unitaries", [
    ({**BALL, "radius": 1e200}, "2"),
    ({"kind": "linear_image", "matrix": [[[0.6, 0], [-0.8, 0]], [[0.8, 0], [0.6, 0]]],
      "of": {"kind": "product", "factors": [HUGE_DISK, DISK]}}, "1"),
], ids=["ball", "image_of_product"])
def test_gammacap_huge_but_bounded_set_is_finite(tmp_path, capsys, pred, unitaries):
    # squaring the box corners of a radius-1e200 set overflows; the set is still bounded
    pred_path = write(tmp_path / "pred.json", pred)
    out = tmp_path / "g.json"
    assert main(["gammacap", "--set", pred_path, "--unitaries", unitaries, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    value = json.loads(out.read_text())["value"]
    assert math.isfinite(value) and value > 1e199


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


def test_bernstein_bound_overflow_exit_three(tmp_path, capsys):
    # deg 2 at z = 1e300 off the unit disk: exp(2 g(z)) = 1e600 is beyond the float range
    poly_path = write(tmp_path / "p.json", {"coefficients": [[1, 0], [2, 0], [3, 0]]})
    set_path = write(tmp_path / "disk.json", DISK)
    pts_path = write_points_csv(tmp_path / "pts.csv", [2 + 0j, 1e300 + 0j])
    out = tmp_path / "b.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy overflow warning fails the test
        code = main(["bernstein", "--poly", poly_path, "--set", set_path, "--points", pts_path,
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert err == ("pipeline failure [bernstein_bound]: the bound at z = (1e+300+0j) is inf\n")


@pytest.mark.parametrize("set_doc", [
    {"shape": "disk", "center": [1e300, 0], "radius": 1.0},
    {"shape": "union", "parts": [{"shape": "segment", "a": [1e300, 0], "b": [1e300, 1e-13]}]},
], ids=["disk_at_1e300", "union_at_1e300"])
def test_bernstein_far_set_exit_three_without_warning(tmp_path, capsys, set_doc):
    # |p| on a set near 1e300 overflows in polyval; the bound at z = 3 is then inf
    poly_path = write(tmp_path / "p.json", {"coefficients": [[1, 0], [0, 0], [-2, 0], [0, 0],
                                                             [1, 0]]})
    pts_path = write_points_csv(tmp_path / "pts.csv", [3 + 0j, 1e300 + 0j])
    out = tmp_path / "b.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy overflow warning fails the test
        code = main(["bernstein", "--poly", poly_path, "--set", write(tmp_path / "s.json", set_doc),
                     "--points", pts_path, "--out", str(out)])
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == ("pipeline failure [bernstein_bound]: the bound at "
                                       "z = (3+0j) is inf\n")


def test_extend_single_point_exit_three(tmp_path, capsys):
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", [[1.0, 0.0]])
    code = main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(tmp_path / "c.json")])
    assert code == 3
    assert "stratify" in capsys.readouterr().err


@pytest.mark.parametrize("theta, message", [
    (5e-324, "rho0 = inf is not finite"),
    (1e300, "rho0 = 1e-300: rho0 ** -60 overflows"),
], ids=["rho0_infinite", "rho0_power_overflow"])
def test_extend_extreme_theta_exit_three(tmp_path, capsys, theta, message):
    # rho0 = 1/theta: an infinite rho0 was written to the certificate, which eval refused
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    config_path = write(tmp_path / "config.json", {"theta": theta})
    out = tmp_path / "c.json"
    code = main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--config", config_path, "--out", str(out)])
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == f"pipeline failure [uniform_bound]: {message}\n"


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
    ({"theta": 0}, "config field 'theta' must be a finite number > 0, got 0"),
    ({"window": "5"}, "config field 'window' must be an integer >= 1, got '5'"),
    ({"z2_max": -1}, "config field 'z2_max' must be a finite number > 0, got -1"),
    ({"eps_cap": math.nan}, "config field 'eps_cap' must be a finite number > 0, got nan"),
    ({"sublinear_tol": math.inf},
     "config field 'sublinear_tol' must be a finite number >= 0, got inf"),
    ({"i_max": 0}, "config field 'i_max' must be an integer >= 1, got 0"),
    ({"window": 0}, "config field 'window' must be an integer >= 1, got 0"),
    # the resolution is fixed: its recorded values are not config keys
    ({"gamma_angular": 0}, "unknown config keys: ['gamma_angular']"),
    ({"gamma_radial": -1}, "unknown config keys: ['gamma_radial']"),
    ({"fekete_n": 4}, "unknown config keys: ['fekete_n']"),
    ({"candidates": 1}, "unknown config keys: ['candidates']"),
    # a boolean is not a number
    ({"theta": True}, "config field 'theta' must be a finite number > 0, got True"),
    ({"eps_cap": True}, "config field 'eps_cap' must be a finite number > 0, got True"),
    ({"sublinear_tol": True},
     "config field 'sublinear_tol' must be a finite number >= 0, got True"),
    # a JSON integer beyond the float range is named, not converted
    ({"theta": 10 ** 400}, "config field 'theta' must be a finite number > 0, got 1"
     + "0" * (schema.SHOWN - 1) + "... (int, 401 characters)"),
    ({"mode": "other"}, "config field 'mode' must be one of 'extension', 'uniform', got 'other'"),
    ([], "config must be an object, got []"),
], ids=["theta_zero", "window_string", "z2_max_negative", "eps_cap_nan",
        "sublinear_tol_inf", "i_max_zero", "window_zero", "gamma_angular_zero",
        "gamma_radial_negative", "fekete_n_small", "candidates_one", "theta_bool",
        "eps_cap_bool", "sublinear_tol_bool", "theta_401_digits", "mode_unknown", "config_list"])
def test_extend_invalid_config_exit_two(tmp_path, capsys, cfg, message):
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    cfg_path = write(tmp_path / "cfg.json", cfg)
    code = main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--config", cfg_path, "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


ROWS_OBJECT = {str(n): {"index": [n], "coefficients": [[1.5, -0.25]] * n} for n in range(400)}
SAMPLES_OBJECT = {str(k): row for k, row in enumerate(CIRCLE_SAMPLES)}


@pytest.mark.parametrize("seq, samples, refused, where", [
    ({"kind": "table", "max_norm": 3, "entries": ROWS_OBJECT}, CIRCLE_SAMPLES, ROWS_OBJECT,
     "sequence field 'entries' must be a list"),
    (GEOMETRIC, SAMPLES_OBJECT, SAMPLES_OBJECT,
     "samples must be a nonempty list of [re, im] pairs of finite numbers"),
], ids=["entries_object_of_400_rows", "samples_object"])
def test_refusal_cuts_a_long_value(tmp_path, capsys, seq, samples, refused, where):
    """A refused value is shown to schema.SHOWN characters, then by its type and length."""
    code = main(["extend", "--seq", write(tmp_path / "seq.json", seq),
                 "--samples", write(tmp_path / "samples.json", samples),
                 "--out", str(tmp_path / "c.json")])
    shown = repr(refused)
    assert len(shown) > 100 * schema.SHOWN
    assert code == 2
    assert capsys.readouterr().err == (f"input error: {where}, got {shown[:schema.SHOWN]}... "
                                       f"(dict, {len(shown)} characters)\n")


def test_extend_has_no_z2_max_option(tmp_path):
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    with pytest.raises(SystemExit) as exc:
        main(["extend", "--seq", seq_path, "--samples", samples_path, "--z2-max", "10",
              "--out", str(tmp_path / "c.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "c.json").exists()


def test_extend_overflowing_coefficients_exit_two(tmp_path, capsys):
    seq_path = write(tmp_path / "seq.json",
                     {"kind": "geometric", "lambda": [1e200, 0], "max_norm": 60})
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    code = main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_extend_overflowing_domain_radius_is_zero(tmp_path):
    # deg P_n = 200 n: (1 + |z2|)^200 passes 1.8e308 before z2_max = 1e3
    seq_path = write(tmp_path / "seq.json", {"kind": "table", "max_norm": 4, "entries": [
        {"index": [n], "coefficients": [[0, 0]] * (200 * n) + [[1, 0]]} for n in range(5)]})
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    out = tmp_path / "cert.json"
    assert main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["exponent"] == 200.0
    rows = list(csv.reader(open(tmp_path / "cert_domain.csv")))[1:]
    radii = [float(r[1]) for r in rows]
    assert all(b <= a for a, b in zip(radii, radii[1:]))
    assert radii[0] > 0.0
    assert [r[1] for r in rows[-10:]] == ["0.0"] * 10


def test_eval_overflowing_bound_is_outside_the_domain(tmp_path, capsys):
    # deg P_n = 200 n makes C1 = 200: exp(C1 g(z2)) at z2 = 1e3 is beyond the float range,
    # so q reads inf and the point is refused (exit 3), where it read as malformed input
    seq_path = write(tmp_path / "seq.json", {"kind": "table", "max_norm": 4, "entries": [
        {"index": [n], "coefficients": [[0, 0]] * (200 * n) + [[1, 0]]} for n in range(5)]})
    cert = tmp_path / "cert.json"
    assert main(["extend", "--seq", seq_path, "--samples", write(tmp_path / "s.json",
                 CIRCLE_SAMPLES), "--out", str(cert)]) == 0
    assert main(["eval", "--cert", str(cert), "--seq", seq_path, "--z1", "1e-9", "--z2", "1e3",
                 "--out", str(tmp_path / "v.json")]) == 3
    assert capsys.readouterr().err.startswith(
        "pipeline failure [OutsideCertifiedDomain]: q = inf >= 1 at z1 norm 1e-09")


def test_eval_zero_m0_bounds_the_tail_by_zero(tmp_path, capsys):
    # M0 = 0 bounds every coefficient by 0; exp(C0 g) = inf made the tail bound 0 * inf = NaN,
    # and eval blamed the tolerance (exit 3 with an achievable bound of NaN)
    seq_path, cert = _extend_cert(tmp_path)
    doc = {**json.loads(cert.read_text()), "M0": 0, "C0": 1e300}
    out = tmp_path / "v.json"
    assert main(["eval", "--cert", write(tmp_path / "bad.json", doc), "--seq", seq_path,
                 "--z1", "0.1", "--z2", "2", "--out", str(out)]) == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["tail_bound"] == 0.0


NAN_TABLE = {"kind": "table", "max_norm": 4, "entries": [
    {"index": [n], "coefficients": [[1, 0]] if n != 2 else [[math.nan, 0]]}
    for n in range(5)]}


@pytest.mark.parametrize("seq, message", [
    (NAN_TABLE, f"sequence field 'entries' item 2 field 'coefficients' item 0 {PAIR}[nan, 0]"),
    ({"kind": "geometric", "lambda": [math.inf, 0], "max_norm": 60},
     f"sequence field 'lambda' {PAIR}[inf, 0]"),
    ({"kind": "constant", "value": [1, math.nan], "max_norm": 60},
     f"sequence field 'value' {PAIR}[1, nan]"),
    ({**NAN_TABLE, "entries": NAN_TABLE["entries"][:2], "declared_C0": math.nan},
     "sequence field 'declared_C0' must be a finite number >= 0, got nan"),
    ({**NAN_TABLE, "entries": NAN_TABLE["entries"][:2], "declared_C1": math.inf},
     "sequence field 'declared_C1' must be a finite number >= 0, got inf"),
    # a zero row 0 fits any C0: a negative one would make a certificate eval refuses
    ({**NAN_TABLE, "entries": NAN_TABLE["entries"][1:2], "declared_C0": -1, "declared_C1": 1},
     "sequence field 'declared_C0' must be a finite number >= 0, got -1"),
    ({**GEOMETRIC, "k": 0}, "sequence field 'k' must be an integer >= 1, got 0"),
    ({**GEOMETRIC, "k": -2}, "sequence field 'k' must be an integer >= 1, got -2"),
    ({**GEOMETRIC, "k": 1.9}, "sequence field 'k' must be an integer >= 1, got 1.9"),
    ({**GEOMETRIC, "k": True}, "sequence field 'k' must be an integer >= 1, got True"),
    ({**GEOMETRIC, "max_norm": 10.9},
     "sequence field 'max_norm' must be an integer >= 0, got 10.9"),
    ({**GEOMETRIC, "max_norm": -1}, "sequence field 'max_norm' must be an integer >= 0, got -1"),
    ({**NAN_TABLE, "entries": [{"index": [-1], "coefficients": [[1, 0]]}]},
     "table index [-1] must have length 1 and nonnegative integer entries"),
    ({**NAN_TABLE, "entries": [{"index": [1, 2], "coefficients": [[1, 0]]}]},
     "table index [1, 2] must have length 1 and nonnegative integer entries"),
    ({**NAN_TABLE, "entries": [{"index": [1.5], "coefficients": [[1, 0]]}]},
     "table index [1.5] must have length 1 and nonnegative integer entries"),
    ({**NAN_TABLE, "entries": NAN_TABLE["entries"][:2] + NAN_TABLE["entries"][1:2]},
     "table index [1] is repeated"),
], ids=["table_nan", "lambda_inf", "constant_nan", "declared_c0_nan", "declared_c1_inf",
        "declared_c0_negative",
        "k_zero", "k_negative", "k_fractional", "k_bool", "max_norm_fractional",
        "max_norm_negative", "index_negative", "index_too_long", "index_fractional",
        "index_repeated"])
def test_extend_non_finite_coefficients_exit_two(tmp_path, capsys, seq, message):
    seq_path = write(tmp_path / "seq.json", seq)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    code = main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("z1, z2, tol, message", [
    ("0.1+0j", "nan", "1e-10", "must be finite"),
    ("nan", "2+0j", "1e-10", "must be finite"),
    ("0.1+0j", "2+0j", "inf", "must be finite"),
    ("0.05,0.3", "0.3+0j", "1e-10", "z1 needs k = 1 coordinates, got 2"),
], ids=["z2_nan", "z1_nan", "tol_inf", "z1_too_long"])
def test_eval_non_finite_input_exit_two(tmp_path, capsys, z1, z2, tol, message):
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    cert = tmp_path / "cert.json"
    assert main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(cert)]) == 0
    out = tmp_path / "v.json"
    code = main(["eval", "--cert", str(cert), "--seq", seq_path, "--z1", z1,
                 "--z2", z2, "--tol", tol, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_extend_overflowing_values_warn_nothing(tmp_path, capsys):
    # P_n = 1e300 z^n overflows at |z| = 1e5 for n >= 2: every radius is 0, so no
    # stratum is non-polar, and Horner's rule prints no numpy overflow warning
    seq = {"kind": "table", "max_norm": 4, "entries": [
        {"index": [n], "coefficients": [[0, 0]] * n + [[1e300, 0]]} for n in range(5)]}
    samples = [[1e5 * math.cos(2 * math.pi * k / 50), 1e5 * math.sin(2 * math.pi * k / 50)]
               for k in range(50)]
    argv = ["extend", "--seq", write(tmp_path / "seq.json", seq),
            "--samples", write(tmp_path / "samples.json", samples), "--out", str(tmp_path / "c")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    assert capsys.readouterr().err.startswith("pipeline failure [stratify]: ")


@pytest.mark.parametrize("z1, z2, bad", [("abc", "2+0j", "abc"), ("0.1+0j", "abc", "abc"),
                                         ("0.1,x", "2+0j", "x")], ids=["z1", "z2", "z1_part"])
def test_eval_malformed_complex_flag_exit_two(tmp_path, capsys, z1, z2, bad):
    seq_path, cert = _extend_cert(tmp_path)
    flag = "--z1" if bad in z1 else "--z2"
    out = tmp_path / "v.json"
    assert main(["eval", "--cert", str(cert), "--seq", seq_path, "--z1", z1, "--z2", z2,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"input error: argument {flag}: expected a complex "
                                       f"number, got {bad!r}\n")
    assert not out.exists()


def _extend_cert(tmp_path):
    """(seq path, cert path) of a geometric certificate on the 200-point circle."""
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    cert = tmp_path / "cert.json"
    assert main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(cert)]) == 0
    return seq_path, cert


def _drop(name):
    return lambda doc: doc.pop(name)


def _set(name, value):
    return lambda doc: doc.__setitem__(name, value)


def _set_index(i, value):
    return lambda doc: doc["green_points"].__setitem__(i, value)


def _set_witness_points(*bad):
    return lambda doc: doc["witness"]["points"].__setitem__(slice(3, 3 + len(bad)), bad)


WITNESS = "certificate field 'witness' field 'points' item 3 "


@pytest.mark.parametrize("mutate, message", [
    (_drop("rho0"), "certificate field 'rho0' is missing"),
    (_set("rho1", "0.5"), "certificate field 'rho1' must be a finite number > 0, got '0.5'"),
    (_set("N_used", 60.0), "certificate field 'N_used' must be an integer"),
    (_set("exponent_differs", 0), "certificate field 'exponent_differs' must be a boolean"),
    (_drop("witness"), "certificate field 'witness' is missing"),
    (_set("witness", {"shape": "cloud"}), "certificate field 'witness' field 'points' is missing"),
    (_set("thresholds", []), "certificate field 'thresholds' must be an object"),
    (lambda doc: doc["thresholds"].pop("tail_slope"),
     "certificate threshold 'tail_slope' is missing"),
    (lambda doc: doc["thresholds"].__setitem__("fekete_n", "128"),
     "certificate threshold 'fekete_n' must be an integer"),
    (_drop("green_points"), "certificate field 'green_points' is missing"),
    (_set("green_points", "0,1"), "certificate field 'green_points' must be a list"),
    (_set_index(3, 1.5), "'green_points': index 1.5 is not an integer"),
    (_set_index(3, True), "'green_points': index True is not an integer"),
    (_set_index(3, 10**6), "'green_points': index 1000000 is out of range for 200 candidates"),
    (_set_index(3, -1), "'green_points': index -1 is out of range for 200 candidates"),
    (lambda doc: doc["green_points"].__setitem__(1, doc["green_points"][0]),
     "'green_points': an index repeats"),
    (lambda doc: doc["green_points"].pop(),
     "'green_points': 127 indices where the solve selects 128"),
    (lambda doc: doc["thresholds"].__setitem__("eps_cap", 1e9),
     "of the selected points is below eps_cap 1e+09"),
    (_drop("clamp_magnitude"), "certificate field 'clamp_magnitude' is missing"),
    (_set("clamp_magnitude", -1e-3),
     "certificate field 'clamp_magnitude' must be a finite number >= 0, got -0.001"),
    (_set_witness_points([True, 0]), WITNESS + PAIR + "[True, 0]"),
    (_set_witness_points(["1", 0]), WITNESS + PAIR + "['1', 0]"),
    (_set_witness_points([1, 0, 0]), WITNESS + PAIR + "[1, 0, 0]"),
    (_set_witness_points([math.inf, 0]), WITNESS + PAIR + "[inf, 0]"),
    (_set_witness_points([math.nan, 0], [1, 0], [True, 0]), WITNESS + PAIR + "[nan, 0]"),
    # a tampered resolution is refused for the n >= 8 floor, not for the witness's capacity
    (lambda doc: (doc["thresholds"].__setitem__("fekete_n", 7),
                  doc.__setitem__("green_points", doc["green_points"][:7])),
     "'green_points': capacity needs n >= 8, got 7"),
    # the constants' ranges: those the pipeline produces
    (_set("gammaC", math.inf), "certificate field 'gammaC' must be a finite number >= 0, got inf"),
    # exp(tail_slope * gammaC) underflowed to 0 and C2's rule divided by it
    (_set("gammaC", -1e300),
     "certificate field 'gammaC' must be a finite number >= 0, got -1e+300"),
    (_set("M0", math.nan), "certificate field 'M0' must be a finite number >= 0, got nan"),
    (_set("C0", -0.5), "certificate field 'C0' must be a finite number >= 0, got -0.5"),
    (_set("C1", -1.0), "certificate field 'C1' must be a finite number >= 0, got -1.0"),
    (lambda doc: doc["thresholds"].__setitem__("tail_slope", -1.0),
     "certificate threshold 'tail_slope' must be a finite number >= 0, got -1.0"),
    (_set("exponent", 0.5), "certificate field 'exponent' must be C1 (1.0) or 0, got 0.5"),
    (lambda doc: doc.__setitem__("C2", doc["C2"] * (1.0 + 1e-9)),
     "certificate field 'C2' must be exp(-tail_slope * gammaC) / rho1 = "),
    (lambda doc: (doc.update(C1=1e308, exponent=1e308), doc["thresholds"].update(tail_slope=1e308)),
     "certificate field 'C2' must be exp(-tail_slope * gammaC) / rho1 = 0.0 "),
], ids=["rho0_missing", "rho1_string", "N_used_float", "exponent_differs_int",
        "witness_missing", "witness_malformed", "thresholds_list", "tail_slope_missing",
        "fekete_n_string", "green_points_missing", "green_points_string", "index_float",
        "index_bool", "index_too_large", "index_negative", "index_repeats", "count_short",
        "selection_polar", "clamp_missing", "clamp_negative", "witness_point_bool",
        "witness_point_string", "witness_point_long", "witness_point_inf",
        "witness_bool_after_nan", "fekete_n_below_floor", "gammaC_inf", "gammaC_huge_negative",
        "M0_nan",
        "C0_negative", "C1_negative", "tail_slope_negative", "exponent_half", "C2_off",
        "C2_underflows"])
def test_eval_malformed_certificate_exit_two(tmp_path, capsys, mutate, message):
    seq_path, cert = _extend_cert(tmp_path)
    doc = json.loads(cert.read_text())
    mutate(doc)
    bad = write(tmp_path / "bad.json", doc)
    out = tmp_path / "v.json"
    code = main(["eval", "--cert", bad, "--seq", seq_path, "--z1", "0.1+0j", "--z2", "2+0j",
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("M0", -1), ("rho1", 0)])
def test_eval_refuses_a_certificate_that_bounds_nothing(tmp_path, capsys, field, value):
    # geometric lambda = 1 on a circle of radius 0.9: the sum at z1 = 0.5, z2 = 1.5 is
    # exactly 4; with M0 = -1 or rho1 = 0 eval printed 1.0 under a tail bound <= 0
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples = [[0.9 * x, 0.9 * y] for x, y in CIRCLE_SAMPLES]
    cert = tmp_path / "cert.json"
    assert main(["extend", "--seq", seq_path, "--samples", write(tmp_path / "s.json", samples),
                 "--out", str(cert)]) == 0
    argv = ["eval", "--seq", seq_path, "--z1", "0.5", "--z2", "1.5", "--tol", "1e-6",
            "--out", str(tmp_path / "v")]
    assert main(argv + ["--cert", str(cert)]) == 0
    value_doc = json.loads((tmp_path / "v").read_text())
    assert abs(complex(*value_doc["value"]) - 4.0) <= value_doc["tail_bound"]
    doc = json.loads(cert.read_text())
    doc[field] = value
    capsys.readouterr()
    assert main(argv + ["--cert", write(tmp_path / "bad.json", doc)]) == 2
    assert f"certificate field {field!r} must be" in capsys.readouterr().err


def test_eval_runs_no_fekete_solve(tmp_path, monkeypatch):
    seq_path, cert = _extend_cert(tmp_path)
    argv = ["eval", "--cert", str(cert), "--seq", seq_path, "--z1", "0.1+0j", "--z2", "2+0j"]
    plain, patched = tmp_path / "plain.json", tmp_path / "patched.json"
    assert main(argv + ["--out", str(plain)]) == 0

    def no_solve(*args, **kwargs):
        raise AssertionError("eval ran a Fekete solve")

    # the package attribute holocap.capacity is the function; patch the modules
    for module, name in (("holocap.capacity", "_fekete_over"),
                         ("holocap.capacity", "green_function"),
                         ("holocap.extension", "green_function")):
        monkeypatch.setattr(importlib.import_module(module), name, no_solve)
    assert main(argv + ["--out", str(patched)]) == 0
    assert patched.read_bytes() == plain.read_bytes()


def test_extend_failing_table_writes_nothing(tmp_path, capsys, monkeypatch):
    def broken(self, z2):
        raise ValueError("no radius today")

    monkeypatch.setattr(ExtensionCertificate, "certified_radius", broken)
    seq_path = write(tmp_path / "seq.json", GEOMETRIC)
    samples_path = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    code = main(["extend", "--seq", seq_path, "--samples", samples_path,
                 "--out", str(tmp_path / "cert.json")])
    assert code == 2
    assert "no radius today" in capsys.readouterr().err
    assert not (tmp_path / "cert.json").exists()
    assert not (tmp_path / "cert_domain.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["nope"],
    *([name, "--help"] for name in COMMANDS), *([name] for name in COMMANDS),
], ids=lambda argv: " ".join(argv) or "no_arguments")
def test_parser_text_matches_full_parser(capsys, monkeypatch, argv):
    # help, usage and error text do not depend on which subparser got its flags
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert expected.out or expected.err
    with pytest.raises(SystemExit) as own:
        main(argv)
    assert (own.value.code, capsys.readouterr()) == (full.value.code, expected)
    monkeypatch.setattr(sys, "argv", ["holocap", *argv])
    with pytest.raises(SystemExit) as own:
        main()
    assert (own.value.code, capsys.readouterr()) == (full.value.code, expected)


@pytest.mark.parametrize("argv", [["eval", "--cert", "c", "--seq", "s", "--z1", "1", "--z2", "2",
                                   "--out", "o", "extra"],
                                  ["cap", "--set", "s", "--out", "o", "--bogus", "1"]],
                         ids=["positional", "flag"])
def test_unrecognized_argument_text_matches_full_parser(capsys, argv):
    # the top-level parser reports these, with its usage line
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    assert "unrecognized arguments" in expected.err
    with pytest.raises(SystemExit) as own:
        main(argv)
    assert (own.value.code, capsys.readouterr()) == (full.value.code, expected)


@pytest.mark.parametrize("argv, plain", [
    (["cap", "--set", "s.json", "--out", "o.json"], True),
    (["cap", "--out", "o", "--candidates=512", "--set", "s", "--n", "16", "--seed", "7"], True),
    (["green", "--set", "s.json", "--points", "p.csv", "--out", "g.csv"], True),
    (["bernstein", "--poly", "p", "--set", "s", "--points", "p.csv", "--out", "b"], True),
    (["gammacap", "--set", "p.json", "--unitaries", "4", "--seed", "-3", "--out", "g"], False),
    (["gammacap", "--set", "p.json", "--unitaries", "4", "--seed=-3", "--out", "g"], True),
    (["extend", "--seq", "q", "--samples", "s", "--config", "c", "--out", "c.json"], True),
    (["eval", "--cert", "c", "--seq", "q", "--z1=-0.1+0.2j,0.3-1j", "--z2=-2-0j",
      "--tol", "1e-12", "--out", "v.json"], True),
    (["eval", "--cert=", "--seq", "", "--z1", "0.1", "--z2", "2", "--out", "a=b"], True),
    (["eval", "--cert", "c", "--seq", "q", "--z1", "0.1", "--z2", "-2", "--out", "v"], False),
    (["cap", "--set", "s", "--out=-"], True),
    (["cap", "--set", "s", "--out=--"], False),
    (["cap", "--se", "s.json", "--out", "o.json"], False),
    (["cap", "--set", "a", "--set", "b", "--out", "o"], False),
    (["cap", "--n", "x", "--n", "16", "--set", "s", "--out", "o"], False),
    (["cap", "--set", "s", "--out", "o", "--n", "1e3"], False),
    (["cap", "--set", "s", "--out", "o", "extra"], False),
    (["cap", "--set", "s"], False),
    (["cap", "--set", "s", "--out"], False),
    (["cap", "--set", "--out", "o"], False),
    (["eval", "--help"], False),
    (["nope", "--set", "s"], False),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_plain_lines_parse_as_the_parser_reads_them(capsys, argv, plain):
    # a plain line skips the parser; any other is left to it, so no line reads differently
    try:
        expected = vars(build_parser().parse_args(argv))
    except SystemExit:
        expected = None
    args = _plain_args(argv)
    assert (args is not None) == plain
    assert args is None or vars(args) == expected


EXTEND_RESOLUTION = {"fekete_n": 128, "candidates": 4096, "gamma_radial": 48,
                     "gamma_angular": 16}
EXTEND_KEYS = {"eps_cap", "theta", "window", "i_max", "z2_max", "stratum_index",
               "uniform_level", "tail_slope", "tail_start", "mode", *EXTEND_RESOLUTION}


def _manifest_case(tmp_path, case):
    """(argv, input files in digest order, manifest path, threshold keys) of one command.

    The keys come as a dict when their values are pinned too.
    """
    out = str(tmp_path / "out.json")
    disk = write(tmp_path / "disk.json", DISK)
    seq = write(tmp_path / "seq.json", GEOMETRIC)
    samples = write(tmp_path / "samples.json", CIRCLE_SAMPLES)
    if case == "cap":
        return (["cap", "--set", disk, "--n", "16"], [disk], out,
                {"n", "candidates", "eps_cap"})
    if case == "green":
        pts = write_points_csv(tmp_path / "pts.csv", [2 + 0j, 0.3 + 0j])
        return (["green", "--set", disk, "--points", pts], [disk, pts], out + ".manifest.json",
                {"backing", "robin_constant", "clamp_magnitude"})
    if case == "bernstein":
        poly = write(tmp_path / "p.json", {"coefficients": [[0, 0], [1, 0]]})
        pts = write_points_csv(tmp_path / "pts.csv", [2 + 0j])
        return (["bernstein", "--poly", poly, "--set", disk, "--points", pts],
                [poly, disk, pts], out, {"slack", "clamp_magnitude"})
    if case == "gammacap":
        pred = write(tmp_path / "pred.json", {"kind": "product", "factors": [DISK, DISK]})
        return (["gammacap", "--set", pred], [pred], out,
                {"unitaries": 1, "fiber_threshold": 1e-4, "fiber_resolution": 64,
                 "projected_resolution": 32, "fiber_capacity_points": 32,
                 "capacity_points": 128})
    if case == "extend":
        return (["extend", "--seq", seq, "--samples", samples], [seq, samples], out, EXTEND_KEYS)
    if case == "extend_config":
        seq = write(tmp_path / "seq.json", {"kind": "sqrt_degree", "max_norm": 400})
        cfg = write(tmp_path / "cfg.json", {"mode": "uniform"})
        return (["extend", "--seq", seq, "--samples", samples, "--config", cfg],
                [seq, samples, cfg], out, EXTEND_KEYS | {"sublinear_tol"})
    cert = str(tmp_path / "cert.json")
    assert main(["extend", "--seq", seq, "--samples", samples, "--out", cert]) == 0
    return (["eval", "--cert", cert, "--seq", seq, "--z1", "0.1+0j", "--z2", "2+0j"],
            [cert, seq], out, {"tol"})


@pytest.mark.parametrize("case", ["cap", "green", "bernstein", "gammacap", "extend",
                                  "extend_config", "eval"])
def test_manifest_digest_seed_and_thresholds(tmp_path, monkeypatch, case):
    argv, inputs, manifest_path, keys = _manifest_case(tmp_path, case)
    opened, real_open = collections.Counter(), io.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as patch:   # pathlib opens through io.open
        patch.setattr(builtins, "open", counting_open)
        patch.setattr(io, "open", counting_open)
        assert main(argv + ["--seed", "7", "--out", str(tmp_path / "out.json")]) == 0
    # each input is read once, so the digest is of the bytes that were parsed
    assert {p: opened[p] for p in inputs} == {p: 1 for p in inputs}
    manifest = json.loads(open(manifest_path, encoding="utf-8").read())["manifest"]
    digest = hashlib.sha256(b"".join(open(p, "rb").read() for p in inputs)).hexdigest()
    assert manifest["command"] == argv[0]
    assert manifest["input_digest"] == digest
    assert manifest["seed"] == 7
    assert manifest["tool_version"] == __version__
    assert set(manifest["thresholds"]) == set(keys)
    if isinstance(keys, dict):   # pinned values
        assert manifest["thresholds"] == keys
    if argv[0] == "extend":      # the fixed resolution, recorded
        assert {k: manifest["thresholds"][k] for k in EXTEND_RESOLUTION} == EXTEND_RESOLUTION


def test_cap_resolution_defaults():
    args = build_parser().parse_args(["cap", "--set", "s.json", "--out", "o.json"])
    assert (args.n, args.candidates) == (128, 4096)


# ---------------------------------------------------------------------------
# the JSON writer: json.dumps(doc, sort_keys=True, indent=2), byte for byte
# ---------------------------------------------------------------------------

_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                                  2.2250738585072014e-308 / 3, 1e308]))
_STRINGS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", " ",
                                                 "\U0001f600", "a\"b\\c"]))
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-10**40, 10**40),
                    _FLOATS, _FLOATS.map(np.float64), _STRINGS)
# the writer's fast paths: lists of floats, of ints and of [re, im] float pairs
_FAST = st.one_of(st.lists(_FLOATS), st.lists(st.floats(-1e300, 1e300)), st.lists(st.integers()),
                  st.lists(st.lists(_FLOATS, min_size=2, max_size=2)),
                  st.lists(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2)))
_DOCS = st.recursive(
    st.one_of(_LEAVES, _FAST),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_STRINGS, kids, max_size=4),
                           st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none(),
                                                     _FLOATS), kids, max_size=3)),
    max_leaves=30)


def _written(dumps, doc):
    try:
        return dumps(doc)
    except (TypeError, ValueError) as err:   # ValueError: an int of over 4,300 digits
        return type(err)


@given(_DOCS)
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps(doc):
    expect = _written(lambda d: json.dumps(d, sort_keys=True, indent=2), doc)
    assert _written(_dumps, doc) == expect


@pytest.mark.parametrize("leaf", [{1.0}, np.int64(1), 1j, np.bool_(True)],
                         ids=["set", "int64", "complex", "bool_"])
def test_writer_refuses_what_json_dumps_refuses(leaf):
    for doc in (leaf, [leaf], [1.0, leaf], [[1.0, leaf]], {"a": {"b": leaf}}, {(1,): leaf}):
        with pytest.raises(TypeError):
            json.dumps(doc, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            _dumps(doc)
