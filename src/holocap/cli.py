"""Command-line front end producing reproducible JSON/CSV artifacts.

Every command embeds (or writes alongside CSV outputs) a run manifest:
command name, SHA-256 digest of the input files, seed, tool version, and the
thresholds in effect.  Outputs are deterministic functions of the manifest,
so re-running a command reproduces them byte for byte.

Exit codes: 0 success (including negative mathematical findings such as a
polar capacity estimate), 2 malformed input, 3 pipeline-stage failure (the
stage is named on stderr).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bernstein import Polynomial1D, verify_bernstein
from .capacity import EPS_CAP, capacity, green_function
from .errors import HolocapError
from .extension import (
    ExtendConfig,
    certificate_from_json,
    certificate_to_json,
    certify_extension,
    certify_uniform,
    evaluate,
    sequence_from_json,
)
from .gamma import GridSpec, gamma_cap, predicate_from_json
from .sets import set_from_json


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_points_csv(path: str) -> list:
    """CSV rows "re,im"; a non-numeric first row is treated as a header."""
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                points.append(complex(float(row[0]), float(row[1])))
            except ValueError:
                if points:
                    raise
    if not points:
        raise ValueError(f"no points found in {path}")
    return points


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _manifest(command: str, input_paths, seed: int, thresholds: dict) -> dict:
    return {
        "command": command,
        "input_digest": _digest(input_paths),
        "seed": seed,
        "tool_version": __version__,
        "thresholds": thresholds,
    }


def _write_json(path: str, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_cap(args) -> int:
    set_ = set_from_json(_read_json(args.set))
    est = capacity(set_, n=args.n, candidates=args.candidates)
    manifest = _manifest("cap", [args.set], args.seed,
                         {"n": args.n, "candidates": args.candidates, "eps_cap": EPS_CAP})
    doc = {
        "capacity": {
            "value": est.value,
            "n_used": est.n_used,
            "error_indicator": est.error_indicator,
            "robin_constant": "inf" if math.isinf(est.robin_constant) else est.robin_constant,
            "polar": est.polar,
            "degenerate": est.degenerate,
        },
        "manifest": manifest,
    }
    _write_json(args.out, doc)
    seq_path = str(Path(args.out).with_suffix("")) + "_dn.csv"
    _write_csv(seq_path, ["n", "d_n"],
               [(k, float(d)) for k, d in est.fekete.diameter_sequence])
    return 0


def _cmd_green(args) -> int:
    set_ = set_from_json(_read_json(args.set))
    points = _read_points_csv(args.points)
    green = green_function(set_)
    values = green(np.asarray(points, dtype=np.complex128))
    _write_csv(args.out, ["re", "im", "g"],
               [(z.real, z.imag, float(v)) for z, v in zip(points, values)])
    manifest = _manifest("green", [args.set, args.points], args.seed,
                         {"backing": green.backing,
                          "robin_constant": green.robin_constant,
                          "clamp_magnitude": green.clamp_magnitude})
    _write_json(args.out + ".manifest.json", {"manifest": manifest})
    return 0


def _cmd_bernstein(args) -> int:
    poly_doc = _read_json(args.poly)
    p = Polynomial1D(tuple(complex(c[0], c[1]) for c in poly_doc["coefficients"]))
    set_ = set_from_json(_read_json(args.set))
    points = _read_points_csv(args.points)
    report = verify_bernstein(p, set_, points)
    manifest = _manifest("bernstein", [args.poly, args.set, args.points], args.seed,
                         {"slack": report.slack,
                          "clamp_magnitude": report.clamp_magnitude})
    doc = {
        "all_passed": report.all_passed,
        "slack": report.slack,
        "checks": [
            {"z": [c.z.real, c.z.imag], "abs_value": c.abs_value, "bound": c.bound,
             "ratio": c.ratio, "passed": c.passed}
            for c in report.checks
        ],
        "manifest": manifest,
    }
    _write_json(args.out, doc)
    return 0


def _cmd_gammacap(args) -> int:
    pred = predicate_from_json(_read_json(args.set))
    grid = GridSpec()
    result = gamma_cap(pred, unitary_count=args.unitaries, seed=args.seed, grid=grid)
    manifest = _manifest("gammacap", [args.set], args.seed,
                         {"unitaries": args.unitaries,
                          "fiber_threshold": result.fiber_threshold,
                          "fiber_resolution": grid.fiber_resolution,
                          "projected_resolution": grid.projected_resolution,
                          "fiber_capacity_points": grid.fiber_capacity_points,
                          "capacity_points": grid.capacity_points})
    best = result.best_unitary
    doc = {
        "value": result.value,
        "best_unitary": {
            "seed": best.seed,
            "matrix": [[[v.real, v.imag] for v in row] for row in best.matrix],
        },
        "per_unitary": [[s, v] for s, v in result.per_unitary],
        "fiber_threshold": result.fiber_threshold,
        "manifest": manifest,
    }
    _write_json(args.out, doc)
    return 0


def _cmd_extend(args) -> int:
    seq = sequence_from_json(_read_json(args.seq))
    samples = [complex(v[0], v[1]) for v in _read_json(args.samples)]
    cfg_doc = dict(_read_json(args.config)) if args.config else {}
    mode = cfg_doc.pop("mode", "extension")
    if args.z2_max is not None:
        cfg_doc["z2_max"] = args.z2_max
    cfg = ExtendConfig.from_json(cfg_doc)
    certify = {"extension": certify_extension, "uniform": certify_uniform}.get(mode)
    if certify is None:
        raise ValueError(f"unknown mode {mode!r} (use 'extension' or 'uniform')")

    cert = certify(seq, samples, cfg)
    inputs = [args.seq, args.samples] + ([args.config] if args.config else [])
    doc = certificate_to_json(cert)
    doc["manifest"] = _manifest("extend", inputs, args.seed,
                                {**cert.thresholds, "mode": mode})
    _write_json(args.out, doc)

    radii = np.concatenate([[0.0], np.geomspace(1e-2, cfg.z2_max, 199)])
    _write_csv(str(Path(args.out).with_suffix("")) + "_domain.csv",
               ["abs_z2", "certified_radius"],
               [(float(t), float(cert.certified_radius(float(t)))) for t in radii])
    return 0


def _cmd_eval(args) -> int:
    cert = certificate_from_json(_read_json(args.cert))
    seq = sequence_from_json(_read_json(args.seq))
    z1 = [_parse_complex(part) for part in args.z1.split(",")]
    z1 = z1[0] if len(z1) == 1 else tuple(z1)
    z2 = _parse_complex(args.z2)
    result = evaluate(cert, seq, z1, z2, args.tol)
    manifest = _manifest("eval", [args.cert, args.seq], args.seed, {"tol": args.tol})
    doc = {
        "value": [result.value.real, result.value.imag],
        "tail_bound": result.tail_bound,
        "terms_used": result.terms_used,
        "manifest": manifest,
    }
    _write_json(args.out, doc)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holocap",
        description="capacity, Green functions, growth bounds, and certified "
                    "power-series extension domains")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output file")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("cap", help="capacity estimate of a compact set")
    p.add_argument("--set", required=True, help="set JSON")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--candidates", type=int, default=4096)
    common(p)
    p.set_defaults(fn=_cmd_cap)

    p = sub.add_parser("green", help="Green function values at points")
    p.add_argument("--set", required=True)
    p.add_argument("--points", required=True, help="CSV of re,im rows")
    common(p)
    p.set_defaults(fn=_cmd_green)

    p = sub.add_parser("bernstein", help="verify the polynomial growth bound")
    p.add_argument("--poly", required=True, help="polynomial JSON")
    p.add_argument("--set", required=True)
    p.add_argument("--points", required=True)
    common(p)
    p.set_defaults(fn=_cmd_bernstein)

    p = sub.add_parser("gammacap", help="projection capacity of a predicate")
    p.add_argument("--set", required=True, help="predicate JSON")
    p.add_argument("--unitaries", type=int, default=1)
    common(p)
    p.set_defaults(fn=_cmd_gammacap)

    p = sub.add_parser("extend", help="produce an extension certificate")
    p.add_argument("--seq", required=True, help="sequence JSON")
    p.add_argument("--samples", required=True, help="JSON list of [re,im] samples")
    p.add_argument("--config", default=None, help="config JSON")
    p.add_argument("--z2-max", dest="z2_max", type=float, default=None)
    common(p)
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("eval", help="evaluate a certified series")
    p.add_argument("--cert", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--z1", required=True, help="complex, e.g. 0.1+0.2j (comma-separated for k>1)")
    p.add_argument("--z2", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p)
    p.set_defaults(fn=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HolocapError as err:
        stage = err.stage or type(err).__name__
        print(f"pipeline failure [{stage}]: {err}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            OverflowError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
