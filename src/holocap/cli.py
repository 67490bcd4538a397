"""Command-line front end producing reproducible JSON/CSV artifacts.

Every command embeds (or writes alongside CSV outputs) a run manifest:
command name, SHA-256 digest of the input files, seed, tool version, and the
thresholds in effect.  Outputs are deterministic functions of the manifest,
so re-running a command reproduces them byte for byte.  ``COMMANDS`` declares
each command's flags and input files; ``main`` builds and writes every manifest.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .bernstein import Polynomial1D, verify_bernstein
from .capacity import CANDIDATES, EPS_CAP, FEKETE_N, capacity, green_function
from .errors import HolocapError
from .extension import (ExtendConfig, certificate_from_json, certificate_to_json,
                        certify_extension, certify_uniform, evaluate, sequence_from_json)
from .gamma import (FIBER_CAPACITY_POINTS, FIBER_RESOLUTION, PROJECTED_RESOLUTION, gamma_cap,
                    predicate_from_json)
from .sets import _j2c, set_from_json


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_points_csv(path: str) -> list:
    """CSV rows "re,im"; a non-numeric first row is treated as a header."""
    points = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path} line {reader.line_num}: expected re,im, got {row!r}")
            try:
                points.append(complex(float(row[0]), float(row[1])))
            except ValueError:
                if points:
                    raise
    if not points:
        raise ValueError(f"no points found in {path}")
    return points


def _cells(rows) -> list:
    """CSV cells of (lazy) ``rows``; floats print as their repr."""
    return [[repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows]


def _write_csv(path: str, header, cells) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(cells)


def _sidecar(out: str, suffix: str) -> str:
    """``out`` without its extension, plus ``suffix``: est.json -> est_dn.csv."""
    return str(Path(out).with_suffix("")) + suffix


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


# ---------------------------------------------------------------------------
# each command returns (document, thresholds, CSV tables as (path, header, lazy
# rows)) and writes no file; main renders every table before it writes anything
# ---------------------------------------------------------------------------

def _cap(args):
    est = capacity(set_from_json(_read_json(args.set)), n=args.n, candidates=args.candidates)
    doc = {"capacity": {
        "value": est.value, "n_used": est.n_used, "error_indicator": est.error_indicator,
        "robin_constant": "inf" if math.isinf(est.robin_constant) else est.robin_constant,
        "polar": est.polar, "degenerate": est.degenerate}}
    d_n = (_sidecar(args.out, "_dn.csv"), ["n", "d_n"],
           ((k, float(d)) for k, d in est.fekete.diameter_sequence))
    return doc, {"n": args.n, "candidates": args.candidates, "eps_cap": EPS_CAP}, [d_n]


def _green(args):
    set_ = set_from_json(_read_json(args.set))
    points = _read_points_csv(args.points)
    green = green_function(set_)
    values = green(np.asarray(points, dtype=np.complex128))
    table = (args.out, ["re", "im", "g"],
             ((z.real, z.imag, float(v)) for z, v in zip(points, values)))
    return {}, {"backing": green.backing, "robin_constant": green.robin_constant,
                "clamp_magnitude": green.clamp_magnitude}, [table]


def _bernstein(args):
    poly_doc = _read_json(args.poly)
    p = Polynomial1D(tuple(_j2c(c) for c in poly_doc["coefficients"]))
    set_ = set_from_json(_read_json(args.set))
    report = verify_bernstein(p, set_, _read_points_csv(args.points))
    checks = [{"z": [c.z.real, c.z.imag], "abs_value": c.abs_value, "bound": c.bound,
               "ratio": c.ratio, "passed": c.passed} for c in report.checks]
    doc = {"all_passed": report.all_passed, "slack": report.slack, "checks": checks}
    return doc, {"slack": report.slack, "clamp_magnitude": report.clamp_magnitude}, []


def _gammacap(args):
    pred = predicate_from_json(_read_json(args.set))
    result = gamma_cap(pred, unitary_count=args.unitaries, seed=args.seed)
    best = result.best_unitary
    doc = {"value": result.value,
           "best_unitary": {"seed": best.seed,
                            "matrix": [[[v.real, v.imag] for v in row] for row in best.matrix]},
           "per_unitary": [[s, v] for s, v in result.per_unitary],
           "fiber_threshold": result.fiber_threshold}
    return doc, {"unitaries": args.unitaries, "fiber_threshold": result.fiber_threshold,
                 "fiber_resolution": FIBER_RESOLUTION,
                 "projected_resolution": PROJECTED_RESOLUTION,
                 "fiber_capacity_points": FIBER_CAPACITY_POINTS,
                 "capacity_points": FEKETE_N}, []


def _extend(args):
    seq = sequence_from_json(_read_json(args.seq))
    samples = [_j2c(v) for v in _read_json(args.samples)]
    cfg_doc = dict(_read_json(args.config)) if args.config else {}
    mode = cfg_doc.pop("mode", "extension")
    cfg = ExtendConfig.from_json(cfg_doc)
    certify = {"extension": certify_extension, "uniform": certify_uniform}.get(mode)
    if certify is None:
        raise ValueError(f"unknown mode {mode!r} (use 'extension' or 'uniform')")
    cert = certify(seq, samples, cfg)
    radii = np.concatenate([[0.0], np.geomspace(1e-2, cfg.z2_max, 199)])
    domain = (_sidecar(args.out, "_domain.csv"), ["abs_z2", "certified_radius"],
              ((float(t), float(cert.certified_radius(float(t)))) for t in radii))
    return certificate_to_json(cert), {**cert.thresholds, "mode": mode}, [domain]


def _eval(args):
    cert = certificate_from_json(_read_json(args.cert))
    seq = sequence_from_json(_read_json(args.seq))
    z1 = [_parse_complex(part) for part in args.z1.split(",")]
    z1 = z1[0] if len(z1) == 1 else tuple(z1)
    result = evaluate(cert, seq, z1, _parse_complex(args.z2), args.tol)
    doc = {"value": [result.value.real, result.value.imag], "tail_bound": result.tail_bound,
           "terms_used": result.terms_used}
    return doc, {"tol": args.tol}, []


@dataclass(frozen=True)
class _Command:
    help: str
    run: Callable
    inputs: tuple              # input-file flags in digest order: (flag, add_argument keywords)
    options: tuple = ()        # the other flags, likewise
    manifest_suffix: str = ""  # the manifest JSON goes to <out> + this


_REQUIRED = {"required": True}

COMMANDS = {
    "cap": _Command(
        "capacity estimate of a compact set", _cap,
        inputs=(("--set", dict(_REQUIRED, help="set JSON")),),
        options=(("--n", dict(type=int, default=FEKETE_N)),
                 ("--candidates", dict(type=int, default=CANDIDATES)))),
    "green": _Command(
        "Green function values at points", _green,
        inputs=(("--set", _REQUIRED), ("--points", dict(_REQUIRED, help="CSV of re,im rows"))),
        manifest_suffix=".manifest.json"),
    "bernstein": _Command(
        "verify the polynomial growth bound", _bernstein,
        inputs=(("--poly", dict(_REQUIRED, help="polynomial JSON")), ("--set", _REQUIRED),
                ("--points", _REQUIRED))),
    "gammacap": _Command(
        "projection capacity of a predicate", _gammacap,
        inputs=(("--set", dict(_REQUIRED, help="predicate JSON")),),
        options=(("--unitaries", dict(type=int, default=1)),)),
    "extend": _Command(
        "produce an extension certificate", _extend,
        inputs=(("--seq", dict(_REQUIRED, help="sequence JSON")),
                ("--samples", dict(_REQUIRED, help="JSON list of [re,im] samples")),
                ("--config", dict(default=None, help="config JSON")))),
    "eval": _Command(
        "evaluate a certified series", _eval,
        inputs=(("--cert", _REQUIRED), ("--seq", _REQUIRED)),
        options=(("--z1", dict(_REQUIRED,
                               help="complex, e.g. 0.1+0.2j (comma-separated for k>1)")),
                 ("--z2", _REQUIRED), ("--tol", dict(type=float, default=1e-10)))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The holocap parser; naming a command registers only its subparser.

    Any other ``command`` (None for help or no arguments, an unknown name)
    registers all of them.  A lone subparser's usage still lists every
    command, so usage and error text are those of the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="holocap",
        description="capacity, Green functions, growth bounds, and certified "
                    "power-series extension domains")
    alone = command in COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if alone else None)
    for name, cmd in COMMANDS.items():
        if alone and name != command:
            continue
        p = sub.add_parser(name, help=cmd.help)
        for flag, keywords in cmd.inputs + cmd.options:
            p.add_argument(flag, **keywords)
        p.add_argument("--out", required=True, help="output file")
        p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    cmd = COMMANDS[args.command]
    try:
        doc, thresholds, tables = cmd.run(args)
        tables = [(path, header, _cells(rows)) for path, header, rows in tables]
        digest = hashlib.sha256()
        for flag, _ in cmd.inputs:
            path = getattr(args, flag[2:])
            if path is not None:  # an optional input counts only when given
                digest.update(Path(path).read_bytes())
        doc["manifest"] = {"command": args.command, "seed": args.seed, "tool_version": __version__,
                           "input_digest": digest.hexdigest(), "thresholds": thresholds}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        Path(args.out + cmd.manifest_suffix).write_text(text, encoding="utf-8")
        for path, header, cells in tables:
            _write_csv(path, header, cells)
        return 0
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
