"""Command-line front end producing reproducible JSON/CSV artifacts.

Every command embeds (or writes alongside CSV outputs) a run manifest:
command name, SHA-256 digest of the input files, seed, tool version, and the
thresholds in effect.  ``main`` reads each input file once and parses the
bytes it digests, so the digest covers exactly what the command used.
Outputs are deterministic functions of the manifest, so re-running a command
reproduces them byte for byte.  ``COMMANDS`` declares each command's flags
and input files; ``main`` builds and writes every manifest.

Exit codes: 0 success (including negative mathematical findings such as a
polar capacity estimate), 2 malformed input (an ``OSError`` or ``ValueError``,
naming the file, flag or field), 3 pipeline-stage failure (the stage is named
on stderr).  Any other exception is a fault of holocap and is not caught.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, schema
from .bernstein import Polynomial1D, verify_bernstein
from .capacity import CANDIDATES, EPS_CAP, FEKETE_N, capacity, green_function
from .errors import HolocapError
from .extension import (ExtendConfig, certificate_from_json, certificate_to_json,
                        certify_extension, certify_uniform, evaluate, sequence_from_json)
from .gamma import (FIBER_CAPACITY_POINTS, FIBER_RESOLUTION, PROJECTED_RESOLUTION, gamma_cap,
                    predicate_from_json)
from .sets import PointCloud, set_from_json


MATRIX_BYTES = 1 << 32   # largest float64 n x N matrix cap allocates: 4 GiB


def _read_points_csv(path: str, data: bytes) -> list:
    """CSV rows "re,im" of ``data``, read from ``path``; a non-numeric first row is a header."""
    points = []
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    for row in reader:
        if not row:
            continue
        try:
            pair = list(map(float, row[:2]))
        except ValueError:
            if not points:
                continue
            pair = row
        points.append(schema.check(pair, "pair", f"{path} line {reader.line_num}"))
    if not points:
        raise ValueError(f"no points found in {path}")
    return points


_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _token(value) -> str:
    """The JSON text ``json.dumps`` writes for a string, number, bool or None."""
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if not isinstance(value, (int, float)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    text = int.__repr__(value) if isinstance(value, int) else float.__repr__(value)
    return _CONSTANTS.get(text, text)


def _dumps(doc, nl: str = "\n") -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)``, ``nl`` being the newline and indent
    of doc's level; lists of floats, of ints and of [re, im] float pairs take a fast path."""
    inner, items = nl + "  ", None
    if isinstance(doc, dict):   # a key that is not a string is written as its token, quoted
        items = [_token(k if isinstance(k, str) else _token(k)) + ": " + _dumps(v, inner)
                 for k, v in sorted(doc.items())]
    elif not isinstance(doc, (list, tuple)):
        return _token(doc)
    elif (kinds := set(map(type, doc))) == {list} and set(map(len, doc)) == {2}:
        flat = list(itertools.chain.from_iterable(doc))
        if set(map(type, flat)) == {float} and math.isfinite(sum(flat)):   # no NaN, inf
            pair = "[" + inner + "  %r," + inner + "  %r" + inner + "]"
            items = list(map(pair.__mod__, zip(flat[::2], flat[1::2])))
    elif kinds == {int} or kinds == {float} and math.isfinite(sum(doc)):
        items = list(map(kinds.pop().__repr__, doc))
    items = [_dumps(v, inner) for v in doc] if items is None else items
    ends = "{}" if isinstance(doc, dict) else "[]"
    return ends[0] + inner + ("," + inner).join(items) + nl + ends[1] if items else ends


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)   # a float's cell is its repr
        writer.writerow(header)
        writer.writerows(rows)


def _sidecar(out: str, suffix: str) -> str:
    """``out`` without its extension, plus ``suffix``: est.json -> est_dn.csv."""
    return str(Path(out).with_suffix("")) + suffix


def _parse_complex(text: str, flag: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise ValueError(f"argument {flag}: expected a complex number, got {text!r}") from None


# ---------------------------------------------------------------------------
# each command takes the parsed arguments and its parsed inputs by name, returns
# (document, thresholds, CSV tables as (path, header, lazy rows)) and writes no
# file; main computes every table's rows before it writes anything
# ---------------------------------------------------------------------------

def _cap(args, docs):
    if args.candidates < 1:
        raise ValueError(f"argument --candidates: expected a count >= 1, got {args.candidates}")
    set_ = set_from_json(docs["set"])
    rows, cols = args.n, max(args.candidates, args.n)   # a cloud's matrix is its data's size
    if rows * cols * 8 > MATRIX_BYTES and not isinstance(set_, PointCloud):
        flag = "--n" if rows * rows * 8 > MATRIX_BYTES else "--candidates"
        raise ValueError(f"argument {flag}: a solve at n = {rows} over {cols} points needs "
                         f"{rows * cols * 8} bytes, above the {MATRIX_BYTES}-byte budget")
    try:
        est = capacity(set_, n=args.n, candidates=args.candidates)
    except MemoryError:
        raise ValueError(f"argument --n: a solve at n = {args.n} does not fit in memory") from None
    doc = {"capacity": {
        "value": est.value, "n_used": est.n_used, "error_indicator": est.error_indicator,
        "robin_constant": "inf" if math.isinf(est.robin_constant) else est.robin_constant,
        "polar": est.polar, "degenerate": est.degenerate}}
    d_n = (_sidecar(args.out, "_dn.csv"), ["n", "d_n"],
           ((k, float(d)) for k, d in est.fekete.diameter_sequence))
    return doc, {"n": args.n, "candidates": args.candidates, "eps_cap": EPS_CAP}, [d_n]


def _green(args, docs):
    set_ = set_from_json(docs["set"])
    points = docs["points"]
    green = green_function(set_)
    values = green(np.asarray(points, dtype=np.complex128))
    table = (args.out, ["re", "im", "g"],
             ((z.real, z.imag, float(v)) for z, v in zip(points, values)))
    return {}, {"backing": green.backing, "robin_constant": green.robin_constant,
                "clamp_magnitude": green.clamp_magnitude}, [table]


def _bernstein(args, docs):
    poly = schema.check(docs["poly"], "object", "polynomial")
    coefficients = schema.field(poly, "coefficients", "pairs", "polynomial field")
    p = Polynomial1D(tuple(coefficients.tolist()))
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is a value, inf or NaN
        report = verify_bernstein(p, set_from_json(docs["set"]), docs["points"])
    checks = [{"z": [c.z.real, c.z.imag], "abs_value": c.abs_value, "bound": c.bound,
               "ratio": c.ratio, "passed": c.passed} for c in report.checks]
    doc = {"all_passed": report.all_passed, "slack": report.slack, "checks": checks}
    return doc, {"slack": report.slack, "clamp_magnitude": report.clamp_magnitude}, []


def _gammacap(args, docs):
    pred = predicate_from_json(docs["set"])
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


def _extend(args, docs):
    seq = sequence_from_json(docs["seq"])
    samples = schema.check(docs["samples"], "pairs", "samples").tolist()
    cfg_doc = schema.check(docs.get("config", {}), "object", "config")
    modes = {"extension": certify_extension, "uniform": certify_uniform}
    mode = schema.field(cfg_doc, "mode", tuple(modes), "config field", "extension")
    cfg = ExtendConfig.from_json({k: v for k, v in cfg_doc.items() if k != "mode"})
    cert = modes[mode](seq, samples, cfg)
    radii = np.concatenate([[0.0], np.geomspace(1e-2, cfg.z2_max, 199)]).tolist()
    domain = (_sidecar(args.out, "_domain.csv"), ["abs_z2", "certified_radius"],
              [(t, cert.certified_radius(t)) for t in radii])
    return certificate_to_json(cert), {**cert.thresholds, "mode": mode}, [domain]


def _eval(args, docs):
    cert = certificate_from_json(docs["cert"])
    seq = sequence_from_json(docs["seq"])
    z1 = [_parse_complex(part, "--z1") for part in args.z1.split(",")]
    z1 = z1[0] if len(z1) == 1 else tuple(z1)
    result = evaluate(cert, seq, z1, _parse_complex(args.z2, "--z2"), args.tol)
    doc = {"value": [result.value.real, result.value.imag], "tail_bound": result.tail_bound,
           "terms_used": result.terms_used}
    return doc, {"tol": args.tol}, []


@dataclass(frozen=True)
class _Command:
    help: str
    run: Callable
    inputs: tuple              # input-file flags in digest order: (flag, add_argument keywords);
                               # --points is a CSV, every other input JSON
    options: tuple = ()        # the other flags, likewise
    manifest_suffix: str = ""  # the manifest JSON goes to <out> + this


_REQUIRED = {"required": True}
_COMMON = (("--out", dict(_REQUIRED, help="output file")), ("--seed", dict(type=int, default=0)))

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


def build_parser() -> argparse.ArgumentParser:
    """The holocap parser: every command, with its flags, usage and help text."""
    parser = argparse.ArgumentParser(
        prog="holocap",
        description="capacity, Green functions, growth bounds, and certified "
                    "power-series extension domains")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for flag, keywords in cmd.inputs + cmd.options + _COMMON:
            p.add_argument(flag, **keywords)
    return parser


def _plain_args(argv: list) -> argparse.Namespace | None:
    """The parser's namespace for a command and distinct flags of it, each given as
    ``--flag=value`` or as ``--flag value`` with a value not starting with "-", with
    every required flag and values their types accept; None for any other line,
    which the parser reads, so that every usage, help and error text is its own."""
    cmd = COMMANDS.get(argv[0]) if argv else None
    spec = dict(cmd.inputs + cmd.options + _COMMON) if cmd else {}
    given, rest = {}, argv[1:]
    while rest and spec:
        flag, eq, value = rest.pop(0).partition("=")
        if not eq:   # the value is the next argument
            if not rest or rest[0].startswith("-"):
                return None
            value = rest.pop(0)
        if flag not in spec or flag in given or value == "--":   # the parser drops a "--"
            return None
        given[flag] = value
    if not spec or any(kw.get("required") and flag not in given for flag, kw in spec.items()):
        return None
    try:
        return argparse.Namespace(command=argv[0], **{
            flag[2:]: kw.get("type", str)(given[flag]) if flag in given else kw.get("default")
            for flag, kw in spec.items()})
    except (TypeError, ValueError):
        return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    try:
        for flag, _ in cmd.inputs + cmd.options + _COMMON:
            if getattr(args, flag[2:]) == []:   # the parser's value for --flag=--
                raise ValueError(f"argument {flag}: expected one value, got '--'")
        digest, docs = hashlib.sha256(), {}
        for flag, _ in cmd.inputs:   # each given input is read once, digested and parsed
            path = getattr(args, flag[2:])
            if path is not None:
                with open(path, "rb") as fh:   # not Path(path): Path("") is "."
                    data = fh.read()
                digest.update(data)
                # decoded as open() decodes a file: UTF-8, universal newlines
                docs[flag[2:]] = (_read_points_csv(path, data) if flag == "--points" else
                                  json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")))
        doc, thresholds, tables = cmd.run(args, docs)
        tables = [(path, header, list(rows)) for path, header, rows in tables]
        doc["manifest"] = {"command": args.command, "seed": args.seed, "tool_version": __version__,
                           "input_digest": digest.hexdigest(), "thresholds": thresholds}
        text = _dumps(doc) + "\n"
        Path(args.out + cmd.manifest_suffix).write_text(text, encoding="utf-8")
        for path, header, rows in tables:
            _write_csv(path, header, rows)
        return 0
    except HolocapError as err:
        stage = err.stage or type(err).__name__
        print(f"pipeline failure [{stage}]: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as err:   # ValueError covers JSONDecodeError and LinAlgError
        print(f"input error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
