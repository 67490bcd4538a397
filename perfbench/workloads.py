"""Seeded inputs, op schedules and closed-form oracles of the three workloads.

A workload is a cycle of CLI ops repeated a fixed number of times.  Every
cycle draws fresh geometry from ``SeedSequence([seed, cycle])``, writes it as
input files, and lists its ops.  An op carries its command line, the files it
reads, the class its latency is reported under ("main" for the command that
builds the workload's artifact, "side" for the others) and an oracle that
checks the artifact against a closed form.

The program sees only the files and the command line; the oracles use the
parameters the files were drawn from.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

EPS_CAP = 1e-4           # the CLI's polar threshold; a ball's value must exceed it
CAP_REL_TOL = 2.0        # capacity oracle: |value - exact| / exact <= CAP_REL_TOL / n
GREEN_ABS_TOL = 2e-2     # Fekete-backed Green bracket slack
ROUNDING = 1e-12         # eval oracle: rounding allowance relative to 1 + |exact|


# Parameters that set an op's cost are taken from fixed lists by op slot, so
# every run holds the same mix of cheap and dear inputs: a union's capacity
# solve costs 0.39-0.62 s depending on the gap in no regular way, while the
# seeded affine map around it does not change the cost.
UNION_GAPS = (0.25, 0.3, 0.35, 0.4)      # inner / outer end of the intervals
CIRCLE_RADII = (0.6, 0.9, 1.3, 1.8)
CIRCLE_POINTS = (100, 200, 300, 400)


@dataclass
class Op:
    """One CLI call, its inputs and its oracle.

    ``argv(out)`` builds the command line for the op's output directory
    ``out`` (named ``dir_name`` under the pass's directory); ``check(out,
    code, err, op)`` returns ``None`` when the exit code and artifact are
    right and a failure description otherwise, and records what it measured
    (relative errors) in ``op.facts``.
    """

    id: int
    cmd: str
    label: str
    cls: str
    inputs: list
    argv: Callable
    check: Callable
    dir_name: str = ""
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Size:
    """Problem sizes and per-cycle op mix of the workloads.

    The mixes are chosen so that, at the cycle counts a 30-second run makes,
    the median and the tail of each latency class fall inside one group of
    similar ops rather than on the edge between two groups, where a few
    milliseconds of noise would move them between groups.
    """

    # plane: (shape, n) of each cap op, "a|b" taking turns by cycle; bernstein
    # ops reuse the cap ops' sets
    cap_plan: tuple = (("disk", 128), ("disk", 256), ("disk", 512), ("disk", 128),
                       ("disk", 256), ("disk", 512), ("segment", 128), ("union", 128),
                       ("segment", 128), ("union", 128), ("segment", 256), ("union", 256),
                       ("segment", 256), ("union", 256), ("segment", 256),
                       ("segment|union", 512))
    candidates: int = 4096
    green_kinds: tuple = ("union", "union", "segment")
    green_points: int = 1000
    bernstein_sets: tuple = ("disk", "segment", "union", "union", "union", "union")
    bernstein_points: int = 100
    max_degree: int = 20
    # certify: (family, k, max_norm) of each extend op, then evals per certificate
    families: tuple = (("geometric", 1, 60), ("geometric", 1, 60), ("geometric", 1, 240),
                       ("geometric", 3, 20), ("sqrt_degree", 1, 400))
    circle_points: tuple = CIRCLE_POINTS
    evals_per_cert: int = 6
    outside_per_cycle: int = 2
    # gamma
    line_unitaries: tuple = (8, 12, 16)
    bidisks: int = 6


FULL = Size()
SMOKE = Size(cap_plan=(("disk", 16), ("segment", 16), ("union", 32)), candidates=256,
             green_kinds=("union", "segment"), green_points=50,
             bernstein_sets=("disk", "segment", "union"), bernstein_points=10, max_degree=6,
             families=(("geometric", 1, 30), ("geometric", 3, 12), ("sqrt_degree", 1, 400)),
             circle_points=(60, 80), evals_per_cert=2, outside_per_cycle=1,
             line_unitaries=(2,), bidisks=1)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def _c(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _cstr(z: complex) -> str:
    """Complex number in the CLI's ``a+bj`` syntax, exact to the last bit."""
    return f"{float(z.real)!r}{float(z.imag):+.17g}j"


class Inputs:
    """Writes the input files of one cycle into its own directory."""

    def __init__(self, root: Path, cycle: int):
        self.dir = root / f"c{cycle:03d}"
        self.dir.mkdir(parents=True, exist_ok=True)

    def json(self, name: str, doc) -> str:
        path = self.dir / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def csv(self, name: str, points) -> str:
        path = self.dir / name
        path.write_text("".join(f"{float(z.real)!r},{float(z.imag)!r}\n" for z in points),
                        encoding="utf-8")
        return str(path)


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _read_csv_column(path, col: int) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return np.asarray([float(r[col]) for r in rows[1:]])


# ---------------------------------------------------------------------------
# plane: cap, green and bernstein on disks, segments and two-interval unions
# ---------------------------------------------------------------------------

def _rand_c(rng, half: float) -> complex:
    return complex(rng.uniform(-half, half), rng.uniform(-half, half))


def _plane_shape(kind: str, rng, slot: int) -> dict:
    """Shape document plus the affine chart z = base + scale * w used to place
    points around it: the set lies in |w| <= reach."""
    if kind == "disk":
        c, r = _rand_c(rng, 2.0), rng.uniform(0.3, 3.0)
        return {"doc": {"shape": "disk", "center": _c(c), "radius": r},
                "exact": r, "base": c, "scale": complex(r), "reach": 1.0}
    if kind == "segment":
        a = _rand_c(rng, 2.0)
        length, angle = rng.uniform(0.5, 4.0), rng.uniform(0.0, 2.0 * math.pi)
        half = 0.5 * length * complex(math.cos(angle), math.sin(angle))
        b = a + 2.0 * half
        return {"doc": {"shape": "segment", "a": _c(a), "b": _c(b)},
                "exact": length / 4.0, "base": a + half, "scale": half, "reach": 1.0,
                "a": a, "b": b}
    # affine image alpha * ([-hi, -lo] u [lo, hi]) + beta
    hi = rng.uniform(0.5, 2.0)
    lo = hi * UNION_GAPS[slot % len(UNION_GAPS)]
    turn = rng.uniform(0.0, 2.0 * math.pi)
    alpha = rng.uniform(0.5, 2.0) * complex(math.cos(turn), math.sin(turn))
    beta = _rand_c(rng, 2.0)
    ends = [alpha * x + beta for x in (-hi, -lo, lo, hi)]
    doc = {"shape": "union", "parts": [
        {"shape": "segment", "a": _c(ends[0]), "b": _c(ends[1])},
        {"shape": "segment", "a": _c(ends[2]), "b": _c(ends[3])}]}
    return {"doc": doc, "exact": abs(alpha) * math.sqrt(hi * hi - lo * lo) / 2.0,
            "base": beta, "scale": alpha, "reach": hi, "ends": ends}


def _around(shape: dict, rng, count: int, lo: float, hi: float) -> np.ndarray:
    """Points with |w| in [lo, hi] * reach in the shape's chart."""
    rad = shape["reach"] * rng.uniform(lo, hi, count)
    ang = rng.uniform(0.0, 2.0 * math.pi, count)
    return shape["base"] + shape["scale"] * rad * np.exp(1j * ang)


def segment_green(a: complex, b: complex, z: np.ndarray) -> np.ndarray:
    """Closed-form Green function of the complement of [a, b]."""
    w = (2.0 * z - (a + b)) / (b - a)
    s = np.sqrt(w * w - 1.0)
    return np.log(np.maximum(np.abs(w + s), np.abs(w - s)))


def _cap_op(shape: dict, path: str, n: int, size: Size) -> dict:
    kind = shape["doc"]["shape"]

    def argv(out):
        return ["cap", "--set", path, "--n", str(n), "--candidates", str(size.candidates),
                "--out", f"{out}/cap.json"]

    def check(out, code, err, op):
        if code != 0:
            return f"exit {code}: {err.strip()}"
        value = _read_json(f"{out}/cap.json")["capacity"]["value"]
        rel = abs(value - shape["exact"]) / shape["exact"]
        op.facts["cap_rel_err"] = rel
        if not rel <= CAP_REL_TOL / n:
            return f"capacity {value!r} vs exact {shape['exact']!r}: rel err {rel:.3g}"
        return None

    return dict(cmd="cap", label=f"cap/{kind}/n{n}", cls="main", inputs=[path],
                argv=argv, check=check)


def _green_op(shape: dict, set_path: str, pts_path: str, points: np.ndarray) -> dict:
    kind = shape["doc"]["shape"]

    def argv(out):
        return ["green", "--set", set_path, "--points", pts_path, "--out", f"{out}/g.csv"]

    def check(out, code, err, op):
        if code != 0:
            return f"exit {code}: {err.strip()}"
        g = _read_csv_column(f"{out}/g.csv", 2)
        if len(g) != len(points) or not np.all(np.isfinite(g)):
            return "green values missing or not finite"
        if kind == "segment":
            exact = segment_green(shape["a"], shape["b"], points)
            worst = float(np.max(np.abs(g - exact) / (1.0 + exact)))
            if not worst <= 1e-9:
                return f"segment Green off its closed form by {worst:.3g}"
            return None
        # K lies between one of its intervals and its hull, so the Green
        # function is bracketed by the two closed forms.
        e = shape["ends"]
        lower = segment_green(e[0], e[3], points)
        upper = np.minimum(segment_green(e[0], e[1], points), segment_green(e[2], e[3], points))
        slack = GREEN_ABS_TOL * (1.0 + upper)
        if not (np.all(g >= lower - slack) and np.all(g <= upper + slack)):
            return "union Green outside the [hull, interval] closed-form bracket"
        return None

    return dict(cmd="green", label=f"green/{kind}", cls="side", inputs=[set_path, pts_path],
                argv=argv, check=check)


def _bernstein_op(shape: dict, set_path: str, poly_path: str, pts_path: str,
                  count: int) -> dict:
    kind = shape["doc"]["shape"]

    def argv(out):
        return ["bernstein", "--poly", poly_path, "--set", set_path, "--points", pts_path,
                "--out", f"{out}/b.json"]

    def check(out, code, err, op):
        if code != 0:
            return f"exit {code}: {err.strip()}"
        doc = _read_json(f"{out}/b.json")
        if len(doc["checks"]) != count or doc["all_passed"] is not True:
            return "bernstein report not all_passed"
        return None

    return dict(cmd="bernstein", label=f"bernstein/{kind}", cls="side",
                inputs=[poly_path, set_path, pts_path], argv=argv, check=check)


def plane_cycle(d: Inputs, rng, cycle: int, size: Size) -> list:
    specs = []
    shared = {"disk": [], "segment": [], "union": []}
    for j, (kinds, n) in enumerate(size.cap_plan):
        kinds = kinds.split("|")
        kind = kinds[cycle % len(kinds)]
        shape = _plane_shape(kind, rng, cycle + j)
        path = d.json(f"cap{j}_{kind}_n{n}.json", shape["doc"])
        specs.append(_cap_op(shape, path, n, size))
        shared[kind].append((shape, path))
    for j, kind in enumerate(size.green_kinds):
        shape = _plane_shape(kind, rng, cycle + j)
        set_path = d.json(f"green{j}_{kind}.json", shape["doc"])
        pts = _around(shape, rng, size.green_points, 1.1, 3.0)
        specs.append(_green_op(shape, set_path, d.csv(f"green{j}.csv", pts), pts))
    for j, kind in enumerate(size.bernstein_sets):
        shape, set_path = shared[kind][j % len(shared[kind])]
        deg = int(rng.integers(1, size.max_degree + 1))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        poly = d.json(f"poly{j}.json", {"coefficients": [_c(c) for c in coeffs]})
        pts = _around(shape, rng, size.bernstein_points, 0.5, 3.0)
        specs.append(_bernstein_op(shape, set_path, poly, d.csv(f"bpts{j}.csv", pts),
                                   size.bernstein_points))
    return specs


# ---------------------------------------------------------------------------
# certify: extend on geometric and sqrt-degree families, then eval
# ---------------------------------------------------------------------------

def sqrt_degree_value(z1: complex, z2: complex) -> complex:
    """sum_n z2^isqrt(n) z1^n, summed in blocks of equal isqrt."""
    total, d = 0j, 0
    while True:
        block = z2 ** d * z1 ** (d * d) * (1.0 - z1 ** (2 * d + 1)) / (1.0 - z1)
        total += block
        if abs(block) < 1e-18 * max(1.0, abs(total)) and d > 2:
            return total
        d += 1


def _extend_op(fam: tuple, lam: complex, radius: float, seq_path: str, samples_path: str,
               cfg_path: str | None, probes: np.ndarray) -> dict:
    kind, k, max_norm = fam
    label = f"extend/{kind}/k{k}/N{max_norm}"

    def argv(out):
        args = ["extend", "--seq", seq_path, "--samples", samples_path,
                "--out", f"{out}/cert.json"]
        return args + (["--config", cfg_path] if cfg_path else [])

    def check(out, code, err, op):
        if code != 0:
            return f"exit {code}: {err.strip()}"
        cert = _read_json(f"{out}/cert.json")
        if kind == "sqrt_degree":
            # the series converges exactly for |z1| < 1 whatever z2 is
            if cert["exponent"] != 0.0 or not 0.0 < cert["C2"] <= 1.0:
                return f"uniform certificate exponent {cert['exponent']}, C2 {cert['C2']}"
            return None
        if cert["C1"] != 1.0:
            return f"C1 = {cert['C1']} for a geometric family"
        certified = cert["C2"] / (1.0 + np.abs(probes)) ** cert["exponent"]
        if not np.all(certified <= 1.0 / (abs(lam) * np.abs(probes))):
            return "certified radius exceeds the true radius of convergence"
        # on a circle of radius s, gammaC = max(0, -log s), so C2 = 1 / (|lam| max(s, 1))
        op.facts["cert_rel_err"] = abs(cert["C2"] * abs(lam) * max(radius, 1.0) - 1.0)
        return None

    return dict(cmd="extend", label=label, cls="main", inputs=[seq_path, samples_path]
                + ([cfg_path] if cfg_path else []), argv=argv, check=check)


def _eval_op(fam: tuple, lam: complex, seq_path: str, ext_label: str, draw: dict,
             outside: bool, tol: float) -> dict:
    """Eval at a point placed from the certificate the extend op wrote."""
    kind, k, _ = fam
    state = {}

    def argv(out):
        cert = _read_json(f"{out}/../{ext_label}/cert.json")
        z2 = draw["z2"]
        if outside:
            # q >= rho1 |z1| = 2, so the point is outside for every Green value
            scale = 2.0 / cert["rho1"]
        else:
            scale = draw["f"] * cert["C2"] / (1.0 + abs(z2)) ** cert["exponent"]
        z1 = scale * draw["shape"]
        state["z1"], state["z2"] = z1, z2
        return ["eval", "--cert", f"{out}/../{ext_label}/cert.json", "--seq", seq_path,
                "--z1=" + ",".join(_cstr(z) for z in z1), "--z2=" + _cstr(z2),
                "--tol", repr(tol), "--out", f"{out}/v.json"]

    def check(out, code, err, op):
        if outside:
            if code != 3 or "OutsideCertifiedDomain" not in err:
                return f"expected exit 3 naming OutsideCertifiedDomain, got {code}: {err.strip()}"
            return None
        if code != 0:
            return f"exit {code}: {err.strip()}"
        doc = _read_json(f"{out}/v.json")
        value = complex(*doc["value"])
        z1, z2 = state["z1"], state["z2"]
        if kind == "sqrt_degree":
            exact = sqrt_degree_value(complex(z1[0]), z2)
        else:
            exact = complex(np.prod(1.0 / (1.0 - lam * z2 * z1)))
        err_abs = abs(value - exact)
        op.facts["eval_rel_err"] = err_abs / abs(exact)
        if not err_abs <= doc["tail_bound"] + ROUNDING * (1.0 + abs(exact)):
            return f"eval error {err_abs:.3g} above tail bound {doc['tail_bound']:.3g}"
        return None

    return dict(cmd="eval", label=f"eval/{kind}/k{k}" + ("/outside" if outside else ""),
                cls="side", inputs=[seq_path], argv=argv, check=check)


# Largest |z1| as a share of the certified radius, so that the tail bound
# reaches the tolerance within the family's max_norm.
_EVAL_SHARE = {("geometric", 1, 60): 0.6, ("geometric", 1, 240): 0.85,
               ("geometric", 3, 20): 0.3, ("sqrt_degree", 1, 400): 0.6,
               ("geometric", 1, 30): 0.4, ("geometric", 3, 12): 0.15}
_EVAL_TOL = {1: 1e-10, 3: 1e-8}


def certify_cycle(d: Inputs, rng, cycle: int, size: Size) -> list:
    specs = []
    n_evals = len(size.families) * size.evals_per_cert
    outside = set(rng.choice(n_evals, size.outside_per_cycle, replace=False).tolist())
    for fi, fam in enumerate(size.families):
        kind, k, max_norm = fam
        lam = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        radius = CIRCLE_RADII[(cycle + fi) % len(CIRCLE_RADII)]
        count = size.circle_points[(cycle + 2 * fi) % len(size.circle_points)]
        ring = radius * np.exp(1j * (rng.uniform(0.0, 2.0 * math.pi)
                                     + 2.0 * math.pi * np.arange(count) / count))
        if kind == "geometric":
            seq = {"kind": "geometric", "lambda": _c(lam), "max_norm": max_norm, "k": k}
        else:
            seq = {"kind": "sqrt_degree", "max_norm": max_norm}
        seq_path = d.json(f"seq{fi}.json", seq)
        samples_path = d.json(f"samples{fi}.json", [_c(z) for z in ring])
        cfg_path = d.json(f"cfg{fi}.json", {"mode": "uniform"}) if kind == "sqrt_degree" else None
        probes = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 8))
        ext = _extend_op(fam, lam, radius, seq_path, samples_path, cfg_path, probes)
        ext["name"] = f"c{cycle:03d}x{fi}"
        specs.append(ext)
        for e in range(size.evals_per_cert):
            mags = rng.uniform(0.05, 1.0, k)
            mags[int(rng.integers(k))] = 1.0
            shape = mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k))
            draw = {"z2": complex(np.exp(rng.uniform(math.log(0.1), math.log(5.0)))
                                  * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))),
                    "f": rng.uniform(0.05, _EVAL_SHARE[fam]), "shape": shape}
            specs.append(_eval_op(fam, lam, seq_path, ext["name"], draw,
                                  fi * size.evals_per_cert + e in outside, _EVAL_TOL[k]))
    return specs


# ---------------------------------------------------------------------------
# gamma: projection capacity of balls, their unitary images, bidisks, a line
# ---------------------------------------------------------------------------

def haar(rng, m: int = 2) -> np.ndarray:
    """Haar-distributed unitary, drawn here so the program sees only a matrix."""
    z = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _gamma_op(label: str, cls: str, path: str, unitaries: int, seed: int,
              known: float | None) -> dict:
    """``known`` is the exact value, or None for the polar line."""

    def argv(out):
        return ["gammacap", "--set", path, "--unitaries", str(unitaries), "--seed", str(seed),
                "--out", f"{out}/gamma.json"]

    def check(out, code, err, op):
        if code != 0:
            return f"exit {code}: {err.strip()}"
        value = _read_json(f"{out}/gamma.json")["value"]
        if known is None:
            return None if value < 1e-3 else f"line value {value!r} not below 1e-3"
        op.facts["gammacap_rel_err"] = abs(value - known) / known
        if label == "gammacap/bidisk":
            ok = abs(value - known) <= 1e-6 * known
        else:
            ok = EPS_CAP < value <= known * (1.0 + 1e-12)
        return None if ok else f"value {value!r} against known {known!r}"

    return dict(cmd="gammacap", label=label, cls=cls, inputs=[path], argv=argv, check=check)


def gamma_cycle(d: Inputs, rng, cycle: int, size: Size) -> list:
    specs = []

    def ball():
        center = [_rand_c(rng, 1.0) for _ in range(2)]
        r = rng.uniform(0.3, 2.0)
        return {"kind": "ball", "center": [_c(c) for c in center], "radius": r}, r

    for u in (1, 2):
        doc, r = ball()
        path = d.json(f"ball_u{u}.json", doc)
        specs.append(_gamma_op("gammacap/ball", "main", path, u, int(rng.integers(2**31)), r))
    for j in range(2):
        doc, r = ball()
        mat = haar(rng)
        img = {"kind": "linear_image", "matrix": [[_c(e) for e in row] for row in mat],
               "of": doc}
        path = d.json(f"image{j}.json", img)
        specs.append(_gamma_op("gammacap/linear_image", "main", path, 1,
                               int(rng.integers(2**31)), r))
    line = {"kind": "product", "factors": [
        {"shape": "disk", "center": [0.0, 0.0], "radius": 1.5},
        {"shape": "cloud", "points": [[0.0, 0.0]]}]}
    unitaries = size.line_unitaries[cycle % len(size.line_unitaries)]
    specs.append(_gamma_op("gammacap/line", "main", d.json("line.json", line), unitaries,
                           int(rng.integers(2**31)), None))
    for j in range(size.bidisks):
        r1, r2 = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        doc = {"kind": "product", "factors": [
            {"shape": "disk", "center": _c(_rand_c(rng, 1.0)), "radius": r1},
            {"shape": "disk", "center": _c(_rand_c(rng, 1.0)), "radius": r2}]}
        specs.append(_gamma_op("gammacap/bidisk", "side", d.json(f"bidisk{j}.json", doc), 1,
                               int(rng.integers(2**31)), r1))
    return specs


CYCLES = {"plane": plane_cycle, "certify": certify_cycle, "gamma": gamma_cycle}


def build_ops(workload: str, seed: int, cycles: int, root: Path, size: Size = FULL) -> list:
    """Write every cycle's inputs under ``root`` and return the ops in run order."""
    ops = []
    for cycle in range(cycles):
        rng = np.random.default_rng(np.random.SeedSequence([seed, cycle]))
        for spec in CYCLES[workload](Inputs(root, cycle), rng, cycle, size):
            name = spec.pop("name", None) or f"op{len(ops):05d}"
            ops.append(Op(id=len(ops), dir_name=name, **spec))
    return ops
