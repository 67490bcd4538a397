"""Closed-loop benchmark of the holocap command line.

    python3 perfbench/run.py --workload plane|certify|gamma --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, one thread and one client:
every command runs in-process through ``holocap.cli.main``, and the next one
starts only when the previous one has returned.  Inputs are generated from
``--seed`` and written as files under ``.perfbench/``; each artifact is checked
against a closed form.  ``--seconds`` sets the amount of work: the workload's
cycle of commands is repeated ``round(seconds / CYCLE_SECONDS[workload])``
times, so that every run of a given length does the same work.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half as many
cycles twice, once plain and once with wrappers over holocap's public
functions, checks that both passes wrote identical bytes, and reports the
per-layer metrics.  The last line of standard output is the JSON result.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plane", "certify", "gamma")
# Seconds one cycle takes on the reference machine (2 cores, see README.md).
CYCLE_SECONDS = {"plane": 10.5, "certify": 1.3, "gamma": 3.7}
SETUP_REPEATS = 9
# Calibration: the host's speed swings by a third within seconds (other tenants
# share its cores), so every op is timed between two calibrations and
# rescaled to a host on which the calibration kernel takes CAL_REF_S.
CAL_LOOP = 15_000
CAL_REF_S = 1.0e-3

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "main_s.p50": ("s", "lower"),
    "main_s.tail": ("s", "lower"),
    "side_s.p50": ("s", "lower"),
    "side_s.tail": ("s", "lower"),
    "rel_err": ("ratio", "lower"),
}
COUNTS = {
    "cli.bytes_written": ("bytes", "lower"),
    "sets.discretize.points": ("count", "lower"),
    "sets.contains.points": ("count", "lower"),
    "capacity.fekete_points.cand_x_n": ("count", "lower"),
    "capacity.green_eval.points": ("count", "lower"),
    "capacity.green_function.per_eval": ("count", "lower"),
    "bernstein.poly_eval.points": ("count", "lower"),
    "gamma.fibers_scanned": ("count", "lower"),
    "gamma.fibers_nonpolar_ratio": ("ratio", "higher"),
    "extension.stratify_and_find_nonpolar.capacity_calls": ("count", "lower"),
    "extension.uniform_bound_compact.capacity_calls": ("count", "lower"),
    "extension.evaluate.terms_used": ("count", "lower"),
    "extension.poly.hit_ratio": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
}
# rel_err of each workload: which oracle figure, aggregated how over the run's ops
REL_ERR = {"plane": ("cap_rel_err", max), "certify": ("cert_rel_err", max),
           "gamma": ("gammacap_rel_err", statistics.fmean)}


def per_layer_metrics() -> dict:
    """Per-layer metric -> (unit, better): calls and self time per span name,
    then the counts."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(COUNTS)
    return out


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def p50(values) -> float:
    """Nearest-rank median."""
    v = sorted(values)
    return v[math.ceil(0.5 * len(v)) - 1]


def tail(values) -> tuple:
    """(value, percentile, samples): the highest integer percentile with at
    least ten samples beyond it, by nearest rank; the maximum (percentile 100)
    when there are fewer than eleven samples."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100, n
    pct = (100 * (n - 10)) // n      # pct * n / 100 <= n - 10
    return v[math.ceil(pct * n / 100) - 1], pct, n


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def _digest(out: Path) -> tuple:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size


def calibrate() -> float:
    """Seconds a fixed pure-Python kernel takes right now: the faster of two
    runs, so that an interrupt during one does not count."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def run_ops(ops, out_root: Path, tracer=None) -> list:
    """Run every op in order; returns one record per op.

    ``seconds`` is the op's wall time rescaled by the calibration kernel timed
    just before and just after it; ``wall_s`` is the wall time as measured.
    """
    records = []
    before = calibrate()
    for op in ops:
        out = out_root / op.dir_name
        out.mkdir(parents=True)
        try:
            argv = op.argv(str(out))
        except (OSError, ValueError, KeyError) as exc:   # an earlier op's artifact is missing
            records.append({"op": op, "seconds": None, "wall_s": None, "digest": "", "bytes": 0,
                            "failure": f"not run, inputs unavailable: {exc!r}"})
            continue
        main = sys.modules["holocap.cli"].main
        if tracer is not None:
            tracer.op_id = op.id
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed op, not a failed run
                code = "crash"
                err.write(traceback.format_exc())
            wall = time.perf_counter() - t0
        after = calibrate()
        seconds = wall * 2.0 * CAL_REF_S / (before + after)
        before = after
        try:
            failure = op.check(str(out), code, err.getvalue(), op)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failure = f"artifact unreadable: {exc!r}"
        digest, size = _digest(out)
        records.append({"op": op, "seconds": seconds, "wall_s": wall, "failure": failure,
                        "digest": digest, "bytes": size})
    return records


def reuse_share(ops) -> float:
    """Share of ops that read an input file an earlier op of the run read."""
    seen, reused = set(), 0
    for op in ops:
        keys = [hashlib.sha256(Path(p).read_bytes()).digest() for p in op.inputs]
        reused += any(k in seen for k in keys)
        seen.update(keys)
    return reused / len(ops)


def ops_per_s(records) -> float:
    """Commands completed per calibrated second of command time."""
    ran = [r["seconds"] for r in records if r["seconds"] is not None]
    return len(ran) / sum(ran)


# ---------------------------------------------------------------------------
# set-up, environment
# ---------------------------------------------------------------------------

def load_program() -> None:
    """Import holocap.cli from this checkout's sources; exits 2 if they are absent."""
    src = ROOT / "src"
    if not (src / "holocap" / "cli.py").is_file():
        print(f"perfbench: no holocap sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    cli = importlib.import_module("holocap.cli")
    if Path(cli.__file__).resolve().parent != (src / "holocap").resolve():
        print(f"perfbench: holocap imported from {cli.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def measure_setup(args, work: Path) -> float:
    """Median time from starting a fresh interpreter to the first op being
    ready: holocap.cli imported and the run's inputs written."""
    times = []
    for k in range(SETUP_REPEATS):
        probe = work / f"probe{k}"
        before = calibrate()
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-probe", str(probe)],
            capture_output=True, text=True, timeout=120, check=True)
        wall = float(done.stdout.split()[-1]) - t0
        times.append(wall * 2.0 * CAL_REF_S / (before + calibrate()))
        shutil.rmtree(probe)
    return statistics.median(times)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "none (not a git checkout)"


def environment(args, cycles: int) -> dict:
    import numpy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "holocap").glob("*.py")):
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "cycles": cycles, "trace": args.trace, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": _commit(), "src_sha256": src.hexdigest(),
            "blas_threads": os.environ["OMP_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _timing(prefix: str, seconds: list, lines: list) -> dict:
    value, pct, n = tail(seconds)
    lines.append(f"{prefix}.p50 {p50(seconds):.6g} s (n={n})")
    lines.append(f"{prefix}.tail {value:.6g} s (p{pct}, n={n})")
    return {f"{prefix}.p50": p50(seconds), f"{prefix}.tail": value}


def end_to_end(workload: str, records: list, setup_s: float, lines: list) -> dict:
    """End-to-end metrics, plus report lines under the per-command names."""
    ran = [r for r in records if r["seconds"] is not None]
    by_cls = {"main": [], "side": []}
    by_cmd = {}
    for r in ran:
        by_cls[r["op"].cls].append(r["seconds"])
        by_cmd.setdefault(r["op"].cmd, []).append(r["seconds"])
    for cmd, secs in by_cmd.items():
        _timing(f"{cmd}_s", secs, lines)
    facts = {}
    for r in records:
        for key, v in r["op"].facts.items():
            facts.setdefault(key, []).append(v)
    for key, vals in sorted(facts.items()):
        lines.append(f"{key} max {max(vals):.6g} median {statistics.median(vals):.6g} "
                     f"(n={len(vals)})")
    values = {"setup_s": setup_s, "ops_per_s": ops_per_s(records),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    values.update(_timing("main_s", by_cls["main"], []))
    values.update(_timing("side_s", by_cls["side"], []))
    fact, aggregate = REL_ERR[workload]
    # an op whose artifact is missing has no error to report; count it as all error
    values["rel_err"] = aggregate(facts[fact]) if fact in facts else 1.0
    lines.append(f"wall ops_per_s {len(ran) / sum(r['wall_s'] for r in ran):.6g} 1/s "
                 f"(uncalibrated)")
    return {k: _metric(values[k], END_TO_END[k][0]) for k in END_TO_END}


def _oracle_lines(records: list, lines: list) -> int:
    tally = {}
    for r in records:
        counts = tally.setdefault(r["op"].label, [0, 0])
        counts[bool(r["failure"])] += 1
        if r["failure"]:
            lines.append(f"FAIL op {r['op'].id} ({r['op'].label}): {r['failure']}")
    for label, (passed, failed) in sorted(tally.items()):
        lines.append(f"oracle {label}: {passed} passed, {failed} failed")
    return sum(failed for _, failed in tally.values())


# ---------------------------------------------------------------------------

def run_workload(args, cycles: int, work: Path, size=workloads.FULL) -> tuple:
    """Set up, run and check one workload under ``work``; returns the result
    object and the report lines."""
    setup_s = None if args.trace else measure_setup(args, work)
    ops = workloads.build_ops(args.workload, args.seed, cycles, work / "in", size)
    lines = [json.dumps(environment(args, cycles), sort_keys=True)]
    records = run_ops(ops, work / "plain")
    failed = _oracle_lines(records, lines)
    attempted = len(records)
    lines.append(f"reuse_share {reuse_share(ops):.4g} (ops reading an input read before)")
    if args.trace:
        metrics, mismatched = traced_pass(args, ops, records, work, lines)
        failed += mismatched
        attempted += len(ops)
    else:
        metrics = end_to_end(args.workload, records, setup_s, lines)
    lines.append(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} ops)")
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    span = args.seconds / (2 if args.trace else 1)
    cycles = max(1, round(span / CYCLE_SECONDS[args.workload]))
    if args.setup_probe:
        workloads.build_ops(args.workload, args.seed, cycles, Path(args.setup_probe))
        print(time.perf_counter(), flush=True)
        return 0

    work = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, lines = run_workload(args, cycles, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def traced_pass(args, ops, plain: list, work: Path, lines: list) -> tuple:
    """Rerun the ops under the tracer; per-layer metrics and mismatch count.
    The spans are written next to ``work``."""
    tracer = Tracer()
    with tracer:
        records = run_ops(ops, work / "traced", tracer)
    failed = _oracle_lines(records, lines)
    for a, b in zip(plain, records):
        if a["digest"] != b["digest"]:
            failed += 1
            lines.append(f"FAIL op {a['op'].id} ({a['op'].label}): traced artifacts differ")
    eval_ops = {op.id for op in ops if op.cmd == "eval"}
    values = tracer.per_layer(eval_ops)
    values["cli.bytes_written"] = sum(r["bytes"] for r in records)
    values["trace.overhead"] = ops_per_s(plain) / ops_per_s(records) - 1.0
    spans = work.parent / f"spans-{args.workload}-s{args.seed}.npz"
    tracer.save(spans)
    lines.append(f"spans {len(tracer.start)} written to {spans}; peak_rss_mb "
                 f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f}")
    units = per_layer_metrics()
    return {k: _metric(values[k], units[k][0]) for k in units}, failed


if __name__ == "__main__":
    sys.exit(main())
