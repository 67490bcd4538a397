"""The benchmark's own tests: ``python3 -m pytest perfbench/selftest.py``.

The file name keeps them out of the repository's default test collection,
because the smoke runs take about a minute.
"""

import json
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import TARGETS, Tracer, self_times

run.load_program()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int, tmp_path: Path) -> tuple:
    args = run.parse_args(["--workload", workload, "--seconds", "1", "--trace", str(trace)])
    return run.run_workload(args, 1, tmp_path / "work", workloads.SMOKE)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(workload, tmp_path):
    result, lines = _smoke(workload, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0, "\n".join(lines)
    assert f"error_rate 0 (0 of {result['attempted']} ops)" in lines
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_run_matches_plain_run(workload, tmp_path):
    result, lines = _smoke(workload, 1, tmp_path)
    # correct includes the byte-for-byte comparison of traced and plain artifacts
    assert result["correct"], "\n".join(lines)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["cli.main.calls"]["value"] == result["attempted"] // 2


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.per_layer_metrics())
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_nested_and_sibling_children():
    #  0: root      [0, 10]
    #  1: child     [1, 3]    sibling of 2
    #  2: child     [4, 8]
    #  3: grandkid  [5, 6]    inside 2
    #  4: other root [11, 12]
    start = [0.0, 1.0, 4.0, 5.0, 11.0]
    end = [10.0, 3.0, 8.0, 6.0, 12.0]
    parent = [-1, 0, 0, 2, -1]
    assert self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    start, end, parent = [0.0, 1.0, 2.0], [10.0, 5.0, 7.0], [-1, 0, 0]
    assert self_times(start, end, parent)[0] == 4.0


def _bindings():
    """Every (namespace, attribute) -> object the tracer may patch."""
    out = {}
    for _, module, attr in TARGETS:
        if "." in attr:
            cls, meth = attr.split(".")
            owner = getattr(sys.modules[module], cls)
            out[(owner, meth)] = owner.__dict__[meth]
            continue
        for name, mod in list(sys.modules.items()):
            if (name == "holocap" or name.startswith("holocap.")) and attr in vars(mod):
                out[(mod, attr)] = vars(mod)[attr]
    return out


def test_tracer_wraps_every_binding_and_removes_its_wrappers():
    import holocap
    from holocap.sets import Disk

    before = _bindings()
    tracer = Tracer()
    with tracer:
        # the package attribute and the module attribute are both wrapped
        assert hasattr(holocap.capacity, "__perfbench_original__")
        assert hasattr(sys.modules["holocap.capacity"].capacity, "__perfbench_original__")
        assert hasattr(sys.modules["holocap.extension"].capacity_of_cloud,
                       "__perfbench_original__")
        holocap.capacity(Disk(0, 1), 16, candidates=64)
    after = _bindings()
    assert after == before
    assert not any(hasattr(v, "__perfbench_original__") for v in after.values())
    names = [tracer.names[i] for i in tracer.name]
    assert names[:3] == ["capacity.capacity", "capacity.fekete_points", "sets.discretize"]
    assert tracer.counts["capacity.fekete_points.cand_x_n"] == 64 * 16


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90, 100)
    assert run.tail(list(range(1, 31))) == (20, 66, 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 3)
    assert run.p50([4, 1, 3, 2, 5]) == 3
