"""Tests of the benchmark itself: seeded inputs, metric names, span trees.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

bench.import_program()

import air.exactgeom  # noqa: E402


def _write_inputs(tmp_path, monkeypatch, name, seed, tag):
    monkeypatch.setattr(bench, "OUT", str(tmp_path / tag))
    inputs = bench.Inputs(WORKLOADS[name], seed)
    inputs.write_chunk(0)
    files = {}
    for root, _, names in os.walk(inputs.dir):
        for fname in names:
            path = os.path.join(root, fname)
            with open(path, "rb") as f:
                files[os.path.relpath(path, inputs.dir)] = f.read()
    return files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_input_bytes(tmp_path, monkeypatch, name):
    first = _write_inputs(tmp_path, monkeypatch, name, 5, "a")
    again = _write_inputs(tmp_path, monkeypatch, name, 5, "b")
    other = _write_inputs(tmp_path, monkeypatch, name, 6, "c")
    assert len(first) >= bench.CHUNK
    assert first == again
    assert first.keys() == other.keys() and first != other


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec


def test_benchmark_json_lists_every_workload_and_metric():
    spec = _declared()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in bench.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_printed_metrics_match_benchmark_json(name, trace):
    spec = _declared()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    printed = {line.split(" = ")[0] for line in lines if " = " in line}
    assert set(result["metrics"]) <= printed


def test_bare_directory_fails_without_a_result(tmp_path):
    # only BENCHMARK.json and the benchmark's own files, no program source
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "web",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_beyond():
    times = [float(k) for k in range(1, 41)]          # 40 instances
    value, pct = bench.tail(times)
    assert pct == 75 and value == 30.0                # ten lie above 30
    assert bench.tail(times[:15]) == (8.0, 50)        # too few: the median


def test_scaling_uses_the_kernel_time_around_each_slot():
    ref = calibrate.REFERENCE_S
    # a host twice as slow as the reference halves every time
    assert calibrate.speed_factor(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert calibrate.scaled([(1.0, ref, 3 * ref), (0.5, ref, ref)]) == \
        pytest.approx([0.5, 0.5])
    assert calibrate.measure() > 0


def _check_tree(tracer):
    own = tracer.self_times()
    n = len(tracer.start)
    assert n > 0 and not tracer.stack
    totals = {}
    for i in range(n):
        p = tracer.parent[i]
        assert tracer.start[i] <= tracer.end[i]
        if p >= 0:
            assert p < i
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
        r = i
        while tracer.parent[r] >= 0:
            r = tracer.parent[r]
        totals[r] = totals.get(r, 0.0) + own[i]
    for r, total in totals.items():
        assert total == pytest.approx(tracer.end[r] - tracer.start[r], abs=1e-6)
    assert all(x >= -1e-9 for x in own)
    assert tracer.problems() == []


def test_synthetic_span_tree_self_times():
    tracer = Tracer()
    leaf = tracer._spanned("t.leaf", lambda: sum(range(2000)))
    mid = tracer._spanned("t.mid", lambda: (leaf(), leaf()))
    with tracer.root("instance"):
        mid()
        leaf()
    assert [tracer.names[i] for i in tracer.name] == \
        ["instance", "t.mid", "t.leaf", "t.leaf", "t.leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 1, 0]
    _check_tree(tracer)


def test_traced_instance_has_a_well_formed_span_tree(tmp_path):
    wl = WORKLOADS["web"]
    for fname, data in wl.generate(9, 0).items():
        (tmp_path / fname).write_bytes(data)
    orient = air.exactgeom.orient
    tracer = Tracer()
    tracer.prepare()
    tracer.install()
    try:
        with tracer.root("instance"):
            res = wl.run(str(tmp_path))
    finally:
        tracer.uninstall()
    assert air.exactgeom.orient is orient
    assert res.error is None
    totals = tracer.layer_totals()
    assert totals[(0, "homotopy.build_web_cdga")][0] == 1
    assert totals[(0, "secondary.is_regular")][0] > 0
    assert tracer.counters[(0, "exactgeom.orient.calls")] > 0
    _check_tree(tracer)
