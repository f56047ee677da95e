"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``; the
smoke runs take about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(argv: list[str]) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "entspace.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


def test_workloads_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.invocations(name, 3) == workloads.invocations(name, 3)
        assert workloads.invocations(name, 3) != workloads.invocations(name, 4)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
        assert set(meta["unscaled"]) == set(want) - {"peak_rss_mb"}


def test_run_refuses_a_tree_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ff-oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_checker_rejects_a_dropped_s_row():
    argv = "construct --dims 3,3 --space S".split()
    rc, out = _cli(argv)
    assert checker.check(argv, rc, out) is None
    doc = json.loads(out)
    doc["vectors"].pop(1)
    assert "rows, expected" in checker.check(argv, rc, json.dumps(doc).encode())


def test_checker_rejects_a_dropped_csv_matrix():
    argv = "construct --dims 3,4 --space S --format csv".split()
    rc, out = _cli(argv)
    assert checker.check(argv, rc, out) is None
    blocks = out.decode().strip().split("\n\n")
    tampered = "\n\n".join(blocks[:2] + blocks[3:]) + "\n"
    assert checker.check(argv, rc, tampered.encode()) is not None


def test_checker_rejects_a_flipped_verdict():
    argv = "verify --dims 3,3 --space S --method ff --primes 5".split()
    rc, out = _cli(argv)
    assert checker.check(argv, rc, out) is None
    doc = json.loads(out)
    doc["verdict"] = checker.WITNESS
    assert "verdict" in checker.check(argv, rc, json.dumps(doc).encode())


def test_checker_rejects_a_wrong_exit_code():
    argv = "classify --dims 2,3 --prime 5".split()
    rc, out = _cli(argv)
    assert checker.check(argv, rc, out) is None
    assert "exit code" in checker.check(argv, 3, out)


def test_ledger_flags_a_digest_change_across_runs(tmp_path):
    argv = "classify --dims 2,3 --prime 5".split()
    rc, out = _cli(argv)
    first = run.Ledger(tmp_path / "digests.json")
    sample = run.Sample(argv, rc, 0.0)
    first.judge(sample, out)
    assert sample.failure is None
    first.save()
    again = run.Ledger(tmp_path / "digests.json")
    changed = run.Sample(argv, rc, 0.0)
    again.judge(changed, out.replace(b'"passed": true', b'"passed": true '))
    assert "digest" in changed.failure


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90, 90.0, 10)
    assert run.tail([float(x) for x in range(1, 61)]) == (83, 50.0, 10)


def test_scale_turns_seconds_into_reference_seconds():
    nominal = dict(run.REFERENCE_S)
    slow = {k: 2 * v for k, v in nominal.items()}
    assert run.Sample([], 0, 1.0).scale == 1.0
    assert run.Sample([], 0, 1.0, refs=(nominal, nominal)).scale == pytest.approx(1.0)
    assert run.Sample([], 0, 1.0, refs=(slow, slow)).scale == pytest.approx(0.5)
    assert run.Sample([], 0, 1.0, refs=(nominal, slow)).scale == pytest.approx(2 ** -0.5)
    assert set(run.reference()) == set(nominal)


def test_tracer_records_nested_spans_and_restores_names():
    sys.path.insert(0, str(ROOT / "src"))
    import entspace.cli
    import entspace.construct
    import entspace.linalg

    original = entspace.construct.span
    tracer = spans.Tracer()
    argv = "construct --dims 3,3 --space example1".split()
    with tracer.installed():
        sample, out = run._run_inprocess(entspace.cli.main, argv, tracer)
    assert entspace.construct.span is original is entspace.linalg.span
    assert checker.check(argv, sample.rc, out) is None
    recorded = tracer.take()
    names = [s.name for s in recorded]
    assert names[0] == "main" and recorded[0].parent is None
    ortho = names.index("orthocomplement")
    assert any(s.name == "span" and s.parent == ortho for s in recorded)
    metrics = spans.layer_metrics(recorded)
    assert metrics["linalg.span_calls"] == names.count("span")
    assert metrics["linalg.orthocomplement_s"] > 0
