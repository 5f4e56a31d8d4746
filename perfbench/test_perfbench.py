"""Tests of the benchmark itself, at the tiny (S_3/S_4) scale."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny", "--seconds", "1", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    code, result = run_bench("--workload", workload, "--seed", "5", "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        _, result = run_bench("--workload", "s6-zscan", "--seed", "2", "--trace", "1")
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    refs = json.loads((HERE / "refs" / "tiny.json").read_text())
    _, reports = bench.zscan_sweep(bench.SCALES["tiny"], bench.slice_order(2, refs)[0])
    assert counts[0]["intervals.build_calls"] == reports
    assert counts[0]["hypercubes.zscan_calls"] > 0
    assert counts[0]["intervals.isomorphic_calls"] == 0


def failed_result(code: int, stdout: str) -> dict:
    """The result line of a run that must end normally and report a failure."""
    assert code == 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    return result


@pytest.mark.parametrize("workload", ["s6-zscan", "queries-cold"])
def test_corrupted_reference_is_a_failure(workload, tmp_path, monkeypatch, capsys):
    refs = json.loads((HERE / "refs" / "tiny.json").read_text())
    for lines in refs["sweeps"].values():
        lines[-1] = "0" * 16
    for pool in refs["queries"].values():
        for query in pool:
            query["digest"] = "0" * 16
    (tmp_path / "tiny.json").write_text(json.dumps(refs))
    monkeypatch.setattr(bench, "REFS", tmp_path)
    code = bench.main(["--scale", "tiny", "--seconds", "1", "--workload", workload, "--seed", "1", "--trace", "0"])
    failed_result(code, capsys.readouterr().out)


def test_zero_interval_run_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    # a reversed --interval selects nothing, and verify still exits 0
    run = bench.run_process(bench.cli_command(["verify", "4", "--interval", "4321", "1234", "--json"]))
    assert run.returncode == 0
    attempted, failed, problems = bench.check_sweep(run, 0, bench.stream_digests(run.lines))
    assert failed == attempted >= 1
    assert "no interval reports" in problems


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "4", "--exhaustive-z", "--json"],
        ["verify", "4", "--iso-classes", "--json"],
        ["kl", "1234", "4321"],
        ["hcd", "1234", "4231", "--json"],
    ],
)
def test_layer_times_add_up_to_the_traced_cli(argv, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    spans_path = tmp_path / "spans.json"
    run = bench.run_process(bench.cli_command(argv, spans_path))
    assert run.returncode == 0
    spans = tracing.load_spans(spans_path)
    roots = [end - start for name, start, end, parent, _ in spans if parent < 0]
    assert [name for name, _, _, parent, _ in spans if parent < 0] == ["cli.main"]
    metrics = tracing.layer_metrics([spans], 1.0)
    layer_s = sum(value for value, unit in metrics.values() if unit == "s")
    assert layer_s == pytest.approx(roots[0], rel=1e-9)


def copy_benchmark(dest: Path) -> None:
    """BENCHMARK.json and the files under perfbench/, as a checkout holds them."""
    (dest / "BENCHMARK.json").write_text(json.dumps(SPEC))
    bench_dir = dest / "perfbench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    (bench_dir / "refs").mkdir()
    for path in (HERE / "refs").iterdir():
        (bench_dir / "refs" / path.name).write_text(path.read_text())


@pytest.mark.parametrize("workload", ["s6-zscan", "queries-cold"])
def test_layer_the_tracer_cannot_find_is_a_failure(workload, tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(HERE.parent / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    tracer = tmp_path / "perfbench" / "tracing.py"
    text = tracer.read_text()
    # as if a later change renamed htilde in cli
    assert '    ("cli", "htilde"):' in text
    tracer.write_text(text.replace('    ("cli", "htilde"):', '    ("cli", "htilde_renamed"):'))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "tiny", "--seconds", "1"]
        + ["--workload", workload, "--seed", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    failed_result(proc.returncode, proc.stdout)


def test_missing_program_exits_nonzero_without_result(tmp_path):
    copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "s6-zscan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
