import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import fixture
import metrics
import workloads
from conftest import BENCH, ROOT

PARSE = [name for name, s in workloads.WORKLOADS.items() if isinstance(s, workloads.ParseSpec)]


def _small(name):
    spec = workloads.WORKLOADS[name]
    if isinstance(spec, workloads.ParseSpec):
        return replace(spec, pool=6)
    return replace(spec, iters_per_stage=2, programs_per_stage=15, heldout_programs=5)


@pytest.mark.parametrize("name", PARSE)
def test_deterministic_counts_repeat_across_traced_runs(name, tmp_path):
    runs = [workloads.run(_small(name), 3, 0.2, True, tmp_path) for _ in range(2)]
    for outcome in runs:
        assert outcome.failed == 0
        assert set(outcome.metrics) == set(metrics.PER_LAYER)
    first, second = (o.metrics for o in runs)
    for key in metrics.DETERMINISTIC:
        assert first[key] == second[key], key
    assert runs[0].inputs_digest == runs[1].inputs_digest
    layer = "search.nodes_expanded" if name == "search-short" else "guider.gru_steps"
    assert first[layer] > 0


def test_traced_training_reports_its_layers(tmp_path):
    outcome = workloads.run(_small("train-curriculum"), 3, 0.2, True, tmp_path)
    assert outcome.failed == 0
    for key in ("guider.loss_grad_ms", "guider.adam_ms", "sampler.programs_per_s", "sampler.pairs_ms"):
        assert outcome.metrics[key] > 0, key


def test_untraced_training_checks_and_measures(tmp_path):
    outcome = workloads.run(_small("train-curriculum"), 3, 0.2, False, tmp_path)
    assert outcome.failed == 0 and outcome.attempted >= 1
    assert set(outcome.metrics) == set(metrics.END_TO_END)
    assert 0 < outcome.metrics["accuracy"] <= 1
    assert (tmp_path / "train-roundtrip.bin").is_file()


def test_fixture_with_another_digest_is_refused(tmp_path, monkeypatch):
    bad = tmp_path / "model.bin"
    data = bytearray(fixture.MODEL_PATH.read_bytes())
    data[-1] ^= 1
    bad.write_bytes(bytes(data))
    monkeypatch.setattr(fixture, "MODEL_PATH", bad)
    with pytest.raises(fixture.FixtureMismatch):
        fixture.checked_model_path()


def test_fixture_matches_its_record():
    assert fixture.checked_model_path() == fixture.MODEL_PATH


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_a_correct_result(name):
    proc = _run(ROOT, "--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "fallback-long", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
