"""Tests of the benchmark itself: run with `python -m pytest perfbench`."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import corpusgen  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE = ["--seed", "3", "--seconds", "0.5", "--utterances", "150", "--stress", "1"]


def _corpus_digest(seed: int) -> str:
    code = ("import hashlib, sys; sys.path[:0] = sys.argv[2:]; import corpusgen; "
            "c = corpusgen.generate(int(sys.argv[1]), utterances=500); "
            "print(hashlib.sha256((c.text() + repr(c.stress)).encode()).hexdigest())")
    proc = subprocess.run([sys.executable, "-c", code, str(seed), str(ROOT / "src"),
                           str(BENCH_DIR)], capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_same_seed_same_corpus_across_processes():
    assert _corpus_digest(7) == _corpus_digest(7)


def test_different_seed_different_corpus():
    assert _corpus_digest(7) != _corpus_digest(8)


def test_corpus_shape_is_paper_like():
    shape = corpusgen.generate(1).shape()
    assert shape["utterances"] == 9790
    assert 3.3 <= shape["tokens"] / shape["utterances"] <= 3.5
    assert 1300 <= shape["types"] <= 1400


def test_stress_lengths_are_exact():
    stress = corpusgen.generate(2, utterances=50).stress
    lengths = sorted({sum(map(len, words)) for words in stress})
    assert lengths == sorted(corpusgen.STRESS_LENGTHS)


def test_metric_names_and_counts_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    names = [name for name, _ in end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_self_time_and_coverage():
    tracer = Tracer()
    tracer.spans = [[1, 0, "bench.x", 0, 100, -1],
                    [2, 1, "harness.main", 10, 90, -1],
                    [3, 2, "harness.run", 20, 70, -1],
                    [4, 1, "corpus.load_corpus", 90, 95, -1]]
    self_ns = tracer.self_times()
    assert self_ns["harness"] == pytest.approx(80e-9)
    assert self_ns["corpus"] == pytest.approx(5e-9)
    assert tracer.coverage() == pytest.approx(0.85)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--trace", str(trace), *SMOKE],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == expected
    for name, unit in expected:
        assert any(line.split()[0::2] == [name, unit] for line in lines[:-1]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.95


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "incremental",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
