"""Tiny-dimension smoke and fault-injection tests of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import mmner  # noqa: E402
from mmner import ScoredSequence  # noqa: E402
from perfbench import run, workloads  # noqa: E402
from perfbench.synth import CorpusShape, generate  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

TINY = workloads.Scale(
    corpus=CorpusShape(n_train=60, n_heldout=12, n_chars=80, n_words=300, surfaces_per_type=6),
    dim=4, hidden=3,
)


def bench(capsys, workload: str, trace: int = 0, seed: int = 3):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
        scale=TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_reports_every_metric(capsys, workload, trace):
    code, info, result = bench(capsys, workload, trace)
    assert code == 0, info["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in wanted)
    assert info["corpus"]["train"]["sentences"] == TINY.corpus.n_train


def test_traced_runs_show_the_predicted_zeros(capsys):
    layers = {}
    for workload in workloads.WORKLOADS:
        code, info, result = bench(capsys, workload, trace=1)
        assert code == 0 and info["absent_hooks"] == []
        layers[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    assert layers["train-integrated"]["structured.beam_calls"] == 1.0
    assert layers["train-integrated"]["triggers.delta_calls"] > 0
    for workload in ("train-hamming", "predict"):
        assert layers[workload]["structured.beam_calls"] == 0.0
        assert layers[workload]["triggers.delta_calls"] == 0.0
    for name in ("training.sgd_calls", "embeddings.scatter_calls", "model.copy_calls",
                 "network.backward_self_ms", "embeddings.grad_mb"):
        assert layers["predict"][name] == 0.0
    for workload in workloads.TRAIN_TRIGGERS:
        assert layers[workload]["training.sgd_calls"] == 1.0
        assert layers[workload]["network.lstm_gflop_s"] > 0
    assert layers["predict"]["structured.viterbi_calls"] == 1.0


def test_wrong_gradient_fails_the_run(capsys, monkeypatch):
    real = mmner.training.backward

    def skewed(*args):
        grads = real(*args)
        grads.d_fwd_w *= 1.5
        return grads

    monkeypatch.setattr(mmner.training, "backward", skewed)
    code, info, result = bench(capsys, "train-hamming")
    assert code == 1 and result["correct"] is False and result["failed"] > 0
    assert any("directional" in f for f in info["failures"])


def test_wrong_decode_fails_the_run(capsys, monkeypatch):
    real = mmner.training.viterbi

    def off_by_one(em, trans):
        best = real(em, trans)
        labels = best.labels[:-1] + [(best.labels[-1] + 1) % em.n_labels]
        return ScoredSequence(labels, best.score)

    monkeypatch.setattr(mmner.training, "viterbi", off_by_one)
    code, info, result = bench(capsys, "predict")
    assert code == 1 and result["correct"] is False
    assert any("reference best" in f for f in info["failures"])


def test_absent_hook_point_is_reported_not_fatal():
    tracer = Tracer()
    tracer.install([("mmner.training:no_such_function", "x", False),
                    ("mmner.no_such_module:f", "y", False)])
    tracer.uninstall()
    assert tracer.absent == ["mmner.training:no_such_function", "mmner.no_such_module:f"]


def test_corpus_is_a_function_of_the_seed():
    shape = TINY.corpus
    a, b, c = generate(5, shape), generate(5, shape), generate(6, shape)
    assert [s.tokens for s in a.train] == [s.tokens for s in b.train]
    assert a.seg_lines == b.seg_lines
    assert [s.tokens for s in a.train] != [s.tokens for s in c.train]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
