"""Fast tests of the benchmark itself; no timing is asserted.

The hand-worked cases pin the independent computations the benchmark
checks textclf against.  The smoke runs start run.py on every workload
at reduced size, with every correctness check still in place.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, reference
from perfbench.runner import END_TO_END

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_same_conv_pads_left_then_right():
    x = np.array([[[1.0], [-2.0], [0.0]]])
    kernels = np.array([[[1.0]], [[10.0]]])  # width 2: no left pad, one right
    out = reference._same_conv(x, kernels, np.array([0.5]))
    assert out[0, :, 0].tolist() == [1 - 20 + 0.5, -2 + 0 + 0.5, 0 + 0 + 0.5]


def test_reference_forward_hand_case():
    # one channel of width 1, pool 2, a one-unit LSTM whose gates are all
    # 1/2 and whose candidate is 1/2, and a two-class head
    arrays = {
        "embedding": np.array([[0.0], [1.0], [-2.0]]),
        "conv0_k1_kernels": np.array([[[2.0]]]), "conv0_k1_bias": np.array([0.5]),
        "lstm_b_i": np.zeros(1), "lstm_b_f": np.zeros(1), "lstm_b_o": np.zeros(1),
        "lstm_b_c": np.array([math.atanh(0.5)]),
        "head_w": np.array([[1.0, 0.0], [0.0, 2.0]]), "head_b": np.array([0.0, 0.1]),
    }
    for gate in "ifco":
        arrays[f"lstm_w_x{gate}"] = np.zeros((1, 1))
        arrays[f"lstm_w_h{gate}"] = np.zeros((1, 1))
    probs = reference.convlstm_forward(arrays, np.array([[1, 2, 0]]), (1,), pool=2)
    # conv: relu(2x + 0.5) over x = 1, -2, 0 -> 2.5, 0, 0.5; pooled 2.5, 0.5; max 2.5
    c = 0.0
    for _ in range(3):
        c = 0.5 * c + 0.5 * 0.5
    h = 0.5 * math.tanh(c)
    logits = [2.5, 2 * h + 0.1]
    z = sum(math.exp(v) for v in logits)
    assert probs[0].tolist() == pytest.approx([math.exp(v) / z for v in logits], abs=1e-12)


def test_cooccurrence_counts_hand_cases():
    assert reference.cooccurrence_counts([[1, 2, 3]], 1) == {
        (1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1}
    assert reference.cooccurrence_counts([[1, 1], [4]], 2) == {(1, 1): 2}
    assert reference.cooccurrence_counts([[1, 2, 1]], 2) == {
        (1, 2): 2, (2, 1): 2, (1, 1): 2}


def test_expected_pairs_hand_cases():
    assert reference.expected_pairs([3], 1) == 4
    assert reference.expected_pairs([3], 2) == 5  # (3 + 4 + 3) / 2
    assert reference.expected_pairs([1, 2], 5) == 2


def test_fnv1a_and_subword_buckets():
    assert reference.fnv1a("") == 0x811C9DC5
    assert reference.fnv1a("a") == 0xE40C292C
    assert reference.fnv1a("foobar") == 0xBF9CF968
    grams = ["<a", "ab", "b>", "<ab", "ab>", "<ab>"]
    assert reference.subword_buckets("ab", 2, 3, 1000) == [reference.fnv1a(g) % 1000 for g in grams]


def test_prune_macro_f1_and_class_margin():
    assert reference.prune_min_df([("a", "b", "a"), ("a",)], 2) == [("a", "a"), ("a",)]
    assert reference.macro_f1(["A", "A", "B"], ["A", "B", "B"], ["A", "B"]) == pytest.approx(2 / 3)
    vectors = {"a": np.array([1.0, 0.0]), "b": np.array([2.0, 0.0]), "c": np.array([0.0, 1.0])}
    assert reference.class_margin(vectors, [["a", "b"], ["c"]]) == pytest.approx(1.0)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("workload,trace", [("convlstm-paper", 0), ("cli-chain", 1)])
def test_smoke_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    machine = json.loads(lines[0].split(" ", 1)[1])
    assert {"nproc", "python", "numpy", "blas"} <= set(machine)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] > 0
    # the logreg save/load round trip fails on the float32 checkpoint fault
    assert result["failed"] <= (1 if workload == "cli-chain" else 0)
    names = [m[0] for m in layers.METRICS] if trace else list(END_TO_END)
    assert list(result["metrics"]) == names
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        for name in ("nn.tape_nodes", "embeddings.sgns.pairs", "pipeline.docs",
                     "checkpoint.bytes", "cli.predict_convlstm.peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("cli-chain", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
