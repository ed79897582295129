"""One benchmark run: rounds of the three stages, or the traced run."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import layers, stages
from .tracing import Tracer
from .workloads import WORKLOADS, smoke

ROOT = stages.ROOT
WORK = ROOT / "perfbench" / ".work"
END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "convlstm_train_docs_per_s": "docs/s",
    "convlstm_predict_docs_per_s": "docs/s", "sgns_pairs_per_s": "pairs/s",
    "subword_pairs_per_s": "pairs/s", "glove_pairs_per_s": "pairs/s",
    "preprocess_docs_per_s": "docs/s", "tfidf_train_docs_per_s": "docs/s",
    "fasttext_train_docs_per_s": "docs/s", "cli_predict_docs_per_s": "docs/s",
    "cli_predict_peak_rss_mb": "MB", "knn_model_bytes": "bytes", "chain_s": "s",
}
IMPORT_PROBE = ("import sys, time\nstart = time.perf_counter()\nimport textclf.cli\n"
                "sys.stdout.write(repr(time.perf_counter() - start))\n")


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _probe(workdir: Path, argv: list, count: int) -> list:
    """Run a short child ``count`` times; returns (stdout, wall s, peak MB)."""
    env = stages.child_env()
    out = []
    for i in range(count):
        stdout = workdir / f"probe{i}.stdout"
        code, wall, rss = stages.run_child([sys.executable, *argv], env, os.devnull, stdout,
                                           workdir / f"probe{i}.stderr")
        if code != 0:
            raise RuntimeError(f"probe {argv} exited with {code}")
        out.append((stdout.read_text(encoding="utf-8"), wall, rss))
    return out


def _round(spec, seed, ledger, tracer, chain, workdir, in_process,
           parts=("model", "embed", "chain")):
    metrics, walls, steps = {}, {}, {}
    for part in parts:
        start = time.perf_counter()
        if part == "model":
            metrics.update(stages.model_stage(spec.model, seed, ledger, tracer))
        elif part == "embed":
            metrics.update(stages.embed_stage(spec.embed, seed, ledger, tracer))
        else:
            chain_metrics, steps = chain.run(spec.chain, seed, ledger, tracer, workdir,
                                             in_process)
            metrics.update(chain_metrics)
        walls[part] = time.perf_counter() - start
    return metrics, walls, steps


def run(name: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> dict:
    spec = smoke(WORKLOADS[name]) if reduced else WORKLOADS[name]
    probes = 1 if reduced else 3
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger, extra = stages.Ledger(), stages.Ledger()
    chain = stages.ChainStage()
    try:
        imports = _probe(workdir, ["-c", IMPORT_PROBE], probes)
        import_s = statistics.median(float(stdout) for stdout, _, _ in imports)
        if not trace:
            rounds, walls = [], []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                metrics, round_walls, _ = _round(spec, seed, ledger, Tracer(False), chain,
                                                 workdir / f"round{len(rounds)}",
                                                 in_process=False)
                rounds.append(metrics)
                walls.append(round_walls)
            own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            probe_mb = max(rss for _, _, rss in imports)
            for m in rounds:
                m["setup_s"] = import_s + m.pop("model_setup_s")
                m["peak_rss_mb"] = max(own_mb, probe_mb, m.pop("children_peak_rss_mb"))
            metrics = {key: {"value": float(statistics.median(m[key] for m in rounds)),
                             "unit": unit} for key, unit in END_TO_END.items()}
        else:
            _, base_walls, base_steps = _round(spec, seed, ledger, Tracer(False), chain,
                                               workdir / "base", in_process=False)
            _, inproc_walls, _ = _round(spec, seed, extra, Tracer(False), chain,
                                        workdir / "inproc", in_process=True, parts=("chain",))
            tracer = Tracer(True)
            layers.install(tracer)
            try:
                _, traced_walls, _ = _round(spec, seed, extra, tracer, chain,
                                            workdir / "traced", in_process=True)
            finally:
                tracer.unpatch()
            tracer.write(WORK / f"trace-{name}-{seed}.tsv")
            untraced = base_walls["model"] + base_walls["embed"] + inproc_walls["chain"]
            startup = statistics.median(
                wall for _, wall, _ in _probe(workdir, ["-m", "textclf.cli", "--help"], probes))
            metrics = layers.per_layer_metrics(tracer, base_steps, startup,
                                               sum(traced_walls.values()) - untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = ledger.problems + extra.problems
    if trace:
        walls = [base_walls, traced_walls]
    return {
        "correct": not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "problems": problems,
        "known_faults": ledger.known_faults,
        "stage_walls": walls,
    }
