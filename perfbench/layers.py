"""Per-layer metrics of the traced run.

``install`` wraps the public functions of each textclf layer; the names
of the layers are the repository's modules.  ``per_layer_metrics``
turns the recorded spans and counts into the metrics BENCHMARK.json
lists.  Durations are self time: a span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import textclf
import textclf.cli
import textclf.corpus
import textclf.embeddings
import textclf.eval
import textclf.model
import textclf.nn
import textclf.pipeline

from .stages import KERNEL_SIZES, ChainStage
from .tracing import LayerTotals, Tracer

CLI_STEPS = ChainStage.STEPS
NN_OPS = ("embedding_lookup", *(f"conv1d.k{k}" for k in KERNEL_SIZES), "maxpool1d",
          "global_maxpool", "lstm_forward", "head")


def _metric_table() -> list:
    """(name, unit, better) of every per-layer metric, in output order."""
    rows = []
    for op in NN_OPS:
        rows.append((f"nn.{op}.fwd_s", "s", "lower"))
    for op in NN_OPS:
        rows.append((f"nn.{op}.bwd_s", "s", "lower"))
    rows += [("nn.step.fwd_s", "s", "lower"), ("nn.step.bwd_s", "s", "lower"),
             ("nn.adagrad.step_s", "s", "lower"), ("nn.tape_nodes", "count", "lower")]
    rows += [(f"model.{n}", "s", "lower") for n in (
        "convlstm.train_step_s", "convlstm.predict_batch_s", "tfidf.fit_s",
        "tfidf.transform_s")]
    rows.append(("model.tfidf.nnz", "count", "lower"))
    rows += [(f"model.{n}", "s", "lower") for n in (
        "logreg.fit_s", "fasttext.fit_s", "fasttext.predict_s", "knn.predict_s",
        "save_s", "load_s")]
    rows += [("corpus.build_vocabulary_s", "s", "lower"),
             ("corpus.encode_document_s", "s", "lower")]
    rows += [("embeddings.sgns.train_s", "s", "lower"),
             ("embeddings.sgns.pairs", "count", "higher"),
             ("embeddings.sgns_pair_step_s", "s", "lower"),
             ("embeddings.draw_excluding_s", "s", "lower"),
             ("embeddings.negatives.requested", "count", "lower"),
             ("embeddings.negatives.returned", "count", "higher"),
             ("embeddings.subword.train_s", "s", "lower"),
             ("embeddings.subword.pairs", "count", "higher"),
             ("embeddings.subword_pair_s", "s", "lower"),
             ("embeddings.cooccurrence.build_s", "s", "lower"),
             ("embeddings.cooccurrence.pairs", "count", "higher"),
             ("embeddings.glove.train_s", "s", "lower")]
    rows += [(f"pipeline.{n}_s", "s", "lower")
             for n in ("clean_text", "normalize_hashtag", "stem_token", "prune")]
    rows += [("pipeline.docs", "count", "higher"), ("pipeline.tokens_out", "count", "higher")]
    rows += [("checkpoint.save_s", "s", "lower"), ("checkpoint.load_s", "s", "lower"),
             ("checkpoint.bytes", "bytes", "lower"), ("eval.score_s", "s", "lower"),
             ("cli.startup_s", "s", "lower")]
    for step in CLI_STEPS:
        rows += [(f"cli.{step}.wall_s", "s", "lower"), (f"cli.{step}.peak_rss_mb", "MB", "lower")]
    rows.append(("trace.overhead_s", "s", "lower"))
    return rows


METRICS = _metric_table()


def _reachable(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _checkpoint_bytes(directory) -> int:
    d = Path(directory)
    return sum((d / name).stat().st_size for name in ("weights.bin", "manifest.json"))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer; undo with tracer.unpatch()."""
    nn, model, emb, pipe = textclf.nn, textclf.model, textclf.embeddings, textclf.pipeline
    # nn ops are patched on the package only: model.py calls them as nn.<op>,
    # while the LSTM cell's inner dense products must stay unwrapped
    for op in ("embedding_lookup", "maxpool1d", "global_maxpool", "lstm_forward"):
        tracer.patch(nn, op, f"nn.{op}")
    tracer.patch(nn, "conv1d", lambda x, kernels, *a, **k: f"nn.conv1d.k{kernels.shape[0]}")
    tracer.patch(nn, "dense", "nn.head.dense")
    tracer.patch(nn, "softmax", "nn.head.softmax")
    tracer.patch(nn, "cross_entropy_loss", "nn.head.loss")
    tracer.patch(model.ConvLstmNetwork, "forward", "nn.step.forward")
    tracer.patch(nn.Adagrad, "step", "nn.adagrad.step")

    def count_tape(args, kwargs):
        if tracer.section == ("model", "train"):
            tracer.count("nn.tape_nodes", _reachable(args[0]))

    tracer.patch(nn.Tensor, "backward", "nn.step.backward", before=count_tape)
    tracer.patch(nn, "save_checkpoint", "checkpoint.save",
                 on_return=lambda a, k, r: tracer.count("checkpoint.bytes", _checkpoint_bytes(a[0])))
    tracer.patch(nn, "load_checkpoint", "checkpoint.load")

    tracer.patch(model.ConvLstmClassifier, "predict_proba", "model.convlstm.predict_proba")
    tracer.patch(model.TfidfFeaturizer, "fit", "model.tfidf.fit")
    tracer.patch(model.TfidfFeaturizer, "transform", "model.tfidf.transform",
                 on_return=lambda a, k, r: tracer.count("model.tfidf.nnz", r.nnz))
    tracer.patch_everywhere(model.train_baseline,
                            lambda features, labels, kind, **k: f"model.baseline.{kind}")
    tracer.patch(model.TfidfClassifier, "predict_proba",
                 lambda self, docs: f"model.tfidf_predict.{self.kind}")
    tracer.patch(model.FastTextClassifier, "fit", "model.fasttext.fit")
    tracer.patch(model.FastTextClassifier, "predict_proba", "model.fasttext.predict")
    for cls in (model.ConvLstmClassifier, model.TfidfClassifier, model.FastTextClassifier):
        tracer.patch(cls, "save", "model.save")
    tracer.patch_everywhere(model.load_classifier, "model.load")

    tracer.patch_everywhere(textclf.corpus.build_vocabulary, "corpus.build_vocabulary")
    tracer.patch_everywhere(textclf.corpus.encode_document, "corpus.encode_document")

    tracer.patch_everywhere(emb.train_sgns, "embeddings.sgns.train")
    tracer.patch_everywhere(emb.sgns_pair_step, "embeddings.sgns_pair_step")

    def count_negatives(args, kwargs, result):
        tracer.count("embeddings.negatives.requested", args[2] if len(args) > 2 else kwargs["k"])
        tracer.count("embeddings.negatives.returned", len(result))

    tracer.patch(emb.NegativeSampler, "draw_excluding", "embeddings.draw_excluding",
                 on_return=count_negatives)
    tracer.patch_everywhere(emb.train_subword_sgns, "embeddings.subword.train")
    tracer.patch_everywhere(emb.subword_pair_loss_and_grads, "embeddings.subword_pair")
    tracer.patch_everywhere(
        emb.build_cooccurrence, "embeddings.cooccurrence.build",
        on_return=lambda a, k, r: tracer.count("embeddings.cooccurrence.pairs", len(r)))
    tracer.patch_everywhere(emb.train_glove, "embeddings.glove.train")

    for fn in ("clean_text", "normalize_hashtag", "stem_token"):
        tracer.patch_everywhere(getattr(pipe, fn), f"pipeline.{fn}")
    tracer.patch_everywhere(pipe.prune_infrequent, "pipeline.prune")

    def count_docs(args, kwargs, result):
        tracer.count("pipeline.docs", len(args[0]))
        tracer.count("pipeline.tokens_out", sum(len(d.tokens) for d in result))

    tracer.patch_everywhere(pipe.preprocess_corpus, "pipeline.preprocess_corpus",
                            on_return=count_docs)
    for fn in ("confusion_matrix", "macro_prf", "mcc", "roc_auc", "calibration_curve"):
        tracer.patch_everywhere(getattr(textclf.eval, fn), "eval.score")


def backward_probes(tracer: Tracer, spec, vocab_size: int) -> None:
    """Backward time of each op called once at the training step's shapes.

    Each output is reduced against a fixed upstream gradient, so the
    timed ``backward()`` runs that op's backward plus one elementwise
    product.  Results are counts named ``nn.<op>.bwd_s``.
    """
    nn = textclf.nn
    rng = np.random.default_rng(0)
    b, length, d, f, u = spec.batch, spec.seq_len, spec.emb_dim, spec.filters, spec.lstm_units

    def leaf(*shape):
        return nn.Tensor((rng.standard_normal(shape) * 0.1).astype(np.float32),
                         requires_grad=True)

    def timed(name, out, reduce=True):
        loss = out
        if reduce:
            upstream = rng.standard_normal(out.shape).astype(np.float32)
            loss = (out * nn.Tensor(upstream)).sum()
        start = time.perf_counter()
        loss.backward()
        tracer.count(f"nn.{name}.bwd_s", time.perf_counter() - start)

    ids = rng.integers(1, vocab_size + 1, size=(b, length))
    timed("embedding_lookup", nn.embedding_lookup(leaf(vocab_size + 1, d), ids))
    for k in KERNEL_SIZES:
        timed(f"conv1d.k{k}", nn.conv1d(leaf(b, length, d), leaf(k, d, f), leaf(f)))
    timed("maxpool1d", nn.maxpool1d(leaf(b, length, f), 4))
    timed("global_maxpool", nn.global_maxpool(leaf(b, -(-length // 4), f)))
    params = nn.init_lstm_params(d, u, rng=np.random.default_rng(1))
    _, state = nn.lstm_forward([leaf(b, d) for _ in range(length)], params)
    timed("lstm_forward", state.hidden)
    width = len(KERNEL_SIZES) * f + u
    probs = nn.softmax(nn.dense(leaf(b, width), leaf(width, spec.classes), leaf(spec.classes)))
    target = nn.one_hot(rng.integers(0, spec.classes, size=b), spec.classes)
    timed("head", nn.cross_entropy_loss(probs, target), reduce=False)


def per_layer_metrics(tracer: Tracer, cli_steps: dict, startup_s: float,
                      overhead_s: float) -> dict:
    t = LayerTotals(tracer)
    out = {}
    steps = t.calls("nn.adagrad.step", "model", "train")

    def per_step(names):
        return t.self_s(names, "model", "train") / steps

    for op in NN_OPS:
        names = (["nn.head.dense", "nn.head.softmax", "nn.head.loss"]
                 if op == "head" else f"nn.{op}")
        out[f"nn.{op}.fwd_s"] = per_step(names)
    for op in NN_OPS:
        out[f"nn.{op}.bwd_s"] = t.count(f"nn.{op}.bwd_s", "model", "backward_probe")
    out["nn.step.fwd_s"] = per_step("nn.step.forward")
    out["nn.step.bwd_s"] = per_step("nn.step.backward")
    out["nn.adagrad.step_s"] = per_step("nn.adagrad.step")
    out["nn.tape_nodes"] = t.count("nn.tape_nodes", "model", "train") / steps
    out["model.convlstm.train_step_s"] = t.total_s("model.train", "model", "train") / steps
    out["model.convlstm.predict_batch_s"] = (
        t.total_s("model.convlstm.predict_proba", "model", "predict")
        / t.calls("model.convlstm.predict_proba", "model", "predict"))

    chain = {"model.tfidf.fit_s": "model.tfidf.fit",
             "model.tfidf.transform_s": "model.tfidf.transform",
             "model.logreg.fit_s": "model.baseline.logreg",
             "model.fasttext.fit_s": "model.fasttext.fit",
             "model.fasttext.predict_s": "model.fasttext.predict",
             "model.knn.predict_s": "model.tfidf_predict.knn",
             "model.save_s": "model.save", "model.load_s": "model.load",
             "pipeline.clean_text_s": "pipeline.clean_text",
             "pipeline.normalize_hashtag_s": "pipeline.normalize_hashtag",
             "pipeline.stem_token_s": "pipeline.stem_token",
             "pipeline.prune_s": "pipeline.prune",
             "checkpoint.save_s": "checkpoint.save",
             "checkpoint.load_s": "checkpoint.load"}
    for metric, span in chain.items():
        out[metric] = t.self_s(span, "chain")
    for metric in ("model.tfidf.nnz", "pipeline.docs", "pipeline.tokens_out", "checkpoint.bytes"):
        out[metric] = t.count(metric, "chain")
    out["eval.score_s"] = t.self_s("eval.score", "chain", "eval")
    out["corpus.build_vocabulary_s"] = t.self_s("corpus.build_vocabulary")
    out["corpus.encode_document_s"] = t.self_s("corpus.encode_document")

    fit = ("embed", "fit")
    out["embeddings.sgns.train_s"] = t.self_s("embeddings.sgns.train", *fit)
    out["embeddings.sgns.pairs"] = t.calls("embeddings.sgns_pair_step", *fit)
    out["embeddings.sgns_pair_step_s"] = t.self_s("embeddings.sgns_pair_step", *fit)
    out["embeddings.draw_excluding_s"] = t.self_s("embeddings.draw_excluding", *fit)
    for name in ("embeddings.negatives.requested", "embeddings.negatives.returned",
                 "embeddings.cooccurrence.pairs"):
        out[name] = t.count(name, *fit)
    out["embeddings.subword.train_s"] = t.self_s("embeddings.subword.train", *fit)
    out["embeddings.subword.pairs"] = t.calls("embeddings.subword_pair", *fit)
    out["embeddings.subword_pair_s"] = t.self_s("embeddings.subword_pair", *fit)
    out["embeddings.cooccurrence.build_s"] = t.self_s("embeddings.cooccurrence.build", *fit)
    out["embeddings.glove.train_s"] = t.self_s("embeddings.glove.train", *fit)

    out["cli.startup_s"] = startup_s
    for step in CLI_STEPS:
        out[f"cli.{step}.wall_s"] = cli_steps[step].wall_s
        out[f"cli.{step}.peak_rss_mb"] = cli_steps[step].peak_rss_mb
    out["trace.overhead_s"] = overhead_s
    return {name: {"value": float(out[name]), "unit": unit} for name, unit, _ in METRICS}
