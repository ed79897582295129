"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Desk-scale corpora are synthetic; seeds are fixed throughout.
"""

import time

import numpy as np
import pytest

import oracles
import test_gradients
from textclf.cli import run_command
from textclf.corpus import (
    build_vocabulary,
    generate_synthetic_corpus,
    stratified_holdout,
    zipf_fit,
)
from textclf.embeddings import TrainSpec, train_sgns, train_subword_sgns, vector
from textclf.eval import calibration_curve, confusion_matrix, macro_prf, mcc, roc_auc
from textclf.model import ConvLstmClassifier, ConvLstmConfig, ConvLstmNetwork
from textclf.pipeline import TokenizedDocument, save_tokenized_documents


def _announce(number, name):
    print(f"ACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="module")
def desk_corpus():
    """Three classes, ~1000 docs, disjoint vocabularies, 20% shared pool."""
    ds = generate_synthetic_corpus(classes=3, docs_per_class=334, vocab_per_class=60,
                                   shared_vocab=15, doc_len=30, zipf_exponent=1.0,
                                   seed=11)
    train_idx, test_idx = stratified_holdout(ds, 0.2, seed=7)
    return ds, ds.subset(train_idx), ds.subset(test_idx)


@pytest.fixture(scope="module")
def harder_corpus():
    """Same shape but a heavier shared pool so learning takes visible epochs."""
    ds = generate_synthetic_corpus(classes=3, docs_per_class=334, vocab_per_class=40,
                                   shared_vocab=60, doc_len=15, zipf_exponent=0.8,
                                   seed=11)
    train_idx, test_idx = stratified_holdout(ds, 0.2, seed=7)
    return ds.subset(train_idx), ds.subset(test_idx)


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    layers = test_gradients.TestLayerGradients()
    layers.test_conv1d()
    layers.test_maxpool_and_global()
    layers.test_dense()
    layers.test_softmax_cross_entropy()
    layers.test_fused_softmax_cross_entropy()
    layers.test_binary_cross_entropy()
    layers.test_relu_composite()
    layers.test_dropout_fixed_mask()
    lstm = test_gradients.TestLstmGradients()
    lstm.test_dense_bptt()
    lstm.test_conv_mode_bptt()
    steps = test_gradients.TestEmbeddingStepGradients()
    steps.test_skipgram_pair()
    steps.test_subword_pair()
    steps.test_glove_pair()
    steps.test_linear_classifier_step()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    _announce(1, f"gradient suite ({elapsed:.1f}s)")


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(70)
    for trial in range(100):
        n_classes = int(rng.integers(2, 5))
        classes = [f"c{i}" for i in range(n_classes)]
        n = int(rng.integers(1, 40))
        gold = rng.choice(classes, size=n).tolist()
        pred = rng.choice(classes, size=n).tolist()
        got = macro_prf(confusion_matrix(gold, pred, classes))
        expected = oracles.brute_macro_prf(gold, pred, classes)
        for g, e in zip(got[:3], expected[:3]):
            assert abs(g - e) <= 1e-12

        gold_b = rng.integers(0, 2, size=max(n, 2)).tolist()
        pred_b = rng.integers(0, 2, size=max(n, 2)).tolist()
        m = confusion_matrix(gold_b, pred_b, [0, 1])
        assert abs(mcc(m) - oracles.brute_mcc(gold_b, pred_b)) <= 1e-12

        labels = rng.integers(0, 2, size=max(n, 4))
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(len(labels)), 1)
        _, auc = roc_auc(scores, labels)
        assert abs(auc - oracles.brute_auc(scores.tolist(), labels.tolist())) <= 1e-12

    # the three hand examples
    _, _, f1, _ = macro_prf(confusion_matrix(["A", "A", "B"], ["A", "B", "B"], ["A", "B"]))
    assert abs(f1 - 2 / 3) < 1e-12
    assert abs(mcc(np.array([[3, 1], [2, 6]])) - 0.4781) < 1e-4
    _, auc = roc_auc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0])
    assert abs(auc - 0.75) < 1e-12
    _announce(2, "metric oracles (100 random instances, 3 hand examples)")


def test_criterion_3_shape_contract():
    net = ConvLstmNetwork(ConvLstmConfig(), vocab_size=50, seed=0)
    trace = net.shape_trace()
    assert trace["embedded"] == (100, 300)
    for channel in range(3):
        assert trace[f"channel{channel}_conv"] == (100, 100)
        assert trace[f"channel{channel}_pooled"] == (25, 100)
        assert trace[f"channel{channel}_vector"] == (100,)
    assert trace["concatenated"] == (400,)
    _announce(3, "shape contract 100x100 -> 25x100 -> 100 -> concat 400")


def test_criterion_4_end_to_end_desk_scale(desk_corpus):
    _, train, test = desk_corpus
    start = time.perf_counter()
    clf = ConvLstmClassifier(seq_len=32, emb_dim=48, kernel_sizes=(4, 6, 8),
                             filters_per_channel=32, pool=4, lstm_units=32,
                             dropout_rate=0.3, noise_sigma=0.1,
                             epochs=5, batch_size=128, learning_rate=0.08, seed=5)
    clf.fit([d.tokens for d in train.documents], [d.label for d in train.documents],
            valid=([d.tokens for d in test.documents], [d.label for d in test.documents]))
    elapsed = time.perf_counter() - start
    f1_by_epoch = clf.history_.valid_macro_f1
    reaching = [e + 1 for e, f1 in enumerate(f1_by_epoch) if f1 >= 0.95]
    assert reaching, f"macro-F1 never reached 0.95: {f1_by_epoch}"
    assert reaching[0] <= 20
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    _announce(4, f"hold-out macro-F1 {max(f1_by_epoch):.3f} by epoch {reaching[0]} "
                 f"({elapsed:.0f}s)")


def test_criterion_5_pretrained_benefit(harder_corpus):
    train, test = harder_corpus
    tr_docs = [d.tokens for d in train.documents]
    tr_labels = [d.label for d in train.documents]
    valid = ([d.tokens for d in test.documents], [d.label for d in test.documents])
    emb = train_sgns(
        train.documents, build_vocabulary(train.documents, 1),
        TrainSpec(dim=24, window=5, negatives=5, epochs=3, learning_rate=0.05, seed=3),
    )
    common = dict(seq_len=16, emb_dim=24, kernel_sizes=(4,), filters_per_channel=8,
                  pool=4, lstm_units=8, dropout_rate=0.6, noise_sigma=0.2,
                  epochs=10, batch_size=256, learning_rate=0.003)
    random_run = ConvLstmClassifier(**common, seed=5).fit(tr_docs, tr_labels, valid=valid)
    pretrained_run = ConvLstmClassifier(**common, seed=5, embedding_init="pretrained",
                                        embeddings=emb).fit(tr_docs, tr_labels, valid=valid)
    r = random_run.history_.valid_macro_f1
    p = pretrained_run.history_.valid_macro_f1
    matching_epochs = [e + 1 for e in range(10) if p[e] >= r[e]]
    assert matching_epochs and matching_epochs[0] <= 10
    assert p[4] >= r[9] - 0.02, f"pretrained@5={p[4]:.3f} vs random@10={r[9]:.3f}"
    _announce(5, f"pretrained@5={p[4]:.3f} >= random@10={r[9]:.3f} - 0.02, "
                 f"first matching epoch {matching_epochs[0]}")


def test_criterion_6_embedding_semantics(two_cluster_docs):
    docs, cluster_a, cluster_b = two_cluster_docs
    vocab = build_vocabulary(docs, 1)
    model = train_sgns(docs, vocab, TrainSpec(dim=24, window=5, negatives=5, epochs=5,
                                              learning_rate=0.05, seed=1))

    def mean_cos(xs, ys, same):
        vals = []
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                if same and j <= i:
                    continue
                va, vb = vector(model, a), vector(model, b)
                vals.append(float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))))
        return float(np.mean(vals))

    within = (mean_cos(cluster_a, cluster_a, True) + mean_cos(cluster_b, cluster_b, True)) / 2
    cross = mean_cos(cluster_a, cluster_b, False)
    assert within - cross >= 0.2, f"margin {within - cross:.3f}"

    rng = np.random.default_rng(3)
    family = ["running", "runner", "runs"]
    others = ["jumped", "walked", "swimming", "flying", "table", "chair"]
    sub_docs = [
        TokenizedDocument(str(i), tuple(rng.choice(family + others, size=12)), None)
        for i in range(60)
    ]
    sub_model = train_subword_sgns(
        sub_docs, build_vocabulary(sub_docs, 1),
        TrainSpec(dim=24, window=3, negatives=5, epochs=3, learning_rate=0.05, seed=4,
                  nmin=3, nmax=5, bucket_count=2**14),
    )
    from textclf.embeddings import nearest_neighbors

    top = nearest_neighbors(sub_model, "runnest", 1)[0][0]
    assert top in family, top
    _announce(6, f"cluster margin {within - cross:.2f}; 'runnest' -> '{top}'")


def test_criterion_7_oov_strategies(two_cluster_docs):
    docs, _, _ = two_cluster_docs
    vocab = build_vocabulary(docs, 1)
    model = train_sgns(docs, vocab, TrainSpec(dim=16, epochs=1, negatives=2, seed=0))
    bound = 0.5 / model.dim
    uniform = vector(model, "neverseen", "uniform")
    assert np.array_equal(uniform, vector(model, "neverseen", "uniform"))
    assert np.all(np.abs(uniform) < bound)
    picked = vector(model, "neverseen", "random_invocab")
    assert np.array_equal(picked, vector(model, "neverseen", "random_invocab"))
    assert any(np.array_equal(picked, row) for row in model.input_vectors[1:])
    with pytest.raises(KeyError):
        vector(model, "neverseen", "error")

    sub_docs = docs[:10]
    sub_model = train_subword_sgns(
        sub_docs, build_vocabulary(sub_docs, 1),
        TrainSpec(dim=12, epochs=1, negatives=2, seed=1, nmin=2, nmax=4,
                  bucket_count=4096),
    )
    for word in ("zzzz", "alphaqq", "completely-novel"):
        composed = vector(sub_model, word, "subword")
        assert np.linalg.norm(composed) > 0
        assert np.array_equal(composed, vector(sub_model, word, "subword"))
    _announce(7, "OOV strategies deterministic, bounded, subword nonzero, error raises")


def test_criterion_8_calibration():
    rng = np.random.default_rng(13)
    probs = rng.random(10_000)
    labels = (rng.random(10_000) < probs).astype(int)
    curve = calibration_curve(probs, labels, bins=10)
    worst = max(abs(y - x) for x, y, _ in curve.points)
    assert worst < 0.05, f"worst bin deviation {worst:.3f}"
    _announce(8, f"reliability deviation {worst:.3f} < 0.05 over {len(curve.points)} bins")


def test_criterion_9_zipf():
    ds = generate_synthetic_corpus(1, 200, 1000, 0, 1000, zipf_exponent=1.0, seed=5)
    slope, _, r2 = zipf_fit(build_vocabulary(ds.documents, 1))
    assert -1.1 <= slope <= -0.9, slope
    _announce(9, f"zipf slope {slope:.3f} in [-1.1, -0.9] (r2={r2:.3f})")


def test_criterion_10_cli_determinism(tmp_path):
    ds = generate_synthetic_corpus(classes=2, docs_per_class=20, vocab_per_class=10,
                                   shared_vocab=3, doc_len=10, seed=31)
    corpus = tmp_path / "tokens.tsv"
    save_tokenized_documents(ds.documents, corpus)

    def run(outdir):
        rc = run_command([
            "train", "--input", str(corpus), "--output-dir", str(outdir),
            "--model", "fasttext", "--epochs", "3", "--cv", "3", "--seed", "42",
        ])
        assert rc == 0

    run(tmp_path / "r1")
    run(tmp_path / "r2")
    names = sorted(p.name for p in (tmp_path / "r1").iterdir())
    assert "report.json" in names
    for name in names:
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    _announce(10, f"byte-identical artifacts: {', '.join(names)}")
