import json

import numpy as np
import pytest

import oracles
from textclf.base import ConfigurationError
from textclf.corpus import build_vocabulary, generate_synthetic_corpus
from textclf.embeddings import TrainSpec, train_sgns
from textclf.model import (
    ConvLstmClassifier,
    ConvLstmConfig,
    ConvLstmNetwork,
    FastTextClassifier,
    TfidfClassifier,
    TfidfFeaturizer,
    build_conv_lstm,
    ensemble_average,
    ensemble_predict,
    fasttext_linear_classifier,
    load_classifier,
    predict_proba,
    tfidf_features,
    train_baseline,
    train_network,
)
from textclf.pipeline import TokenizedDocument
from textclf import nn


def docs_from(rows, labels=None):
    labels = labels or [None] * len(rows)
    return [TokenizedDocument(str(i), tuple(r), l) for i, (r, l) in enumerate(zip(rows, labels))]


def assert_reordered_vocabulary_rejected(directory):
    """A model.json whose vocabulary no longer matches its hash must not load."""
    path = directory / "model.json"
    sidecar = json.loads(path.read_text(encoding="utf-8"))
    sidecar["vocabulary"] = sidecar["vocabulary"][::-1]
    path.write_text(json.dumps(sidecar), encoding="utf-8")
    with pytest.raises(ValueError, match="vocabulary_sha256"):
        load_classifier(directory)


@pytest.fixture(scope="module")
def small_corpus():
    ds = generate_synthetic_corpus(classes=2, docs_per_class=30, vocab_per_class=12,
                                   shared_vocab=4, doc_len=12, seed=21)
    docs = [d.tokens for d in ds.documents]
    labels = [d.label for d in ds.documents]
    return docs, labels, ds.classes


class TestConfig:
    def test_concat_width_default(self):
        assert ConvLstmConfig().concat_width == 400

    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            ConvLstmConfig(kernel_sizes=())
        with pytest.raises(ConfigurationError):
            ConvLstmConfig(n_classes=1)
        with pytest.raises(ConfigurationError):
            ConvLstmConfig(dropout_rate=1.0)
        with pytest.raises(ConfigurationError):
            ConvLstmConfig(loss_kind="binary", n_classes=3)

    def test_conv_lstm_mode_rejected(self):
        # the network feeds (B, D) step rows, which conv mode would read as
        # one (L, C) sequence, so a document's output would depend on its batch
        with pytest.raises(ConfigurationError, match="lstm_mode"):
            ConvLstmConfig(lstm_mode="conv")
        with pytest.raises(ConfigurationError):
            ConvLstmClassifier(lstm_mode="conv", epochs=0).fit([("a",), ("b",)], ["x", "y"])


class TestNetworkShapes:
    def test_channel_and_concat_shapes(self):
        net = ConvLstmNetwork(ConvLstmConfig(), vocab_size=40, seed=0)
        trace = net.shape_trace()
        for idx in range(3):
            assert trace[f"channel{idx}_conv"] == (100, 100)
            assert trace[f"channel{idx}_pooled"] == (25, 100)
            assert trace[f"channel{idx}_vector"] == (100,)
        assert trace["lstm_vector"] == (100,)
        assert trace["concatenated"] == (400,)
        assert trace["embedded"] == (100, 300)

    def test_probabilities_sum_to_one(self):
        cfg = ConvLstmConfig(seq_len=12, emb_dim=8, kernel_sizes=(3,),
                             filters_per_channel=4, lstm_units=4, n_classes=3)
        net = ConvLstmNetwork(cfg, vocab_size=9, seed=1)
        ids = np.random.default_rng(0).integers(0, 10, size=(5, 12))
        probs = predict_proba(net, ids)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0)

    def test_all_pad_document_is_valid(self):
        cfg = ConvLstmConfig(seq_len=6, emb_dim=4, kernel_sizes=(3,),
                             filters_per_channel=2, lstm_units=3)
        net = ConvLstmNetwork(cfg, vocab_size=5, seed=0)
        probs = predict_proba(net, np.zeros(6, dtype=np.int64))
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_wrong_length_rejected(self):
        cfg = ConvLstmConfig(seq_len=6, emb_dim=4, kernel_sizes=(3,),
                             filters_per_channel=2, lstm_units=3)
        net = ConvLstmNetwork(cfg, vocab_size=5, seed=0)
        with pytest.raises(nn.ShapeError):
            predict_proba(net, np.zeros(5, dtype=np.int64))

    def test_eval_mode_deterministic(self):
        cfg = ConvLstmConfig(seq_len=6, emb_dim=4, kernel_sizes=(3,),
                             filters_per_channel=2, lstm_units=3, dropout_rate=0.5,
                             noise_sigma=0.2)
        net = ConvLstmNetwork(cfg, vocab_size=5, seed=0)
        ids = np.array([1, 2, 3, 0, 0, 0])
        np.testing.assert_array_equal(predict_proba(net, ids), predict_proba(net, ids))

    def test_build_requires_vocab(self):
        with pytest.raises(ConfigurationError):
            build_conv_lstm(ConvLstmConfig(), vocab=None)


class TestTrainNetwork:
    def _tiny(self, n_classes=2, loss_kind="categorical", seed=0):
        cfg = ConvLstmConfig(seq_len=8, emb_dim=6, kernel_sizes=(3,),
                             filters_per_channel=3, pool=2, lstm_units=3,
                             dropout_rate=0.1, noise_sigma=0.05,
                             n_classes=n_classes, loss_kind=loss_kind)
        return ConvLstmNetwork(cfg, vocab_size=10, seed=seed)

    def _data(self, n=24, seed=0):
        rng = np.random.default_rng(seed)
        ids = rng.integers(1, 11, size=(n, 8))
        labels = (ids[:, 0] > 5).astype(np.int64)
        return ids, labels

    def test_loss_decreases_on_separable_data(self):
        net = self._tiny()
        ids, labels = self._data(64)
        history = train_network(net, (ids, labels), epochs=10, batch_size=16,
                                learning_rate=0.1, seed=0)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_zero_epochs_no_change(self):
        net = self._tiny()
        before = {k: v.data.copy() for k, v in net.parameters().items()}
        history = train_network(net, self._data(), epochs=0, seed=0)
        assert history.train_loss == []
        for name, tensor in net.parameters().items():
            np.testing.assert_array_equal(tensor.data, before[name])

    def test_same_seed_identical_history(self):
        ids, labels = self._data(32)
        h1 = train_network(self._tiny(seed=5), (ids, labels), epochs=3,
                           batch_size=8, seed=9)
        h2 = train_network(self._tiny(seed=5), (ids, labels), epochs=3,
                           batch_size=8, seed=9)
        assert h1.train_loss == h2.train_loss

    def test_validation_history_lengths(self):
        ids, labels = self._data(32)
        vids, vlabels = self._data(16, seed=1)
        history = train_network(self._tiny(), (ids, labels), (vids, vlabels),
                                epochs=4, seed=0)
        assert len(history.valid_loss) == 4
        assert len(history.valid_macro_f1) == 4

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train_network(self._tiny(), (np.zeros((0, 8), dtype=int), np.zeros(0, dtype=int)))

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            train_network(self._tiny(), self._data(), epochs=-1)

    def test_pad_row_frozen(self):
        net = self._tiny()
        ids, labels = self._data(32)
        ids[:, -2:] = 0  # force pad exposure
        train_network(net, (ids, labels), epochs=2, batch_size=8, seed=0)
        np.testing.assert_array_equal(net.embedding.data[0], 0.0)

    def test_binary_loss_mode(self):
        net = self._tiny(loss_kind="binary")
        ids, labels = self._data(24)
        history = train_network(net, (ids, labels), epochs=2, batch_size=8, seed=0)
        assert len(history.train_loss) == 2

    def test_saturated_wrong_prediction_still_learns(self):
        # scores [0, 200, 0] against class 0: a loss on clamped probabilities
        # reads 27.6 with a zero gradient, so no parameter would move
        net = self._tiny(n_classes=3)
        net.head_b.data[:] = [0.0, 200.0, 0.0]
        ids, _ = self._data(8)
        before = {k: v.data.copy() for k, v in net.parameters().items()}
        history = train_network(net, (ids, np.zeros(8, dtype=np.int64)), epochs=1,
                                batch_size=8, seed=0)
        assert history.train_loss[0] > 150.0
        assert net.head_b.data[1] < 200.0
        assert not np.array_equal(net.head_w.data, before["head_w"])


def _step_chain_scores(net, ids):
    """Eval-mode class scores with the recurrent branch as a chain of
    lstm_step calls and, for temporal_max, a running elementwise maximum."""
    emb = nn.embedding_lookup(net.embedding, ids)
    branches = [nn.global_maxpool(nn.maxpool1d(nn.relu(nn.conv1d(emb, kernels, bias)),
                                               net.cfg.pool))
                for _, kernels, bias in net.channels]
    zeros = np.zeros((ids.shape[0], net.cfg.lstm_units))
    state = nn.LstmState(nn.Tensor(zeros), nn.Tensor(zeros))
    running = None
    for t in range(net.cfg.seq_len):
        state, _ = nn.lstm_step(emb[:, t, :], state, net.lstm)
        if net.cfg.lstm_branch == "final" or running is None:
            running = state.hidden
        else:
            running = running.maximum(state.hidden)
    branches.append(running)
    return nn.dense(nn.concat(branches, axis=-1), net.head_w, net.head_b)


class TestFusedRecurrentBranch:
    @pytest.mark.parametrize("branch", ["final", "temporal_max"])
    @pytest.mark.parametrize("peephole", [False, True])
    def test_matches_step_chain(self, branch, peephole):
        cfg = ConvLstmConfig(seq_len=7, emb_dim=5, kernel_sizes=(2, 3),
                             filters_per_channel=3, pool=2, lstm_units=4,
                             dropout_rate=0.0, noise_sigma=0.0, n_classes=3,
                             lstm_branch=branch, peephole=peephole)
        net = ConvLstmNetwork(cfg, vocab_size=9, seed=2)
        rng = np.random.default_rng(8)
        for tensor in net.parameters().values():
            tensor.data = tensor.data.astype(np.float64)
        for tensor in (net.lstm.w_c or {}).values():
            tensor.data[...] = rng.normal(scale=0.5, size=tensor.shape)
        ids = rng.integers(1, 10, size=(3, 7))
        labels = np.array([0, 2, 1])
        results = []
        for scores_of in (lambda: net.forward(ids, logits=True),
                          lambda: _step_chain_scores(net, ids)):
            scores = scores_of()
            for tensor in net.parameters().values():
                tensor.zero_grad()
            nn.softmax_cross_entropy(scores, labels).backward()
            results.append((scores.data, {k: t.grad for k, t in net.parameters().items()}))
        (fused, fused_grads), (chain, chain_grads) = results
        np.testing.assert_allclose(fused, chain, rtol=0, atol=1e-10)
        for name, grad in chain_grads.items():
            np.testing.assert_allclose(fused_grads[name], grad, rtol=0, atol=1e-10, err_msg=name)

    def test_inference_records_no_tape(self):
        cfg = ConvLstmConfig(seq_len=8, emb_dim=6, kernel_sizes=(3, 4),
                             filters_per_channel=4, pool=2, lstm_units=5, n_classes=3)
        net = ConvLstmNetwork(cfg, vocab_size=11, seed=3)
        ids = np.random.default_rng(4).integers(0, 12, size=(4, 8))
        taped = net.forward(ids)
        assert taped.requires_grad and taped._parents
        np.testing.assert_array_equal(predict_proba(net, ids), net.infer(ids))
        np.testing.assert_allclose(net.infer(ids), taped.data, rtol=0, atol=1e-6)


def _pooled_scores(net, ids, rng):
    """Train-mode class scores of the graph that max-pools each channel
    before its global max, drawing noise and dropout in ``forward``'s order."""
    cfg = net.cfg
    emb = nn.gaussian_noise(nn.embedding_lookup(net.embedding, ids), cfg.noise_sigma, True, rng)
    branches = []
    for _, kernels, bias in net.channels:
        conv = nn.dropout(nn.relu(nn.conv1d(emb, kernels, bias)), cfg.dropout_rate, True, rng)
        branches.append(nn.global_maxpool(nn.maxpool1d(conv, cfg.pool)))
    branches.append(nn.lstm_forward(emb, net.lstm)[1].hidden)
    merged = nn.dropout(nn.concat(branches, axis=-1), cfg.dropout_rate, True, rng)
    return nn.dense(merged, net.head_w, net.head_b)


class TestSkippedPool:
    def test_outputs_and_gradients_match_pooled_graph(self):
        # seq_len 11 leaves a partial last window; dropout leaves ties at zero
        cfg = ConvLstmConfig(seq_len=11, emb_dim=6, kernel_sizes=(2, 5), filters_per_channel=4,
                             pool=3, lstm_units=3, dropout_rate=0.4, noise_sigma=0.1, n_classes=3)
        net = ConvLstmNetwork(cfg, vocab_size=12, seed=4)
        ids = np.random.default_rng(6).integers(0, 13, size=(5, 11))
        labels = np.array([0, 1, 2, 1, 0])
        results = []
        for scores_of in (lambda rng: net.forward(ids, True, rng, logits=True),
                          lambda rng: _pooled_scores(net, ids, rng)):
            scores = scores_of(np.random.default_rng(9))
            for tensor in net.parameters().values():
                tensor.zero_grad()
            nn.softmax_cross_entropy(scores, labels).backward()
            results.append((scores.data, {k: t.grad for k, t in net.parameters().items()}))
        (skipped, skipped_grads), (pooled, pooled_grads) = results
        np.testing.assert_array_equal(skipped, pooled)
        for name, grad in pooled_grads.items():
            np.testing.assert_array_equal(skipped_grads[name], grad, err_msg=name)


class TestInfer:
    """The no-tape eval path against the taped forward."""

    @staticmethod
    def _net(branch="final", peephole=False, seed=3):
        cfg = ConvLstmConfig(seq_len=12, emb_dim=7, kernel_sizes=(1, 4, 5, 8),
                             filters_per_channel=5, pool=3, lstm_units=4, n_classes=3,
                             lstm_branch=branch, peephole=peephole)
        net = ConvLstmNetwork(cfg, vocab_size=20, seed=seed)
        rng = np.random.default_rng(seed)
        net.embedding.data[0] = rng.normal(scale=0.5, size=7)  # exactness must not lean on it
        for _, _, bias in net.channels:  # negative biases make the ReLU clip
            bias.data[...] = rng.normal(scale=0.3, size=bias.shape)
        for tensor in (net.lstm.w_c or {}).values():
            tensor.data[...] = rng.normal(scale=0.5, size=tensor.shape)
        return net

    @staticmethod
    def _ids(n=6, seed=0):
        ids = np.random.default_rng(seed).integers(1, 21, size=(n, 12))
        ids[:, 4] = 0  # padding inside the sequence
        ids[1, 7:] = 0
        return ids

    @staticmethod
    def _taped(net, ids, logits=False):
        return net.forward(ids, logits=logits).data

    @pytest.mark.parametrize("branch", ["final", "temporal_max"])
    @pytest.mark.parametrize("peephole", [False, True])
    def test_matches_taped_forward(self, branch, peephole):
        net, ids = self._net(branch, peephole), self._ids()
        for logits in (False, True):
            taped, fast = self._taped(net, ids, logits), net.infer(ids, logits=logits)
            assert fast.shape == taped.shape and fast.dtype == taped.dtype
            np.testing.assert_allclose(fast, taped, rtol=0, atol=1e-6)
            np.testing.assert_array_equal(fast.argmax(axis=1), taped.argmax(axis=1))

    def test_single_document_and_batch_of_one(self):
        net, ids = self._net("temporal_max"), self._ids()
        single = net.infer(ids[1])
        assert single.shape == (3,)
        np.testing.assert_allclose(single, self._taped(net, ids[1]), rtol=0, atol=1e-6)
        np.testing.assert_allclose(net.infer(ids[1:2]), single[None, :], rtol=0, atol=1e-6)

    def test_chunking_changes_nothing(self):
        net, ids = self._net(peephole=True), self._ids(n=9, seed=2)
        whole = net.infer(ids)
        for size in (1, 2, 4):
            pieces = np.concatenate([net.infer(ids[i:i + size]) for i in range(0, len(ids), size)])
            np.testing.assert_allclose(pieces, whole, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("where", ["embedding", "kernel", "lstm", "head"])
    def test_non_finite_weights_raise(self, where):
        net, ids = self._net(), self._ids()
        if where == "embedding":
            net.embedding.data[ids[0, 0]] = np.nan
        elif where == "kernel":  # every position of one filter is -inf before the ReLU
            net.channels[0][1].data[:, :, 0] = -np.inf
            net.embedding.data[...] = np.abs(net.embedding.data) + 0.1
        elif where == "lstm":
            net.lstm.w_h["f"].data[0, 0] = np.inf
        else:
            net.head_w.data[0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError):
                self._taped(net, ids)
            with pytest.raises(FloatingPointError):
                net.infer(ids)

    def test_out_of_range_ids_rejected(self):
        net, ids = self._net(), self._ids()
        for bad in (-1, 21):
            ids[0, 0] = bad
            with pytest.raises(nn.ShapeError):
                net.infer(ids)


class TestConvLstmClassifier:
    def test_fit_predict_save_load(self, small_corpus, tmp_path):
        docs, labels, classes = small_corpus
        clf = ConvLstmClassifier(seq_len=12, emb_dim=12, kernel_sizes=(3, 4),
                                 filters_per_channel=4, pool=2, lstm_units=4,
                                 dropout_rate=0.1, noise_sigma=0.05,
                                 epochs=3, batch_size=16, learning_rate=0.1, seed=0)
        clf.fit(docs, labels)
        acc = np.mean(np.array(clf.predict(docs)) == np.array(labels))
        assert acc > 0.9
        probs = clf.predict_proba(docs[:5])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

        clf.save(tmp_path / "m")
        loaded = load_classifier(tmp_path / "m")
        np.testing.assert_array_equal(loaded.predict_proba(docs[:5]), probs)
        assert loaded.classes_ == clf.classes_
        assert_reordered_vocabulary_rejected(tmp_path / "m")

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ConvLstmClassifier(epochs=1).fit([("a",), ("b",)], ["x", "x"])

    def test_pretrained_init_copies_vectors(self, small_corpus):
        docs, labels, _ = small_corpus
        emb_docs = docs_from(docs)
        vocab = build_vocabulary(emb_docs, 1)
        emb = train_sgns(emb_docs, vocab, TrainSpec(dim=12, epochs=1, negatives=2, seed=0))
        clf = ConvLstmClassifier(seq_len=12, emb_dim=12, kernel_sizes=(3,),
                                 filters_per_channel=2, lstm_units=3,
                                 embedding_init="pretrained", embeddings=emb,
                                 epochs=0, seed=0)
        clf.fit(docs, labels)
        token = docs[0][0]
        row = clf.network_.embedding.data[clf.vocab_.token_to_id[token]]
        np.testing.assert_array_equal(
            row, emb.input_vectors[emb.vocab.token_to_id[token]]
        )

    def test_pretrained_model_reloads(self, small_corpus, tmp_path):
        docs, labels, _ = small_corpus
        emb_docs = docs_from(docs)
        vocab = build_vocabulary(emb_docs, 1)
        emb = train_sgns(emb_docs, vocab, TrainSpec(dim=8, epochs=1, negatives=2, seed=0))
        clf = ConvLstmClassifier(seq_len=10, emb_dim=8, kernel_sizes=(3,),
                                 filters_per_channel=2, lstm_units=3,
                                 embedding_init="pretrained", embeddings=emb,
                                 epochs=1, batch_size=16, seed=0)
        clf.fit(docs, labels)
        clf.save(tmp_path / "pre")
        loaded = load_classifier(tmp_path / "pre")
        np.testing.assert_array_equal(loaded.predict_proba(docs[:3]), clf.predict_proba(docs[:3]))

    def test_pretrained_dim_mismatch(self, small_corpus):
        docs, labels, _ = small_corpus
        emb_docs = docs_from(docs)
        vocab = build_vocabulary(emb_docs, 1)
        emb = train_sgns(emb_docs, vocab, TrainSpec(dim=6, epochs=0, seed=0))
        clf = ConvLstmClassifier(seq_len=12, emb_dim=12, embedding_init="pretrained",
                                 embeddings=emb, epochs=0)
        with pytest.raises(ConfigurationError):
            clf.fit(docs, labels)

    def test_frozen_embeddings_unchanged(self, small_corpus):
        docs, labels, _ = small_corpus
        clf = ConvLstmClassifier(seq_len=12, emb_dim=8, kernel_sizes=(3,),
                                 filters_per_channel=2, lstm_units=3,
                                 freeze_embeddings=True, epochs=1, batch_size=16,
                                 seed=0)
        clf.fit(docs, labels)
        # rebuild the initial embedding with the same seed and compare
        net0 = ConvLstmNetwork(clf.config_, len(clf.vocab_), seed=0)
        np.testing.assert_array_equal(clf.network_.embedding.data, net0.embedding.data)


class TestTfidf:
    def test_idf_one_for_ubiquitous_term(self):
        feat = TfidfFeaturizer(char_ngram_range=None, word_unigrams=True)
        feat.fit(docs_from([["t", "a"], ["t", "b"], ["t", "c"]]))
        idx = feat.feature_index_["w:t"]
        assert abs(feat.idf_[idx] - 1.0) < 1e-12

    def test_single_feature_doc_normalized(self):
        X = tfidf_features([("only",)], char_ngram_range=None)
        assert abs(X[0].toarray().ravel().max() - 1.0) < 1e-12

    def test_hand_corpus_matches_formula(self):
        docs = [("a", "b"), ("a",), ("c",)]
        X = tfidf_features(docs, char_ngram_range=None).toarray()
        # oracle: recompute from the definition
        n = 3
        vocabulary = ["w:a", "w:b", "w:c"]
        df = {"w:a": 2, "w:b": 1, "w:c": 1}
        idf = {f: np.log((1 + n) / (1 + df[f])) + 1 for f in vocabulary}
        raw = np.zeros((3, 3))
        raw[0, 0] = 1 * idf["w:a"]; raw[0, 1] = 1 * idf["w:b"]
        raw[1, 0] = 1 * idf["w:a"]
        raw[2, 2] = 1 * idf["w:c"]
        for r in range(3):
            raw[r] /= np.linalg.norm(raw[r])
        np.testing.assert_allclose(X, raw, atol=1e-12)

    def test_char_ngrams_present(self):
        feat = TfidfFeaturizer(char_ngram_range=(2, 2), word_unigrams=False)
        feat.fit(docs_from([["ab"]]))
        assert "c:ab" in feat.feature_index_

    def test_deterministic_feature_order(self):
        docs = [("b", "a"), ("c",)]
        f1 = TfidfFeaturizer(char_ngram_range=None).fit(docs_from(docs))
        f2 = TfidfFeaturizer(char_ngram_range=None).fit(docs_from(list(docs)))
        assert f1.feature_names_ == f2.feature_names_ == sorted(f1.feature_names_)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            TfidfFeaturizer().fit([])


class TestBaselines:
    def test_logreg_separates(self):
        X = tfidf_features([("yes", "yes"), ("no", "no")], char_ngram_range=None)
        model = train_baseline(X, ["pos", "neg"], "logreg")
        probs = model.predict_proba(X)
        assert probs[0, model.classes_.index("pos")] > 0.9
        assert probs[1, model.classes_.index("neg")] > 0.9

    def test_logreg_single_class_rejected(self):
        X = tfidf_features([("a",), ("b",)], char_ngram_range=None)
        with pytest.raises(ValueError):
            train_baseline(X, ["same", "same"], "logreg")

    def test_nb_symmetric_posterior(self):
        feat = TfidfFeaturizer(char_ngram_range=None)
        X = feat.fit_transform(docs_from([["a"], ["b"]]))
        model = train_baseline(X, ["one", "two"], "multinomial_nb")
        # perfectly symmetric instance: both features present equally
        probs = model.predict_proba(feat.transform([("a", "b")]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]], atol=1e-9)

    def test_nb_single_class_rejected(self):
        X = tfidf_features([("a",)], char_ngram_range=None)
        with pytest.raises(ValueError):
            train_baseline(X, ["same"], "multinomial_nb")

    def test_knn_k1_returns_nearest_label(self):
        feat = TfidfFeaturizer(char_ngram_range=None)
        X = feat.fit_transform(docs_from([["alpha"], ["beta"]]))
        model = train_baseline(X, ["first", "second"], "knn", k=1)
        probs = model.predict_proba(feat.transform([("alpha",)]))
        assert probs[0, model.classes_.index("first")] == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            train_baseline(None, [], "svm")

    def test_tfidf_classifier_end_to_end(self, small_corpus):
        docs, labels, _ = small_corpus
        for kind in ("logreg", "multinomial_nb", "knn"):
            clf = TfidfClassifier(kind=kind, char_ngram_range=None)
            clf.fit(docs, labels)
            acc = np.mean(np.array(clf.predict(docs)) == np.array(labels))
            assert acc > 0.8, kind

    def test_tfidf_classifier_save_load(self, small_corpus, tmp_path):
        docs, labels, _ = small_corpus
        # every kind, kNN included, must also reload when the labels are not strings,
        # and a model without character n-grams must reload too
        int_labels = [sorted(set(labels)).index(label) for label in labels]
        for y in (labels, int_labels):
            for kind, ngrams in (("logreg", (2, 3)), ("multinomial_nb", None), ("knn", (2, 3))):
                clf = TfidfClassifier(kind=kind, char_ngram_range=ngrams)
                clf.fit(docs, y)
                clf.save(tmp_path / kind)
                loaded = load_classifier(tmp_path / kind)
                np.testing.assert_array_equal(loaded.predict_proba(docs[:4]),
                                              clf.predict_proba(docs[:4]))
                assert loaded.predict(docs[:4]) == clf.predict(docs[:4])
                assert_reordered_vocabulary_rejected(tmp_path / kind)


class TestFastTextClassifier:
    def test_initial_loss_is_log_n_classes(self, small_corpus):
        docs, labels, _ = small_corpus
        clf = FastTextClassifier(dim=16, epochs=1, learning_rate=0.0, seed=0)
        clf.fit(docs, labels)
        assert abs(clf.epoch_losses_[0] - np.log(2)) < 1e-9

    def test_two_cluster_accuracy(self, small_corpus):
        docs, labels, _ = small_corpus
        clf = FastTextClassifier(dim=16, epochs=20, learning_rate=0.1, seed=0)
        clf.fit(docs, labels)
        acc = np.mean(np.array(clf.predict(docs)) == np.array(labels))
        assert acc >= 0.95

    def test_empty_docs_rejected(self):
        with pytest.raises(ValueError):
            FastTextClassifier().fit([], [])

    def test_functional_facade_uses_given_vocab(self, small_corpus):
        docs, labels, _ = small_corpus
        tokenized = docs_from(docs, labels)
        vocab = build_vocabulary(tokenized, 1)
        spec = TrainSpec(dim=8, epochs=2, learning_rate=0.1, seed=0, nmin=2, nmax=3,
                         bucket_count=1024)
        clf = fasttext_linear_classifier(tokenized, vocab, spec)
        assert clf.vocab_ is vocab
        assert len(clf.predict(docs[:3])) == 3

    def test_save_load(self, small_corpus, tmp_path):
        docs, labels, _ = small_corpus
        clf = FastTextClassifier(dim=8, epochs=2, seed=0)
        clf.fit(docs, labels)
        clf.save(tmp_path / "ft")
        loaded = load_classifier(tmp_path / "ft")
        np.testing.assert_array_equal(loaded.predict_proba(docs[:4]), clf.predict_proba(docs[:4]))
        assert_reordered_vocabulary_rejected(tmp_path / "ft")

    @staticmethod
    def _repetitive(small_corpus):
        # one token 30 times; two rows at different counts; two singletons that
        # min_df=2 drops, so without subwords that doc has no known feature
        docs, labels, _ = small_corpus
        a, b, c = docs[0][0], docs[1][1], docs[-1][2]
        extra = [(a,) * 30, (b,) * 7 + (c,) * 3 + (a,), ("qqone", "qqtwo"), (c, b) * 4]
        return list(docs) + extra, list(labels) + [labels[0], labels[1], labels[-1], labels[-1]]

    @pytest.mark.parametrize("params, given_vocab", [
        ({"bucket_count": 16}, False),
        ({"bucket_count": 1024, "nmin": 2, "nmax": 4}, True),
        ({"use_subword": False, "min_df": 2}, False),
        ({"use_subword": False}, True),
    ])
    def test_fit_equals_per_row_updates(self, small_corpus, params, given_vocab):
        docs, labels = self._repetitive(small_corpus)
        vocab = build_vocabulary(docs_from(docs[::3]), 1) if given_vocab else None
        clf = FastTextClassifier(dim=6, epochs=4, learning_rate=0.3, seed=3, **params)
        clf.fit(docs, labels, vocab=vocab)
        if params.get("min_df") == 2:
            np.testing.assert_array_equal(clf._feature_ids(("qqone", "qqtwo")), [0])
        lookup, projection, losses = oracles.brute_fasttext_fit(docs, labels, clf.vocab_,
                                                                **clf.get_params())
        np.testing.assert_array_equal(clf.lookup_, lookup)
        np.testing.assert_array_equal(clf.projection_, projection)
        np.testing.assert_array_equal(clf.epoch_losses_, losses)

    @pytest.mark.parametrize("change, given_vocab", [
        ({"bucket_count": 32}, False),
        ({"nmin": 2, "nmax": 3}, False),
        ({"use_subword": False}, False),
        ({}, True),
    ])
    def test_refit_matches_fresh_instance(self, small_corpus, change, given_vocab):
        docs, labels = self._repetitive(small_corpus)
        queries = docs + [("qqnew", "qqthree")]
        clf = FastTextClassifier(dim=6, epochs=2, bucket_count=64, seed=1).fit(docs, labels)
        clf.predict_proba(queries)
        vocab = build_vocabulary(docs_from(docs[::2]), 1) if given_vocab else None
        clf.set_params(**change).fit(docs, labels, vocab=vocab)
        fresh = FastTextClassifier(**clf.get_params()).fit(docs, labels, vocab=vocab)
        np.testing.assert_array_equal(clf.lookup_, fresh.lookup_)
        np.testing.assert_array_equal(clf.projection_, fresh.projection_)
        np.testing.assert_array_equal(clf.predict_proba(queries), fresh.predict_proba(queries))

    def test_saved_params_are_the_constructor_params(self, small_corpus, tmp_path):
        docs, labels, _ = small_corpus
        clf = FastTextClassifier(dim=4, epochs=1, seed=0).fit(docs, labels)
        clf.predict_proba(docs)
        assert set(clf.get_params()) == set(FastTextClassifier._param_names())
        clf.save(tmp_path / "ft")
        sidecar = json.loads((tmp_path / "ft" / "model.json").read_text(encoding="utf-8"))
        assert set(sidecar["params"]) == set(FastTextClassifier._param_names())

    @pytest.mark.parametrize("params, message", [
        ({"dim": 0}, "dim"),
        ({"epochs": -1}, "epochs"),
        ({"learning_rate": -0.1}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"bucket_count": 0}, "bucket_count"),
        ({"nmin": 5, "nmax": 2}, "nmin"),
        ({"nmin": 0}, "nmin"),
    ])
    def test_bad_hyperparameters_rejected(self, small_corpus, params, message):
        docs, labels, _ = small_corpus
        with pytest.raises(ValueError, match=message):
            FastTextClassifier(**params).fit(docs, labels)

    def test_bucket_count_unused_without_subwords(self, small_corpus):
        docs, labels, _ = small_corpus
        clf = FastTextClassifier(dim=4, epochs=1, bucket_count=0, use_subword=False)
        assert clf.fit(docs, labels).lookup_.shape == (len(clf.vocab_) + 1, 4)


class TestEnsemble:
    class _Stub:
        def __init__(self, rows):
            self.rows = np.asarray(rows, dtype=float)

        def predict_proba(self, docs):
            return np.tile(self.rows, (len(docs), 1))

    def test_arithmetic_mean(self):
        members = [self._Stub([0.2, 0.8]), self._Stub([0.4, 0.6]), self._Stub([0.6, 0.4])]
        out = ensemble_average(members, [("d",)])
        np.testing.assert_allclose(out, [[0.4, 0.6]], atol=1e-12)

    def test_single_member_identity(self):
        out = ensemble_average([self._Stub([0.3, 0.7])], [("d",)])
        np.testing.assert_allclose(out, [[0.3, 0.7]])

    def test_identical_members(self):
        members = [self._Stub([0.1, 0.9])] * 3
        np.testing.assert_allclose(ensemble_average(members, [("d",)]), [[0.1, 0.9]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensemble_average([], [("d",)])

    def test_mismatched_classes_rejected(self):
        with pytest.raises(ValueError):
            ensemble_average(
                [self._Stub([0.5, 0.5]), self._Stub([0.2, 0.3, 0.5])], [("d",)]
            )

    def test_argmax_tie_lowest_index(self):
        members = [self._Stub([0.5, 0.5])]
        assert ensemble_predict(members, [("d",)], ["a", "b"]) == ["a"]

    def test_ensemble_argmax_equals_argmax_of_mean(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rows = rng.random((3, 4))
            rows /= rows.sum(axis=1, keepdims=True)
            members = [self._Stub(r) for r in rows]
            classes = ["c0", "c1", "c2", "c3"]
            predicted = ensemble_predict(members, [("d",)], classes)
            mean = ensemble_average(members, [("d",)])
            assert predicted == [classes[int(np.argmax(mean[0]))]]


class TestFullAssemblyGradient:
    def test_finite_differences_on_tiny_config(self):
        # whole graph in 64-bit: embedding lookup, three branch types,
        # concat, head, softmax, cross-entropy
        cfg = ConvLstmConfig(seq_len=8, emb_dim=6, kernel_sizes=(3, 4),
                             filters_per_channel=4, pool=2, lstm_units=5,
                             dropout_rate=0.0, noise_sigma=0.0, n_classes=3)
        net = ConvLstmNetwork(cfg, vocab_size=11, seed=3)
        for tensor in net.parameters().values():
            tensor.data = tensor.data.astype(np.float64)
        rng = np.random.default_rng(103)
        ids = rng.integers(1, 12, size=(2, 8))  # pad-free: no pooling ties
        target = nn.one_hot([0, 2], 3, dtype=np.float64)

        def run(*tensors):
            return nn.cross_entropy_loss(net.forward(ids, train_mode=False), target)

        err = nn.finite_difference_check(run, list(net.parameters().values()))
        assert err < 1e-4, err
