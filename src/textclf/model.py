"""Multichannel convolutional-recurrent text classifier, linear and
instance-based baselines over TF-IDF features, a bag-of-features linear
classifier with subword buckets, and prediction averaging.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .base import ConfigurationError, ParamsMixin, check_random_state, derive_seed
from .corpus import Vocabulary, build_vocabulary, encode_document, tokens_of
from .embeddings import EmbeddingModel, TrainSpec, subword_ngrams, vector
from .eval import confusion_matrix, macro_prf
from . import nn
from .nn import Tensor

__all__ = [
    "ConvLstmConfig",
    "TrainHistory",
    "ConvLstmNetwork",
    "build_conv_lstm",
    "train_network",
    "predict_proba",
    "ConvLstmClassifier",
    "tfidf_features",
    "TfidfFeaturizer",
    "train_baseline",
    "TfidfClassifier",
    "load_classifier",
    "fasttext_doc_loss_and_grads",
    "fasttext_linear_classifier",
    "FastTextClassifier",
    "ensemble_average",
    "ensemble_predict",
]


@dataclass
class ConvLstmConfig:
    """Architecture and regularization settings for the classifier graph."""

    seq_len: int = 100
    emb_dim: int = 300
    kernel_sizes: tuple = (4, 6, 8)
    filters_per_channel: int = 100
    pool: int = 4
    lstm_units: int = 100
    dropout_rate: float = 0.5
    noise_sigma: float = 0.1
    n_classes: int = 2
    embedding_init: str = "random"
    freeze_embeddings: bool = False
    loss_kind: str = "categorical"
    lstm_mode: str = "dense"
    lstm_branch: str = "final"
    peephole: bool = False

    def __post_init__(self):
        for name in ("seq_len", "emb_dim", "filters_per_channel", "pool", "lstm_units"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if not self.kernel_sizes:
            raise ConfigurationError("kernel_sizes must be non-empty")
        if any(k < 1 for k in self.kernel_sizes):
            raise ConfigurationError("kernel sizes must be positive")
        if self.n_classes < 2:
            raise ConfigurationError(f"n_classes must be >= 2, got {self.n_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError("dropout_rate must be in [0, 1)")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be >= 0")
        if self.embedding_init not in ("random", "pretrained"):
            raise ConfigurationError(f"unknown embedding_init {self.embedding_init!r}")
        if self.loss_kind not in ("categorical", "binary"):
            raise ConfigurationError(f"unknown loss_kind {self.loss_kind!r}")
        if self.loss_kind == "binary" and self.n_classes != 2:
            raise ConfigurationError("binary loss requires exactly 2 classes")
        if self.lstm_branch not in ("final", "temporal_max"):
            raise ConfigurationError(f"unknown lstm_branch {self.lstm_branch!r}")
        if self.lstm_mode != "dense":
            # conv mode would read the (B, D) step rows as one (L, C) sequence mixing the batch
            raise ConfigurationError(f"lstm_mode {self.lstm_mode!r} is not supported; use 'dense'")

    @property
    def concat_width(self) -> int:
        return len(self.kernel_sizes) * self.filters_per_channel + self.lstm_units


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    valid_loss: list = field(default_factory=list)
    valid_macro_f1: list = field(default_factory=list)
    wall_time: float = 0.0


class ConvLstmNetwork:
    """Embedding lookup feeding parallel convolution channels and a
    recurrent branch, concatenated into a softmax head.

    Per channel: same-padded convolution -> ReLU -> dropout -> max pooling
    -> global max, one vector of ``filters_per_channel`` per kernel size;
    the max pooling changes no value before a global max, so only the
    shape trace computes it.  The recurrent branch contributes its final
    hidden state (or the temporal max of hidden states).  Row 0 of the
    embedding is the padding vector and stays zero through training.
    ``forward`` is the taped graph that training differentiates;
    ``infer`` is the eval-mode forward without a tape that prediction and
    validation use.
    """

    def __init__(self, cfg: ConvLstmConfig, vocab_size: int, seed: int = 0,
                 embeddings: Optional[EmbeddingModel] = None,
                 vocab: Optional[Vocabulary] = None,
                 oov_strategy: str = "uniform"):
        self.cfg = cfg
        self.vocab_size = vocab_size
        self.seed = seed
        rng = check_random_state(derive_seed(seed, "init"))
        d = cfg.emb_dim

        emb = rng.uniform(-0.5 / d, 0.5 / d, size=(vocab_size + 1, d)).astype(np.float32)
        if cfg.embedding_init == "pretrained":
            if embeddings is None or vocab is None:
                raise ConfigurationError("pretrained init needs an embedding model and a vocabulary")
            if embeddings.dim != d:
                raise ConfigurationError(
                    f"embedding dim {embeddings.dim} != configured emb_dim {d}"
                )
            strategy = oov_strategy
            if strategy == "subword" and embeddings.kind != "subword":
                strategy = "uniform"
            for token, token_id in vocab.token_to_id.items():
                if token in embeddings.vocab:
                    emb[token_id] = embeddings.input_vectors[embeddings.vocab.token_to_id[token]]
                else:
                    emb[token_id] = vector(embeddings, token, oov_strategy=strategy)
        emb[0] = 0.0
        self.embedding = Tensor(emb, requires_grad=not cfg.freeze_embeddings)

        self.channels = []
        for ksize in cfg.kernel_sizes:
            bound = np.sqrt(6.0 / (ksize * d + cfg.filters_per_channel))
            kernels = Tensor(
                rng.uniform(-bound, bound, size=(ksize, d, cfg.filters_per_channel)).astype(np.float32),
                requires_grad=True,
            )
            bias = Tensor(np.zeros(cfg.filters_per_channel, dtype=np.float32), requires_grad=True)
            self.channels.append((ksize, kernels, bias))

        self.lstm = nn.init_lstm_params(
            d,
            cfg.lstm_units,
            mode=cfg.lstm_mode,
            seq_len=cfg.seq_len,
            peephole=cfg.peephole,
            rng=rng,
        )

        head_in = cfg.concat_width
        bound = np.sqrt(6.0 / (head_in + cfg.n_classes))
        self.head_w = Tensor(
            rng.uniform(-bound, bound, size=(head_in, cfg.n_classes)).astype(np.float32),
            requires_grad=True,
        )
        self.head_b = Tensor(np.zeros(cfg.n_classes, dtype=np.float32), requires_grad=True)

    def tensors(self) -> dict:
        """Every weight by its checkpoint name, in checkpoint order."""
        named = {"embedding": self.embedding}
        for idx, (ksize, kernels, bias) in enumerate(self.channels):
            named[f"conv{idx}_k{ksize}_kernels"] = kernels
            named[f"conv{idx}_k{ksize}_bias"] = bias
        named.update({f"lstm_{name}": tensor for name, tensor in self.lstm.tensors().items()})
        named.update(head_w=self.head_w, head_b=self.head_b)
        return named

    def parameters(self) -> dict:
        params = self.tensors()
        if self.cfg.freeze_embeddings:
            del params["embedding"]
        return params

    def all_arrays(self) -> dict:
        return {name: tensor.data for name, tensor in self.tensors().items()}

    def _batch(self, ids) -> tuple[np.ndarray, bool]:
        """``ids`` as an int64 (B, seq_len) batch, and whether it was one document."""
        ids = np.asarray(ids, dtype=np.int64)
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        if ids.shape[1] != self.cfg.seq_len:
            raise nn.ShapeError(
                f"encoded length {ids.shape[1]} != configured seq_len {self.cfg.seq_len}"
            )
        if ids.size and (ids.min() < 0 or ids.max() >= self.embedding.data.shape[0]):
            raise nn.ShapeError("embedding ids out of range")
        return ids, single

    def forward(self, ids: np.ndarray, train_mode: bool = False, rng=None,
                trace: Optional[dict] = None, *, logits: bool = False) -> Tensor:
        """Class probability rows for a batch of encoded documents, or the
        pre-softmax scores with ``logits=True``, on the tape that training
        differentiates."""
        ids, single = self._batch(ids)
        rng = check_random_state(rng)
        cfg = self.cfg

        def traced(name, tensor):
            if trace is not None:
                trace[name] = tensor.shape[1:]
            return tensor

        emb = traced("embedded", nn.embedding_lookup(self.embedding, ids))
        emb = nn.gaussian_noise(emb, cfg.noise_sigma, train_mode, rng)

        branch_outputs = []
        for idx, (ksize, kernels, bias) in enumerate(self.channels):
            conv = traced(f"channel{idx}_conv", nn.relu(nn.conv1d(emb, kernels, bias)))
            conv = nn.dropout(conv, cfg.dropout_rate, train_mode, rng)
            if trace is not None:  # a global max after the max-pool is the global max alone
                traced(f"channel{idx}_pooled", nn.maxpool1d(conv, cfg.pool))
            branch_outputs.append(traced(f"channel{idx}_vector", nn.global_maxpool(conv)))

        hidden_states, final_state = nn.lstm_forward(emb, self.lstm)
        if cfg.lstm_branch == "final":
            lstm_vec = final_state.hidden
        else:
            lstm_vec = nn.global_maxpool(hidden_states)
        branch_outputs.append(traced("lstm_vector", lstm_vec))

        merged = traced("concatenated", nn.concat(branch_outputs, axis=-1))
        merged = nn.dropout(merged, cfg.dropout_rate, train_mode, rng)
        out = nn.dense(merged, self.head_w, self.head_b)
        if not logits:
            out = nn.softmax(out)
        return out[0] if single else out

    def infer(self, ids: np.ndarray, *, logits: bool = False) -> np.ndarray:
        """Eval-mode ``forward`` without a tape.  Every conv tap and the LSTM
        input transform are linear in the embedding rows, so each distinct id
        is projected once and each position gathers its projections; a channel
        vector is relu(max over positions of the conv + bias), as ReLU is
        monotone.  Agrees with ``forward`` to float32 rounding and raises
        FloatingPointError where it would."""
        ids, single = self._batch(ids)
        B, L = ids.shape
        u, inv = np.unique(ids, return_inverse=True)
        n, inv = len(u), inv.reshape(B, L)
        rows = np.zeros((n + 1, self.cfg.emb_dim), dtype=self.embedding.data.dtype)
        rows[:n] = self.embedding.data[u]  # row n is the zero padding of the conv edges
        features = []
        for ksize, kernels, bias in self.channels:
            left = (ksize - 1) // 2
            padded = np.pad(inv, ((0, 0), (left, ksize - 1 - left)), constant_values=n)
            proj = np.matmul(rows, kernels.data)  # (K, n + 1, F), one tap per slab
            conv = proj[0].take(padded[:, :L], axis=0)
            for k in range(1, ksize):
                conv += proj[k].take(padded[:, k:k + L], axis=0)
            features.append(np.maximum(_finite(conv).max(axis=1) + bias.data, 0.0))
        wx, _, lstm_bias = self.lstm.stacked()
        z = (rows @ wx + lstm_bias).take(inv.T, axis=0)[:, :, None, :]  # (T, B, 1, 4U)
        hidden = nn.lstm_recurrence(z, self.lstm)[0][0, 1:, :, 0]
        features.append(hidden[-1] if self.cfg.lstm_branch == "final" else hidden.max(axis=0))
        out = _finite(np.concatenate(features, axis=1) @ self.head_w.data + self.head_b.data)
        if not logits:
            out = _softmax(out)
        return out[0] if single else out

    def shape_trace(self) -> dict:
        """Intermediate shapes (batch dimension removed) for one document."""
        trace: dict = {}
        ids = np.zeros((1, self.cfg.seq_len), dtype=np.int64)
        self.forward(ids, train_mode=False, trace=trace)
        return {name: tuple(shape) for name, shape in trace.items()}


def build_conv_lstm(cfg: ConvLstmConfig, embeddings: Optional[EmbeddingModel] = None,
                    vocab: Optional[Vocabulary] = None, seed: int = 0,
                    oov_strategy: str = "uniform") -> ConvLstmNetwork:
    if vocab is None:
        raise ConfigurationError("build_conv_lstm needs a vocabulary")
    return ConvLstmNetwork(
        cfg, len(vocab), seed=seed, embeddings=embeddings, vocab=vocab,
        oov_strategy=oov_strategy,
    )


def train_network(net: ConvLstmNetwork, train_data, valid_data=None, epochs: int = 10,
                  batch_size: int = 128, learning_rate: float = 0.05,
                  seed: int = 0) -> TrainHistory:
    """Mini-batch Adagrad training of the classifier graph.

    ``train_data``/``valid_data`` are (ids, labels) pairs of integer
    arrays.  Dropout and noise are active only while training; the
    embedding padding row is pinned to zero.  Runs are deterministic for
    a fixed seed.
    """
    ids, labels = train_data
    ids = np.asarray(ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(ids) == 0:
        raise ValueError("training set is empty")
    if epochs < 0 or batch_size < 1:
        raise ValueError(f"need epochs >= 0 and batch_size >= 1, got {epochs}, {batch_size}")
    if not (np.isfinite(learning_rate) and learning_rate >= 0):
        raise ValueError(f"learning_rate must be finite and >= 0, got {learning_rate}")
    history = TrainHistory()
    if epochs == 0:
        return history
    start = time.perf_counter()
    optimizer = nn.Adagrad(net.parameters(), learning_rate=learning_rate)
    shuffle_rng = check_random_state(derive_seed(seed, "shuffle"))
    layer_rng = check_random_state(derive_seed(seed, "layers"))
    n_batches = -(-len(ids) // batch_size)
    for _ in range(epochs):
        order = shuffle_rng.permutation(len(ids))
        epoch_loss = 0.0
        for lo in range(0, len(ids), batch_size):
            batch = order[lo : lo + batch_size]
            optimizer.zero_grad()
            # the binary loss over two classes is this same quantity
            scores = net.forward(ids[batch], train_mode=True, rng=layer_rng, logits=True)
            loss = nn.softmax_cross_entropy(scores, labels[batch])
            loss.backward()
            if net.embedding.requires_grad and net.embedding.grad is not None:
                net.embedding.grad[0] = 0.0
            optimizer.step()
            epoch_loss += float(loss.data)
            del scores, loss  # free this batch's tape before the next forward builds one
        history.train_loss.append(epoch_loss / n_batches)
        if valid_data is not None:
            v_loss, v_f1 = _evaluate(net, valid_data)
            history.valid_loss.append(v_loss)
            history.valid_macro_f1.append(v_f1)
    history.wall_time = time.perf_counter() - start
    return history


def _evaluate(net, data) -> tuple[float, float]:
    ids, labels = data
    ids = np.asarray(ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    losses = []
    preds = []
    for lo in range(0, len(ids), 256):
        chunk = slice(lo, lo + 256)
        scores = net.infer(ids[chunk], logits=True)
        loss = nn.softmax_cross_entropy(Tensor(scores), labels[chunk])
        losses.append(float(loss.data) * (min(lo + 256, len(ids)) - lo))
        preds.extend(np.argmax(scores, axis=1).tolist())
    classes = list(range(net.cfg.n_classes))
    matrix = confusion_matrix(labels.tolist(), preds, classes)
    _, _, f1, _ = macro_prf(matrix)
    return sum(losses) / len(ids), f1


def predict_proba(net: ConvLstmNetwork, encoded) -> np.ndarray:
    """Eval-mode class distribution(s) for one or many encoded documents."""
    return net.infer(encoded)


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("operation produced non-finite values")
    return values


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a score vector or matrix."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class _Classifier(ParamsMixin):
    """An estimator over documents whose labels are the argmax of ``predict_proba``."""

    def predict(self, docs) -> list:
        probs = self.predict_proba(docs)
        return [self.classes_[i] for i in np.argmax(probs, axis=1)]


class ConvLstmClassifier(_Classifier):
    """Estimator facade: builds its own vocabulary and encodings in fit.

    ``embeddings`` may hold a trained EmbeddingModel; with
    ``embedding_init='pretrained'`` the embedding layer starts from those
    vectors (out-of-vocabulary rows filled per ``oov_strategy``).
    """

    def __init__(self, seq_len=100, emb_dim=300, kernel_sizes=(4, 6, 8),
                 filters_per_channel=100, pool=4, lstm_units=100, dropout_rate=0.5,
                 noise_sigma=0.1, n_classes=None, embedding_init="random",
                 freeze_embeddings=False, loss_kind="categorical", lstm_mode="dense",
                 lstm_branch="final", peephole=False, embeddings=None,
                 oov_strategy="uniform", min_df=1, epochs=10, batch_size=128,
                 learning_rate=0.05, seed=0):
        self.seq_len = seq_len
        self.emb_dim = emb_dim
        self.kernel_sizes = kernel_sizes
        self.filters_per_channel = filters_per_channel
        self.pool = pool
        self.lstm_units = lstm_units
        self.dropout_rate = dropout_rate
        self.noise_sigma = noise_sigma
        self.n_classes = n_classes
        self.embedding_init = embedding_init
        self.freeze_embeddings = freeze_embeddings
        self.loss_kind = loss_kind
        self.lstm_mode = lstm_mode
        self.lstm_branch = lstm_branch
        self.peephole = peephole
        self.embeddings = embeddings
        self.oov_strategy = oov_strategy
        self.min_df = min_df
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed

    def _make_config(self, n_classes: int) -> ConvLstmConfig:
        params = {f.name: getattr(self, f.name) for f in fields(ConvLstmConfig)}
        return ConvLstmConfig(**{**params, "kernel_sizes": tuple(self.kernel_sizes),
                                 "n_classes": n_classes})

    def _encode(self, docs) -> np.ndarray:
        return np.stack([
            encode_document(tokens_of(doc), self.vocab_, self.seq_len) for doc in docs
        ])

    def fit(self, docs, labels, valid=None):
        labels = list(labels)
        self.classes_ = sorted(set(labels))
        n_classes = self.n_classes or len(self.classes_)
        if len(self.classes_) < 2:
            raise ValueError("training set has a single class")
        self.vocab_ = build_vocabulary(docs, min_df=self.min_df)
        self.config_ = self._make_config(n_classes)
        self.network_ = ConvLstmNetwork(
            self.config_, len(self.vocab_), seed=self.seed,
            embeddings=self.embeddings, vocab=self.vocab_,
            oov_strategy=self.oov_strategy,
        )
        train_ids = self._encode(docs)
        train_labels = np.array([self.classes_.index(l) for l in labels])
        valid_data = None
        if valid is not None:
            v_docs, v_labels = valid
            valid_data = (
                self._encode(v_docs),
                np.array([self.classes_.index(l) for l in v_labels]),
            )
        self.history_ = train_network(
            self.network_, (train_ids, train_labels), valid_data,
            epochs=self.epochs, batch_size=self.batch_size,
            learning_rate=self.learning_rate, seed=self.seed,
        )
        return self

    def predict_proba(self, docs) -> np.ndarray:
        return predict_proba(self.network_, self._encode(docs))

    def save(self, directory) -> None:
        _save(directory, "convlstm", self, self.vocab_.tokens, self.network_.all_arrays(),
              embedding_provenance=(
                  {"kind": self.embeddings.kind, "dim": self.embeddings.dim}
                  if isinstance(self.embeddings, EmbeddingModel) else None))

    def _restore(self, tokens, arrays) -> None:
        self.vocab_ = Vocabulary.from_tokens(tokens)
        self.config_ = self._make_config(self.n_classes or len(self.classes_))
        # checkpointed weights replace any init, so build the graph randomly
        # even if the original run started from pretrained vectors
        self.network_ = ConvLstmNetwork(replace(self.config_, embedding_init="random"),
                                        len(tokens), seed=self.seed)
        for name, tensor in self.network_.tensors().items():
            if arrays[name].shape != tensor.data.shape:
                raise ValueError(f"layer {name!r}: shape {arrays[name].shape} != {tensor.data.shape}")
            tensor.data[...] = arrays[name]


# -- TF-IDF features and baselines -------------------------------------------


def _sparse():
    """``scipy.sparse``, imported on first use: only the TF-IDF models need it."""
    import scipy.sparse

    return scipy.sparse


def _unit_rows(X):
    """``X`` as CSR with every nonzero row scaled to unit L2 norm."""
    sp = _sparse()
    X = sp.csr_matrix(X)
    norms = np.sqrt(X.multiply(X).sum(axis=1)).A.ravel()
    return sp.diags(1.0 / np.where(norms == 0.0, 1.0, norms)) @ X


class TfidfFeaturizer(ParamsMixin):
    """Character n-gram and word unigram counts with smoothed idf weighting.

    idf = ln((1 + N) / (1 + df)) + 1; ``transform`` gives L2-normalized rows as
    a scipy CSR matrix; the feature index is the sorted feature strings.
    """

    def __init__(self, char_ngram_range=(2, 4), word_unigrams=True):
        self.char_ngram_range = char_ngram_range
        self.word_unigrams = word_unigrams

    def _doc_features(self, doc) -> dict:
        tokens = list(tokens_of(doc))
        counts: dict[str, int] = {}
        if self.word_unigrams:
            for token in tokens:
                key = f"w:{token}"
                counts[key] = counts.get(key, 0) + 1
        if self.char_ngram_range:
            lo, hi = self.char_ngram_range
            text = " ".join(tokens)
            for n in range(lo, hi + 1):
                for start in range(0, len(text) - n + 1):
                    key = f"c:{text[start:start + n]}"
                    counts[key] = counts.get(key, 0) + 1
        return counts

    def fit(self, docs, y=None):
        return self._fit_counts([self._doc_features(doc) for doc in docs])

    def _fit_counts(self, counts):
        if not counts:
            raise ValueError("cannot fit on an empty corpus")
        df: dict[str, int] = {}
        for doc_counts in counts:
            for feature in doc_counts:
                df[feature] = df.get(feature, 0) + 1
        self.feature_names_ = sorted(df)
        self.feature_index_ = {f: i for i, f in enumerate(self.feature_names_)}
        n = len(counts)
        self.idf_ = np.array(
            [np.log((1.0 + n) / (1.0 + df[f])) + 1.0 for f in self.feature_names_],
            dtype=np.float64,
        )
        return self

    def transform(self, docs):
        return self._matrix([self._doc_features(doc) for doc in docs])

    def _matrix(self, counts):
        index = self.feature_index_
        cols = np.array([index.get(f, -1) for c in counts for f in c], dtype=np.int64)
        tf = np.array([v for c in counts for v in c.values()], dtype=np.float64)
        rows = np.repeat(np.arange(len(counts)), [len(c) for c in counts])
        known = cols >= 0
        cols = cols[known]
        return _unit_rows(_sparse().csr_matrix(
            (tf[known] * self.idf_[cols], (rows[known], cols)),
            shape=(len(counts), len(self.feature_names_))))

    def fit_transform(self, docs, y=None):
        counts = [self._doc_features(doc) for doc in docs]
        return self._fit_counts(counts)._matrix(counts)


def tfidf_features(docs, char_ngram_range=(2, 4), word_unigrams=True):
    return TfidfFeaturizer(char_ngram_range, word_unigrams).fit_transform(list(docs))


class _LogisticRegressionGD(ParamsMixin):
    """Multinomial logistic regression by full-batch gradient descent."""

    def __init__(self, l2=1e-4, learning_rate=0.5, epochs=300, seed=0):
        self.l2 = l2
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.seed = seed

    def fit(self, X, y):
        y = np.asarray(y)
        self.classes_ = sorted(set(y.tolist()))
        if len(self.classes_) < 2:
            raise ValueError("logistic regression needs at least two classes")
        n, d = X.shape
        c = len(self.classes_)
        idx = np.array([self.classes_.index(label) for label in y])
        target = np.zeros((n, c))
        target[np.arange(n), idx] = 1.0
        self.weights_ = np.zeros((d, c))
        self.bias_ = np.zeros(c)
        for _ in range(self.epochs):
            delta = (_softmax(X @ self.weights_ + self.bias_) - target) / n
            grad_w = X.T @ delta + self.l2 * self.weights_
            grad_b = delta.sum(axis=0)
            self.weights_ -= self.learning_rate * grad_w
            self.bias_ -= self.learning_rate * grad_b
        return self

    def predict_proba(self, X):
        return _softmax(X @ self.weights_ + self.bias_)


class _MultinomialNaiveBayes(ParamsMixin):
    """Count-based class conditionals with additive smoothing."""

    def __init__(self, alpha=1.0):
        self.alpha = alpha

    def fit(self, X, y):
        y = np.asarray(y)
        self.classes_ = sorted(set(y.tolist()))
        if len(self.classes_) < 2:
            raise ValueError("naive Bayes needs at least two classes")
        n, d = X.shape
        X = _sparse().csr_matrix(X)
        self.log_prior_ = np.zeros(len(self.classes_))
        self.log_likelihood_ = np.zeros((len(self.classes_), d))
        for ci, cls in enumerate(self.classes_):
            mask = y == cls
            self.log_prior_[ci] = np.log(mask.sum() / n)
            counts = np.asarray(X[mask].sum(axis=0)).ravel() + self.alpha
            self.log_likelihood_[ci] = np.log(counts / counts.sum())
        return self

    def predict_proba(self, X):
        return _softmax(_sparse().csr_matrix(X) @ self.log_likelihood_.T + self.log_prior_)


class _CosineKnn(ParamsMixin):
    """Instance store scored by cosine similarity; probabilities are
    neighbor vote fractions."""

    def __init__(self, k=5):
        self.k = k

    def fit(self, X, y):
        self.train_ = _unit_rows(X)
        classes, self.label_ids_ = np.unique(np.asarray(y), return_inverse=True)
        self.classes_ = classes.tolist()
        if len(self.classes_) < 2:
            raise ValueError("kNN needs at least two classes")
        return self

    def predict_proba(self, X):
        sims = (_unit_rows(X) @ self.train_.T).toarray()
        k = min(self.k, sims.shape[1])
        out = np.zeros((sims.shape[0], len(self.classes_)))
        for r in range(sims.shape[0]):
            # stable sort keeps the earliest instance on ties
            order = np.argsort(-sims[r], kind="stable")[:k]
            for idx in order:
                out[r, self.label_ids_[idx]] += 1.0
        return out / k


_BASELINES = {
    "logreg": _LogisticRegressionGD,
    "multinomial_nb": _MultinomialNaiveBayes,
    "knn": _CosineKnn,
}
# fitted arrays a saved model stores under their attribute names; the kNN
# instance matrix is stored apart, as its CSR data, indices and indptr
_FITTED = {"logreg": ("weights_", "bias_"),
           "multinomial_nb": ("log_prior_", "log_likelihood_"),
           "knn": ("label_ids_",)}


def train_baseline(features, labels, kind: str, **kwargs):
    """The baseline model of ``kind`` fitted on a feature matrix; it has
    ``predict_proba`` and ``classes_``."""
    if kind not in _BASELINES:
        raise ValueError(f"unknown baseline kind {kind!r}; known: {sorted(_BASELINES)}")
    return _BASELINES[kind](**kwargs).fit(features, labels)


class TfidfClassifier(_Classifier):
    """TF-IDF features piped into one of the baseline models."""

    def __init__(self, kind="logreg", char_ngram_range=(2, 4), word_unigrams=True,
                 k=5, alpha=1.0, l2=1e-4, learning_rate=0.5, epochs=300, seed=0):
        self.kind = kind
        self.char_ngram_range = char_ngram_range
        self.word_unigrams = word_unigrams
        self.k = k
        self.alpha = alpha
        self.l2 = l2
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.seed = seed

    def fit(self, docs, labels, valid=None):
        self.featurizer_ = TfidfFeaturizer(self.char_ngram_range, self.word_unigrams)
        X = self.featurizer_.fit_transform(list(docs))
        self.baseline_ = train_baseline(X, list(labels), self.kind, **self._baseline_params())
        self.classes_ = self.baseline_.classes_
        return self

    def _baseline_params(self) -> dict:
        model_cls = _BASELINES.get(self.kind)
        return {name: getattr(self, name) for name in model_cls._param_names()} if model_cls else {}

    def predict_proba(self, docs):
        return self.baseline_.predict_proba(self.featurizer_.transform(list(docs)))

    def save(self, directory) -> None:
        model = self.baseline_
        arrays = {"idf": self.featurizer_.idf_}
        arrays.update((name, getattr(model, name)) for name in _FITTED[self.kind])
        if self.kind == "knn":
            arrays.update(data=model.train_.data, indices=model.train_.indices,
                          indptr=model.train_.indptr)
        _save(directory, "tfidf", self, self.featurizer_.feature_names_, arrays)

    def _restore(self, tokens, arrays) -> None:
        self.featurizer_ = TfidfFeaturizer(self.char_ngram_range, self.word_unigrams)
        self.featurizer_.feature_names_ = tokens
        self.featurizer_.feature_index_ = {f: i for i, f in enumerate(tokens)}
        self.featurizer_.idf_ = arrays["idf"]
        model = _BASELINES[self.kind](**self._baseline_params())
        model.classes_ = self.classes_
        if self.kind == "knn":
            indptr = arrays["indptr"]
            model.train_ = _sparse().csr_matrix((arrays["data"], arrays["indices"], indptr),
                                                shape=(len(indptr) - 1, len(tokens)))
        for name in _FITTED[self.kind]:
            setattr(model, name, arrays[name])
        self.baseline_ = model


# -- averaged bag-of-features linear classifier ---------------------------


def fasttext_doc_loss_and_grads(feature_rows, projection, label_index):
    """Loss and gradients for one document of the linear classifier.

    The document representation is the mean of its feature rows; the
    projection maps it to pre-softmax scores.  Returns (loss, d_rows,
    d_projection).
    """
    feature_rows = np.asarray(feature_rows)
    projection = np.asarray(projection)
    h = feature_rows.mean(axis=0)
    probs = _softmax(h @ projection)
    loss = -np.log(max(probs[label_index], 1e-12))
    dz = probs.copy()
    dz[label_index] -= 1.0
    d_projection = np.outer(h, dz)
    dh = projection @ dz
    return float(loss), np.broadcast_to(dh / feature_rows.shape[0], feature_rows.shape), d_projection


def _by_occurrence(ids):
    """Distinct ids, most frequent first, and for each j >= 1 how many of them
    occur at least j times: those are a prefix of that order."""
    rows, counts = np.unique(ids, return_counts=True)
    ends = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]
    return rows[np.argsort(-counts, kind="stable")], ends.tolist()


class FastTextClassifier(_Classifier):
    """Linear classifier over averaged word and subword-bucket embeddings."""

    def __init__(self, dim=50, epochs=20, learning_rate=0.1, min_df=1,
                 nmin=3, nmax=6, bucket_count=2**12, use_subword=True, seed=0):
        self.dim = dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.min_df = min_df
        self.nmin = nmin
        self.nmax = nmax
        self.bucket_count = bucket_count
        self.use_subword = use_subword
        self.seed = seed

    def _feature_ids(self, tokens) -> np.ndarray:
        """Word row, then subword bucket rows, of each token (cached); [0] if none."""
        ids = []
        offset = len(self.vocab_) + 1
        for token in tokens:
            rows = self._token_rows.get(token)
            if rows is None:
                wid = self.vocab_.token_to_id.get(token)
                rows = [] if wid is None else [wid]
                if self.use_subword:
                    rows += [offset + b for b in
                             subword_ngrams(token, self.nmin, self.nmax, self.bucket_count)]
                self._token_rows[token] = rows
            ids.extend(rows)
        return np.array(ids or [0], dtype=np.int64)

    def fit(self, docs, labels, valid=None, vocab: Optional[Vocabulary] = None):
        """Fit on ``docs``; ``vocab`` replaces the vocabulary built from them."""
        docs = list(docs)
        labels = list(labels)
        if not docs:
            raise ValueError("training set is empty")
        if self.dim < 1 or self.epochs < 0:
            raise ValueError(f"need dim >= 1 and epochs >= 0, got {self.dim}, {self.epochs}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if (self.use_subword and self.bucket_count < 1) or not 1 <= self.nmin <= self.nmax:
            raise ValueError("need bucket_count >= 1 and 1 <= nmin <= nmax, got "
                             f"{self.bucket_count} and {self.nmin}..{self.nmax}")
        self.classes_ = sorted(set(labels))
        if len(self.classes_) < 2:
            raise ValueError("training set has a single class")
        self.vocab_ = vocab if vocab is not None else build_vocabulary(docs, min_df=self.min_df)
        self._token_rows = {}
        rng = check_random_state(self.seed)
        n_rows = len(self.vocab_) + 1 + (self.bucket_count if self.use_subword else 0)
        self.lookup_ = rng.uniform(-1.0 / self.dim, 1.0 / self.dim,
                                   size=(n_rows, self.dim)).astype(np.float64)
        self.lookup_[0] = 0.0
        self.projection_ = np.zeros((self.dim, len(self.classes_)), dtype=np.float64)
        acc_lookup = np.full_like(self.lookup_, 1e-8)
        acc_proj = np.full_like(self.projection_, 1e-8)
        encoded = [self._feature_ids(tokens_of(d)) for d in docs]
        ranked = [_by_occurrence(ids) for ids in encoded]
        y = np.array([self.classes_.index(l) for l in labels])
        order_rng = check_random_state(derive_seed(self.seed, "order"))
        lr = self.learning_rate
        self.epoch_losses_ = []
        for _ in range(self.epochs):
            order = order_rng.permutation(len(docs))
            total = 0.0
            for i in order:
                ids = encoded[i]
                loss, d_rows, d_proj = fasttext_doc_loss_and_grads(
                    self.lookup_[ids], self.projection_, y[i]
                )
                total += loss
                acc_proj += d_proj * d_proj
                self.projection_ -= lr * d_proj / np.sqrt(acc_proj)
                # Adagrad per occurrence of a row, all rows' j-th occurrences at once
                rows, ends = ranked[i]
                step, sq = lr * d_rows[0], d_rows[0] * d_rows[0]
                acc, lookup = acc_lookup[rows], self.lookup_[rows]
                for n in ends:
                    acc[:n] += sq
                    lookup[:n] -= step / np.sqrt(acc[:n])
                acc_lookup[rows], self.lookup_[rows] = acc, lookup
            self.epoch_losses_.append(total / len(docs))
        return self

    def predict_proba(self, docs) -> np.ndarray:
        docs = list(docs)
        out = np.zeros((len(docs), len(self.classes_)))
        for r, doc in enumerate(docs):
            ids = self._feature_ids(tokens_of(doc))
            out[r] = _softmax(self.lookup_[ids].mean(axis=0) @ self.projection_)
        return out

    def save(self, directory) -> None:
        _save(directory, "fasttext", self, self.vocab_.tokens,
              {"lookup": self.lookup_, "projection": self.projection_})

    def _restore(self, tokens, arrays) -> None:
        self.vocab_ = Vocabulary.from_tokens(tokens)
        self._token_rows = {}
        self.lookup_, self.projection_ = arrays["lookup"], arrays["projection"]


def fasttext_linear_classifier(docs, vocab: Vocabulary, spec: TrainSpec,
                               labels=None) -> FastTextClassifier:
    """Fit the averaged-embedding linear classifier from a TrainSpec.

    Labels default to the documents' own labels.
    """
    docs = list(docs)
    if labels is None:
        labels = [d.label for d in docs]
    clf = FastTextClassifier(
        dim=spec.dim, epochs=spec.epochs, learning_rate=spec.learning_rate,
        nmin=spec.nmin, nmax=spec.nmax, bucket_count=spec.bucket_count, seed=spec.seed,
    )
    return clf.fit(docs, labels, vocab=vocab)


# -- persistence ------------------------------------------------------------


def _vocabulary_sha256(tokens) -> str:
    return hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


def _save(directory, model_type: str, est, tokens, arrays: dict, **extra) -> None:
    """Write ``arrays`` through ``nn.save_checkpoint`` and one ``model.json``: model
    type, constructor params, classes, vocabulary and its sha256, ``extra`` keys."""
    nn.save_checkpoint(directory, arrays, meta={"seed": est.seed})
    sidecar = {
        "model_type": model_type,
        "params": {k: v for k, v in est.get_params().items() if k != "embeddings"},
        "classes": list(est.classes_),
        "vocabulary": list(tokens),
        "vocabulary_sha256": _vocabulary_sha256(tokens),
        **extra,
    }
    (Path(directory) / "model.json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _same_kind(value, default) -> bool:
    """Whether a loaded param has the type of its constructor default; an
    int passes for a float, a None default stands for an int, and None
    passes for a tuple (``char_ngram_range=None`` turns n-grams off)."""
    if default is None:
        return value is None or type(value) is int
    if isinstance(default, tuple):
        return value is None or (isinstance(value, tuple)
                                 and all(_same_kind(v, default[0]) for v in value))
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


def load_classifier(directory):
    """Rebuild a classifier written by its ``save``; raises ValueError when a
    param does not have the type of its default, the vocabulary does not match
    its hash, or the weights do not match their manifest."""
    sidecar = json.loads((Path(directory) / "model.json").read_text(encoding="utf-8"))
    model_types = {"convlstm": ConvLstmClassifier, "fasttext": FastTextClassifier,
                   "tfidf": TfidfClassifier}
    if sidecar.get("model_type") not in model_types:
        raise ValueError(f"unknown model_type {sidecar.get('model_type')!r} in {directory}")
    arrays, _ = nn.load_checkpoint(directory)  # first, so it refuses older formats
    tokens = sidecar["vocabulary"]
    if _vocabulary_sha256(tokens) != sidecar["vocabulary_sha256"]:
        raise ValueError(f"{directory}: vocabulary does not match vocabulary_sha256")
    # JSON has no tuples, and every sequence-valued param is a tuple
    params = {k: tuple(v) if isinstance(v, list) else v for k, v in sidecar["params"].items()}
    est = model_types[sidecar["model_type"]]()
    defaults = est.get_params()
    for name, value in params.items():
        if name in defaults and not _same_kind(value, defaults[name]):
            raise ValueError(f"{directory}: model.json param {name!r} is {value!r}, "
                             f"not of the type of its default {defaults[name]!r}")
    est.set_params(**params)
    est.classes_ = sidecar["classes"]
    est._restore(tokens, arrays)
    return est


# -- ensembling -------------------------------------------------------------


def ensemble_average(models: Sequence, docs) -> np.ndarray:
    """Arithmetic mean of member predicted distributions."""
    models = list(models)
    if not models:
        raise ValueError("ensemble needs at least one model")
    stacked = [np.asarray(m.predict_proba(docs)) for m in models]
    first = stacked[0]
    for other in stacked[1:]:
        if other.shape != first.shape:
            raise ValueError("ensemble members disagree on the class set")
    return np.mean(stacked, axis=0)


def ensemble_predict(models: Sequence, docs, classes) -> list:
    """Argmax of the averaged distribution; ties pick the lowest index."""
    probs = ensemble_average(models, docs)
    return [classes[i] for i in np.argmax(probs, axis=1)]
