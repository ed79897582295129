"""Word vector training three ways: skip-gram with negative sampling,
log-co-occurrence weighted least squares, and subword bucket skip-gram,
plus query-time handling of out-of-vocabulary words.

All trainers are single-threaded and deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .base import ParamsMixin, check_random_state, derive_seed, stable_hash
from .corpus import Vocabulary, build_vocabulary, tokens_of

__all__ = [
    "TrainSpec",
    "NegativeSampler",
    "build_negative_sampler",
    "EmbeddingModel",
    "sgns_pair_loss_and_grads",
    "sgns_pair_step",
    "train_sgns",
    "CooccurrenceTable",
    "build_cooccurrence",
    "glove_pair_loss_and_grads",
    "train_glove",
    "subword_ngrams",
    "subword_pair_loss_and_grads",
    "train_subword_sgns",
    "vector",
    "nearest_neighbors",
    "save_word_vectors",
    "load_word_vectors",
    "SkipGramEmbedding",
    "GloveEmbedding",
    "SubwordEmbedding",
]

OOV_STRATEGIES = ("error", "uniform", "random_invocab", "subword")


@dataclass
class TrainSpec:
    """Hyperparameters shared by the embedding trainers."""

    dim: int = 300
    window: int = 5
    negatives: int = 10
    epochs: int = 5
    learning_rate: float = 0.025
    seed: int = 0
    nmin: int = 3
    nmax: int = 6
    bucket_count: int = 2**16
    power: float = 0.75
    x_max: float = 100.0
    alpha: float = 0.75

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 1 <= self.nmin <= self.nmax:
            raise ValueError(f"need 1 <= nmin <= nmax, got {self.nmin}..{self.nmax}")
        if self.bucket_count < 1:
            raise ValueError(f"bucket_count must be >= 1, got {self.bucket_count}")


class NegativeSampler:
    """Draws contrast word ids from a power-smoothed unigram distribution.

    Probabilities are proportional to frequency**power; the pad id (0) has
    zero mass.
    """

    def __init__(self, frequencies, power: float = 0.75, seed: int = 0):
        if isinstance(frequencies, dict):
            size = max(frequencies) + 1
            freq = np.zeros(size, dtype=np.float64)
            for i, f in frequencies.items():
                freq[i] = f
        else:
            freq = np.asarray(frequencies, dtype=np.float64).copy()
        freq[0] = 0.0
        if freq.sum() <= 0:
            raise ValueError("negative sampler needs at least one nonzero frequency")
        self.power = power
        probs = np.where(freq > 0, freq, 0.0) ** power
        probs[freq <= 0] = 0.0
        self.probabilities = probs / probs.sum()
        self.cumulative = np.cumsum(self.probabilities)
        self.rng = check_random_state(seed)

    def draw(self, k: int) -> np.ndarray:
        u = self.rng.random(k)
        return np.searchsorted(self.cumulative, u, side="right")

    def draw_excluding(self, exclude: int, k: int, max_tries: int = 100) -> np.ndarray:
        """k ids, each the first of up to ``max_tries`` draws that is not
        ``exclude``; raises ValueError when every try of a slot draws it."""
        out = []
        for _ in range(k):
            for _ in range(max_tries):
                candidate = int(np.searchsorted(self.cumulative, self.rng.random(), side="right"))
                if candidate != exclude:
                    out.append(candidate)
                    break
            else:
                raise ValueError(
                    f"no negative other than id {exclude} in {max_tries} draws; "
                    "the corpus needs at least two distinct tokens"
                )
        return np.array(out, dtype=np.int64)


def build_negative_sampler(corpus_frequencies, power: float = 0.75, seed: int = 0) -> NegativeSampler:
    return NegativeSampler(corpus_frequencies, power=power, seed=seed)


@dataclass
class EmbeddingModel:
    """Dense vector tables plus the vocabulary that indexes them.

    Row 0 of every table is the padding row and stays exactly zero.  For
    the subword kind, word vectors are compositions over hashed character
    n-gram buckets, materialized into ``input_vectors`` after training.
    """

    kind: str
    dim: int
    vocab: Vocabulary
    input_vectors: np.ndarray
    output_vectors: Optional[np.ndarray] = None
    bucket_vectors: Optional[np.ndarray] = None
    nmin: Optional[int] = None
    nmax: Optional[int] = None
    bucket_count: Optional[int] = None
    seed: int = 0
    epoch_losses: list = field(default_factory=list)
    biases: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("sgns", "glove", "subword"):
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        self._check_finite()
        if np.any(self.input_vectors[0] != 0.0):
            raise ValueError("padding row of input_vectors must be zero")

    def _check_finite(self):
        for name in ("input_vectors", "output_vectors", "bucket_vectors"):
            table = getattr(self, name)
            if table is not None and not np.all(np.isfinite(table)):
                raise FloatingPointError(f"{name} holds non-finite values")

    def __contains__(self, word):
        return word in self.vocab


def _init_input_table(n_rows: int, dim: int, rng, dtype=np.float32) -> np.ndarray:
    table = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n_rows, dim)).astype(dtype)
    table[0] = 0.0
    return table


# -- skip-gram with negative sampling ------------------------------------


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def sgns_pair_loss_and_grads(center_vec, context_out, negative_outs):
    """Loss and gradients for one (center, context, negatives) triple.

    The loss is the negated objective: -log sig(ctx . cen) minus the sum
    of log sig(-neg . cen) over negatives, so it is always >= 0.
    """
    center_vec = np.asarray(center_vec)
    context_out = np.asarray(context_out)
    negative_outs = np.asarray(negative_outs).reshape(-1, center_vec.shape[0])
    pos = float(context_out @ center_vec)
    negs = negative_outs @ center_vec
    loss = -_log_sigmoid(pos) - _log_sigmoid(-negs).sum()
    s_pos = 1.0 / (1.0 + np.exp(-pos))
    s_negs = 1.0 / (1.0 + np.exp(-negs))
    g_pos = s_pos - 1.0
    d_context = g_pos * center_vec
    d_center = g_pos * context_out + s_negs @ negative_outs
    d_negatives = s_negs[:, None] * center_vec[None, :]
    return float(loss), d_center, d_context, d_negatives


def sgns_pair_step(center_id, context_id, negative_ids, model: EmbeddingModel, lr: float) -> float:
    """One stochastic update of the input/output rows touched by a pair."""
    negative_ids = np.asarray(negative_ids, dtype=np.int64)
    if np.any(negative_ids == context_id):
        raise ValueError(f"negative id equals context id {context_id}")
    vin, vout = model.input_vectors, model.output_vectors
    loss, d_center, d_context, d_negatives = sgns_pair_loss_and_grads(
        vin[center_id], vout[context_id], vout[negative_ids]
    )
    vin[center_id] -= lr * d_center.astype(vin.dtype)
    _update_outputs(vout, context_id, negative_ids, d_context, d_negatives, lr)
    return loss


def _update_outputs(vout, context_id, negative_ids, d_context, d_negatives, lr) -> None:
    """The gradient step on a pair's context row and negative rows."""
    vout[context_id] -= lr * d_context.astype(vout.dtype)
    if len(negative_ids):
        np.add.at(vout, negative_ids, (-lr * d_negatives).astype(vout.dtype))


def _context_pairs(ids: list, window: int, rng):
    """Yield (center, context) index pairs with per-center window subsampling."""
    n = len(ids)
    for t in range(n):
        b = int(rng.integers(1, window + 1))
        lo = max(0, t - b)
        hi = min(n, t + b + 1)
        for j in range(lo, hi):
            if j != t:
                yield t, j


def _encode_for_training(docs, vocab) -> list[list[int]]:
    """In-vocabulary ids of each document that has any."""
    encoded = []
    for doc in docs:
        ids = [vocab.token_to_id[t] for t in tokens_of(doc) if t in vocab.token_to_id]
        if ids:
            encoded.append(ids)
    return encoded


def train_sgns(docs, vocab: Vocabulary, spec: TrainSpec) -> EmbeddingModel:
    """Skip-gram training over all in-window pairs, one pass per epoch."""
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    rng = check_random_state(spec.seed)
    model = EmbeddingModel(
        kind="sgns",
        dim=spec.dim,
        vocab=vocab,
        input_vectors=_init_input_table(len(vocab) + 1, spec.dim, rng),
        output_vectors=np.zeros((len(vocab) + 1, spec.dim), dtype=np.float32),
        seed=spec.seed,
    )
    step = partial(sgns_pair_step, model=model, lr=spec.learning_rate)
    return _fit_skipgram(model, docs, spec, step)


def _fit_skipgram(model: EmbeddingModel, docs, spec: TrainSpec, step) -> EmbeddingModel:
    """Skip-gram epochs over every in-window pair of ``docs``.

    ``step(center_id, context_id, negative_ids)`` updates the model's
    tables for one pair and returns its loss.  The fit stops with
    FloatingPointError at the first epoch whose mean loss is not finite.
    """
    encoded = _encode_for_training(docs, model.vocab)
    if not encoded:
        raise ValueError("corpus has no in-vocabulary tokens")
    sampler = NegativeSampler(
        model.vocab.frequencies_array(), spec.power, seed=derive_seed(spec.seed, "sampler")
    )
    rng = check_random_state(derive_seed(spec.seed, "windows"))
    for epoch in range(1, spec.epochs + 1):
        total, count = 0.0, 0
        for ids in encoded:
            for t, j in _context_pairs(ids, spec.window, rng):
                total += step(ids[t], ids[j], sampler.draw_excluding(ids[j], spec.negatives))
                count += 1
        mean = total / max(count, 1)
        if not np.isfinite(mean):
            raise FloatingPointError(f"epoch {epoch} has a non-finite mean loss ({mean})")
        model.epoch_losses.append(mean)
    model._check_finite()
    return model


# -- co-occurrence factorization ------------------------------------------


@dataclass
class CooccurrenceTable:
    """Sparse symmetric pair counts within a fixed window."""

    counts: dict
    window: int
    symmetric: bool
    vocab: Vocabulary

    def __len__(self):
        return len(self.counts)

    def items(self):
        return self.counts.items()


def build_cooccurrence(docs, window: int, vocab: Optional[Vocabulary] = None) -> CooccurrenceTable:
    """Count, for every center, each context within +-window (unweighted)."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if vocab is None:
        vocab = build_vocabulary(docs, min_df=1)
    counts: dict[tuple[int, int], float] = {}
    for ids in _encode_for_training(docs, vocab):
        n = len(ids)
        for t in range(n):
            lo = max(0, t - window)
            hi = min(n, t + window + 1)
            for j in range(lo, hi):
                if j != t:
                    key = (ids[t], ids[j])
                    counts[key] = counts.get(key, 0.0) + 1.0
    return CooccurrenceTable(counts=counts, window=window, symmetric=True, vocab=vocab)


def glove_pair_loss_and_grads(w_i, w_j, b_i, b_j, log_count, weight):
    """Weighted squared error of the log-count fit for one pair.

    Cost is weight * (w_i . w_j + b_i + b_j - log_count)^2; returns the
    cost and its gradients with respect to (w_i, w_j, b_i, b_j).
    """
    diff = float(np.dot(w_i, w_j) + b_i + b_j - log_count)
    g = 2.0 * weight * diff
    return weight * diff * diff, g * np.asarray(w_j), g * np.asarray(w_i), g, g


def train_glove(cooc: CooccurrenceTable, spec: TrainSpec) -> EmbeddingModel:
    """Fit vectors and biases so dot products track log co-occurrence.

    Per-pair adaptive gradient steps with the weighting
    min(1, (count / x_max) ** alpha); pairs are visited in a seeded
    shuffled order each epoch and the running cost is recorded per epoch.
    """
    if len(cooc) == 0:
        raise ValueError("co-occurrence table is empty")
    for (i, j), count in cooc.items():
        if count <= 0:
            raise ValueError(f"nonpositive count for pair ({i}, {j}): {count}")
    vocab = cooc.vocab
    rows = len(vocab) + 1
    rng = check_random_state(spec.seed)
    w = _init_input_table(rows, spec.dim, rng)
    wt = _init_input_table(rows, spec.dim, check_random_state(derive_seed(spec.seed, "glove-out")))
    b = np.zeros(rows, dtype=np.float32)
    bt = np.zeros(rows, dtype=np.float32)
    acc = {
        "w": np.full((rows, spec.dim), 1e-8, dtype=np.float64),
        "wt": np.full((rows, spec.dim), 1e-8, dtype=np.float64),
        "b": np.full(rows, 1e-8, dtype=np.float64),
        "bt": np.full(rows, 1e-8, dtype=np.float64),
    }
    pairs = sorted(cooc.counts)
    log_counts = {p: np.log(cooc.counts[p]) for p in pairs}
    weights = {p: min(1.0, (cooc.counts[p] / spec.x_max) ** spec.alpha) for p in pairs}
    order_rng = check_random_state(derive_seed(spec.seed, "glove-order"))
    losses = []
    lr = spec.learning_rate
    for _ in range(spec.epochs):
        order = order_rng.permutation(len(pairs))
        total = 0.0
        for idx in order:
            i, j = pairs[idx]
            cost, dwi, dwj, dbi, dbj = glove_pair_loss_and_grads(
                w[i], wt[j], b[i], bt[j], log_counts[(i, j)], weights[(i, j)]
            )
            total += cost
            acc["w"][i] += dwi * dwi
            w[i] -= (lr * dwi / np.sqrt(acc["w"][i])).astype(np.float32)
            acc["wt"][j] += dwj * dwj
            wt[j] -= (lr * dwj / np.sqrt(acc["wt"][j])).astype(np.float32)
            acc["b"][i] += dbi * dbi
            b[i] -= np.float32(lr * dbi / np.sqrt(acc["b"][i]))
            acc["bt"][j] += dbj * dbj
            bt[j] -= np.float32(lr * dbj / np.sqrt(acc["bt"][j]))
        losses.append(total / len(pairs))
    w[0] = 0.0
    return EmbeddingModel(
        kind="glove",
        dim=spec.dim,
        vocab=vocab,
        input_vectors=w,
        output_vectors=wt,
        seed=spec.seed,
        epoch_losses=losses,
        biases=(b, bt),
    )


# -- subword bucket model ---------------------------------------------------


def subword_ngrams(word: str, nmin: int, nmax: int, bucket_count: int) -> list[int]:
    """Bucket ids of the word's character n-grams plus a whole-word entry.

    The word is wrapped in angle brackets; n-grams of length nmin..nmax
    are hashed with FNV-1a modulo bucket_count, in order of appearance,
    and the wrapped word itself is appended as one extra entry.
    """
    if not word:
        raise ValueError("word must be non-empty")
    wrapped = f"<{word}>"
    grams = []
    for n in range(nmin, nmax + 1):
        for start in range(0, len(wrapped) - n + 1):
            grams.append(wrapped[start : start + n])
    grams.append(wrapped)
    return [stable_hash(g) % bucket_count for g in grams]


def subword_pair_loss_and_grads(bucket_vecs, context_out, negative_outs):
    """Pair loss with the center represented as the mean of its bucket rows."""
    bucket_vecs = np.asarray(bucket_vecs)
    center = bucket_vecs.mean(axis=0)
    loss, d_center, d_context, d_negatives = sgns_pair_loss_and_grads(
        center, context_out, negative_outs
    )
    d_buckets = np.repeat(
        (d_center / bucket_vecs.shape[0])[None, :], bucket_vecs.shape[0], axis=0
    )
    return loss, d_buckets, d_context, d_negatives


def train_subword_sgns(docs, vocab: Vocabulary, spec: TrainSpec) -> EmbeddingModel:
    """Skip-gram over bucket-composed centers; distributes gradients to
    every contributing bucket row and materializes word vectors afterwards.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    rng = check_random_state(spec.seed)
    buckets = rng.uniform(
        -0.5 / spec.dim, 0.5 / spec.dim, size=(spec.bucket_count, spec.dim)
    ).astype(np.float32)
    vout = np.zeros((len(vocab) + 1, spec.dim), dtype=np.float32)
    model = EmbeddingModel(
        kind="subword",
        dim=spec.dim,
        vocab=vocab,
        input_vectors=np.zeros((len(vocab) + 1, spec.dim), dtype=np.float32),
        output_vectors=vout,
        bucket_vectors=buckets,
        nmin=spec.nmin,
        nmax=spec.nmax,
        bucket_count=spec.bucket_count,
        seed=spec.seed,
    )
    # bucket rows of each vocabulary id, hashed once for training and composition
    rows = {token_id: np.array(subword_ngrams(token, spec.nmin, spec.nmax, spec.bucket_count),
                               dtype=np.int64)
            for token, token_id in vocab.token_to_id.items()}
    lr = spec.learning_rate

    def step(center_id, context_id, negative_ids):
        center_rows = rows[center_id]
        loss, d_buckets, d_context, d_negatives = subword_pair_loss_and_grads(
            buckets[center_rows], vout[context_id], vout[negative_ids]
        )
        np.add.at(buckets, center_rows, (-lr * d_buckets).astype(buckets.dtype))
        _update_outputs(vout, context_id, negative_ids, d_context, d_negatives, lr)
        return loss

    _fit_skipgram(model, docs, spec, step)
    for token_id, center_rows in rows.items():
        model.input_vectors[token_id] = buckets[center_rows].mean(axis=0)
    return model


# -- queries ---------------------------------------------------------------


def vector(model: EmbeddingModel, word: str, oov_strategy: str = "error") -> np.ndarray:
    """Resolve a word to a vector, handling out-of-vocabulary queries.

    In-vocabulary words return their stored input row.  Unknown words are
    handled per strategy: 'error' raises; 'uniform' draws a per-word
    seeded vector from U(-0.5/dim, 0.5/dim); 'random_invocab' picks a
    seeded in-vocabulary word's vector; 'subword' composes bucket vectors
    (defined for any word, and exactly equal to the stored row for
    in-vocabulary words of a subword model).
    """
    if oov_strategy not in OOV_STRATEGIES:
        raise ValueError(f"unknown oov strategy {oov_strategy!r}")
    if oov_strategy == "subword" and model.kind != "subword":
        raise ValueError(f"subword strategy requires a subword model, got kind={model.kind!r}")
    if word in model.vocab:
        return model.input_vectors[model.vocab.token_to_id[word]].copy()
    if oov_strategy == "error":
        raise KeyError(f"word {word!r} is out of vocabulary")
    if oov_strategy == "uniform":
        rng = np.random.default_rng(derive_seed(model.seed, "oov-uniform", word))
        bound = 0.5 / model.dim
        return rng.uniform(-bound, bound, size=model.dim).astype(model.input_vectors.dtype)
    if oov_strategy == "random_invocab":
        rng = np.random.default_rng(derive_seed(model.seed, "oov-pick", word))
        pick = int(rng.integers(1, len(model.vocab) + 1))
        return model.input_vectors[pick].copy()
    ids = np.array(subword_ngrams(word, model.nmin, model.nmax, model.bucket_count), dtype=np.int64)
    return model.bucket_vectors[ids].mean(axis=0).astype(model.input_vectors.dtype)


def nearest_neighbors(model: EmbeddingModel, word: str, k: int, oov_strategy: Optional[str] = None):
    """The k most cosine-similar vocabulary words, best first.

    The query word itself is excluded; equal similarities are ordered
    lexicographically; zero-vector rows (undefined cosine) rank last.
    Asking for more neighbors than exist truncates the result.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if oov_strategy is None:
        oov_strategy = "subword" if model.kind == "subword" else "error"
    query = vector(model, word, oov_strategy=oov_strategy)
    qnorm = np.linalg.norm(query)
    table = model.input_vectors
    scored = []
    undefined = []
    for token, token_id in model.vocab.token_to_id.items():
        if token == word:
            continue
        row = table[token_id]
        norm = np.linalg.norm(row)
        if norm == 0.0 or qnorm == 0.0:
            undefined.append(token)
        else:
            cos = float(query @ row / (qnorm * norm))
            scored.append((token, cos))
    scored.sort(key=lambda item: (-item[1], item[0]))
    result = scored + [(token, 0.0) for token in sorted(undefined)]
    return result[:k]


# -- text vector file ---------------------------------------------------


def save_word_vectors(model: EmbeddingModel, path) -> None:
    """Write "V dim" then one "word v1 ... v_dim" line per real token."""
    vocab = model.vocab
    lines = [f"{len(vocab)} {model.dim}"]
    for token_id in range(1, len(vocab) + 1):
        token = vocab.id_to_token[token_id]
        values = " ".join(repr(float(v)) for v in model.input_vectors[token_id])
        lines.append(f"{token} {values}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_word_vectors(path, kind: str = "sgns", seed: int = 0) -> EmbeddingModel:
    """Read the text vector format; tolerates and skips an explicit pad row."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path} is empty")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path} has a malformed header {lines[0]!r}")
    count, dim = int(header[0]), int(header[1])
    tokens, rows = [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(" ")
        token, values = parts[0], parts[1:]
        if len(values) != dim:
            raise ValueError(f"row for {token!r} has {len(values)} values, expected {dim}")
        if token == "<pad>":
            continue
        tokens.append(token)
        rows.append(np.array([float(v) for v in values], dtype=np.float32))
    if len(tokens) not in (count, count - 1):
        raise ValueError(f"{path} header promises {count} rows, found {len(tokens)}")
    vocab = Vocabulary.from_tokens(tokens)
    table = np.zeros((len(tokens) + 1, dim), dtype=np.float32)
    for i, row in enumerate(rows):
        table[i + 1] = row
    return EmbeddingModel(kind=kind, dim=dim, vocab=vocab, input_vectors=table, seed=seed)


# -- estimator facades -------------------------------------------------------


class _EmbeddingEstimator:
    """fit(docs) -> self with a trained ``model_``; query helpers included.

    Every parameter but ``min_df`` is a TrainSpec field."""

    def fit(self, docs, y=None):
        params = self.get_params()
        vocab = build_vocabulary(docs, min_df=params.pop("min_df"))
        self.model_ = self._train(docs, vocab, TrainSpec(**params))
        return self

    def vector(self, word, oov_strategy: str = "error"):
        return vector(self.model_, word, oov_strategy)

    def nearest_neighbors(self, word, k, oov_strategy=None):
        return nearest_neighbors(self.model_, word, k, oov_strategy)


class SkipGramEmbedding(ParamsMixin, _EmbeddingEstimator):
    def __init__(
        self,
        dim=300,
        window=5,
        negatives=10,
        epochs=5,
        learning_rate=0.025,
        seed=0,
        min_df=1,
    ):
        self.dim = dim
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self.min_df = min_df

    def _train(self, docs, vocab, spec):
        return train_sgns(docs, vocab, spec)


class GloveEmbedding(ParamsMixin, _EmbeddingEstimator):
    def __init__(
        self,
        dim=300,
        window=5,
        epochs=20,
        learning_rate=0.05,
        x_max=100.0,
        alpha=0.75,
        seed=0,
        min_df=1,
    ):
        self.dim = dim
        self.window = window
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.x_max = x_max
        self.alpha = alpha
        self.seed = seed
        self.min_df = min_df

    def _train(self, docs, vocab, spec):
        return train_glove(build_cooccurrence(docs, spec.window, vocab), spec)


class SubwordEmbedding(ParamsMixin, _EmbeddingEstimator):
    def __init__(
        self,
        dim=300,
        window=5,
        negatives=10,
        epochs=5,
        learning_rate=0.025,
        nmin=3,
        nmax=6,
        bucket_count=2**16,
        seed=0,
        min_df=1,
    ):
        self.dim = dim
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.nmin = nmin
        self.nmax = nmax
        self.bucket_count = bucket_count
        self.seed = seed
        self.min_df = min_df

    def _train(self, docs, vocab, spec):
        return train_subword_sgns(docs, vocab, spec)
