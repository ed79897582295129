"""Independent computations the benchmark checks the program against.

None of these call textclf; each is written from the method's definition.
"""

from __future__ import annotations

import math

import numpy as np


# -- ConvLSTM eval-mode forward ------------------------------------------------


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _same_conv(x, kernels, bias):
    """Same-padded 1-D convolution: (B, L, C) with (K, C, F) -> (B, L, F).

    Padding is (K-1)//2 zeros on the left and the rest on the right.
    """
    k = kernels.shape[0]
    left = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (left, k - 1 - left), (0, 0)))
    length = x.shape[1]
    out = np.zeros((x.shape[0], length, kernels.shape[2]))
    for offset in range(k):
        out += xp[:, offset:offset + length, :] @ kernels[offset]
    return out + bias


def _ceil_maxpool(x, pool):
    """Max over windows of ``pool`` along the length axis, last one partial."""
    windows = [x[:, lo:lo + pool, :].max(axis=1) for lo in range(0, x.shape[1], pool)]
    return np.stack(windows, axis=1)


def convlstm_forward(arrays: dict, ids: np.ndarray, kernel_sizes, pool: int) -> np.ndarray:
    """Class distributions of a dense-mode ConvLSTM in eval mode, in float64.

    ``arrays`` are the network's weights by their checkpoint names.  Each
    conv channel is gather -> same conv -> ReLU -> ceil max-pool -> global
    max; the LSTM branch is the final hidden state of the gate equations
    run over every position; the concatenation feeds dense + softmax.
    """
    a = {name: np.asarray(v, dtype=np.float64) for name, v in arrays.items()}
    emb = a["embedding"][np.asarray(ids)]
    features = []
    for idx, k in enumerate(kernel_sizes):
        conv = _same_conv(emb, a[f"conv{idx}_k{k}_kernels"], a[f"conv{idx}_k{k}_bias"])
        features.append(_ceil_maxpool(np.maximum(conv, 0.0), pool).max(axis=1))
    units = a["lstm_b_i"].shape[0]
    h = np.zeros((emb.shape[0], units))
    c = np.zeros_like(h)

    def gate(name, x):
        return x @ a[f"lstm_w_x{name}"] + h @ a[f"lstm_w_h{name}"] + a[f"lstm_b_{name}"]

    for t in range(emb.shape[1]):
        x = emb[:, t, :]
        i, f = _sigmoid(gate("i", x)), _sigmoid(gate("f", x))
        g, o = np.tanh(gate("c", x)), _sigmoid(gate("o", x))
        c = f * c + i * g
        h = o * np.tanh(c)
    features.append(h)
    logits = np.concatenate(features, axis=1) @ a["head_w"] + a["head_b"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# -- embeddings ------------------------------------------------------------------


def cooccurrence_counts(encoded_docs, window: int) -> dict:
    """(center id, context id) -> count of context within +-window."""
    counts: dict = {}
    for ids in encoded_docs:
        n = len(ids)
        for t in range(n):
            for j in range(max(0, t - window), min(n, t + window + 1)):
                if j != t:
                    key = (ids[t], ids[j])
                    counts[key] = counts.get(key, 0) + 1
    return counts


def expected_pairs(doc_lengths, window: int) -> float:
    """Expected skip-gram pairs per epoch under a window drawn from 1..window.

    Per position the context reaches b tokens each side, b uniform.
    """
    total = 0
    for n in doc_lengths:
        for t in range(n):
            for b in range(1, window + 1):
                total += min(n, t + b + 1) - max(0, t - b) - 1
    return total / window


def fnv1a(text: str) -> int:
    """32-bit FNV-1a over the UTF-8 bytes."""
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x01000193) % 2**32
    return h


def subword_buckets(word: str, nmin: int, nmax: int, bucket_count: int) -> list[int]:
    """Buckets of the n-grams of ``<word>`` (n = nmin..nmax) plus ``<word>``."""
    wrapped = f"<{word}>"
    grams = [wrapped[s:s + n] for n in range(nmin, nmax + 1)
             for s in range(len(wrapped) - n + 1)]
    return [fnv1a(g) % bucket_count for g in grams + [wrapped]]


def sgns_initial_loss(negatives: int) -> float:
    """Pair loss when the output table is zero: every score is 0."""
    return (negatives + 1) * math.log(2.0)


def class_margin(vectors: dict, groups: list) -> float:
    """Mean within-group cosine minus mean cross-group cosine."""
    unit = {w: v / np.linalg.norm(v) for w, v in vectors.items()}
    within, cross = [], []
    for gi, group in enumerate(groups):
        for gj, other in enumerate(groups):
            if gj < gi:
                continue
            for a in group:
                for b in other:
                    if gi == gj and a >= b:
                        continue
                    (within if gi == gj else cross).append(float(unit[a] @ unit[b]))
    return float(np.mean(within) - np.mean(cross))


# -- pipeline and evaluation -------------------------------------------------


def prune_min_df(docs, min_df: int) -> list:
    """Drop tokens that occur in fewer than ``min_df`` documents."""
    df: dict = {}
    for tokens in docs:
        for token in set(tokens):
            df[token] = df.get(token, 0) + 1
    return [tuple(t for t in tokens if df[t] >= min_df) for tokens in docs]


def macro_f1(gold, pred, classes) -> float:
    """Unweighted mean of per-class F1; an undefined ratio counts as 0."""
    scores = []
    for c in classes:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        predicted = sum(1 for p in pred if p == c)
        actual = sum(1 for g in gold if g == c)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        scores.append(2 * precision * recall / (precision + recall) if tp else 0.0)
    return sum(scores) / len(scores)
