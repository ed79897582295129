"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's own code paths: metrics are
re-derived by direct enumeration, gradients by central differences, and
combinatorial answers by exhaustive search.
"""

import numpy as np


def numeric_grads(loss_fn, arrays, eps=1e-6):
    """Central-difference gradients of a plain-numpy scalar function.

    ``loss_fn(*arrays) -> float``; returns one gradient array per input.
    """
    grads = []
    for a in arrays:
        a = np.asarray(a, dtype=np.float64)
        grad = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn(*arrays)
            flat[i] = orig - eps
            f_minus = loss_fn(*arrays)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2 * eps)
        grads.append(grad)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.asarray(a, dtype=np.float64).reshape(-1)
        n = np.asarray(n, dtype=np.float64).reshape(-1)
        for ai, ni in zip(a, n):
            worst = max(worst, abs(ai - ni) / max(abs(ai), abs(ni), 1.0))
    return worst


def brute_macro_prf(gold, pred, classes):
    per_class = []
    for c in classes:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    arr = np.array(per_class)
    return arr[:, 0].mean(), arr[:, 1].mean(), arr[:, 2].mean(), per_class


def brute_mcc(gold, pred):
    """Direct formula on {0,1} labels, positive class = 1."""
    tp = sum(1 for g, p in zip(gold, pred) if g == 1 and p == 1)
    tn = sum(1 for g, p in zip(gold, pred) if g == 0 and p == 0)
    fp = sum(1 for g, p in zip(gold, pred) if g == 0 and p == 1)
    fn = sum(1 for g, p in zip(gold, pred) if g == 1 and p == 0)
    denom = np.sqrt(float((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)))
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / denom


def brute_auc(scores, labels):
    """Pairwise enumeration: P(random positive outscores random negative),
    ties counting one half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_segment(token, lexicon):
    """Greedy longest-prefix segmentation by explicit exhaustive scan."""
    remainder = token
    parts = []
    while remainder:
        candidates = [w for w in lexicon if remainder.startswith(w)]
        if not candidates:
            return None
        best = max(candidates, key=len)
        parts.append(best)
        remainder = remainder[len(best):]
    return parts


def brute_longest_suffix_stem(token, rules):
    """Longest matching suffix by scanning every rule."""
    best = None
    for suffix, replacement in rules:
        if len(token) > len(suffix) and token.endswith(suffix):
            if best is None or len(suffix) > len(best[0]):
                best = (suffix, replacement)
    if best is None:
        return token
    return token[: -len(best[0])] + best[1]


def brute_window_pairs(tokens, window):
    """Every ordered co-occurring pair within the window, by enumeration."""
    pairs = {}
    for t, center in enumerate(tokens):
        for j, other in enumerate(tokens):
            if j != t and abs(j - t) <= window:
                pairs[(center, other)] = pairs.get((center, other), 0) + 1
    return pairs


def leastsq_slope(x, y):
    """Closed-form simple regression slope, computed independently."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xm, ym = x.mean(), y.mean()
    return float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())


def brute_cosine_ranking(query, table, names):
    """Exhaustive cosine ranking, ties broken lexicographically."""
    rows = []
    qn = np.linalg.norm(query)
    for name, row in zip(names, table):
        rn = np.linalg.norm(row)
        if rn == 0 or qn == 0:
            continue
        rows.append((name, float(query @ row / (qn * rn))))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


def brute_fasttext_fit(docs, labels, vocab, *, dim, epochs, learning_rate, nmin, nmax,
                       bucket_count, use_subword, seed, **_):
    """``FastTextClassifier.fit`` with one Adagrad update per feature occurrence.

    Takes the classifier's ``get_params()`` and the fitted vocabulary;
    returns (lookup, projection, epoch_losses).
    """
    from textclf.base import check_random_state, derive_seed
    from textclf.embeddings import subword_ngrams
    from textclf.model import fasttext_doc_loss_and_grads

    def feature_ids(tokens):
        ids = []
        offset = len(vocab) + 1
        for token in tokens:
            wid = vocab.token_to_id.get(token)
            if wid is not None:
                ids.append(wid)
            if use_subword:
                ids.extend(offset + b for b in subword_ngrams(token, nmin, nmax, bucket_count))
        if not ids:
            ids = [0]
        return np.array(ids, dtype=np.int64)

    classes = sorted(set(labels))
    rng = check_random_state(seed)
    n_rows = len(vocab) + 1 + (bucket_count if use_subword else 0)
    lookup = rng.uniform(-1.0 / dim, 1.0 / dim, size=(n_rows, dim)).astype(np.float64)
    lookup[0] = 0.0
    projection = np.zeros((dim, len(classes)), dtype=np.float64)
    acc_lookup = np.full_like(lookup, 1e-8)
    acc_proj = np.full_like(projection, 1e-8)
    encoded = [feature_ids(d) for d in docs]
    y = np.array([classes.index(l) for l in labels])
    order_rng = check_random_state(derive_seed(seed, "order"))
    lr = learning_rate
    epoch_losses = []
    for _ in range(epochs):
        order = order_rng.permutation(len(docs))
        total = 0.0
        for i in order:
            ids = encoded[i]
            loss, d_rows, d_proj = fasttext_doc_loss_and_grads(lookup[ids], projection, y[i])
            total += loss
            acc_proj += d_proj * d_proj
            projection -= lr * d_proj / np.sqrt(acc_proj)
            sq = d_rows[0] * d_rows[0]
            for row in ids:
                acc_lookup[row] += sq
                lookup[row] -= lr * d_rows[0] / np.sqrt(acc_lookup[row])
        epoch_losses.append(total / len(docs))
    return lookup, projection, epoch_losses


def _im2col(x: np.ndarray, width: int) -> np.ndarray:
    """Same-padded windows: (N, L, C) -> (N, L, width*C).

    Zero padding is split (width-1)//2 left, remainder right.  Width 1 is
    the dense case and returns ``x`` itself.
    """
    if width == 1:
        return x
    n, length, channels = x.shape
    left = (width - 1) // 2
    xp = np.pad(x, ((0, 0), (left, width - 1 - left), (0, 0)))
    s0, s1, s2 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, length, width, channels), strides=(s0, s1, s1, s2)
    )
    return windows.reshape(n, length, width * channels).copy()


def _col2im(dcols: np.ndarray, width: int) -> np.ndarray:
    """Adjoint of ``_im2col``: (N, L, width*C) -> (N, L, C)."""
    if width == 1:
        return dcols
    n, length, wc = dcols.shape
    left = (width - 1) // 2
    d = dcols.reshape(n, length, width, wc // width)
    dxp = np.zeros((n, length + width - 1, wc // width), dtype=dcols.dtype)
    for k in range(width):
        dxp[:, k : k + length, :] += d[:, :, k, :]
    return dxp[:, left : left + length, :]


def im2col_conv1d(x, kernels, bias, g):
    """Same-padded 1-D convolution by unrolled windows (Chellapilla et al.,
    2006), the layout ``nn.conv1d`` used before its tap projection.

    x (L, C) or (B, L, C), kernels (K, C, F), bias (F,) or None, and the
    output gradient g shaped as the output.  Returns (out, d_kernels,
    d_bias, d_x); d_bias is None without a bias.
    """
    single = x.ndim == 2
    xd = x[None, ...] if single else x
    B, L, C = xd.shape
    K, Ck, F = kernels.shape
    cols = _im2col(xd, K).reshape(B * L, K * C)
    wf = kernels.reshape(K * C, F)
    out = (cols @ wf).reshape(B, L, F)
    if bias is not None:
        out = out + bias
    if single:
        out = out[0]

    gb = g.reshape(B * L, F)
    d_kernels = (cols.T @ gb).reshape(K, C, F)
    d_bias = None if bias is None else gb.sum(axis=0)
    dx = _col2im((gb @ wf.T).reshape(B, L, K * C), K)
    return out, d_kernels, d_bias, dx[0] if single else dx
