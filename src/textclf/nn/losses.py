"""Cross-entropy losses: over predicted probability distributions, and
fused with the softmax over raw class scores."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor

__all__ = ["cross_entropy_loss", "softmax_cross_entropy", "one_hot"]

_CLAMP = 1e-12


def one_hot(labels, n_classes: int, dtype=np.float32) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, n_classes), dtype=dtype)
    out[np.arange(labels.size), labels] = 1.0
    return out


def cross_entropy_loss(pred: Tensor, target: np.ndarray, kind: str = "categorical") -> Tensor:
    """Mean cross-entropy between predicted probabilities and targets.

    categorical: pred is (B, C) (or (C,)) of class probabilities, target
    one-hot of the same shape.  binary: pred is (B,) probabilities of the
    positive class, target in {0, 1}.  Probabilities are clamped to
    [1e-12, 1 - 1e-12] before the logarithm.
    """
    target = np.asarray(target, dtype=pred.data.dtype)
    if kind == "categorical":
        if pred.data.shape != target.shape:
            raise ShapeError(
                f"prediction shape {pred.data.shape} != target shape {target.shape}"
            )
        batch = pred.data.shape[0] if pred.data.ndim == 2 else 1
        p = np.clip(pred.data, _CLAMP, 1.0 - _CLAMP)
        value = -(target * np.log(p)).sum() / batch

        def backward(g):
            inside = (pred.data > _CLAMP) & (pred.data < 1.0 - _CLAMP)
            dp = np.where(inside, -target / p, 0.0) * (g / batch)
            pred._accumulate(dp)

        return Tensor._op(np.asarray(value, dtype=pred.data.dtype), (pred,), backward)

    if kind == "binary":
        if pred.data.shape != target.shape:
            raise ShapeError(
                f"prediction shape {pred.data.shape} != target shape {target.shape}"
            )
        batch = pred.data.size if pred.data.ndim else 1
        p = np.clip(pred.data, _CLAMP, 1.0 - _CLAMP)
        value = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)).sum() / batch

        def backward(g):
            inside = (pred.data > _CLAMP) & (pred.data < 1.0 - _CLAMP)
            dp = np.where(inside, -(target / p) + (1.0 - target) / (1.0 - p), 0.0)
            pred._accumulate(dp * (g / batch))

        return Tensor._op(np.asarray(value, dtype=pred.data.dtype), (pred,), backward)

    raise ValueError(f"kind must be 'categorical' or 'binary', got {kind!r}")


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer class labels under softmax(logits).

    logits: (B, C) or (C,) raw scores; labels: (B,) class indices (or one
    index).  The loss is computed from the log-softmax, so a confidently
    wrong row keeps the gradient (softmax(logits) - one_hot(labels)) / B
    where clamped probabilities would give zero.  With two classes it is
    also the binary cross-entropy of the positive-class probability.
    """
    z = logits.data
    rows = z.reshape(-1, z.shape[-1])
    batch, n_classes = rows.shape
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape != (batch,):
        raise ShapeError(f"{labels.size} labels for {batch} rows of scores")
    if batch and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    picked = (np.arange(batch), labels)
    shifted = rows - rows.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    value = -log_probs[picked].sum() / batch

    def backward(g):
        dz = np.exp(log_probs)
        dz[picked] -= 1.0
        logits._accumulate((dz * (g / batch)).reshape(z.shape))

    return Tensor._op(np.asarray(value, dtype=z.dtype), (logits,), backward)
