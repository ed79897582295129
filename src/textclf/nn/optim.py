"""Adaptive gradient optimizer with per-parameter accumulated curvature."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError

__all__ = ["AdagradState", "adagrad_update", "Adagrad"]


class AdagradState:
    """Accumulated squared gradients for one parameter array."""

    def __init__(self, shape, learning_rate: float, epsilon: float = 1e-8, dtype=np.float32):
        self.accumulator = np.zeros(shape, dtype=dtype)
        self.learning_rate = float(learning_rate)
        self.epsilon = float(epsilon)


def adagrad_update(param: np.ndarray, grad: np.ndarray, state: AdagradState) -> np.ndarray:
    """In place: acc += g^2; param -= lr * g / (sqrt(acc) + eps)."""
    if param.shape != grad.shape or param.shape != state.accumulator.shape:
        raise ShapeError(
            f"param {param.shape}, grad {grad.shape}, accumulator {state.accumulator.shape} differ"
        )
    state.accumulator += grad * grad
    param -= state.learning_rate * grad / (np.sqrt(state.accumulator) + state.epsilon)
    return param


class Adagrad:
    """Optimizer over named Tensors; skips parameters with no gradient."""

    def __init__(self, params: dict, learning_rate: float = 0.05, epsilon: float = 1e-8):
        self.params = dict(params)
        self.states = {
            name: AdagradState(t.data.shape, learning_rate, epsilon, dtype=t.data.dtype)
            for name, t in self.params.items()
        }

    @property
    def learning_rate(self):
        return next(iter(self.states.values())).learning_rate if self.states else None

    def step(self):
        for name, tensor in self.params.items():
            if tensor.grad is not None:
                adagrad_update(tensor.data, tensor.grad, self.states[name])

    def zero_grad(self):
        for tensor in self.params.values():
            tensor.grad = None

