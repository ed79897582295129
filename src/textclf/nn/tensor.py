"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps a float32/float64 ndarray plus an optional gradient of the
same shape.  Operations build a tape of parent links and backward
closures; calling ``backward()`` on a scalar result accumulates gradients
in deterministic topological order; an operation none of whose inputs
requires gradients records no tape.  Any non-finite value produced by an
operation raises immediately.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "ShapeError", "concat", "matmul", "stack"]


class ShapeError(ValueError):
    """Operand shapes are inconsistent for the requested operation."""


def _as_float_array(data, dtype=None):
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


_BASIC_INDEX = (int, np.integer, slice, type(Ellipsis), type(None))


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_float_array(data, dtype)
        if not np.all(np.isfinite(self.data)):
            raise FloatingPointError("tensor holds non-finite values")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # -- graph construction ------------------------------------------------

    @classmethod
    def _op(cls, data, parents, backward):
        """Create a graph node; drops the tape when no parent needs grads."""
        out = cls.__new__(cls)
        arr = np.asarray(data)
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError("operation produced non-finite values")
        out.data = arr
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out._parents = ()
            out._backward = None
        return out

    def _accumulate(self, grad: np.ndarray):
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- coercion ------------------------------------------------------------

    @staticmethod
    def _lift(value, dtype):
        if isinstance(value, Tensor):
            return value
        return Tensor(np.asarray(value, dtype=dtype))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other, self.data.dtype)
        def backward(g):
            self._accumulate(g)
            other._accumulate(g)
        return Tensor._op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor._lift(other, self.data.dtype)
        def backward(g):
            self._accumulate(g * other.data)
            other._accumulate(g * self.data)
        return Tensor._op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        def backward(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                parts = key if isinstance(key, tuple) else (key,)
                if all(isinstance(k, _BASIC_INDEX) and not isinstance(k, bool) for k in parts):
                    full[key] += g  # a basic index reaches each element at most once
                else:
                    np.add.at(full, key, g)
                self._accumulate(full)
        return Tensor._op(self.data[key], (self,), backward)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def backward(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape))
            else:
                ge = g if keepdims else np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(ge, self.data.shape))
        return Tensor._op(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        def backward(g):
            self._accumulate(g.reshape(old))
        return Tensor._op(self.data.reshape(shape), (self,), backward)

    # -- nonlinearities ----------------------------------------------------

    def relu(self):
        mask = self.data > 0
        def backward(g):
            self._accumulate(g * mask)
        return Tensor._op(np.where(mask, self.data, 0.0), (self,), backward)

    def sigmoid(self):
        x = self.data
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        def backward(g):
            self._accumulate(g * out * (1.0 - out))
        return Tensor._op(out, (self,), backward)

    def tanh(self):
        out = np.tanh(self.data)
        def backward(g):
            self._accumulate(g * (1.0 - out * out))
        return Tensor._op(out, (self,), backward)

    def maximum(self, other):
        """Elementwise maximum; ties route the gradient to ``self``."""
        other = Tensor._lift(other, self.data.dtype)
        take_self = self.data >= other.data
        def backward(g):
            self._accumulate(g * take_self)
            other._accumulate(g * ~take_self)
        return Tensor._op(np.where(take_self, self.data, other.data), (self, other), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 2-D operands or batched 3-D @ 2-D."""
    b = Tensor._lift(b, a.data.dtype)
    ad, bd = a.data, b.data
    if ad.ndim not in (2, 3) or bd.ndim != 2:
        raise ShapeError(f"matmul supports (B,)M,K @ K,N; got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"inner dimensions differ: {ad.shape} @ {bd.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ bd.T)
        if b.requires_grad:
            if ad.ndim == 2:
                b._accumulate(ad.T @ g)
            else:
                b._accumulate(np.einsum("bmk,bmn->kn", ad, g))

    return Tensor._op(ad @ bd, (a, b), backward)


def concat(tensors, axis=-1) -> Tensor:
    """Concatenate tensors along an axis; gradients split back out."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis if axis >= 0 else g.ndim + axis] = slice(start, stop)
            t._accumulate(g[tuple(index)])

    return Tensor._op(
        np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward
    )


def stack(tensors, axis=0) -> Tensor:
    """Stack equally shaped tensors along a new axis; gradients split back out."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack needs at least one tensor")

    def backward(g):
        for t, piece in zip(tensors, np.moveaxis(g, axis, 0)):
            t._accumulate(piece)

    return Tensor._op(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), backward)
