"""Differentiable layers: 1-D convolution, pooling, dense, softmax,
dropout, Gaussian noise, embedding lookup, and the gated recurrent cell
with optional convolutional state transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..base import check_random_state
from .tensor import ShapeError, Tensor, stack

__all__ = [
    "conv1d",
    "maxpool1d",
    "global_maxpool",
    "dense",
    "relu",
    "softmax",
    "dropout",
    "gaussian_noise",
    "embedding_lookup",
    "LstmParams",
    "LstmState",
    "init_lstm_params",
    "lstm_step",
    "lstm_forward",
    "lstm_recurrence",
]


def _batched(x: Tensor) -> tuple[np.ndarray, bool]:
    if x.data.ndim == 2:
        return x.data[None, ...], True
    if x.data.ndim == 3:
        return x.data, False
    raise ShapeError(f"expected (L,C) or (B,L,C), got {x.data.shape}")


def _pad(x: np.ndarray, width: int) -> np.ndarray:
    """Same padding of (N, L, C) along L: (width-1)//2 zero rows on the left,
    the rest on the right.  Width 1 returns ``x`` itself."""
    left = (width - 1) // 2
    return x if width == 1 else np.pad(x, ((0, 0), (left, width - 1 - left), (0, 0)))


def _tap_conv(x: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Same-padded convolution without a tape: x (N, L, C) by kernels w
    (K, C, F) into a contiguous ``out`` or a new (N, L, F).  One GEMM of the
    padded input against the kernels laid out as (C, K*F); output row l sums
    tap k of padded row l + k.  Width 1, the dense case, is the GEMM alone."""
    N, L, C = x.shape
    K, _, F = w.shape
    if K == 1:
        flat = None if out is None else out.reshape(N * L, F)
        return np.matmul(x.reshape(N * L, C), w[0], out=flat).reshape(N, L, F)
    taps = _pad(x, K).reshape(-1, C) @ w.transpose(1, 0, 2).reshape(C, K * F)
    taps = taps.reshape(N, L + K - 1, K, F)
    out = np.add(taps[:, :L, 0], taps[:, 1:L + 1, 1], out=out)
    for k in range(2, K):
        out += taps[:, k:k + L, k]
    return out


def _tap_conv_adjoint(g: np.ndarray, w: np.ndarray, x: Optional[np.ndarray] = None,
                      inputs: bool = True) -> tuple:
    """Adjoint of ``_tap_conv`` for the output gradient g (N, L, F): the
    kernel gradient if the input ``x`` is given and the input gradient if
    ``inputs``, else None.  g fills K shifted slabs of the tap gradient dP
    (N, L+K-1, K*F); then dw = xp^T dP and dxp = dP W^T, cropped to dx."""
    N, L, F = g.shape
    K, C, _ = w.shape
    dp = g
    if K > 1:
        dp = np.zeros((N, L + K - 1, K, F), dtype=g.dtype)
        for k in range(K):
            dp[:, k:k + L, k] = g
    dp = dp.reshape(-1, K * F)
    xp = None if x is None else _pad(x, K).reshape(-1, C)
    dw = None if xp is None else (xp.T @ dp).reshape(C, K, F).transpose(1, 0, 2)
    if not inputs:
        return dw, None
    dxp = (dp @ w.transpose(1, 0, 2).reshape(C, K * F).T).reshape(N, L + K - 1, C)
    return dw, dxp[:, (K - 1) // 2:][:, :L]


def conv1d(x: Tensor, kernels: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Same-padded 1-D convolution along the length axis.

    x: (L, C) or (B, L, C); kernels: (K, C, F); bias: (F,).  Output length
    equals input length; zero padding is split (K-1)//2 left, remainder
    right, so even widths pad one extra column on the right.
    """
    xd, single = _batched(x)
    if kernels.data.ndim != 3:
        raise ShapeError(f"kernels must be (K, C, F), got {kernels.data.shape}")
    K, C, F = kernels.data.shape
    if C != xd.shape[2]:
        raise ShapeError(f"kernel channels {C} do not match input channels {xd.shape[2]}")
    if bias is not None and bias.data.shape != (F,):
        raise ShapeError(f"bias must be ({F},), got {bias.data.shape}")
    out = _tap_conv(xd, kernels.data)
    if bias is not None:
        out = out + bias.data

    def backward(g):
        gb = g[None, ...] if single else g
        dw, dx = _tap_conv_adjoint(gb, kernels.data, xd if kernels.requires_grad else None,
                                   x.requires_grad)
        kernels._accumulate(dw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(gb.reshape(-1, F).sum(axis=0))
        if dx is not None:
            x._accumulate(dx[0] if single else dx)

    parents = (x, kernels) if bias is None else (x, kernels, bias)
    return Tensor._op(out[0] if single else out, parents, backward)


def maxpool1d(x: Tensor, pool: int) -> Tensor:
    """Max over non-overlapping windows of ``pool`` along the length axis.

    Output length is ceil(L / pool); a partial final window is allowed.
    The gradient routes to the first maximum position in each window.
    """
    if pool < 1:
        raise ValueError(f"pool must be >= 1, got {pool}")
    xd, single = _batched(x)
    B, L, F = xd.shape
    n = -(-L // pool)
    pad = n * pool - L
    xp = np.pad(xd, ((0, 0), (0, pad), (0, 0)), constant_values=-np.inf)
    windows = xp.reshape(B, n, pool, F)
    argmax = windows.argmax(axis=2)
    out = np.take_along_axis(windows, argmax[:, :, None, :], axis=2)[:, :, 0, :]

    def backward(g):
        gb = g[None, ...] if single else g
        dwin = np.zeros_like(windows)
        np.put_along_axis(dwin, argmax[:, :, None, :], gb[:, :, None, :], axis=2)
        dx = dwin.reshape(B, n * pool, F)[:, :L, :]
        x._accumulate(dx[0] if single else dx)

    return Tensor._op(out[0] if single else out, (x,), backward)


def global_maxpool(x: Tensor) -> Tensor:
    """Column-wise maximum over the whole length axis: (B, L, F) -> (B, F)."""
    xd, single = _batched(x)
    argmax = xd.argmax(axis=1)
    out = np.take_along_axis(xd, argmax[:, None, :], axis=1)[:, 0, :]

    def backward(g):
        gb = g[None, ...] if single else g
        dx = np.zeros_like(xd)
        np.put_along_axis(dx, argmax[:, None, :], gb[:, None, :], axis=1)
        x._accumulate(dx[0] if single else dx)

    return Tensor._op(out[0] if single else out, (x,), backward)


def dense(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map x @ weight + bias."""
    if x.data.ndim == 1:
        out = x.reshape(1, -1) @ weight
        out = (out + bias) if bias is not None else out
        return out.reshape(weight.data.shape[1])
    out = x @ weight
    return (out + bias) if bias is not None else out


def relu(x: Tensor) -> Tensor:
    return x.relu()


def softmax(x: Tensor) -> Tensor:
    """Row-stabilized softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        x._accumulate((g - dot) * out)

    return Tensor._op(out, (x,), backward)


def dropout(x: Tensor, rate: float, train_mode: bool, rng=None) -> Tensor:
    """Inverted dropout: identity in eval mode, survivors scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train_mode or rate == 0.0:
        return x
    rng = check_random_state(rng)
    mask = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)

    def backward(g):
        x._accumulate(g * mask)

    return Tensor._op(x.data * mask, (x,), backward)


def gaussian_noise(x: Tensor, sigma: float, train_mode: bool, rng=None) -> Tensor:
    """Additive zero-mean Gaussian noise in train mode; identity in eval."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if not train_mode or sigma == 0.0:
        return x
    rng = check_random_state(rng)
    noise = rng.standard_normal(x.data.shape, dtype=x.data.dtype) * sigma

    def backward(g):
        x._accumulate(g)

    return Tensor._op(x.data + noise, (x,), backward)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of (V, D) ``table`` by integer ids of any shape."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.data.shape[0]):
        raise ShapeError("embedding ids out of range")

    def backward(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
            table._accumulate(full)

    return Tensor._op(table.data[ids], (table,), backward)


_GATES = ("i", "f", "c", "o")


@dataclass
class LstmParams:
    """Per-gate input/state transforms, biases, and optional peephole weights.

    ``mode`` selects how the transforms apply: 'dense' uses full matrix
    products (the width-1 convolution special case); 'conv' uses
    same-padded 1-D convolutions of one shared odd width, so the state
    keeps a length axis.
    """

    w_x: dict
    w_h: dict
    b: dict
    w_c: Optional[dict] = None
    mode: str = "dense"

    @property
    def peephole(self) -> bool:
        return self.w_c is not None

    def stacked(self) -> tuple:
        """Input weights (K*C, 4U), state weights (K*U, 4U) and biases (4U,),
        each with the gates side by side in the order i, f, c, o."""
        units = self.b["i"].data.shape[0]
        return tuple(np.concatenate([table[g].data.reshape(-1, units) for g in _GATES], axis=1)
                     for table in (self.w_x, self.w_h, self.b))

    def tensors(self) -> dict:
        out = {f"{name}{gate}": table[gate] for gate in _GATES
               for name, table in (("w_x", self.w_x), ("w_h", self.w_h), ("b_", self.b))}
        out.update({f"w_c{gate}": t for gate, t in (self.w_c or {}).items()})
        return out


@dataclass
class LstmState:
    hidden: Tensor
    cell: Tensor


def init_lstm_params(
    input_dim: int,
    units: int,
    mode: str = "dense",
    kernel_width: int = 3,
    seq_len: Optional[int] = None,
    peephole: bool = False,
    rng=None,
    dtype=np.float32,
) -> LstmParams:
    rng = check_random_state(rng)
    if mode not in ("dense", "conv"):
        raise ValueError(f"mode must be 'dense' or 'conv', got {mode!r}")
    if mode == "conv":
        if kernel_width % 2 != 1:
            raise ValueError(f"conv mode needs an odd kernel width, got {kernel_width}")
        if peephole and seq_len is None:
            raise ValueError("conv mode with peepholes needs seq_len")

    def glorot(shape, fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)

    # dense weights are the width-1 kernels without their tap axis
    width, taps = (1, ()) if mode == "dense" else (kernel_width, (kernel_width,))
    w_x, w_h, b = {}, {}, {}
    for gate in _GATES:
        w_x[gate] = glorot(taps + (input_dim, units), width * input_dim, units)
        w_h[gate] = glorot(taps + (units, units), width * units, units)
        b[gate] = Tensor(np.zeros(units, dtype=dtype), requires_grad=True)
    w_c = None
    if peephole:
        shape = (units,) if mode == "dense" else (seq_len, units)
        w_c = {g: Tensor(np.zeros(shape, dtype=dtype), requires_grad=True) for g in ("i", "f", "o")}
    return LstmParams(w_x=w_x, w_h=w_h, b=b, w_c=w_c, mode=mode)


def lstm_step(x: Tensor, state: LstmState, params: LstmParams):
    """One recurrent update.

    Gates are sigmoids of input/state transforms (plus peephole products
    with the cell when enabled); the new cell blends the previous cell and
    the tanh candidate, and the hidden output is the output gate times the
    tanh of the new cell.  Returns (new_state, gate_dict).  This per-step
    tape is the reference the fused ``lstm_forward`` is tested against.
    """
    h, c = state.hidden, state.cell
    transform = dense if params.mode == "dense" else conv1d
    pre = {g: transform(x, params.w_x[g]) + transform(h, params.w_h[g]) + params.b[g]
           for g in _GATES}
    for g in ("i", "f") if params.peephole else ():
        pre[g] = pre[g] + params.w_c[g] * c
    i, f = pre["i"].sigmoid(), pre["f"].sigmoid()
    c_new = f * c + i * pre["c"].tanh()
    if params.peephole:
        pre["o"] = pre["o"] + params.w_c["o"] * c_new
    o = pre["o"].sigmoid()
    return LstmState(hidden=o * c_new.tanh(), cell=c_new), {"i": i, "f": f, "o": o}


def lstm_forward(xs, params: LstmParams, state: Optional[LstmState] = None):
    """Run the recurrence over a sequence; returns (hidden_states, final_state).

    ``xs`` is either one Tensor holding a batched sequence, (B, T, D) in
    dense mode or (B, T, L, C) in conv mode, or a list of step inputs each
    shaped as one ``lstm_step`` input.  Hidden states come back in the same
    form: a (B, T, ...) Tensor or a list of step Tensors.  The initial
    state defaults to zeros.
    """
    step_ndim = 1 if params.mode == "dense" else 2
    if isinstance(xs, Tensor):
        if xs.data.ndim != step_ndim + 2:
            raise ShapeError(f"{params.mode} sequences are {step_ndim + 2}-D, got {xs.data.shape}")
        hc = _lstm_sequence(xs, params, state)
        return hc[0], LstmState(hidden=hc[0, :, -1], cell=hc[1, :, -1])
    xs = list(xs)
    if not xs:
        raise ValueError("lstm_forward needs at least one step input")
    unbatched = xs[0].data.ndim == step_ndim
    seq = stack(xs, axis=0 if unbatched else 1)
    hc = _lstm_sequence(seq.reshape((1,) + seq.shape) if unbatched else seq, params, state)
    lead = (0,) if unbatched else (slice(None),)
    final = LstmState(hidden=hc[(0, *lead, -1)], cell=hc[(1, *lead, -1)])
    return [hc[(0, *lead, t)] for t in range(len(xs))], final


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.tanh(0.5 * x) + 0.5


def lstm_recurrence(z: np.ndarray, params: LstmParams, initial=None):
    """The gate recurrence without a tape.  ``z`` (T, B, S, 4U) holds each
    step's input transform plus bias, gates stacked as in ``stacked``, and
    receives the state transforms in place; ``initial`` is an optional
    (hidden, cell) pair of (B, S, U).  Returns the states (2, T + 1, B, S, U),
    index 0 the initial one, and the gate activations (T, B, S, 4U)."""
    T, B, S, _ = z.shape
    U = params.b["i"].data.shape[0]
    wh = params.stacked()[1].reshape(-1, U, 4 * U)
    peep = [params.w_c[g].data for g in ("i", "f", "o")] if params.peephole else None
    acts = np.empty_like(z)
    states = np.zeros((2, T + 1, B, S, U), dtype=z.dtype)
    if initial is not None:
        states[:, 0] = initial
    recurrent = np.empty((B, S, 4 * U), dtype=z.dtype)
    # step t reads states[:, t] and writes states[:, t + 1], in place
    for t in range(T):
        c, zt, at = states[1, t], z[t], acts[t]
        zt += _tap_conv(states[0, t], wh, out=recurrent)
        i, f, g, o = (at[..., k * U:(k + 1) * U] for k in range(4))
        if peep is not None:
            zt[..., :U] += peep[0] * c
            zt[..., U:2 * U] += peep[1] * c
        # sigmoid(x) = 0.5 * tanh(0.5 * x) + 0.5 over the whole contiguous
        # step, then tanh over the candidate slice: numpy's loops run at
        # half speed or less on the strided gate slices
        np.multiply(zt, 0.5, out=at)
        np.tanh(at, out=at)
        at *= 0.5
        at += 0.5
        np.tanh(zt[..., 2 * U:3 * U], out=g)
        cell, hidden = states[1, t + 1], states[0, t + 1]
        np.multiply(f, c, out=cell)
        cell += i * g
        if peep is not None:
            zo = zt[..., 3 * U:]
            zo += peep[2] * cell
            o[...] = _sigmoid(zo)
        np.tanh(cell, out=hidden)
        hidden *= o
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("operation produced non-finite values")
    return states, acts


def _lstm_sequence(x: Tensor, params: LstmParams, state: Optional[LstmState]) -> Tensor:
    """One tape node for the whole recurrence over (B, T, *step_shape).

    Returns the hidden and cell states of every step stacked as
    (2, B, T, *state_shape).  The input transforms of all steps are one
    convolution against the per-gate weights stacked to (K, C, 4U); each
    step of ``lstm_recurrence`` adds one convolution of its state by the
    (K, U, 4U) stack, and backward is hand-written BPTT through their
    adjoints.  Dense mode is the width-1 convolution over a length-1 axis,
    so both modes share the convolution core of ``conv1d``.
    """
    dense_mode = params.mode == "dense"
    xd = x.data[:, :, None, :] if dense_mode else x.data
    B, T, S, C = xd.shape
    U = params.b["i"].data.shape[0]
    width = 1 if dense_mode else params.w_x["i"].data.shape[0]
    wx, wh, bias = params.stacked()
    if wx.shape[0] != width * C:
        raise ShapeError(f"step input {xd.shape[2:]} does not fit weights {params.w_x['i'].shape}")
    wx, wh = wx.reshape(width, C, 4 * U), wh.reshape(width, U, 4 * U)
    peep = [params.w_c[g].data for g in ("i", "f", "o")] if params.peephole else None

    xt = np.ascontiguousarray(xd.transpose(1, 0, 2, 3)).reshape(T * B, S, C)
    z = (_tap_conv(xt, wx) + bias).reshape(T, B, S, 4 * U)
    initial = None if state is None else [
        given.data.reshape(B, S, U) for given in (state.hidden, state.cell)]
    states, acts = lstm_recurrence(z, params, initial)
    out = states[:, 1:].transpose(0, 2, 1, 3, 4)

    def backward(grad):
        grad = grad.reshape(2, B, T, S, U)
        dz = np.empty_like(acts)
        dh = np.zeros((B, S, U), dtype=acts.dtype)
        dc = np.zeros_like(dh)
        for t in reversed(range(T)):
            i, f, g, o = np.split(acts[t], 4, axis=-1)
            dzi, dzf, dzg, dzo = np.split(dz[t], 4, axis=-1)
            tanh_c = np.tanh(states[1, t + 1])
            dh = dh + grad[0, :, t]
            dzo[...] = dh * tanh_c * o * (1.0 - o)
            dc = dc + grad[1, :, t] + dh * o * (1.0 - tanh_c * tanh_c)
            if peep is not None:
                dc += dzo * peep[2]
            dzi[...] = dc * g * i * (1.0 - i)
            dzf[...] = dc * states[1, t] * f * (1.0 - f)
            dzg[...] = dc * i * (1.0 - g * g)
            dc = dc * f
            if peep is not None:
                dc += dzi * peep[0] + dzf * peep[1]
            dh = _tap_conv_adjoint(dz[t], wh)[1]
        dz_seq = dz.reshape(T * B, S, 4 * U)
        dwh = _tap_conv_adjoint(dz_seq, wh, states[0, :T].reshape(T * B, S, U), inputs=False)[0]
        dwx, dx = _tap_conv_adjoint(dz_seq, wx, xt, x.requires_grad)
        blocks = (dwx, dwh, dz_seq.reshape(-1, 4 * U).sum(axis=0))
        for table, block in zip((params.w_x, params.w_h, params.b), blocks):
            for gate, piece in zip(_GATES, np.split(block, 4, axis=-1)):
                table[gate]._accumulate(piece.reshape(table[gate].data.shape))
        if peep is not None:
            dzi, dzf, _, dzo = np.split(dz, 4, axis=-1)
            cells = (states[1, :T], states[1, :T], states[1, 1:])
            for gate, d, cell in zip(("i", "f", "o"), (dzi, dzf, dzo), cells):
                params.w_c[gate]._accumulate((d * cell).sum(axis=0))
        if state is not None:
            state.hidden._accumulate(dh.reshape(state.hidden.data.shape))
            state.cell._accumulate(dc.reshape(state.cell.data.shape))
        if dx is not None:
            x._accumulate(dx.reshape(T, B, S, C).transpose(1, 0, 2, 3).reshape(x.data.shape))

    parents = [x, *params.tensors().values()]
    if state is not None:
        parents += [state.hidden, state.cell]
    return Tensor._op(out[..., 0, :] if dense_mode else out, tuple(parents), backward)
