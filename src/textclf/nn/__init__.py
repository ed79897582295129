"""Minimal reverse-mode differentiable numeric core."""

from .tensor import Tensor, ShapeError, concat, matmul
from .layers import (
    conv1d,
    maxpool1d,
    global_maxpool,
    dense,
    relu,
    softmax,
    dropout,
    gaussian_noise,
    embedding_lookup,
    LstmParams,
    LstmState,
    init_lstm_params,
    lstm_step,
    lstm_forward,
    lstm_recurrence,
)
from .losses import cross_entropy_loss, softmax_cross_entropy, one_hot
from .optim import Adagrad, AdagradState, adagrad_update
from .gradcheck import finite_difference_check
from .checkpoint import save_checkpoint, load_checkpoint, FORMAT_VERSION

__all__ = [
    "Tensor",
    "ShapeError",
    "concat",
    "matmul",
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
    "cross_entropy_loss",
    "softmax_cross_entropy",
    "one_hot",
    "Adagrad",
    "AdagradState",
    "adagrad_update",
    "finite_difference_check",
    "save_checkpoint",
    "load_checkpoint",
    "FORMAT_VERSION",
]
