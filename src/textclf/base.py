"""Shared plumbing: estimator parameter handling, input checks, seeding."""

from __future__ import annotations

import inspect

import numpy as np

__all__ = [
    "ConfigurationError",
    "ParamsMixin",
    "check_random_state",
    "stable_hash",
    "derive_seed",
]


class ConfigurationError(Exception):
    """Raised when a configuration value or resource is unusable."""


class ParamsMixin:
    """get_params/set_params following the scikit-learn convention.

    Subclasses must store every ``__init__`` argument verbatim on an
    attribute of the same name.  That makes instances clonable and lets
    them participate in generic hyperparameter search.
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
        ]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def clone(self):
        return type(self)(**self.get_params())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({args})"


def check_random_state(seed):
    """Return a numpy Generator for ``seed`` (int, Generator, or None)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def stable_hash(text: str) -> int:
    """32-bit FNV-1a hash of ``text`` (UTF-8). Stable across processes."""
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


def derive_seed(base_seed: int, *parts) -> int:
    """Deterministically derive a sub-seed from a base seed and labels."""
    h = stable_hash("|".join(str(p) for p in parts))
    return (int(base_seed) * 2654435761 + h) % (2**32)
