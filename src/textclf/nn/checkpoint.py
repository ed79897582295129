"""Parameter checkpoints: raw little-endian arrays, each in its own dtype
(float32, float64, int32 or int64), stored back to back in ``weights.bin``,
plus a JSON manifest recording format version, layer names, dtypes, shapes,
offsets, and seeds.  Loading refuses a manifest that does not describe the
blob exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint", "FORMAT_VERSION"]

FORMAT_VERSION = 2
DTYPES = ("<f4", "<f8", "<i4", "<i8")


def save_checkpoint(directory, arrays: dict, meta: dict | None = None) -> None:
    """Write ``weights.bin`` + ``manifest.json`` under ``directory``: the arrays
    back to back in manifest order, each little-endian in its own dtype."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    layers = []
    blob = bytearray()
    for name, value in arrays.items():
        arr = np.asarray(value)
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in DTYPES:
            raise ValueError(f"layer {name!r}: dtype {arr.dtype} is not one of {DTYPES}")
        arr = np.ascontiguousarray(arr, dtype=dtype)
        layers.append({"name": name, "dtype": dtype, "shape": list(arr.shape),
                       "offset": len(blob)})
        blob.extend(arr.tobytes())
    manifest = {"format_version": FORMAT_VERSION, "layers": layers, "meta": meta or {}}
    (directory / "weights.bin").write_bytes(bytes(blob))
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_checkpoint(directory) -> tuple[dict, dict]:
    """Read a checkpoint directory; returns (arrays, meta).  Raises ValueError
    unless the layers have known dtypes and fill ``weights.bin`` back to back."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format version {manifest.get('format_version')}"
        )
    blob = (directory / "weights.bin").read_bytes()
    arrays = {}
    end = 0
    for layer in manifest["layers"]:
        name, dtype, shape = layer["name"], layer["dtype"], tuple(layer["shape"])
        if dtype not in DTYPES or not all(isinstance(d, int) and d >= 0 for d in shape):
            raise ValueError(f"layer {name!r}: bad dtype {dtype!r} or shape {list(shape)}")
        if layer["offset"] != end:
            raise ValueError(f"layer {name!r} starts at byte {layer['offset']}, not {end}")
        count = math.prod(shape)
        end += count * np.dtype(dtype).itemsize
        if end > len(blob):
            raise ValueError(f"layer {name!r} runs past the {len(blob)} bytes of weights.bin")
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=layer["offset"])
        arrays[name] = arr.reshape(shape).copy()
    if end != len(blob):
        raise ValueError(f"weights.bin holds {len(blob)} bytes; the manifest describes {end}")
    return arrays, manifest.get("meta", {})
