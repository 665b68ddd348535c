"""Shared plumbing: deterministic RNG streams, exact float codecs, hashing.

Everything stochastic in this package draws from a numpy Generator obtained
through derive_rng, so that any pipeline stage can be rerun (serially or in
parallel) and produce bit-identical results.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

import numpy as np


class NumericalError(RuntimeError):
    """Raised when a computation produces non-finite values."""


def _tag_to_int(tag: Any) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFFFFFFFFFF
    if isinstance(tag, str):
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise ValueError(f"rng tag must be int or str, got {type(tag).__name__}")


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Deterministic child RNG for (master_seed, tags).

    Streams for distinct tag tuples are independent, and the mapping is
    stable across runs, platforms and process boundaries.
    """
    entropy = [int(master_seed) & 0xFFFFFFFFFFFFFFFF] + [_tag_to_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def encode_floats(arr: np.ndarray) -> dict:
    """Encode a float64 array value-exactly, as its shape and the
    ``float.hex`` string of each value in C order."""
    a = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NumericalError("refusing to serialize non-finite values")
    return {"shape": list(a.shape), "hex": list(map(float.hex, a.reshape(-1).tolist()))}


def decode_floats(payload: dict) -> np.ndarray:
    """The array of an encode_floats dict; other keys (such as the ``dec``
    mirror of older files) are ignored, and non-finite values raise."""
    hexes = payload["hex"]
    vals = np.fromiter(map(float.fromhex, hexes), np.float64, count=len(hexes))
    check_finite("decoded array", vals)
    return vals.reshape(tuple(payload["shape"]))


def as_float_array(leaf: Any) -> np.ndarray:
    """A fresh float64 array from a payload leaf: a copy of an array, or the
    decoding of an encode_floats dict read back from a saved file.

    Decoding straight into the model's array, rather than decoding a whole
    file first and copying it, keeps a load to one allocation per array.
    """
    if isinstance(leaf, dict):
        return decode_floats(leaf)
    return np.array(leaf, dtype=np.float64)


def map_arrays(obj: Any, fn: Callable, sort_keys: bool = False) -> Any:
    """Rebuild a nest of dicts and lists with each numpy array replaced by
    fn(array). fn sees the arrays in walk order: dict insertion order, or
    sorted keys with sort_keys."""
    if isinstance(obj, np.ndarray):
        return fn(obj)
    if isinstance(obj, dict):
        keys = sorted(obj) if sort_keys else obj
        return {k: map_arrays(obj[k], fn, sort_keys) for k in keys}
    if isinstance(obj, list):
        return [map_arrays(v, fn, sort_keys) for v in obj]
    return obj


def payload_hash(payload: Any) -> str:
    """sha256 over a payload of JSON values and float64 arrays.

    The digest covers the canonical JSON of the payload with every array
    replaced by its shape, then each array's little-endian float64 bytes in
    C order, taken in sorted-key walk order. Memory layout does not change
    it; any bit of any value, a shape, or a JSON field does.
    """
    arrays = []

    def shape_of(a: np.ndarray) -> list:
        arrays.append(a)
        return list(a.shape)

    digest = hashlib.sha256(canonical_json(map_arrays(payload, shape_of, sort_keys=True))
                            .encode("utf-8"))
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericalError("refusing to hash non-finite values")
        digest.update(np.ascontiguousarray(a, dtype="<f8").data)
    return digest.hexdigest()


def canonical_json(obj: Any) -> str:
    """Stable serialization used for hashing configs and artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{name} contains non-finite values")


def check_shape(name: str, arr: np.ndarray, shape: tuple) -> np.ndarray:
    """arr itself when its shape is shape; ValueError otherwise, so a model
    file whose arrays disagree with its own dimensions cannot load and let
    broadcasting hide the fault."""
    if arr.shape != tuple(shape):
        raise ValueError(f"{name} has shape {arr.shape}, expected {tuple(shape)}")
    return arr


def as_2d_f64(name: str, data) -> np.ndarray:
    """Validate and coerce input to a 2-D float64 array."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    return arr
