"""Shared plumbing: deterministic RNG streams, exact float codecs, hashing.

Everything stochastic in this package draws from a numpy Generator obtained
through derive_rng, so that any pipeline stage can be rerun (serially or in
parallel) and produce bit-identical results.

Model files are written by save_payload: JSON in which each float64 array is
its shape and the float.hex string of each value. The strings are formatted
in bulk from the values' bit patterns, and the file takes its place only
once complete (replacing), so a failed save leaves no partial file behind.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
from pathlib import Path
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


_HEX_CHUNK = 2 ** 15  # values formatted per numpy pass
# A value's JSON text is ', "' + sign + '0x1.' + 13 mantissa digits + 'p-1022"'
# at its longest. Each value fills one row of _HEX_ROW, with NUL for the
# bytes a shorter text leaves out: the sign, 12 digits of a zero (which
# prints '0x0.0p+0') and up to 3 exponent digits.
_HEX_ROW = np.frombuffer(b', "\x000x1.'.ljust(29, b"\0"), np.uint8)
_HEX_PAIRS = np.frombuffer(b"".join(b"%02x" % i for i in range(256)), np.uint16)
# 'p' + signed exponent + '"', NUL-padded to 8 bytes, for -1022..1023
_HEX_EXPONENTS = np.frombuffer(b"".join((b'p%+d"' % e).ljust(8, b"\0")
                                        for e in range(-1022, 1024)), np.uint64)
_SLOT = "\0"  # stands for an array in the payload's JSON skeleton


def _hex_items(flat: np.ndarray):
    """Yield, chunk by chunk, the items of the JSON list
    [float.hex(v) for v in flat], separated by ', '.

    Each value of a chunk fills a row of _HEX_ROW from its bit pattern; the
    rows are reused, so every column a value's text varies in is rewritten.
    """
    rows = np.tile(_HEX_ROW, (min(flat.size, _HEX_CHUNK), 1))
    for start in range(0, flat.size, _HEX_CHUNK):
        bits = flat[start:start + _HEX_CHUNK].view(np.uint64)
        n = bits.size
        chunk = rows[:n]
        biased = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF
        chunk[:, 3] = (bits >> np.uint64(63)).astype(np.uint8) * ord("-")
        chunk[:, 6] = ord("1") - (biased == 0)
        # the 52 mantissa bits, shifted to 56, are the low 7 bytes: 14
        # digits, the last of which the exponent overwrites
        mantissa = ((bits & np.uint64(2 ** 52 - 1)) << np.uint64(4)).astype(">u8")
        chunk[:, 8:22].view(np.uint16)[...] = _HEX_PAIRS[
            mantissa.view(np.uint8).reshape(n, 8)[:, 1:]]
        exponent = np.where(biased == 0, -1022, biased - 1023)
        zero = np.flatnonzero((bits << np.uint64(1)) == 0)
        chunk[zero, 9:21] = 0
        exponent[zero] = 0
        chunk[:, 21:29].view(np.uint64)[:, 0] = _HEX_EXPONENTS[exponent + 1022]
        text = chunk[chunk != 0].tobytes()
        yield text if start else text[2:]


@contextlib.contextmanager
def replacing(path):
    """A binary file that takes path's place only if the block completes.

    It is written under a temporary name beside path and then moved onto
    path with os.replace, so path never holds a partial file; if the block
    raises, the temporary file is removed and path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_payload(payload: Any, path) -> None:
    """Write a payload of JSON values and float64 arrays to path.

    The file is json.dumps of the payload with each array replaced by
    {"shape": [...], "hex": [float.hex of each value in C order]}, which
    decode_floats reads back bit for bit. Keys and other leaves go through
    json.dumps; array values are formatted in bulk (_hex_items). Every value
    is checked to be finite before any file is opened, and the file
    replaces path only once complete (replacing).
    """
    arrays = []

    def slot(a: np.ndarray) -> str:
        arrays.append(np.asarray(a, dtype=np.float64))
        return _SLOT

    parts = json.dumps(map_arrays(payload, slot)).encode("ascii").split(
        json.dumps(_SLOT).encode("ascii"))
    if len(parts) != len(arrays) + 1:
        raise ValueError("a payload string equals the array placeholder NUL")
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError("refusing to serialize non-finite values")
    with replacing(path) as fh:
        for part, a in zip(parts, arrays):
            fh.write(part + b'{"shape": %s, "hex": [' % json.dumps(list(a.shape)).encode())
            fh.writelines(_hex_items(np.ascontiguousarray(a).reshape(-1)))
            fh.write(b"]}")
        fh.write(parts[-1])


def decode_floats(leaf: Any) -> np.ndarray:
    """A fresh float64 array from a saved {"shape", "hex"} leaf (save_payload).

    Any other leaf raises ValueError, since it comes from a damaged or
    foreign file; extra keys are ignored, and non-finite values raise.
    Decoding straight into the model's array, rather than decoding a whole
    file first and copying it, keeps a load to one allocation per array.
    """
    if not (isinstance(leaf, dict) and isinstance(leaf.get("shape"), list)
            and isinstance(leaf.get("hex"), list)):
        raise ValueError(f"expected a saved array {{shape, hex}}, got {type(leaf).__name__}")
    hexes = leaf["hex"]
    try:
        vals = np.fromiter(map(float.fromhex, hexes), np.float64, count=len(hexes))
        vals = vals.reshape(tuple(leaf["shape"]))
    except TypeError as err:  # a number where a string belongs, or the reverse
        raise ValueError(f"malformed saved array: {err}") from None
    check_finite("decoded array", vals)
    return vals


def reads_payload(reader: Callable) -> Callable:
    """Wrap a model-payload reader so that a key the payload lacks raises
    ValueError naming it, not KeyError."""
    @functools.wraps(reader)
    def wrapper(payload):
        try:
            return reader(payload)
        except KeyError as err:
            raise ValueError(f"{reader.__name__}: the payload has no key "
                             f"{err.args[0]!r}") from None
    return wrapper


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
