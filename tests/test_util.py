import json

import numpy as np
import pytest
from helpers import hex_encoded
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mdsum.util import (_HEX_CHUNK, NumericalError, as_2d_f64, canonical_json, check_finite,
                        decode_floats, derive_rng, map_arrays, save_payload, sha256_hex)


def test_derive_rng_is_deterministic():
    a = derive_rng(42, "stage", 3).standard_normal(8)
    b = derive_rng(42, "stage", 3).standard_normal(8)
    assert np.array_equal(a, b)


def test_derive_rng_streams_are_distinct():
    base = derive_rng(42, "stage", 3).standard_normal(8)
    for tags in [("stage", 4), ("other", 3), ("stage",), (3, "stage")]:
        other = derive_rng(42, *tags).standard_normal(8)
        assert not np.array_equal(base, other)
    assert not np.array_equal(base, derive_rng(43, "stage", 3).standard_normal(8))


def test_derive_rng_rejects_odd_tag_types():
    with pytest.raises(ValueError, match="tag"):
        derive_rng(0, 1.5)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _check_saved(payload, path):
    """save_payload writes json.dumps of the payload with each array as
    hex_encoded gives it, and decode_floats returns every array's bits."""
    save_payload(payload, path)
    text = path.read_text(encoding="ascii")
    assert text == json.dumps(map_arrays(payload, hex_encoded))
    saved = []
    map_arrays(payload["arrays"], saved.append)
    for a, leaf in zip(saved, json.loads(text)["arrays"], strict=True):
        out = decode_floats(leaf)
        assert out.shape == a.shape and np.array_equal(_bits(out), _bits(a))


# a finite float64 from any bit pattern whose exponent field is not all ones
finite_bits = st.integers(0, 2 ** 64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)


@settings(max_examples=200, deadline=None)
@given(st.lists(arrays(np.uint64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
                       elements=finite_bits), min_size=1, max_size=3))
def test_save_payload_matches_the_float_hex_reference(tmp_path_factory, bit_arrays):
    payload = {"kind": "test", "arrays": [b.view(np.float64) for b in bit_arrays], "n": 3}
    _check_saved(payload, tmp_path_factory.mktemp("save") / "payload.json")


EDGE = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,  # subnormals
                 2.2250738585072014e-308, -1.7976931348623157e308,  # smallest, largest normal
                 1.0, -2.0, 0.1, 1e5, 3e-5, 1e300, -1e-300, 2.0 ** 1023, 2.0 ** -1022])


@pytest.mark.parametrize("size", [0, 1, _HEX_CHUNK - 1, _HEX_CHUNK, _HEX_CHUNK + 1])
def test_save_payload_matches_the_reference_at_chunk_edges(tmp_path, size):
    # EDGE prints exponents of 1 to 4 digits
    assert {len(h.split("p")[1]) - 1 for h in map(float.hex, EDGE.tolist())} == {1, 2, 3, 4}
    vals = np.random.default_rng(size).integers(0, 2 ** 64, size, np.uint64).view(np.float64)
    vals[~np.isfinite(vals)] = 1.5
    grid = EDGE.reshape(4, 4)
    payload = {"task": {"name": "x", "params": {"n": 2}}, "none": None,
               "arrays": [vals, grid, grid.T, np.empty((0,)), np.empty((2, 0)), EDGE[:1]]}
    _check_saved(payload, tmp_path / "payload.json")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_payload_refuses_non_finite_before_writing(tmp_path, monkeypatch, bad):
    path = tmp_path / "payload.json"
    payload = {"arrays": [np.ones(3), np.array([[1.0, bad]])]}
    with monkeypatch.context() as m:
        m.setattr("mdsum.util.open", lambda *a, **k: pytest.fail("opened a file"),
                  raising=False)
        with pytest.raises(NumericalError):
            save_payload(payload, path)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"old")
    with pytest.raises(NumericalError):
        save_payload(payload, path)
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"old"


def test_save_payload_refuses_a_string_it_would_take_for_an_array(tmp_path):
    with pytest.raises(ValueError, match="placeholder"):
        save_payload({"name": "\0", "a": np.ones(2)}, tmp_path / "payload.json")
    assert list(tmp_path.iterdir()) == []


def test_decode_floats_refuses_non_finite():
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(NumericalError):
            decode_floats({"shape": [2], "hex": [(1.0).hex(), bad]})


def test_decode_floats_refuses_any_other_leaf():
    # only the saved {shape, hex} form reads: a leaf of another form comes
    # from a damaged or foreign file
    for leaf in ([0.5, -1.0], np.ones(2), 1.0, None, {"hex": ["0x1.0p+0"]},
                 {"shape": [1], "values": [1.0]}, {"shape": [1], "hex": [1.0]},
                 {"shape": ["1"], "hex": ["0x1.0p+0"]}, {"shape": [3], "hex": ["0x1.0p+0"]}):
        with pytest.raises(ValueError):
            decode_floats(leaf)


def test_canonical_json_ignores_key_order():
    a = canonical_json({"b": 1, "a": [2, {"y": 0, "x": 1}]})
    b = canonical_json({"a": [2, {"x": 1, "y": 0}], "b": 1})
    assert a == b


def test_sha256_hex_known_value():
    # FIPS 180-2 test vector for "abc"
    assert sha256_hex("abc") == ("ba7816bf8f01cfea414140de5dae2223"
                                 "b00361a396177a9cb410ff61f20015ad")
    assert sha256_hex(b"abc") == sha256_hex("abc")


def test_check_finite():
    check_finite("ok", np.ones(3))
    with pytest.raises(NumericalError, match="bad"):
        check_finite("bad", np.array([1.0, np.inf]))


def test_as_2d_f64_contract():
    out = as_2d_f64("x", [[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.shape == (2, 2)
    with pytest.raises(ValueError):
        as_2d_f64("x", [1.0, 2.0])
    with pytest.raises(ValueError):
        as_2d_f64("x", np.empty((0, 3)))
