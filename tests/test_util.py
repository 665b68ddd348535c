import numpy as np
import pytest

from mdsum.util import (NumericalError, as_2d_f64, canonical_json, check_finite,
                        decode_floats, derive_rng, encode_floats, sha256_hex)


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


def test_encode_decode_floats_is_value_exact():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-300, 300, size=(3, 4))
    arr[0, 0] = -0.0
    arr[0, 1] = 5e-324  # smallest subnormal
    out = decode_floats(encode_floats(arr))
    assert out.shape == arr.shape
    assert np.array_equal(arr, out)
    # -0.0 sign bit survives
    assert np.signbit(out[0, 0])


def test_encode_floats_refuses_non_finite():
    with pytest.raises(NumericalError):
        encode_floats(np.array([1.0, np.nan]))
    with pytest.raises(NumericalError):
        encode_floats(np.array([np.inf]))


def test_encode_floats_holds_only_shape_and_hex():
    payload = encode_floats(np.array([[0.1, -2.5e17]]))
    assert set(payload) == {"shape", "hex"}
    assert payload == {"shape": [1, 2], "hex": [(0.1).hex(), (-2.5e17).hex()]}


def test_decode_floats_refuses_non_finite():
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(NumericalError):
            decode_floats({"shape": [2], "hex": [(1.0).hex(), bad]})


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
