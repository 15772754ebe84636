"""Input pooling: the strided sum against the reshape-mean oracle, and the pooled-only model input.

Training pools each split once and indexes the pooled array, so these
properties are what keeps that bit-identical to pooling every batch.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_model import relu_margin

from patchbias.errors import ValidationError
from patchbias.model import ClassifierSpec, forward, init_params, loss_and_grad, pool, predict

PROPERTY = settings(max_examples=60, deadline=None)


def _reshape_mean(x: np.ndarray, factor: int) -> np.ndarray:
    """The original pooling: crop to whole windows, upcast, 6-d reshape, mean."""
    if factor == 1:
        return x.astype(np.float64)
    b, h, w, c = x.shape
    hp, wp = h // factor, w // factor
    x = x[:, : hp * factor, : wp * factor, :].astype(np.float64)
    return x.reshape(b, hp, factor, wp, factor, c).mean(axis=(2, 4))


@st.composite
def pooled_specs(draw, max_factor=7, max_side=12):
    """A spec whose pool factor is drawn directly, with sides that need not divide by it."""
    f = draw(st.integers(1, max_factor))
    hp, wp = draw(st.integers(7, max_side)), draw(st.integers(7, max_side))
    h = hp * f + draw(st.integers(0, f - 1))
    w = wp * f + draw(st.integers(0, f - 1))
    spec = ClassifierSpec(
        input_height=h, input_width=w, channels=draw(st.integers(1, 3)),
        k1=2, k2=3, pool_target=math.ceil(max(h, w) / f), seed=draw(st.integers(0, 9)),
    )
    assert spec.pool_factor == f and spec.pooled_shape == (h // f, w // f)
    return spec


def _patches(spec: ClassifierSpec, n: int, seed: int) -> np.ndarray:
    """float32 values of either sign with magnitudes log-uniform in [1e-3, 30]."""
    rng = np.random.default_rng(seed)
    shape = (n, spec.input_height, spec.input_width, spec.channels)
    mag = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), shape))
    return (mag * rng.choice([-1.0, 1.0], shape)).astype(np.float32)


@PROPERTY
@given(spec=pooled_specs(), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_pool_is_bit_identical_to_the_reshape_mean(spec, n, seed):
    x = _patches(spec, n, seed)
    out = pool(spec, x)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, _reshape_mean(x, spec.pool_factor))


def test_pool_matches_the_oracle_across_chunk_boundaries():
    spec = ClassifierSpec(input_height=17, input_width=15, channels=2, pool_target=9)
    assert spec.pool_factor == 2
    x = _patches(spec, 600, 1)
    np.testing.assert_array_equal(pool(spec, x), _reshape_mean(x, 2))


@PROPERTY
@given(spec=pooled_specs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pooling_a_split_then_gathering_equals_pooling_the_gathered_batch(spec, seed, data):
    x = _patches(spec, 12, seed)
    idx = np.asarray(data.draw(st.lists(st.integers(0, 11), min_size=1, max_size=20)))
    np.testing.assert_array_equal(pool(spec, x)[idx], pool(spec, x[idx]))


def test_pooling_twice_is_pooling_once():
    spec = ClassifierSpec(input_height=32, input_width=32, channels=1, pool_target=16)
    once = pool(spec, _patches(spec, 3, 2))
    assert pool(spec, once) is once
    unit = ClassifierSpec(input_height=16, input_width=16, channels=1, pool_target=16)
    raw = _patches(unit, 3, 3)
    np.testing.assert_array_equal(pool(unit, raw), raw.astype(np.float64))


def test_batch_shape_error_names_both_accepted_shapes():
    """`pool` takes a raw or a pooled batch; the model takes only the pooled one and names `pool`."""
    spec = ClassifierSpec(input_height=32, input_width=30, channels=1, k1=2, k2=3, pool_target=16)
    params = init_params(spec)
    bad = np.zeros((2, 16, 16, 1), dtype=np.float32)
    message = r"\(2, 16, 16, 1\).*raw spec input \(B, 32, 30, 1\).*pooled input \(B, 16, 15, 1\)"
    with pytest.raises(ValidationError, match=message):
        pool(spec, bad)
    raw = np.zeros((2, 32, 30, 1), dtype=np.float32)
    pooled_only = r"\(2, 32, 30, 1\) is not the pooled model input \(B, 16, 15, 1\).*model\.pool"
    for call in (
        lambda b: forward(spec, params, b),
        lambda b: loss_and_grad(spec, params, b, np.zeros(2, dtype=np.int64)),
        lambda b: predict(spec, params, b),
        lambda b: relu_margin(spec, params, b),
    ):
        with pytest.raises(ValidationError, match=pooled_only):
            call(raw)
        with pytest.raises(ValidationError, match=r"\(2, 16, 16, 1\) is not the pooled model input"):
            call(bad)
