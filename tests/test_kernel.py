"""The 2-D matmul conv kernel against the loop-and-tensordot kernel it replaced.

The old kernel built each im2col as a 6-d array with one slice copy per
window offset and contracted it with `np.tensordot`. It is kept here as the
oracle: the new kernel must match it bit for bit, so the golden fingerprint
of a run cannot move.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patchbias.model import (
    ClassifierSpec,
    _col2im,
    _im2col,
    _softmax_ce,
    forward,
    init_params,
    loss_and_grad,
    param_views,
    pool,
    predict,
    relu_margin,
)

PROPERTY = settings(max_examples=60, deadline=None)


# ---- oracle: the loop im2col/col2im and the tensordot kernel -------------------------------


def _oracle_im2col(x):
    b, h, w, c = x.shape
    ho, wo = (h - 3) // 2 + 1, (w - 3) // 2 + 1
    cols = np.empty((b, ho, wo, 3, 3, c), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            cols[:, :, :, di, dj, :] = x[:, di : di + 2 * (ho - 1) + 1 : 2, dj : dj + 2 * (wo - 1) + 1 : 2, :]
    return cols


def _oracle_col2im(dcols, x_shape):
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    ho, wo = dcols.shape[1], dcols.shape[2]
    for di in range(3):
        for dj in range(3):
            dx[:, di : di + 2 * (ho - 1) + 1 : 2, dj : dj + 2 * (wo - 1) + 1 : 2, :] += dcols[:, :, :, di, dj, :]
    return dx


def _oracle_forward_cached(spec, params, batch):
    x = pool(spec, batch)
    p = param_views(spec, params)
    w1, b1 = p["conv1_w"], p["conv1_b"]
    w2, b2 = p["conv2_w"], p["conv2_b"]
    w3, b3 = p["fc_w"], p["fc_b"]
    cols1 = _oracle_im2col(x)
    z1 = np.tensordot(cols1, w1, axes=([3, 4, 5], [0, 1, 2])) + b1
    a1 = np.maximum(z1, 0.0)
    cols2 = _oracle_im2col(a1)
    z2 = np.tensordot(cols2, w2, axes=([3, 4, 5], [0, 1, 2])) + b2
    gap = z2.mean(axis=(1, 2))
    logits = gap @ w3 + b3
    return {"cols1": cols1, "z1": z1, "a1_shape": a1.shape, "cols2": cols2, "gap": gap, "logits": logits}


def _oracle_loss_and_grad(spec, params, batch, labels):
    cache = _oracle_forward_cached(spec, params, batch)
    loss, dlogits = _softmax_ce(cache["logits"], np.asarray(labels))
    p = param_views(spec, params)
    grad = np.zeros_like(params)
    g = param_views(spec, grad)
    gap = cache["gap"]
    g["fc_w"][...] = gap.T @ dlogits
    g["fc_b"][...] = dlogits.sum(axis=0)
    dgap = dlogits @ p["fc_w"].T
    spatial = cache["cols2"].shape[1] * cache["cols2"].shape[2]
    dz2 = np.broadcast_to(
        dgap[:, None, None, :] / spatial,
        (gap.shape[0], cache["cols2"].shape[1], cache["cols2"].shape[2], gap.shape[1]),
    )
    g["conv2_w"][...] = np.tensordot(cache["cols2"], dz2, axes=([0, 1, 2], [0, 1, 2]))
    g["conv2_b"][...] = dz2.sum(axis=(0, 1, 2))
    dcols2 = np.tensordot(dz2, p["conv2_w"], axes=([3], [3]))
    da1 = _oracle_col2im(dcols2, cache["a1_shape"])
    dz1 = da1 * (cache["z1"] > 0)
    g["conv1_w"][...] = np.tensordot(cache["cols1"], dz1, axes=([0, 1, 2], [0, 1, 2]))
    g["conv1_b"][...] = dz1.sum(axis=(0, 1, 2))
    return loss, grad


# ---- cases ------------------------------------------------------------------------------------


@st.composite
def kernel_cases(draw):
    """A spec, perturbed params, a raw or pooled batch, and labels.

    Pooled sides 7-25 are drawn per axis, so grids are non-square with odd
    and even sides. Weights are rescaled and biases shifted so that a share
    of the ReLU inputs is negative.
    """
    f = draw(st.integers(1, 3))
    hp, wp = draw(st.integers(7, 25)), draw(st.integers(7, 25))
    h = hp * f + draw(st.integers(0, f - 1))
    w = wp * f + draw(st.integers(0, f - 1))
    spec = ClassifierSpec(
        input_height=h, input_width=w, channels=draw(st.integers(1, 4)),
        k1=draw(st.integers(1, 16)), k2=draw(st.integers(1, 16)),
        pool_target=math.ceil(max(h, w) / f), seed=draw(st.integers(0, 99)),
    )
    assert spec.pool_factor == f
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(spec)
    params *= draw(st.floats(0.25, 4.0))
    params += rng.normal(0.0, 0.2, params.size)
    n = draw(st.integers(1, 130))
    raw = rng.normal(0.3, 1.0, (n, h, w, spec.channels)).astype(np.float32)
    batch = raw if f >= 2 and draw(st.booleans()) else pool(spec, raw)
    return spec, params, batch, rng.integers(0, 2, n)


@PROPERTY
@given(case=kernel_cases())
def test_kernel_matches_the_tensordot_oracle_bit_for_bit(case):
    spec, params, batch, labels = case
    oracle = _oracle_forward_cached(spec, params, batch)
    assume((oracle["z1"] < 0).any())  # the ReLU mask is exercised, not all-pass

    np.testing.assert_array_equal(forward(spec, params, batch), oracle["logits"])
    expected = (oracle["logits"][:, 1] > oracle["logits"][:, 0]).astype(np.int64)
    np.testing.assert_array_equal(predict(spec, params, batch), expected)
    assert relu_margin(spec, params, batch) == float(np.abs(oracle["z1"]).min())

    loss, grad = loss_and_grad(spec, params, batch, labels)
    oracle_loss, oracle_grad = _oracle_loss_and_grad(spec, params, batch, labels)
    assert loss == oracle_loss
    np.testing.assert_array_equal(grad, oracle_grad)


def test_degenerate_shapes_match_the_oracle_bit_for_bit():
    """Batches of one or two, one to a few filters, conv2 grids down to 1x1, many draws each.

    Here reshapes can return strided views instead of copies (a conv2 grid
    one pixel wide) and BLAS picks vector kernels, so a kernel that hands
    BLAS other operands than the oracle differs here first, and only for
    some data.
    """
    rng = np.random.default_rng(20)
    for b in (1, 2):
        for k1, k2 in ((1, 1), (3, 1), (1, 2), (9, 1), (2, 9), (8, 16)):
            for hp, wp in ((7, 7), (9, 7), (22, 7), (13, 21)):
                spec = ClassifierSpec(input_height=hp, input_width=wp, channels=int(rng.integers(1, 5)),
                                      k1=k1, k2=k2, pool_target=max(hp, wp))
                for _ in range(8):
                    params = init_params(spec)
                    params += rng.normal(0.0, 0.2, params.size)
                    batch = pool(spec, rng.normal(0.3, 1.0, (b, hp, wp, spec.channels)).astype(np.float32))
                    labels = rng.integers(0, 2, b)
                    np.testing.assert_array_equal(
                        forward(spec, params, batch), _oracle_forward_cached(spec, params, batch)["logits"])
                    loss, grad = loss_and_grad(spec, params, batch, labels)
                    oracle_loss, oracle_grad = _oracle_loss_and_grad(spec, params, batch, labels)
                    assert loss == oracle_loss
                    np.testing.assert_array_equal(grad, oracle_grad)


@st.composite
def feature_maps(draw):
    b = draw(st.integers(1, 5))
    h, w = draw(st.integers(3, 25)), draw(st.integers(3, 25))
    c = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(b, h, w, c)), rng


@PROPERTY
@given(maps=feature_maps())
def test_im2col_and_col2im_match_the_loop_oracle(maps):
    x, rng = maps
    b, h, w, c = x.shape
    cols = _im2col(x)
    np.testing.assert_array_equal(cols, _oracle_im2col(x).reshape(cols.shape))
    # a non-contiguous input gives the same windows
    flipped = x[:, ::-1]
    np.testing.assert_array_equal(_im2col(flipped), _oracle_im2col(flipped).reshape(cols.shape))
    d = rng.normal(size=cols.shape)
    ho, wo = (h - 3) // 2 + 1, (w - 3) // 2 + 1
    np.testing.assert_array_equal(_col2im(d, x.shape), _oracle_col2im(d.reshape(b, ho, wo, 3, 3, c), x.shape))


@PROPERTY
@given(maps=feature_maps())
def test_col2im_is_the_adjoint_of_im2col(maps):
    x, rng = maps
    # non-negative terms, so neither inner product cancels and rtol stays meaningful
    x = np.abs(x)
    d = rng.random(_im2col(x).shape)
    lhs = float(np.sum(_im2col(x) * d))
    rhs = float(np.sum(x * _col2im(d, x.shape)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
