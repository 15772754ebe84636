"""Classifier forward pass, analytic gradients, and checkpoint files."""

import json
import math
import re

import numpy as np
import pytest

from patchbias.errors import ValidationError
from patchbias.model import (
    ClassifierSpec,
    _forward_cached,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad,
    param_layout,
    param_views,
    pool,
    predict,
    save_checkpoint,
)
from patchbias.tensorio import write_tensor

# small enough for exhaustive finite differences, large enough to hit both convs
TINY = ClassifierSpec(input_height=16, input_width=16, channels=1, k1=3, k2=4, pool_target=16, seed=3)


def relu_margin(spec, params, batch) -> float:
    """Smallest |pre-activation| at the ReLU; finite-difference checks need it > 0."""
    return float(np.abs(_forward_cached(spec, params, batch)["z1"]).min())


def _batch(spec, n, seed):
    rng = np.random.default_rng(seed)
    return rng.random((n, spec.input_height, spec.input_width, spec.channels), dtype=np.float32)


def _labels(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n)


def test_tiny_spec_stays_small():
    assert init_params(TINY).size <= 500


def test_zero_params_give_zero_logits():
    params = np.zeros_like(init_params(TINY))
    logits = forward(TINY, params, _batch(TINY, 5, 0))
    assert logits.shape == (5, 2)
    assert np.all(logits == 0.0)


def test_duplicated_rows_give_duplicated_logits():
    params = init_params(TINY)
    x = _batch(TINY, 4, 1)
    doubled = np.concatenate([x, x], axis=0)
    logits = forward(TINY, params, doubled)
    np.testing.assert_array_equal(logits[:4], logits[4:])


def test_permuted_batch_gives_permuted_logits():
    params = init_params(TINY)
    x = _batch(TINY, 8, 2)
    perm = np.random.default_rng(3).permutation(8)
    np.testing.assert_array_equal(forward(TINY, params, x)[perm], forward(TINY, params, x[perm]))


def test_forward_is_pure():
    params = init_params(TINY)
    x = _batch(TINY, 6, 4)
    a = forward(TINY, params, x)
    b = forward(TINY, params, x)
    assert np.array_equal(a, b)
    loss_a, grad_a = loss_and_grad(TINY, params, x, _labels(6, 4))
    loss_b, grad_b = loss_and_grad(TINY, params, x, _labels(6, 4))
    assert loss_a == loss_b
    assert np.array_equal(grad_a, grad_b)


def test_equal_logits_cost_ln2_per_sample():
    params = np.zeros_like(init_params(TINY))  # zero net -> both logits zero -> uniform softmax
    for labels in ([0, 0, 0], [1, 1, 1], [0, 1, 0]):
        loss, _ = loss_and_grad(TINY, params, _batch(TINY, 3, 5), np.array(labels))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_decreases_along_negative_gradient():
    params = init_params(TINY)
    x = _batch(TINY, 8, 6)
    y = _labels(8, 6)
    loss0, grad = loss_and_grad(TINY, params, x, y)
    loss1, _ = loss_and_grad(TINY, params - 0.05 * grad, x, y)
    assert loss1 < loss0


def test_gradient_matches_central_finite_differences():
    params = init_params(TINY)
    x = _batch(TINY, 4, 7)
    y = _labels(4, 7)
    assert relu_margin(TINY, params, x) > 1e-4  # keep FD probes off the kink
    _, grad = loss_and_grad(TINY, params, x, y)
    h = 1e-5
    fd = np.empty_like(grad)
    work = params.copy()
    for i in range(params.size):
        orig = work[i]
        work[i] = orig + h
        lp, _ = loss_and_grad(TINY, work, x, y)
        work[i] = orig - h
        lm, _ = loss_and_grad(TINY, work, x, y)
        work[i] = orig
        fd[i] = (lp - lm) / (2.0 * h)
    rel = np.abs(grad - fd) / np.maximum.reduce([np.abs(grad), np.abs(fd), np.full_like(fd, 1e-6)])
    assert rel.max() < 1e-4


def test_duplicating_batch_preserves_loss_and_gradient():
    # mean reduction: duplicated rows reweight nothing, but the float sum
    # re-associates, so this is allclose rather than bit equality
    params = init_params(TINY)
    x = _batch(TINY, 5, 8)
    y = _labels(5, 8)
    loss1, grad1 = loss_and_grad(TINY, params, x, y)
    loss2, grad2 = loss_and_grad(
        TINY, params, np.concatenate([x, x]), np.concatenate([y, y])
    )
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    np.testing.assert_allclose(grad2, grad1, rtol=1e-9, atol=1e-12)


def test_loss_finite_at_extreme_logits():
    params = np.zeros_like(init_params(TINY))
    for scale in (1e2, 1e4):
        for sign in (1.0, -1.0):
            param_views(TINY, params)["fc_b"][...] = [sign * scale, -sign * scale]
            loss, grad = loss_and_grad(TINY, params, _batch(TINY, 3, 9), np.array([0, 1, 0]))
            assert math.isfinite(loss)
            assert np.all(np.isfinite(grad))


def test_predict_prefers_larger_logit():
    params = np.zeros_like(init_params(TINY))
    param_views(TINY, params)["fc_b"][...] = [0.2, 0.9]
    assert predict(TINY, params, _batch(TINY, 3, 10)).tolist() == [1, 1, 1]
    param_views(TINY, params)["fc_b"][...] = [0.9, 0.2]
    assert predict(TINY, params, _batch(TINY, 3, 10)).tolist() == [0, 0, 0]


def test_predict_breaks_exact_ties_toward_zero():
    params = np.zeros_like(init_params(TINY))
    param_views(TINY, params)["fc_b"][...] = [0.5, 0.5]
    assert predict(TINY, params, _batch(TINY, 4, 11)).tolist() == [0, 0, 0, 0]


def test_predict_invariant_to_constant_logit_shift():
    params = init_params(TINY)
    x = _batch(TINY, 8, 12)
    base = predict(TINY, params, x)
    shifted = params.copy()
    param_views(TINY, shifted)["fc_b"][...] += 3.7
    np.testing.assert_array_equal(predict(TINY, shifted, x), base)


def test_init_params_deterministic_per_seed():
    a = init_params(TINY)
    b = init_params(TINY)
    assert np.array_equal(a, b)
    other = init_params(ClassifierSpec(16, 16, 1, k1=3, k2=4, pool_target=16, seed=4))
    assert not np.array_equal(a, other)


def test_init_biases_zero_and_weights_bounded_by_fan_in():
    views = param_views(TINY, init_params(TINY))
    assert np.all(views["conv1_b"] == 0.0)
    assert np.all(views["conv2_b"] == 0.0)
    assert np.all(views["fc_b"] == 0.0)
    for name, fan_in in (("conv1_w", 9), ("conv2_w", 27), ("fc_w", 4)):
        w = views[name]
        assert np.abs(w).max() <= 1.0 / math.sqrt(fan_in)


def test_layout_offsets_are_contiguous():
    layout = param_layout(TINY)
    offset = 0
    for name, shape, off in layout:
        assert off == offset
        offset += int(np.prod(shape))
    assert offset == init_params(TINY).size


def test_param_view_aliases_flat_vector():
    params = init_params(TINY)
    views = param_views(TINY, params)
    views["fc_b"][0] = 123.0
    name, shape, offset = next(e for e in param_layout(TINY) if e[0] == "fc_b")
    assert params[offset] == 123.0
    assert [(n, v.shape) for n, v in views.items()] == [(n, shape) for n, shape, _ in param_layout(TINY)]


def test_param_views_reject_a_vector_of_another_size():
    params = init_params(TINY)
    with pytest.raises(ValidationError, match="parameter vector"):
        param_views(TINY, params[:-1])
    with pytest.raises(ValidationError, match="parameter vector"):
        forward(TINY, np.concatenate([params, [0.0]]), _batch(TINY, 2, 16))


def test_checkpoint_round_trip(tmp_path):
    params = init_params(TINY)
    path = tmp_path / "ckpt.npy"
    save_checkpoint(path, TINY, params)
    assert path.exists() and path.with_suffix(".json").exists()
    spec2, params2 = load_checkpoint(path)
    assert spec2 == TINY
    assert params2.dtype == np.float64
    assert params2.tobytes() == params.tobytes()  # stored as float64, so bit for bit
    x = _batch(TINY, 4, 13)
    assert forward(spec2, params2, x).tobytes() == forward(TINY, params, x).tobytes()


def test_checkpoint_rejects_layout_mismatch(tmp_path):
    path = tmp_path / "ckpt.npy"
    save_checkpoint(path, TINY, init_params(TINY))
    sidecar = json.loads(path.with_suffix(".json").read_text())
    sidecar["layout"][0][1] = [3, 3, 2, 3]  # claim a different channel count
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    with pytest.raises(ValidationError, match="layout"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_parameter_count_mismatch(tmp_path):
    path = tmp_path / "ckpt.npy"
    params = init_params(TINY)
    save_checkpoint(path, TINY, params)
    write_tensor(path, params[:-1])  # the sidecar still describes the full layout
    with pytest.raises(ValidationError, match="parameter count"):
        load_checkpoint(path)
    write_tensor(path, params.astype(np.float32))  # the right count, but not the float64 vector
    with pytest.raises(ValidationError, match="float32, not float64"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "rewrite",
    [
        None,
        lambda s: "{not json",
        lambda s: json.dumps({"layout": s["layout"]}),
        lambda s: json.dumps({**s, "classifier_spec": {**s["classifier_spec"], "k3": 4}}),
    ],
    ids=["missing", "bad-json", "no-classifier-spec", "unknown-spec-field"],
)
def test_a_bad_sidecar_is_a_validation_error_naming_it(tmp_path, rewrite):
    path = tmp_path / "ckpt.npy"
    save_checkpoint(path, TINY, init_params(TINY))
    sidecar = path.with_suffix(".json")
    if rewrite is None:
        sidecar.unlink()
    else:
        sidecar.write_text(rewrite(json.loads(sidecar.read_text())))
    with pytest.raises(ValidationError, match=re.escape(str(sidecar))):
        load_checkpoint(path)


def test_a_missing_checkpoint_tensor_is_a_validation_error_naming_it(tmp_path):
    path = tmp_path / "ckpt.npy"
    save_checkpoint(path, TINY, init_params(TINY))
    path.unlink()  # the sidecar stays
    with pytest.raises(ValidationError, match=re.escape(f"{path}: No such file or directory")):
        load_checkpoint(path)


def test_batch_shape_must_match_spec():
    params = init_params(TINY)
    with pytest.raises(ValidationError, match="batch shape"):
        forward(TINY, params, np.zeros((2, 16, 16, 3), dtype=np.float32))
    with pytest.raises(ValidationError, match="batch shape"):
        forward(TINY, params, np.zeros((16, 16, 1), dtype=np.float32))


def test_labels_must_be_binary_and_match_batch():
    params = init_params(TINY)
    x = _batch(TINY, 3, 14)
    with pytest.raises(ValidationError, match="labels"):
        loss_and_grad(TINY, params, x, np.array([0, 1]))
    with pytest.raises(ValidationError, match="binary"):
        loss_and_grad(TINY, params, x, np.array([0, 1, 2]))


def test_spec_rejects_inputs_too_small_to_convolve():
    with pytest.raises(ValidationError, match="too small"):
        ClassifierSpec(input_height=6, input_width=6, channels=1, pool_target=32).validate()
    # 216 -> pooled 30x30 with the default target: fine
    ClassifierSpec(input_height=216, input_width=216, channels=3).validate()


def test_pooling_reduces_large_inputs_to_target():
    spec = ClassifierSpec(input_height=216, input_width=216, channels=3)
    assert spec.pool_factor == 7
    assert spec.pooled_shape == (30, 30)
    small = ClassifierSpec(input_height=16, input_width=16, channels=1, pool_target=32)
    assert small.pool_factor == 1
    assert small.pooled_shape == (16, 16)


def test_pooled_forward_matches_manual_averaging():
    spec = ClassifierSpec(input_height=32, input_width=32, channels=1, k1=3, k2=4, pool_target=16, seed=3)
    params = init_params(spec)
    x = _batch(spec, 2, 15)
    manual = x.reshape(2, 16, 2, 16, 2, 1).mean(axis=(2, 4)).astype(np.float64)
    inner = ClassifierSpec(input_height=16, input_width=16, channels=1, k1=3, k2=4, pool_target=16, seed=3)
    np.testing.assert_allclose(forward(spec, params, pool(spec, x)), forward(inner, params, manual), atol=1e-12)
