"""A small convolutional classifier with hand-written reverse-mode gradients.

Fixed family: average-pool the patch down to a manageable size, then
conv 3x3/stride 2 -> ReLU -> conv 3x3/stride 2 -> global average pool ->
affine head with two logits. The parameters are one flat float64 array,
laid out by `param_layout(spec)` and read through `param_views`, so
optimizer updates and gradient checks stay simple and exact.

The pooling layer has no parameters, so it is not part of the kernel:
`pool` turns raw (B, H, W, C) patches into the pooled (B, H/f, W/f, C)
float64 input once per split, and `forward`, `loss_and_grad` and `predict`
take only that pooled shape.

Each convolution is one copy and one 2-D matmul: `_im2col` copies the
stride-2 windows into a (B*Ho*Wo, 9*C) matrix (rows in (b, i, j) order,
columns in (di, dj, c) order) and one matmul multiplies it by the weights
reshaped to (9*C, k). The backward pass multiplies by the transposed views
of the same matrices, and `_col2im` scatter-adds in (di, dj) order. The
kernel must stay bit-identical to the loop-and-tensordot reference kernel
kept in tests/test_kernel.py, because the pinned result hashes depend on
every bit of every gradient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ValidationError
from .tensorio import read_tensor, write_tensor

_KERNEL = 3
_STRIDE = 2


@dataclass(frozen=True)
class ClassifierSpec:
    input_height: int
    input_width: int
    channels: int
    k1: int = 8
    k2: int = 16
    pool_target: int = 32
    seed: int = 0

    @property
    def pool_factor(self) -> int:
        return max(1, math.ceil(max(self.input_height, self.input_width) / self.pool_target))

    @property
    def pooled_shape(self) -> tuple[int, int]:
        f = self.pool_factor
        return self.input_height // f, self.input_width // f

    def validate(self) -> None:
        if min(self.input_height, self.input_width, self.channels) < 1:
            raise ValidationError("input dims and channels must be >= 1")
        if self.k1 < 1 or self.k2 < 1:
            raise ValidationError("filter counts must be >= 1")
        if self.pool_target < 1:
            raise ValidationError("pool_target must be >= 1")
        hp, wp = self.pooled_shape
        # two valid 3x3 stride-2 convs need at least 7 pixels per axis
        if hp < 7 or wp < 7:
            raise ValidationError(
                f"pooled input {hp}x{wp} too small for two 3x3 stride-2 convolutions"
            )


def param_layout(spec: ClassifierSpec) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    """(name, shape, offset) of each tensor in the flat parameter vector."""
    shapes = [
        ("conv1_w", (_KERNEL, _KERNEL, spec.channels, spec.k1)),
        ("conv1_b", (spec.k1,)),
        ("conv2_w", (_KERNEL, _KERNEL, spec.k1, spec.k2)),
        ("conv2_b", (spec.k2,)),
        ("fc_w", (spec.k2, 2)),
        ("fc_b", (2,)),
    ]
    layout = []
    offset = 0
    for name, shape in shapes:
        layout.append((name, shape, offset))
        offset += math.prod(shape)
    return tuple(layout)


def _param_count(layout: tuple[tuple[str, tuple[int, ...], int], ...]) -> int:
    return sum(math.prod(shape) for _, shape, _ in layout)


def param_views(spec: ClassifierSpec, values: np.ndarray) -> dict[str, np.ndarray]:
    """Each tensor of `param_layout(spec)` as a view into the flat vector; writes go through."""
    layout = param_layout(spec)
    size = _param_count(layout)
    if values.shape != (size,):
        raise ValidationError(f"parameter vector has shape {values.shape}, the spec needs ({size},)")
    return {name: values[offset : offset + math.prod(shape)].reshape(shape) for name, shape, offset in layout}


def init_params(spec: ClassifierSpec) -> np.ndarray:
    """Fan-in-scaled uniform weights, zero biases, from the spec seed."""
    spec.validate()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    values = np.zeros(_param_count(param_layout(spec)), dtype=np.float64)
    for name, view in param_views(spec, values).items():
        if name.endswith("_b"):
            continue
        bound = 1.0 / math.sqrt(math.prod(view.shape[:-1]))
        view[...] = rng.uniform(-bound, bound, size=view.shape)
    return values


# patches per pass of the strided sum; bounds its float64 temporaries
_POOL_CHUNK = 256


def pool(spec: ClassifierSpec, x: np.ndarray) -> np.ndarray:
    """Average-pool raw patches (N, H, W, C) to the float64 input grid (N, H/f, W/f, C).

    Rows and columns past the last whole f x f window are dropped. A batch
    already in the pooled shape is only upcast (returned as is when it is
    float64), so pooling twice is pooling once. With pool factor 1 the two
    shapes coincide and the batch counts as pooled.
    """
    raw = (spec.input_height, spec.input_width, spec.channels)
    pooled = (*spec.pooled_shape, spec.channels)
    if x.ndim == 4 and x.shape[1:] == pooled:
        return np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or x.shape[1:] != raw:
        raise ValidationError(
            f"batch shape {x.shape} matches neither the raw spec input (B, {', '.join(map(str, raw))}) "
            f"nor the pooled input (B, {', '.join(map(str, pooled))})"
        )
    f = spec.pool_factor
    hp, wp = spec.pooled_shape
    out = np.empty((x.shape[0], hp, wp, spec.channels), dtype=np.float64)
    for lo in range(0, x.shape[0], _POOL_CHUNK):
        src = x[lo : lo + _POOL_CHUNK]
        dst = out[lo : lo + _POOL_CHUNK]
        dst[...] = src[:, : hp * f : f, : wp * f : f, :]
        for di in range(f):
            for dj in range(f):
                if di or dj:
                    dst += src[:, di : hp * f : f, dj : wp * f : f, :]
    out /= f * f
    return out


def _conv_side(n: int) -> int:
    """Output side of a valid 3x3 stride-2 convolution over `n` pixels."""
    return (n - _KERNEL) // _STRIDE + 1


def _im2col(x: np.ndarray) -> np.ndarray:
    """(B, H, W, C) -> C-contiguous (B*Ho*Wo, 9*C) windows at stride 2, in one copy.

    Rows are in (b, i, j) order and columns in (di, dj, c) order, so one
    row times the weights reshaped to (9*C, k) is one output pixel. For a
    fixed window row di, the 3 pixels x C channels are one contiguous run
    of the (contiguous) input, so the windows are a strided view of shape
    (B, Ho, Wo, 3, 3*C) that one copy makes contiguous. The copy is
    explicit because reshaping the view can return another strided view
    (when Wo is 1), and a strided operand takes a different BLAS path.
    """
    x = np.ascontiguousarray(x)
    b, h, w, c = x.shape
    ho, wo = _conv_side(h), _conv_side(w)
    sb, sh, sw, sc = x.strides
    windows = as_strided(
        x, shape=(b, ho, wo, _KERNEL, _KERNEL * c),
        strides=(sb, _STRIDE * sh, _STRIDE * sw, sh, sc), writeable=False,
    )
    return np.ascontiguousarray(windows).reshape(b * ho * wo, _KERNEL * _KERNEL * c)


def _col2im(dcols: np.ndarray, x_shape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of `_im2col`: scatter-add the (B*Ho*Wo, 9*C) rows back onto (B, H, W, C)."""
    b, h, w, c = x_shape
    ho, wo = _conv_side(h), _conv_side(w)
    dcols = dcols.reshape(b, ho, wo, _KERNEL, _KERNEL, c)
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    for di in range(_KERNEL):
        for dj in range(_KERNEL):
            dx[
                :, di : di + _STRIDE * (ho - 1) + 1 : _STRIDE, dj : dj + _STRIDE * (wo - 1) + 1 : _STRIDE, :
            ] += dcols[:, :, :, di, dj, :]
    return dx


def _forward_cached(spec: ClassifierSpec, params: np.ndarray, batch: np.ndarray) -> dict:
    pooled = (*spec.pooled_shape, spec.channels)
    if batch.ndim != 4 or batch.shape[1:] != pooled:
        raise ValidationError(
            f"batch shape {batch.shape} is not the pooled model input (B, {', '.join(map(str, pooled))}); "
            "pool raw patches with model.pool first"
        )
    # a float32 batch gives other bits in the matmuls than its float64 upcast
    x = np.asarray(batch, dtype=np.float64)
    p = param_views(spec, params)
    cols1 = _im2col(x)
    z1 = cols1 @ p["conv1_w"].reshape(-1, spec.k1)
    z1 += p["conv1_b"]
    a1_shape = (x.shape[0], _conv_side(x.shape[1]), _conv_side(x.shape[2]), spec.k1)
    cols2 = _im2col(np.maximum(z1, 0.0).reshape(a1_shape))
    z2 = cols2 @ p["conv2_w"].reshape(-1, spec.k2)
    z2 += p["conv2_b"]
    spatial = _conv_side(a1_shape[1]) * _conv_side(a1_shape[2])
    gap = z2.reshape(x.shape[0], spatial, spec.k2).mean(axis=1)
    logits = gap @ p["fc_w"] + p["fc_b"]
    return {
        "cols1": cols1, "z1": z1, "a1_shape": a1_shape,
        "cols2": cols2, "spatial": spatial, "gap": gap, "logits": logits,
    }


def forward(spec: ClassifierSpec, params: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Logits (B, 2) for a batch of pooled patches."""
    return _forward_cached(spec, params, batch)["logits"]


def _softmax_ce(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    b = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    se = ex.sum(axis=1, keepdims=True)
    logp = shifted - np.log(se)
    loss = float(-logp[np.arange(b), labels].mean())
    dlogits = ex / se
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits


def loss_and_grad(
    spec: ClassifierSpec, params: np.ndarray, batch: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its exact gradient as a flat vector."""
    labels = np.asarray(labels)
    if labels.shape != (batch.shape[0],):
        raise ValidationError(f"labels shape {labels.shape} does not match batch size {batch.shape[0]}")
    if labels.size and (labels.min() < 0 or labels.max() > 1):
        raise ValidationError("labels must be binary")

    cache = _forward_cached(spec, params, batch)
    loss, dlogits = _softmax_ce(cache["logits"], labels)

    p = param_views(spec, params)
    grad = np.zeros_like(params)
    g = param_views(spec, grad)
    gap = cache["gap"]
    g["fc_w"][...] = gap.T @ dlogits
    g["fc_b"][...] = dlogits.sum(axis=0)
    dgap = dlogits @ p["fc_w"].T

    # every output pixel of conv2 gets the same share of its sample's dgap
    spatial = cache["spatial"]
    dz2 = np.repeat(dgap / spatial, spatial, axis=0)
    g["conv2_w"][...] = (cache["cols2"].T @ dz2).reshape(_KERNEL, _KERNEL, spec.k1, spec.k2)
    g["conv2_b"][...] = dz2.sum(axis=0)
    dcols2 = dz2 @ p["conv2_w"].reshape(-1, spec.k2).T
    da1 = _col2im(dcols2, cache["a1_shape"]).reshape(-1, spec.k1)
    dz1 = da1 * (cache["z1"] > 0)  # subgradient 0 at the ReLU kink
    g["conv1_w"][...] = (cache["cols1"].T @ dz1).reshape(_KERNEL, _KERNEL, spec.channels, spec.k1)
    g["conv1_b"][...] = dz1.sum(axis=0)
    return loss, grad


def predict(spec: ClassifierSpec, params: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Argmax labels; an exact tie goes to label 0."""
    logits = forward(spec, params, batch)
    return (logits[:, 1] > logits[:, 0]).astype(np.int64)


def save_checkpoint(path: str | Path, spec: ClassifierSpec, params: np.ndarray) -> None:
    """A `.npy` file holds the flat float64 parameters as they are; a JSON sidecar holds the spec."""
    path = Path(path)
    sidecar = {
        "classifier_spec": asdict(spec),
        "layout": [[name, list(shape), offset] for name, shape, offset in param_layout(spec)],
    }
    write_tensor(path, params)
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2, sort_keys=True))


def load_checkpoint(path: str | Path) -> tuple[ClassifierSpec, np.ndarray]:
    """The spec and the float64 parameters of a checkpoint pair.

    A missing or malformed file of the pair, or a stored array that is not the
    float64 vector its layout describes, is a ValidationError naming the file.
    """
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    try:
        sidecar = json.loads(sidecar_path.read_text())
        spec = ClassifierSpec(**sidecar["classifier_spec"])
        layout = tuple((name, tuple(shape), offset) for name, shape, offset in sidecar["layout"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise ValidationError(f"{sidecar_path}: unreadable checkpoint sidecar: {e!r}") from e
    values = read_tensor(path)
    if layout != param_layout(spec):
        raise ValidationError(f"{path}: stored layout does not match the classifier spec")
    if values.dtype != np.float64:
        raise ValidationError(f"{path}: stored parameters are {values.dtype}, not float64")
    if values.shape != (_param_count(layout),):
        raise ValidationError(f"{path}: stored parameter count does not match the layout")
    return spec, values
