"""From-scratch sequence-to-sequence LSTM engine.

Encoder LSTM -> repeat final hidden state over the horizon -> decoder
LSTM -> per-step dense head (hidden then scalar output, both linear).
Backpropagation through time is exact and verified against central
finite differences; optimization is Adam with bias correction.

Training is float32; everything else is float64. The engine runs in the
dtype of its parameters: `train` trains a float32 copy of the model and
returns float64 parameters whose values are float32-exact, while the
validation loss, evaluation, prediction and `gradient_check` run the same
code in float64. A layer's steps are bound by `tanh` and memory traffic
more than by numpy call overhead: in float32 a forward pass takes
0.39-0.49x and a backward pass 0.44-0.70x the float64 time (README,
"Performance and determinism"). A single parameterization covers both
the 4-feature/14-day soil configuration and the 2-feature/1-step
vegetation-index configuration.

Each LSTM layer stores its gates fused (the cuDNN RNN layout, Appleyard,
Kumar & Sharma, arXiv 1604.01946): one W (4n, d), U (4n, n) and b (4n,),
gate blocks i, f, o, g; `w_i` ... `b_g` are row-slice views, and the
checkpoint holds the per-gate tensors in gate order. Samples are columns:
h and c are (n, B), the gates (4n, B), so each gate is a contiguous row
block and a step, W x_t + b + U h, is written into preallocated buffers
that `train` reuses per batch size. The decoder's input is always h_enc,
so it is projected once. The encoder's input is projected, and weight
gradients accumulate, step by step: at n = 200, 30 per-step projections
took 0.87 ms and one GEMM over all 30 took 1.57 ms; a time-stacked dU
GEMM needs a (T, 4n, B) block and was slower at n = 32. numpy only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    DivergenceError,
    GradientError,
    ShapeError,
    StaleCacheError,
)
from .timeseries import Scaler, WindowSet

CHECKPOINT_MAGIC = b"SMLSTM1\n"
_GATES = ("i", "f", "o", "g")


def _gate_view(tensor: str, k: int) -> property:
    def view(self) -> np.ndarray:
        n = self.hidden_dim
        return getattr(self, tensor)[k * n : (k + 1) * n]

    return property(view, doc=f"Rows of `{tensor}` for gate {_GATES[k]} (a view).")


@dataclass
class LstmLayerParams:
    """Fused gate parameters of one LSTM layer.

    `w` is (4n, d), `u` is (4n, n) and `b` is (4n,), with the gate
    blocks in the order i, f, o, g everywhere (arrays, checkpoints).
    `w_i` ... `b_g` are read-only attributes that return row-slice
    views of one gate's block.
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 2 or self.w.shape[0] % 4 or self.w.shape[0] == 0:
            raise ShapeError(f"W shape {self.w.shape} is not (4n, d)")
        n = self.hidden_dim
        if self.u.shape != (4 * n, n):
            raise ShapeError(f"U shape {self.u.shape} != {(4 * n, n)}")
        if self.b.shape != (4 * n,):
            raise ShapeError(f"b shape {self.b.shape} != {(4 * n,)}")

    w_i, w_f, w_o, w_g = (_gate_view("w", k) for k in range(4))
    u_i, u_f, u_o, u_g = (_gate_view("u", k) for k in range(4))
    b_i, b_f, b_o, b_g = (_gate_view("b", k) for k in range(4))

    @property
    def input_dim(self) -> int:
        return self.w.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w.shape[0] // 4

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """Tensors in checkpoint order: W, U, b."""
        return [("w", self.w), ("u", self.u), ("b", self.b)]


@dataclass
class DenseParams:
    """Affine layer y = W x + b with linear activation."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ShapeError("dense weight/bias shapes inconsistent")

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [("weight", self.weight), ("bias", self.bias)]


@dataclass(frozen=True)
class ModelShape:
    """Architecture dimensions of a seq2seq model."""

    input_dim: int
    encoder_hidden: int
    decoder_hidden: int
    dense_hidden: int
    horizon: int

    def __post_init__(self):
        for name in ("input_dim", "encoder_hidden", "decoder_hidden", "dense_hidden", "horizon"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class Seq2SeqModel:
    """Encoder/decoder LSTM with a per-step two-layer linear head.

    `scaler` (optional) describes the standardization of the input
    features; channel 0 is the target channel, so predictions are
    mapped back to original units with mean[0]/std[0].
    """

    encoder: LstmLayerParams
    decoder: LstmLayerParams
    head_hidden: DenseParams
    head_out: DenseParams
    horizon: int
    scaler: Scaler | None = None
    rev: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.decoder.input_dim != self.encoder.hidden_dim:
            raise ShapeError("decoder input_dim must equal encoder hidden_dim")
        if self.head_hidden.weight.shape[1] != self.decoder.hidden_dim:
            raise ShapeError("head_hidden input must equal decoder hidden_dim")
        if self.head_out.weight.shape != (1, self.head_hidden.weight.shape[0]):
            raise ShapeError("head_out must map dense_hidden -> 1")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")

    @property
    def input_dim(self) -> int:
        return self.encoder.input_dim

    @property
    def shape(self) -> ModelShape:
        return ModelShape(
            input_dim=self.encoder.input_dim,
            encoder_hidden=self.encoder.hidden_dim,
            decoder_hidden=self.decoder.hidden_dim,
            dense_hidden=self.head_hidden.weight.shape[0],
            horizon=self.horizon,
        )

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """All parameter tensors in checkpoint order, with dotted names."""
        parts = ("encoder", "decoder", "head_hidden", "head_out")
        return [(f"{part}.{k}", a) for part in parts for k, a in getattr(self, part).tensors()]

    @property
    def dtype(self) -> np.dtype:
        """The dtype every forward and backward pass of this model runs in."""
        return self.encoder.u.dtype

    def bump_rev(self) -> None:
        self.rev += 1


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop settings for `train`."""

    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    loss: str = "mse"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("adam betas must lie in (0, 1)")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.loss not in ("mse", "mae"):
            raise ValueError(f"loss must be 'mse' or 'mae', got {self.loss!r}")


# -- initialization -----------------------------------------------------------

def _glorot(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def _init_layer(rng: np.random.Generator, d: int, n: int) -> LstmLayerParams:
    """Per-gate Glorot blocks drawn in gate order, W blocks before U blocks."""
    w = np.concatenate([_glorot(rng, n, d) for _ in _GATES])
    u = np.concatenate([_glorot(rng, n, n) for _ in _GATES])
    b = np.zeros(4 * n)
    b[n : 2 * n] = 1.0  # forget-gate bias starts open
    return LstmLayerParams(w, u, b)


def init_params(shape: ModelShape, seed: int, scaler: Scaler | None = None) -> Seq2SeqModel:
    """Glorot-uniform initialization, forget bias 1, deterministic per seed."""
    rng = np.random.default_rng(seed)
    encoder = _init_layer(rng, shape.input_dim, shape.encoder_hidden)
    decoder = _init_layer(rng, shape.encoder_hidden, shape.decoder_hidden)
    head_hidden = DenseParams(_glorot(rng, shape.dense_hidden, shape.decoder_hidden), np.zeros(shape.dense_hidden))
    head_out = DenseParams(_glorot(rng, 1, shape.dense_hidden), np.zeros(1))
    return Seq2SeqModel(encoder, decoder, head_hidden, head_out, horizon=shape.horizon, scaler=scaler)


def copy_model(model: Seq2SeqModel, dtype: type = np.float64) -> Seq2SeqModel:
    """Deep copy of all parameter arrays, cast to `dtype` (scaler is shared, it is frozen)."""

    def copy(part):
        return type(part)(*(a.astype(dtype) for _, a in part.tensors()))

    parts = (model.encoder, model.decoder, model.head_hidden, model.head_out)
    return Seq2SeqModel(*map(copy, parts), horizon=model.horizon, scaler=model.scaler)


# -- forward -------------------------------------------------------------------

@dataclass
class _LayerTrace:
    """One layer's activations over T steps, samples as columns.

    `gates` (T, 4n, B) holds sigmoid i, f, o then tanh g; `h` and `c`
    (T+1, n, B) start from the zero state in slot 0; `tanh_c` is
    (T, n, B). A rolling trace has T = 1: step t uses slot t mod the
    length of each array. `xw` (4n, B) is the input projection W x + b.
    """

    gates: np.ndarray
    h: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    xw: np.ndarray

    @classmethod
    def empty(cls, n: int, batch: int, steps: int, dtype: np.dtype) -> "_LayerTrace":
        state = (steps + 1, n, batch)
        gates = np.empty((steps, 4 * n, batch), dtype)
        tanh_c = np.empty((steps, n, batch), dtype)
        return cls(gates, np.zeros(state, dtype), np.zeros(state, dtype), tanh_c, np.empty_like(gates[0]))


@dataclass
class ForwardCache:
    """Everything the backward pass needs from one forward pass."""

    x: np.ndarray  # (B, L, d) model input
    enc: _LayerTrace
    dec: _LayerTrace
    z: np.ndarray  # (H, dense_hidden, B) head hidden outputs
    predictions: np.ndarray  # (B, H)
    model_rev: int = -1

    @classmethod
    def empty(cls, model: Seq2SeqModel, x: np.ndarray) -> "ForwardCache":
        """Buffers in the model's dtype for a forward pass over `x`, which the cache keeps."""
        b, seq_len, _ = x.shape
        dtype = model.dtype
        enc = _LayerTrace.empty(model.encoder.hidden_dim, b, seq_len, dtype)
        dec = _LayerTrace.empty(model.decoder.hidden_dim, b, model.horizon, dtype)
        z = np.empty((model.horizon, model.head_hidden.weight.shape[0], b), dtype)
        return cls(x, enc, dec, z, np.empty((b, model.horizon), dtype))


def _sigmoid_(a: np.ndarray) -> np.ndarray:
    """In-place logistic sigmoid as 0.5 * tanh(0.5 * a) + 0.5; cannot overflow."""
    a *= 0.5
    np.tanh(a, out=a)
    a *= 0.5
    a += 0.5
    return a


def _step(p: LstmLayerParams, tr: _LayerTrace, t: int) -> np.ndarray:
    """Cell step t of `tr` from `tr.xw`, in place; returns the new h (n, B)."""
    n = p.hidden_dim
    a, tanh_c = tr.gates[t % len(tr.gates)], tr.tanh_c[t % len(tr.tanh_c)]
    h_prev, h = tr.h[t % len(tr.h)], tr.h[(t + 1) % len(tr.h)]
    c_prev, c = tr.c[t % len(tr.c)], tr.c[(t + 1) % len(tr.c)]
    np.matmul(p.u, h_prev, out=a)
    a += tr.xw
    _sigmoid_(a[: 3 * n])
    np.tanh(a[3 * n :], out=a[3 * n :])
    np.multiply(a[:n], a[3 * n :], out=tanh_c)  # i * g, the tanh_c slot as scratch
    np.multiply(a[n : 2 * n], c_prev, out=c)
    c += tanh_c
    np.tanh(c, out=tanh_c)
    return np.multiply(a[2 * n : 3 * n], tanh_c, out=h)


def _forward(model: Seq2SeqModel, x: np.ndarray, cache: ForwardCache | None) -> np.ndarray:
    """Forward pass over x (B, L, d) into `cache`, or in rolling state when it is None."""
    enc, dec, head_hidden, head_out = model.encoder, model.decoder, model.head_hidden, model.head_out
    b = x.shape[0]
    tr = cache.enc if cache is not None else _LayerTrace.empty(enc.hidden_dim, b, 1, model.dtype)
    for t, xt in enumerate(x.transpose(1, 2, 0)):  # xt (d, B), a view
        np.matmul(enc.w, xt, out=tr.xw)
        tr.xw += enc.b[:, None]
        _step(enc, tr, t)
    h_enc = tr.h[x.shape[1] % len(tr.h)]
    del tr  # a rolling encoder trace is freed before the decoder's is made

    tr = cache.dec if cache is not None else _LayerTrace.empty(dec.hidden_dim, b, 1, model.dtype)
    np.matmul(dec.w, h_enc, out=tr.xw)  # the decoder reads h_enc at every step
    tr.xw += dec.b[:, None]
    zs = cache.z if cache is not None else np.empty((1, head_hidden.weight.shape[0], b), model.dtype)
    preds = cache.predictions if cache is not None else np.empty((b, model.horizon), model.dtype)
    for k in range(model.horizon):
        z = np.matmul(head_hidden.weight, _step(dec, tr, k), out=zs[k % len(zs)])
        z += head_hidden.bias[:, None]
        preds[:, k] = (head_out.weight @ z)[0] + head_out.bias[0]
    if cache is not None:
        cache.model_rev = model.rev
    return preds


def _cast(a: np.ndarray, dtype: np.dtype, what: str) -> np.ndarray:
    """`a` in `dtype`; DataError when a value is not finite or lies past `dtype`'s range."""
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise DataError(f"non-finite values in {what}")
    limit = np.finfo(dtype).max
    if a.size and (a.max() > limit or a.min() < -limit):
        raise DataError(f"{what} exceeds the {np.dtype(dtype).name} range")
    return a.astype(dtype, copy=False)


def forward_batch(
    model: Seq2SeqModel, x: np.ndarray, keep_cache: bool = True
) -> tuple[np.ndarray, ForwardCache | None]:
    """Batched forward pass: x (B, L, d) -> predictions (B, H) plus cache.

    Runs in the model's dtype. Every call returns new arrays. With
    `keep_cache=False` the recurrence runs in rolling two-slot state and
    the cache comes back as None; the predictions are bit-identical
    either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != model.input_dim:
        raise ShapeError(f"input shape {x.shape} incompatible with input_dim={model.input_dim}")
    x = _cast(x, model.dtype, "model input")
    cache = ForwardCache.empty(model, x) if keep_cache else None
    return _forward(model, x, cache), cache


# -- loss ----------------------------------------------------------------------

def _loss_and_grad(preds: np.ndarray, targets: np.ndarray, kind: str) -> tuple[float, np.ndarray]:
    """Batch-mean loss and dLoss/dpreds, in the dtype of `preds`; per-sample loss is a mean over H."""
    err = preds - targets
    b, horizon = preds.shape
    if kind == "mse":
        value = float(np.sum(err * err) / (horizon * b))
        grad = 2.0 * err / (horizon * b)
    elif kind == "mae":
        value = float(np.sum(np.abs(err)) / (horizon * b))
        grad = np.sign(err) / (horizon * b)
    else:
        raise ValueError(f"unknown loss {kind!r}")
    return value, grad


def _error(pred: np.ndarray, target: np.ndarray, metric: str) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64).ravel()
    target = np.asarray(target, dtype=np.float64).ravel()
    if pred.size == 0 or pred.size != target.size:
        raise DataError(f"{metric} needs non-empty arrays of equal length")
    return pred - target


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Root mean squared error over flattened arrays of equal length."""
    return float(np.sqrt(np.mean(_error(pred, target, "rmse") ** 2)))


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute error over flattened arrays of equal length."""
    return float(np.mean(np.abs(_error(pred, target, "mae"))))


# -- backward ------------------------------------------------------------------

def zero_grads(model: Seq2SeqModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(a) for name, a in model.param_items()}


def _layer_backward(
    p: LstmLayerParams, tr: _LayerTrace, xs: np.ndarray, dh: np.ndarray, dh_ext: np.ndarray | None,
    grads: dict[str, np.ndarray], prefix: str,
) -> np.ndarray:
    """BPTT through the steps kept in `tr`; returns the summed gate gradients.

    `xs` is (T, d, B), one input per step, or (d, B), the input read at
    every step, whose weight gradient is then taken once from the sum.
    `dh` (n, B), overwritten, carries into the last step's h, and
    `dh_ext[t]` adds into step t's h.
    """
    n = p.hidden_dim
    da = np.empty_like(tr.gates[0])
    da_sum = np.zeros_like(da)
    dc = np.zeros_like(dh)
    sig_grad = np.empty_like(da[: 3 * n])
    di, df, do, dg = da[:n], da[n : 2 * n], da[2 * n : 3 * n], da[3 * n :]
    for t in range(len(tr.gates) - 1, -1, -1):
        if dh_ext is not None:
            dh += dh_ext[t]
        a, tanh_c = tr.gates[t], tr.tanh_c[t]
        i, f, o, g = a[:n], a[n : 2 * n], a[2 * n : 3 * n], a[3 * n :]
        np.multiply(dh, o, out=di)  # dc += dh * o * (1 - tanh_c^2), di and df as scratch
        np.multiply(tanh_c, tanh_c, out=df)
        np.subtract(1.0, df, out=df)
        di *= df
        dc += di
        np.multiply(dc, g, out=di)
        np.multiply(dc, tr.c[t], out=df)
        np.multiply(g, g, out=dg)
        np.subtract(1.0, dg, out=dg)
        dg *= np.multiply(dc, i, out=do)  # do as scratch
        np.multiply(dh, tanh_c, out=do)
        np.subtract(1.0, a[: 3 * n], out=sig_grad)
        sig_grad *= a[: 3 * n]
        da[: 3 * n] *= sig_grad

        da_sum += da
        grads[f"{prefix}.u"] += da @ tr.h[t].T
        if xs.ndim == 3:
            grads[f"{prefix}.w"] += da @ xs[t].T
        np.matmul(p.u.T, da, out=dh)
        dc *= f
    grads[f"{prefix}.b"] += da_sum.sum(axis=1)
    if xs.ndim == 2:
        grads[f"{prefix}.w"] += da_sum @ xs.T
    return da_sum


def backward_batch(
    model: Seq2SeqModel, cache: ForwardCache, targets: np.ndarray, loss: str = "mse"
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact BPTT gradients of the batch-mean loss w.r.t. every parameter."""
    if cache.model_rev != model.rev:
        raise StaleCacheError("forward cache predates a parameter update; rerun the forward pass")
    targets = np.asarray(targets, dtype=cache.predictions.dtype)
    if targets.shape != cache.predictions.shape:
        raise ShapeError(f"targets shape {targets.shape} != predictions shape {cache.predictions.shape}")

    value, d_preds = _loss_and_grad(cache.predictions, targets, loss)
    grads = zero_grads(model)
    head_hidden, head_out = model.head_hidden, model.head_out
    dh_head = np.empty_like(cache.dec.h[1:])
    for k, dy in enumerate(d_preds.T[:, None, :]):  # dy (1, B)
        z = cache.z[k]
        grads["head_out.weight"] += dy @ z.T
        grads["head_out.bias"] += dy.sum(axis=1)
        dz = head_out.weight.T @ dy
        grads["head_hidden.weight"] += dz @ cache.dec.h[k + 1].T
        grads["head_hidden.bias"] += dz.sum(axis=1)
        np.matmul(head_hidden.weight.T, dz, out=dh_head[k])

    h_enc = cache.enc.h[-1]
    dh = np.zeros_like(cache.dec.h[0])
    da_dec = _layer_backward(model.decoder, cache.dec, h_enc, dh, dh_head, grads, "decoder")
    dh_enc = model.decoder.w.T @ da_dec  # every decoder step reads h_enc
    _layer_backward(model.encoder, cache.enc, cache.x.transpose(1, 2, 0), dh_enc, None, grads, "encoder")
    return value, grads


# -- gradient verification --------------------------------------------------------

@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of an analytic-vs-finite-difference comparison."""

    max_rel_error: float
    worst_param: str
    worst_index: int
    n_checked: int
    tolerance: float
    passed: bool


def gradient_check(
    model: Seq2SeqModel,
    sample: tuple[np.ndarray, np.ndarray],
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    loss: str = "mse",
    corrupt: str | None = None,
) -> GradCheckReport:
    """Compare BPTT gradients with central finite differences.

    Sweeps every parameter coordinate. `corrupt` names a tensor whose
    first analytic entry is doubled, a fault injector used to prove the
    check can fail.
    Failures are reported, never raised.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x, target = sample
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64).reshape(1, -1)

    _, cache = forward_batch(model, x[None, :, :])
    _, grads = backward_batch(model, cache, target, loss)
    if corrupt is not None:
        if corrupt not in grads:
            raise ValueError(f"unknown tensor {corrupt!r}")
        grads[corrupt].flat[0] *= 2.0

    items = model.param_items()
    coords = [(name, j) for name, a in items for j in range(a.size)]

    arrays = dict(items)
    max_rel = 0.0
    worst = (coords[0][0], 0) if coords else ("", -1)
    for name, j in coords:
        a = arrays[name]
        orig = a.flat[j]
        a.flat[j] = orig + epsilon
        preds_p, _ = forward_batch(model, x[None, :, :], keep_cache=False)
        loss_p, _ = _loss_and_grad(preds_p, target, loss)
        a.flat[j] = orig - epsilon
        preds_m, _ = forward_batch(model, x[None, :, :], keep_cache=False)
        loss_m, _ = _loss_and_grad(preds_m, target, loss)
        a.flat[j] = orig
        numeric = (loss_p - loss_m) / (2.0 * epsilon)
        analytic = grads[name].flat[j]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if rel > max_rel:
            max_rel = rel
            worst = (name, j)
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_param=worst[0],
        worst_index=worst[1],
        n_checked=len(coords),
        tolerance=tolerance,
        passed=max_rel < tolerance,
    )


# -- Adam -----------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def init_adam_state(model: Seq2SeqModel) -> AdamState:
    return AdamState(
        step=0,
        m={name: np.zeros_like(a) for name, a in model.param_items()},
        v={name: np.zeros_like(a) for name, a in model.param_items()},
    )


def adam_step(
    model: Seq2SeqModel, grads: dict[str, np.ndarray], state: AdamState, config: TrainConfig
) -> tuple[Seq2SeqModel, AdamState]:
    """One bias-corrected Adam update, applied in place to the model."""
    t = state.step + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    for name, param in model.param_items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient in {name} at step {t}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    state.step = t
    model.bump_rev()
    return model, state


# -- training loop ------------------------------------------------------------------

def evaluate_loss(model: Seq2SeqModel, windows: WindowSet, loss: str = "mse", batch_size: int = 256) -> float:
    """Mean loss over a window set (original per-sample normalization)."""
    total = 0.0
    n = windows.n_samples
    for start in range(0, n, batch_size):
        xb = windows.inputs[start : start + batch_size]
        tb = windows.targets[start : start + batch_size, :, 0]
        preds, _ = forward_batch(model, xb, keep_cache=False)
        value, _ = _loss_and_grad(preds, tb, loss)
        total += value * xb.shape[0]
    return total / n


def train(
    model: Seq2SeqModel,
    train_windows: WindowSet,
    val_windows: WindowSet | None,
    config: TrainConfig,
) -> tuple[Seq2SeqModel, list[dict]]:
    """Mini-batch Adam training in float32; deterministic for a fixed (seed, data, config).

    The input model is not mutated. Inputs, targets and a copy of the
    model are cast to float32 once, and the Adam state is built from that
    copy. Each epoch's validation loss is computed in float64 on a
    float64 snapshot of the parameters. With a validation set, the
    best-validation epoch's snapshot is returned; otherwise a float64 copy
    of the final parameters. History records one entry per epoch.
    """
    if train_windows.n_samples < 1:
        raise DataError("training set is empty")
    if train_windows.input_dim != model.input_dim or train_windows.horizon != model.horizon:
        raise ShapeError("window set incompatible with model architecture")

    inputs = _cast(train_windows.inputs, np.float32, "model input")
    targets = _cast(train_windows.targets[:, :, 0], np.float32, "training targets")
    model = copy_model(model, np.float32)
    state = init_adam_state(model)
    rng = np.random.default_rng(config.seed)
    history: list[dict] = []
    best_val = np.inf
    best_params: Seq2SeqModel | None = None
    n = train_windows.n_samples
    caches: dict[int, ForwardCache] = {}  # one per batch size, reused by every batch

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if len(idx) not in caches:
                caches[len(idx)] = ForwardCache.empty(model, np.empty((len(idx), *inputs.shape[1:]), inputs.dtype))
            cache = caches[len(idx)]
            np.take(inputs, idx, axis=0, out=cache.x)
            _forward(model, cache.x, cache)
            value, grads = backward_batch(model, cache, targets[idx], config.loss)
            if not np.isfinite(value):
                raise DivergenceError(f"training loss became non-finite at epoch {epoch}")
            epoch_loss += value * len(idx)
            adam_step(model, grads, state, config)
        entry = {"epoch": epoch, "train_loss": epoch_loss / n, "val_loss": None}
        if val_windows is not None and val_windows.n_samples > 0:
            snapshot = copy_model(model)
            val_loss = evaluate_loss(snapshot, val_windows, config.loss)
            if not np.isfinite(val_loss):
                raise DivergenceError(f"validation loss became non-finite at epoch {epoch}")
            entry["val_loss"] = val_loss
            if val_loss < best_val:
                best_val = val_loss
                best_params = snapshot
        history.append(entry)

    return best_params if best_params is not None else copy_model(model), history


def predict(model: Seq2SeqModel, x: np.ndarray) -> np.ndarray:
    """Forward pass plus inversion of the target-channel scaling.

    `x` is expected in the model's (scaled) input units; the returned
    H-vector is in original units when the model carries a scaler.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected a (L, d) input, got shape {x.shape}")
    return predict_batch(model, x[None, :, :])[0]


def predict_batch(model: Seq2SeqModel, x: np.ndarray) -> np.ndarray:
    """Batched `predict`: (B, L, d) scaled inputs -> (B, H) original units."""
    preds, _ = forward_batch(model, x, keep_cache=False)
    if model.scaler is None:
        return preds
    return np.asarray(model.scaler.invert_feature(preds, 0), dtype=np.float64)


# -- checkpoint I/O --------------------------------------------------------------

def save_model(model: Seq2SeqModel, path: str | Path, config_echo: dict | None = None) -> None:
    """Write magic + one-line JSON header + float64-LE tensors in fixed order."""
    header = {
        **asdict(model.shape),
        "scaler": None
        if model.scaler is None
        else {"mean": model.scaler.mean.tolist(), "std": model.scaler.std.tolist()},
        "config": config_echo,
    }
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for _, a in model.param_items():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_model(path: str | Path) -> Seq2SeqModel:
    """Read a checkpoint written by save_model."""
    with Path(path).open("rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a model checkpoint (bad magic)")
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: corrupt checkpoint header: {exc}") from None
        shape = ModelShape(*(header[f.name] for f in fields(ModelShape)))
        scaler = None
        if header.get("scaler") is not None:
            scaler = Scaler(
                mean=np.asarray(header["scaler"]["mean"], dtype=np.float64),
                std=np.asarray(header["scaler"]["std"], dtype=np.float64),
            )
        model = init_params(shape, seed=0, scaler=scaler)
        for name, a in model.param_items():
            raw = fh.read(a.size * 8)
            if len(raw) != a.size * 8:
                raise DataError(f"{path}: checkpoint truncated at tensor {name}")
            a[...] = np.frombuffer(raw, dtype="<f8").reshape(a.shape)
        trailing = fh.read(1)
        if trailing:
            raise DataError(f"{path}: trailing bytes after final tensor")
    return model
