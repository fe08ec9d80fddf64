"""From-scratch sequence-to-sequence LSTM engine.

Encoder LSTM -> repeat final hidden state over the horizon -> decoder
LSTM -> per-step dense head (hidden then scalar output, both linear).
Backpropagation through time is exact and verified against central
finite differences; optimization is Adam with bias correction.

All math is 64-bit; a single parameterization covers both the
4-feature/14-day soil configuration and the 2-feature/1-step
vegetation-index configuration.

Each LSTM layer stores its gates fused (the cuDNN RNN layout, Appleyard,
Kumar & Sharma, arXiv 1604.01946): one W (4n, d), U (4n, n) and b (4n,),
gate blocks i, f, o, g, so a step is one GEMM pair. The decoder's input
is always h_enc, so its projection is computed once; the encoder's is
not hoisted over all L steps, because that (B, L, 4n) block raised the
peak memory of large-batch evaluation at the paper widths by about half.
`w_i` ... `b_g` are row-slice views; the fused bytes are the per-gate
tensors in gate order, so checkpoints keep their layout. numpy only.
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


def copy_model(model: Seq2SeqModel) -> Seq2SeqModel:
    """Deep copy of all parameter arrays (scaler is shared, it is frozen)."""

    def copy(part):
        return type(part)(*(a.copy() for _, a in part.tensors()))

    parts = (model.encoder, model.decoder, model.head_hidden, model.head_out)
    return Seq2SeqModel(*map(copy, parts), horizon=model.horizon, scaler=model.scaler)


# -- forward -------------------------------------------------------------------

@dataclass
class _CellStep:
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray  # (B, 4n) activations: sigmoid i, f, o then tanh g
    tanh_c: np.ndarray


@dataclass
class ForwardCache:
    """Everything the backward pass needs from one forward pass."""

    x: np.ndarray
    enc_steps: list[_CellStep]
    dec_steps: list[_CellStep]
    h_enc_final: np.ndarray
    head_inputs: list[np.ndarray]   # decoder h per step, (B, n_dec)
    head_hidden_out: list[np.ndarray]  # (B, dense_hidden)
    predictions: np.ndarray  # (B, H)
    model_rev: int


def _sigmoid_(a: np.ndarray) -> np.ndarray:
    """In-place logistic sigmoid as 0.5 * tanh(0.5 * a) + 0.5; cannot overflow."""
    a *= 0.5
    np.tanh(a, out=a)
    a *= 0.5
    a += 0.5
    return a


def _cell_step(p: LstmLayerParams, x: np.ndarray, xw: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray):
    """One step from `xw`, the precomputed input projection x @ W.T + b."""
    n = p.hidden_dim
    gates = xw + h_prev @ p.u.T
    _sigmoid_(gates[:, : 3 * n])
    g = gates[:, 3 * n :]
    np.tanh(g, out=g)
    c = gates[:, n : 2 * n] * c_prev + gates[:, :n] * g
    tanh_c = np.tanh(c)
    h = gates[:, 2 * n : 3 * n] * tanh_c
    return h, c, _CellStep(x, h_prev, c_prev, gates, tanh_c)


def forward_batch(
    model: Seq2SeqModel, x: np.ndarray, keep_cache: bool = True
) -> tuple[np.ndarray, ForwardCache | None]:
    """Batched forward pass: x (B, L, d) -> predictions (B, H) plus cache.

    With `keep_cache=False` the per-step activations are dropped as soon
    as the next step has consumed them and the cache comes back as None;
    the predictions are bit-identical either way.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != model.input_dim:
        raise ShapeError(f"input shape {x.shape} incompatible with input_dim={model.input_dim}")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite values in model input")
    b, seq_len, _ = x.shape
    enc, dec = model.encoder, model.decoder

    h = np.zeros((b, enc.hidden_dim))
    c = np.zeros_like(h)
    enc_steps: list[_CellStep] = []
    for t in range(seq_len):
        xt = x[:, t, :]
        h, c, step = _cell_step(enc, xt, xt @ enc.w.T + enc.b, h, c)
        if keep_cache:
            enc_steps.append(step)
    h_enc = h

    hw = h_enc @ dec.w.T + dec.b  # the decoder reads h_enc at every step
    hd = np.zeros((b, dec.hidden_dim))
    cd = np.zeros_like(hd)
    dec_steps: list[_CellStep] = []
    head_inputs: list[np.ndarray] = []
    head_hidden_out: list[np.ndarray] = []
    preds = np.empty((b, model.horizon))
    for k in range(model.horizon):
        hd, cd, step = _cell_step(dec, h_enc, hw, hd, cd)
        z = hd @ model.head_hidden.weight.T + model.head_hidden.bias
        y = z @ model.head_out.weight.T + model.head_out.bias
        if keep_cache:
            dec_steps.append(step)
            head_inputs.append(hd)
            head_hidden_out.append(z)
        preds[:, k] = y[:, 0]

    if not keep_cache:
        return preds, None
    cache = ForwardCache(x, enc_steps, dec_steps, h_enc, head_inputs, head_hidden_out, preds, model.rev)
    return preds, cache


def seq2seq_forward(model: Seq2SeqModel, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Single-sample forward: x (L, d) -> (H,) prediction plus cache."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected a (L, d) input, got shape {x.shape}")
    preds, cache = forward_batch(model, x[None, :, :])
    return preds[0], cache


# -- loss ----------------------------------------------------------------------

def _loss_and_grad(preds: np.ndarray, targets: np.ndarray, kind: str) -> tuple[float, np.ndarray]:
    """Batch-mean loss and dLoss/dpreds; per-sample loss is a mean over H."""
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


def _cell_backward(
    p: LstmLayerParams,
    s: _CellStep,
    dh: np.ndarray,
    dc: np.ndarray,
    grads: dict[str, np.ndarray],
    prefix: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backprop one cell step; returns (da, dh_prev, dc_prev).

    `da` (B, 4n) is the gradient w.r.t. the gate pre-activations, so
    the caller gets dx as da @ W.
    """
    n = p.hidden_dim
    gates = s.gates
    sig = gates[:, : 3 * n]
    i, f, o, g = gates[:, :n], gates[:, n : 2 * n], gates[:, 2 * n : 3 * n], gates[:, 3 * n :]
    dc_tot = dc + dh * o * (1.0 - s.tanh_c * s.tanh_c)
    da = np.empty_like(gates)
    da[:, :n] = dc_tot * g
    da[:, n : 2 * n] = dc_tot * s.c_prev
    da[:, 2 * n : 3 * n] = dh * s.tanh_c
    da[:, : 3 * n] *= sig * (1.0 - sig)
    da[:, 3 * n :] = dc_tot * i * (1.0 - g * g)

    grads[f"{prefix}.w"] += da.T @ s.x
    grads[f"{prefix}.u"] += da.T @ s.h_prev
    grads[f"{prefix}.b"] += da.sum(axis=0)
    return da, da @ p.u, dc_tot * f


def backward_batch(
    model: Seq2SeqModel, cache: ForwardCache, targets: np.ndarray, loss: str = "mse"
) -> tuple[float, dict[str, np.ndarray]]:
    """Exact BPTT gradients of the batch-mean loss w.r.t. every parameter."""
    if cache.model_rev != model.rev:
        raise StaleCacheError("forward cache predates a parameter update; rerun the forward pass")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != cache.predictions.shape:
        raise ShapeError(f"targets shape {targets.shape} != predictions shape {cache.predictions.shape}")

    value, d_preds = _loss_and_grad(cache.predictions, targets, loss)
    grads = zero_grads(model)
    b = cache.x.shape[0]

    dh_carry = np.zeros((b, model.decoder.hidden_dim))
    dc_carry = np.zeros_like(dh_carry)
    da_dec = np.zeros((b, 4 * model.decoder.hidden_dim))
    for k in range(model.horizon - 1, -1, -1):
        dy = d_preds[:, k : k + 1]
        z = cache.head_hidden_out[k]
        hd = cache.head_inputs[k]
        grads["head_out.weight"] += dy.T @ z
        grads["head_out.bias"] += dy.sum(axis=0)
        dz = dy @ model.head_out.weight
        grads["head_hidden.weight"] += dz.T @ hd
        grads["head_hidden.bias"] += dz.sum(axis=0)
        dh = dz @ model.head_hidden.weight + dh_carry
        da, dh_carry, dc_carry = _cell_backward(model.decoder, cache.dec_steps[k], dh, dc_carry, grads, "decoder")
        da_dec += da

    dh_carry = da_dec @ model.decoder.w  # every decoder step reads h_enc
    dc_carry = np.zeros((b, model.encoder.hidden_dim))
    for t in range(len(cache.enc_steps) - 1, -1, -1):
        _, dh_carry, dc_carry = _cell_backward(model.encoder, cache.enc_steps[t], dh_carry, dc_carry, grads, "encoder")

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
    """Mini-batch Adam training; deterministic for a fixed (seed, data, config).

    The input model is not mutated. With a validation set, the
    parameters from the best-validation epoch are returned; otherwise
    the final parameters. History records one entry per epoch.
    """
    if train_windows.n_samples < 1:
        raise DataError("training set is empty")
    if train_windows.input_dim != model.input_dim or train_windows.horizon != model.horizon:
        raise ShapeError("window set incompatible with model architecture")

    model = copy_model(model)
    state = init_adam_state(model)
    rng = np.random.default_rng(config.seed)
    history: list[dict] = []
    best_val = np.inf
    best_params: Seq2SeqModel | None = None
    n = train_windows.n_samples

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = train_windows.inputs[idx]
            tb = train_windows.targets[idx, :, 0]
            preds, cache = forward_batch(model, xb)
            value, grads = backward_batch(model, cache, tb, config.loss)
            if not np.isfinite(value):
                raise DivergenceError(f"training loss became non-finite at epoch {epoch}")
            epoch_loss += value * xb.shape[0]
            adam_step(model, grads, state, config)
        entry = {"epoch": epoch, "train_loss": epoch_loss / n, "val_loss": None}
        if val_windows is not None and val_windows.n_samples > 0:
            val_loss = evaluate_loss(model, val_windows, config.loss)
            if not np.isfinite(val_loss):
                raise DivergenceError(f"validation loss became non-finite at epoch {epoch}")
            entry["val_loss"] = val_loss
            if val_loss < best_val:
                best_val = val_loss
                best_params = copy_model(model)
        history.append(entry)

    if best_params is not None:
        best_params.scaler = model.scaler
        model = best_params
    return model, history


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
