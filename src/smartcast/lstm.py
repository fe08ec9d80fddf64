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
gate blocks i, f, o, g, each a block of n rows. A model's
parameters are one vector in `ModelShape.layout()` order, the checkpoint's
per-gate order, and every tensor is a view into it; a gradient and Adam's
moments share that layout, so a cast, a copy, an Adam step or a checkpoint
is one pass over one vector. Samples are columns:
h and c are (n, B), the gates (4n, B), so each gate is a contiguous row
block and a step, W x_t + b + U h, is written into preallocated buffers
of which `train` keeps one set at a time. The decoder's input is always
h_enc, so it is projected once. The encoder's input is projected, and weight
gradients accumulate, step by step: at n = 200, 30 per-step projections
took 0.87 ms and one GEMM over all 30 took 1.57 ms; a time-stacked dU
GEMM needs a (T, 4n, B) block and was slower at n = 32. numpy only.

The forward trace keeps each layer's gates and cell states, nothing
else. Backpropagation through time rebuilds each h_t = o_{t-1} tanh(c_t)
from them with the forward step's own ufuncs and operands, so the
gradients keep every bit and no GEMM runs twice (recomputation as in
Chen et al., arXiv 1604.06174, but of elementwise values only). `train`
keeps one gradient alive, runs a short batch in a prefix of the
full-size buffers, and Adam steps through the vector in chunks. At the
paper's widths (200/200/100, batches of 64) one epoch's `tracemalloc`
peak went from 29.3 MB to 22.2 MB.
"""

from __future__ import annotations

import json
import math
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


@dataclass
class LstmLayerParams:
    """Fused gate parameters of one LSTM layer.

    `w` is (4n, d), `u` is (4n, n) and `b` is (4n,), with the gate
    blocks in the order i, f, o, g everywhere (arrays, checkpoints):
    gate k's block is rows k*n to (k+1)*n.
    """

    w: np.ndarray
    u: np.ndarray
    b: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w.shape[0] // 4


@dataclass
class DenseParams:
    """Affine layer y = W x + b with linear activation."""

    weight: np.ndarray
    bias: np.ndarray


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

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        """Every parameter tensor's name and shape, in flat-vector and checkpoint order."""
        d, ne, nd, m = self.input_dim, self.encoder_hidden, self.decoder_hidden, self.dense_hidden
        return [
            ("encoder.w", (4 * ne, d)), ("encoder.u", (4 * ne, ne)), ("encoder.b", (4 * ne,)),
            ("decoder.w", (4 * nd, ne)), ("decoder.u", (4 * nd, nd)), ("decoder.b", (4 * nd,)),
            ("head_hidden.weight", (m, nd)), ("head_hidden.bias", (m,)),
            ("head_out.weight", (1, m)), ("head_out.bias", (1,)),
        ]

    @property
    def n_params(self) -> int:
        return sum(math.prod(dims) for _, dims in self.layout())

    def locate(self, j: int) -> tuple[str, int, str | None]:
        """The tensor holding flat[j], j's index within it and, in a fused LSTM tensor, its gate."""
        for name, dims in self.layout():
            size = math.prod(dims)
            if j < size:
                fused = name.startswith(("encoder.", "decoder."))
                return name, j, _GATES[j // math.prod(dims[1:]) // (dims[0] // 4)] if fused else None
            j -= size
        raise IndexError(f"parameter {j} lies past the layout")


@dataclass
class Seq2SeqModel:
    """Encoder/decoder LSTM with a per-step two-layer linear head.

    Every parameter lives in `flat`, laid out by `shape.layout()`;
    `tensors` (name -> array), `encoder`, `decoder`, `head_hidden` and
    `head_out` are views into it. A gradient is a model of the same shape
    over its own vector. `scaler` (optional) is the standardization the
    model trains and `evaluate_loss` scores in; `predict_batch` takes and
    returns original units, channel 0 being the target.
    """

    shape: ModelShape
    flat: np.ndarray
    scaler: Scaler | None = None
    rev: int = field(default=0, compare=False)
    tensors: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    encoder: LstmLayerParams = field(init=False, repr=False, compare=False)
    decoder: LstmLayerParams = field(init=False, repr=False, compare=False)
    head_hidden: DenseParams = field(init=False, repr=False, compare=False)
    head_out: DenseParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layout = self.shape.layout()
        if self.flat.shape != (self.shape.n_params,):
            raise ShapeError(f"parameter vector shape {self.flat.shape} != ({self.shape.n_params},)")
        parts = np.split(self.flat, np.cumsum([math.prod(dims) for _, dims in layout])[:-1])
        self.tensors = t = {name: part.reshape(dims) for (name, dims), part in zip(layout, parts)}
        self.encoder = LstmLayerParams(t["encoder.w"], t["encoder.u"], t["encoder.b"])
        self.decoder = LstmLayerParams(t["decoder.w"], t["decoder.u"], t["decoder.b"])
        self.head_hidden = DenseParams(t["head_hidden.weight"], t["head_hidden.bias"])
        self.head_out = DenseParams(t["head_out.weight"], t["head_out.bias"])

    def __reduce__(self):
        # Pickle `flat` once; the views are rebuilt over the unpickled copy.
        return type(self), (self.shape, self.flat, self.scaler)

    @property
    def input_dim(self) -> int:
        return self.shape.input_dim

    @property
    def horizon(self) -> int:
        return self.shape.horizon

    @property
    def dtype(self) -> np.dtype:
        """The dtype every forward and backward pass of this model runs in."""
        return self.flat.dtype

    def bump_rev(self) -> None:
        self.rev += 1


@dataclass(frozen=True)
class TrainConfig:
    """`train`'s step size and loop settings; the loss is MSE and Adam's
    constants are ADAM_BETA1, ADAM_BETA2 and ADAM_EPSILON."""

    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")


# -- initialization -----------------------------------------------------------

def _glorot(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def init_params(shape: ModelShape, seed: int, scaler: Scaler | None = None) -> Seq2SeqModel:
    """Glorot-uniform initialization, forget bias 1, deterministic per seed.

    Per-gate blocks are drawn in gate order, each layer's W blocks before
    its U blocks, the encoder before the decoder, then the head.
    """
    rng = np.random.default_rng(seed)
    model = Seq2SeqModel(shape, np.zeros(shape.n_params), scaler)
    for layer in (model.encoder, model.decoder):
        n, d = layer.hidden_dim, layer.input_dim
        layer.w[...] = np.concatenate([_glorot(rng, n, d) for _ in _GATES])
        layer.u[...] = np.concatenate([_glorot(rng, n, n) for _ in _GATES])
        layer.b[n : 2 * n] = 1.0  # forget-gate bias starts open
    model.head_hidden.weight[...] = _glorot(rng, shape.dense_hidden, shape.decoder_hidden)
    model.head_out.weight[...] = _glorot(rng, 1, shape.dense_hidden)
    return model


def copy_model(model: Seq2SeqModel, dtype: type = np.float64) -> Seq2SeqModel:
    """Copy of the parameter vector, cast to `dtype` (scaler is shared, it is frozen)."""
    return Seq2SeqModel(model.shape, model.flat.astype(dtype), model.scaler)


# -- forward -------------------------------------------------------------------

@dataclass
class _LayerTrace:
    """One layer's activations over T steps, samples as columns.

    `gates` (T, 4n, B) holds sigmoid i, f, o then tanh g and `c`
    (T+1, n, B) the cell states, from the zero state in slot 0. `h` rolls
    in two slots, step t reading slot t mod 2, and `tanh_c` (n, B) is one
    slot: the backward pass rebuilds both from `gates` and `c`. A rolling
    trace has T = 1, step t using `gates` slot 0 and `c` slot t mod 2.
    `xw` (4n, B) is the input projection W x + b. A new trace starts at
    zero, so the pages of a slot that is only read, such as a one-step
    decoder's zero state, are never touched; `_forward` zeroes a cache's
    zero-state slots again, since a reused cache has overwritten them.
    """

    gates: np.ndarray
    h: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    xw: np.ndarray

    @classmethod
    def empty(cls, n: int, batch: int, steps: int, dtype: np.dtype) -> "_LayerTrace":
        gates, tanh_c = np.empty((steps, 4 * n, batch), dtype), np.empty((n, batch), dtype)
        h, c = np.zeros((2, n, batch), dtype), np.zeros((steps + 1, n, batch), dtype)
        return cls(gates, h, c, tanh_c, np.empty_like(gates[0]))

    def prefix(self, batch: int) -> "_LayerTrace":
        """This trace for `batch` columns, over the first elements of each buffer."""
        return _LayerTrace(**{f.name: _batch_prefix(getattr(self, f.name), batch) for f in fields(self)})


def _batch_prefix(a: np.ndarray, batch: int) -> np.ndarray:
    """The first size / B * `batch` elements of C-contiguous `a`, last axis B, as `batch` columns."""
    return a.reshape(-1)[: a.size // a.shape[-1] * batch].reshape(*a.shape[:-1], batch)


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

    def prefix(self, batch: int) -> "ForwardCache":
        """A cache for `batch` <= B samples over the first elements of each of this cache's buffers."""
        enc, dec, z = self.enc.prefix(batch), self.dec.prefix(batch), _batch_prefix(self.z, batch)
        return ForwardCache(self.x[:batch], enc, dec, z, self.predictions[:batch])

    @property
    def h_enc(self) -> np.ndarray:
        """The encoder's final state (ne, B), which every decoder step reads."""
        return self.enc.h[len(self.enc.gates) % 2]


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
    a, tanh_c = tr.gates[t % len(tr.gates)], tr.tanh_c
    h_prev, h = tr.h[t % 2], tr.h[(t + 1) % 2]
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
    if cache is not None:  # a reused cache's zero state was overwritten
        tr.h[0] = tr.c[0] = 0.0
    bias = enc.b[:, None]
    for t, xt in enumerate(x.transpose(1, 2, 0)):  # xt (d, B), a view
        np.matmul(enc.w, xt, out=tr.xw)
        tr.xw += bias
        _step(enc, tr, t)
    h_enc = tr.h[x.shape[1] % 2]
    del tr  # a rolling encoder trace is freed before the decoder's is made

    tr = cache.dec if cache is not None else _LayerTrace.empty(dec.hidden_dim, b, 1, model.dtype)
    if cache is not None:
        tr.h[0] = tr.c[0] = 0.0
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
    """`a` in `dtype`, itself when it is a `dtype` array; DataError when a
    value is not finite or lies past `dtype`'s range."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype):
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

def _loss_and_grad(preds: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean squared error and dLoss/dpreds, in the dtype of `preds`; per-sample loss is a mean over H."""
    err = preds - targets
    b, horizon = preds.shape
    return float(np.sum(err * err) / (horizon * b)), 2.0 * err / (horizon * b)


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

def _layer_backward(
    p: LstmLayerParams, tr: _LayerTrace, xs: np.ndarray, dh: np.ndarray,
    head: tuple[np.ndarray, np.ndarray, np.ndarray] | None, grad: LstmLayerParams,
) -> np.ndarray:
    """BPTT through the steps kept in `tr`, adding into `grad`; returns the summed gate gradients.

    `xs` is (T, d, B), one input per step, or (d, B), the input read at
    every step, whose weight gradient is then taken once from the sum.
    `dh` (n, B), overwritten, carries into the last step's h. `head`,
    the dense head's weights and the loss gradient dy (T, 1, B) of its
    outputs, adds the head's gradient at step t's h into it. Step t's
    input h_t = o_{t-1} tanh(c_t) is rebuilt from the trace with the
    ufuncs and operands of the forward step, so it has the same bits,
    and its tanh(c_t) is carried to step t-1.
    """
    n, steps = p.hidden_dim, len(tr.gates)
    da = np.empty_like(tr.gates[0])
    da_sum = np.zeros_like(da)
    dc = np.zeros_like(dh)
    sig_grad = np.empty_like(da[: 3 * n])
    tanh_c, h = np.tanh(tr.c[steps]), np.empty_like(dh)
    du = np.empty_like(grad.u)
    dw = np.empty_like(grad.w) if xs.ndim == 3 else None
    if head is not None:
        w_hidden, w_out, dy = head
        dz, dh_head = np.empty((len(w_hidden), dh.shape[1]), dh.dtype), np.empty_like(dh)
    di, df, do, dg, da_sig, u_t = da[:n], da[n : 2 * n], da[2 * n : 3 * n], da[3 * n :], da[: 3 * n], p.u.T
    for t in range(steps - 1, -1, -1):
        if head is not None:
            np.matmul(w_out.T, dy[t], out=dz)
            dh += np.matmul(w_hidden.T, dz, out=dh_head)
        a = tr.gates[t]
        i, f, o, g, sig = a[:n], a[n : 2 * n], a[2 * n : 3 * n], a[3 * n :], a[: 3 * n]
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
        np.subtract(1.0, sig, out=sig_grad)
        sig_grad *= sig
        da_sig *= sig_grad

        da_sum += da
        if t:
            np.tanh(tr.c[t], out=tanh_c)
            np.multiply(tr.gates[t - 1, 2 * n : 3 * n], tanh_c, out=h)
        else:
            h.fill(0.0)  # the zero initial state
        grad.u += np.matmul(da, h.T, out=du)
        if dw is not None:
            grad.w += np.matmul(da, xs[t].T, out=dw)
        np.matmul(u_t, da, out=dh)
        dc *= f
    del du  # freed before a shared input's weight gradient is made
    grad.b += da_sum.sum(axis=1)
    if dw is None:
        grad.w += da_sum @ xs.T
    return da_sum


def backward_batch(
    model: Seq2SeqModel, cache: ForwardCache, targets: np.ndarray
) -> tuple[float, Seq2SeqModel]:
    """Exact BPTT gradients of the batch-mean squared error w.r.t. every parameter.

    The gradient comes back as a model of the same shape and dtype whose
    parameter vector holds dLoss/dflat.
    """
    if cache.model_rev != model.rev:
        raise StaleCacheError("forward cache predates a parameter update; rerun the forward pass")
    targets = np.asarray(targets, dtype=cache.predictions.dtype)
    if targets.shape != cache.predictions.shape:
        raise ShapeError(f"targets shape {targets.shape} != predictions shape {cache.predictions.shape}")

    value, d_preds = _loss_and_grad(cache.predictions, targets)
    grad = Seq2SeqModel(model.shape, np.zeros_like(model.flat))
    head_hidden, head_out, dec = model.head_hidden, model.head_out, cache.dec
    dys = d_preds.T[:, None, :]  # (H, 1, B)
    h = np.tanh(dec.c[1:])  # the decoder's outputs h_1..h_H, rebuilt as its steps made them
    h *= dec.gates[:, 2 * model.decoder.hidden_dim : 3 * model.decoder.hidden_dim]
    for k, dy in enumerate(dys):
        grad.head_out.weight += dy @ cache.z[k].T
        grad.head_out.bias += dy.sum(axis=1)
        dz = head_out.weight.T @ dy
        grad.head_hidden.weight += dz @ h[k].T
        grad.head_hidden.bias += dz.sum(axis=1)
    del h

    head = (head_hidden.weight, head_out.weight, dys)
    da_dec = _layer_backward(model.decoder, dec, cache.h_enc, np.zeros_like(dec.tanh_c), head, grad.decoder)
    dh_enc = model.decoder.w.T @ da_dec  # every decoder step reads h_enc
    del da_dec
    _layer_backward(model.encoder, cache.enc, cache.x.transpose(1, 2, 0), dh_enc, None, grad.encoder)
    return value, grad


# -- gradient verification --------------------------------------------------------

GRADCHECK_STEP = 1e-5
GRADCHECK_TOLERANCE = 1e-4


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of an analytic-vs-finite-difference comparison."""

    max_rel_error: float
    worst_param: str
    worst_index: int
    worst_gate: str | None
    n_checked: int
    tolerance: float
    passed: bool


def gradient_check(
    model: Seq2SeqModel, sample: tuple[np.ndarray, np.ndarray], corrupt: str | None = None
) -> GradCheckReport:
    """Compare BPTT gradients with central finite differences.

    Sweeps every coordinate of the parameter vector with a step of
    `GRADCHECK_STEP` and passes below `GRADCHECK_TOLERANCE`. The worst
    coordinate is reported by tensor, index within it and, in a fused
    LSTM tensor, gate. `corrupt` names a tensor whose first analytic
    entry is doubled, a fault injector used to prove the check can fail.
    Failures are reported, never raised.
    """
    x, target = sample
    x = np.asarray(x, dtype=np.float64)[None, :, :]
    target = np.asarray(target, dtype=np.float64).reshape(1, -1)

    _, cache = forward_batch(model, x)
    _, grad = backward_batch(model, cache, target)
    if corrupt is not None:
        if corrupt not in grad.tensors:
            raise ValueError(f"unknown tensor {corrupt!r}")
        grad.tensors[corrupt].flat[0] *= 2.0

    flat, max_rel, worst = model.flat, 0.0, 0
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + GRADCHECK_STEP
        loss_p, _ = _loss_and_grad(forward_batch(model, x, keep_cache=False)[0], target)
        flat[j] = orig - GRADCHECK_STEP
        loss_m, _ = _loss_and_grad(forward_batch(model, x, keep_cache=False)[0], target)
        flat[j] = orig
        numeric = (loss_p - loss_m) / (2.0 * GRADCHECK_STEP)
        analytic = grad.flat[j]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if rel > max_rel:
            max_rel, worst = rel, j
    name, index, gate = model.shape.locate(worst)
    return GradCheckReport(max_rel, name, index, gate, flat.size, GRADCHECK_TOLERANCE, max_rel < GRADCHECK_TOLERANCE)


# -- Adam -----------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment vectors, laid out as the parameter vector, plus the step counter."""

    step: int
    m: np.ndarray
    v: np.ndarray


def init_adam_state(model: Seq2SeqModel) -> AdamState:
    return AdamState(step=0, m=np.zeros_like(model.flat), v=np.zeros_like(model.flat))


ADAM_CHUNK = 1 << 16  # entries per pass: bounds the step's scratch at 256 KiB in float32
# Adam's published constants (Kingma & Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def adam_step(
    model: Seq2SeqModel, grad: Seq2SeqModel, state: AdamState, config: TrainConfig
) -> tuple[Seq2SeqModel, AdamState]:
    """One bias-corrected Adam update of the whole parameter vector, in place.

    `grad` is spent: its vector serves as scratch. The step runs over
    `ADAM_CHUNK` entries at a time, so its one transient vector is a
    chunk long, and it keeps nothing beyond `m` and `v`. Each entry sees
    the operations of a per-tensor update in the same order, so the
    result is the same to the bit. A non-finite gradient is refused
    before any entry changes.
    """
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    chunks = [slice(lo, lo + ADAM_CHUNK) for lo in range(0, grad.flat.size, ADAM_CHUNK)]
    if not all(np.isfinite(grad.flat[c]).all() for c in chunks):
        name, index, _ = model.shape.locate(int(np.argmin(np.isfinite(grad.flat))))
        raise GradientError(f"non-finite gradient in {name} (index {index}) at step {t}")
    buffer = np.empty(min(grad.flat.size, ADAM_CHUNK), grad.flat.dtype)
    for c in chunks:
        g, m, v, p = grad.flat[c], state.m[c], state.v[c], model.flat[c]
        scratch = np.multiply(g, 1.0 - b1, out=buffer[: len(g)])
        m *= b1
        m += scratch
        np.multiply(g, 1.0 - b2, out=scratch)
        scratch *= g
        v *= b2
        v += scratch
        np.divide(m, 1.0 - b1**t, out=g)  # m_hat
        np.divide(v, 1.0 - b2**t, out=scratch)  # v_hat
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPSILON
        g *= config.learning_rate
        g /= scratch
        p -= g
    state.step = t
    model.bump_rev()
    return model, state


# -- training loop ------------------------------------------------------------------

EVAL_BATCH = 256  # samples per forward pass in evaluation and prediction


def _forward_slices(model: Seq2SeqModel, x: np.ndarray, scaler: Scaler | None):
    """Rolling forward passes over x (B, L, d), `EVAL_BATCH` samples at a time:
    each slice's first row and predictions. With a scaler, x is in original
    units: each slice is scaled with it and its predictions unscaled."""
    for lo in range(0, len(x), EVAL_BATCH):
        xb = x[lo : lo + EVAL_BATCH]
        preds, _ = forward_batch(model, xb if scaler is None else scaler.apply(xb), keep_cache=False)
        yield lo, preds if scaler is None else scaler.invert_feature(preds, 0)


def evaluate_loss(model: Seq2SeqModel, windows: WindowSet) -> float:
    """Mean squared error over a window set in the model's scaled units (original per-sample normalization)."""
    total = 0.0
    for lo, preds in _forward_slices(model, windows.inputs, None):
        total += _loss_and_grad(preds, windows.targets[lo : lo + len(preds), :, 0])[0] * len(preds)
    return total / windows.n_samples


def train(
    model: Seq2SeqModel,
    train_windows: WindowSet,
    val_windows: WindowSet | None,
    config: TrainConfig,
    seed: int,
) -> tuple[Seq2SeqModel, list[dict]]:
    """Mini-batch Adam training in float32, batches shuffled by `seed`; deterministic for a fixed (seed, data, config).

    The input model is not mutated. Inputs, targets and a copy of the
    model are cast to float32 once, and the Adam state is built from that
    copy. One forward cache is alive at a time: a ragged last batch
    replaces the full-size one, and it is dropped before each epoch's
    validation loss, which is computed in float64 on a float64 snapshot
    of the parameters. With a validation set, the best-validation epoch's
    parameters are kept as a float32 copy and returned in float64 (the
    same values: they are float32-exact); otherwise a float64 copy of the
    final parameters. History records one entry per epoch.
    """
    if train_windows.n_samples < 1:
        raise DataError("training set is empty")
    if train_windows.input_dim != model.input_dim or train_windows.horizon != model.horizon:
        raise ShapeError("window set incompatible with model architecture")

    inputs = _cast(train_windows.inputs, np.float32, "model input")
    targets = _cast(train_windows.targets[:, :, 0], np.float32, "training targets")
    model = copy_model(model, np.float32)
    state = init_adam_state(model)
    rng = np.random.default_rng(seed)
    history: list[dict] = []
    best_val = np.inf
    best: Seq2SeqModel | None = None
    n = train_windows.n_samples
    batch = min(config.batch_size, n)
    full: ForwardCache | None = None  # the one alive; a short batch runs in its prefix

    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            if full is None:
                full = ForwardCache.empty(model, np.empty((batch, *inputs.shape[1:]), inputs.dtype))
            cache = full if len(idx) == batch else full.prefix(len(idx))
            np.take(inputs, idx, axis=0, out=cache.x)
            _forward(model, cache.x, cache)
            value, grad = backward_batch(model, cache, targets[idx])
            if not np.isfinite(value):
                raise DivergenceError(f"training loss became non-finite at epoch {epoch}")
            epoch_loss += value * len(idx)
            adam_step(model, grad, state, config)
            del cache, grad  # spent: freed before the next batch's gradient is made
        entry = {"epoch": epoch, "train_loss": epoch_loss / n, "val_loss": None}
        if val_windows is not None and val_windows.n_samples > 0:
            full = None
            val_loss = evaluate_loss(copy_model(model), val_windows)
            if not np.isfinite(val_loss):
                raise DivergenceError(f"validation loss became non-finite at epoch {epoch}")
            entry["val_loss"] = val_loss
            if val_loss < best_val:
                best_val = val_loss
                best = copy_model(model, np.float32)
        history.append(entry)

    del full, state  # freed before the float64 copy is made
    return copy_model(best if best is not None else model), history


def predict(model: Seq2SeqModel, x: np.ndarray) -> np.ndarray:
    """`predict_batch` of one (L, d) input in original units: its H-vector forecast."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"expected a (L, d) input, got shape {x.shape}")
    return predict_batch(model, x[None, :, :])[0]


def predict_batch(model: Seq2SeqModel, x: np.ndarray) -> np.ndarray:
    """(B, L, d) inputs -> (B, H) float64 predictions, both in original units, in
    `EVAL_BATCH` slices (see `_forward_slices`): the one place a model's scaler
    is applied for prediction. A model without a scaler runs on x as it is."""
    out = np.empty((len(x), model.horizon))
    for lo, preds in _forward_slices(model, x, model.scaler):
        out[lo : lo + len(preds)] = preds
    return out


# -- checkpoint I/O --------------------------------------------------------------

def save_model(model: Seq2SeqModel, path: str | Path) -> None:
    """Write magic + one-line JSON header (its `config` always null) + the parameter vector as float64-LE."""
    header = {
        **asdict(model.shape),
        "scaler": None
        if model.scaler is None
        else {"mean": model.scaler.mean.tolist(), "std": model.scaler.std.tolist()},
        "config": None,
    }
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(model.flat.astype("<f8", copy=False).tobytes())


def _read_header(path: str | Path, line: bytes) -> tuple[ModelShape, Scaler | None]:
    """The header's shape (positive int dimensions, no bools) and scaler; DataError naming `path`."""
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: corrupt checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    dims = {f.name: header.get(f.name) for f in fields(ModelShape)}
    for name, value in dims.items():
        if type(value) is not int or value < 1:
            raise DataError(f"{path}: checkpoint header needs a positive integer {name}, got {value!r}")
    shape = ModelShape(**dims)
    if header.get("scaler") is None:
        return shape, None
    try:
        mean, std = (np.asarray(header["scaler"][k], dtype=np.float64) for k in ("mean", "std"))
        if mean.shape != (shape.input_dim,) or std.shape != mean.shape or not np.all(np.isfinite([mean, std])):
            raise ValueError(f"it needs {shape.input_dim} finite means and stds")
        return shape, Scaler(mean, std)
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{path}: bad scaler in checkpoint header: {exc}") from None


def load_model(path: str | Path) -> Seq2SeqModel:
    """Read a checkpoint written by save_model; DataError naming `path` if
    any part is malformed, and the tensor if a parameter is not finite."""
    with Path(path).open("rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a model checkpoint (bad magic)")
        shape, scaler = _read_header(path, fh.readline())
        raw = fh.read()
    size = 8 * shape.n_params
    if len(raw) < size:
        raise DataError(f"{path}: checkpoint truncated at tensor {shape.locate(len(raw) // 8)[0]}")
    if len(raw) > size:
        raise DataError(f"{path}: trailing bytes after final tensor")
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        name, index, gate = shape.locate(int(bad[0]))
        where = f"tensor {name}" + (f" (gate {gate})" if gate else "")
        raise DataError(f"{path}: non-finite parameter {flat[bad[0]]} in {where} at index {index}")
    return Seq2SeqModel(shape, flat, scaler)
