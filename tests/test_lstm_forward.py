"""Forward-pass fidelity against a scalar-loop re-implementation.

The oracle below uses no vectorized recurrence: every gate of every
unit at every step is computed with explicit Python loops, so any
indexing, broadcasting, or state-carry bug in the production forward
pass shows up as a mismatch far above 1e-12.
"""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import gate_rows, seq2seq_forward
from scipy.special import expit

import smartcast
from smartcast.errors import DataError, ShapeError
from smartcast.lstm import (
    ModelShape,
    Seq2SeqModel,
    _sigmoid_,
    forward_batch,
    init_params,
)

SOIL_TOY = ModelShape(input_dim=4, encoder_hidden=8, decoder_hidden=8, dense_hidden=6, horizon=3)
INDEX_TOY = ModelShape(input_dim=2, encoder_hidden=5, decoder_hidden=5, dense_hidden=4, horizon=1)
SOIL_LEN = 6
INDEX_LEN = 5


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def _cell_scalar(layer, x, h_prev, c_prev):
    """One LSTM step for one sample, scalar loops only."""
    n = layer.hidden_dim
    d = layer.input_dim
    h = [0.0] * n
    c = [0.0] * n
    for u in range(n):
        acts = {}
        for gate in ("i", "f", "o", "g"):
            z = float(gate_rows(layer, "b", gate)[u])
            w = gate_rows(layer, "w", gate)
            uu = gate_rows(layer, "u", gate)
            for k in range(d):
                z += float(w[u, k]) * x[k]
            for k in range(n):
                z += float(uu[u, k]) * h_prev[k]
            acts[gate] = z
        i = _sigmoid(acts["i"])
        f = _sigmoid(acts["f"])
        o = _sigmoid(acts["o"])
        g = math.tanh(acts["g"])
        c[u] = f * c_prev[u] + i * g
        h[u] = o * math.tanh(c[u])
    return h, c


def oracle_forward(model: Seq2SeqModel, x: np.ndarray) -> np.ndarray:
    """Scalar-loop seq2seq forward for one (L, d) sample."""
    seq_len = x.shape[0]
    n_enc = model.encoder.hidden_dim
    h = [0.0] * n_enc
    c = [0.0] * n_enc
    for t in range(seq_len):
        h, c = _cell_scalar(model.encoder, [float(v) for v in x[t]], h, c)
    enc_final = h

    n_dec = model.decoder.hidden_dim
    hd = [0.0] * n_dec
    cd = [0.0] * n_dec
    preds = []
    for _ in range(model.horizon):
        hd, cd = _cell_scalar(model.decoder, enc_final, hd, cd)
        hidden = []
        for u in range(model.head_hidden.weight.shape[0]):
            z = float(model.head_hidden.bias[u])
            for k in range(n_dec):
                z += float(model.head_hidden.weight[u, k]) * hd[k]
            hidden.append(z)
        out = float(model.head_out.bias[0])
        for k in range(len(hidden)):
            out += float(model.head_out.weight[0, k]) * hidden[k]
        preds.append(out)
    return np.array(preds)


@pytest.mark.parametrize(
    "shape,length,seed",
    [(SOIL_TOY, SOIL_LEN, 0), (SOIL_TOY, SOIL_LEN, 1), (INDEX_TOY, INDEX_LEN, 0), (INDEX_TOY, INDEX_LEN, 2)],
)
def test_forward_matches_scalar_oracle(shape, length, seed):
    model = init_params(shape, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(0.0, 1.0, size=(length, shape.input_dim))
    expected = oracle_forward(model, x)
    got, _cache = seq2seq_forward(model, x)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)
    batch_got, _ = forward_batch(model, x[None])
    np.testing.assert_allclose(batch_got[0], expected, rtol=0.0, atol=1e-12)


def test_forward_batch_rows_independent():
    model = init_params(SOIL_TOY, seed=3)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, SOIL_LEN, 4))
    batch_preds, _ = forward_batch(model, x)
    for b in range(4):
        single, _ = forward_batch(model, x[b : b + 1])
        np.testing.assert_allclose(batch_preds[b], single[0], atol=1e-12)


def test_decoder_sees_repeated_encoder_state():
    model = init_params(SOIL_TOY, seed=4)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, SOIL_LEN, 4))
    _, cache = forward_batch(model, x)
    h_enc = cache.h_enc  # (n, B), samples as columns
    dec = model.decoder
    n = dec.hidden_dim
    h = c = np.zeros((n, 3))
    for k in range(model.horizon):
        a = dec.w @ h_enc + dec.b[:, None] + dec.u @ h  # h_enc fed again at step k
        i, f, o, g = expit(a[:n]), expit(a[n : 2 * n]), expit(a[2 * n : 3 * n]), np.tanh(a[3 * n :])
        c = f * c + i * g
        h = o * np.tanh(c)
        kept_h = cache.dec.gates[k][2 * n : 3 * n] * np.tanh(cache.dec.c[k + 1])  # the trace keeps o and c
        np.testing.assert_allclose(kept_h, h, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(cache.dec.c[k + 1], c, rtol=0.0, atol=1e-12)


def test_forward_input_validation():
    model = init_params(SOIL_TOY, seed=0)
    with pytest.raises(ShapeError):
        forward_batch(model, np.zeros((2, SOIL_LEN, 3)))
    with pytest.raises(ShapeError):
        forward_batch(model, np.zeros((SOIL_LEN, 4)))
    bad = np.zeros((1, SOIL_LEN, 4))
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        forward_batch(model, bad)


def test_init_glorot_bounds_and_forget_bias():
    model = init_params(SOIL_TOY, seed=7)
    for layer in (model.encoder, model.decoder):
        n, d = layer.hidden_dim, layer.input_dim
        lim_w = np.sqrt(6.0 / (n + d))
        lim_u = np.sqrt(6.0 / (n + n))
        for g in "ifog":
            assert np.all(np.abs(gate_rows(layer, "w", g)) <= lim_w)
            assert np.all(np.abs(gate_rows(layer, "u", g)) <= lim_u)
        np.testing.assert_array_equal(gate_rows(layer, "b", "f"), np.ones(n))
        np.testing.assert_array_equal(gate_rows(layer, "b", "i"), np.zeros(n))
    # deterministic per seed
    again = init_params(SOIL_TOY, seed=7)
    for name, a in model.tensors.items():
        np.testing.assert_array_equal(a, again.tensors[name], err_msg=name)
    other = init_params(SOIL_TOY, seed=8)
    assert any(not np.array_equal(a, other.tensors[name]) for name, a in model.tensors.items())


def test_model_shape_validation():
    with pytest.raises(ValueError):
        ModelShape(input_dim=0, encoder_hidden=4, decoder_hidden=4, dense_hidden=2, horizon=1)
    model = init_params(SOIL_TOY, seed=0)
    assert model.shape == SOIL_TOY


# -- fused gate layout --------------------------------------------------------------


def test_layer_is_three_fused_tensors():
    layer = init_params(SOIL_TOY, seed=5).encoder
    assert [f.name for f in dataclasses.fields(layer)] == ["w", "u", "b"]
    n, d = layer.hidden_dim, layer.input_dim
    assert (layer.w.shape, layer.u.shape, layer.b.shape) == ((4 * n, d), (4 * n, n), (4 * n,))
    with pytest.raises(ShapeError):
        Seq2SeqModel(SOIL_TOY, np.zeros(SOIL_TOY.n_params - 1))


def test_sigmoid_matches_expit_and_never_warns():
    """Within two units in the last place of a gate in [0.5, 1), overflow-free."""
    a = np.concatenate([np.linspace(-1e3, 1e3, 200_001), np.linspace(-40.0, 40.0, 80_001), [-np.inf, np.inf]])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _sigmoid_(a.copy())
    assert np.max(np.abs(got - expit(a))) <= 2 * np.spacing(0.5)
    assert got[0] == 0.0 and got[-1] == 1.0


def test_engine_import_loads_no_scipy():
    src = str(Path(smartcast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, smartcast.lstm; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
