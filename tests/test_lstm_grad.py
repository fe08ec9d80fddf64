"""Gradient correctness: analytic oracles and finite differences."""

import numpy as np
import pytest
from conftest import seq2seq_forward

from smartcast.errors import DataError, StaleCacheError
from smartcast.lstm import (
    ModelShape,
    backward_batch,
    forward_batch,
    gradient_check,
    init_params,
    mae,
    rmse,
)

SOIL_TOY = ModelShape(input_dim=4, encoder_hidden=8, decoder_hidden=8, dense_hidden=6, horizon=3)
INDEX_TOY = ModelShape(input_dim=2, encoder_hidden=5, decoder_hidden=5, dense_hidden=4, horizon=1)


def probe(shape: ModelShape, length: int, seed: int):
    """Model, input, and a target placed near the model's own output.

    Keeping |pred - target| small keeps the loss small, which keeps
    central-difference round-off well below the analytic gradients.
    """
    model = init_params(shape, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    x = rng.normal(0.0, 1.0, size=(length, shape.input_dim))
    preds, _ = forward_batch(model, x[None])
    targets = preds[0] + 0.1 * rng.normal(0.0, 1.0, size=preds[0].shape)
    return model, x, targets


@pytest.mark.parametrize("shape,length", [(SOIL_TOY, 6), (INDEX_TOY, 5)])
@pytest.mark.parametrize("seed", [0, 7])
def test_full_coordinate_gradcheck(shape, length, seed):
    model, x, targets = probe(shape, length, seed)
    report = gradient_check(model, (x, targets))
    assert report.n_checked == sum(a.size for a in model.tensors.values()) == model.flat.size
    assert report.passed, f"max rel {report.max_rel_error:.3e} at {report.worst_param}"
    assert report.max_rel_error < 1e-4


def test_gradcheck_mae_loss():
    model, x, targets = probe(SOIL_TOY, 6, 3)
    report = gradient_check(model, (x, targets), loss="mae")
    assert report.passed


def test_gradcheck_detects_corruption():
    model, x, targets = probe(SOIL_TOY, 6, 0)
    report = gradient_check(model, (x, targets), corrupt="decoder.u")
    assert not report.passed
    assert report.worst_param == "decoder.u"


def test_mse_loss_value_and_head_bias_gradient():
    """Analytic oracle: under MSE with B=1, dL/db_out = sum_k 2 e_k / H."""
    model, x, _ = probe(SOIL_TOY, 6, 5)
    preds, cache = seq2seq_forward(model, x)
    targets = preds - np.array([0.3, -0.2, 0.5])
    loss, grads = backward_batch(model, cache, targets[None])
    err = preds - targets
    assert loss == pytest.approx(float(np.mean(err**2)), abs=1e-15)
    expected_bias_grad = float(np.sum(2.0 * err / model.horizon))
    assert grads.head_out.bias[0] == pytest.approx(expected_bias_grad, rel=1e-12)


def test_mae_loss_value_and_sign():
    model, x, _ = probe(SOIL_TOY, 6, 6)
    preds, cache = seq2seq_forward(model, x)
    targets = preds - np.array([0.3, -0.2, 0.5])  # signs +, -, +
    loss, grads = backward_batch(model, cache, targets[None], loss="mae")
    assert loss == pytest.approx(float(np.mean(np.abs(preds - targets))), abs=1e-15)
    expected = (1.0 - 1.0 + 1.0) / model.horizon
    assert grads.tensors["head_out.bias"][0] == pytest.approx(expected, rel=1e-12)


def test_batch_gradient_is_mean_of_singles():
    model = init_params(SOIL_TOY, seed=9)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 6, 4))
    targets = rng.normal(size=(3, 3))
    _, cache = forward_batch(model, x)
    _, batch_grads = backward_batch(model, cache, targets)
    singles = []
    for b in range(3):
        _, c = forward_batch(model, x[b : b + 1])
        _, g = backward_batch(model, c, targets[b : b + 1])
        singles.append(g)
    for name, a in batch_grads.tensors.items():
        mean_grad = sum(s.tensors[name] for s in singles) / 3.0
        np.testing.assert_allclose(a, mean_grad, atol=1e-12, err_msg=name)


def test_stale_cache_rejected():
    model, x, targets = probe(SOIL_TOY, 6, 2)
    _, cache = forward_batch(model, x[None])
    model.bump_rev()
    with pytest.raises(StaleCacheError):
        backward_batch(model, cache, targets[None])


def test_backward_batch_target_shape():
    model, x, _ = probe(SOIL_TOY, 6, 2)
    _, cache = forward_batch(model, x[None])
    with pytest.raises(Exception):
        backward_batch(model, cache, np.zeros((1, 5)))


def test_metric_helpers():
    assert rmse([1.0, 2.0], [1.0, 4.0]) == pytest.approx(np.sqrt(2.0))
    assert mae([1.0, 2.0], [1.0, 4.0]) == pytest.approx(1.0)
    with pytest.raises(DataError):
        rmse([], [])
    with pytest.raises(DataError):
        mae([1.0], [1.0, 2.0])
