"""Optimizer properties, training behavior, and checkpoint round trips."""

import copy
import dataclasses
import json
import pickle
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import gate_rows

from smartcast.errors import DataError, DivergenceError, GradientError
from smartcast.lstm import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_CHUNK,
    ADAM_EPSILON,
    EVAL_BATCH,
    ForwardCache,
    ModelShape,
    Seq2SeqModel,
    TrainConfig,
    adam_step,
    backward_batch,
    copy_model,
    evaluate_loss,
    forward_batch,
    init_adam_state,
    init_params,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
    CHECKPOINT_MAGIC,
    _forward,
    _loss_and_grad,
)
from smartcast.timeseries import Scaler, WindowSet

TOY = ModelShape(input_dim=2, encoder_hidden=4, decoder_hidden=4, dense_hidden=3, horizon=2)
PAPER = ModelShape(input_dim=4, encoder_hidden=200, decoder_hidden=200, dense_hidden=100, horizon=14)
DATA = Path(__file__).parent / "data"


def toy_windows(n=8, length=5, seed=0) -> WindowSet:
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, length, TOY.input_dim))
    targets = rng.normal(size=(n, TOY.horizon, 1))
    return WindowSet(inputs=inputs, targets=targets)


def params_bytes(model) -> bytes:
    return model.flat.tobytes()


def gradient_of(model, value: float = 0.0) -> Seq2SeqModel:
    """A gradient for `model` with every entry equal to `value`."""
    return Seq2SeqModel(model.shape, np.full_like(model.flat, value))


# -- Adam ----------------------------------------------------------------------

def test_adam_first_step_magnitude():
    """After bias correction, step 1 moves each coordinate by ~lr."""
    model = init_params(TOY, seed=1)
    before = {name: a.copy() for name, a in model.tensors.items()}
    config = TrainConfig(learning_rate=1e-3)
    adam_step(model, gradient_of(model, 0.5), init_adam_state(model), config)
    for name, a in model.tensors.items():
        delta = np.abs(a - before[name])
        expected = config.learning_rate * 0.5 / (0.5 + ADAM_EPSILON)
        np.testing.assert_allclose(delta, expected, rtol=1e-10, err_msg=name)


def test_adam_zero_gradient_is_noop():
    model = init_params(TOY, seed=2)
    before = {name: a.copy() for name, a in model.tensors.items()}
    state = init_adam_state(model)
    adam_step(model, gradient_of(model), state, TrainConfig())
    for name, a in model.tensors.items():
        np.testing.assert_array_equal(a, before[name], err_msg=name)
    assert state.step == 1


def test_adam_rejects_non_finite_gradient():
    model = init_params(TOY, seed=3)
    grad = gradient_of(model)
    grad.tensors["decoder.u"][1, 2] = np.nan
    grad.tensors["head_out.bias"][0] = np.inf
    with pytest.raises(GradientError, match=r"decoder\.u \(index 6\)"):
        adam_step(model, grad, init_adam_state(model), TrainConfig())


def test_adam_step_invalidates_old_caches():
    model = init_params(TOY, seed=4)
    rev_before = model.rev
    adam_step(model, gradient_of(model), init_adam_state(model), TrainConfig())
    assert model.rev == rev_before + 1


def per_tensor_adam_step(params: dict, grads: dict, m: dict, v: dict, step: int, config: TrainConfig) -> None:
    """The Adam update as it ran on one tensor at a time, kept as the reference."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, param in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        m_hat = m[name] / (1.0 - b1**step)
        v_hat = v[name] / (1.0 - b2**step)
        param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_step_matches_the_per_tensor_update_bytewise(dtype):
    model = copy_model(init_params(TOY, seed=26), dtype)
    ref = {name: a.copy() for name, a in model.tensors.items()}
    m = {name: np.zeros_like(a) for name, a in ref.items()}
    v = {name: np.zeros_like(a) for name, a in ref.items()}
    state, config = init_adam_state(model), TrainConfig(learning_rate=0.01)
    rng = np.random.default_rng(26)
    for step in range(1, 6):
        grad = gradient_of(model)
        grad.flat[...] = rng.normal(scale=10.0 ** rng.uniform(-6, 1), size=grad.flat.size)
        grads = {name: a.copy() for name, a in grad.tensors.items()}
        adam_step(model, grad, state, config)
        per_tensor_adam_step(ref, grads, m, v, step, config)
        for name, a in model.tensors.items():
            assert a.tobytes() == ref[name].tobytes(), (step, name)
        assert state.m.tobytes() == b"".join(a.tobytes() for a in m.values())
        assert state.v.tobytes() == b"".join(a.tobytes() for a in v.values())


def test_adam_step_peak_memory_is_one_vector():
    """At the paper's widths the per-tensor step peaked at 3.05 MiB over a
    1.93 MiB float32 vector, the whole-vector step at 2_020_304 B and the
    chunked one at 264_232 B: one chunk of scratch."""
    model = copy_model(init_params(PAPER, seed=27), np.float32)
    state, config = init_adam_state(model), TrainConfig()
    grad = gradient_of(model)
    grad.flat[...] = np.random.default_rng(27).normal(size=grad.flat.size)
    assert traced_peak(lambda: adam_step(model, grad, state, config)) <= ADAM_CHUNK * 4 + 64 * 1024


def test_chunked_adam_step_matches_the_per_tensor_update_bytewise():
    # the paper-width vector spans 8 chunks, the last one partial
    model = copy_model(init_params(PAPER, seed=28), np.float32)
    assert model.flat.size > 7 * ADAM_CHUNK
    ref = {name: a.copy() for name, a in model.tensors.items()}
    m = {name: np.zeros_like(a) for name, a in ref.items()}
    v = {name: np.zeros_like(a) for name, a in ref.items()}
    state, config = init_adam_state(model), TrainConfig(learning_rate=0.01)
    rng = np.random.default_rng(28)
    for step in range(1, 3):
        grad = gradient_of(model)
        grad.flat[...] = rng.normal(size=grad.flat.size)
        grads = {name: a.copy() for name, a in grad.tensors.items()}
        adam_step(model, grad, state, config)
        per_tensor_adam_step(ref, grads, m, v, step, config)
        assert model.flat.tobytes() == b"".join(a.tobytes() for a in ref.values()), step
        assert state.m.tobytes() == b"".join(a.tobytes() for a in m.values())
        assert state.v.tobytes() == b"".join(a.tobytes() for a in v.values())


def test_adam_refuses_a_non_finite_gradient_before_any_entry_changes():
    # the bad entry lies in the last chunk: no earlier chunk is updated
    model = copy_model(init_params(PAPER, seed=29), np.float32)
    state = init_adam_state(model)
    state.m[...], state.v[...] = 0.5, 0.25
    grad = gradient_of(model, 1.0)
    grad.tensors["head_out.bias"][0] = np.nan
    before = model.flat.tobytes(), state.m.tobytes(), state.v.tobytes()
    with pytest.raises(GradientError, match=r"head_out\.bias \(index 0\)"):
        adam_step(model, grad, state, TrainConfig())
    assert (model.flat.tobytes(), state.m.tobytes(), state.v.tobytes()) == before
    assert state.step == 0


# -- train loop -------------------------------------------------------------------

def test_train_overfits_single_sample():
    windows = toy_windows(n=1, seed=5)
    model = init_params(TOY, seed=5)
    config = TrainConfig(learning_rate=0.01, epochs=500, batch_size=1)
    trained, history = train(model, windows, None, config, seed=5)
    assert len(history) == 500
    assert history[-1]["train_loss"] < 1e-3
    assert history[-1]["train_loss"] < history[0]["train_loss"]


def test_train_is_deterministic_and_pure():
    windows = toy_windows(n=12, seed=6)
    model = init_params(TOY, seed=6)
    frozen = params_bytes(model)
    config = TrainConfig(epochs=5, batch_size=4)
    a, hist_a = train(model, windows, None, config, seed=9)
    assert params_bytes(model) == frozen  # input model untouched
    b, hist_b = train(model, windows, None, config, seed=9)
    assert params_bytes(a) == params_bytes(b)
    assert hist_a == hist_b
    c, _ = train(model, windows, None, config, seed=10)
    assert params_bytes(a) != params_bytes(c)


def test_train_best_validation_params_returned():
    windows = toy_windows(n=16, seed=7)
    val = toy_windows(n=6, seed=8)
    model = init_params(TOY, seed=7)
    config = TrainConfig(learning_rate=0.02, epochs=30, batch_size=4)
    trained, history = train(model, windows, val, config, seed=7)
    val_losses = [h["val_loss"] for h in history]
    best = min(val_losses)
    got = evaluate_loss(trained, val)
    assert got == pytest.approx(best, rel=1e-9)


def test_best_epoch_is_a_run_stopped_there():
    # the best epoch is kept in float32 and returned in float64: the same
    # bytes as a run of best_epoch + 1 epochs without validation. 10 fit
    # windows at batch 4 end every epoch on a ragged batch.
    windows, val = toy_windows(n=10, seed=7), toy_windows(n=6, seed=8)
    model = init_params(TOY, seed=7)
    config = TrainConfig(learning_rate=0.02, epochs=30, batch_size=4)
    trained, history = train(model, windows, val, config, seed=7)
    best_epoch = min(range(config.epochs), key=lambda epoch: history[epoch]["val_loss"])
    assert 0 < best_epoch < config.epochs - 1
    stopped, _ = train(model, windows, None, dataclasses.replace(config, epochs=best_epoch + 1), seed=7)
    assert trained.dtype == np.float64
    assert params_bytes(trained) == params_bytes(stopped)


def test_train_rejects_incompatible_windows():
    model = init_params(TOY, seed=0)
    bad = WindowSet(
        inputs=np.zeros((4, 5, 3)), targets=np.zeros((4, TOY.horizon, 1))
    )
    with pytest.raises(Exception):
        train(model, bad, None, TrainConfig(epochs=1), seed=0)


def test_train_divergence_detected():
    windows = toy_windows(n=4, seed=9)
    model = init_params(TOY, seed=9)
    model.head_out.weight[...] = np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(DivergenceError):
            train(model, windows, None, TrainConfig(epochs=1, batch_size=4), seed=0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_train_frees_each_gradient_before_the_next_is_made(monkeypatch):
    from smartcast import lstm

    spent = []

    def recording(*args, **kwargs):
        assert all(ref() is None for ref in spent), "a spent gradient is alive while the next is made"
        value, grad = backward(*args, **kwargs)
        spent.append(weakref.ref(grad.flat))
        return value, grad

    backward = lstm.backward_batch
    monkeypatch.setattr(lstm, "backward_batch", recording)
    train(init_params(TOY, seed=21), toy_windows(n=10, seed=21), None, TrainConfig(epochs=2, batch_size=4), seed=21)
    assert len(spent) == 6  # 2 epochs of 2 full batches and a short one


def test_train_reuses_buffers_as_fresh_ones_would(tmp_path):
    """10 windows at batch 4: two full batches and a short one per epoch."""
    windows = toy_windows(n=10, seed=18)
    model = init_params(TOY, seed=18)
    config = TrainConfig(learning_rate=0.01, epochs=3, batch_size=4)
    trained, _ = train(model, windows, None, config, seed=18)

    ref = copy_model(model, np.float32)
    state, rng = init_adam_state(ref), np.random.default_rng(18)
    for _ in range(config.epochs):
        order = rng.permutation(windows.n_samples)
        for start in range(0, windows.n_samples, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, cache = forward_batch(ref, windows.inputs[idx])  # new buffers every batch
            _, grads = backward_batch(ref, cache, windows.targets[idx, :, 0])
            adam_step(ref, grads, state, config)
    save_model(trained, tmp_path / "train.ckpt")
    save_model(ref, tmp_path / "ref.ckpt")
    assert (tmp_path / "train.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()


def test_short_batch_runs_in_a_prefix_of_the_full_buffers():
    # a ragged batch writes the leading elements of the full-size buffers,
    # contiguous, so no buffer is made and the next full batch still
    # starts from the zero state its prefix overwrote
    model = copy_model(init_params(TOY, seed=20), np.float32)
    x = np.random.default_rng(20).normal(size=(3, 5, 5, 2)).astype(np.float32)
    full = ForwardCache.empty(model, x[0])
    short = full.prefix(2)
    for name, a in cache_arrays(short).items():
        whole = cache_arrays(full)[name]
        assert a.flags.c_contiguous and a.__array_interface__["data"][0] == whole.__array_interface__["data"][0], name
    for batch, cache in ((x[0], full), (x[1, :2], short), (x[2], full)):
        cache.x[...] = batch
        _forward(model, cache.x, cache)
        _, fresh = forward_batch(model, batch)
        assert cache.predictions.tobytes() == fresh.predictions.tobytes()
        assert cache.h_enc.tobytes() == fresh.h_enc.tobytes()
        for name in ("enc.gates", "enc.c", "dec.gates", "dec.c", "z"):
            assert cache_arrays(cache)[name].tobytes() == cache_arrays(fresh)[name].tobytes(), name


def cache_arrays(cache: ForwardCache) -> dict[str, np.ndarray]:
    out = {}
    for f in dataclasses.fields(cache):
        value = getattr(cache, f.name)
        if isinstance(value, np.ndarray):
            out[f.name] = value
        elif dataclasses.is_dataclass(value):
            out.update({f"{f.name}.{g.name}": getattr(value, g.name) for g in dataclasses.fields(value)})
    return out


def test_forward_batch_caches_do_not_alias():
    model = init_params(TOY, seed=19)
    x = np.random.default_rng(19).normal(size=(2, 4, 5, 2))
    _, first = forward_batch(model, x[0])
    kept = copy.deepcopy(cache_arrays(first))
    _, second = forward_batch(model, x[1])
    for name, a in cache_arrays(first).items():
        assert not np.shares_memory(a, cache_arrays(second)[name]), name
        np.testing.assert_array_equal(a, kept[name], err_msg=name)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_engine_memory_peaks():
    """The batch-major engine this replaced peaked at 17_403_912 B predicting
    and 22_924_071 B training; this one at 12_292_610 B predicting in one
    pass, 842_602 B in `EVAL_BATCH` slices, and, with a forward trace of
    only gates and cell states and one gradient alive, 5_339_058 B training
    (7_183_182 B with h and tanh c traced and two gradients alive). The
    bounds are this engine's figures plus 10 %."""
    index = init_params(ModelShape(input_dim=2, encoder_hidden=24, decoder_hidden=24, dense_hidden=12, horizon=1), seed=1)
    pixels = np.random.default_rng(1).normal(size=(4096, 5, 2))
    assert traced_peak(lambda: predict_batch(index, pixels)) < 927_000

    soil = init_params(ModelShape(input_dim=4, encoder_hidden=64, decoder_hidden=64, dense_hidden=32, horizon=14), seed=2)
    rng = np.random.default_rng(2)
    windows = WindowSet(rng.normal(size=(200, 30, 4)), rng.normal(size=(200, 14, 1)))
    config = TrainConfig(epochs=1, batch_size=64)
    assert traced_peak(lambda: train(soil, windows, None, config, seed=2)) < 5_873_000
    # with a validation set, over epochs that end on a ragged batch of 8:
    # 8_716_984 B while the ragged cache joined the full one and the best
    # epoch was kept in float64, 7_391_402 B with one cache at a time,
    # 5_551_740 B with the lean trace, the ragged batch in its prefix
    val = WindowSet(rng.normal(size=(100, 30, 4)), rng.normal(size=(100, 14, 1)))
    assert traced_peak(lambda: train(soil, windows, val, dataclasses.replace(config, epochs=3), seed=2)) < 6_107_000


def test_paper_width_training_memory_peak():
    """One epoch at the paper's widths (200/200/100), two batches of 64:
    29_272_541 B with h and tanh c traced, the spent gradient alive beside
    the next and Adam's scratch a whole vector; 22_156_545 B with a trace
    of gates and cell states, one gradient alive, the head's gradient
    taken step by step and Adam in chunks. The bound is that plus 10 %."""
    paper = init_params(PAPER, seed=3)
    rng = np.random.default_rng(3)
    windows = WindowSet(rng.normal(size=(128, 30, 4)), rng.normal(size=(128, 14, 1)))
    config = TrainConfig(epochs=1, batch_size=64)
    assert traced_peak(lambda: train(paper, windows, None, config, seed=3)) < 24_372_000


# -- prediction scaling ---------------------------------------------------------

def test_predict_inverts_target_channel():
    scaler = Scaler(mean=np.array([10.0, -5.0]), std=np.array([2.0, 4.0]))
    model = init_params(TOY, seed=11, scaler=scaler)
    x = np.random.default_rng(3).normal(size=(5, 2))
    raw, _ = forward_batch(dataclasses.replace(model, scaler=None), scaler.apply(x)[None])
    got = predict(model, x)
    np.testing.assert_allclose(got, raw[0] * 2.0 + 10.0, atol=1e-12)
    batch = predict_batch(model, x[None])
    np.testing.assert_allclose(batch[0], got, atol=1e-12)


def test_predict_batch_takes_original_units_in_slices():
    """Within one `EVAL_BATCH` slice, predict_batch on inputs in original
    units is forward_batch on the scaled slice with its target channel
    unscaled, bit for bit; over the whole batch, within 1e-12."""
    scaler = Scaler(mean=np.array([10.0, -5.0]), std=np.array([2.0, 4.0]))
    model = init_params(TOY, seed=15, scaler=scaler)
    x = np.random.default_rng(15).normal(10.0, 3.0, size=(2 * EVAL_BATCH + 7, 5, 2))
    got = predict_batch(model, x)
    unscaled = dataclasses.replace(model, scaler=None)
    for lo in range(0, len(x), EVAL_BATCH):
        rows = slice(lo, lo + EVAL_BATCH)
        preds, _ = forward_batch(unscaled, scaler.apply(x[rows]))
        np.testing.assert_array_equal(got[rows], scaler.invert_feature(preds, 0))
    whole = scaler.invert_feature(forward_batch(unscaled, scaler.apply(x))[0], 0)
    np.testing.assert_allclose(got, whole, rtol=0.0, atol=1e-12)


def test_predict_batch_memory_is_one_slice():
    """Four slices of windows peak at about one slice's traces and scaled
    copy: 1_499_072 B against 1_357_170 B for one slice. In one pass over
    all four, with the caller scaling, the peak was 4_246_440 B."""
    model = init_params(ModelShape(4, 32, 32, 16, horizon=14), seed=4, scaler=Scaler(np.zeros(4), np.ones(4)))
    x = np.random.default_rng(4).normal(size=(4 * EVAL_BATCH, 30, 4))
    one = traced_peak(lambda: predict_batch(model, x[:EVAL_BATCH]))
    assert traced_peak(lambda: predict_batch(model, x)) < 1.25 * one


def test_prediction_paths_keep_no_cache_and_match_forward_batch():
    model = init_params(TOY, seed=14)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 5, 2))
    targets = rng.normal(size=(6, TOY.horizon, 1))
    full, cache = forward_batch(model, x)
    lean, no_cache = forward_batch(model, x, keep_cache=False)
    assert cache is not None and no_cache is None
    np.testing.assert_array_equal(lean, full)
    np.testing.assert_array_equal(predict_batch(model, x), full)
    np.testing.assert_array_equal(predict(model, x[2]), forward_batch(model, x[2:3])[0][0])
    expected, _ = _loss_and_grad(full, targets[:, :, 0])
    assert evaluate_loss(model, WindowSet(x, targets)) == expected


# -- checkpoints -----------------------------------------------------------------

def test_checkpoint_round_trip_exact(tmp_path):
    scaler = Scaler(mean=np.array([1.0, 2.0]), std=np.array([3.0, 4.0]))
    model = init_params(TOY, seed=12, scaler=scaler)
    windows = toy_windows(n=6, seed=12)
    model, _ = train(model, windows, None, TrainConfig(epochs=3, batch_size=2), seed=12)
    p = tmp_path / "model.ckpt"
    save_model(model, p)
    back = load_model(p)
    assert params_bytes(back) == params_bytes(model)
    np.testing.assert_array_equal(back.scaler.mean, scaler.mean)
    np.testing.assert_array_equal(back.scaler.std, scaler.std)
    x = np.random.default_rng(1).normal(size=(1, 5, 2))
    a, _ = forward_batch(model, x)
    b, _ = forward_batch(back, x)
    np.testing.assert_array_equal(a, b)


def read_per_gate_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Independent reader of the checkpoint layout, one array per gate.

    After the magic and the JSON header line come float64-LE tensors:
    per LSTM layer W_i..W_g (n, d), U_i..U_g (n, n), b_i..b_g (n,), then
    the dense head's weight and bias.
    """
    header_line, _, body = path.read_bytes()[len(CHECKPOINT_MAGIC) :].partition(b"\n")
    header = json.loads(header_line)
    shapes = []
    for layer, d, n in (
        ("encoder", header["input_dim"], header["encoder_hidden"]),
        ("decoder", header["encoder_hidden"], header["decoder_hidden"]),
    ):
        shapes += [(f"{layer}.{t}_{g}", shape) for t, shape in (("w", (n, d)), ("u", (n, n)), ("b", (n,))) for g in "ifog"]
    m = header["dense_hidden"]
    shapes += [
        ("head_hidden.weight", (m, header["decoder_hidden"])),
        ("head_hidden.bias", (m,)),
        ("head_out.weight", (1, m)),
        ("head_out.bias", (1,)),
    ]
    flat = np.frombuffer(body, dtype="<f8")
    tensors, pos = {}, 0
    for name, shape in shapes:
        size = int(np.prod(shape))
        tensors[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    assert pos == flat.size
    return header, tensors


@pytest.mark.parametrize("name", ["pergate_init_seed11.ckpt", "pergate_trained.ckpt"])
def test_per_gate_engine_checkpoint_loads_and_resaves_identically(tmp_path, name):
    """Both fixtures were written by the engine that stored one array per gate."""
    path = DATA / name
    header, expected = read_per_gate_checkpoint(path)
    model = load_model(path)
    for key, want in expected.items():
        part, attr = key.split(".")
        if part in ("encoder", "decoder"):  # attr is tensor_gate, as w_i
            got = gate_rows(getattr(model, part), *attr.split("_"))
        else:
            got = getattr(getattr(model, part), attr)
        np.testing.assert_array_equal(got, want, err_msg=key)
    out = tmp_path / name
    save_model(model, out)
    # the trained fixture's header echoes a config, which save_model no longer writes
    echo_dropped = json.dumps({**header, "config": None}, sort_keys=True).encode("utf-8")
    assert out.read_bytes() == CHECKPOINT_MAGIC + echo_dropped + b"\n" + path.read_bytes().split(b"\n", 2)[2]


def test_init_draws_the_per_gate_engine_numbers():
    """The fixture is the per-gate engine's init_params at seed 11."""
    ref = load_model(DATA / "pergate_init_seed11.ckpt")
    assert params_bytes(init_params(ref.shape, seed=11)) == params_bytes(ref)


def test_per_gate_engine_checkpoint_predicts_as_it_did():
    """The per-gate engine predicted these values for this input."""
    model = load_model(DATA / "pergate_trained.ckpt")
    x = np.linspace(-1.0, 1.0, 8).reshape(4, 2) * model.scaler.std + model.scaler.mean  # in original units
    np.testing.assert_allclose(predict(model, x), [0.3794287274250784, 0.3544857621197032], rtol=0.0, atol=1e-12)


def test_checkpoint_without_scaler(tmp_path):
    model = init_params(TOY, seed=13)
    p = tmp_path / "m.ckpt"
    save_model(model, p)
    assert load_model(p).scaler is None


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
    with pytest.raises(DataError, match="magic"):
        load_model(p)


def test_checkpoint_truncated(tmp_path):
    model = init_params(TOY, seed=14)
    p = tmp_path / "m.ckpt"
    save_model(model, p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) - 16])
    with pytest.raises(DataError, match="truncated"):
        load_model(p)


def test_checkpoint_trailing_bytes(tmp_path):
    model = init_params(TOY, seed=15)
    p = tmp_path / "m.ckpt"
    save_model(model, p)
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(DataError, match="trailing"):
        load_model(p)


def rewrite_header(path: Path, edit) -> None:
    """Replace a checkpoint's JSON header with `edit(header)`, keeping its tensors."""
    header_line, _, body = path.read_bytes()[len(CHECKPOINT_MAGIC) :].partition(b"\n")
    new = edit(json.loads(header_line))
    path.write_bytes(CHECKPOINT_MAGIC + json.dumps(new).encode("utf-8") + b"\n" + body)


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: {k: v for k, v in h.items() if k != "horizon"},
        lambda h: {**h, "horizon": 0},
        lambda h: {**h, "horizon": 1.5},
        lambda h: {**h, "horizon": True},
        lambda h: {**h, "encoder_hidden": "4"},
        lambda h: [h],
        lambda h: {**h, "scaler": {"mean": [1.0], "std": [1.0]}},
        lambda h: {**h, "scaler": {"mean": [1.0, 2.0]}},
        lambda h: {**h, "scaler": [1.0, 2.0]},
        lambda h: {**h, "scaler": {"mean": [1.0, 2.0], "std": [1.0, 0.0]}},
    ],
    ids=["no-horizon", "zero", "float", "bool", "string", "list", "scaler-length", "scaler-std", "scaler-list", "scaler-zero-std"],
)
def test_checkpoint_malformed_header_is_a_data_error(tmp_path, edit):
    scaler = Scaler(mean=np.array([1.0, 2.0]), std=np.array([3.0, 4.0]))
    p = tmp_path / "m.ckpt"
    save_model(init_params(TOY, seed=25, scaler=scaler), p)
    rewrite_header(p, edit)
    with pytest.raises(DataError, match="m.ckpt"):
        load_model(p)


@pytest.mark.parametrize(
    ("value", "where", "named"),
    [
        (np.nan, 0, "tensor encoder.w (gate i) at index 0"),
        (np.inf, 2 * 16 + 5, "tensor encoder.u (gate i) at index 5"),  # encoder.w holds 16 x 2
        (-np.inf, -1, "tensor head_out.bias at index 0"),
    ],
    ids=["nan", "inf", "-inf"],
)
def test_checkpoint_with_a_non_finite_parameter_is_a_data_error(tmp_path, value, where, named):
    model = init_params(TOY, seed=26)
    model.flat[where] = value
    p = tmp_path / "m.ckpt"
    save_model(model, p)
    with pytest.raises(DataError, match="m.ckpt") as info:
        load_model(p)
    assert named in str(info.value)


def test_checkpoint_starts_with_magic(tmp_path):
    model = init_params(TOY, seed=16)
    p = tmp_path / "m.ckpt"
    save_model(model, p)
    assert p.read_bytes().startswith(CHECKPOINT_MAGIC)


def test_copy_model_isolated():
    model = init_params(TOY, seed=17)
    clone = copy_model(model)
    clone.encoder.w[0, 0] += 1.0
    assert model.encoder.w[0, 0] != clone.encoder.w[0, 0]
    assert not np.shares_memory(clone.flat, model.flat)


def parameter_views(model) -> dict[str, np.ndarray]:
    """Every tensor view, by its name in `tensors` and by attribute."""
    views = {f"tensors[{name}]": a for name, a in model.tensors.items()}
    for part in ("encoder", "decoder"):
        views.update({f"{part}.{k}": getattr(getattr(model, part), k) for k in ("w", "u", "b")})
    for part in ("head_hidden", "head_out"):
        views.update({f"{part}.{k}": getattr(getattr(model, part), k) for k in ("weight", "bias")})
    return views


def test_unpickled_model_views_share_its_vector():
    scaler = Scaler(mean=np.array([1.0, 2.0]), std=np.array([3.0, 4.0]))
    model = init_params(TOY, seed=17, scaler=scaler)
    data = pickle.dumps(model)
    assert len(data) < model.flat.nbytes + 1024  # the vector is pickled once
    back = pickle.loads(data)
    assert back.flat.tobytes() == model.flat.tobytes()
    np.testing.assert_array_equal(back.scaler.mean, scaler.mean)
    for name, a in parameter_views(back).items():
        assert np.shares_memory(a, back.flat), name
        assert not np.shares_memory(a, model.flat), name
    back.tensors["head_out.bias"][0] = 5.0
    assert back.head_out.bias[0] == 5.0 and back.flat[-1] == 5.0


# -- precision -------------------------------------------------------------------

@pytest.mark.parametrize("field", ["inputs", "targets"])
def test_train_refuses_values_beyond_float32(field):
    """Finite in float64 but past float32's range: a DataError, not a cast to inf."""
    windows = toy_windows(n=4, seed=20)
    getattr(windows, field)[1, 0, 0] = 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="float32 range"):
            train(init_params(TOY, seed=20), windows, None, TrainConfig(epochs=1, batch_size=4), seed=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_and_backward_run_in_the_model_dtype(dtype):
    model = copy_model(init_params(TOY, seed=21), dtype)
    rng = np.random.default_rng(21)
    x, targets = rng.normal(size=(3, 5, 2)), rng.normal(size=(3, TOY.horizon))
    preds, cache = forward_batch(model, x)
    arrays = {"predictions": preds, **cache_arrays(cache)}
    _, grad = backward_batch(model, cache, targets)
    arrays.update(grad.tensors)
    assert {name: a.dtype for name, a in arrays.items()} == {name: np.dtype(dtype) for name in arrays}
    lean, _ = forward_batch(model, x, keep_cache=False)
    assert lean.dtype == dtype


def test_train_returns_float32_exact_float64_params(tmp_path):
    model = init_params(TOY, seed=22)
    trained, _ = train(model, toy_windows(n=10, seed=22), toy_windows(n=4, seed=23), TrainConfig(epochs=3, batch_size=4), seed=22)
    for name, a in trained.tensors.items():
        assert a.dtype == np.float64, name
        np.testing.assert_array_equal(a.astype(np.float32).astype(np.float64), a, err_msg=name)
    save_model(trained, tmp_path / "m.ckpt")
    assert params_bytes(load_model(tmp_path / "m.ckpt")) == params_bytes(trained)


def test_float32_training_tracks_a_float64_reference_loop():
    windows = toy_windows(n=12, seed=24)
    model = init_params(TOY, seed=24)
    config = TrainConfig(learning_rate=0.01, epochs=4, batch_size=4)
    trained, _ = train(model, windows, None, config, seed=24)

    ref, state, rng = copy_model(model), init_adam_state(model), np.random.default_rng(24)
    for _ in range(config.epochs):
        order = rng.permutation(windows.n_samples)
        for start in range(0, windows.n_samples, config.batch_size):
            idx = order[start : start + config.batch_size]
            _, cache = forward_batch(ref, windows.inputs[idx])
            _, grads = backward_batch(ref, cache, windows.targets[idx, :, 0])
            adam_step(ref, grads, state, config)
    assert ref.dtype == np.float64
    got, want = predict_batch(trained, windows.inputs), predict_batch(ref, windows.inputs)
    assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))
    assert params_bytes(trained) != params_bytes(ref)
