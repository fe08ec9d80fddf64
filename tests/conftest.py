"""Shared fixtures (synthetic datasets generated once per session) and
the LSTM tests' helpers: single-sample forward and one gate's rows."""

import numpy as np
import pytest

from smartcast.lstm import ForwardCache, LstmLayerParams, Seq2SeqModel, forward_batch
from smartcast.pipeline import parse_config
from smartcast.synth import SynthSpec, generate_dataset

TINY_SPEC = SynthSpec(
    n_days=140,
    depths_cm=(10, 30),
    n_images=8,
    image_width=8,
    image_height=8,
    grid_nx=6,
    grid_ny=6,
    cloud_image=None,
)


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    """Full bundled scenario (seed 7): 4 sensors x 3 depths x 400 days, 13 images."""
    out = tmp_path_factory.mktemp("synth_full")
    generate_dataset(out, seed=7)
    return out


@pytest.fixture(scope="session")
def synth_config(synth_dir):
    return parse_config(synth_dir / "config.json")


@pytest.fixture(scope="session")
def tiny_dir(tmp_path_factory):
    """Small fast scenario for pipeline plumbing tests."""
    out = tmp_path_factory.mktemp("synth_tiny")
    generate_dataset(out, seed=3, spec=TINY_SPEC)
    return out


def gate_rows(layer: LstmLayerParams, tensor: str, gate: str) -> np.ndarray:
    """Gate `gate`'s (one of "ifog") block of rows of `layer.<tensor>`."""
    n, k = layer.hidden_dim, "ifog".index(gate)
    return getattr(layer, tensor)[k * n : (k + 1) * n]


def seq2seq_forward(model: Seq2SeqModel, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Single-sample forward: x (L, d) -> (H,) prediction plus cache."""
    preds, cache = forward_batch(model, np.asarray(x, dtype=np.float64)[None, :, :])
    return preds[0], cache
