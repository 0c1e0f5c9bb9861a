"""Settings check themselves when built: a bad value raises from the
constructor and from ``dataclasses.replace``, and no field can be assigned
afterwards."""

from __future__ import annotations

import dataclasses
import functools

import pytest

from adgcode.cli import PipelineConfig
from adgcode.config import (
    BEAM_WIDTH_BOUND,
    CONCAT_CAP_BOUND,
    DIM_BOUND,
    MAX_LEN_BOUND,
    RELU_BOUND,
    EmbedderConfig,
    ModelConfig,
    TrainConfig,
)
from adgcode.synthetic import SyntheticGenerationError, SyntheticSpec

EMBEDDER = functools.partial(EmbedderConfig, dim=4)
SPEC = functools.partial(SyntheticSpec, 4, 8, 3, 12, seed=0)


@pytest.mark.parametrize(
    "build, name, bad, error",
    [
        (EMBEDDER, "hops", 0, ValueError),
        (EMBEDDER, "use_edge_labels", "off", TypeError),
        (EMBEDDER, "concat_cap", CONCAT_CAP_BOUND + 1, ValueError),
        (ModelConfig, "dropout", 1.0, ValueError),
        (ModelConfig, "beam_width", BEAM_WIDTH_BOUND + 1, ValueError),
        (ModelConfig, "max_len", MAX_LEN_BOUND + 1, ValueError),
        (ModelConfig, "word_dim", DIM_BOUND + 1, ValueError),
        (ModelConfig, "code_dim", DIM_BOUND + 1, ValueError),
        (ModelConfig, "hidden_dim", DIM_BOUND + 1, ValueError),
        (ModelConfig, "mlp_hidden", DIM_BOUND + 1, ValueError),
        (ModelConfig, "relu_layers", RELU_BOUND + 1, ValueError),
        (ModelConfig, "relu_window", RELU_BOUND + 1, ValueError),
        (TrainConfig, "max_steps", 0, ValueError),
        (TrainConfig, "batch_size", True, TypeError),
        (PipelineConfig, "seed", -1, ValueError),
        (PipelineConfig, "seed", 1.5, TypeError),
        (SPEC, "min_chain_len", 4, SyntheticGenerationError),
        (SPEC, "seed", -1, SyntheticGenerationError),
    ],
    ids=[
        "embedder-hops", "embedder-labels", "embedder-concat-cap", "model-dropout",
        "model-beam-width", "model-max-len", "model-word-dim", "model-code-dim",
        "model-hidden-dim", "model-mlp-hidden", "model-relu-layers", "model-relu-window",
        "train-max-steps", "train-batch-size", "pipeline-seed",
        "pipeline-seed-type", "spec-chain", "spec-seed",
    ],
)
def test_bad_value_raises_when_built(build, name, bad, error):
    good = build()
    with pytest.raises(error):
        build(**{name: bad})
    with pytest.raises(error):
        dataclasses.replace(good, **{name: bad})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(good, name, getattr(good, name))


def test_decoding_bounds_are_inclusive():
    # construction only: nothing decodes at these sizes
    config = ModelConfig(beam_width=BEAM_WIDTH_BOUND, max_len=MAX_LEN_BOUND)
    assert (config.beam_width, config.max_len) == (BEAM_WIDTH_BOUND, MAX_LEN_BOUND)


def test_size_bounds_are_inclusive():
    # construction only: no array is allocated at these sizes
    sizes = dict.fromkeys(("word_dim", "code_dim", "hidden_dim", "mlp_hidden"), DIM_BOUND)
    sizes.update(relu_layers=RELU_BOUND, relu_window=RELU_BOUND)
    config = ModelConfig(**sizes)
    assert all(getattr(config, name) == size for name, size in sizes.items())
    embedder = EMBEDDER(virtualization="concat", concat_cap=CONCAT_CAP_BOUND)
    assert embedder.concat_cap == CONCAT_CAP_BOUND
