"""Tests for the two configs' flat dict forms and their construction-time checks."""

import json
from dataclasses import fields

import numpy as np
import pytest

from fuselab.experiment import ExperimentConfig
from fuselab.model import DecoderModel, ModelConfig, load_checkpoint, save_checkpoint

# The dict forms as written by earlier versions, key order included: report.json
# files, config files and checkpoint manifests hold exactly these.
EXPERIMENT_DEFAULT = {
    "n_blocks": 2, "d_model": 64, "d_in": 32, "rank": 8, "max_seq": 8,
    "placement": ["mlp_in", "mlp_out"], "alpha": 0.1, "beta": 0.01, "gamma": 0.2, "phi": "silu",
    "scales": [1, 2], "pool": "avg", "pos_scale": 0.3, "b_scale": 1.0,
    "channels": 8, "n_train": 4096, "n_test": 1024, "steps": 2000, "batch_size": 64,
    "base_lr": 0.009, "align_keys": True, "key_gain": 0.5, "seed": 0,
}
SWEEP_SMALL = {
    **EXPERIMENT_DEFAULT,
    "d_model": 32, "d_in": 16, "rank": 4, "n_train": 512, "n_test": 128, "steps": 20, "batch_size": 32,
}
MODEL_DEFAULT = {
    "n_blocks": 2, "d_model": 64, "d_in": 32, "rank": 8, "vocab_size": 40, "max_seq": 8,
    "placement": ["mlp_in", "mlp_out"], "alpha": 0.1, "beta": 0.01, "gamma": 0.2, "phi": "silu",
    "scales": [1, 2], "pool": "avg", "pos_scale": 0.1, "b_scale": 0.1, "seed": 0,
}

# values of the wrong type for their field, as a JSON config could hold them, and a negative seed
MISTYPED = [
    {"seed": 1.5}, {"steps": 1.5}, {"d_model": 8.5}, {"seed": "a"}, {"alpha": "x"}, {"placement": "mlp_in"},
    {"scales": 1}, {"scales": [1.5, 2]}, {"scales": [True, 2]}, {"seed": -1}, {"align_keys": "no"},
]
MISTYPED_IDS = ["seed-float", "steps-float", "d_model-float", "seed-str", "alpha-str", "placement-str",
                "scales-int", "scales-float-item", "scales-bool-item", "seed-negative", "align_keys-str"]

UNBUILDABLE = [
    {"scales": (3,)}, {"scales": ()}, {"scales": (1, 1)}, {"pool": "median"},
    {"gamma": 1.0}, {"gamma": -0.1}, {"phi": "gelu"},
    {"base_lr": 0.0}, {"base_lr": -0.5}, {"base_lr": float("nan")},
    *MISTYPED,
]


class TestDictForms:
    @pytest.mark.parametrize(
        "config, expected",
        [
            (ExperimentConfig(), EXPERIMENT_DEFAULT),
            (
                ExperimentConfig(d_model=32, d_in=16, rank=4, n_train=512, n_test=128, steps=20, batch_size=32),
                SWEEP_SMALL,
            ),
            (ModelConfig(), MODEL_DEFAULT),
        ],
        ids=["experiment-default", "sweep-small", "model-default"],
    )
    def test_keys_order_and_values_unchanged(self, config, expected):
        d = config.to_dict()
        assert list(d.items()) == list(expected.items())
        assert json.dumps(d) == json.dumps(expected)
        assert len(fields(config)) == len(expected)
        assert type(config).from_dict(json.loads(json.dumps(d))) == config

    def test_experiment_differs_from_model_in_two_defaults(self):
        model = ExperimentConfig().model_config().to_dict()
        assert model == {**MODEL_DEFAULT, "pos_scale": 0.3, "b_scale": 1.0}


@pytest.mark.parametrize(
    "bad", UNBUILDABLE,
    ids=["scale-3", "no-scales", "repeated-scale", "median-pool", "gamma-1", "gamma-negative", "gelu-phi",
         "lr-zero", "lr-negative", "lr-nan", *MISTYPED_IDS],
)
def test_unbuildable_prompt_rejected_at_construction(bad, tmp_path):
    """Every entry fails ExperimentConfig; the ModelConfig fields among them also fail the model's checks."""
    with pytest.raises(ValueError):
        ExperimentConfig(**bad)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(bad)
    if not set(bad) <= {f.name for f in fields(ModelConfig)}:
        return  # a run setting: a model config has no such field
    with pytest.raises(ValueError):
        ModelConfig(**bad)
    save_checkpoint(tmp_path / "ck", DecoderModel.build(ModelConfig(d_model=8, d_in=4, rank=2, scales=(4,))))
    manifest_path = tmp_path / "ck" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"].update(bad)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "ck")


def test_int_is_accepted_for_a_real_field():
    assert ExperimentConfig.from_dict({"alpha": 0, "base_lr": 1}).to_dict()["alpha"] == 0


# task settings only ExperimentConfig holds: a run needs 2 colors and a feature width that holds them
UNRUNNABLE = [({"channels": 1}, "channels must be at least 2, got 1"),
              ({"d_in": 4}, r"d_in must be at least channels \(8\), got 4")]


@pytest.mark.parametrize("bad, message", UNRUNNABLE, ids=["one-channel", "d_in-below-channels"])
def test_unrunnable_task_rejected_at_construction(bad, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**bad)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(bad)


def test_manifest_without_format_loads_bit_identical(tmp_path):
    """A manifest from before the format key reads as format 1."""
    model = DecoderModel.build(ModelConfig(d_model=8, d_in=4, rank=2, scales=(4,), seed=5))
    model.fusion.b_feat[:] = np.random.default_rng(1).normal(size=model.fusion.b_feat.shape)
    save_checkpoint(tmp_path / "ck", model, step=3, metrics={"final_accuracy": 0.25})
    manifest_path = tmp_path / "ck" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest.pop("format") == 1
    assert list(manifest) == ["config", "step", "metrics", "tensors"]
    manifest_path.write_text(json.dumps(manifest, indent=2))
    back, step, metrics = load_checkpoint(tmp_path / "ck")
    assert (step, metrics) == (3, {"final_accuracy": 0.25})
    assert back.config.to_dict() == {**MODEL_DEFAULT, "d_model": 8, "d_in": 4, "rank": 2, "scales": [4], "seed": 5}
    before = {**model.base_tensors(), **model.trainable_tensors()}
    after = {**back.base_tensors(), **back.trainable_tensors()}
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].tobytes() == after[name].tobytes(), name
