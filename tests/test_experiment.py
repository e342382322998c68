"""Tests for the experiment harness: runs, sweeps, heatmaps, reports."""

import json
import warnings

import numpy as np
import pytest

from fuselab.data import gen_dataset
from fuselab.experiment import (
    ABLATION_AXES,
    ExperimentConfig,
    ablate,
    drop_heatmap,
    expected_mean_freq,
    gradcheck_report,
    heatmap_csv,
    loss_decreased,
    markdown_table,
    projection_ordering_note,
    rerun,
    run_experiment,
    train_and_save,
)
from fuselab import model as model_module
from fuselab.model import LEGAL_PLACEMENTS, DecoderModel
from fuselab.tensor import ACTIVATIONS


def tiny_config(**overrides):
    base = dict(
        n_blocks=2,
        d_model=16,
        d_in=8,
        rank=2,
        n_train=64,
        n_test=32,
        steps=6,
        batch_size=4,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_json_round_trip(self):
        cfg = tiny_config(placement=("mhsa_in", "mhsa_out"), scales=(1, 4))
        assert ExperimentConfig.from_json(json.dumps(cfg.to_dict())) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"learning_rate": 1.0})

    def test_model_config_mapping(self):
        cfg = tiny_config(channels=4)
        mc = cfg.model_config()
        assert mc.vocab_size == 36
        assert mc.placement == ("mlp_in", "mlp_out")
        assert mc.seed == cfg.seed

    def test_defaults_match_toy_scale(self):
        cfg = ExperimentConfig()
        assert (cfg.d_model, cfg.d_in, cfg.rank, cfg.n_blocks) == (64, 32, 8, 2)
        assert (cfg.n_train, cfg.n_test, cfg.steps, cfg.channels) == (4096, 1024, 2000, 8)


@pytest.fixture(scope="module")
def report():
    return run_experiment(tiny_config(), label="unit")


class TestRunExperiment:

    def test_report_fields(self, report):
        assert report.ok
        assert report.label == "unit"
        assert report.losses.shape == (6,)
        assert 0.0 <= report.final_accuracy <= 1.0
        assert report.wall_clock_s > 0

    def test_flops_reflect_run_shape(self, report):
        assert report.flops.N == 320
        assert report.flops.d == 16
        assert report.flops.flops_param_free == 2 * 3 * 320 * 16

    def test_heatmap_grids_per_scale(self, report):
        assert set(report.heatmaps.freq) == {1, 2}
        assert report.heatmaps.freq[1].shape == (16, 16)
        assert report.heatmaps.freq[2].shape == (8, 8)

    def test_json_serializable(self, report):
        payload = json.loads(report.to_json())
        assert payload["final_accuracy"] == report.final_accuracy
        assert len(payload["losses"]) == 6
        assert payload["heatmaps"]["grids"]["1"]["freq"][0][0] == report.heatmaps.freq[1][0, 0]

    def test_reproducible_from_embedded_config(self, report):
        replay = rerun(report)
        assert replay.final_accuracy == report.final_accuracy
        np.testing.assert_array_equal(replay.losses, report.losses)
        np.testing.assert_array_equal(replay.heatmaps.freq[1], report.heatmaps.freq[1])

    def test_artifacts_written(self, tmp_path):
        report = train_and_save(tiny_config(), tmp_path / "run")
        base = tmp_path / "run"
        for name in ("report.json", "report.md", "heatmap_scale1.csv", "heatmap_scale2_normalized.csv"):
            assert (base / name).exists(), name
        manifest = json.loads((base / "checkpoint" / "manifest.json").read_text())
        assert manifest["metrics"]["final_accuracy"] == report.final_accuracy


class TestAblate:
    def test_axis_sets_are_the_published_ones(self):
        sizes = {axis: len(rows()) for axis, rows in ABLATION_AXES.items()}
        assert sizes == {
            "projection": 6,
            "placement": 6,
            "pooling": 8,
            "alpha": 5,
            "beta": 5,
            "gamma": 5,
        }

    def test_projection_sweep_covers_all_activations(self):
        labels = {label for _, label in ABLATION_AXES["projection"]()}
        assert labels == {f"phi={k}" for k in ACTIVATIONS}

    def test_pooling_rows_include_max_variant(self):
        rows = ABLATION_AXES["pooling"]()
        pools = [over["pool"] for over, _ in rows]
        assert pools.count("max") == 1
        assert rows[-1][0] == {"scales": (1, 2), "pool": "max"}

    def test_sweep_runs_and_sorts(self):
        reports = ablate("placement", base_seed=5, base_config=tiny_config(steps=3))
        assert len(reports) == 6
        assert all(r.ok for r in reports)
        assert {r.seed for r in reports} == set(range(5, 11))
        accs = [r.final_accuracy for r in reports]
        assert accs == sorted(accs, reverse=True)

    def test_failures_recorded_not_raised(self):
        # a learning rate this large overflows the fusion tensors, so every run diverges at step 1
        with np.errstate(over="ignore", invalid="ignore"):
            reports = ablate("gamma", base_config=tiny_config(base_lr=1e200))
        assert len(reports) == 5
        assert all(not r.ok for r in reports)
        assert all(r.error.startswith("TrainingDiverged: loss became nan at step 1") for r in reports)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            ablate("dropout")

    def test_ordering_note_mentions_all_three(self):
        reports = ablate("projection", base_config=tiny_config(steps=2))
        note = projection_ordering_note(reports)
        for key in ("silu", "identity", "softmax_rows"):
            assert key in note


class TestDropHeatmap:
    def test_conservation_exact(self):
        cfg = tiny_config(gamma=0.4)
        _, test_set = gen_dataset(cfg.seed, 4, 32, cfg.channels)
        model = DecoderModel.build(cfg.model_config())
        report = drop_heatmap(model, test_set, n_samples=32)
        assert report.mean_freq == pytest.approx(expected_mean_freq(0.4, 320), abs=1e-12)

    def test_gamma_zero_warns_and_keeps_everything(self):
        cfg = tiny_config(gamma=0.0)
        _, test_set = gen_dataset(cfg.seed, 4, 16, cfg.channels)
        model = DecoderModel.build(cfg.model_config())
        with pytest.warns(UserWarning, match="gamma is 0"):
            report = drop_heatmap(model, test_set, n_samples=16)
        for grid in report.freq.values():
            np.testing.assert_array_equal(grid, np.ones_like(grid))
        assert report.queried_top_decile_rate == 1.0

    def test_normalized_peaks_at_one(self):
        cfg = tiny_config()
        _, test_set = gen_dataset(cfg.seed, 4, 16, cfg.channels)
        model = DecoderModel.build(cfg.model_config())
        report = drop_heatmap(model, test_set, n_samples=16)
        for grid in report.normalized.values():
            assert grid.max() == 1.0
            assert grid.min() >= 0.0

    def test_scale_order_respected(self):
        cfg = tiny_config(scales=(2, 1))
        _, test_set = gen_dataset(cfg.seed, 4, 16, cfg.channels)
        model = DecoderModel.build(cfg.model_config())
        report = drop_heatmap(model, test_set, n_samples=16)
        assert report.freq[1].shape == (16, 16)
        assert report.freq[2].shape == (8, 8)
        assert report.queried_top_decile_rate is not None

    def test_no_fine_scale_skips_cell_statistic(self):
        cfg = tiny_config(scales=(2, 4))
        _, test_set = gen_dataset(cfg.seed, 4, 16, cfg.channels)
        model = DecoderModel.build(cfg.model_config())
        report = drop_heatmap(model, test_set, n_samples=16)
        assert report.queried_top_decile_rate is None
        assert set(report.freq) == {2, 4}

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_non_positive_sample_count_rejected(self, n_samples):
        cfg = tiny_config()
        _, test_set = gen_dataset(cfg.seed, 4, 16, cfg.channels)
        model = DecoderModel.build(cfg.model_config())
        with pytest.raises(ValueError, match="at least one sample"):
            drop_heatmap(model, test_set, n_samples=n_samples)

    def test_batching_invariant(self):
        cfg = tiny_config()
        _, test_set = gen_dataset(cfg.seed, 4, 32, cfg.channels)
        model = DecoderModel.build(cfg.model_config())
        a = drop_heatmap(model, test_set, n_samples=32, batch_size=32)
        b = drop_heatmap(model, test_set, n_samples=32, batch_size=5)
        np.testing.assert_array_equal(a.counts[1], b.counts[1])
        assert a.queried_top_decile_rate == b.queried_top_decile_rate


class TestGradcheckReport:
    def test_passes_and_covers_both_gammas(self):
        result = gradcheck_report(seed=0, trials=8)
        assert result["ok"]
        assert result["max_rel_err"] <= 1e-4
        assert {row["gamma"] for row in result["trials"]} == {0.0, 0.2}
        assert len(result["trials"]) == 8

    def test_twenty_trials_cover_every_placement_phi_and_gamma(self):
        result = gradcheck_report(seed=0, trials=20)
        rows = result["trials"]
        assert result["ok"]
        assert {r["placement"] for r in rows} == {f"{q}->{a}" for q, a in LEGAL_PLACEMENTS}
        assert {r["phi"] for r in rows} == set(ACTIVATIONS)
        assert {r["gamma"] for r in rows} == {0.0, 0.2}
        for r in rows:
            assert set(r["by_tensor"]) == {"a_feat", "b_feat", "a_cls", "b_cls", "pos_embed"}
            assert r["n_blocks"] in (1, 2) and 4 <= r["d_model"] <= 8

    def test_catches_a_wrong_layer_norm_backward(self, monkeypatch):
        # every gradient passes through the final norm, so every trial must fail
        ln_backward = model_module._ln_backward
        monkeypatch.setattr(model_module, "_ln_backward", lambda *args: 1.5 * ln_backward(*args))
        result = gradcheck_report(seed=0, trials=6)
        assert not result["ok"]
        assert all(r["max_rel_err"] > 0.1 for r in result["trials"])


    def test_mask_flip_is_not_a_gradient_error(self):
        """Seed 15, trial 15: a +-1e-5 step at b_cls's largest gradient flips two keep-mask entries."""
        result = gradcheck_report(seed=15, trials=16)
        assert result["ok"]
        assert result["trials"][15]["nonsmooth"] == 1 == result["nonsmooth"]

    def test_catches_a_wrong_gradient_where_a_mask_flips(self, monkeypatch):
        loss_and_grads = DecoderModel.loss_and_grads

        def wrong_at_largest_b_cls(self, *args):
            loss, grads = loss_and_grads(self, *args)
            b_cls = grads["b_cls"].reshape(-1)
            b_cls[np.argmax(np.abs(b_cls))] *= 1.001
            return loss, grads

        monkeypatch.setattr(DecoderModel, "loss_and_grads", wrong_at_largest_b_cls)
        result = gradcheck_report(seed=15, trials=16)
        flipped = result["trials"][15]
        assert not result["ok"] and flipped["nonsmooth"] == 1
        assert flipped["by_tensor"]["b_cls"] > result["tolerance"]
        assert all(err <= result["tolerance"] for name, err in flipped["by_tensor"].items() if name != "b_cls")


class TestReportHelpers:
    def test_loss_decreased(self):
        assert loss_decreased(np.linspace(3.0, 1.0, 50))
        assert not loss_decreased(np.linspace(1.0, 3.0, 50))

    def test_markdown_table_lists_each_report(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the gamma=0 sweep row
            reports = ablate("gamma", base_config=tiny_config(steps=2))
        table = markdown_table(reports)
        assert table.count("\n") == len(reports) + 2
        for r in reports:
            assert r.label in table

    def test_heatmap_csv_round_trip(self):
        grid = np.arange(16, dtype=float).reshape(4, 4) / 16
        text = heatmap_csv(grid)
        parsed = np.array([[float(v) for v in line.split(",")] for line in text.strip().splitlines()])
        np.testing.assert_allclose(parsed, grid, atol=1e-6)
