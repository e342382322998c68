"""Tests for the frozen toy decoder and its placement-configurable fusion."""

import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fuselab.experiment import ExperimentConfig
from fuselab.model import (
    LEGAL_PLACEMENTS,
    DecoderModel,
    ModelConfig,
    answer_nll,
    load_checkpoint,
    save_checkpoint,
)
from fuselab.tensor import TILE_BYTES, ShapeError, save_tensor

from .oracles import fd_grad, grad_rel_err, softmax_row_list


def tiny_config(**overrides):
    base = dict(
        n_blocks=2,
        d_model=8,
        d_in=4,
        rank=2,
        vocab_size=40,
        max_seq=4,
        placement=("mlp_in", "mlp_out"),
        alpha=0.1,
        beta=0.01,
        gamma=0.2,
        phi="silu",
        scales=(4,),
        pos_scale=0.3,
        seed=3,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_inputs(seed=0, batch=2, vocab=40, n_rows=16, d_in=4):
    g = np.random.default_rng(seed)
    tokens = g.integers(0, vocab, size=(batch, 2))
    feats = g.normal(size=(batch, n_rows, d_in))
    cls_raw = g.normal(size=(batch, 1, d_in))
    targets = g.integers(0, 8, size=batch)
    return tokens, feats, cls_raw, targets


def awaken(model, seed=0, scale=0.3):
    """Give the fusion branch nonzero content weights (off the init saddle)."""
    g = np.random.default_rng(seed)
    model.fusion.b_feat[:] = scale * g.normal(size=model.fusion.b_feat.shape)
    model.fusion.b_cls[:] = scale * g.normal(size=model.fusion.b_cls.shape)
    return model


def assert_gradcheck(model, tokens, feats, cls_raw, targets, *, label=None):
    """Every fusion gradient of loss_and_grads within 1e-4 of central differences.

    The gradients are a dict with exactly the keys, order and shapes of
    trainable_tensors()."""
    _, grads = model.loss_and_grads(tokens, feats, cls_raw, targets)
    shapes = [(name, t.shape) for name, t in model.trainable_tensors().items()]
    assert isinstance(grads, dict) and [(name, g.shape) for name, g in grads.items()] == shapes, label
    for name, analytic in grads.items():
        numeric = fd_grad(
            lambda _v: model.loss_and_grads(tokens, feats, cls_raw, targets)[0],
            model.trainable_tensors()[name],
            inplace=True,
        )
        assert grad_rel_err(analytic, numeric) <= 1e-4, (label, name)


class TestModelConfig:
    def test_six_legal_placements(self):
        assert len(LEGAL_PLACEMENTS) == 6
        for pair in LEGAL_PLACEMENTS:
            assert tiny_config(placement=pair).placement == pair

    @pytest.mark.parametrize(
        "pair",
        [("mlp_out", "mlp_in"), ("mhsa_out", "mhsa_in"), ("mhsa_in", "mlp_out"),
         ("mlp_in", "mhsa_out"), ("nowhere", "mlp_out")],
    )
    def test_illegal_placement_rejected(self, pair):
        with pytest.raises(ValueError, match="not one of the 6 legal pairs"):
            tiny_config(placement=pair)

    def test_default_placement_is_best_row(self):
        assert ModelConfig().placement == ("mlp_in", "mlp_out")

    def test_dict_roundtrip(self):
        cfg = tiny_config(placement=("mhsa_in", "mhsa_out"), scales=(1, 2))
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ModelConfig.from_dict({**tiny_config().to_dict(), "n_heads": 4})

    def test_placement_tuple_coerced(self):
        assert tiny_config(placement=["mhsa_out", "mhsa_out"]).placement == ("mhsa_out", "mhsa_out")

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            tiny_config(n_blocks=0)
        with pytest.raises(ValueError):
            tiny_config(d_model=-4)

    def test_row_count_follows_scales(self):
        assert tiny_config(scales=(1, 2)).n_rows == 320
        assert tiny_config(scales=(4,)).n_rows == 16


class TestNullityAndBaseline:
    def test_init_is_exact_noop(self):
        cfg = tiny_config(pos_scale=0.0, b_scale=0.0)
        fused = DecoderModel.build(cfg)
        silent = DecoderModel.build(replace(cfg, alpha=0.0))
        ours, theirs = ({**m.base_tensors(), **m.trainable_tensors()} for m in (fused, silent))
        assert all(ours[n].tobytes() == theirs[n].tobytes() for n in ours), "alpha must draw nothing at init"
        for seed in range(4):
            tokens, feats, cls_raw, _ = tiny_inputs(seed)
            a = fused.forward(tokens, feats, cls_raw)
            b = silent.forward(tokens, feats, cls_raw)
            assert a.tobytes() == b.tobytes()

    def test_nonzero_fusion_changes_logits(self):
        cfg = tiny_config()
        fused = awaken(DecoderModel.build(cfg))
        silent = awaken(DecoderModel.build(replace(cfg, alpha=0.0)))  # differs from fused only in alpha
        tokens, feats, cls_raw, _ = tiny_inputs(1)
        assert not np.array_equal(fused.forward(tokens, feats, cls_raw), silent.forward(tokens, feats, cls_raw))


class TestPlacements:
    def test_no_two_placements_alias(self):
        outs = {}
        tokens, feats, cls_raw, _ = tiny_inputs(2)
        for q, a in LEGAL_PLACEMENTS:
            model = awaken(DecoderModel.build(tiny_config(placement=(q, a))))
            outs[(q, a)] = model.forward(tokens, feats, cls_raw)
        pairs = list(outs)
        for i, p in enumerate(pairs):
            for other in pairs[i + 1:]:
                assert not np.array_equal(outs[p], outs[other]), (p, other)

    @pytest.mark.parametrize("pair", LEGAL_PLACEMENTS)
    def test_gradcheck_every_placement(self, pair):
        model = awaken(DecoderModel.build(tiny_config(placement=pair)))
        assert_gradcheck(model, *tiny_inputs(3), label=pair)

    @pytest.mark.parametrize("phi", ["identity", "elu", "softmax_rows", "silu_positive"])
    def test_gradcheck_other_projections(self, phi):
        model = awaken(DecoderModel.build(tiny_config(phi=phi)))
        assert_gradcheck(model, *tiny_inputs(4), label=phi)

    @pytest.mark.parametrize("n_blocks", [1, 3])
    def test_gradcheck_block_counts(self, n_blocks):
        # the sites' factors are concatenated into one visual backward
        model = awaken(DecoderModel.build(tiny_config(n_blocks=n_blocks)))
        assert_gradcheck(model, *tiny_inputs(12), label=n_blocks)


class TestCausality:
    @pytest.mark.parametrize("position", [0, 1])
    def test_future_tokens_do_not_leak(self, position):
        model = awaken(DecoderModel.build(tiny_config()))
        tokens, feats, cls_raw, _ = tiny_inputs(5)
        base = model.forward(tokens, feats, cls_raw)
        mutated = tokens.copy()
        mutated[:, position] = (mutated[:, position] + 7) % model.config.vocab_size
        out = model.forward(mutated, feats, cls_raw)
        # stream position of text token t is t+1 (cls sits at 0)
        unchanged = base[:, : position + 1, :]
        assert out[:, : position + 1, :].tobytes() == unchanged.tobytes()
        assert not np.array_equal(out[:, position + 1, :], base[:, position + 1, :])

    def test_visual_keys_reach_all_positions(self):
        model = awaken(DecoderModel.build(tiny_config()))
        tokens, feats, cls_raw, _ = tiny_inputs(6)
        base = model.forward(tokens, feats, cls_raw)
        feats2 = feats.copy()
        feats2[:, 3, :] += 1.0
        out = model.forward(tokens, feats2, cls_raw)
        assert not np.array_equal(out, base)


class TestBatchSemantics:
    @pytest.mark.parametrize("phi", ["silu", "silu_positive", "softmax_rows"])
    def test_batch_rows_match_single_sample_runs(self, phi):
        model = awaken(DecoderModel.build(tiny_config(phi=phi)))
        tokens, feats, cls_raw, _ = tiny_inputs(7, batch=3)
        batched = model.forward(tokens, feats, cls_raw)
        for b in range(3):
            single = model.forward(tokens[b : b + 1], feats[b : b + 1], cls_raw[b : b + 1])
            np.testing.assert_array_equal(batched[b], single[0])

    def test_masks_have_exact_cardinality(self):
        model = awaken(DecoderModel.build(tiny_config(gamma=0.2)))
        tokens, feats, cls_raw, _ = tiny_inputs(8)
        _, masks = model.forward(tokens, feats, cls_raw, want_masks=True)
        assert len(masks) == model.config.n_blocks
        k = int(np.floor(0.2 * model.config.n_rows))
        for mask in masks:
            assert mask.shape == (2, 3, model.config.n_rows)
            np.testing.assert_array_equal((mask == 0).sum(axis=-1), k)

    @pytest.fixture()
    def tiled(self):
        """An awake default model and a 13-sample batch that runs as at least 3 uneven tiles."""
        config = ModelConfig()
        model = awaken(DecoderModel.build(config))
        inputs = tiny_inputs(15, 13, config.vocab_size, config.n_rows, config.d_in)
        tiles = model.tiles(13)
        sizes = [len(range(13)[t]) for t in tiles]
        assert len(tiles) >= 3 and len(set(sizes)) > 1 and sum(sizes) == 13
        return model, inputs, tiles

    def test_tiles_match_single_sample_runs(self, tiled):
        model, (tokens, feats, cls_raw, _), _ = tiled
        logits, masks = model.forward(tokens, feats, cls_raw, want_masks=True)
        for b in range(13):
            one = slice(b, b + 1)
            single_logits, single_masks = model.forward(tokens[one], feats[one], cls_raw[one], want_masks=True)
            assert logits[one].tobytes() == single_logits.tobytes()
            for block, single in zip(masks, single_masks, strict=True):
                assert block[one].tobytes() == single.tobytes()

    @pytest.mark.parametrize("answer", ["last-position"])
    def test_tiled_loss_is_count_weighted_sum_of_samples(self, tiled, answer):
        """Each of the 13 samples weighs 1/13: the tiles' shares add up to the batch mean."""
        model, (tokens, feats, cls_raw, targets), _ = tiled
        loss, grads = model.loss_and_grads(tokens, feats, cls_raw, targets)
        expect_loss, expect = 0.0, {name: np.zeros_like(t) for name, t in model.trainable_tensors().items()}
        weight = 1 / 13
        for b in range(13):
            one = slice(b, b + 1)
            sample_loss, sample_grads = model.loss_and_grads(tokens[one], feats[one], cls_raw[one], targets[one])
            expect_loss += weight * sample_loss
            for name, g in sample_grads.items():
                expect[name] += weight * g
        assert abs(loss - expect_loss) <= 1e-12 * abs(expect_loss)
        assert list(grads) == list(expect)
        for name, g in grads.items():
            np.testing.assert_allclose(g, expect[name], rtol=0, atol=1e-12 * np.max(np.abs(expect[name])), err_msg=name)

    def test_shape_errors_name_the_whole_batch(self, tiled):
        model, (tokens, feats, cls_raw, targets), _ = tiled
        rows_cut = feats[:, :5]
        with pytest.raises(ShapeError, match=re.escape(f"visual features {rows_cut.shape}")):
            model.forward(tokens, rows_cut, cls_raw)
        with pytest.raises(ShapeError, match=re.escape(f"visual features {rows_cut.shape}")):
            model.loss_and_grads(tokens, rows_cut, cls_raw, targets)
        with pytest.raises(ShapeError, match="must share their batch size"):
            model.forward(tokens, feats[:12], cls_raw)
        with pytest.raises(ShapeError, match=re.escape(f"tokens must be (batch, T), got {tokens[:, :, None].shape}")):
            model.loss_and_grads(tokens[:, :, None], feats, cls_raw, targets)

    def test_empty_batch(self):
        model = DecoderModel.build(tiny_config())
        tokens, feats, cls_raw, targets = (a[:0] for a in tiny_inputs(17))
        assert model.forward(tokens, feats, cls_raw).shape == (0, 3, 40)
        loss, grads = model.loss_and_grads(tokens, feats, cls_raw, targets)
        assert loss == 0.0
        assert [(name, g.shape) for name, g in grads.items()] == [
            (name, t.shape) for name, t in model.trainable_tensors().items()
        ]
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))


class TestLoss:
    def test_loss_is_mean_cross_entropy_at_last_position(self):
        model = awaken(DecoderModel.build(tiny_config()))
        tokens, feats, cls_raw, targets = tiny_inputs(10)
        loss, _ = model.loss_and_grads(tokens, feats, cls_raw, targets)
        logits = model.forward(tokens, feats, cls_raw)[:, -1, :]
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expect = -np.mean(logp[np.arange(2), targets])
        assert abs(loss - expect) < 1e-12

    @pytest.mark.parametrize("spread", [3.0, 1e3], ids=["ordinary", "spread-1e3"])
    @pytest.mark.parametrize("pick", ["random", "row-max", "row-min"])
    def test_answer_nll_is_minus_log_softmax(self, spread, pick):
        g = np.random.default_rng(18)
        logits = spread * g.uniform(-1.0, 1.0, size=(6, 40))
        targets = {"random": g.integers(0, 40, size=6), "row-max": logits.argmax(axis=1),
                   "row-min": logits.argmin(axis=1)}[pick]
        nll = answer_nll(logits, targets)
        assert nll.shape == (6,) and np.all(np.isfinite(nll))
        for row, t, got in zip(logits.tolist(), targets, nll):
            p = softmax_row_list(row)[t]
            if p > 0:
                expect = -math.log(p)
            else:  # p underflows to 0 at a 2e3 spread: the same -log p in the log domain
                top = max(row)
                expect = top - row[t] + math.log(math.fsum(math.exp(v - top) for v in row))
            assert abs(got - expect) <= 1e-12 * max(1.0, expect), (row[t], got, expect)

    @pytest.mark.parametrize("shape", [(2, 5, 4), (2, 1, 4), (2, 16, 3)])
    def test_visual_feature_shape_checked(self, shape):
        # the model reads 16 rows of width 4; anything else is a ShapeError naming both shapes
        model = DecoderModel.build(tiny_config())
        tokens, _, cls_raw, targets = tiny_inputs(14)
        feats = np.zeros(shape)
        both_shapes = rf"{re.escape(str(shape))}.*pos_embed \(16, 8\)"
        with pytest.raises(ShapeError, match=both_shapes):
            model.forward(tokens, feats, cls_raw)
        with pytest.raises(ShapeError, match=both_shapes):
            model.loss_and_grads(tokens, feats, cls_raw, targets)

    def test_overlong_sequence_rejected(self):
        model = DecoderModel.build(tiny_config(max_seq=2))
        tokens, feats, cls_raw, targets = tiny_inputs(11)
        with pytest.raises(ValueError):
            model.forward(tokens, feats, cls_raw)


class TestAllocationBudget:
    """Peak traced allocation of one call, in (tile, N, d) float64 arrays.

    The visual side of a step is memory-bound on those arrays, so an extra
    one must show here: each site forming its own (B, N, d) cotangents
    again, or forward keeping phi's saved state.  Measured at batch 4 (one
    tile): loss_and_grads 5.10 (8.67 when every site formed its own),
    forward 3.00 (3.73 when it kept the saved state).  At batch 64 (11
    tiles of at most 6): loss_and_grads 5.47, forward 3.15; run untiled,
    as one pass over all 64 samples, they were 54.3 and 32.0.
    """

    @staticmethod
    def peak_bytes(call, batch):
        config = ExperimentConfig().model_config()
        model = DecoderModel.build(config)
        tokens, feats, cls_raw, targets = tiny_inputs(14, batch, config.vocab_size, config.n_rows, config.d_in)
        args = (tokens, feats, cls_raw, targets)[: 4 if call == "loss_and_grads" else 3]
        getattr(model, call)(*args)  # warm: first calls allocate once-only state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            getattr(model, call)(*args)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("call, budget", [("loss_and_grads", 6.0), ("forward", 3.5)])
    def test_peak_in_visual_arrays(self, call, budget):
        config = ExperimentConfig().model_config()
        batch = 4
        unit = batch * config.n_rows * config.d_model * np.dtype(np.float64).itemsize
        assert self.peak_bytes(call, batch) / unit <= budget

    @pytest.mark.parametrize("call, budget", [("loss_and_grads", 6.0), ("forward", 3.5)])
    def test_peak_does_not_grow_with_batch(self, call, budget):
        """At batch 64 the unit is one tile's array: the largest tile whose array fits TILE_BYTES."""
        config = ExperimentConfig().model_config()
        sample_bytes = config.n_rows * config.d_model * np.dtype(np.float64).itemsize
        unit = (TILE_BYTES // sample_bytes) * sample_bytes
        assert self.peak_bytes(call, 64) / unit <= budget


class TestParameterBookkeeping:
    def test_trainable_size_formula(self):
        cfg = tiny_config(scales=(1, 2), d_model=8, d_in=4, rank=2)
        model = DecoderModel.build(cfg)
        d, dp, r, n = 8, 4, 2, 320
        assert sum(t.size for t in model.trainable_tensors().values()) == 2 * (dp * r + r * d) + n * d

    def test_base_and_trainable_disjoint(self):
        model = DecoderModel.build(tiny_config())
        base = set(model.base_tensors())
        trainable = set(model.trainable_tensors())
        assert not base & trainable
        assert len(base) == 2 + 6 * model.config.n_blocks


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = awaken(DecoderModel.build(tiny_config()))
        metrics = {"accuracy": 0.5}
        save_checkpoint(tmp_path / "ck", model, step=17, metrics=metrics)
        back, step, loaded_metrics = load_checkpoint(tmp_path / "ck")
        assert step == 17 and loaded_metrics == metrics
        assert back.config == model.config
        tokens, feats, cls_raw, _ = tiny_inputs(12)
        a = model.forward(tokens, feats, cls_raw)
        b = back.forward(tokens, feats, cls_raw)
        assert a.tobytes() == b.tobytes()

    def test_manifest_lists_every_tensor(self, tmp_path):
        import json

        model = DecoderModel.build(tiny_config())
        save_checkpoint(tmp_path / "ck", model)
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        n_expected = len(model.base_tensors()) + len(model.trainable_tensors())
        assert len(manifest["tensors"]) == n_expected
        for entry in manifest["tensors"].values():
            assert (tmp_path / "ck" / entry["file"]).exists()

    def test_shape_mismatch_detected(self, tmp_path):
        model = DecoderModel.build(tiny_config())
        save_checkpoint(tmp_path / "ck", model)
        import json

        mpath = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["config"]["d_model"] = 16
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ShapeError):
            load_checkpoint(tmp_path / "ck")

    def test_missing_tensor_rejected(self, tmp_path):
        import json

        model = awaken(DecoderModel.build(tiny_config()))
        save_checkpoint(tmp_path / "ck", model)
        mpath = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        del manifest["tensors"]["fusion.b_feat"]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="fusion.b_feat"):
            load_checkpoint(tmp_path / "ck")

    @staticmethod
    def with_retired_constants(directory, model, values):
        """List the 14 constants earlier checkpoints also wrote, each holding its constant unless values says."""
        d = model.config.d_model
        mpath = directory / "manifest.json"
        manifest = json.loads(mpath.read_text())
        retired = {"lnf_g": (1.0, d), "lnf_b": (0.0, d)}
        for i in range(model.config.n_blocks):
            for name, fill, width in (("ln1_g", 1.0, d), ("ln1_b", 0.0, d), ("b_mlp1", 0.0, 4 * d),
                                      ("b_mlp2", 0.0, d), ("ln2_g", 1.0, d), ("ln2_b", 0.0, d)):
                retired[f"block{i}.{name}"] = (fill, width)
        for name, (fill, width) in retired.items():
            fname = name.replace(".", "_") + ".admt"
            save_tensor(directory / fname, values.get(name, np.full(width, fill)))
            manifest["tensors"][name] = {"file": fname, "shape": [width]}
        mpath.write_text(json.dumps(manifest))
        return len(manifest["tensors"])

    def test_checkpoint_listing_retired_constants_loads_bit_exact(self, tmp_path):
        model = awaken(DecoderModel.build(tiny_config()))
        save_checkpoint(tmp_path / "ck", model)
        assert len(list((tmp_path / "ck").glob("*.admt"))) == 19
        assert self.with_retired_constants(tmp_path / "ck", model, {"block1.ln2_b": np.full(8, -0.0)}) == 33
        back, _, _ = load_checkpoint(tmp_path / "ck")
        tokens, feats, cls_raw, _ = tiny_inputs(12)
        assert model.forward(tokens, feats, cls_raw).tobytes() == back.forward(tokens, feats, cls_raw).tobytes()

    @pytest.mark.parametrize("name, value", [("lnf_g", np.zeros(8)), ("block1.b_mlp1", np.full(32, 1e-300)),
                                             ("block0.ln1_g", np.array([1.0, np.nan]))])
    def test_retired_constant_of_another_value_rejected(self, tmp_path, name, value):
        model = DecoderModel.build(tiny_config())
        save_checkpoint(tmp_path / "ck", model)
        self.with_retired_constants(tmp_path / "ck", model, {name: value})
        with pytest.raises(ValueError, match=re.escape(f"checkpoint tensor '{name}' must hold only")):
            load_checkpoint(tmp_path / "ck")

    def test_other_format_rejected(self, tmp_path):
        import json

        save_checkpoint(tmp_path / "ck", DecoderModel.build(tiny_config()))
        mpath = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        assert manifest["format"] == 1
        manifest["format"] = 2
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format 2 cannot be read; this version reads format 1"):
            load_checkpoint(tmp_path / "ck")
