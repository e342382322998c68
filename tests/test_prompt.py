"""Tests for the synthetic encoder and multiscale prompt builder."""

import json
from itertools import chain, combinations, permutations

import numpy as np
import pytest

from fuselab.prompt import (
    GRID,
    EncoderOutput,
    MultiscalePrompt,
    build_prompt,
    position_code,
    prompt_rows,
    save_prompt,
    synthetic_encoder,
)
from fuselab.tensor import ShapeError, load_tensor

from .oracles import avg_pool_windows, max_pool_windows


def one_hot_image(seed=0, channels=8):
    g = np.random.default_rng(seed)
    idx = g.integers(0, channels, size=(GRID, GRID))
    return np.eye(channels)[idx]


class TestSyntheticEncoder:
    def test_deterministic(self):
        img = one_hot_image(0)
        a = synthetic_encoder(img, 32, seed=7)
        b = synthetic_encoder(img.copy(), 32, seed=7)
        assert a.patches.tobytes() == b.patches.tobytes()
        assert a.cls.tobytes() == b.cls.tobytes()

    def test_seed_changes_content_map(self):
        img = one_hot_image(1)
        a = synthetic_encoder(img, 32, seed=7)
        b = synthetic_encoder(img, 32, seed=8)
        assert not np.array_equal(a.patches, b.patches)

    def test_zero_image_yields_position_code(self):
        enc = synthetic_encoder(np.zeros((GRID, GRID, 8)), 32, seed=3)
        np.testing.assert_array_equal(enc.patches, position_code(32))

    def test_cell_swap_touches_exactly_two_rows(self):
        img = one_hot_image(2)
        # force distinct colors so the swap is a real change
        img[0, 0] = np.eye(8)[0]
        img[5, 9] = np.eye(8)[3]
        swapped = img.copy()
        swapped[0, 0], swapped[5, 9] = img[5, 9].copy(), img[0, 0].copy()
        a = synthetic_encoder(img, 32, seed=4).patches - position_code(32)
        b = synthetic_encoder(swapped, 32, seed=4).patches - position_code(32)
        changed = np.flatnonzero(np.any(a != b, axis=1))
        np.testing.assert_array_equal(changed, [0 * GRID + 0, 5 * GRID + 9])

    def test_cls_is_patch_mean(self):
        enc = synthetic_encoder(one_hot_image(3), 32, seed=5)
        np.testing.assert_allclose(enc.cls, enc.patches.mean(axis=0, keepdims=True), atol=1e-15)

    def test_width_must_cover_channels(self):
        with pytest.raises(ValueError):
            synthetic_encoder(one_hot_image(4), 4, seed=0)

    def test_image_shape_checked(self):
        with pytest.raises(ShapeError):
            synthetic_encoder(np.zeros((8, 8, 3)), 32, seed=0)

    def test_encoder_output_validation(self):
        with pytest.raises(ShapeError):
            EncoderOutput(patches=np.zeros((100, 4)), cls=np.zeros((1, 4)))
        with pytest.raises(ShapeError):
            EncoderOutput(patches=np.zeros((256, 4)), cls=np.zeros((1, 5)))


def subsets_of_scales():
    all_sets = chain.from_iterable(combinations((1, 2, 4), n) for n in (1, 2, 3))
    return [s for s in all_sets]


class TestBuildPrompt:
    @pytest.fixture
    def enc(self):
        return synthetic_encoder(one_hot_image(5), 32, seed=6)

    @pytest.mark.parametrize(
        "scales,expect",
        [((1,), 256), ((1, 2), 320), ((1, 2, 4), 336), ((2, 4), 80), ((4,), 16)],
    )
    def test_row_counts(self, enc, scales, expect):
        prompt = build_prompt(enc, scales=scales)
        assert prompt.n_rows == expect == prompt_rows(scales)

    @pytest.mark.parametrize("scales", subsets_of_scales())
    def test_row_count_formula(self, enc, scales):
        assert build_prompt(enc, scales=scales).n_rows == sum((16 // s) ** 2 for s in scales)

    def test_scale_one_is_passthrough(self, enc):
        prompt = build_prompt(enc, scales=(1,))
        np.testing.assert_array_equal(prompt.features, enc.patches)

    def test_default_is_fine_plus_two_by_two_avg(self, enc):
        prompt = build_prompt(enc)
        assert prompt.n_rows == 320
        assert prompt.pool == "avg"
        np.testing.assert_array_equal(prompt.scale_of_row[:256], 1)
        np.testing.assert_array_equal(prompt.scale_of_row[256:], 2)

    @pytest.mark.parametrize("pool", ["avg", "max"])
    def test_pooled_rows_match_window_oracle(self, enc, pool):
        batch = synthetic_encoder(np.stack([one_hot_image(seed) for seed in (5, 8, 9)]), 32, seed=6)
        oracle = avg_pool_windows if pool == "avg" else max_pool_windows
        tol = 1e-12 if pool == "avg" else 0.0
        for e in (enc, batch):
            prompt = build_prompt(e, scales=(1, 2, 4), pool=pool)
            for feats, patches in zip(prompt.features.reshape(-1, 336, 32), e.patches.reshape(-1, 256, 32)):
                grid = patches.reshape(GRID, GRID, -1)
                for s in (2, 4):
                    rows = np.flatnonzero(prompt.scale_of_row == s)
                    expect = np.asarray(oracle(grid, s)).reshape(len(rows), -1)
                    np.testing.assert_allclose(feats[rows], expect, atol=tol)

    def test_metadata_reconstructs_grids(self, enc):
        prompt = build_prompt(enc, scales=(1, 2, 4))
        for s in (1, 2, 4):
            side = GRID // s
            rows = np.flatnonzero(prompt.scale_of_row == s)
            rebuilt = np.zeros((side, side, enc.patches.shape[1]))
            for row in rows:
                r, c = prompt.grid_pos_of_row[row]
                rebuilt[r, c] = prompt.features[row]
            direct = build_prompt(enc, scales=(s,)).features.reshape(side, side, -1)
            np.testing.assert_array_equal(rebuilt, direct)

    def test_raster_order_metadata(self, enc):
        prompt = build_prompt(enc, scales=(2,))
        np.testing.assert_array_equal(prompt.grid_pos_of_row[:3], [[0, 0], [0, 1], [0, 2]])
        np.testing.assert_array_equal(prompt.grid_pos_of_row[-1], [7, 7])

    def test_caller_scale_order_respected(self, enc):
        coarse_first = build_prompt(enc, scales=(2, 1))
        np.testing.assert_array_equal(coarse_first.scale_of_row[:64], 2)
        fine = build_prompt(enc, scales=(1, 2))
        np.testing.assert_array_equal(coarse_first.features[:64], fine.features[256:])

    def test_deterministic(self, enc):
        a = build_prompt(enc, scales=(1, 2, 4), pool="max")
        b = build_prompt(enc, scales=(1, 2, 4), pool="max")
        assert a.features.tobytes() == b.features.tobytes()

    def test_invalid_configurations_rejected(self, enc):
        with pytest.raises(ValueError):
            build_prompt(enc, scales=())
        with pytest.raises(ValueError):
            build_prompt(enc, scales=(3,))
        with pytest.raises(ValueError):
            build_prompt(enc, scales=(1, 1))
        with pytest.raises(ValueError):
            build_prompt(enc, scales=(1, 2), pool="median")

    def test_metadata_length_validated(self):
        with pytest.raises(ShapeError):
            MultiscalePrompt(
                features=np.zeros((10, 4)),
                scale_of_row=np.zeros(9, dtype=np.int64),
                grid_pos_of_row=np.zeros((10, 2), dtype=np.int64),
            )


class TestPromptSerialization:
    def test_roundtrip(self, tmp_path):
        enc = synthetic_encoder(one_hot_image(6), 32, seed=9)
        prompt = build_prompt(enc, scales=(1, 4), pool="max")
        path = tmp_path / "prompt.admt"
        save_prompt(path, prompt)
        assert path.exists() and path.with_suffix(".admt.json").exists()
        np.testing.assert_array_equal(load_tensor(path), prompt.features)
        sidecar = json.loads(path.with_suffix(".admt.json").read_text())
        np.testing.assert_array_equal(sidecar["scale_of_row"], prompt.scale_of_row)
        np.testing.assert_array_equal(sidecar["grid_pos_of_row"], prompt.grid_pos_of_row)
        assert sidecar["pool"] == "max"
