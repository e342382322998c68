"""Tests for the synthetic encoder, multiscale pooling and the prompt sidecar."""

import json
from itertools import chain, combinations, permutations

import numpy as np
import pytest

from fuselab.prompt import (
    GRID,
    pool_scales,
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
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()

    def test_seed_changes_content_map(self):
        img = one_hot_image(1)
        a, _ = synthetic_encoder(img, 32, seed=7)
        b, _ = synthetic_encoder(img, 32, seed=8)
        assert not np.array_equal(a, b)

    def test_zero_image_yields_position_code(self):
        patches, _ = synthetic_encoder(np.zeros((GRID, GRID, 8)), 32, seed=3)
        np.testing.assert_array_equal(patches, position_code(32))

    def test_cell_swap_touches_exactly_two_rows(self):
        img = one_hot_image(2)
        # force distinct colors so the swap is a real change
        img[0, 0] = np.eye(8)[0]
        img[5, 9] = np.eye(8)[3]
        swapped = img.copy()
        swapped[0, 0], swapped[5, 9] = img[5, 9].copy(), img[0, 0].copy()
        a = synthetic_encoder(img, 32, seed=4)[0] - position_code(32)
        b = synthetic_encoder(swapped, 32, seed=4)[0] - position_code(32)
        changed = np.flatnonzero(np.any(a != b, axis=1))
        np.testing.assert_array_equal(changed, [0 * GRID + 0, 5 * GRID + 9])

    def test_cls_is_patch_mean(self):
        patches, cls = synthetic_encoder(one_hot_image(3), 32, seed=5)
        assert patches.shape == (GRID * GRID, 32) and cls.shape == (1, 32)
        np.testing.assert_allclose(cls, patches.mean(axis=0, keepdims=True), atol=1e-15)

    def test_width_must_cover_channels(self):
        with pytest.raises(ValueError):
            synthetic_encoder(one_hot_image(4), 4, seed=0)

    def test_image_shape_checked(self):
        with pytest.raises(ShapeError):
            synthetic_encoder(np.zeros((8, 8, 3)), 32, seed=0)

    def test_batch_shapes(self):
        patches, cls = synthetic_encoder(np.stack([one_hot_image(seed) for seed in (1, 2, 3)]), 16, seed=5)
        assert patches.shape == (3, GRID * GRID, 16) and cls.shape == (3, 1, 16)


def subsets_of_scales():
    all_sets = chain.from_iterable(combinations((1, 2, 4), n) for n in (1, 2, 3))
    return [s for s in all_sets]


def sidecar(tmp_path, features, scales, pool="avg"):
    """The row metadata save_prompt writes next to the features, as arrays."""
    path = tmp_path / "prompt.npy"
    save_prompt(path, features, scales, pool)
    meta = json.loads(path.with_suffix(".npy.json").read_text())
    return np.array(meta["scale_of_row"]), np.array(meta["grid_pos_of_row"]).reshape(-1, 2)


class TestBuildPrompt:
    """The prompt build: pool_scales on the encoder's grid, and the metadata save_prompt writes."""

    @pytest.fixture
    def grid(self):
        return synthetic_encoder(one_hot_image(5), 32, seed=6)[0].reshape(GRID, GRID, 32)

    @pytest.mark.parametrize(
        "scales,expect",
        [((1,), 256), ((1, 2), 320), ((1, 2, 4), 336), ((2, 4), 80), ((4,), 16)],
    )
    def test_row_counts(self, grid, scales, expect):
        assert pool_scales(grid, scales).shape == (expect, 32)
        assert expect == prompt_rows(scales)

    @pytest.mark.parametrize("scales", subsets_of_scales())
    def test_row_count_formula(self, grid, scales):
        assert len(pool_scales(grid, scales)) == sum((16 // s) ** 2 for s in scales)

    def test_scale_one_is_passthrough(self, grid):
        np.testing.assert_array_equal(pool_scales(grid, (1,)), grid.reshape(-1, 32))

    def test_default_is_fine_plus_two_by_two_avg(self, grid, tmp_path):
        features = pool_scales(grid, (1, 2))
        assert len(features) == 320
        np.testing.assert_array_equal(features[256:], pool_scales(grid, (2,), "avg"))
        scale_of_row, _ = sidecar(tmp_path, features, (1, 2))
        np.testing.assert_array_equal(scale_of_row[:256], 1)
        np.testing.assert_array_equal(scale_of_row[256:], 2)

    @pytest.mark.parametrize("pool", ["avg", "max"])
    def test_pooled_rows_match_window_oracle(self, grid, pool, tmp_path):
        batch = synthetic_encoder(np.stack([one_hot_image(seed) for seed in (5, 8, 9)]), 32, seed=6)[0]
        oracle = avg_pool_windows if pool == "avg" else max_pool_windows
        tol = 1e-12 if pool == "avg" else 0.0
        scale_of_row, _ = sidecar(tmp_path, pool_scales(grid, (1, 2, 4), pool), (1, 2, 4), pool)
        for g in (grid, batch.reshape(3, GRID, GRID, 32)):
            features = pool_scales(g, (1, 2, 4), pool)
            for feats, sample in zip(features.reshape(-1, 336, 32), g.reshape(-1, GRID, GRID, 32)):
                for s in (2, 4):
                    rows = np.flatnonzero(scale_of_row == s)
                    expect = np.asarray(oracle(sample, s)).reshape(len(rows), -1)
                    np.testing.assert_allclose(feats[rows], expect, atol=tol)

    def test_metadata_reconstructs_grids(self, grid, tmp_path):
        features = pool_scales(grid, (1, 2, 4))
        scale_of_row, grid_pos_of_row = sidecar(tmp_path, features, (1, 2, 4))
        for s in (1, 2, 4):
            side = GRID // s
            rows = np.flatnonzero(scale_of_row == s)
            rebuilt = np.zeros((side, side, grid.shape[-1]))
            for row in rows:
                r, c = grid_pos_of_row[row]
                rebuilt[r, c] = features[row]
            direct = pool_scales(grid, (s,)).reshape(side, side, -1)
            np.testing.assert_array_equal(rebuilt, direct)

    def test_raster_order_metadata(self, grid, tmp_path):
        _, grid_pos_of_row = sidecar(tmp_path, pool_scales(grid, (2,)), (2,))
        np.testing.assert_array_equal(grid_pos_of_row[:3], [[0, 0], [0, 1], [0, 2]])
        np.testing.assert_array_equal(grid_pos_of_row[-1], [7, 7])

    def test_caller_scale_order_respected(self, grid, tmp_path):
        coarse_first = pool_scales(grid, (2, 1))
        scale_of_row, _ = sidecar(tmp_path, coarse_first, (2, 1))
        np.testing.assert_array_equal(scale_of_row[:64], 2)
        np.testing.assert_array_equal(scale_of_row[64:], 1)
        fine = pool_scales(grid, (1, 2))
        np.testing.assert_array_equal(coarse_first[:64], fine[256:])

    def test_deterministic(self, grid):
        a = pool_scales(grid, (1, 2, 4), "max")
        b = pool_scales(grid, (1, 2, 4), "max")
        assert a.tobytes() == b.tobytes()

    def test_invalid_configurations_rejected(self, grid, tmp_path):
        features = pool_scales(grid, (1, 2))
        for scales, pool in [((), "avg"), ((3,), "avg"), ((1, 1), "avg"), ((1, 2), "median")]:
            with pytest.raises(ValueError):
                pool_scales(grid, scales, pool)
            with pytest.raises(ValueError):
                save_prompt(tmp_path / "bad.npy", features, scales, pool)
        assert not any(tmp_path.iterdir())

    def test_metadata_length_validated(self, tmp_path):
        """The sidecar's rows must describe the features: save_prompt refuses a mismatch and writes nothing."""
        with pytest.raises(ShapeError):
            save_prompt(tmp_path / "prompt.npy", np.zeros((10, 4)), (4,), "avg")
        with pytest.raises(ShapeError):
            save_prompt(tmp_path / "prompt.npy", np.zeros(16), (4,), "avg")
        assert not any(tmp_path.iterdir())


class TestPromptSerialization:
    def test_roundtrip(self, tmp_path):
        patches, _ = synthetic_encoder(one_hot_image(6), 32, seed=9)
        features = pool_scales(patches.reshape(GRID, GRID, 32), (1, 4), "max")
        path = tmp_path / "prompt.npy"
        save_prompt(path, features, (1, 4), "max")
        assert path.exists() and path.with_suffix(".npy.json").exists()
        np.testing.assert_array_equal(load_tensor(path), features)
        meta = json.loads(path.with_suffix(".npy.json").read_text())
        assert list(meta) == ["pool", "scale_of_row", "grid_pos_of_row"]
        assert meta["pool"] == "max"
        assert meta["scale_of_row"] == [1] * 256 + [4] * 16
        assert meta["grid_pos_of_row"] == [[r, c] for r in range(16) for c in range(16)] + [
            [r, c] for r in range(4) for c in range(4)
        ]
