"""Tests for the grid lookup task generator and batch encoding."""

from itertools import permutations

import numpy as np
import pytest

from fuselab.data import (
    GridVqaDataset,
    encode_batch,
    gen_dataset,
    question_tokens,
    vocab_size,
)
from fuselab.prompt import build_prompt, synthetic_encoder


class TestVocabLayout:
    def test_sizes(self):
        assert vocab_size(8) == 40
        assert vocab_size(2) == 34

    def test_token_ranges(self):
        assert list(question_tokens(0, 0, 8)) == [8, 24]
        assert list(question_tokens(15, 15, 8)) == [23, 39]

    def test_round_trip_every_cell(self):
        rows, cols = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        toks = question_tokens(rows.ravel(), cols.ravel(), 8)
        np.testing.assert_array_equal(toks[:, 0] - 8, rows.ravel())
        np.testing.assert_array_equal(toks[:, 1] - 8 - 16, cols.ravel())


class TestValidation:
    def test_dataset_consistency_enforced(self):
        train, _ = gen_dataset(0, n_train=32, n_test=8)
        answers = train.answers.copy()
        answers[0] = (answers[0] + 1) % 8
        with pytest.raises(ValueError, match="inconsistent"):
            GridVqaDataset(train.images, train.queries, answers, 8)

    def test_too_few_colors_rejected(self):
        with pytest.raises(ValueError, match="colors"):
            gen_dataset(0, channels=1)


class TestGeneration:
    def test_deterministic_per_seed(self):
        a_train, a_test = gen_dataset(3, n_train=64, n_test=32)
        b_train, b_test = gen_dataset(3, n_train=64, n_test=32)
        np.testing.assert_array_equal(a_train.images, b_train.images)
        np.testing.assert_array_equal(a_test.images, b_test.images)
        np.testing.assert_array_equal(a_train.queries, b_train.queries)

    def test_seed_changes_data(self):
        a, _ = gen_dataset(0, n_train=64, n_test=8)
        b, _ = gen_dataset(1, n_train=64, n_test=8)
        assert not np.array_equal(a.images, b.images)

    def test_train_test_streams_disjoint(self):
        train, test = gen_dataset(0, n_train=64, n_test=64)
        assert not np.array_equal(train.images[:64], test.images[:64])

    def test_shapes_and_len(self):
        train, test = gen_dataset(0, n_train=100, n_test=20)
        assert len(train) == 100 and len(test) == 20
        assert train.images.shape == (100, 16, 16)
        assert train.queries.shape == (100, 2)
        assert train.vocab_size == 40

    def test_answer_marginal_uniform_chi2(self):
        train, _ = gen_dataset(0, n_train=10_000, n_test=8)
        counts = np.bincount(train.answers, minlength=8)
        expected = 10_000 / 8
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 7 degrees of freedom: p=0.999 cutoff is ~24; generator is seeded
        assert chi2 < 24.0, counts

    def test_query_cells_cover_grid(self):
        train, _ = gen_dataset(0, n_train=10_000, n_test=8)
        flat = train.queries[:, 0] * 16 + train.queries[:, 1]
        assert np.unique(flat).size == 256


class TestEncodeBatch:
    def test_shapes(self):
        train, _ = gen_dataset(0, n_train=16, n_test=8)
        tokens, feats, cls_rows, answers = encode_batch(train, [0, 3, 5], 32, encoder_seed=9)
        assert tokens.shape == (3, 2)
        assert feats.shape == (3, 320, 32)
        assert cls_rows.shape == (3, 1, 32)
        assert answers.shape == (3,)

    def test_matches_per_sample_pipeline(self):
        train, _ = gen_dataset(0, n_train=8, n_test=8)
        idx = [2, 0, 7, 2]
        eye = np.eye(8)
        for n in (1, 2, 3):
            for scales in permutations((1, 2, 4), n):
                for pool in ("avg", "max"):
                    _, feats, cls_rows, _ = encode_batch(train, idx, 32, encoder_seed=9, scales=scales, pool=pool)
                    for row, i in enumerate(idx):
                        enc = synthetic_encoder(eye[train.images[i]], 32, 9)
                        prompt = build_prompt(enc, scales=scales, pool=pool)
                        np.testing.assert_array_equal(feats[row], prompt.features)
                        np.testing.assert_array_equal(cls_rows[row], enc.cls)

    def test_rows_independent_of_batch_composition(self):
        train, _ = gen_dataset(0, n_train=8, n_test=8)
        solo = encode_batch(train, [4], 32, encoder_seed=1)
        grouped = encode_batch(train, [0, 4, 7], 32, encoder_seed=1)
        np.testing.assert_array_equal(grouped[1][1], solo[1][0])
        np.testing.assert_array_equal(grouped[0][1], solo[0][0])

    def test_scales_control_row_count(self):
        train, _ = gen_dataset(0, n_train=4, n_test=4)
        _, feats, _, _ = encode_batch(train, [0], 32, encoder_seed=0, scales=(1, 2, 4))
        assert feats.shape[1] == 336
