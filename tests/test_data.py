"""Tests for the grid lookup task generator and batch encoding."""

import tracemalloc
from itertools import chain, permutations

import numpy as np
import pytest

from fuselab import data as data_module
from fuselab.data import (
    GridVqaDataset,
    encode_batch,
    gen_dataset,
    question_tokens,
    vocab_size,
)
from fuselab.prompt import GRID, prompt_rows
from fuselab.tensor import TILE_BYTES

from .oracles import encode_each

EVERY_SCALE_ORDER = list(chain.from_iterable(permutations((1, 2, 4), n) for n in (1, 2, 3)))
CHUNK = TILE_BYTES // (GRID * GRID * 32 * 8)  # samples per encoder chunk at d_in = 32


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
        for scales in EVERY_SCALE_ORDER:
            for pool in ("avg", "max"):
                _, feats, cls_rows, _ = encode_batch(train, idx, 32, encoder_seed=9, scales=scales, pool=pool)
                expect_feats, expect_cls = encode_each(train, idx, 32, 9, scales, pool)
                assert feats.tobytes() == expect_feats.tobytes()
                assert cls_rows.tobytes() == expect_cls.tobytes()

    @pytest.mark.parametrize("d_in, batch, chunks", [(32, 40, [14, 14, 12]), (32, 64, [16] * 4), (16, 64, [32, 32])])
    def test_encoder_runs_in_chunks_within_tile_bytes(self, d_in, batch, chunks, monkeypatch):
        """Near-equal chunks whose (chunk, 256, d_in) patches fit TILE_BYTES: at most 16 samples at d_in = 32, 32 at 16."""
        train, _ = gen_dataset(0, n_train=batch, n_test=4)
        seen = []
        real = data_module.synthetic_encoder
        monkeypatch.setattr(data_module, "synthetic_encoder", lambda image, *args: seen.append(len(image)) or real(image, *args))
        encode_batch(train, np.arange(batch), d_in, encoder_seed=0)
        assert seen == chunks
        assert max(seen) * GRID * GRID * d_in * 8 <= TILE_BYTES

    @pytest.mark.parametrize("pool", ["avg", "max"])
    def test_chunked_batch_matches_per_sample_reference(self, pool):
        """Bit for bit, across chunk boundaries, at every scale order: one sample, a chunk
        less one, a chunk plus one (two uneven chunks) and 256 samples with repeats."""
        train, _ = gen_dataset(3, n_train=300, n_test=4)
        idx = np.random.default_rng(0).integers(0, len(train), size=256)
        for scales in EVERY_SCALE_ORDER:
            expect_feats, expect_cls = encode_each(train, idx, 32, 5, scales, pool)
            for n in (1, CHUNK - 1, CHUNK + 1, 256):
                tokens, feats, cls_rows, answers = encode_batch(train, idx[:n], 32, encoder_seed=5, scales=scales, pool=pool)
                assert feats.shape == (n, prompt_rows(scales), 32) and cls_rows.shape == (n, 1, 32)
                assert feats.tobytes() == expect_feats[:n].tobytes()
                assert cls_rows.tobytes() == expect_cls[:n].tobytes()
                np.testing.assert_array_equal(tokens, train.tokens(idx[:n]))
                np.testing.assert_array_equal(answers, train.answers[idx[:n]])

    def test_peak_within_one_prompt_and_chunk(self):
        """Traced peak in units of the call's own (B, N, d_in) prompt array.

        The prompt is allocated once and filled one chunk at a time, so the
        peak is the prompt plus one chunk's temporaries: 1.15 at B = 256.
        Encoding the whole batch at once, with one-hot images, patches and
        pooled blocks of batch size beside the prompt, read 2.00.
        """
        train, _ = gen_dataset(0, n_train=256, n_test=4)
        idx = np.arange(256)
        encode_batch(train, idx[:1], 32, encoder_seed=0)  # warm: the encoder's cached tables
        unit = 256 * prompt_rows((1, 2)) * 32 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            encode_batch(train, idx, 32, encoder_seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / unit <= 1.3

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
