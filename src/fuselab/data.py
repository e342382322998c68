"""Grid lookup task: ask for the color of one cell of a 16x16 image.

Each sample is a uniformly random grid of C colors plus a query cell;
the answer is the color at that cell.  The question is two tokens, one
naming the row and one the column, so the vocabulary is C color ids
followed by 16 row tokens and 16 column tokens.  Answering above chance
requires actually reading the image, which makes the task a minimal
probe for whether the fusion branch carries visual information -- and
because the answer lives at one spatial location, the drop masks have a
ground-truth cell they ought to keep.

`encode_batch` fills one (B, N, d_in) prompt array a chunk of samples at
a time, each chunk's patches within tensor.TILE_BYTES, so it builds no
batch-sized one-hot image or patch array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prompt import GRID, pool_scales, prompt_rows, synthetic_encoder
from .tensor import FLOAT, sample_tiles

N_ROW_TOKENS = GRID
N_COL_TOKENS = GRID


def vocab_size(channels: int) -> int:
    """Colors, then row tokens, then column tokens."""
    return channels + N_ROW_TOKENS + N_COL_TOKENS


def question_tokens(row, col, channels: int):
    """Token pair naming a cell: row token first, column token second."""
    return np.stack(np.broadcast_arrays(channels + np.asarray(row), channels + N_ROW_TOKENS + np.asarray(col)), axis=-1)


@dataclass
class GridVqaDataset:
    images: np.ndarray  # (n, 16, 16) color ids
    queries: np.ndarray  # (n, 2) (row, col) cells
    answers: np.ndarray  # (n,)
    channels: int

    def __post_init__(self):
        n = len(self.answers)
        looked_up = self.images[np.arange(n), self.queries[:, 0], self.queries[:, 1]]
        if not np.array_equal(self.answers, looked_up):
            raise ValueError("answers inconsistent with queried cells")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def vocab_size(self) -> int:
        return vocab_size(self.channels)

    def tokens(self, idx=None) -> np.ndarray:
        q = self.queries if idx is None else self.queries[idx]
        return question_tokens(q[:, 0], q[:, 1], self.channels)


def _draw(rng: np.random.Generator, n: int, channels: int):
    images = rng.integers(0, channels, size=(n, GRID, GRID))
    queries = rng.integers(0, GRID, size=(n, 2))
    answers = images[np.arange(n), queries[:, 0], queries[:, 1]]
    return images, queries, answers


def gen_dataset(seed: int, n_train: int = 4096, n_test: int = 1024, channels: int = 8):
    """Deterministic train/test pair from disjoint child seed streams."""
    if channels < 2:
        raise ValueError(f"need at least 2 colors, got {channels}")
    train_seq, test_seq = np.random.SeedSequence(seed).spawn(2)
    train = GridVqaDataset(*_draw(np.random.default_rng(train_seq), n_train, channels), channels)
    test = GridVqaDataset(*_draw(np.random.default_rng(test_seq), n_test, channels), channels)
    return train, test


def encode_batch(dataset: GridVqaDataset, idx, d_in: int, encoder_seed: int, scales=(1, 2), pool: str = "avg"):
    """Tokens, prompt features, cls rows, and answers for the given indices.

    The prompt and cls rows are allocated once; each chunk of samples is
    encoded and pooled straight into its rows.  The encoder and the
    pooling act per sample and the content map is a pure function of
    encoder_seed, so features depend neither on batch composition nor on
    the chunking.
    """
    idx = np.asarray(idx)
    feats = np.empty((len(idx), prompt_rows(scales), d_in), dtype=FLOAT)
    cls = np.empty((len(idx), 1, d_in), dtype=FLOAT)
    eye = np.eye(dataset.channels)
    for chunk in sample_tiles(len(idx), GRID * GRID * d_in * np.dtype(FLOAT).itemsize):
        patches, cls[chunk] = synthetic_encoder(eye[dataset.images[idx[chunk]]], d_in, encoder_seed)
        feats[chunk] = pool_scales(patches.reshape(-1, GRID, GRID, d_in), scales, pool)
    return dataset.tokens(idx), feats, cls, dataset.answers[idx]
