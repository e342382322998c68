"""Multiscale visual prompt construction from a synthetic frozen encoder.

A symbolic 16x16 image (one-hot color channels per cell) is mapped to one
feature row per patch by a frozen random linear map plus a fixed 2-D
sinusoidal position code, together with a global token averaging the
patches.  The prompt is built by pooling the 16x16 feature grid at one or
more scales, flattening each pooled grid in raster order, and stacking
the results in the caller's scale order.  Every step takes leading batch
axes, so a batch of images is encoded and pooled in one call.

`scale_layout` is the one statement of that row layout: which rows of
the stack belong to which scale.  The prompt's row metadata, the key
alignment in training, and the drop-mask heatmaps all read it.
`check_prompt` is the one statement of which scales and pools can be
built: `ModelConfig` applies it when a config is made, `pool_scales`
before it pools.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .tensor import FLOAT, ShapeError, avg_pool2d, max_pool2d, save_tensor

GRID = 16
SCALES = (1, 2, 4)
POOLS = ("avg", "max")


def scale_layout(scales) -> dict[int, slice]:
    """Where each scale's rows sit in the prompt: {scale: rows}, in the caller's order.

    Scale s contributes its (16/s)^2 pooled cells in raster order."""
    layout, start = {}, 0
    for s in map(int, scales):
        layout[s] = slice(start, start + (GRID // s) ** 2)
        start = layout[s].stop
    return layout


def prompt_rows(scales) -> int:
    """Total prompt rows for a scale list: sum of (16/s)^2, where the last scale's rows stop."""
    return max((rows.stop for rows in scale_layout(scales).values()), default=0)


def check_prompt(scales, pool: str) -> tuple[int, ...]:
    """Reject a prompt that cannot be built; return its scales as a tuple of ints.

    A prompt needs at least one scale, each from SCALES and none twice,
    and a pool from POOLS."""
    scales = tuple(int(s) for s in scales)
    if not scales:
        raise ValueError("at least one scale is required")
    if any(s not in SCALES for s in scales):
        raise ValueError(f"scales must come from {SCALES}, got {scales}")
    if len(set(scales)) != len(scales):
        raise ValueError(f"duplicate scales in {scales}")
    if pool not in POOLS:
        raise ValueError(f"pool must be one of {POOLS}, got {pool!r}")
    return scales


def pool_scales(grid: np.ndarray, scales, pool: str = "avg") -> np.ndarray:
    """Pool a (..., 16, 16, d) grid at each scale and stack the flattened results.

    Scale s pools with a s x s kernel (s=1 passes through); the rows come
    out as `scale_layout(scales)` says, giving (..., prompt_rows(scales), d).
    """
    scales = check_prompt(scales, pool)
    pool_fn = avg_pool2d if pool == "avg" else max_pool2d
    lead, d = grid.shape[:-3], grid.shape[-1]
    blocks = [(grid if s == 1 else pool_fn(grid, s)).reshape(*lead, -1, d) for s in scales]
    return np.concatenate(blocks, axis=-2)


@dataclass
class EncoderOutput:
    """Frozen encoder result: per-patch features plus one global feature."""

    patches: np.ndarray  # (..., 256, d_in) raster order over the 16x16 grid
    cls: np.ndarray  # (..., 1, d_in)

    def __post_init__(self):
        if self.patches.ndim < 2 or self.patches.shape[-2] != GRID * GRID:
            raise ShapeError(f"patches must be (..., {GRID * GRID}, d), got {self.patches.shape}")
        expect = self.patches.shape[:-2] + (1, self.patches.shape[-1])
        if self.cls.shape != expect:
            raise ShapeError(f"cls must be {expect}, got {self.cls.shape}")


@dataclass
class MultiscalePrompt:
    """Stacked pooled feature rows plus per-row scale/position metadata."""

    features: np.ndarray  # (..., n_rows, d_in)
    scale_of_row: np.ndarray  # (n_rows,) int, shared by every sample
    grid_pos_of_row: np.ndarray  # (n_rows, 2) int, (row, col) at that scale
    pool: str = "avg"

    def __post_init__(self):
        n = self.features.shape[-2]
        if self.scale_of_row.shape != (n,) or self.grid_pos_of_row.shape != (n, 2):
            raise ShapeError(
                f"metadata rows must match features ({n}), got "
                f"{self.scale_of_row.shape} and {self.grid_pos_of_row.shape}"
            )

    @property
    def n_rows(self) -> int:
        return self.features.shape[-2]


def _coord_code(positions: np.ndarray, width: int) -> np.ndarray:
    """Sinusoidal code of one integer coordinate into `width` channels."""
    code = np.zeros((positions.size, width), dtype=FLOAT)
    pairs = (width + 1) // 2
    rates = (1.0 / 10000.0) ** (2.0 * np.arange(pairs) / max(width, 1))
    angles = positions[:, None] * rates[None, :]
    code[:, 0::2] = np.sin(angles)
    code[:, 1::2] = np.cos(angles)[:, : width // 2]
    return code


@lru_cache(maxsize=8)
def position_code(d_out: int) -> np.ndarray:
    """Fixed 2-D sinusoidal code for the 16x16 grid, (256, d_out)."""
    rows, cols = np.divmod(np.arange(GRID * GRID), GRID)
    col_width = d_out // 2
    row_width = d_out - col_width
    code = np.concatenate(
        [_coord_code(rows.astype(FLOAT), row_width), _coord_code(cols.astype(FLOAT), col_width)],
        axis=1,
    )
    code.setflags(write=False)
    return code


@lru_cache(maxsize=8)
def _content_map(channels: int, d_out: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 1.0 / np.sqrt(channels), size=(channels, d_out))
    weights.setflags(write=False)
    return weights


def synthetic_encoder(image: np.ndarray, d_out: int, seed: int) -> EncoderOutput:
    """Deterministic stand-in for a frozen vision tower.

    patches = onehot_content @ W + position_code, with W drawn once from
    the seed; cls = mean over the 256 patch rows.  `image` is one
    (16, 16, c) grid or a batch (..., 16, 16, c) of them.
    """
    if image.ndim < 3 or image.shape[-3:-1] != (GRID, GRID):
        raise ShapeError(f"image must be (..., {GRID}, {GRID}, c), got {image.shape}")
    channels = image.shape[-1]
    if d_out < channels:
        raise ValueError(f"d_out={d_out} must be at least the {channels} content channels")
    content = np.asarray(image, dtype=FLOAT).reshape(*image.shape[:-3], GRID * GRID, channels)
    patches = content @ _content_map(channels, d_out, seed)
    patches += position_code(d_out)  # in place: a batch's patches are large
    cls = np.mean(patches, axis=-2, keepdims=True)
    return EncoderOutput(patches=patches, cls=cls)


def expected_cls(channels: int, d_out: int, seed: int) -> np.ndarray:
    """The [cls] feature of the average image, (1, d_out).

    A cell holding the uniform mixture of all colors is the expectation
    of a uniformly random cell, so this equals the mean cls over random
    grids without drawing any."""
    content = np.full((1, channels), 1.0 / channels, dtype=FLOAT)
    return content @ _content_map(channels, d_out, seed) + position_code(d_out).mean(axis=0, keepdims=True)


def build_prompt(enc: EncoderOutput, scales=(1, 2), pool: str = "avg") -> MultiscalePrompt:
    """Pool the patch grid at each scale and stack the flattened results.

    Scale s contributes (16/s)^2 rows, in the caller's scale order (see
    `pool_scales`); a batch of encoder outputs gives a batch of features
    sharing one row metadata.
    """
    grid = enc.patches.reshape(*enc.patches.shape[:-2], GRID, GRID, enc.patches.shape[-1])
    features = pool_scales(grid, scales, pool)
    scale_of_row = np.zeros(features.shape[-2], dtype=np.int64)
    grid_pos_of_row = np.zeros((features.shape[-2], 2), dtype=np.int64)
    for s, rows in scale_layout(scales).items():
        scale_of_row[rows] = s
        grid_pos_of_row[rows] = np.stack(np.divmod(np.arange(rows.stop - rows.start), GRID // s), axis=1)
    return MultiscalePrompt(features, scale_of_row, grid_pos_of_row, pool=pool)


def save_prompt(path, prompt: MultiscalePrompt) -> None:
    """Write features in the binary tensor format plus a JSON metadata sidecar."""
    path = Path(path)
    save_tensor(path, prompt.features)
    sidecar = {
        "pool": prompt.pool,
        "scale_of_row": prompt.scale_of_row.tolist(),
        "grid_pos_of_row": prompt.grid_pos_of_row.tolist(),
    }
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar))

