"""Multiscale visual prompt construction from a synthetic frozen encoder.

A symbolic 16x16 image (one-hot color channels per cell) is mapped to one
feature row per patch by a frozen random linear map plus a fixed 2-D
sinusoidal position code, together with a global token averaging the
patches (`synthetic_encoder`).  The prompt is built by pooling the 16x16
feature grid at one or more scales, flattening each pooled grid in
raster order, and stacking the results in the caller's scale order
(`pool_scales`).  Both take leading batch axes and act per sample, so a
batch, or any chunk of it, gives the same rows as its samples one by one.

`scale_layout` is the one statement of that row layout: which rows of
the stack belong to which scale.  The prompt sidecar's row metadata, the
key alignment in training, and the drop-mask heatmaps all read it.
`check_prompt` is the one statement of which scales and pools can be
built: `ModelConfig` applies it when a config is made, `pool_scales`
before it pools.
"""

from __future__ import annotations

import json
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

    A prompt needs at least one scale, each one of SCALES (True or 1.5 is
    not) and none twice, and a pool from POOLS."""
    scales = tuple(scales)
    if not scales:
        raise ValueError("at least one scale is required")
    if any(isinstance(s, bool) or s not in SCALES for s in scales):
        raise ValueError(f"scales must come from {SCALES}, got {scales}")
    if len(set(scales)) != len(scales):
        raise ValueError(f"duplicate scales in {scales}")
    if pool not in POOLS:
        raise ValueError(f"pool must be one of {POOLS}, got {pool!r}")
    return tuple(int(s) for s in scales)


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


def synthetic_encoder(image: np.ndarray, d_out: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stand-in for a frozen vision tower: (patches, cls).

    patches = onehot_content @ W + position_code, with W drawn once from
    the seed, is (..., 256, d_out) in raster order over the grid; cls, the
    mean over the 256 patch rows, is (..., 1, d_out).  `image` is one
    (16, 16, c) grid or a batch (..., 16, 16, c) of them.
    """
    if image.ndim < 3 or image.shape[-3:-1] != (GRID, GRID):
        raise ShapeError(f"image must be (..., {GRID}, {GRID}, c), got {image.shape}")
    channels = image.shape[-1]
    if d_out < channels:
        raise ValueError(f"d_out={d_out} must be at least the {channels} content channels")
    content = np.asarray(image, dtype=FLOAT).reshape(*image.shape[:-3], GRID * GRID, channels)
    patches = content @ _content_map(channels, d_out, seed)
    patches += position_code(d_out)  # in place: no second patch array
    return patches, np.mean(patches, axis=-2, keepdims=True)


def expected_cls(channels: int, d_out: int, seed: int) -> np.ndarray:
    """The [cls] feature of the average image, (1, d_out).

    A cell holding the uniform mixture of all colors is the expectation
    of a uniformly random cell, so this equals the mean cls over random
    grids without drawing any."""
    content = np.full((1, channels), 1.0 / channels, dtype=FLOAT)
    return content @ _content_map(channels, d_out, seed) + position_code(d_out).mean(axis=0, keepdims=True)


def save_prompt(path, features: np.ndarray, scales, pool: str) -> None:
    """Write pooled features in the binary tensor format plus a JSON metadata sidecar.

    The sidecar names the pool and, per prompt row, its scale and its
    (row, col) cell on that scale's grid, as `scale_layout(scales)` lays
    the rows out; features must have exactly those rows.
    """
    scales = check_prompt(scales, pool)
    n_rows = prompt_rows(scales)
    if features.ndim < 2 or features.shape[-2] != n_rows:
        raise ShapeError(f"features must be (..., {n_rows}, d) for scales {scales}, got {features.shape}")
    path = Path(path)
    save_tensor(path, features)
    cells = [(s, cell) for s, rows in scale_layout(scales).items() for cell in range(rows.stop - rows.start)]
    sidecar = {"pool": pool, "scale_of_row": [s for s, _ in cells],
               "grid_pos_of_row": [list(divmod(cell, GRID // s)) for s, cell in cells]}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar))
