"""Dense float64 tensor kernels shared by every other module.

All values are plain numpy arrays of dtype float64, stored on disk as
NumPy `.npy` files by `save_tensor` and `load_tensor`.  The helpers here
add strict shape checking, the activation kernels used as similarity
projections, and the 2-D pooling kernels.  The kernels take leading
batch axes: activations act per sample -- softmax_rows over the last
axis, silu_positive's shift over the last two -- so a batch (B, L, d)
behaves like B rank-2 calls, and pooling acts on the trailing (h, w, c)
grid of each sample.

`TILE_BYTES` and `sample_tiles` are the one tiling rule (the model
docstring says why): the model tiles its visual side by it, batch
encoding its patches.

Everything is a pure function: inputs are never mutated and identical
inputs produce bit-identical outputs.
"""

from __future__ import annotations

import numpy as np

# One precision everywhere: desk-scale sizes make float64 cheap, and the
# finite-difference gradient checks need the headroom.
FLOAT = np.float64

TILE_BYTES = 1 << 20  # most bytes of one tile's array; see the module docstring

ACTIVATIONS = (
    "identity",
    "softmax_rows",
    "relu",
    "elu",
    "silu",
    "silu_positive",
)


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def sample_tiles(batch: int, sample_bytes: int) -> list[slice]:
    """Near-equal slices of range(batch) whose (tile, ...) arrays of sample_bytes per sample fit TILE_BYTES.

    A tile holds at least one sample.  Never empty: an empty batch is one empty tile.
    """
    per_tile = max(1, TILE_BYTES // max(1, sample_bytes))
    n_tiles = max(1, -(-batch // per_tile))  # -(-a // b) is ceil(a / b)
    size = max(1, -(-batch // n_tiles))
    return [slice(start, start + size) for start in range(0, max(batch, 1), size)]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), in four in-place passes.

    Below x = -709.78 exp(-x) overflows and the result is exactly 0 (the
    true value is a subnormal); neither that nor underflow warns.
    """
    s = np.negative(np.asarray(x, dtype=FLOAT))  # fusion's tensors are large: one allocation
    with np.errstate(over="ignore", under="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a rank >= 2 array, stabilised by max subtraction."""
    if x.ndim < 2:
        raise ShapeError(f"softmax_rows needs a rank >= 2 input, got shape {x.shape}")
    e = x - x.max(axis=-1, keepdims=True)  # one allocation, then in place
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def activation(x: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray | None]:
    """(phi(x), saved): the named projection elementwise (over the last axis
    for softmax_rows), plus what activation_vjp needs besides x.

    silu(x) = x * sigmoid(x); silu_positive shifts silu up by the minimum
    over each sample -- the last two axes -- so every output is >= 0.  For
    a rank-2 input the sample is the whole tensor.  saved is sigmoid(x) for
    silu and silu_positive, the output for softmax_rows and None for the
    rest, so the backward pass never evaluates sigmoid or softmax again.
    """
    if kind == "identity":
        return np.array(x, dtype=FLOAT, copy=True), None
    if kind == "softmax_rows":
        out = softmax_rows(x)
        return out, out
    if kind == "relu":
        return np.maximum(x, 0.0), None
    if kind == "elu":
        out = np.minimum(x, 0.0)  # one array, filled in place
        np.expm1(out, out=out)
        np.copyto(out, x, where=x > 0)
        return out, None
    if kind in ("silu", "silu_positive"):
        s = sigmoid(x)
        out = x * s
        if kind == "silu_positive":
            out -= np.min(x, axis=tuple(range(x.ndim)[-2:]), keepdims=True)  # in place: (B, N, d) arrays
        return out, s
    raise ValueError(f"unknown activation kind {kind!r}; expected one of {ACTIVATIONS}")


def silu_grad(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Derivative of silu at x, given s = sigmoid(x): s * (1 + x * (1 - s))."""
    g = 1.0 - s  # the same products in place
    g *= x
    g += 1.0
    g *= s
    return g


def activation_vjp(x: np.ndarray, saved: np.ndarray | None, grad_out: np.ndarray, kind: str) -> np.ndarray:
    """Vector-Jacobian product of `activation` at input x.

    saved is the second value `activation(x, kind)` returned; identity and
    softmax_rows never read x.  Returns d(loss)/dx given
    d(loss)/d(activation(x)); neither x, saved nor grad_out is modified.  The subgradient at the relu kink and at
    silu_positive's argmin picks one deterministic representative
    (relu'(0) = 0; each sample's min is attributed to its first minimising
    entry in row-major order).
    """
    if kind == "identity":
        return np.array(grad_out, dtype=FLOAT, copy=True)
    if kind == "softmax_rows":
        dx = grad_out - (grad_out * saved).sum(axis=-1, keepdims=True)
        dx *= saved
        return dx
    if kind == "relu":
        return np.where(x > 0, grad_out, 0.0)
    if kind == "elu":
        dx = np.minimum(x, 0.0)  # exp(min(x, 0)) is exactly 1 where x > 0
        np.exp(dx, out=dx)
        dx *= grad_out
        return dx
    if kind in ("silu", "silu_positive"):
        dx = np.ascontiguousarray(silu_grad(x, saved))  # fresh, so the product lands in place
        dx *= grad_out
        if kind == "silu":
            return dx
        n = int(np.prod(x.shape[:-2]))  # one sample per index of the leading axes
        flat_dx = dx.reshape(n, -1)  # a view, so the update lands in dx
        flat_dx[np.arange(n), np.argmin(x.reshape(n, -1), axis=1)] -= grad_out.reshape(n, -1).sum(axis=1)
        return dx
    raise ValueError(f"unknown activation kind {kind!r}; expected one of {ACTIVATIONS}")


def _pool_windows(grid: np.ndarray, k: int) -> np.ndarray:
    """View a (..., h, w, c) grid as (..., h/k, k, w/k, k, c) windows."""
    if grid.ndim < 3:
        raise ShapeError(f"pooling needs a (..., h, w, c) grid, got shape {grid.shape}")
    *lead, h, w, c = grid.shape
    if k < 1:
        raise ShapeError(f"pooling kernel must be positive, got {k}")
    if h % k or w % k:
        raise ShapeError(f"kernel {k} does not divide grid {h}x{w}")
    return grid.reshape(*lead, h // k, k, w // k, k, c)


def avg_pool2d(grid: np.ndarray, k: int) -> np.ndarray:
    """Mean over non-overlapping k x k windows of a (..., h, w, c) grid."""
    return _pool_windows(grid, k).mean(axis=(-4, -2))


def max_pool2d(grid: np.ndarray, k: int) -> np.ndarray:
    """Max over non-overlapping k x k windows of a (..., h, w, c) grid."""
    return _pool_windows(grid, k).max(axis=(-4, -2))


def save_tensor(path, x: np.ndarray) -> None:
    """Write x as a float64 `.npy` file at exactly path (np.save on a bare path would append `.npy`)."""
    with open(path, "wb") as fh:
        np.save(fh, np.asarray(x, dtype=FLOAT), allow_pickle=False)


def load_tensor(path) -> np.ndarray:
    """Read a `.npy` file of 8-byte floats, in either byte order, as float64; ValueError for anything else."""
    with open(path, "rb") as fh:
        magic = fh.read(len(np.lib.format.MAGIC_PREFIX))
        if not magic:
            raise ValueError("empty file; expected a .npy array")
        if magic.startswith(b"PK"):  # the zip signature
            raise ValueError("an .npz archive, not a .npy array")
        if magic != np.lib.format.MAGIC_PREFIX:  # else NumPy would call it pickled data
            raise ValueError("not a .npy array: the file does not start with the .npy magic")
        fh.seek(0)
        x = np.load(fh, allow_pickle=False)
    if x.dtype.kind != "f" or x.dtype.itemsize != 8:
        raise ValueError(f"dtype {x.dtype} is not an 8-byte float")
    return x.astype(FLOAT, copy=False)
