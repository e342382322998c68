"""Independent reference implementations used by the test suite.

Everything here is written against plain Python lists and the math module,
deliberately avoiding numpy vector arithmetic, so agreement with the
package is evidence rather than tautology.  These oracles are slow and
only meant for the small shapes used in tests.
"""

import math

import numpy as np

from fuselab.model import DecoderModel
from fuselab.prompt import GRID, pool_scales, synthetic_encoder


def to_lists(x):
    return np.asarray(x, dtype=float).tolist()


def matmul_lists(a, b):
    """Triple-loop matrix product over nested lists."""
    n, k = len(a), len(a[0])
    m = len(b[0])
    assert len(b) == k
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i][t] * b[t][j]
            out[i][j] = acc
    return out


def sigmoid_s(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def silu_s(x):
    return x * sigmoid_s(x)


def silu_grad_s(x):
    s = sigmoid_s(x)
    return s * (1.0 + x * (1.0 - s))


def relu_s(x):
    return x if x > 0 else 0.0


def elu_s(x):
    return x if x > 0 else math.exp(x) - 1.0


SCALAR_ACTS = {
    "identity": lambda x: x,
    "relu": relu_s,
    "elu": elu_s,
    "silu": silu_s,
}


def softmax_row_list(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    z = sum(exps)
    return [e / z for e in exps]


def avg_pool_windows(grid, k):
    """Brute-force window mean over an h*w*c nested list."""
    g = to_lists(grid)
    h, w, c = len(g), len(g[0]), len(g[0][0])
    out = [[[0.0] * c for _ in range(w // k)] for _ in range(h // k)]
    for i in range(h // k):
        for j in range(w // k):
            for ch in range(c):
                acc = 0.0
                for di in range(k):
                    for dj in range(k):
                        acc += g[i * k + di][j * k + dj][ch]
                out[i][j][ch] = acc / (k * k)
    return out


def max_pool_windows(grid, k):
    g = to_lists(grid)
    h, w, c = len(g), len(g[0]), len(g[0][0])
    out = [[[0.0] * c for _ in range(w // k)] for _ in range(h // k)]
    for i in range(h // k):
        for j in range(w // k):
            for ch in range(c):
                best = -math.inf
                for di in range(k):
                    for dj in range(k):
                        best = max(best, g[i * k + di][j * k + dj][ch])
                out[i][j][ch] = best
    return out


def smallest_k_indices(row, k):
    """Indices of the k smallest values, ties resolved to the lower index."""
    return sorted(range(len(row)), key=lambda j: (row[j], j))[:k]


def argsort_mask(scores, k):
    """Keep mask of a rank-2 score array with each row's first k entries,
    in stable ascending numpy argsort order, set to 0.0.

    That order puts NaN after +inf and keeps equal entries (-0.0 and +0.0
    included) in column order.  This is the drop mask the partition-based
    `adaptive_mask` must reproduce exactly.
    """
    mask = np.ones(scores.shape)
    order = np.argsort(scores, axis=1, kind="stable")
    mask[np.arange(scores.shape[0])[:, None], order[:, :k]] = 0.0
    return mask


def per_site_visual_grads(sites, values, alpha, key_vjp):
    """d(loss)/d(values) formed site by site and summed: the value path
    (S*M)^T (alpha dDelta) plus key_vjp(d_scores^T phi(Q)) for each site.

    sites holds (d_delta, cache) pairs with cache.scores, cache.q_act and
    cache.mask from site_forward; key_vjp pulls a cotangent of
    phi(values) back to values.  This is the per-site form that
    `visual_grads` folds into one product per path.
    """
    total = np.zeros(values.shape)
    for d_delta, cache in sites:
        mask = cache.mask
        d_out = alpha * d_delta
        d_scores = (d_out @ np.swapaxes(values, -1, -2)) * mask
        total += np.swapaxes(cache.scores * mask, -1, -2) @ d_out
        total += key_vjp(np.swapaxes(d_scores, -1, -2) @ cache.q_act)
    return total


def standard_xattn_scalar(x_text, x_vis, wq, wk, wv, wo, d_k):
    """Step-by-step scalar softmax cross-attention."""
    xt, xv = to_lists(x_text), to_lists(x_vis)
    q = matmul_lists(xt, to_lists(wq))
    key = matmul_lists(xv, to_lists(wk))
    val = matmul_lists(xv, to_lists(wv))
    scale = math.sqrt(d_k)
    out_rows = []
    for qi in q:
        logits = [sum(a * b for a, b in zip(qi, kj)) / scale for kj in key]
        weights = softmax_row_list(logits)
        mixed = [sum(w * vj[c] for w, vj in zip(weights, val)) for c in range(len(val[0]))]
        out_rows.append(mixed)
    wo_t = [list(col) for col in zip(*to_lists(wo))]
    return matmul_lists(out_rows, wo_t)


def param_free_scalar(x_text, x_vis, phi="silu", gamma=0.0):
    """Brute-force projection-free attention: per-pair score, per-row drop."""
    act = SCALAR_ACTS[phi]
    xt, xv = to_lists(x_text), to_lists(x_vis)
    qs = [[act(v) for v in row] for row in xt]
    ks = [[act(v) for v in row] for row in xv]
    n = len(xv)
    k_drop = math.floor(gamma * n)
    out, scores, masks = [], [], []
    for qi in qs:
        row_scores = [sum(a * b for a, b in zip(qi, kj)) for kj in ks]
        dropped = set(smallest_k_indices(row_scores, k_drop))
        row_mask = [0.0 if j in dropped else 1.0 for j in range(n)]
        mixed = [
            sum(row_scores[j] * row_mask[j] * xv[j][c] for j in range(n))
            for c in range(len(xv[0]))
        ]
        out.append(mixed)
        scores.append(row_scores)
        masks.append(row_mask)
    return out, scores, masks


def fd_grad(f, x, h=1e-5, inplace=False):
    """Central finite-difference gradient of scalar f at array x.

    With inplace=True the array itself is perturbed and restored between
    evaluations, for functions that read x through a live reference (e.g. a
    model parameter) rather than through the argument.
    """
    arr = x if inplace else np.array(x, dtype=float)
    g = np.zeros_like(arr, dtype=float)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        hi = f(arr)
        arr[idx] = orig - h
        lo = f(arr)
        arr[idx] = orig
        g[idx] = (hi - lo) / (2.0 * h)
    return g


def grad_rel_err(analytic, numeric):
    """Max absolute gap, normalized by the finite-difference scale."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = max(float(np.max(np.abs(numeric))), 1e-10)
    return float(np.max(np.abs(analytic - numeric))) / denom


def encode_each(dataset, idx, d_in, encoder_seed, scales, pool):
    """encode_batch's prompt features and cls rows, built one sample at a time.

    Each sample runs alone through synthetic_encoder and pool_scales, so
    agreement shows that neither the batch nor its chunking changes a bit.
    """
    feats, cls = [], []
    for i in idx:
        patches, cls_row = synthetic_encoder(np.eye(dataset.channels)[dataset.images[i]], d_in, encoder_seed)
        feats.append(pool_scales(patches.reshape(GRID, GRID, d_in), scales, pool))
        cls.append(cls_row)
    return np.stack(feats), np.stack(cls)


class FullPathModel(DecoderModel):
    """DecoderModel with the text-only skip turned off: every forward and
    loss_and_grads runs the visual side and the sites, whatever alpha is."""

    text_only = False
