"""Parameter-free cross-attention with adaptive score masking.

The fusion path replaces the four learned projections of standard
cross-attention with a fixed activation applied to both sides of the
similarity product:

    scores = phi(X_text) @ phi(X_vis).T          (L, N)
    out    = drop(scores) @ X_vis                (L, d)

There is no softmax, so row sums are unconstrained and the lowest-scoring
visual columns of each row can simply be zeroed (`adaptive_mask`).  The
fusion has no parameters: the only trainable tensors (`FusionParams`) are
the two low-rank pairs that embed raw visual features into the model
width, and a per-row positional embedding added to the embedded features.
The fixed settings alpha, beta, gamma and phi live on the model config
and reach these functions as arguments.

`site_forward`/`site_backward` are the one implementation of that
product and its gradients: `param_free_xattn` runs it on one sample, the
decoder on a whole batch.  Without a softmax a site's gradients on the
visual rows are rank-L products: `site_backward` returns the factors,
`visual_grads` sums them once.  `visual_values` embeds the raw features
into the rows every site reads; `low_rank_vjp` carries their gradient
back to the low-rank pairs.

`standard_xattn` implements the classical softmax cross-attention and is
kept as the reference the simplified path is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor import FLOAT, ShapeError, activation, activation_vjp, softmax_rows


def drop_count(gamma: float, n: int) -> int:
    """Number of masked entries per row: floor(gamma * n) in float64."""
    return int(np.floor(FLOAT(gamma) * n))


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"drop ratio must lie in [0, 1), got {gamma}")


@dataclass
class StandardXAttnParams:
    """Square projection weights of a classical cross-attention module."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    d_k: int

    def __post_init__(self):
        d = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v", "w_o"):
            w = getattr(self, name)
            if w.shape != (d, d):
                raise ShapeError(f"{name} must be ({d}, {d}), got {w.shape}")
        if self.d_k <= 0:
            raise ValueError(f"d_k must be positive, got {self.d_k}")

    @classmethod
    def random(cls, rng: np.random.Generator, d: int):
        std = 1.0 / np.sqrt(d)
        mats = [rng.normal(0.0, std, size=(d, d)) for _ in range(4)]
        return cls(*mats, d_k=d)


@dataclass
class FusionParams:
    """Trainable tensors of the fusion branch.

    a_feat/b_feat: low-rank pair embedding patch features (d_in -> d_model);
    a_cls/b_cls: the analogous pair for the encoder's global token;
    pos_embed: per-visual-row learnable offset, one row per prompt row.
    The fusion's fixed settings (alpha, beta, gamma, phi) live on the
    model config.
    """

    a_feat: np.ndarray
    b_feat: np.ndarray
    a_cls: np.ndarray
    b_cls: np.ndarray
    pos_embed: np.ndarray

    def __post_init__(self):
        d_in, rank = self.a_feat.shape
        if self.b_feat.shape[0] != rank:
            raise ShapeError(f"a_feat {self.a_feat.shape} and b_feat {self.b_feat.shape} do not compose")
        d_model = self.b_feat.shape[1]
        if self.a_cls.shape[0] != d_in or self.b_cls.shape[1] != d_model:
            raise ShapeError("cls pair must map the same d_in to the same d_model as the feature pair")
        if self.a_cls.shape[1] != self.b_cls.shape[0]:
            raise ShapeError(f"a_cls {self.a_cls.shape} and b_cls {self.b_cls.shape} do not compose")
        if self.pos_embed.ndim != 2 or self.pos_embed.shape[1] != d_model:
            raise ShapeError(f"pos_embed must be (n_rows, {d_model}), got {self.pos_embed.shape}")

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        d_in: int,
        d_model: int,
        rank: int,
        n_rows: int,
        *,
        pos_scale: float = 0.1,
        b_scale: float = 0.1,
    ) -> "FusionParams":
        """Fresh parameters: A pairs uniform(+-1/sqrt(d_in)), B pairs and
        the positional embedding uniform at caller-chosen scales.

        With b_scale=0 and pos_scale=0 the branch is an exact no-op at
        step 0 -- but that point is hostile to training: all-zero B is a
        stationary point for the A pairs, and an all-zero cls embedding
        sits on layer norm's zero-variance singularity, whose backward
        pass multiplies gradients by 1/sqrt(eps).  Training inits
        therefore start from small nonzero draws; the exact no-op state
        remains available by passing zero scales.
        """
        bound = 1.0 / np.sqrt(d_in)
        return cls(
            a_feat=rng.uniform(-bound, bound, size=(d_in, rank)),
            a_cls=rng.uniform(-bound, bound, size=(d_in, rank)),
            b_feat=rng.uniform(-b_scale, b_scale, size=(rank, d_model)),
            b_cls=rng.uniform(-b_scale, b_scale, size=(rank, d_model)),
            pos_embed=rng.uniform(-pos_scale, pos_scale, size=(n_rows, d_model)),
        )

    @property
    def n_rows(self) -> int:
        return self.pos_embed.shape[0]

    def trainable(self) -> dict[str, np.ndarray]:
        """Named trainable tensors, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def standard_xattn(x_text: np.ndarray, x_vis: np.ndarray, p: StandardXAttnParams) -> np.ndarray:
    """Classical cross-attention with text queries and visual keys/values.

    softmax((X_text Wq)(X_vis Wk)^T / sqrt(d_k)) (X_vis Wv) Wo^T
    """
    if x_text.ndim != 2 or x_vis.ndim != 2:
        raise ShapeError(f"expected rank-2 inputs, got {x_text.shape} and {x_vis.shape}")
    d = p.w_q.shape[0]
    if x_text.shape[1] != d or x_vis.shape[1] != d:
        raise ShapeError(f"inputs must have width {d}, got {x_text.shape} and {x_vis.shape}")
    q = x_text @ p.w_q
    k = x_vis @ p.w_k
    v = x_vis @ p.w_v
    weights = softmax_rows(q @ k.T / np.sqrt(FLOAT(p.d_k)))
    return (weights @ v) @ p.w_o.T


def adaptive_mask(scores: np.ndarray, gamma: float) -> np.ndarray:
    """Per-row float keep mask: zero out the k = floor(gamma*N) smallest scores.

    The mask is that of a stable ascending sort of each row, NaN above
    +inf, found in O(N) per row: np.partition picks the row's k-th smallest
    score t, every score below t is dropped, and the ties equal to t (NaN
    matches NaN, -0.0 matches +0.0) are dropped lowest column index first
    until the row holds exactly k zeros.  The surviving entries pass
    through unchanged; no renormalisation happens because the scores were
    never normalised.
    """
    _check_gamma(gamma)
    if scores.ndim != 2:
        raise ShapeError(f"scores must be rank 2, got shape {scores.shape}")
    n_rows, n_cols = scores.shape
    k = drop_count(gamma, n_cols)
    if k == 0:
        return np.ones((n_rows, n_cols), dtype=FLOAT)
    threshold = np.partition(scores, k - 1, axis=1)[:, k - 1 : k]
    drop = scores < threshold
    ties = scores == threshold
    nan_rows = np.isnan(threshold[:, 0])  # the k-th smallest is NaN: every number goes, then NaNs
    if nan_rows.any():
        drop[nan_rows] = ~np.isnan(scores[nan_rows])
        ties[nan_rows] = ~drop[nan_rows]
    need = k - np.count_nonzero(drop, axis=1)  # ties still to drop, >= 1 per row
    # only rows with more ties than that need the column-order cut; a cumsum
    # over every row would cost about as much as the partition itself
    crowded = np.count_nonzero(ties, axis=1) > need
    if crowded.any():
        crowded_ties = ties[crowded]
        ties[crowded] = crowded_ties & (np.cumsum(crowded_ties, axis=1) <= need[crowded, None])
    drop |= ties
    return np.logical_not(drop).astype(FLOAT)


def param_free_xattn(
    x_text: np.ndarray,
    x_vis: np.ndarray,
    phi: str = "silu",
    gamma: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projection-free cross-attention over already-embedded visual rows.

    Returns (out, scores, mask) where scores = phi(x_text) @ phi(x_vis).T
    and out = (scores * mask) @ x_vis.
    """
    if x_text.ndim != 2 or x_vis.ndim != 2:
        raise ShapeError(f"expected rank-2 inputs, got {x_text.shape} and {x_vis.shape}")
    if x_text.shape[1] != x_vis.shape[1]:
        raise ShapeError(f"feature widths differ: {x_text.shape} vs {x_vis.shape}")
    out, site = site_forward(x_text, x_vis, activation(x_vis, phi)[0], 1.0, gamma, phi)
    return out, site.scores, site.mask


# ---------------------------------------------------------------------------
# the fusion site: one kernel for a single sample (L, d) and a batch (B, L, d)


@dataclass
class SiteCache:
    """Forward intermediates of one fusion site, needed by site_backward."""

    queries: np.ndarray  # (..., L, d)
    q_act: np.ndarray  # phi(queries)
    q_saved: np.ndarray | None  # what activation_vjp reads besides the queries
    scores: np.ndarray  # (..., L, N)
    mask: np.ndarray  # (..., L, N) float keep mask from adaptive_mask


def site_forward(
    queries: np.ndarray,
    values: np.ndarray,
    k_act: np.ndarray,
    alpha: float,
    gamma: float,
    phi: str,
) -> tuple[np.ndarray, SiteCache]:
    """delta = alpha * (mask(phi(queries) @ k_act^T) @ values).

    queries are (..., L, d); values and k_act = phi(values) are (..., N, d)
    with the same leading axes, so one call serves one sample or a batch.
    k_act is an input because every site of a model shares it.
    """
    q_act, q_saved = activation(queries, phi)
    scores = q_act @ np.swapaxes(k_act, -1, -2)
    mask = adaptive_mask(scores.reshape(-1, scores.shape[-1]), gamma).reshape(scores.shape)
    delta = alpha * ((scores * mask) @ values)
    return delta, SiteCache(queries=queries, q_act=q_act, q_saved=q_saved, scores=scores, mask=mask)


def site_backward(
    d_delta: np.ndarray,
    cache: SiteCache,
    values: np.ndarray,
    k_act: np.ndarray,
    alpha: float,
    phi: str,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Gradients of one site against its cached forward.

    Returns (d_queries, factors).  The site's cotangents of values and of
    k_act = phi(values) are rank-L products, (S*M)^T (alpha d_delta) and
    d_scores^T phi(queries), so factors holds their four (..., L, .) terms
    and visual_grads forms the (..., N, d) sum over all sites once.  The
    drop mask M is a constant: kept score entries pass the gradient
    straight through, dropped entries contribute exactly zero.
    """
    mask = cache.mask
    d_out = alpha * d_delta
    d_scores = (d_out @ np.swapaxes(values, -1, -2)) * mask
    d_queries = activation_vjp(cache.queries, cache.q_saved, d_scores @ k_act, phi)
    return d_queries, (cache.scores * mask, d_out, d_scores, cache.q_act)


def visual_grads(factors, values: np.ndarray, k_saved: np.ndarray | None, phi: str) -> np.ndarray:
    """d(loss)/d(values) summed over the sites whose site_backward factors are given.

    Every site reads the same values and k_act = phi(values), so their
    factors are concatenated along L: one product forms the value path,
    one the key-path cotangent, and one activation_vjp pulls it back.
    """
    kept, d_out, d_scores, q_act = (np.concatenate(f, axis=-2) for f in zip(*factors))
    d_values = activation_vjp(values, k_saved, np.swapaxes(d_scores, -1, -2) @ q_act, phi)
    d_values += np.swapaxes(kept, -1, -2) @ d_out
    return d_values


# ---------------------------------------------------------------------------
# the fusion branch: low-rank visual embedding feeding the site


def _check_visual_features(x_vis_raw: np.ndarray, p: FusionParams) -> None:
    if x_vis_raw.ndim < 2 or x_vis_raw.shape[-2:] != (p.n_rows, p.a_feat.shape[0]):
        raise ShapeError(
            f"visual features {x_vis_raw.shape} must end in (n_rows, d_in) = "
            f"({p.n_rows}, {p.a_feat.shape[0]}) to match pos_embed {p.pos_embed.shape} and a_feat {p.a_feat.shape}"
        )


def visual_values(x_vis_raw: np.ndarray, p: FusionParams, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(values, low_rank) with values = (x_vis_raw @ a_feat) @ (beta * b_feat) + pos_embed.

    beta scales only the embedded features, through the small b_feat; the
    positional embedding enters unscaled.  x_vis_raw is (..., n_rows, d_in):
    it may carry batch axes.
    """
    _check_visual_features(x_vis_raw, p)
    low_rank = x_vis_raw @ p.a_feat
    values = low_rank @ (beta * p.b_feat)
    values += p.pos_embed  # in place: these (B, N, d) temporaries dominate allocation
    return values, low_rank


def low_rank_vjp(d_out: np.ndarray, x_raw: np.ndarray, low_rank: np.ndarray, b: np.ndarray):
    """(d_a, d_b) for out = (x_raw @ a) @ b, summed over any leading batch axes."""
    rank, width = b.shape
    d_b = low_rank.reshape(-1, rank).T @ d_out.reshape(-1, width)
    d_a = x_raw.reshape(-1, x_raw.shape[-1]).T @ (d_out @ b.T).reshape(-1, rank)
    return d_a, d_b
