"""Frozen toy decoder LM hosting fusion branches at configurable placements.

The base model is a small pre-norm decoder: embedding, a stack of blocks
(single-head causal self-attention, then a 4x silu MLP, each behind its
own layer norm and residual), a final norm and a logit head.  The norms
have no gain or bias and the MLP has no biases, so the base is only its
weight matrices, each drawn once from the config seed and never trained.

Each block carries one fusion site at the config's placement, a
(query_from, add_to) pair from LEGAL_PLACEMENTS: the stream value at
`query_from` feeds the projection-free cross-attention, and the
resulting delta is added to the stream at `add_to`.  Taps are
sublayer boundary values (block input, attention output before its
residual add, the post-attention stream, MLP output before its residual
add), and when query and add points coincide the query always reads the
pre-add value.  All sites share one FusionParams and one ModelConfig:
the low-rank pairs, the visual positional embedding and the fixed
settings alpha, beta, gamma and phi are global, so blocks differ only in
where fusion attaches.

Everything runs batched (batch, seq, d) in float64, with a hand-written
backward pass that produces gradients only for the fusion tensors, as a
dict keyed like `trainable_tensors()`; the frozen base contributes
vector-Jacobian products but receives no updates.

A model whose alpha is 0 is the text-only control: every fusion delta
is exactly 0, so `loss_and_grads`, and `forward` unless it is asked for
the masks, run the blocks without their sites and never touch the
visual side.

`forward` and `loss_and_grads` run their batch in sample tiles whose
(tile, N, d) visual arrays each stay within tensor.TILE_BYTES.  The
visual side is a chain of elementwise passes and thin products over
those arrays; at full batch each is several MB, so every pass streams
from memory, while a tile's arrays stay in cache from one pass to the
next.  (One process, one BLAS thread, default config: 50 ms per
training step with 1 MB tiles against 62 ms with one tile.)  No op
before the loss mixes samples, so logits and masks do not depend on the
tiling; only the batch sums of the loss and gradients change order.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .fusion import (
    FusionParams,
    _check_gamma,
    _check_visual_features,
    low_rank_vjp,
    site_backward,
    site_forward,
    visual_grads,
    visual_values,
)
from .prompt import check_prompt, prompt_rows
from .tensor import ACTIVATIONS, FLOAT, ShapeError, activation, activation_vjp, load_tensor, sample_tiles, save_tensor, softmax_rows

LN_EPS = 1e-5

# the six legal (query_from, add_to) rows; add point never precedes query point
LEGAL_PLACEMENTS = (
    ("mhsa_in", "mhsa_in"),
    ("mhsa_in", "mhsa_out"),
    ("mhsa_out", "mhsa_out"),
    ("mlp_in", "mlp_in"),
    ("mlp_in", "mlp_out"),
    ("mlp_out", "mlp_out"),
)


# what a value of each declared field type must be, and how an error names it
_FIELD_TYPES = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "float": (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a real number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "tuple": (lambda v: isinstance(v, (tuple, list)), "a list"),  # __post_init__ checks the items
}


class FlatConfig:
    """The flat JSON form of a config dataclass, one key per field in declaration order.

    Tuples are lists in JSON; the dataclass's own __post_init__ calls
    check_types, then turns them back."""

    def check_types(self) -> None:
        """Raise ValueError naming the first field whose value is not of its declared type."""
        for f in fields(self):
            accepts, kind = _FIELD_TYPES[f.type]
            if not accepts(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be {kind}, got {getattr(self, f.name)!r}")

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values.items()}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {d!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}; expected a subset of {sorted(known)}")
        return cls(**d)


@dataclass
class ModelConfig(FlatConfig):
    """Architecture plus the fusion's fixed settings; seed fixes every weight.

    This is the one home of alpha (outer weight), beta (visual weight),
    gamma (drop ratio) and phi (similarity projection, see
    tensor.ACTIVATIONS).  Construction rejects what cannot be built: an
    illegal placement, a non-positive size, a gamma outside [0, 1), an
    unknown phi, a prompt that `check_prompt` refuses, a negative seed, or
    a value not of its field's type."""

    n_blocks: int = 2
    d_model: int = 64
    d_in: int = 32  # visual feature width entering the low-rank pairs
    rank: int = 8
    vocab_size: int = 40
    max_seq: int = 8
    placement: tuple = ("mlp_in", "mlp_out")  # (query_from, add_to), one of LEGAL_PLACEMENTS
    alpha: float = 0.1
    beta: float = 0.01
    gamma: float = 0.2
    phi: str = "silu"
    scales: tuple = (1, 2)
    pool: str = "avg"
    pos_scale: float = 0.1
    b_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        self.check_types()
        self.placement = tuple(self.placement)
        if self.placement not in LEGAL_PLACEMENTS:
            raise ValueError(
                f"placement {self.placement} is not one of the {len(LEGAL_PLACEMENTS)} legal pairs {LEGAL_PLACEMENTS}"
            )
        self.scales = check_prompt(self.scales, self.pool)
        _check_gamma(self.gamma)
        if self.phi not in ACTIVATIONS:
            raise ValueError(f"unknown projection {self.phi!r}; expected one of {ACTIVATIONS}")
        for name in ("n_blocks", "d_model", "d_in", "rank", "vocab_size", "max_seq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def n_rows(self) -> int:
        return prompt_rows(self.scales)


@dataclass
class DecoderBlock:
    """Frozen weights of one pre-norm block."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_mlp1: np.ndarray
    w_mlp2: np.ndarray

    @classmethod
    def random(cls, rng: np.random.Generator, d: int) -> "DecoderBlock":
        std = 1.0 / np.sqrt(d)
        return cls(
            w_q=rng.normal(0.0, std, size=(d, d)),
            w_k=rng.normal(0.0, std, size=(d, d)),
            w_v=rng.normal(0.0, std, size=(d, d)),
            w_o=rng.normal(0.0, std, size=(d, d)),
            w_mlp1=rng.normal(0.0, std, size=(d, 4 * d)),
            w_mlp2=rng.normal(0.0, 1.0 / np.sqrt(4 * d), size=(4 * d, d)),
        )

    def tensors(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# batched primitives (batch, seq, d)


def _ln_forward(x):
    d = x.shape[-1]  # sum / d is np.mean's arithmetic without its per-call overhead
    centered = x - x.sum(axis=-1, keepdims=True) / d
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * inv
    return xhat, (xhat, inv)


def _ln_backward(d_xhat, cache):
    xhat, inv = cache
    mean1 = d_xhat.sum(axis=-1, keepdims=True) / d_xhat.shape[-1]  # sum / d, as in _ln_forward
    mean2 = (d_xhat * xhat).sum(axis=-1, keepdims=True) / d_xhat.shape[-1]
    return inv * (d_xhat - mean1 - xhat * mean2)


@functools.cache
def _causal(s: int) -> np.ndarray:
    return np.broadcast_to(np.tri(s, dtype=bool), (s, s))  # once per sequence length; a read-only view, as it is shared


def _attn_forward(n1, blk):
    d = n1.shape[-1]
    q = n1 @ blk.w_q
    k = n1 @ blk.w_k
    v = n1 @ blk.w_v
    logits = (q @ k.swapaxes(1, 2)) / np.sqrt(FLOAT(d))
    weights, _ = activation(np.where(_causal(n1.shape[1]), logits, -np.inf), "softmax_rows")
    ctx = weights @ v
    return ctx @ blk.w_o, (q, k, v, weights)


def _attn_backward(d_out, cache, blk):
    q, k, v, weights = cache
    d = q.shape[-1]
    d_ctx = d_out @ blk.w_o.T
    d_weights = d_ctx @ v.swapaxes(1, 2)
    d_v = weights.swapaxes(1, 2) @ d_ctx
    d_logits = activation_vjp(None, weights, d_weights, "softmax_rows")  # reads only the weights
    scale = 1.0 / np.sqrt(FLOAT(d))
    d_q = (d_logits @ k) * scale
    d_k = (d_logits.swapaxes(1, 2) @ q) * scale
    return d_q @ blk.w_q.T + d_k @ blk.w_k.T + d_v @ blk.w_v.T


def _mlp_forward(n2, blk):
    pre = n2 @ blk.w_mlp1
    hidden, s = activation(pre, "silu")  # s = sigmoid(pre), kept for the backward pass
    return hidden @ blk.w_mlp2, (pre, s)


def _mlp_backward(d_out, cache, blk):
    pre, s = cache
    d_hidden = d_out @ blk.w_mlp2.T
    return activation_vjp(pre, s, d_hidden, "silu") @ blk.w_mlp1.T


# ---------------------------------------------------------------------------
# block with one placement-configurable fusion site

# The block's two residual sublayers in order: (input tap, output tap,
# forward, backward).  The input tap is the stream entering the sublayer;
# the output tap is the sublayer's branch before its residual add.
SUBLAYERS = (
    ("mhsa_in", "mhsa_out", _attn_forward, _attn_backward),
    ("mlp_in", "mlp_out", _mlp_forward, _mlp_backward),
)


def _block_forward(x, blk: DecoderBlock, keys, cfg: ModelConfig):
    """One block; keys = (values, phi(values)) is the visual side every site shares.

    When the query and add points coincide, the site reads the pre-add
    value.  keys None runs the block without its site.
    """
    q_from, add_to = cfg.placement
    caches, delta, site = [], None, None

    def tap(point, value):
        nonlocal delta, site
        if keys is None:
            return value
        if point == q_from:
            delta, site = site_forward(value, *keys, cfg.alpha, cfg.gamma, cfg.phi)
        return value + delta if point == add_to else value

    for p_in, p_out, forward, _ in SUBLAYERS:
        x = tap(p_in, x)
        normed, ln_cache = _ln_forward(x)
        branch, sub_cache = forward(normed, blk)
        x = x + tap(p_out, branch)
        caches.append((ln_cache, sub_cache))
    return x, (caches, site)


def _block_backward(d_out, cache, blk: DecoderBlock, keys, cfg: ModelConfig):
    """Returns (d_block_input, factors) -- the site's rank-L factors for visual_grads.

    Walking backward, the add point comes before (or at) the query point,
    so the query-path gradient is ready when its tap is reached.  keys
    None, as in the forward pass, has no site and no factors.
    """
    q_from, add_to = cfg.placement
    caches, site = cache
    d_query = factors = None

    def tap(point, grad):
        nonlocal d_query, factors
        if keys is None:
            return grad
        if point == add_to:
            d_query, factors = site_backward(grad, site, *keys, cfg.alpha, cfg.phi)
        return grad + d_query if point == q_from else grad

    for (p_in, p_out, _, backward), (ln_cache, sub_cache) in zip(reversed(SUBLAYERS), reversed(caches)):
        d_normed = backward(tap(p_out, d_out), sub_cache, blk)
        d_out = tap(p_in, d_out + _ln_backward(d_normed, ln_cache))
    return d_out, factors


def add_shares(shares):
    """Sum (loss, grads) shares in the order given, into the first share's gradient arrays."""
    shares = iter(shares)
    loss, grads = next(shares)
    for share_loss, share_grads in shares:
        loss += share_loss
        for name, g in share_grads.items():
            grads[name] += g
    return loss, grads


def answer_nll(last_logits, targets):
    """Per-sample cross-entropy -log softmax(last_logits)[target]: (batch, vocab) logits, (batch,) targets."""
    top = last_logits.max(axis=1)
    logz = np.log(np.sum(np.exp(last_logits - top[:, None]), axis=1)) + top
    return logz - last_logits[np.arange(len(targets)), targets]


# ---------------------------------------------------------------------------
# full model


@dataclass
class DecoderModel:
    config: ModelConfig
    embed: np.ndarray  # (vocab, d)
    blocks: list
    w_head: np.ndarray  # (d, vocab)
    fusion: FusionParams

    @classmethod
    def build(cls, config: ModelConfig) -> "DecoderModel":
        rng = np.random.default_rng(config.seed)
        d = config.d_model
        embed = rng.normal(0.0, 1.0, size=(config.vocab_size, d))
        blocks = [DecoderBlock.random(rng, d) for _ in range(config.n_blocks)]
        w_head = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, config.vocab_size))
        fusion = FusionParams.init(rng, d_in=config.d_in, d_model=d, rank=config.rank, n_rows=config.n_rows,
                                   pos_scale=config.pos_scale, b_scale=config.b_scale)
        return cls(config, embed, blocks, w_head, fusion)

    # --- parameter bookkeeping -------------------------------------------

    def base_tensors(self) -> dict[str, np.ndarray]:
        """Every frozen tensor, by stable name."""
        out = {"embed": self.embed, "w_head": self.w_head}
        for i, blk in enumerate(self.blocks):
            for name, t in blk.tensors().items():
                out[f"block{i}.{name}"] = t
        return out

    def trainable_tensors(self) -> dict[str, np.ndarray]:
        return self.fusion.trainable()

    @property
    def text_only(self) -> bool:
        """alpha = 0: every fusion delta is exactly 0, so logits and loss never read the visual side."""
        return self.config.alpha == 0

    # --- forward / backward ----------------------------------------------

    def _input_stream(self, tokens, cls_raw):
        seq = tokens.shape[1] + 1
        if seq > self.config.max_seq:
            raise ValueError(f"sequence length {seq} exceeds max_seq {self.config.max_seq}")
        cls_low = cls_raw @ self.fusion.a_cls
        cls_emb = cls_low @ self.fusion.b_cls
        return np.concatenate([cls_emb, self.embed[tokens]], axis=1), cls_low

    def _forward(self, tokens, keys, cls_raw):
        """Logits plus the text-side caches; keys = (values, phi(values)) is shared by every site, None skips them."""
        x, cls_low = self._input_stream(tokens, cls_raw)
        caches = []
        for blk in self.blocks:
            x, cache = _block_forward(x, blk, keys, self.config)
            caches.append(cache)
        nf, lnf_cache = _ln_forward(x)
        return nf @ self.w_head, (cls_low, caches, lnf_cache)

    def tiles(self, batch: int) -> list[slice]:
        """Near-equal slices of range(batch) whose (tile, N, d) arrays stay within TILE_BYTES; never empty."""
        return sample_tiles(batch, self.config.n_rows * self.config.d_model * np.dtype(FLOAT).itemsize)

    def _check_batch(self, tokens, feats, cls_raw) -> None:
        """tokens is (batch, T), the visual features fit the model, and the inputs share the batch size."""
        if tokens.ndim != 2:
            raise ShapeError(f"tokens must be (batch, T), got {tokens.shape}")
        _check_visual_features(feats, self.fusion)
        if feats.shape[:1] != tokens.shape[:1] or cls_raw.shape[:1] != tokens.shape[:1]:
            raise ShapeError(
                f"tokens {tokens.shape}, visual features {feats.shape} and cls rows {cls_raw.shape} "
                "must share their batch size"
            )

    def forward(self, tokens, feats, cls_raw, *, want_masks=False):
        """Logits (batch, T+1, vocab); optionally the per-block keep masks.

        A text-only model skips the visual side unless the masks are wanted.
        """
        self._check_batch(tokens, feats, cls_raw)
        visual = want_masks or not self.text_only
        logits, masks = [], []
        for t in self.tiles(len(tokens)):
            tile_logits, tile_masks = self._tile_forward(tokens[t], feats[t], cls_raw[t], visual)
            logits.append(tile_logits)
            if want_masks:
                masks.append(tile_masks)
        logits = np.concatenate(logits)
        if want_masks:
            return logits, [np.concatenate(block) for block in zip(*masks)]
        return logits

    def _tile_forward(self, tokens, feats, cls_raw, visual):
        """One tile's logits and per-block masks (none without the visual side); its visual arrays are freed on return."""
        cfg = self.config
        keys = None
        if visual:
            values = visual_values(feats, self.fusion, cfg.beta)[0]  # phi's saved state is dropped: only backward reads it
            keys = (values, activation(values, cfg.phi)[0])
        logits, (_, caches, _) = self._forward(tokens, keys, cls_raw)
        return logits, [site.mask for _, site in caches if site is not None]

    def loss_and_grads(self, tokens, feats, cls_raw, targets):
        """Mean answer_nll at the last position over the (batch,) targets, and its gradients.

        The gradients are a dict keyed and ordered like trainable_tensors():
        add_shares over every tile's share; an empty batch gives 0 and zero
        gradients.  A text-only model skips the visual side, and a_feat,
        b_feat and pos_embed get gradients of exactly 0.
        """
        return add_shares(self.tile_shares(tokens, feats, cls_raw, targets, self.tiles(len(tokens)), len(tokens)))

    def tile_shares(self, tokens, feats, cls_raw, targets, tiles, count):
        """Each tile's (loss, grads) share, lazily and in order, after checking these inputs' shapes.

        The tiles slice these arrays; count is the size of the whole batch
        they belong to, and each share is already divided by it, so the
        shares of all its tiles add up (add_shares) to the batch mean
        whichever process computed each one.
        """
        self._check_batch(tokens, feats, cls_raw)
        count = max(count, 1)
        return (self._tile_loss_and_grads(tokens[t], feats[t], cls_raw[t], targets[t], count) for t in tiles)

    def _tile_loss_and_grads(self, tokens, feats, cls_raw, targets, count):
        """One tile's summed cross-entropy / count, and its gradients; count is the whole batch's size."""
        f, cfg = self.fusion, self.config
        keys = None
        if not self.text_only:
            values, low_rank = visual_values(feats, f, cfg.beta)
            k_act, k_saved = activation(values, cfg.phi)
            keys = (values, k_act)
        logits, (cls_low, caches, lnf_cache) = self._forward(tokens, keys, cls_raw)

        last = logits[:, -1, :]
        loss = float(np.sum(answer_nll(last, targets)) / count)
        probs = softmax_rows(last)
        probs[np.arange(len(targets)), targets] -= 1.0
        d_logits = np.zeros_like(logits)
        d_logits[:, -1, :] = probs / count

        d_nf = d_logits @ self.w_head.T
        d_x = _ln_backward(d_nf, lnf_cache)
        factors = []
        for blk, cache in zip(reversed(self.blocks), reversed(caches)):
            d_x, site_factors = _block_backward(d_x, cache, blk, keys, cfg)
            factors.append(site_factors)
        d_a_cls, d_b_cls = low_rank_vjp(d_x[:, :1, :], cls_raw, cls_low, f.b_cls)
        if keys is None:
            zero = {name: np.zeros_like(t) for name, t in self.trainable_tensors().items()}
            return loss, {**zero, "a_cls": d_a_cls, "b_cls": d_b_cls}

        # one (B, N, d) cotangent for every site, formed after phi(values) is freed
        del keys, k_act
        d_values = visual_grads(factors, values, k_saved, cfg.phi)
        d_a_feat, d_b_feat = low_rank_vjp(d_values, feats, low_rank, cfg.beta * f.b_feat)
        d_b_feat *= cfg.beta  # beta scales the (r, d) factors, never the (B, N, d) d_values
        return loss, dict(a_feat=d_a_feat, b_feat=d_b_feat, a_cls=d_a_cls, b_cls=d_b_cls, pos_embed=d_values.sum(axis=0))

    def predict(self, tokens, feats, cls_raw) -> np.ndarray:
        """Greedy answer ids read from the final position."""
        logits = self.forward(tokens, feats, cls_raw)
        return np.argmax(logits[:, -1, :], axis=1)

    def query_tap(self, tokens, cls_raw) -> np.ndarray:
        """Block 0's fusion-site query input, (batch, T+1, d).

        Every legal placement reads its query before the block's first
        injection point, so this value never depends on the visual rows;
        it is what the site will compare keys against.  One zero row
        stands in for the visual rows: adaptive_mask cannot mask none.
        """
        x, _ = self._input_stream(tokens, cls_raw)
        zero = np.zeros((len(x), 1, self.config.d_model))
        _, (_, site) = _block_forward(x, self.blocks[0], (zero, zero), self.config)
        return site.queries


# ---------------------------------------------------------------------------
# checkpoints: one binary tensor file per weight plus a JSON manifest

MANIFEST_NAME = "manifest.json"
CHECKPOINT_FORMAT = 1  # a manifest without "format" predates the key and is format 1
# the layer norms' gains and biases and the MLP biases, which earlier format-1
# checkpoints list though nothing drew, trained or set them: each must hold its constant
_RETIRED = {"ln1_g": 1.0, "ln1_b": 0.0, "b_mlp1": 0.0, "b_mlp2": 0.0, "ln2_g": 1.0, "ln2_b": 0.0}


def _all_tensors(model: DecoderModel) -> dict[str, np.ndarray]:
    out = dict(model.base_tensors())
    for name, t in model.trainable_tensors().items():
        out[f"fusion.{name}"] = t
    return out


def save_checkpoint(directory, model: DecoderModel, *, step: int = 0, metrics: dict | None = None) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tensors = _all_tensors(model)
    files = {}
    for name, t in tensors.items():
        fname = name.replace(".", "_") + ".admt"
        save_tensor(directory / fname, t)
        files[name] = {"file": fname, "shape": list(t.shape)}
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "step": step,
        "metrics": metrics or {},
        "tensors": files,
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return directory


def load_checkpoint(directory):
    """Rebuild (model, step, metrics) with bit-identical tensors.

    The manifest must be of CHECKPOINT_FORMAT, its config must build, and
    it must list exactly the model's tensors: a missing one would
    otherwise keep its seed init and load silently.  An entry for a
    retired constant (_RETIRED) is skipped if it holds that constant.
    """
    directory = Path(directory)
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"checkpoint manifest must be a JSON object, got {type(manifest).__name__}")
    version = manifest.get("format", 1)
    if version != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint format {version!r} cannot be read; this version reads format {CHECKPOINT_FORMAT}")
    for key, kind in (("config", dict), ("step", int), ("metrics", dict), ("tensors", dict)):
        if type(manifest.get(key)) is not kind:  # type, not isinstance: a JSON true is no step
            got = repr(manifest[key]) if key in manifest else "nothing"
            raise ValueError(f"checkpoint {key} must be a JSON {'integer' if kind is int else 'object'}, got {got}")
    config = ModelConfig.from_dict(manifest["config"])
    model = DecoderModel.build(config)
    tensors = _all_tensors(model)
    retired = {"lnf_g": 1.0, "lnf_b": 0.0}
    retired.update((f"block{i}.{name}", c) for i in range(config.n_blocks) for name, c in _RETIRED.items())
    missing = sorted(set(tensors) - set(manifest["tensors"]))
    if missing:
        raise ValueError(f"checkpoint lacks model tensors {missing}")
    for name, entry in manifest["tensors"].items():
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)):
            raise ValueError(f"checkpoint tensor {name!r} must be listed as a JSON object with a string \"file\", got {entry!r}")
        if name not in tensors and name not in retired:
            raise ValueError(f"checkpoint tensor {name!r} has no slot in the model")
        loaded = load_tensor(directory / entry["file"])
        if name in retired:
            if not np.all(loaded == retired[name]):
                raise ValueError(f"checkpoint tensor {name!r} must hold only {retired[name]}, as the model no longer has it")
            continue
        if loaded.shape != tensors[name].shape:
            raise ShapeError(
                f"checkpoint tensor {name} has shape {loaded.shape}, expected {tensors[name].shape}"
            )
        tensors[name][...] = loaded
    return model, manifest["step"], manifest["metrics"]
