"""Experiment harness: single runs, ablation sweeps, drop heatmaps, reports.

A run is a pure function of its config: build the datasets and the
model from the embedded seed, train the fusion tensors, then measure
accuracy, complexity, and which visual rows the masks kept.  Sweeps
enumerate fixed configuration sets along one axis, derive one seed per
configuration, tolerate individual failures, and sort the survivors by
accuracy.  Everything serializes to JSON, Markdown, or CSV.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data import GridVqaDataset, encode_batch, gen_dataset, vocab_size
from .flops import FlopsReport, flops
from .fusion import drop_count
from .model import LEGAL_PLACEMENTS, DecoderModel, FlatConfig, ModelConfig, answer_nll, save_checkpoint
from .prompt import GRID, scale_layout
from .tensor import ACTIVATIONS
from .train import BASE_LR, KEY_GAIN, _batch_sums, _split, align_visual_keys, train_model

HEATMAP_SAMPLES = 256
GRADCHECK_TOL = 1e-4  # the largest relative gradient error gradcheck_report passes


# every ModelConfig field but vocab_size, which a run derives from its channels
_MODEL_FIELDS = tuple(f for f in fields(ModelConfig) if f.name != "vocab_size")


def _model_fields_first(cls):
    """Make cls a dataclass of ModelConfig's fields, then its own, then seed.

    Each ModelConfig field keeps its place and its ModelConfig default,
    unless cls restates the field with a default of its own."""
    for f in _MODEL_FIELDS:
        if f.name not in vars(cls):
            setattr(cls, f.name, field(default=f.default, default_factory=f.default_factory))
    types = {f.name: f.type for f in _MODEL_FIELDS}
    seed = types.pop("seed")
    cls.__annotations__ = {**types, **cls.__annotations__, "seed": seed}
    return dataclass(cls)


@_model_fields_first
class ExperimentConfig(FlatConfig):
    """One training run, fully determined: architecture, task, optimizer.

    The architecture and fusion fields are ModelConfig's, less vocab_size,
    which follows from channels, and are checked by ModelConfig.  Only two
    defaults differ from ModelConfig's: a run starts from a stronger
    positional code (pos_scale) and value pair (b_scale).  The task needs
    at least 2 channels (colors) and a feature width d_in that holds
    them; the run sizes n_train, n_test, steps and batch_size must be at
    least 1, base_lr finite and positive, and every value of its field's
    type."""

    pos_scale: float = 0.3
    b_scale: float = 1.0
    # task
    channels: int = 8
    n_train: int = 4096
    n_test: int = 1024
    # optimization
    steps: int = 2000
    batch_size: int = 64
    base_lr: float = BASE_LR
    align_keys: bool = True
    key_gain: float = KEY_GAIN

    def __post_init__(self):
        self.check_types()
        if self.channels < 2:
            raise ValueError(f"channels must be at least 2, got {self.channels}")
        if self.d_in < self.channels:
            raise ValueError(f"d_in must be at least channels ({self.channels}), got {self.d_in}")
        model = self.model_config()  # checks and normalizes every field the two share
        self.placement, self.scales = model.placement, model.scales
        for name in ("n_train", "n_test", "steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (np.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError(f"base_lr must be finite and positive, got {self.base_lr}")

    def model_config(self) -> ModelConfig:
        shared = {f.name: getattr(self, f.name) for f in _MODEL_FIELDS}
        return ModelConfig(vocab_size=vocab_size(self.channels), **shared)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# drop-frequency heatmaps


@dataclass
class HeatmapReport:
    """How often each visual row survived the mask, viewed per scale grid.

    freq = kept count / (text positions x blocks x samples), so each
    grid's entries lie in [0, 1] and the mean over all rows equals
    1 - floor(gamma*N)/N exactly.  `normalized` rescales each grid by
    its own maximum for display.
    """

    gamma: float
    denominator: int
    counts: dict  # scale -> (side, side) int array
    freq: dict  # scale -> (side, side) float array
    normalized: dict  # scale -> (side, side) float array
    mean_freq: float
    queried_top_decile_rate: float | None  # None when scale 1 is absent

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "denominator": self.denominator,
            "mean_freq": self.mean_freq,
            "queried_top_decile_rate": self.queried_top_decile_rate,
            "grids": {
                str(scale): {
                    "counts": self.counts[scale].tolist(),
                    "freq": self.freq[scale].tolist(),
                    "normalized": self.normalized[scale].tolist(),
                }
                for scale in self.counts
            },
        }

    def write_csvs(self, out_dir) -> None:
        """heatmap_scale{s}.csv (freq) and heatmap_scale{s}_normalized.csv for each scale s, in out_dir."""
        for suffix, grids in (("", self.freq), ("_normalized", self.normalized)):
            for scale, grid in grids.items():
                (Path(out_dir) / f"heatmap_scale{scale}{suffix}.csv").write_text(heatmap_csv(grid))


def _heatmap_counts(model: DecoderModel, dataset: GridVqaDataset, encoder_seed: int, idx):
    """(kept count per visual row, queried cells in their sample's top decile, text positions x blocks x samples) over idx."""
    cfg = model.config
    tokens, feats, cls_raw, _ = encode_batch(dataset, idx, cfg.d_in, encoder_seed, scales=cfg.scales, pool=cfg.pool)
    _, masks = model.forward(tokens, feats, cls_raw, want_masks=True)
    kept = np.stack([m[:, 1:, :] for m in masks])  # (blocks, B, text, N)
    top_decile_hits = 0
    fine = scale_layout(cfg.scales).get(1)  # the scale-1 rows, one per grid cell
    if fine is not None:
        per_sample = kept.sum(axis=(0, 2))[:, fine]
        cells = dataset.queries[idx, 0] * GRID + dataset.queries[idx, 1]
        own = per_sample[np.arange(len(idx)), cells]
        rank = np.sum(per_sample > own[:, None], axis=1)  # rows strictly ahead
        top_decile_hits = int(np.sum(rank < int(np.ceil(0.1 * GRID * GRID))))
    return kept.sum(axis=(0, 1, 2)).astype(np.int64), top_decile_hits, kept[..., 0].size


def drop_heatmap(
    model: DecoderModel,
    dataset: GridVqaDataset,
    *,
    encoder_seed: int | None = None,
    n_samples: int = HEATMAP_SAMPLES,
    batch_size: int = 128,
) -> HeatmapReport:
    """Count kept visual rows over text query positions, blocks, samples.

    Only genuine text positions count as queries -- the prepended global
    row is excluded.  With gamma = 0 nothing is ever dropped; that
    degenerate all-ones result is reported with a warning.  The batches
    may split between two processes (train._batch_sums).
    """
    cfg = model.config
    if encoder_seed is None:
        encoder_seed = cfg.seed
    if cfg.gamma == 0.0:
        warnings.warn("gamma is 0: nothing is dropped, every frequency is 1", stacklevel=2)
    n_samples = min(n_samples, len(dataset))
    if n_samples < 1:
        raise ValueError(f"heatmap needs at least one sample, got {n_samples}")
    row_counts, top_decile_hits, denominator = _batch_sums(_heatmap_counts, model, dataset, n_samples, batch_size, encoder_seed)
    layout = scale_layout(cfg.scales)
    freq = row_counts / denominator
    counts_by_scale, freq_by_scale, norm_by_scale = {}, {}, {}
    for s, rows in layout.items():
        side = GRID // s
        counts_by_scale[s] = row_counts[rows].reshape(side, side)
        grid = freq[rows].reshape(side, side)
        freq_by_scale[s] = grid
        peak = grid.max()
        norm_by_scale[s] = grid / peak if peak > 0 else np.zeros_like(grid)
    return HeatmapReport(
        gamma=cfg.gamma,
        denominator=denominator,
        counts=counts_by_scale,
        freq=freq_by_scale,
        normalized=norm_by_scale,
        mean_freq=float(freq.mean()),
        queried_top_decile_rate=(top_decile_hits / n_samples) if 1 in layout else None,
    )


def expected_mean_freq(gamma: float, n_rows: int) -> float:
    """Conservation constant: every query keeps exactly N - floor(gamma*N) rows."""
    return 1.0 - drop_count(gamma, n_rows) / n_rows


def heatmap_csv(grid: np.ndarray) -> str:
    return "\n".join(",".join(f"{v:.6f}" for v in row) for row in np.asarray(grid, dtype=float)) + "\n"


# ---------------------------------------------------------------------------
# single runs


@dataclass
class RunReport:
    """Everything one training run produced, reproducible from `config`."""

    config: dict
    seed: int
    label: str = ""
    final_accuracy: float = float("nan")
    losses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    flops: FlopsReport | None = None
    heatmaps: HeatmapReport | None = None
    wall_clock_s: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "label": self.label,
            "final_accuracy": self.final_accuracy,
            "losses": np.asarray(self.losses).tolist(),
            "flops": self.flops.to_dict() if self.flops is not None else None,
            "heatmaps": self.heatmaps.to_dict() if self.heatmaps is not None else None,
            "wall_clock_s": self.wall_clock_s,
            "error": self.error,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def loss_decreased(losses) -> bool:
    """Mean loss over the last tenth of training below the first tenth."""
    losses = np.asarray(losses)
    chunk = max(1, len(losses) // 10)
    return float(np.mean(losses[-chunk:])) < float(np.mean(losses[:chunk]))


def _run(config: ExperimentConfig, label: str, heatmap_samples: int):
    t0 = time.perf_counter()
    train_set, test_set = gen_dataset(config.seed, config.n_train, config.n_test, config.channels)
    model = DecoderModel.build(config.model_config())
    if config.align_keys:
        align_visual_keys(model, channels=config.channels, gain=config.key_gain)
    result = train_model(
        model,
        train_set,
        test_set,
        steps=config.steps,
        batch_size=config.batch_size,
        seed=config.seed,
        base_lr=config.base_lr,
    )
    seq_len = 3  # global row + the two question tokens
    report = RunReport(
        config=config.to_dict(),
        seed=config.seed,
        label=label,
        final_accuracy=result.final_accuracy,
        losses=result.losses,
        flops=flops(seq_len, model.config.n_rows, config.d_model),
        heatmaps=drop_heatmap(model, test_set, encoder_seed=config.seed, n_samples=heatmap_samples),
        wall_clock_s=time.perf_counter() - t0,
    )
    return report, model


def run_experiment(
    config: ExperimentConfig,
    *,
    label: str = "",
    heatmap_samples: int = HEATMAP_SAMPLES,
) -> RunReport:
    """Train one model per the config; report accuracy, cost, kept rows."""
    report, _ = _run(config, label, heatmap_samples)
    return report


def rerun(report: RunReport) -> RunReport:
    """Replay a report from its embedded config; metrics must reproduce."""
    return run_experiment(ExperimentConfig.from_dict(report.config), label=report.label)


def train_and_save(config: ExperimentConfig, out_dir, *, label: str = "") -> RunReport:
    """Run one experiment and write every artifact under out_dir.

    Emits report.json, report.md, per-scale heatmap CSVs (raw frequency
    and display-normalized), and a checkpoint/ directory that the
    heatmap command can reload.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report, model = _run(config, label, HEATMAP_SAMPLES)
    (out_dir / "report.json").write_text(report.to_json())
    (out_dir / "report.md").write_text(markdown_table([report]))
    report.heatmaps.write_csvs(out_dir)
    save_checkpoint(
        out_dir / "checkpoint",
        model,
        step=config.steps,
        metrics={"final_accuracy": report.final_accuracy, "label": label, "config": config.to_dict()},
    )
    return report


# ---------------------------------------------------------------------------
# ablation sweeps


def _pooling_rows():
    rows = [((1,), "avg"), ((2,), "avg"), ((4,), "avg"), ((2, 4), "avg"),
            ((1, 4), "avg"), ((1, 2), "avg"), ((1, 2, 4), "avg"), ((1, 2), "max")]
    return [({"scales": scales, "pool": pool}, f"scales={scales} pool={pool}") for scales, pool in rows]


ABLATION_AXES = {
    "projection": lambda: [({"phi": kind}, f"phi={kind}") for kind in ACTIVATIONS],
    "placement": lambda: [({"placement": p}, "->".join(p)) for p in LEGAL_PLACEMENTS],
    "pooling": _pooling_rows,
    "alpha": lambda: [({"alpha": v}, f"alpha={v}") for v in (0.01, 0.05, 0.1, 0.2, 0.5)],
    "beta": lambda: [({"beta": v}, f"beta={v}") for v in (0.001, 0.005, 0.01, 0.05, 0.1)],
    "gamma": lambda: [({"gamma": v}, f"gamma={v}") for v in (0.0, 0.1, 0.2, 0.3, 0.4)],
}


def _ablation_row(base: ExperimentConfig, base_seed: int, heatmap_samples: int, row) -> RunReport:
    """The run of one (index, (overrides, label)) row; a failing run becomes its error report."""
    index, (overrides, label) = row
    config = replace(base, seed=base_seed + index, **overrides)
    try:
        return run_experiment(config, label=label, heatmap_samples=heatmap_samples)
    except Exception as exc:  # noqa: BLE001 -- sweep must survive bad rows
        return RunReport(config=config.to_dict(), seed=config.seed, label=label, error=f"{type(exc).__name__}: {exc}")


def ablate(
    axis: str,
    *,
    base_seed: int = 0,
    base_config: ExperimentConfig | None = None,
    heatmap_samples: int = HEATMAP_SAMPLES,
) -> list[RunReport]:
    """Sweep one axis over its fixed configuration set.

    Each configuration trains with seed base_seed + index.  A failing run
    is recorded with its error and the sweep continues.  The runs may
    split between two processes (train._split).  Reports come back sorted
    by accuracy, failures last.
    """
    if axis not in ABLATION_AXES:
        raise ValueError(f"axis must be one of {sorted(ABLATION_AXES)}, got {axis!r}")
    base = base_config if base_config is not None else ExperimentConfig()
    reports = _split(_ablation_row, list(enumerate(ABLATION_AXES[axis]())), base, base_seed, heatmap_samples)
    return sorted(reports, key=lambda r: (not r.ok, -(r.final_accuracy if r.ok else 0.0)))


def projection_ordering_note(reports) -> str:
    """Directional observation on the projection sweep, logged not asserted."""
    acc = {r.label.split("=", 1)[1]: r.final_accuracy for r in reports if r.ok}
    needed = ("silu", "identity", "softmax_rows")
    if any(k not in acc for k in needed):
        return "projection ordering: incomplete sweep, no comparison"
    verdict = "holds" if acc["silu"] >= acc["identity"] >= acc["softmax_rows"] else "does not hold"
    detail = ", ".join(f"{k}={acc[k]:.4f}" for k in needed)
    return f"projection ordering silu >= identity >= softmax_rows {verdict} ({detail})"


def markdown_table(reports) -> str:
    """One row per report: label, accuracy, loss endpoints, wall clock."""
    lines = [
        "| label | accuracy | first loss | last loss | wall s | status |",
        "|---|---|---|---|---|---|",
    ]
    for r in reports:
        if r.ok and len(r.losses):
            first, last = f"{r.losses[0]:.4f}", f"{r.losses[-1]:.4f}"
        else:
            first = last = "-"
        acc = f"{r.final_accuracy:.4f}" if r.ok else "-"
        status = "ok" if r.ok else r.error
        lines.append(f"| {r.label or 'run'} | {acc} | {first} | {last} | {r.wall_clock_s:.1f} | {status} |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the gradient check: loss_and_grads against central differences


def _answer_loss(model: DecoderModel, tokens, feats, cls_raw, targets) -> tuple[float, list]:
    """Mean cross-entropy at the last position, read off forward's logits, and that call's keep masks."""
    logits, masks = model.forward(tokens, feats, cls_raw, want_masks=True)
    return float(np.mean(answer_nll(logits[:, -1, :], targets))), masks


def _gradcheck_trial(seed: int, trial: int) -> dict:
    """gradcheck_report's row for one trial: its model, its inputs and each trainable tensor's relative error."""
    h = 1e-5
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
    dims = {
        "n_blocks": int(rng.integers(1, 3)),
        "d_model": int(rng.integers(4, 9)),
        "d_in": int(rng.integers(2, 7)),
        "rank": int(rng.integers(1, 4)),
    }
    gamma = 0.0 if trial % 2 == 0 else 0.2
    phi = ACTIVATIONS[trial % len(ACTIVATIONS)]
    # shifted by one row every round, so a placement does not always meet the same phi
    placement = LEGAL_PLACEMENTS[(trial + trial // len(LEGAL_PLACEMENTS)) % len(LEGAL_PLACEMENTS)]
    model = DecoderModel.build(ModelConfig(
        **dims, placement=placement, gamma=gamma, phi=phi, scales=(4,),
        pos_scale=0.3, b_scale=0.3, seed=int(rng.integers(2**31)),
    ))
    cfg = model.config
    inputs = (
        rng.integers(0, cfg.vocab_size, size=(2, 2)),
        rng.normal(size=(2, cfg.n_rows, cfg.d_in)),
        rng.normal(size=(2, 1, cfg.d_in)),
        rng.integers(0, cfg.vocab_size, size=2),
    )
    _, grads = model.loss_and_grads(*inputs)
    masks = _answer_loss(model, *inputs)[1]

    by_tensor, nonsmooth = {}, 0
    for name, analytic in grads.items():
        arr = model.trainable_tensors()[name]  # perturbed in place, so forward reads it
        picks = sorted({int(np.argmax(np.abs(analytic))), *rng.integers(0, arr.size, size=2).tolist()})
        numeric = []
        for index in (np.unravel_index(i, arr.shape) for i in picks):
            keep = arr[index]
            for step in (h, h / 10, h / 100):
                arr[index] = keep + step
                up, up_masks = _answer_loss(model, *inputs)
                arr[index] = keep - step
                down, down_masks = _answer_loss(model, *inputs)
                if all(np.array_equal(a, b) for side in (up_masks, down_masks) for a, b in zip(side, masks)):
                    break
            arr[index] = keep
            nonsmooth += step != h
            numeric.append((up - down) / (2.0 * step))
        numeric, sampled = np.array(numeric), analytic.reshape(-1)[picks]
        scale = max(np.max(np.abs(numeric)), np.max(np.abs(sampled)), 1e-12)
        by_tensor[name] = float(np.max(np.abs(numeric - sampled)) / scale)
    return {
        "trial": trial, **dims, "placement": "->".join(placement),
        "gamma": gamma, "phi": phi, "max_rel_err": max(by_tensor.values()), "by_tensor": by_tensor,
        "nonsmooth": nonsmooth,
    }


def gradcheck_report(seed: int = 0, trials: int = 20) -> dict:
    """DecoderModel.loss_and_grads against central differences on tiny models.

    Each trial builds a model with one or two blocks over a 16-row prompt
    (scales (4,)), draws a batch of 2, and cycles the placement through
    the six legal rows, phi through ACTIVATIONS and gamma over {0, 0.2}.
    For each trainable tensor it central-differences (h = 1e-5) the
    cross-entropy of `forward`'s logits at the entry with the largest
    analytic gradient and at two random entries, and scores the tensor by
    max |gap| / max(|num|, |analytic|) over them.  d_model starts at 4:
    over two features layer norm outputs +-1, so its Jacobian is about 0
    and finite-difference roundoff swamps the gradients it passes.  Where
    the keep masks at x +- h differ from those at x, the difference
    straddles a jump of the top-k selection, not a slope; such an entry
    counts as `nonsmooth` and is differenced again at h/10, then h/100,
    until both sides keep the masks of x.  The trials may split between
    two processes (train._split).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rows = _split(_gradcheck_trial, list(range(trials)), seed)
    worst = max(r["max_rel_err"] for r in rows)
    nonsmooth = sum(r["nonsmooth"] for r in rows)
    return {"trials": rows, "tolerance": GRADCHECK_TOL, "max_rel_err": worst, "ok": bool(worst <= GRADCHECK_TOL), "nonsmooth": nonsmooth}
