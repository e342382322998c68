"""Command-line harness: complexity reports, gradient checks, training,
ablation sweeps, drop heatmaps, and prompt dumps.

Every command exits 0 on success and 1 with a structured JSON error on
stderr when something fails; argparse usage mistakes exit 2.  Setting
the ADEMVL_SEED environment variable overrides the seed a config file
or default would otherwise supply.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import gen_dataset
from .experiment import (
    ABLATION_AXES,
    ExperimentConfig,
    ablate,
    drop_heatmap,
    expected_mean_freq,
    gradcheck_report,
    loss_decreased,
    markdown_table,
    projection_ordering_note,
    train_and_save,
)
from .flops import flops
from .model import load_checkpoint
from .prompt import GRID, pool_scales, save_prompt, scale_layout, synthetic_encoder
from .tensor import ShapeError

ENV_SEED = "ADEMVL_SEED"


def _seed(default: int) -> int:
    """The seed ADEMVL_SEED sets, or default (--seed's or the config's) when it is unset; never negative."""
    raw, source = os.environ.get(ENV_SEED), ENV_SEED
    if raw is None:
        seed, source = default, "--seed"
    else:
        try:
            seed = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from exc
    if seed < 0:
        raise ValueError(f"{source} must be non-negative, got {seed}")
    return seed


def _cmd_flops(args) -> int:
    report = flops(args.L, args.N, args.d)
    if args.json:
        print(report.to_json())
    else:
        print(report.table())
    return 0


def _cmd_gradcheck(args) -> int:
    result = gradcheck_report(seed=_seed(args.seed), trials=args.trials)
    for row in result["trials"]:
        dims = f"blocks={row['n_blocks']} d={row['d_model']} d_in={row['d_in']} r={row['rank']}"
        print(
            f"trial {row['trial']:3d}  {dims:26s} {row['placement']:18s} gamma={row['gamma']:.1f} "
            f"phi={row['phi']:13s} max_rel_err={row['max_rel_err']:.3e} nonsmooth={row['nonsmooth']}"
        )
    verdict = "PASS" if result["ok"] else "FAIL"
    print(f"gradcheck {verdict}: max rel err {result['max_rel_err']:.3e} (tolerance {result['tolerance']:.0e})")
    if not result["ok"]:
        raise RuntimeError(f"gradient check failed: max rel err {result['max_rel_err']:.3e}")
    return 0


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        config = ExperimentConfig()
    else:
        config = ExperimentConfig.from_json(Path(path).read_text())
    return replace(config, seed=_seed(config.seed))


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    out_dir = Path(args.out) if args.out else Path("runs") / f"train-seed{config.seed}"
    report = train_and_save(config, out_dir)
    direction = "decreased" if loss_decreased(report.losses) else "did NOT decrease"
    print(f"final test accuracy   {report.final_accuracy:.4f}")
    print(f"loss                  {report.losses[0]:.4f} -> {report.losses[-1]:.4f} ({direction})")
    print(f"drop mask mean keep   {report.heatmaps.mean_freq:.6f}")
    print(f"wall clock            {report.wall_clock_s:.1f} s")
    print(f"artifacts             {out_dir}")
    return 0


def _cmd_ablate(args) -> int:
    base = _load_config(args.config)
    if args.steps is not None:
        base = replace(base, steps=args.steps)
    reports = ablate(args.axis, base_seed=_seed(args.seed), base_config=base)
    table = markdown_table(reports)
    print(table, end="")
    if args.axis == "projection":
        print(projection_ordering_note(reports))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = [r.to_dict() for r in reports]
        (out_dir / f"ablate_{args.axis}.json").write_text(json.dumps(payload, indent=2))
        (out_dir / f"ablate_{args.axis}.md").write_text(table)
        print(f"wrote {out_dir}/ablate_{args.axis}.json")
    failures = [r for r in reports if not r.ok]
    if failures:
        print(f"{len(failures)} of {len(reports)} runs failed", file=sys.stderr)
    return 0


def _cmd_heatmap(args) -> int:
    model, step, metrics = load_checkpoint(args.checkpoint)
    cfg = model.config
    if "config" not in metrics:
        raise ValueError(f"checkpoint {args.checkpoint} records no run config to rebuild its test set from")
    run = ExperimentConfig.from_dict(metrics["config"])
    # the run's own test set: _draw draws every image before every query,
    # so a shorter n_test would keep the images but change the questions
    _, test_set = gen_dataset(run.seed, n_train=1, n_test=run.n_test, channels=run.channels)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = drop_heatmap(model, test_set, encoder_seed=run.seed, n_samples=args.samples)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    expected = expected_mean_freq(cfg.gamma, cfg.n_rows)
    print(f"checkpoint step {step}  metrics { {k: v for k, v in metrics.items() if k != 'config'} }")
    print(f"mean keep frequency {report.mean_freq:.12f} (expected {expected:.12f})")
    if report.queried_top_decile_rate is not None:
        print(f"queried cell in top decile on {report.queried_top_decile_rate:.1%} of samples")
    for scale, grid in report.freq.items():
        print(f"scale {scale}: grid {grid.shape[0]}x{grid.shape[1]}, max {grid.max():.4f}, min {grid.min():.4f}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report.write_csvs(out_dir)
        (out_dir / "heatmap.json").write_text(json.dumps(report.to_dict(), indent=2))
        print(f"wrote {out_dir}")
    return 0


def _cmd_dump_prompt(args) -> int:
    if args.channels < 1:
        raise ValueError(f"--channels must be at least 1, got {args.channels}")
    if args.d_in < args.channels:
        raise ValueError(f"--d-in must be at least --channels ({args.channels}), got {args.d_in}")
    seed = _seed(args.seed)
    rng = np.random.default_rng(seed)
    image = np.eye(args.channels)[rng.integers(0, args.channels, size=(16, 16))]
    patches, cls = synthetic_encoder(image, args.d_in, seed)
    features = pool_scales(patches.reshape(GRID, GRID, -1), args.scales, args.pool)
    layout = scale_layout(args.scales)
    print(f"seed {seed}: {len(features)} rows over scales {tuple(layout)}, pool {args.pool}")
    for scale, rows in layout.items():
        norms = np.linalg.norm(features[rows], axis=1)
        print(f"  scale {scale}: rows {rows.start}..{rows.stop - 1}, |row| mean {norms.mean():.3f} max {norms.max():.3f}")
    print(f"  cls |row| {np.linalg.norm(cls):.3f}")
    if args.out:
        save_prompt(args.out, features, args.scales, args.pool)
        print(f"wrote {args.out} (+ .json sidecar)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuselab",
        description="Train and dissect parameter-free visual fusion in a frozen toy decoder.",
        epilog=f"Set {ENV_SEED} to override the seed a config file would supply.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flops", help="exact complexity of both attention kernels")
    p.add_argument("--L", type=int, required=True, help="text rows")
    p.add_argument("--N", type=int, required=True, help="visual rows")
    p.add_argument("--d", type=int, required=True, help="model width")
    p.add_argument("--json", action="store_true", help="emit JSON instead of the table")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("gradcheck", help="loss_and_grads vs central differences on tiny models")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("train", help="one full training run with artifacts")
    p.add_argument("--config", help="JSON config file (defaults used when omitted)")
    p.add_argument("--out", help="artifact directory (default runs/train-seed<seed>)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("ablate", help="sweep one configuration axis")
    p.add_argument("--axis", required=True, choices=list(ABLATION_AXES))
    p.add_argument("--config", help="base JSON config for every run in the sweep")
    p.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed+i")
    p.add_argument("--steps", type=int, help="override training steps for quick sweeps")
    p.add_argument("--out", help="directory for the JSON/Markdown reports")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("heatmap", help="drop-frequency grids from a checkpoint")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--out", help="directory for CSV/JSON grids")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("dump-prompt", help="build and describe one visual prompt")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--d-in", type=int, default=32, dest="d_in")
    p.add_argument("--scales", type=int, nargs="+", default=[1, 2])
    p.add_argument("--pool", default="avg", choices=["avg", "max"])
    p.add_argument("--out", help="write the features + metadata sidecar here")
    p.set_defaults(func=_cmd_dump_prompt)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ShapeError, RuntimeError, OSError, KeyError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc), "command": args.command}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
