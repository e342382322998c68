"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Every check prints `[PASS]`/`[FAIL]` with its measured numbers (run pytest
with -s to see the lines as they happen).  The slow checks — a full
training run for the fused model and for its text-only control — share
module-scoped fixtures, so the whole gate costs roughly two training runs
plus a few seconds of numerics.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fuselab.experiment import (
    ExperimentConfig,
    _run,
    ablate,
    expected_mean_freq,
    gradcheck_report,
    projection_ordering_note,
    rerun,
)
from fuselab.flops import flops
from fuselab.fusion import (
    StandardXAttnParams,
    adaptive_mask,
    drop_count,
    param_free_xattn,
    standard_xattn,
)
from fuselab.model import DecoderModel, ModelConfig


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- oracles


def _scalar_param_free(x_text, x_vis):
    """Brute-force scalar loops: out[i] = sum_j (x_text[i].x_vis[j]) x_vis[j]."""
    n_text, d = x_text.shape
    n_vis = x_vis.shape[0]
    out = np.zeros((n_text, d))
    for i in range(n_text):
        for j in range(n_vis):
            s = 0.0
            for c in range(d):
                s += float(x_text[i, c]) * float(x_vis[j, c])
            for c in range(d):
                out[i, c] += s * float(x_vis[j, c])
    return out


def _scalar_matmul(a, b):
    n, k = a.shape
    m = b.shape[1]
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for c in range(k):
                s += float(a[i, c]) * float(b[c, j])
            out[i, j] = s
    return out


def _scalar_standard(x_text, x_vis, p):
    q = _scalar_matmul(x_text, p.w_q)
    k = _scalar_matmul(x_vis, p.w_k)
    v = _scalar_matmul(x_vis, p.w_v)
    logits = _scalar_matmul(q, k.T) / math.sqrt(p.d_k)
    weights = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        row_max = max(float(x) for x in logits[i])
        exps = [math.exp(float(x) - row_max) for x in logits[i]]
        total = sum(exps)
        weights[i] = [e / total for e in exps]
    return _scalar_matmul(_scalar_matmul(weights, v), p.w_o.T)


def test_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    worst_free = worst_std = 0.0
    for _ in range(50):
        n_text = int(rng.integers(1, 17))
        n_vis = int(rng.integers(1, 33))
        d = int(rng.integers(1, 9))
        x_text = rng.normal(size=(n_text, d))
        x_vis = rng.normal(size=(n_vis, d))
        out, _, _ = param_free_xattn(x_text, x_vis, phi="identity", gamma=0.0)
        worst_free = max(worst_free, float(np.abs(out - _scalar_param_free(x_text, x_vis)).max()))
        p = StandardXAttnParams.random(rng, d)
        got = standard_xattn(x_text, x_vis, p)
        worst_std = max(worst_std, float(np.abs(got - _scalar_standard(x_text, x_vis, p)).max()))
    elapsed = time.perf_counter() - t0
    _verdict(
        "oracle equivalence",
        worst_free <= 1e-12 and worst_std <= 1e-10 and elapsed < 5.0,
        f"param-free max |diff| {worst_free:.2e} (<=1e-12), "
        f"standard max |diff| {worst_std:.2e} (<=1e-10), {elapsed:.2f}s (<5s), 50 instances",
    )


# ---------------------------------------------------------------- gradients


def test_gradient_suite():
    t0 = time.perf_counter()
    result = gradcheck_report(seed=0, trials=20)
    elapsed = time.perf_counter() - t0
    gammas = {row["gamma"] for row in result["trials"]}
    _verdict(
        "gradient suite",
        result["ok"] and result["max_rel_err"] <= 1e-4 and {0.0, 0.2} <= gammas and elapsed < 30.0,
        f"max rel err {result['max_rel_err']:.2e} (<=1e-4) over {len(result['trials'])} instances, "
        f"gammas {sorted(gammas)}, {elapsed:.2f}s (<30s)",
    )


# ---------------------------------------------------------------- masking


def test_mask_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    mask_cases = kernel_cases = 0
    for gamma in (0.0, 0.1, 0.2, 0.5 - 1e-9):
        for trial in range(6):
            n_rows = 64 if trial == 0 else int(rng.integers(1, 65))
            n_cols = 336 if trial == 0 else int(rng.integers(1, 337))
            scores = rng.normal(size=(n_rows, n_cols))
            if trial % 2:  # quantize to force score ties
                scores = np.round(scores * 2.0) / 2.0
            k = math.floor(gamma * n_cols)
            mask = adaptive_mask(scores, gamma)
            assert np.all(np.count_nonzero(mask == 0.0, axis=1) == k)
            for i in range(n_rows):
                zeroed = np.flatnonzero(mask[i] == 0.0).tolist()
                smallest = sorted(range(n_cols), key=lambda j: (scores[i, j], j))[:k]
                assert zeroed == sorted(smallest), f"row {i}, gamma {gamma}"
            mask_cases += 1
        # the full kernel must mix exactly what an independent zeroing keeps
        n_vis = int(rng.integers(2, 48))
        x_text = rng.normal(size=(6, 8))
        x_vis = rng.normal(size=(n_vis, 8))
        out, scores, _ = param_free_xattn(x_text, x_vis, "silu", gamma)
        k = math.floor(gamma * n_vis)
        zeroed_scores = scores.copy()
        for i in range(scores.shape[0]):
            drop = sorted(range(n_vis), key=lambda j: (scores[i, j], j))[:k]
            zeroed_scores[i, drop] = 0.0
        assert np.array_equal(out, zeroed_scores @ x_vis), f"kernel vs manual zeroing, gamma {gamma}"
        kernel_cases += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "mask properties",
        elapsed < 5.0,
        f"{mask_cases} mask cases (cardinality + sorted-tie agreement) and "
        f"{kernel_cases} kernel-vs-manual-zeroing cases, all exact, {elapsed:.2f}s (<5s)",
    )


# ---------------------------------------------------------------- flops


def test_flops_model():
    report = flops(256, 320, 4096)
    rng = np.random.default_rng(11)
    savings_ok = True
    for _ in range(100):
        L, N, d = (int(rng.integers(1, 2048)) for _ in range(3))
        f = flops(L, N, d)
        if f.savings != 2 * L * d * d + 2 * N * d * d:
            savings_ok = False
            break
    _verdict(
        "flops model",
        report.flops_standard == 19_998_441_472 and report.flops_param_free == 671_088_640 and savings_ok,
        f"standard {report.flops_standard:,} param-free {report.flops_param_free:,} "
        f"(exact), savings == 2Ld^2+2Nd^2 on 100 random dims",
    )


# ---------------------------------------------------------------- nullity


def test_initialization_nullity():
    cfg = ModelConfig(b_scale=0.0, pos_scale=0.0, seed=5)
    fused = DecoderModel.build(cfg)
    silent = DecoderModel.build(replace(cfg, alpha=0.0))
    ours, theirs = ({**m.base_tensors(), **m.trainable_tensors()} for m in (fused, silent))
    assert all(ours[n].tobytes() == theirs[n].tobytes() for n in ours), "alpha must draw nothing at init"
    rng = np.random.default_rng(17)
    identical = 0
    for _ in range(10):
        batch = int(rng.integers(1, 5))
        tokens = rng.integers(0, cfg.vocab_size, size=(batch, 3))
        feats = rng.normal(size=(batch, cfg.n_rows, cfg.d_in))
        cls_raw = rng.normal(size=(batch, 1, cfg.d_in))
        a = fused.forward(tokens, feats, cls_raw)
        b = silent.forward(tokens, feats, cls_raw)
        identical += a.tobytes() == b.tobytes()
    _verdict(
        "initialization nullity",
        identical == 10,
        f"{identical}/10 random batches bit-exact against the fusion-free baseline",
    )


# ---------------------------------------------------------------- end-to-end


@pytest.fixture(scope="module")
def fused_run():
    return _run(ExperimentConfig(), "fused", 256)


@pytest.fixture(scope="module")
def text_only_run():
    return _run(replace(ExperimentConfig(), alpha=0.0), "text-only", 64)


@pytest.mark.slow
def test_end_to_end_learning_signal(fused_run, text_only_run):
    fused, _ = fused_run
    text_only, _ = text_only_run
    chance = 1.0 / 8.0
    ok = (
        fused.final_accuracy >= 0.90
        and text_only.final_accuracy <= chance + 0.05
        and fused.wall_clock_s < 600.0
        and text_only.wall_clock_s < 600.0
    )
    _verdict(
        "end-to-end learning signal",
        ok,
        f"fused {fused.final_accuracy:.4f} (>=0.90) in {fused.wall_clock_s:.0f}s, "
        f"text-only {text_only.final_accuracy:.4f} (<= {chance + 0.05:.3f}) "
        f"in {text_only.wall_clock_s:.0f}s, 2000 steps each (<600s each)",
    )


# ---------------------------------------------------------------- sweeps


@pytest.mark.slow
def test_ablation_structure():
    base = ExperimentConfig(
        d_model=32, d_in=16, rank=4, n_train=512, n_test=128, steps=60, batch_size=32
    )
    expected_sizes = {"placement": 6, "projection": 6, "pooling": 8}
    sizes = {}
    reproduced = 0
    total = 0
    note = ""
    for axis, want in expected_sizes.items():
        reports = ablate(axis, base_seed=0, base_config=base, heatmap_samples=32)
        sizes[axis] = len(reports)
        if axis == "projection":
            note = projection_ordering_note(reports)
            print(note)
        for report in reports:
            total += 1
            again = rerun(report)
            if again.final_accuracy == report.final_accuracy and np.array_equal(
                again.losses, report.losses
            ):
                reproduced += 1
    _verdict(
        "ablation structure",
        sizes == expected_sizes and reproduced == total,
        f"report counts {sizes}, {reproduced}/{total} reproduced exactly from embedded "
        f"config+seed; ordering logged: {note!r}",
    )


# ---------------------------------------------------------------- heatmaps


@pytest.mark.slow
def test_heatmap_conservation(fused_run):
    report, _ = fused_run
    hm = report.heatmaps
    expected = expected_mean_freq(0.2, 320)
    conservation = abs(hm.mean_freq - expected)
    rate = hm.queried_top_decile_rate
    _verdict(
        "heatmap conservation",
        conservation <= 1e-12 and rate is not None and rate >= 0.80,
        f"mean kept-frequency {hm.mean_freq:.12f} vs {expected:.12f} "
        f"(|diff| {conservation:.1e} <= 1e-12), queried cell top-decile on "
        f"{rate:.1%} of samples (>=80%)",
    )
