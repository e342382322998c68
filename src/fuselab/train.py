"""Trainer for the fusion branch: SGD with fixed momentum under a cosine schedule.

Only the fusion tensors move; the base LM stays frozen by construction
because the update loop iterates over the model's trainable set alone.

With two usable CPUs, a training step splits its batch's tiles
(DecoderModel.tiles) in two contiguous halves.  The main process takes
the first ceil(n/2) tiles; the rest go to one helper process, a
fork-context multiprocessing.Process that `train_model` starts when it
begins and joins when it returns or raises.  The helper inherits the
frozen base and the dataset through the fork.  Over one
multiprocessing.Pipe, each step sends it the trainable tensors, its
samples' indices and its tiles; it encodes only its own samples and
replies with its error, or None, and one (loss, grads) share per tile.
The main process adds its own shares and then the helper's, in tile
order (add_shares, as loss_and_grads does), so losses and trained
tensors do not depend on whether the helper runs.  Separate processes,
unlike threads, do not share an interpreter lock.  The split stops at
two processes: only two CPUs have been measured.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .data import GridVqaDataset, encode_batch, question_tokens, vocab_size
from .model import DecoderModel, add_shares
from .prompt import GRID, expected_cls, pool_scales

BASE_LR = 9e-3
MOMENTUM = 0.9
KEY_GAIN = 0.5


def align_visual_keys(model: DecoderModel, *, channels: int, encoder_seed: int | None = None, gain: float = KEY_GAIN) -> DecoderModel:
    """Rewrite the visual rows so their keys mirror the model's own query states.

    The frozen base maps every possible question to fixed query vectors at
    the question positions.  Writing those vectors -- centered per
    position, summed, pooled to each scale's grid, and scaled by `gain` --
    into the visual rows makes the match scores selective for the queried
    cell (and its row) at every question position from the first step,
    giving the optimizer a coherent signal instead of the sign-symmetric
    scores a random initialization produces.  Label-free: reads only
    frozen weights and encoder constants, never an image or an answer.
    """
    cfg = model.config
    if encoder_seed is None:
        encoder_seed = cfg.seed
    if vocab_size(channels) != cfg.vocab_size:
        raise ValueError(
            f"{channels} colors imply vocab {vocab_size(channels)}, model has {cfg.vocab_size}"
        )
    rows, cols = np.divmod(np.arange(GRID * GRID), GRID)
    tokens = question_tokens(rows, cols, channels)
    cls_raw = np.repeat(expected_cls(channels, cfg.d_in, encoder_seed)[None], GRID * GRID, axis=0)
    tap = model.query_tap(tokens, cls_raw)
    question_taps = tap[:, 1:, :]  # both question positions, cls position excluded
    centered = (question_taps - question_taps.mean(axis=0, keepdims=True)).sum(axis=1)
    model.fusion.pos_embed[:] = gain * pool_scales(centered.reshape(GRID, GRID, -1), cfg.scales, "avg")
    return model


class TrainingDiverged(RuntimeError):
    """Loss left the reals; carries the step and value for diagnosis."""


def cosine_lr(step: int, total_steps: int, base_lr: float = BASE_LR) -> float:
    """base_lr at step 0, half at the midpoint, zero at total_steps."""
    if total_steps <= 0:
        raise ValueError(f"total_steps must be positive, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))


@dataclass
class TrainResult:
    losses: np.ndarray  # per-step training loss
    final_accuracy: float
    steps: int
    wall_clock_s: float
    lr_curve: np.ndarray = field(default_factory=lambda: np.zeros(0))


def evaluate(
    model: DecoderModel,
    dataset: GridVqaDataset,
    *,
    encoder_seed: int,
    batch_size: int = 256,
) -> float:
    """Greedy accuracy at the answer position over the whole dataset."""
    cfg = model.config
    hits = 0
    for start in range(0, len(dataset), batch_size):
        idx = np.arange(start, min(start + batch_size, len(dataset)))
        tokens, feats, cls_raw, answers = encode_batch(
            dataset, idx, cfg.d_in, encoder_seed, scales=cfg.scales, pool=cfg.pool
        )
        hits += int(np.sum(model.predict(tokens, feats, cls_raw) == answers))
        del feats, cls_raw  # free this batch before the next is encoded
    return hits / len(dataset)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot fork or say."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _serve(model: DecoderModel, dataset: GridVqaDataset, encoder_seed: int, count: int, conn, main_end) -> None:
    """The helper's loop: load the tensors, encode the samples, reply with every tile's share; ends at EOF."""
    main_end.close()  # inherited through the fork; while open here, this loop would never see EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the main process, and its exit ends this loop
    cfg, trainable = model.config, model.trainable_tensors()
    while True:
        try:
            tensors, idx, tiles = conn.recv()
        except EOFError:
            return
        try:
            for name, t in tensors.items():
                trainable[name][...] = t
            batch = encode_batch(dataset, idx, cfg.d_in, encoder_seed, scales=cfg.scales, pool=cfg.pool)
            reply = None, list(model.tile_shares(*batch, tiles, count))
        except Exception as exc:  # noqa: BLE001 -- re-raised in the main process
            reply = exc, []
        try:
            conn.send(reply)
        except OSError:  # the main process closed its end: it has stopped
            return


def train_model(
    model: DecoderModel,
    train_set: GridVqaDataset,
    test_set: GridVqaDataset | None,
    *,
    steps: int = 2000,
    batch_size: int = 64,
    seed: int = 0,
    encoder_seed: int | None = None,
    base_lr: float = BASE_LR,
) -> TrainResult:
    """Optimize the fusion tensors in place; returns the loss trajectory.

    Batches are sampled with replacement from a dedicated generator, so
    the run is a pure function of (model state, dataset, seed), with or
    without the helper process (module docstring).  A non-finite loss
    aborts immediately rather than training onward from poisoned
    parameters.
    """
    t0 = time.perf_counter()
    cfg = model.config
    if encoder_seed is None:
        encoder_seed = cfg.seed
    batch_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB47C)))
    trainable = model.trainable_tensors()
    velocity = {name: np.zeros_like(t) for name, t in trainable.items()}
    losses = np.zeros(steps)
    lrs = np.zeros(steps)
    tiles = model.tiles(batch_size)
    # fork copies only the calling thread, so a lock another Python thread holds would stay held
    # in the helper.  active_count sees Python threads only; NumPy's OpenBLAS stops its worker
    # threads in its own pthread_atfork handler and starts them again on its next call.
    forkable = _usable_cpus() >= 2 and threading.active_count() == 1
    split = -(-len(tiles) // 2) if forkable else len(tiles)  # -(-a // b) is ceil(a / b)
    own, rest = tiles[:split], tiles[split:]
    cut = own[-1].stop  # the main process encodes samples [0, cut), the helper the rest
    helper = None
    if rest:
        conn, helper_end = multiprocessing.Pipe()
        helper = multiprocessing.get_context("fork").Process(
            target=_serve, args=(model, train_set, encoder_seed, batch_size, helper_end, conn)
        )
        helper.start()
        helper_end.close()
        helper_tiles = [slice(t.start - cut, t.stop - cut) for t in rest]
    try:
        for step in range(steps):
            idx = batch_rng.integers(0, len(train_set), size=batch_size)
            if helper is not None:
                conn.send((trainable, idx[cut:], helper_tiles))
            tokens, feats, cls_raw, answers = encode_batch(
                train_set, idx[:cut], cfg.d_in, encoder_seed, scales=cfg.scales, pool=cfg.pool
            )
            loss, grads = add_shares(model.tile_shares(tokens, feats, cls_raw, answers, own, batch_size))
            if helper is not None:
                try:
                    error, shares = conn.recv()
                except (EOFError, ConnectionResetError):
                    raise RuntimeError(f"training helper {helper.pid} exited mid-step") from None
                if error is not None:
                    raise error
                loss, grads = add_shares([(loss, grads), *shares])
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became {loss} at step {step} (lr {cosine_lr(step, steps, base_lr):.3e}); "
                    "try a smaller learning rate or pos_scale"
                )
            lr = cosine_lr(step, steps, base_lr)
            for name, grad in grads.items():
                velocity[name] *= MOMENTUM
                velocity[name] -= lr * grad
                trainable[name] += velocity[name]
            losses[step] = loss
            lrs[step] = lr
            del feats, cls_raw  # free this batch before the next is encoded
    finally:
        if helper is not None:
            conn.close()  # the helper reads EOF and returns
            helper.join()
            helper.close()
    accuracy = (
        evaluate(model, test_set, encoder_seed=encoder_seed) if test_set is not None else float("nan")
    )
    return TrainResult(
        losses=losses,
        final_accuracy=accuracy,
        steps=steps,
        wall_clock_s=time.perf_counter() - t0,
        lr_curve=lrs,
    )
