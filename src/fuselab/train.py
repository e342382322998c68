"""Trainer for the fusion branch: SGD with fixed momentum under a cosine schedule.

Only the fusion tensors move; the base LM stays frozen by construction
because the update loop iterates over the model's trainable set alone.

With two usable CPUs, a training step splits its batch's tiles
(DecoderModel.tiles), and `evaluate` and `experiment.drop_heatmap` their
batches, in two contiguous halves (_halves).  The main process takes the
first ceil(n/2); one helper process (_Helper), forked when the call
begins and joined when it returns or raises, takes the rest.  It
inherits the model and the dataset through the fork, and over one
multiprocessing.Pipe runs each request fn(model, dataset, *args) for a
module-level fn.  A training step sends the trainable tensors and its
samples' indices; the main process adds its own (loss, grads) shares,
then the helper's, in tile order (add_shares, as loss_and_grads does).
Forward passes sum integer counts.  So no output depends on whether the
helper runs.  Processes, unlike threads, do not share an interpreter
lock; only two CPUs have been measured, so the split stops at two.
"""

from __future__ import annotations

import ctypes
import os
import signal
import threading
import time
from contextlib import closing, nullcontext
from dataclasses import dataclass

import numpy as np

from .data import GridVqaDataset, encode_batch, question_tokens, vocab_size
from .model import DecoderModel, add_shares
from .prompt import GRID, expected_cls, pool_scales

BASE_LR = 9e-3
MOMENTUM = 0.9
KEY_GAIN = 0.5


def align_visual_keys(model: DecoderModel, *, channels: int, gain: float = KEY_GAIN) -> DecoderModel:
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
    if vocab_size(channels) != cfg.vocab_size:
        raise ValueError(
            f"{channels} colors imply vocab {vocab_size(channels)}, model has {cfg.vocab_size}"
        )
    rows, cols = np.divmod(np.arange(GRID * GRID), GRID)
    tokens = question_tokens(rows, cols, channels)
    cls_raw = np.repeat(expected_cls(channels, cfg.d_in, cfg.seed)[None], GRID * GRID, axis=0)
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
    wall_clock_s: float


def _hits(model: DecoderModel, dataset: GridVqaDataset, batches, encoder_seed: int) -> tuple[int]:
    """Greedy answers that match, over the given batches of dataset indices."""
    cfg = model.config
    hits = 0
    for idx in batches:
        tokens, feats, cls_raw, answers = encode_batch(dataset, idx, cfg.d_in, encoder_seed, scales=cfg.scales, pool=cfg.pool)
        hits += int(np.sum(model.predict(tokens, feats, cls_raw) == answers))
        del feats, cls_raw  # free this batch before the next is encoded
    return (hits,)


def evaluate(
    model: DecoderModel,
    dataset: GridVqaDataset,
    *,
    encoder_seed: int,
    batch_size: int = 256,
) -> float:
    """Greedy accuracy at the answer position over the whole dataset."""
    (hits,) = _batch_sums(_hits, model, dataset, len(dataset), batch_size, encoder_seed)
    return hits / len(dataset)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot fork or say."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _pin_heap() -> None:
    """Fix glibc's mmap and trim thresholds, for the whole process; a no-op where libc has no mallopt.

    glibc's own thresholds move as large blocks are freed, and it returns
    the heap top whenever no live block pins it, so whether a step
    page-faulted its freed arrays back in hung on unrelated allocations.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD (malloc.h): blocks up to 32 MiB come from the heap
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: up to 256 MiB of free heap top stays mapped


def _shares(model: DecoderModel, dataset: GridVqaDataset, idx, tiles, count: int):
    """Each tile's (loss, grads) share of the samples idx, in order: the step of either process.

    Encodes idx with the model's config and its seed as the encoder seed;
    count is the whole step's batch size (DecoderModel.tile_shares).  The
    batch is freed once the last share has been yielded.
    """
    cfg = model.config
    batch = encode_batch(dataset, idx, cfg.d_in, cfg.seed, scales=cfg.scales, pool=cfg.pool)
    yield from model.tile_shares(*batch, tiles, count)


def _step(model: DecoderModel, dataset: GridVqaDataset, tensors, idx, tiles, count: int) -> list:
    """The helper's training step: load the trainable tensors, then every tile's share of idx."""
    trainable = model.trainable_tensors()
    for name, t in tensors.items():
        trainable[name][...] = t
    return list(_shares(model, dataset, idx, tiles, count))


def _halves(items: list) -> tuple[list, list]:
    """The main process's first ceil(n/2) items and the helper's rest, or all items and none."""
    # fork copies only the calling thread, so a lock another Python thread holds would stay held
    # in the helper.  active_count sees Python threads only; NumPy's OpenBLAS stops its worker
    # threads in its own pthread_atfork handler and starts them again on its next call.
    forkable = _usable_cpus() >= 2 and threading.active_count() == 1
    cut = -(-len(items) // 2) if forkable else len(items)  # -(-a // b) is ceil(a / b)
    return items[:cut], items[cut:]


def _serve(bound: tuple, conn, main_end) -> None:
    """The helper's loop: reply to each request (fn, args) with (error or None, fn(*bound, *args)); ends at EOF."""
    main_end.close()  # inherited through the fork; while open here, this loop would never see EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the main process, and its exit ends this loop
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = None, fn(*bound, *args)
        except Exception as exc:  # noqa: BLE001 -- re-raised in the main process
            reply = exc, None
        try:
            conn.send(reply)
        except OSError:  # the main process closed its end: it has stopped
            return
        del reply  # free the result before the next request is served


class _Helper:
    """One helper process running _serve over `bound`, until `close` joins it."""

    def __init__(self, *bound):
        import multiprocessing  # here, so that a process that never starts the helper never pays for the import

        self.conn, helper_end = multiprocessing.Pipe()
        self.process = multiprocessing.get_context("fork").Process(target=_serve, args=(bound, helper_end, self.conn))
        self.process.start()
        helper_end.close()

    def send(self, fn, *args) -> None:
        self.conn.send((fn, args))

    def recv(self):
        try:
            error, result = self.conn.recv()
        except (EOFError, ConnectionResetError):
            raise RuntimeError(f"helper process {self.process.pid} exited mid-call") from None
        if error is not None:
            raise error
        return result

    def close(self) -> None:
        self.conn.close()  # the helper reads EOF and returns
        self.process.join()
        self.process.close()


def _batch_sums(fn, model: DecoderModel, dataset: GridVqaDataset, n: int, batch_size: int, *args) -> tuple:
    """fn(model, dataset, batches, *args), a tuple of integer sums, over [0, n)'s batches, split (_halves)."""
    batches = [np.arange(start, min(start + batch_size, n)) for start in range(0, n, batch_size)]
    own, rest = _halves(batches)
    if not rest:
        return fn(model, dataset, own, *args)
    with closing(_Helper(model, dataset)) as helper:
        helper.send(fn, rest, *args)
        return tuple(a + b for a, b in zip(fn(model, dataset, own, *args), helper.recv(), strict=True))


def train_model(
    model: DecoderModel,
    train_set: GridVqaDataset,
    test_set: GridVqaDataset | None,
    *,
    steps: int = 2000,
    batch_size: int = 64,
    seed: int = 0,
    base_lr: float = BASE_LR,
) -> TrainResult:
    """Optimize the fusion tensors in place; returns the loss trajectory.

    Batches are sampled with replacement from a dedicated generator and
    encoded with the model config's seed, so the run is a pure function
    of (model state, dataset, seed), with or without the helper process
    (module docstring).  A non-finite loss aborts immediately rather than
    training onward from poisoned parameters.  The call first pins the
    allocator's thresholds (_pin_heap), for the whole process.
    """
    t0 = time.perf_counter()
    _pin_heap()
    batch_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB47C)))
    trainable = model.trainable_tensors()
    velocity = {name: np.zeros_like(t) for name, t in trainable.items()}
    losses = np.zeros(steps)
    tiles = model.tiles(batch_size)
    own, rest = _halves(tiles)
    cut = own[-1].stop  # the main process encodes samples [0, cut), the helper the rest
    helper_tiles = [slice(t.start - cut, t.stop - cut) for t in rest]
    with closing(_Helper(model, train_set)) if rest else nullcontext() as helper:
        for step in range(steps):
            idx = batch_rng.integers(0, len(train_set), size=batch_size)
            if helper is not None:
                helper.send(_step, trainable, idx[cut:], helper_tiles, batch_size)
            loss, grads = add_shares(_shares(model, train_set, idx[:cut], own, batch_size))
            if helper is not None:
                loss, grads = add_shares([(loss, grads), *helper.recv()])
            lr = cosine_lr(step, steps, base_lr)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became {loss} at step {step} (lr {lr:.3e}); try a smaller learning rate or pos_scale"
                )
            for name, grad in grads.items():
                velocity[name] *= MOMENTUM
                velocity[name] -= lr * grad
                trainable[name] += velocity[name]
            losses[step] = loss
    accuracy = evaluate(model, test_set, encoder_seed=model.config.seed) if test_set is not None else float("nan")
    return TrainResult(losses=losses, final_accuracy=accuracy, wall_clock_s=time.perf_counter() - t0)
