"""Tests for the fusion trainer: schedule, determinism, frozen base, helper processes."""

import multiprocessing
import os
import platform
import resource
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fuselab import experiment as experiment_module
from fuselab import model as model_module
from fuselab import train as train_module
from fuselab.data import GridVqaDataset, encode_batch, gen_dataset
from fuselab.experiment import ExperimentConfig, drop_heatmap
from fuselab.model import LEGAL_PLACEMENTS, DecoderModel, ModelConfig
from fuselab.train import (
    BASE_LR,
    TrainingDiverged,
    align_visual_keys,
    cosine_lr,
    evaluate,
    train_model,
)

from .oracles import FullPathModel


def small_config(**overrides):
    base = dict(
        n_blocks=1,
        d_model=16,
        d_in=8,
        rank=2,
        vocab_size=40,
        max_seq=4,
        scales=(4,),
        seed=1,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def small_data():
    return gen_dataset(0, n_train=64, n_test=32)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 1000) == BASE_LR
        assert cosine_lr(500, 1000) == pytest.approx(BASE_LR / 2, rel=1e-12)
        assert cosine_lr(1000, 1000) == pytest.approx(0.0, abs=1e-18)

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 100) for s in range(101)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_custom_base(self):
        assert cosine_lr(0, 10, base_lr=0.5) == 0.5

    @pytest.mark.parametrize("step,total", [(-1, 100), (101, 100), (5, 0), (5, -2)])
    def test_rejects_bad_arguments(self, step, total):
        with pytest.raises(ValueError):
            cosine_lr(step, total)


class TestTrainLoop:
    def test_records_losses_and_lr_curve(self, small_data):
        train_set, test_set = small_data
        model = DecoderModel.build(small_config())
        result = train_model(model, train_set, test_set, steps=12, batch_size=8, seed=0)
        assert result.losses.shape == (12,)
        assert np.all(np.isfinite(result.losses))
        assert result.wall_clock_s > 0
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_no_test_set_skips_eval(self, small_data):
        train_set, _ = small_data
        model = DecoderModel.build(small_config())
        result = train_model(model, train_set, None, steps=3, batch_size=4, seed=0)
        assert np.isnan(result.final_accuracy)

    def test_deterministic_given_seed(self, small_data):
        train_set, _ = small_data
        runs = []
        for _ in range(2):
            model = DecoderModel.build(small_config())
            result = train_model(model, train_set, None, steps=10, batch_size=8, seed=7)
            runs.append((result.losses, model.fusion.b_feat.copy()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_batch_seed_changes_trajectory(self, small_data):
        train_set, _ = small_data
        losses = []
        for seed in (0, 1):
            model = DecoderModel.build(small_config())
            result = train_model(model, train_set, None, steps=10, batch_size=8, seed=seed)
            losses.append(result.losses)
        assert not np.array_equal(losses[0], losses[1])

    def test_base_stays_frozen_fusion_moves(self, small_data):
        train_set, _ = small_data
        model = DecoderModel.build(small_config())
        base_before = {k: v.copy() for k, v in model.base_tensors().items()}
        fusion_before = {k: v.copy() for k, v in model.trainable_tensors().items()}
        train_model(model, train_set, None, steps=25, batch_size=8, seed=0)
        for name, before in base_before.items():
            np.testing.assert_array_equal(model.base_tensors()[name], before, err_msg=name)
        moved = [
            name
            for name, before in fusion_before.items()
            if not np.array_equal(model.trainable_tensors()[name], before)
        ]
        assert "b_feat" in moved and "pos_embed" in moved

    def test_divergence_aborts_with_context(self, small_data):
        train_set, _ = small_data
        model = DecoderModel.build(small_config())
        model.fusion.pos_embed[:] = 1e200  # overflow on the first forward
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="step 0"):
            train_model(model, train_set, None, steps=5, batch_size=4, seed=0)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
    def test_warm_call_faults_no_page_back_in(self, monkeypatch):
        """train_model pins the allocator, so a warm call reuses the heap pages its last call freed.

        One process, at the acceptance gate's small config: without the
        pin, whether glibc returned the heap top between steps hung on
        heap layout, and a call took up to about 18,000 minor faults.
        """
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 1)
        config = ExperimentConfig(d_model=32, d_in=16, rank=4, n_train=512, n_test=128, batch_size=32)
        train_set, _ = gen_dataset(0, n_train=config.n_train, n_test=1)
        model = DecoderModel.build(config.model_config())
        train_model(model, train_set, None, steps=20, batch_size=config.batch_size, seed=0)  # warm
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_model(model, train_set, None, steps=20, batch_size=config.batch_size, seed=0)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

    def test_loss_decreases_over_short_run(self, small_data):
        train_set, _ = small_data
        model = DecoderModel.build(small_config())
        result = train_model(model, train_set, None, steps=150, batch_size=16, seed=0)
        first = float(np.mean(result.losses[:15]))
        last = float(np.mean(result.losses[-15:]))
        assert last < first, (first, last)


class InjectedFailure(Exception):
    """Raised on purpose in one process; importable, so it pickles back from a helper."""


class HelperFixtures:
    """A deadline on each test and a count of the helpers it forks."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """A helper that never exits would hang its reaping; fail the test and kill the helper instead."""

        def expire(signum, frame):
            pytest.fail("test overran its 120 s deadline")  # not an OSError, which Process.join swallows

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        for child in multiprocessing.active_children():  # one left running would hang the interpreter's exit
            child.kill()
            child.join()

    @pytest.fixture()
    def forks(self, monkeypatch):
        """Counts the helpers each call forks: the child pids os.fork returns in this process."""
        made, real_fork = [], os.fork

        def fork():
            pid = real_fork()
            if pid:
                made.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return made


class TestHelperProcesses(HelperFixtures):
    """train_model splits each step's tiles between the main process and, with 2+ CPUs and 2+ tiles, one helper."""

    @staticmethod
    def train(monkeypatch, cpus, steps=3, batch_size=64, **overrides):
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: cpus)
        config = ExperimentConfig(**overrides)
        train_set, test_set = gen_dataset(2, n_train=128, n_test=40)
        model = align_visual_keys(DecoderModel.build(config.model_config()), channels=8)
        result = train_model(model, train_set, test_set, steps=steps, batch_size=batch_size, seed=4)
        return result, {name: t.tobytes() for name, t in model.trainable_tensors().items()}

    @pytest.mark.parametrize("batch_size, overrides", [
        (64, {}),
        (13, {}),  # tiles of 5, 5 and 3 samples
        (64, {"alpha": 0.0}),
        (40, {"phi": "softmax_rows", "placement": ("mhsa_in", "mhsa_out")}),
    ], ids=["default", "uneven-tiles", "text-only", "phi-and-placement"])
    def test_bit_identical_for_any_helper_count(self, batch_size, overrides, monkeypatch, forks):
        runs = []
        for cpus in (1, 2, 3):
            forks.clear()
            runs.append(self.train(monkeypatch, cpus, batch_size=batch_size, **overrides))
            assert len(forks) == min(cpus, 2) - 1  # one helper at most, however many CPUs
        (ref, ref_tensors), *others = runs
        for result, tensors in others:
            assert result.losses.tobytes() == ref.losses.tobytes()
            assert result.final_accuracy == ref.final_accuracy
            assert tensors == ref_tensors

    def test_no_helper_for_one_tile(self, monkeypatch, forks):
        self.train(monkeypatch, cpus=2, batch_size=6)
        assert forks == []

    def test_no_helper_while_another_thread_runs(self, monkeypatch, forks):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            threaded = self.train(monkeypatch, cpus=2, batch_size=13)
        finally:
            release.set()
            other.join(timeout=10)
        assert forks == [] and not other.is_alive()
        alone = self.train(monkeypatch, cpus=2, batch_size=13)
        assert len(forks) == 1
        assert threaded[0].losses.tobytes() == alone[0].losses.tobytes() and threaded[1] == alone[1]

    def test_helpers_reaped_after_return(self, monkeypatch, forks):
        self.train(monkeypatch, cpus=3, steps=1)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helpers_reaped_after_divergence(self, monkeypatch, forks):
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 2)
        train_set, _ = gen_dataset(0, n_train=64, n_test=1)
        model = DecoderModel.build(ModelConfig())
        model.fusion.pos_embed[:] = 1e200  # overflow on the first forward, in both processes
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="step 0"):
            train_model(model, train_set, None, steps=3, batch_size=13, seed=0)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("where", ["helper", "main"])
    def test_exception_in_one_process_reaches_the_caller(self, where, monkeypatch, forks, capfd):
        """An exception in the helper is re-raised in the main process; one in the main process ends the helper quietly."""
        main_pid, real = os.getpid(), train_module.encode_batch

        def encode_batch(*args, **kwargs):
            if (os.getpid() == main_pid) == (where == "main"):
                raise InjectedFailure(f"raised in the {where} process")
            return real(*args, **kwargs)

        monkeypatch.setattr(train_module, "encode_batch", encode_batch)
        with pytest.raises(InjectedFailure, match=f"in the {where} process"):
            self.train(monkeypatch, cpus=2, steps=2)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert "Traceback" not in capfd.readouterr().err  # the helper's reply to a closed pipe is not an error

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the thread count from /proc")
    def test_fork_sees_no_other_os_thread(self, monkeypatch, forks):
        """BLAS worker threads included: the process that forks runs one OS thread at that moment."""
        real_fork, counts = os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                with open("/proc/self/status") as status:
                    counts.extend(int(line.split()[1]) for line in status if line.startswith("Threads:"))
            return pid

        np.ones((300, 300)) @ np.ones((300, 300))  # start the BLAS pool, if it has threads
        monkeypatch.setattr(os, "fork", fork)
        self.train(monkeypatch, cpus=2, steps=1)
        assert len(forks) == 1 and counts == [1]

    def test_helper_death_mid_step_is_a_runtime_error(self, monkeypatch, forks):
        main_pid, real = os.getpid(), train_module.encode_batch

        def encode_batch(*args, **kwargs):
            if os.getpid() != main_pid:
                os._exit(3)
            return real(*args, **kwargs)

        monkeypatch.setattr(train_module, "encode_batch", encode_batch)
        with pytest.raises(RuntimeError, match=r"helper process \d+ exited mid-call") as raised:
            self.train(monkeypatch, cpus=2, steps=2)
        assert forks and str(raised.value) == f"helper process {forks[0]} exited mid-call"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors from /proc")
    def test_no_descriptor_left_open(self, monkeypatch, forks):
        """After a return, and after a raise in the main process while the helper still works."""
        before = sorted(os.listdir("/proc/self/fd"))
        self.train(monkeypatch, cpus=2, steps=1)
        assert sorted(os.listdir("/proc/self/fd")) == before
        main_pid, real = os.getpid(), train_module.encode_batch

        def encode_batch(*args, **kwargs):
            if os.getpid() == main_pid:
                raise InjectedFailure("raised in the main process")
            return real(*args, **kwargs)

        monkeypatch.setattr(train_module, "encode_batch", encode_batch)
        with pytest.raises(InjectedFailure) as raised:
            self.train(monkeypatch, cpus=2, steps=1)
        # raised holds the traceback, so train_model's locals stay alive: only what it closed is closed
        assert isinstance(raised.value, InjectedFailure) and sorted(os.listdir("/proc/self/fd")) == before
        assert len(forks) == 2

    def test_importing_the_cli_does_not_import_multiprocessing(self):
        """Only a train_model call that starts the helper imports it."""
        src = Path(train_module.__file__).parents[1]
        code = f"import sys; sys.path.insert(0, {str(src)!r}); import fuselab.cli; print('multiprocessing' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
        assert run.stdout.strip() == "False"

    def test_closing_the_main_end_ends_the_helper(self):
        """Closing the main end, as the main process's death does, ends the helper with exit code 0."""
        train_set, _ = gen_dataset(0, n_train=8, n_test=1)
        model = DecoderModel.build(ModelConfig())
        conn, helper_end = multiprocessing.Pipe()
        helper = multiprocessing.get_context("fork").Process(
            target=train_module._serve, args=((model, train_set), helper_end, conn)
        )
        helper.start()
        helper_end.close()
        conn.close()
        helper.join(timeout=60)
        assert not helper.is_alive() and helper.exitcode == 0
        helper.close()


class TestSplitForwardPasses(HelperFixtures):
    """evaluate and drop_heatmap split their batches between the main process and, with 2+ CPUs and 2+ batches, one helper."""

    @pytest.fixture(scope="class")
    def models(self):
        """An aligned default model, a text-only one, and a 1024-sample test set."""
        config = ExperimentConfig()
        _, test_set = gen_dataset(3, n_train=1, n_test=1024)
        fused = align_visual_keys(DecoderModel.build(config.model_config()), channels=8)
        text_only = DecoderModel.build(ExperimentConfig(alpha=0.0).model_config())
        return fused, text_only, test_set

    @staticmethod
    def heatmap(model, test_set, n_samples=256, batch_size=128):
        report = drop_heatmap(model, test_set, n_samples=n_samples, batch_size=batch_size)
        return report.to_dict(), {scale: grid.tobytes() for scale, grid in report.counts.items()}

    @pytest.mark.parametrize("n_samples", [1024, 1000], ids=["even", "uneven-last-batch"])
    def test_evaluate_bit_identical_for_any_cpu_count(self, n_samples, models, monkeypatch, forks):
        fused, _, test_set = models
        subset = GridVqaDataset(test_set.images[:n_samples], test_set.queries[:n_samples],
                                test_set.answers[:n_samples], test_set.channels)
        accuracies = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(train_module, "_usable_cpus", lambda: cpus)
            forks.clear()
            accuracies.append(evaluate(fused, subset, encoder_seed=0, batch_size=256))
            assert len(forks) == min(cpus, 2) - 1  # one helper at most, however many CPUs
        assert accuracies[1:] == accuracies[:1] * 2

    @pytest.mark.parametrize("which", [0, 1], ids=["fused", "text-only"])
    def test_drop_heatmap_bit_identical_for_any_cpu_count(self, which, models, monkeypatch, forks):
        model, test_set = models[which], models[2]
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(train_module, "_usable_cpus", lambda: cpus)
            forks.clear()
            reports.append(self.heatmap(model, test_set))
            assert len(forks) == min(cpus, 2) - 1
        assert reports[1:] == reports[:1] * 2

    def test_no_helper_for_one_batch(self, models, monkeypatch, forks):
        fused, _, test_set = models
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 2)
        self.heatmap(fused, test_set, n_samples=128)
        evaluate(fused, GridVqaDataset(test_set.images[:256], test_set.queries[:256], test_set.answers[:256],
                                       test_set.channels), encoder_seed=0, batch_size=256)
        assert forks == []

    def test_no_helper_while_another_thread_runs(self, models, monkeypatch, forks):
        fused, _, test_set = models
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            threaded = self.heatmap(fused, test_set)
        finally:
            release.set()
            other.join(timeout=10)
        assert forks == [] and not other.is_alive()
        assert self.heatmap(fused, test_set) == threaded and len(forks) == 1

    def test_exception_in_the_helper_reaches_the_caller(self, models, monkeypatch, forks):
        fused, _, test_set = models
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 2)
        main_pid, real = os.getpid(), train_module.encode_batch

        def encode_batch(*args, **kwargs):
            if os.getpid() != main_pid:
                raise InjectedFailure("raised in the helper process")
            return real(*args, **kwargs)

        monkeypatch.setattr(train_module, "encode_batch", encode_batch)
        with pytest.raises(InjectedFailure, match="in the helper process"):
            evaluate(fused, test_set, encoder_seed=0, batch_size=256)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_helper_death_mid_call_is_a_runtime_error(self, models, monkeypatch, forks):
        fused, _, test_set = models
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 2)
        main_pid, real = os.getpid(), experiment_module.encode_batch

        def encode_batch(*args, **kwargs):
            if os.getpid() != main_pid:
                os._exit(3)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment_module, "encode_batch", encode_batch)
        with pytest.raises(RuntimeError) as raised:
            self.heatmap(fused, test_set)
        assert forks and str(raised.value) == f"helper process {forks[0]} exited mid-call"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors from /proc")
    def test_no_descriptor_left_open(self, models, monkeypatch, forks):
        fused, _, test_set = models
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 2)
        before = sorted(os.listdir("/proc/self/fd"))
        evaluate(fused, test_set, encoder_seed=0, batch_size=256)
        self.heatmap(fused, test_set)
        assert sorted(os.listdir("/proc/self/fd")) == before and len(forks) == 2


class TestEvaluate:
    def test_matches_manual_prediction(self, small_data):
        _, test_set = small_data
        model = DecoderModel.build(small_config())
        cfg = model.config
        tokens, feats, cls_raw, answers = encode_batch(
            test_set, np.arange(len(test_set)), cfg.d_in, cfg.seed, scales=cfg.scales
        )
        expected = float(np.mean(model.predict(tokens, feats, cls_raw) == answers))
        assert evaluate(model, test_set, encoder_seed=cfg.seed) == expected

    def test_batching_does_not_change_result(self, small_data):
        _, test_set = small_data
        model = DecoderModel.build(small_config())
        full = evaluate(model, test_set, encoder_seed=1, batch_size=256)
        chunked = evaluate(model, test_set, encoder_seed=1, batch_size=7)
        assert full == chunked


class TestTextOnly:
    """At alpha = 0 the model skips its visual side; the full path is the reference."""

    @pytest.mark.parametrize("placement", LEGAL_PLACEMENTS, ids="->".join)
    def test_loss_and_grads_match_full_path(self, placement, small_data):
        train_set, _ = small_data
        cfg = small_config(alpha=0.0, n_blocks=2, placement=placement)
        tokens, feats, cls_raw, answers = encode_batch(train_set, np.arange(9), cfg.d_in, cfg.seed, scales=cfg.scales)
        loss, grads = DecoderModel.build(cfg).loss_and_grads(tokens, feats, cls_raw, answers)
        ref_loss, ref_grads = FullPathModel.build(cfg).loss_and_grads(tokens, feats, cls_raw, answers)
        assert loss == ref_loss
        assert list(grads) == list(ref_grads)
        for name, grad in grads.items():
            assert grad.tobytes() == ref_grads[name].tobytes(), name
        for name in ("a_feat", "b_feat", "pos_embed"):
            assert not np.any(grads[name])

    def test_training_matches_full_path(self, small_data):
        """Losses, trained tensors and accuracy, bit for bit."""
        train_set, test_set = small_data
        cfg = small_config(alpha=0.0)
        runs = []
        for cls in (DecoderModel, FullPathModel):
            model = cls.build(cfg)
            align_visual_keys(model, channels=8)
            runs.append((model, train_model(model, train_set, test_set, steps=12, batch_size=8, seed=3)))
        (model, result), (ref_model, ref_result) = runs
        assert result.losses.tobytes() == ref_result.losses.tobytes()
        assert result.final_accuracy == ref_result.final_accuracy
        for name, t in model.trainable_tensors().items():
            assert t.tobytes() == ref_model.trainable_tensors()[name].tobytes(), name

    def test_visual_side_runs_only_for_masks(self, small_data, monkeypatch):
        train_set, _ = small_data
        model = DecoderModel.build(small_config(alpha=0.0))
        cfg = model.config
        tokens, feats, cls_raw, answers = encode_batch(train_set, np.arange(4), cfg.d_in, cfg.seed, scales=cfg.scales)
        calls = []
        real = model_module.visual_values
        monkeypatch.setattr(model_module, "visual_values", lambda *args: calls.append(1) or real(*args))
        model.loss_and_grads(tokens, feats, cls_raw, answers)
        model.forward(tokens, feats, cls_raw)
        assert not calls
        _, masks = model.forward(tokens, feats, cls_raw, want_masks=True)
        assert calls and len(masks) == cfg.n_blocks
        full = FullPathModel.build(cfg).forward(tokens, feats, cls_raw, want_masks=True)[1]
        for mask, ref in zip(masks, full, strict=True):
            assert mask.tobytes() == ref.tobytes()


class StubConnection:
    """The helper's end of the pipe: the given requests, then EOFError; every reply is dropped."""

    def __init__(self, requests):
        self.requests = iter(requests)

    def recv(self):
        try:
            return next(self.requests)
        except StopIteration:
            raise EOFError from None

    def send(self, reply):
        pass

    def close(self):
        pass


class TestBatchMemory:
    """Traced peaks of the batch loops, in units of one batch's (B, N, d_in) prompt array.

    Each loop frees a batch before it encodes the next, and the encoder
    fills its prompt one chunk at a time, so one prompt is alive plus one
    tile's model arrays.  Measured over 4 batches of 64 at the default
    config: evaluate 1.60 and drop_heatmap 1.77.  Holding the previous
    batch while encoding the next, with a whole-batch encoder, read 3.01
    and 3.35.  The training helper also holds one tile's backward arrays
    and its shares until it has sent them: 2.27, against 2.88 when it held
    its previous batch and reply while encoding the next.  The helper's half
    of a forward pass (the last two batches) reads the same as the whole
    pass: 1.59 and 1.77.  tracemalloc sees one process only, so the passes
    run on one CPU here, and the helper's loop (_serve) runs in this
    process on stub pipe ends.
    """

    @pytest.fixture(autouse=True)
    def one_process(self, monkeypatch):
        """One usable CPU, and SIGINT restored after the test, since _serve ignores it."""
        monkeypatch.setattr(train_module, "_usable_cpus", lambda: 1)
        previous = signal.getsignal(signal.SIGINT)
        yield
        signal.signal(signal.SIGINT, previous)

    @staticmethod
    def peak_units(call):
        config = ExperimentConfig()
        model = DecoderModel.build(config.model_config())
        _, test_set = gen_dataset(0, n_train=4, n_test=256)
        call(model, test_set)  # warm: first calls allocate once-only state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call(model, test_set)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (64 * model.config.n_rows * config.d_in * 8)

    @staticmethod
    def serve(requests):
        """A call that runs the helper's loop in this process on requests(model)."""
        return lambda model, data: train_module._serve((model, data), StubConnection(requests(model)), StubConnection([]))

    def test_evaluate(self):
        assert self.peak_units(lambda m, data: evaluate(m, data, encoder_seed=0, batch_size=64)) <= 2.0

    def test_drop_heatmap(self):
        assert self.peak_units(lambda m, data: drop_heatmap(m, data, n_samples=256, batch_size=64)) <= 2.0

    @pytest.mark.parametrize("job", [train_module._hits, experiment_module._heatmap_counts], ids=["hits", "heatmap"])
    def test_forward_helper(self, job):
        """The helper's half of a forward pass: the last two of four batches."""
        rest = [np.arange(start, start + 64) for start in (128, 192)]
        assert self.peak_units(self.serve(lambda model: [(job, (rest, 0))])) <= 2.0

    def test_training_helper(self):
        def requests(model):
            tiles, tensors = model.tiles(64), model.trainable_tensors()
            return [(train_module._step, (tensors, np.arange(start, start + 64), tiles, 64))
                    for start in range(0, 256, 64)]

        assert self.peak_units(self.serve(requests)) <= 2.5


class TestAlignVisualKeys:
    def test_deterministic_and_gain_linear(self):
        a = align_visual_keys(DecoderModel.build(ModelConfig(seed=4)), channels=8, gain=0.5)
        b = align_visual_keys(DecoderModel.build(ModelConfig(seed=4)), channels=8, gain=0.5)
        np.testing.assert_array_equal(a.fusion.pos_embed, b.fusion.pos_embed)
        doubled = align_visual_keys(DecoderModel.build(ModelConfig(seed=4)), channels=8, gain=1.0)
        np.testing.assert_allclose(doubled.fusion.pos_embed, 2.0 * a.fusion.pos_embed, rtol=1e-12)

    def test_rejects_vocab_mismatch(self):
        model = DecoderModel.build(ModelConfig(seed=0))  # vocab 40 == 8 colors
        with pytest.raises(ValueError, match="vocab"):
            align_visual_keys(model, channels=4)

    def test_coarse_rows_pool_fine_rows(self):
        model = align_visual_keys(DecoderModel.build(ModelConfig(seed=2)), channels=8)
        e = model.fusion.pos_embed
        fine = e[:256].reshape(16, 16, -1)
        coarse = e[256:].reshape(8, 8, -1)
        pooled = fine.reshape(8, 2, 8, 2, -1).mean(axis=(1, 3))
        np.testing.assert_allclose(coarse, pooled, rtol=0, atol=1e-12)

    def test_queried_cell_kept_at_answer_position(self):
        model = align_visual_keys(DecoderModel.build(ModelConfig(seed=0)), channels=8)
        _, test_set = gen_dataset(0, n_train=1, n_test=64)
        cfg = model.config
        idx = np.arange(64)
        tokens, feats, cls_raw, _ = encode_batch(test_set, idx, cfg.d_in, cfg.seed, scales=cfg.scales)
        _, masks = model.forward(tokens, feats, cls_raw, want_masks=True)
        cells = test_set.queries[idx]
        flat = cells[:, 0] * 16 + cells[:, 1]
        kept = masks[0][idx, -1, flat]  # block 0, answer position, fine-scale row
        assert kept.mean() >= 0.95
