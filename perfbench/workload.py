"""One benchmark workload in one process: set up, run timed cycles, check outputs.

    python3 perfbench/workload.py --workload train-default --seed 1 --seconds 30 \
        --trace 0 --out .perfbench_out [--setup-only]

run.py starts this script and measures set-up time from the moment it
started it.  The last line of stdout is one JSON object holding
`setup_end` -- time.perf_counter() when set-up finished, which reads
CLOCK_MONOTONIC and so compares across processes -- and, without
--setup-only, the raw metric values, the op ledger and the environment.

Every workload is a closed loop with one caller: a cycle of fuselab calls
starts when the previous one has returned.  Every call into fuselab goes
through a module attribute (`ftrain.train_model`) so that the tracer's
wrappers, installed by rebinding those attributes, see it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fuselab import data as fdata  # noqa: E402
from fuselab import experiment as fexp  # noqa: E402
from fuselab import model as fmodel  # noqa: E402
from fuselab import train as ftrain  # noqa: E402
from spans import Tracer, span_metric  # noqa: E402

fflops = importlib.import_module("fuselab.flops")  # the package re-exports a function named flops

GRADCHECK_TOL = 1e-4  # the tolerance of fuselab's own gradcheck
FD_STEP = 1e-5
HEATMAP_TOL = 1e-12
SEQ_LEN = 3  # global row + the two question tokens


class Ledger:
    """Ops and correctness checks attempted and failed in this process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, what: str, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"FAILED {what}: {failed} of {attempted}", file=sys.stderr)

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.count(f"{what} ({detail})" if detail else what, 1, 0 if ok else 1)


def last_tenth(losses) -> float:
    """Mean loss over the last tenth of the steps, as fexp.loss_decreased splits them."""
    losses = np.asarray(losses)
    return float(np.mean(losses[-max(1, len(losses) // 10):]))


class TrainDefault:
    """`train_model` at the default config, no test set; each cycle trains STEPS steps from one saved start.

    The model is the default config's (seed 0); --seed draws the training
    set and the batch order.
    """

    STEPS = 50

    def __init__(self, seed: int, ledger: Ledger, out_dir: Path):
        self.ledger = ledger
        self.seed = seed
        self.cfg = cfg = fexp.ExperimentConfig()
        self.batch = cfg.batch_size
        self.train_set, _ = fdata.gen_dataset(seed, cfg.n_train, cfg.n_test, cfg.channels)
        self.model = fmodel.DecoderModel.build(cfg.model_config())
        ftrain.align_visual_keys(self.model, channels=cfg.channels, gain=cfg.key_gain)
        self.model_config = self.model.config
        self.start = {name: t.copy() for name, t in self.model.trainable_tensors().items()}
        self.runs = []
        self._train(1)  # warm-up step

    def _train(self, steps: int):
        for name, tensor in self.model.trainable_tensors().items():
            tensor[...] = self.start[name]
        cfg = self.cfg
        return ftrain.train_model(self.model, self.train_set, None, steps=steps, batch_size=cfg.batch_size,
                                  seed=self.seed, base_lr=cfg.base_lr)

    def cycle(self) -> tuple[int, float, dict]:
        t0 = time.perf_counter()
        result = self._train(self.STEPS)
        wall = time.perf_counter() - t0
        self.ledger.count("training steps with a finite loss", self.STEPS, int(np.sum(~np.isfinite(result.losses))))
        self.runs.append(result.losses)
        samples = self.STEPS * self.batch
        return samples, wall, {"train_samples_per_s": samples / wall}

    def finish(self) -> float:
        first = self.runs[0]
        self.ledger.check("every training cycle repeats the first bit for bit",
                          all(np.array_equal(first, losses) for losses in self.runs))
        self._gradient_check()
        return last_tenth(first)

    def _gradient_check(self, n_samples: int = 8, coords_per_tensor: int = 3) -> None:
        """Analytic gradients against central differences at a few coordinates of
        each trainable tensor: its largest-magnitude entry plus random ones."""
        cfg, model = self.cfg, self.model
        for name, tensor in model.trainable_tensors().items():
            tensor[...] = self.start[name]
        batch = fdata.encode_batch(self.train_set, np.arange(n_samples), cfg.d_in, cfg.seed,
                                   scales=cfg.scales, pool=cfg.pool)
        _, grads = model.loss_and_grads(*batch)
        rng = np.random.default_rng(self.seed)
        for name, analytic in grads.items():
            param = model.trainable_tensors()[name]
            coords = [np.unravel_index(np.argmax(np.abs(analytic)), analytic.shape)]
            coords += [tuple(int(rng.integers(0, s)) for s in analytic.shape) for _ in range(coords_per_tensor - 1)]
            gaps, scale = [], 1e-12
            for c in coords:
                keep = param[c]
                param[c] = keep + FD_STEP
                up = model.loss_and_grads(*batch)[0]
                param[c] = keep - FD_STEP
                down = model.loss_and_grads(*batch)[0]
                param[c] = keep
                numeric = (up - down) / (2 * FD_STEP)
                gaps.append(abs(numeric - analytic[c]))
                scale = max(scale, abs(numeric), abs(analytic[c]))
            err = max(gaps) / scale
            self.ledger.check(f"{name} gradient matches central differences", err <= GRADCHECK_TOL,
                              f"rel err {err:.2e}")


class EvalForward:
    """`evaluate` at batch 256 and `drop_heatmap` at batch 128 on a reloaded default model.

    The model is the default config's (seed 0); --seed draws the test set.
    """

    EVAL_BATCH = 256
    HEATMAP_BATCH = 128
    HEATMAP_SAMPLES = 256

    def __init__(self, seed: int, ledger: Ledger, out_dir: Path):
        self.ledger = ledger
        self.batch = self.EVAL_BATCH
        cfg = fexp.ExperimentConfig()
        self.encoder_seed = cfg.seed
        _, self.test_set = fdata.gen_dataset(seed, cfg.n_train, cfg.n_test, cfg.channels)
        self.built = fmodel.DecoderModel.build(cfg.model_config())
        ftrain.align_visual_keys(self.built, channels=cfg.channels, gain=cfg.key_gain)
        checkpoint = out_dir / f"checkpoint-{os.getpid()}"
        try:
            fmodel.save_checkpoint(checkpoint, self.built, step=0)
            self.model, _, _ = fmodel.load_checkpoint(checkpoint)
        finally:
            shutil.rmtree(checkpoint, ignore_errors=True)
        self.ledger.count("checkpoint round trips", 1)
        self.model_config = self.model.config
        self.accuracies, self.mean_freqs = [], []
        ds, n = self.test_set, self.EVAL_BATCH
        ftrain.evaluate(self.model, fdata.GridVqaDataset(ds.images[:n], ds.queries[:n], ds.answers[:n], ds.channels),
                        encoder_seed=self.encoder_seed, batch_size=n)  # warm-up batch

    def cycle(self) -> tuple[int, float, dict]:
        n_eval = len(self.test_set)
        n_heat = min(self.HEATMAP_SAMPLES, n_eval)
        t0 = time.perf_counter()
        accuracy = ftrain.evaluate(self.model, self.test_set, encoder_seed=self.encoder_seed,
                                   batch_size=self.EVAL_BATCH)
        t1 = time.perf_counter()
        heatmap = fexp.drop_heatmap(self.model, self.test_set, encoder_seed=self.encoder_seed,
                                    n_samples=self.HEATMAP_SAMPLES, batch_size=self.HEATMAP_BATCH)
        t2 = time.perf_counter()
        self.ledger.count("eval batches", -(-n_eval // self.EVAL_BATCH))
        self.ledger.count("heatmap calls", 1)
        self.accuracies.append(accuracy)
        self.mean_freqs.append(heatmap.mean_freq)
        return n_eval + n_heat, t2 - t0, {"eval_samples_per_s": n_eval / (t1 - t0),
                                          "heatmap_samples_per_s": n_heat / (t2 - t1)}

    def finish(self) -> float:
        cfg = self.model.config
        expected = fexp.expected_mean_freq(cfg.gamma, cfg.n_rows)
        for mean_freq in self.mean_freqs:
            self.ledger.check("heatmap mean_freq equals expected_mean_freq(gamma, N)",
                              abs(mean_freq - expected) <= HEATMAP_TOL, f"{mean_freq!r} vs {expected!r}")
        self.ledger.check("evaluate repeats across cycles", len(set(self.accuracies)) == 1)
        before = {**self.built.base_tensors(), **self.built.trainable_tensors()}
        after = {**self.model.base_tensors(), **self.model.trainable_tensors()}
        self.ledger.check("checkpoint reload is bit-identical",
                          before.keys() == after.keys() and all(np.array_equal(before[k], after[k]) for k in before))
        losses = []
        for begin in range(0, len(self.test_set), self.EVAL_BATCH):
            idx = np.arange(begin, min(begin + self.EVAL_BATCH, len(self.test_set)))
            tokens, feats, cls_raw, answers = fdata.encode_batch(self.test_set, idx, cfg.d_in, self.encoder_seed,
                                                                 scales=cfg.scales, pool=cfg.pool)
            logits = self.model.forward(tokens, feats, cls_raw)[:, -1, :]
            self.ledger.check("checkpoint reload predicts the same answers",
                              np.array_equal(np.argmax(logits, axis=1), self.built.predict(tokens, feats, cls_raw)))
            shift = logits.max(axis=1)
            log_z = np.log(np.sum(np.exp(logits - shift[:, None]), axis=1)) + shift
            losses.append(log_z - logits[np.arange(len(idx)), answers])
        return float(np.mean(np.concatenate(losses)))


class SweepSmall:
    """`ablate` over the placement and projection axes plus `gradcheck_report`, at the
    acceptance gate's small config; --seed is the sweep's base seed.

    Runs train 20 steps rather than the gate's 60, so that a run holds
    several cycles and reports their median.
    """

    BASE = dict(d_model=32, d_in=16, rank=4, n_train=512, n_test=128, steps=20, batch_size=32)
    AXES = ("placement", "projection")
    HEATMAP_SAMPLES = 32
    GRADCHECK_TRIALS = 20

    def __init__(self, seed: int, ledger: Ledger, out_dir: Path):
        self.ledger = ledger
        self.seed = seed
        self.base = fexp.ExperimentConfig(seed=seed, **self.BASE)
        self.batch = self.base.batch_size
        self.model_config = self.base.model_config()
        self.losses = []  # per cycle: last-tenth loss of every run, in report order
        # warm-up: one run covers gen_dataset, build, align_visual_keys, training, evaluate and heatmap
        fexp.run_experiment(replace(self.base, steps=1), heatmap_samples=self.HEATMAP_SAMPLES)
        fexp.gradcheck_report(seed=seed, trials=1)

    def cycle(self) -> tuple[int, float, dict]:
        t0 = time.perf_counter()
        reports = [r for axis in self.AXES
                   for r in fexp.ablate(axis, base_seed=self.seed, base_config=self.base,
                                        heatmap_samples=self.HEATMAP_SAMPLES)]
        t1 = time.perf_counter()
        gradcheck = fexp.gradcheck_report(seed=self.seed, trials=self.GRADCHECK_TRIALS)
        t2 = time.perf_counter()
        ok = [r for r in reports if r.ok]
        for r in reports:
            if not r.ok:
                print(f"sweep run {r.label} failed: {r.error}", file=sys.stderr)
        self.ledger.count("sweep runs", len(reports), len(reports) - len(ok))
        trials = gradcheck["trials"]
        self.ledger.count("gradcheck trials", len(trials),
                          sum(t["max_rel_err"] > gradcheck["tolerance"] for t in trials))
        self.ledger.check("gradcheck_report ok", gradcheck["ok"], f"max rel err {gradcheck['max_rel_err']:.2e}")
        for r in ok:
            self.ledger.count("sweep training steps with a finite loss", len(r.losses),
                              int(np.sum(~np.isfinite(r.losses))))
            config = fexp.ExperimentConfig.from_dict(r.config)
            expected = fexp.expected_mean_freq(config.gamma, config.model_config().n_rows)
            self.ledger.check("sweep heatmap mean_freq equals expected_mean_freq(gamma, N)",
                              abs(r.heatmaps.mean_freq - expected) <= HEATMAP_TOL)
        self.losses.append([(r.label, last_tenth(r.losses)) for r in ok])
        base = self.base
        samples = len(ok) * (base.steps * base.batch_size + base.n_test + self.HEATMAP_SAMPLES)
        return samples, t2 - t0, {"sweep_runs_per_min": 60.0 * len(reports) / (t1 - t0),
                                  "gradcheck_trials_per_s": len(trials) / (t2 - t1)}

    def finish(self) -> float:
        self.ledger.check("every sweep cycle repeats the first bit for bit",
                          all(losses == self.losses[0] for losses in self.losses))
        return float(np.mean([loss for _, loss in self.losses[0]]))


WORKLOADS = {"train-default": TrainDefault, "eval-forward": EvalForward, "sweep-small": SweepSmall}


def run_cycles(workload, ledger: Ledger, seconds: float, tracer: Tracer | None = None) -> list[tuple]:
    """Closed loop with one caller: (samples, wall, figures) of each cycle, in order.

    Stops at the cycle boundary nearest the deadline, after at least one cycle.
    """
    cycles = []
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.op += 1
        t_cycle = time.perf_counter()
        try:
            cycles.append(workload.cycle())
        except Exception:  # noqa: BLE001 -- a failing op is counted, the run goes on
            traceback.print_exc()
            ledger.count("cycle raised", 1, 1)
            cycles.append((0, time.perf_counter() - t_cycle, {}))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(wall for _, wall, _ in cycles)
        if elapsed + 0.5 * typical >= seconds:
            return cycles


def medians(cycles) -> dict:
    """samples_per_s and every per-cycle figure, each the median over cycles."""
    out = {"samples_per_s": statistics.median(samples / wall for samples, wall, _ in cycles)}
    for name in cycles[0][2]:
        out[name] = statistics.median(figures[name] for _, _, figures in cycles if name in figures)
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def per_layer(names, tracer: Tracer, workload, overhead_pct: float) -> dict:
    summary = tracer.summary()
    cfg = workload.model_config
    special = {
        "flops.param_free_per_step": fflops.flops_param_free(SEQ_LEN, cfg.n_rows, cfg.d_model)
        * workload.batch * cfg.n_blocks,
        "trace.overhead_pct": overhead_pct,
        "trace.spans": len(tracer.spans),
    }
    return {name: special[name] if name in special else span_metric(summary, name) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    ledger = Ledger()
    tracer = Tracer()
    if args.trace:
        tracer.install()  # set-up spans count towards the per-layer numbers
    workload = WORKLOADS[args.workload](args.seed, ledger, args.out)
    setup_end = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    result = {"setup_end": setup_end, "env": environment()}
    if args.trace:
        # Half the time untraced, half traced, on the same workload object:
        # the difference in throughput is the tracing overhead.
        tracer.uninstall()
        untraced = medians(run_cycles(workload, ledger, args.seconds / 2))["samples_per_s"]
        tracer.install()
        traced = medians(run_cycles(workload, ledger, args.seconds / 2, tracer))["samples_per_s"]
        tracer.uninstall()
        overhead_pct = (untraced / traced - 1.0) * 100.0 if traced else 0.0
        result["figures"] = {"untraced_samples_per_s": untraced, "traced_samples_per_s": traced}
    else:
        cycles = run_cycles(workload, ledger, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
        result["figures"] = {**medians(cycles), "peak_rss_mb": peak_rss_mb, "cycles": len(cycles)}
    result["figures"]["loss"] = workload.finish()
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result["per_layer"] = per_layer([m["name"] for m in spec["per_layer"]], tracer, workload, overhead_pct)
        tracer.write(args.out / f"spans-{args.workload}.jsonl")
    result["attempted"], result["failed"] = ledger.attempted, ledger.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
