"""fuselab benchmark: one workload per invocation, metrics as the last JSON line.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0

Run from the root of a fuselab checkout.  The workload runs in a child
process (workload.py) with one BLAS thread.  With --trace 0 the result
holds the end-to-end metrics of BENCHMARK.json; set-up time is the median
over SETUP_PROBES extra processes that only set up, plus the measured
one.  With --trace 1 it holds the per-layer metrics from spans recorded
around every public fuselab function (spans.py).  The environment and the
full result are written to .perfbench_out/result-<workload>-seed<n>-trace<t>.json,
the spans of a traced run to .perfbench_out/spans-<workload>.jsonl.
Exits 2 without a result when the checkout holds no fuselab sources or
the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train-default", "eval-forward", "sweep-small")
SETUP_PROBES = 4
# One BLAS thread: load comes from one process, never more BLAS threads than
# cores, and the matrices are too small for BLAS threading to pay.
BLAS_THREADS = "1"
DEADLINE_S = 170.0
# Figures printed and recorded besides the metrics of BENCHMARK.json, with their units.
FIGURES = {
    "train_samples_per_s": "1/s",
    "eval_samples_per_s": "1/s",
    "heatmap_samples_per_s": "1/s",
    "sweep_runs_per_min": "1/min",
    "gradcheck_trials_per_s": "1/s",
    "untraced_samples_per_s": "1/s",
    "traced_samples_per_s": "1/s",
    "cycles": "count",
}


class BenchError(RuntimeError):
    pass


def run_child(args, extra, deadline: float) -> tuple[float, dict]:
    """Start workload.py and wait for it; (its start time, its last-line JSON)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(OUT), *extra]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
           "MKL_NUM_THREADS": BLAS_THREADS}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process overran the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return start, json.loads(lines[-1])


def measure(args, spec: dict) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            start, probe = run_child(args, ["--setup-only"], deadline)
            setups.append(probe["setup_end"] - start)
    start, result = run_child(args, [], deadline)
    setups.append(result["setup_end"] - start)

    attempted, failed = result["attempted"], result["failed"]
    figures = dict(result["figures"], setup_s=statistics.median(setups), ops_failed_frac=failed / attempted)
    if args.trace:
        values, declared = result["per_layer"], spec["per_layer"]
    else:
        values, declared = figures, spec["end_to_end"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "env": result["env"], "setup_samples_s": setups, "figures": figures,
            "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fuselab" / "__init__.py").is_file():
        print(f"no fuselab sources under {ROOT / 'src'}; run from a fuselab checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    try:
        record = measure(args, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    print(f"environment: {json.dumps(record['env'])}")
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in record['setup_samples_s'])}")
    print(f"ops: {record['attempted']} attempted, {record['failed']} failed, "
          f"ops_failed_frac {record['figures']['ops_failed_frac']:.6g}")
    for name, unit in FIGURES.items():
        if name in record["figures"]:
            print(f"{name:<40} {record['figures'][name]:>16.6g} {unit}")
    for name, metric in record["metrics"].items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
