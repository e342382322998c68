"""Exact floating-point-operation model of the two attention variants.

Counts follow the multiply-add-as-two-ops convention: the classical
module spends 2Ld^2 + 2Nd^2 projecting queries/keys/values and 2LNd on
the score/mix products, while the projection-free module keeps only the
2LNd term.  Softmax and elementwise activations are excluded from both
counts.  All arithmetic is exact (Python integers and Fractions), with an
optional wall-clock micro-benchmark of both kernels at the same sizes.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fusion import StandardXAttnParams, param_free_xattn, standard_xattn

BENCH_REPEATS = 11


def flops_standard(L: int, N: int, d: int) -> int:
    """Projections for L queries and N keys/values, then score and mix."""
    return 2 * L * d * d + 2 * N * d * d + 2 * L * N * d


def flops_param_free(L: int, N: int, d: int) -> int:
    """Only the score and mix products survive without projections."""
    return 2 * L * N * d


@dataclass
class FlopsReport:
    L: int
    N: int
    d: int
    flops_standard: int
    flops_param_free: int
    ratio: Fraction
    measured_ns: dict | None = None

    @property
    def savings(self) -> int:
        """Exactly 2Ld^2 + 2Nd^2: the projection work that disappears."""
        return self.flops_standard - self.flops_param_free

    def to_dict(self) -> dict:
        out = {
            "L": self.L,
            "N": self.N,
            "d": self.d,
            "flops_standard": self.flops_standard,
            "flops_param_free": self.flops_param_free,
            "savings": self.savings,
            "ratio": {
                "fraction": f"{self.ratio.numerator}/{self.ratio.denominator}",
                "float": float(self.ratio),
            },
        }
        if self.measured_ns is not None:
            out["measured_ns"] = dict(self.measured_ns)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def table(self) -> str:
        """Aligned plain-text summary."""
        rows = [
            ("L (text rows)", f"{self.L:,}"),
            ("N (visual rows)", f"{self.N:,}"),
            ("d (model width)", f"{self.d:,}"),
            ("standard FLOPs", f"{self.flops_standard:,}"),
            ("param-free FLOPs", f"{self.flops_param_free:,}"),
            ("savings", f"{self.savings:,}"),
            ("ratio", f"{float(self.ratio):.4f}"),
        ]
        if self.measured_ns is not None:
            for name, ns in self.measured_ns.items():
                rows.append((f"{name} median", f"{ns / 1e6:.3f} ms"))
        width = max(len(label) for label, _ in rows)
        value_width = max(len(value) for _, value in rows)
        return "\n".join(f"{label:<{width}}  {value:>{value_width}}" for label, value in rows)


def flops(L: int, N: int, d: int, *, bench: bool = False) -> FlopsReport:
    """Exact operation counts for both attention variants at (L, N, d)."""
    for name, value in (("L", L), ("N", N), ("d", d)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value <= 0:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    L, N, d = int(L), int(N), int(d)
    standard = flops_standard(L, N, d)
    param_free = flops_param_free(L, N, d)
    return FlopsReport(
        L=L,
        N=N,
        d=d,
        flops_standard=standard,
        flops_param_free=param_free,
        ratio=Fraction(standard, param_free),
        measured_ns=_bench(L, N, d) if bench else None,
    )


def _median_ns(fn) -> int:
    fn()  # warm caches and allocator before timing
    times = []
    for _ in range(BENCH_REPEATS):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


def _bench(L: int, N: int, d: int) -> dict:
    """Median-of-11 wall clock for one forward call of each kernel, on inputs drawn from seed 0."""
    rng = np.random.default_rng(0)
    x_text = rng.normal(size=(L, d))
    x_vis = rng.normal(size=(N, d))
    params = StandardXAttnParams.random(rng, d)
    return {
        "standard": _median_ns(lambda: standard_xattn(x_text, x_vis, params)),
        "param_free": _median_ns(lambda: param_free_xattn(x_text, x_vis)),
    }
