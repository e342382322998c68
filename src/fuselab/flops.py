"""Exact floating-point-operation model of the two attention variants.

Counts follow the multiply-add-as-two-ops convention: the classical
module spends 2Ld^2 + 2Nd^2 projecting queries/keys/values and 2LNd on
the score/mix products, while the projection-free module keeps only the
2LNd term.  Softmax and elementwise activations are excluded from both
counts.  All arithmetic is exact (Python integers and Fractions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


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

    @property
    def savings(self) -> int:
        """Exactly 2Ld^2 + 2Nd^2: the projection work that disappears."""
        return self.flops_standard - self.flops_param_free

    def to_dict(self) -> dict:
        return {
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
        width = max(len(label) for label, _ in rows)
        value_width = max(len(value) for _, value in rows)
        return "\n".join(f"{label:<{width}}  {value:>{value_width}}" for label, value in rows)


def flops(L: int, N: int, d: int) -> FlopsReport:
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
    )

