"""Tests for the exact operation-count model."""

import json
from fractions import Fraction

import numpy as np
import pytest

from fuselab.flops import flops, flops_param_free, flops_standard

# frozen reference values, computed once by hand:
#   2*256*4096^2 + 2*320*4096^2 + 2*256*320*4096 and 2*256*320*4096
FULL_SCALE_STANDARD = 19_998_441_472
FULL_SCALE_PARAM_FREE = 671_088_640


class TestCounts:
    def test_full_scale_values(self):
        r = flops(256, 320, 4096)
        assert r.flops_standard == FULL_SCALE_STANDARD
        assert r.flops_param_free == FULL_SCALE_PARAM_FREE
        assert abs(float(r.ratio) - 29.8) < 0.1

    def test_unit_scale(self):
        r = flops(1, 1, 1)
        assert r.flops_standard == 6
        assert r.flops_param_free == 2
        assert r.ratio == Fraction(3, 1)

    def test_savings_closed_form_random(self):
        g = np.random.default_rng(7)
        for _ in range(100):
            L, N, d = (int(v) for v in g.integers(1, 5000, size=3))
            r = flops(L, N, d)
            assert r.savings == 2 * L * d * d + 2 * N * d * d
            assert r.flops_param_free < r.flops_standard

    def test_ratio_closed_form(self):
        g = np.random.default_rng(8)
        for _ in range(50):
            L, N, d = (int(v) for v in g.integers(1, 2000, size=3))
            expect = Fraction(L + N, L * N) * d + 1
            assert flops(L, N, d).ratio == expect

    def test_exact_integers_beyond_f64(self):
        # 2*L*N*d with huge dims would round in float64; ints must not
        r = flops(10**6, 10**6, 10**6)
        assert r.flops_param_free == 2 * 10**18
        assert r.flops_standard == 2 * 10**18 + 4 * 10**18

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_positivity_and_intness(self, bad):
        with pytest.raises(ValueError):
            flops(bad, 4, 4)


class TestReport:
    def test_json_round_trips(self):
        r = flops(12, 34, 56)
        d = json.loads(r.to_json())
        assert d["flops_standard"] == r.flops_standard
        assert d["ratio"]["fraction"] == f"{r.ratio.numerator}/{r.ratio.denominator}"
        assert d["ratio"]["float"] == pytest.approx(float(r.ratio))
        assert "measured_ns" not in d

    def test_table_alignment(self):
        lines = flops(12, 34, 56).table().splitlines()
        assert len({len(line) for line in lines}) == 1
        assert any("ratio" in line for line in lines)

    def test_numpy_ints_accepted(self):
        r = flops(np.int64(3), np.int64(4), np.int64(5))
        assert isinstance(r.flops_standard, int)
