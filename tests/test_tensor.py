"""Tests for the float64 tensor layer: ops, activations, pooling, file format."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab.tensor import (
    ACTIVATIONS,
    FLOAT,
    FORMAT_VERSION,
    MAGIC,
    ShapeError,
    activation,
    activation_vjp,
    as_tensor,
    avg_pool2d,
    load_tensor,
    max_pool2d,
    save_tensor,
    sigmoid,
    silu_grad,
    softmax_rows,
    tensor_from_bytes,
    tensor_to_bytes,
)

from .oracles import (
    SCALAR_ACTS,
    avg_pool_windows,
    fd_grad,
    max_pool_windows,
    sigmoid_s,
    silu_grad_s,
    softmax_row_list,
)

# sigmoid(1) evaluated once by hand from 1/(1+e^-1) and frozen
SILU_AT_ONE = 0.7310585786300049


def rng(seed=0):
    return np.random.default_rng(seed)


class TestActivations:
    def test_silu_zero(self):
        assert activation(as_tensor([0.0]), "silu")[0][0] == 0.0

    def test_silu_one(self):
        assert abs(activation(as_tensor([1.0]), "silu")[0][0] - SILU_AT_ONE) < 1e-6

    def test_softmax_symmetry(self):
        np.testing.assert_array_equal(softmax_rows(as_tensor([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_softmax_requires_rank_2(self):
        with pytest.raises(ShapeError):
            softmax_rows(np.zeros(4))
        with pytest.raises(ShapeError):
            activation(np.zeros(4), "softmax_rows")

    def test_softmax_rows_sum_to_one(self):
        x = rng(3).normal(size=(5, 7)) * 10
        np.testing.assert_allclose(softmax_rows(x).sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_overflow_safe(self):
        out = softmax_rows(as_tensor([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 0.999

    @pytest.mark.parametrize("kind", ["identity", "relu", "elu", "silu"])
    def test_elementwise_matches_scalar(self, kind):
        x = rng(4).normal(size=(3, 5)) * 3
        expect = np.vectorize(SCALAR_ACTS[kind])(x)
        np.testing.assert_allclose(activation(x, kind)[0], expect, atol=1e-12)

    def test_silu_positive_shifts_by_global_min(self):
        x = rng(5).normal(size=(4, 4))
        out, _ = activation(x, "silu_positive")
        np.testing.assert_allclose(out, activation(x, "silu")[0] - np.min(x), atol=1e-15)
        assert np.min(out) >= 0.0  # silu(argmin rescue): silu(m) - m >= 0 for m <= 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            activation(np.zeros(2), "tanh")
        with pytest.raises(ValueError, match="unknown activation kind"):
            activation_vjp(np.zeros(2), None, np.ones(2), "tanh")

    def test_relu_monotone(self):
        xs = np.linspace(-5, 5, 201)
        ys, _ = activation(xs, "relu")
        assert np.all(np.diff(ys) >= 0)

    def test_silu_monotone_right_of_dip(self):
        # silu has a single stationary point near x = -1.278 and is
        # nondecreasing to the right of it; to the left it decreases.
        xs = np.linspace(-1.27, 5, 401)
        ys, _ = activation(xs, "silu")
        assert np.all(np.diff(ys) >= 0)

    def test_sigmoid_extremes(self):
        out = sigmoid(as_tensor([-1000.0, 0.0, 1000.0]))
        assert out[0] >= 0.0 and out[1] == 0.5 and out[2] <= 1.0
        assert np.all(np.isfinite(out))

    SIGMOID_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                        np.finfo(FLOAT).tiny / 3, -np.finfo(FLOAT).tiny / 3, np.finfo(FLOAT).tiny,
                        -np.finfo(FLOAT).tiny, 745.0, -745.0, 745.2, -745.2, 709.8, -709.8,
                        1e-300, -1e-300, 36.8, -36.8]

    def test_sigmoid_bit_identical_to_reciprocal_formula(self):
        x = np.concatenate([self.SIGMOID_SPECIALS, rng(19).normal(size=100_000)])
        with np.errstate(over="ignore"):
            expect = 1.0 / (1.0 + np.exp(-x))
        out = sigmoid(x)
        np.testing.assert_array_equal(out, expect)  # NaN where expect is NaN
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expect))

    def test_sigmoid_within_4_ulp_of_scalar_oracle(self):
        g = rng(20)
        x = np.concatenate([g.uniform(-708.0, 708.0, size=20_000), 30.0 * g.normal(size=20_000), [-708.0, 708.0]])
        expect = np.array([sigmoid_s(v) for v in x])
        assert np.all(np.abs(sigmoid(x) - expect) <= 4 * np.spacing(expect))
        # below -708 exp(-x) overflows to +inf and the result is 0, not the subnormal
        x = np.concatenate([g.uniform(-800.0, -708.0, size=2_000), [-709.8, -745.0, -745.2, -1e308]])
        expect = np.array([sigmoid_s(v) for v in x])
        assert np.all(np.abs(sigmoid(x) - expect) <= 1e-307)
        assert sigmoid(np.array([-np.inf]))[0] == 0.0

    def test_sigmoid_raises_no_warning(self):
        x = np.concatenate([self.SIGMOID_SPECIALS, [-1e308, 1e308]])
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            sigmoid(x)


class TestActivationGrads:
    def test_silu_grad_formula(self):
        xs = rng(6).normal(size=17) * 3
        expect = np.vectorize(silu_grad_s)(xs)
        np.testing.assert_allclose(silu_grad(xs, sigmoid(xs)), expect, atol=1e-12)

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_saved_state_is_the_forward_sigmoid_or_softmax(self, kind):
        x = rng(7).normal(size=(2, 3, 4))
        out, saved = activation(x, kind)
        expect = {"silu": sigmoid(x), "silu_positive": sigmoid(x), "softmax_rows": out}.get(kind)
        if expect is None:
            assert saved is None
        else:
            assert saved.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_vjp_matches_finite_differences(self, kind):
        # the VJP reads only x and the forward's saved state; rank 3 is a
        # batch of samples (silu_positive's shift is per sample)
        g = rng(8)
        for shape in ((3, 4), (2, 3, 4)):
            x = g.normal(size=shape)
            grad_out = g.normal(size=shape)
            _, saved = activation(x, kind)
            analytic = activation_vjp(x, saved, grad_out, kind)
            numeric = fd_grad(lambda v: float(np.sum(activation(v, kind)[0] * grad_out)), x)
            np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_elu_and_its_vjp_bit_identical_to_where_formulas(self):
        # the in-place forms against the np.where forms they replaced
        x = np.concatenate([TestActivations.SIGMOID_SPECIALS, rng(21).normal(size=100_000)])
        grad_out = rng(22).normal(size=x.shape)
        grad_out[:3] = [np.inf, -0.0, np.nan]
        expect = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
        expect_vjp = np.where(x > 0, grad_out, grad_out * np.exp(np.minimum(x, 0.0)))
        out, saved = activation(x, "elu")
        assert out.tobytes() == expect.tobytes()
        assert activation_vjp(x, saved, grad_out, "elu").tobytes() == expect_vjp.tobytes()

    def test_softmax_vjp_matches_finite_differences(self):
        g = rng(9)
        x = g.normal(size=(3, 5))
        grad_out = g.normal(size=(3, 5))
        analytic = activation_vjp(x, activation(x, "softmax_rows")[1], grad_out, "softmax_rows")
        numeric = fd_grad(lambda v: float(np.sum(activation(v, "softmax_rows")[0] * grad_out)), x)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_vjp_does_not_mutate_grad_out(self):
        # nor x, nor the saved state the forward handed over
        for kind in ACTIVATIONS:
            x = rng(10).normal(size=(2, 3))
            grad_out = np.ones((2, 3))
            _, saved = activation(x, kind)
            inputs = [a for a in (x, grad_out, saved) if a is not None]
            before = [a.copy() for a in inputs]
            activation_vjp(x, saved, grad_out, kind)
            for now, then in zip(inputs, before):
                assert now.tobytes() == then.tobytes(), kind


class TestPooling:
    def test_constant_invariance(self):
        grid = np.full((8, 8, 3), 7.0)
        for k in (2, 4):
            np.testing.assert_array_equal(avg_pool2d(grid, k), np.full((8 // k, 8 // k, 3), 7.0))
            np.testing.assert_array_equal(max_pool2d(grid, k), np.full((8 // k, 8 // k, 3), 7.0))

    def test_hand_window(self):
        grid = as_tensor([[1.0, 3.0], [5.0, 7.0]]).reshape(2, 2, 1)
        np.testing.assert_array_equal(avg_pool2d(grid, 2), [[[4.0]]])
        np.testing.assert_array_equal(max_pool2d(grid, 2), [[[7.0]]])

    @pytest.mark.parametrize("k", [2, 4])
    def test_matches_bruteforce_oracle(self, k):
        grid = rng(11).normal(size=(16, 16, 3))
        np.testing.assert_array_equal(avg_pool2d(grid, k), avg_pool_windows(grid, k))
        np.testing.assert_array_equal(max_pool2d(grid, k), max_pool_windows(grid, k))
        batch = rng(12).normal(size=(4, 16, 16, 3))  # a batch pools like one rank-3 call per grid
        for pool in (avg_pool2d, max_pool2d):
            assert pool(batch, k).tobytes() == np.stack([pool(g, k) for g in batch]).tobytes()

    def test_non_divisible_kernel_rejected(self):
        with pytest.raises(ShapeError):
            avg_pool2d(np.zeros((6, 6, 1)), 4)
        with pytest.raises(ShapeError):
            max_pool2d(np.zeros((16, 12, 1)), 5)
        with pytest.raises(ShapeError, match="kernel must be positive"):
            avg_pool2d(np.zeros((4, 4, 1)), 0)

    def test_requires_rank_3(self):
        with pytest.raises(ShapeError):
            avg_pool2d(np.zeros((4, 4)), 2)


class TestPlumbingOps:
    def test_as_tensor_dtype_and_rank_cap(self):
        assert as_tensor([1, 2]).dtype == FLOAT
        with pytest.raises(ShapeError):
            as_tensor(np.zeros((2, 2, 2, 2)))
        with pytest.raises(ShapeError):
            as_tensor(3.5)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        a = rng(14).normal(size=(16, 16))
        b = rng(15).normal(size=(16, 16))
        first = activation(a, "silu")[0] @ b
        second = activation(a, "silu")[0] @ b
        assert first.tobytes() == second.tobytes()


class TestBinaryFormat:
    def test_header_layout(self):
        blob = tensor_to_bytes(np.zeros((2, 3)))
        assert blob[:4] == MAGIC
        assert blob[4] == FORMAT_VERSION
        assert blob[5] == 2  # rank
        assert int.from_bytes(blob[6:14], "little") == 2
        assert int.from_bytes(blob[14:22], "little") == 3

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 4)])
    def test_roundtrip(self, shape):
        x = rng(16).normal(size=shape)
        back = tensor_from_bytes(tensor_to_bytes(x))
        assert back.shape == x.shape
        np.testing.assert_array_equal(back, x)

    def test_file_roundtrip(self, tmp_path):
        x = rng(17).normal(size=(4, 7))
        path = tmp_path / "t.admt"
        save_tensor(path, x)
        np.testing.assert_array_equal(load_tensor(path), x)

    def test_bad_magic_rejected(self):
        blob = bytearray(tensor_to_bytes(np.zeros(3)))
        blob[:4] = b"XXXX"
        with pytest.raises(ValueError, match="magic"):
            tensor_from_bytes(bytes(blob))

    def test_bad_version_rejected(self):
        blob = bytearray(tensor_to_bytes(np.zeros(3)))
        blob[4] = 9
        with pytest.raises(ValueError, match="version"):
            tensor_from_bytes(bytes(blob))

    def test_truncated_payload_rejected(self):
        # cut in the payload, in the 6-byte header, and in the dims of a rank-2 tensor's 22-byte header
        blob = tensor_to_bytes(np.zeros((2, 2)))
        for cut, message in ((-8, "payload length"), (4, "6-byte header"), (9, "22-byte header")):
            with pytest.raises(ValueError, match=message):
                tensor_from_bytes(blob[:cut])

    @pytest.mark.parametrize("rank", [0, 4])
    def test_rank_outside_range_rejected(self, rank):
        blob = bytearray(tensor_to_bytes(np.zeros(3)))
        blob[5] = rank
        with pytest.raises(ValueError, match="outside supported range"):
            tensor_from_bytes(bytes(blob))


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**31),
)
def test_softmax_rows_property(rows, cols, seed):
    x = np.random.default_rng(seed).normal(size=(rows, cols)) * 5
    out = softmax_rows(x)
    assert np.all(out > 0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    for r in range(rows):
        np.testing.assert_allclose(out[r], softmax_row_list(list(x[r])), atol=1e-12)


def test_all_activation_kinds_covered():
    assert set(ACTIVATIONS) == {"identity", "softmax_rows", "relu", "elu", "silu", "silu_positive"}
    for kind in ACTIVATIONS:
        out, _ = activation(np.abs(rng(18).normal(size=(2, 2))) + 0.1, kind)
        assert out.shape == (2, 2)
