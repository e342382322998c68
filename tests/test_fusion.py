"""Tests for the fusion kernel: both attention forms, masking, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab.fusion import (
    FusionParams,
    StandardXAttnParams,
    adaptive_mask,
    drop_count,
    low_rank_vjp,
    param_free_xattn,
    site_backward,
    site_forward,
    standard_xattn,
    visual_grads,
    visual_values,
)
from fuselab.tensor import ACTIVATIONS, ShapeError, activation, activation_vjp

from .oracles import (
    SCALAR_ACTS,
    argsort_mask,
    fd_grad,
    grad_rel_err,
    matmul_lists,
    param_free_scalar,
    per_site_visual_grads,
    smallest_k_indices,
    standard_xattn_scalar,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def small_params(seed=0, *, d_in=4, rank=3, d=6, n_rows=5, pos_scale=0.3):
    g = rng(seed)
    return FusionParams(
        a_feat=g.normal(size=(d_in, rank)),
        b_feat=g.normal(size=(rank, d)),
        a_cls=g.normal(size=(d_in, rank)),
        b_cls=g.normal(size=(rank, d)),
        pos_embed=g.uniform(-pos_scale, pos_scale, size=(n_rows, d)),
    )


class TestStandardXAttn:
    def test_single_key_ignores_scores(self):
        g = rng(1)
        p = StandardXAttnParams.random(g, 4)
        x_text = g.normal(size=(1, 4))
        x_vis = g.normal(size=(1, 4))
        expect = (x_vis @ p.w_v) @ p.w_o.T
        np.testing.assert_allclose(standard_xattn(x_text, x_vis, p), expect, atol=1e-12)

    def test_identity_weights_uniform_softmax(self):
        eye = np.eye(2)
        p = StandardXAttnParams(eye, eye, eye, eye, d_k=2)
        out = standard_xattn(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]), p)
        np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_matches_scalar_oracle(self):
        g = rng(2)
        p = StandardXAttnParams.random(g, 4)
        x_text = g.normal(size=(3, 4))
        x_vis = g.normal(size=(5, 4))
        expect = standard_xattn_scalar(x_text, x_vis, p.w_q, p.w_k, p.w_v, p.w_o, p.d_k)
        np.testing.assert_allclose(standard_xattn(x_text, x_vis, p), expect, atol=1e-10)

    def test_shape_errors(self):
        p = StandardXAttnParams.random(rng(3), 4)
        with pytest.raises(ShapeError):
            standard_xattn(np.zeros((2, 3)), np.zeros((2, 4)), p)
        with pytest.raises(ShapeError):
            StandardXAttnParams(np.zeros((4, 4)), np.zeros((4, 3)), np.zeros((4, 4)), np.zeros((4, 4)), d_k=4)
        with pytest.raises(ValueError):
            StandardXAttnParams(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), d_k=0)


class TestParamFreeXAttn:
    def test_hand_example_identity(self):
        out, scores, mask = param_free_xattn(
            np.array([[1.0, -1.0]]), np.array([[2.0, 0.0], [0.0, 1.0]]), phi="identity", gamma=0.0
        )
        np.testing.assert_array_equal(scores, [[2.0, -1.0]])
        np.testing.assert_array_equal(out, [[4.0, -1.0]])
        np.testing.assert_array_equal(mask, [[1.0, 1.0]])

    def test_zero_visual_annihilates(self):
        x_text = rng(4).normal(size=(3, 4))
        out, scores, _ = param_free_xattn(x_text, np.zeros((5, 4)), phi="silu")
        np.testing.assert_array_equal(scores, np.zeros((3, 5)))
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_matches_bruteforce_silu(self):
        g = rng(5)
        x_text = g.normal(size=(2, 3))
        x_vis = g.normal(size=(4, 3))
        out, scores, _ = param_free_xattn(x_text, x_vis, phi="silu", gamma=0.0)
        expect_out, expect_scores, _ = param_free_scalar(x_text, x_vis, "silu", 0.0)
        np.testing.assert_allclose(scores, expect_scores, atol=1e-12)
        np.testing.assert_allclose(out, expect_out, atol=1e-12)

    def test_identity_equals_double_matmul(self):
        g = rng(6)
        x_text = g.normal(size=(16, 32))
        x_vis = g.normal(size=(12, 32))
        out, _, _ = param_free_xattn(x_text, x_vis, phi="identity", gamma=0.0)
        np.testing.assert_allclose(out, (x_text @ x_vis.T) @ x_vis, atol=1e-12)

    def test_masked_bruteforce_agreement(self):
        g = rng(7)
        x_text = g.normal(size=(3, 4))
        x_vis = g.normal(size=(5, 4))
        out, _, mask = param_free_xattn(x_text, x_vis, phi="silu", gamma=0.4)
        expect_out, _, expect_masks = param_free_scalar(x_text, x_vis, "silu", 0.4)
        np.testing.assert_array_equal(mask, expect_masks)
        np.testing.assert_allclose(out, expect_out, atol=1e-12)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            param_free_xattn(np.zeros((1, 2)), np.zeros((2, 2)), gamma=1.0)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            param_free_xattn(np.zeros((1, 2)), np.zeros((2, 3)))


# score entries that stress the mask's order: exact ties, signed zeros, infinities, NaN
_SCORE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
    st.integers(-2, 2).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _score_rows(draw):
    n_cols = draw(st.integers(1, 12))
    row = st.lists(_SCORE_VALUES, min_size=n_cols, max_size=n_cols)
    return np.array(draw(st.lists(row, min_size=1, max_size=6)), dtype=float)


class TestAdaptiveMask:
    def test_single_drop(self):
        s = np.array([[0.5, 0.1, 0.3, 0.2, 0.9]])
        mask = adaptive_mask(s, 0.2)
        np.testing.assert_array_equal(mask, [[1.0, 0.0, 1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(s * mask, [[0.5, 0.0, 0.3, 0.2, 0.9]])

    def test_tie_breaks_to_lower_index(self):
        s = np.array([[0.2, 0.2, 0.5, 0.6, 0.7]])
        mask = adaptive_mask(s, 0.4)
        np.testing.assert_array_equal(s * mask, [[0.0, 0.0, 0.5, 0.6, 0.7]])

    def test_gamma_zero_keeps_all(self):
        s = rng(8).normal(size=(4, 6))
        np.testing.assert_array_equal(adaptive_mask(s, 0.0), np.ones((4, 6)))

    def test_unmasked_entries_pass_through(self):
        s = rng(9).normal(size=(3, 10))
        masked = s * adaptive_mask(s, 0.3)
        kept = masked != 0
        np.testing.assert_array_equal(masked[kept], s[kept])

    @settings(max_examples=80, deadline=None)
    @given(
        n_rows=st.integers(1, 6),
        n_cols=st.integers(1, 12),
        gamma=st.floats(0.0, 0.999),
        seed=st.integers(0, 2**31),
    )
    def test_cardinality_and_membership(self, n_rows, n_cols, gamma, seed):
        s = np.random.default_rng(seed).normal(size=(n_rows, n_cols))
        mask = adaptive_mask(s, gamma)
        k = drop_count(gamma, n_cols)
        zeros_per_row = np.sum(mask == 0.0, axis=1)
        assert np.all(zeros_per_row == k)
        for r in range(n_rows):
            expect = set(smallest_k_indices(list(s[r]), k))
            assert set(np.flatnonzero(mask[r] == 0.0)) == expect

    @settings(max_examples=300, deadline=None)
    @given(scores=_score_rows(), gamma=st.floats(0.0, 0.999))
    def test_matches_stable_argsort_with_ties_zeros_infs_and_nans(self, scores, gamma):
        mask = adaptive_mask(scores, gamma)
        k = drop_count(gamma, scores.shape[1])
        assert np.all(np.sum(mask == 0.0, axis=1) == k)
        assert mask.tobytes() == argsort_mask(scores, k).tobytes()

    def test_nan_heavy_row_drops_exactly_k(self):
        # the 5th smallest is a NaN: every number goes, then NaNs by column
        s = np.array([[np.nan, 1.0, np.nan, 0.0, -np.inf, np.inf, np.nan, np.nan, np.nan, np.nan]])
        np.testing.assert_array_equal(adaptive_mask(s, 0.5), [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]])

    def test_monotone_non_expansion(self):
        s = rng(10).normal(size=(4, 10))
        kept = [np.sum(adaptive_mask(s, g)) for g in (0.0, 0.1, 0.2, 0.3, 0.4, 0.7)]
        assert all(a >= b for a, b in zip(kept, kept[1:]))

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 5)])
    def test_scores_must_be_rank_2(self, shape):
        with pytest.raises(ShapeError, match="scores must be rank 2"):
            adaptive_mask(np.zeros(shape), 0.2)

    def test_duplicate_heavy_rows(self):
        s = np.zeros((2, 8))
        np.testing.assert_array_equal(adaptive_mask(s, 0.5), np.repeat([[0.0] * 4 + [1.0] * 4], 2, axis=0))


class TestFusionParams:
    def test_shape_coherence_enforced(self):
        # b_feat of rank 2 after a rank-3 a_feat; a cls pair from 5 features, or to 7 widths, or not
        # composing; pos_embed of the wrong width or rank
        good = dict(a_feat=np.zeros((4, 3)), b_feat=np.zeros((3, 6)), a_cls=np.zeros((4, 3)), b_cls=np.zeros((3, 6)),
                    pos_embed=np.zeros((5, 6)))
        for name, shape in (("b_feat", (2, 6)), ("a_cls", (5, 3)), ("b_cls", (3, 7)), ("a_cls", (4, 2)),
                            ("pos_embed", (5, 7)), ("pos_embed", (6,))):
            with pytest.raises(ShapeError):
                FusionParams(**{**good, name: np.zeros(shape)})

    def test_init_shapes_and_nullity_state(self):
        p = FusionParams.init(rng(14), d_in=4, d_model=6, rank=3, n_rows=5, pos_scale=0.0, b_scale=0.0)
        assert p.a_feat.shape == (4, 3) and p.b_feat.shape == (3, 6)
        np.testing.assert_array_equal(p.b_feat, 0.0)
        np.testing.assert_array_equal(p.b_cls, 0.0)
        np.testing.assert_array_equal(p.pos_embed, 0.0)
        assert np.max(np.abs(p.a_feat)) <= 0.5  # 1/sqrt(4)

    def test_init_default_leaves_the_degenerate_point(self):
        p = FusionParams.init(rng(14), d_in=4, d_model=6, rank=3, n_rows=5)
        assert np.any(p.b_feat != 0.0) and np.any(p.b_cls != 0.0)
        assert np.any(p.pos_embed != 0.0)
        assert np.max(np.abs(p.b_feat)) <= 0.1 and np.max(np.abs(p.pos_embed)) <= 0.1

    def test_trainable_size(self):
        p = small_params()
        assert list(p.trainable()) == ["a_feat", "b_feat", "a_cls", "b_cls", "pos_embed"]
        assert sum(t.size for t in p.trainable().values()) == 2 * (4 * 3 + 3 * 6) + 5 * 6


def branch(x_text, x_vis_raw, p, upstream=None, *, alpha=0.1, beta=0.01, gamma=0.2, phi="silu"):
    """The fusion branch on the site kernel, for one sample or a batch.

    The keyword settings default to ModelConfig's.  Returns (delta, site
    cache, values, grads), grads being those of sum(upstream * delta) --
    None without an upstream.
    """
    values, low_rank = visual_values(x_vis_raw, p, beta)
    k_act, k_saved = activation(values, phi)
    delta, cache = site_forward(x_text, values, k_act, alpha, gamma, phi)
    if upstream is None:
        return delta, cache, values, None
    d_x_text, factors = site_backward(upstream, cache, values, k_act, alpha, phi)
    d_values = visual_grads([factors], values, k_saved, phi)
    d_a_feat, d_b_feat = low_rank_vjp(d_values, x_vis_raw, low_rank, beta * p.b_feat)
    pos_embed = d_values.reshape(-1, *p.pos_embed.shape).sum(axis=0)
    return delta, cache, values, {"a_feat": d_a_feat, "b_feat": beta * d_b_feat, "pos_embed": pos_embed,
                                  "x_text": d_x_text, "values": d_values}


class TestFuse:
    """The fusion branch: visual_values feeding one site_forward."""

    def test_null_branch_is_exact_noop(self):
        p = FusionParams.init(rng(15), d_in=4, d_model=6, rank=3, n_rows=5, pos_scale=0.0, b_scale=0.0)
        x_text = rng(16).normal(size=(2, 3, 6))
        x_vis_raw = rng(17).normal(size=(2, 5, 4))
        delta = branch(x_text, x_vis_raw, p)[0]
        np.testing.assert_array_equal(delta, np.zeros((2, 3, 6)))

    def test_alpha_zero_annihilates(self):
        p = small_params()
        delta = branch(rng(18).normal(size=(2, 3, 6)), rng(19).normal(size=(2, 5, 4)), p, alpha=0.0)[0]
        np.testing.assert_array_equal(delta, np.zeros((2, 3, 6)))

    def test_pipeline_matches_scalar_oracle(self):
        p = small_params(20)
        x_text = rng(21).normal(size=(3, 6))
        x_vis_raw = rng(22).normal(size=(5, 4))
        x_emb = matmul_lists(matmul_lists(x_vis_raw.tolist(), p.a_feat.tolist()), p.b_feat.tolist())
        values = [
            [0.01 * x_emb[i][j] + p.pos_embed[i, j] for j in range(6)] for i in range(5)
        ]
        expect_out, _, _ = param_free_scalar(x_text, values, "silu", 0.2)
        delta = branch(x_text, x_vis_raw, p, alpha=0.1, beta=0.01, gamma=0.2, phi="silu")[0]
        np.testing.assert_allclose(delta, 0.1 * np.asarray(expect_out), atol=1e-12)

    def test_alpha_doubling_is_exact(self):
        p = small_params(23)
        x_text = rng(24).normal(size=(2, 3, 6))
        x_vis_raw = rng(25).normal(size=(2, 5, 4))
        doubled = branch(x_text, x_vis_raw, p, alpha=0.342)[0]
        np.testing.assert_array_equal(doubled, 2.0 * branch(x_text, x_vis_raw, p, alpha=0.171)[0])

    def test_masking_equals_manual_zeroing(self):
        p = small_params(26)
        x_text = rng(27).normal(size=(2, 3, 6))
        x_vis_raw = rng(28).normal(size=(2, 5, 4))
        delta, cache, values, _ = branch(x_text, x_vis_raw, p, alpha=0.1, gamma=0.4)
        np.testing.assert_array_equal(np.sum(cache.mask == 0.0, axis=-1), 2)
        manual = 0.1 * ((cache.scores * cache.mask) @ values)
        np.testing.assert_array_equal(delta, manual)

    def test_row_count_mismatch_rejected(self):
        # the raw rows must be (..., n_rows, d_in): 5 rows of width 4 here
        p = small_params()
        for shape in ((4, 4), (2, 6, 4), (2, 5, 3), (4,)):
            with pytest.raises(ShapeError, match=r"pos_embed \(5, 6\)"):
                visual_values(np.zeros(shape), p, 0.01)

    def test_beta_scales_features_not_positions(self):
        # with B=0 the embedded features vanish, so beta must have no effect
        p0 = small_params(29, pos_scale=0.3)
        p0.b_feat[:] = 0.0
        pbig = small_params(29, pos_scale=0.3)
        pbig.b_feat[:] = 0.0
        x_text = rng(30).normal(size=(2, 3, 6))
        x_vis_raw = rng(31).normal(size=(2, 5, 4))
        big = branch(x_text, x_vis_raw, pbig, beta=100.0)[0]
        np.testing.assert_array_equal(branch(x_text, x_vis_raw, p0)[0], big)


class TestFuseBackward:
    """The branch's gradients: site_backward, visual_grads and low_rank_vjp on a batch."""

    def test_zero_upstream_zero_grads(self):
        p = small_params(32)
        grads = branch(rng(33).normal(size=(2, 3, 6)), rng(34).normal(size=(2, 5, 4)), p, np.zeros((2, 3, 6)))[3]
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_identity_small_case_against_fd(self):
        p = small_params(35, d_in=2, rank=2, d=2, n_rows=2)
        hyper = dict(gamma=0.0, phi="identity")
        x_text = rng(36).normal(size=(1, 2))
        x_vis_raw = rng(37).normal(size=(2, 2))
        probe = rng(38).normal(size=(1, 2))
        grads = branch(x_text, x_vis_raw, p, probe, **hyper)[3]
        numeric = fd_grad(lambda v: float(np.sum(branch(v, x_vis_raw, p, **hyper)[0] * probe)), x_text)
        assert grad_rel_err(grads["x_text"], numeric) <= 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_gradcheck_all_trainables(self, seed):
        phi = ("silu", "identity", "elu", "softmax_rows")[seed % 4]
        p = small_params(seed)
        hyper = dict(gamma=(0.0, 0.2)[seed % 2], phi=phi)
        g = rng(1000 + seed)
        x_text = g.normal(size=(2, 3, 6))
        x_vis_raw = g.normal(size=(2, 5, 4))
        probe = g.normal(size=(2, 3, 6))
        grads = branch(x_text, x_vis_raw, p, probe, **hyper)[3]

        def objective(_):
            return float(np.sum(branch(x_text, x_vis_raw, p, **hyper)[0] * probe))

        for field in ("a_feat", "b_feat", "pos_embed"):
            numeric = fd_grad(objective, getattr(p, field), inplace=True)
            assert grad_rel_err(grads[field], numeric) <= 1e-4, field
        numeric = fd_grad(lambda v: float(np.sum(branch(v, x_vis_raw, p, **hyper)[0] * probe)), x_text)
        assert grad_rel_err(grads["x_text"], numeric) <= 1e-4, "x_text"

    def test_fully_masked_key_row_gets_zero_grad(self):
        # one key row scores lowest for every query, so with k=1 it is
        # always dropped and its pos_embed row must receive no gradient
        p = small_params(39, d_in=2, rank=2, d=2, n_rows=5, pos_scale=0.0)
        hyper = dict(gamma=0.2, phi="identity")
        p.b_feat[:] = 0.0
        p.pos_embed[:] = np.array(
            [[-100.0, -100.0], [1.0, 0.5], [0.5, 1.0], [1.5, 0.25], [0.25, 1.5]]
        )
        x_text = np.abs(rng(40).normal(size=(2, 3, 2))) + 0.5  # positive queries
        x_vis_raw = rng(41).normal(size=(2, 5, 2))
        probe = rng(42).normal(size=(2, 3, 2))
        _, cache, _, grads = branch(x_text, x_vis_raw, p, probe, **hyper)
        np.testing.assert_array_equal(cache.mask[..., 0], np.zeros((2, 3)))
        np.testing.assert_array_equal(grads["pos_embed"][0], np.zeros(2))
        numeric = fd_grad(lambda _: float(np.sum(branch(x_text, x_vis_raw, p, **hyper)[0] * probe)), p.pos_embed,
                          inplace=True)
        np.testing.assert_allclose(numeric[0], np.zeros(2), atol=1e-8)


def _draw(g, shape, quantized):
    """Normal entries, or entries in {0, c} for one random level c.

    Quantized rows repeat or vanish often, which forces exact score ties;
    and every nonzero score term is the same product, so equal scores come
    out equal in both the kernel and the scalar oracle.
    """
    if quantized:
        return g.normal() * (g.random(shape) < 0.5)
    return g.normal(size=shape)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    n_text=st.integers(1, 4),
    n_rows=st.integers(1, 6),
    d=st.integers(1, 5),
    gamma=st.floats(0.0, 0.5, exclude_max=True),
    phi=st.sampled_from(ACTIVATIONS),
    quantized=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_batched_site_matches_rank2_calls_and_oracle(batch, n_text, n_rows, d, gamma, phi, quantized, seed):
    g = rng(seed)
    p = FusionParams.init(g, d_in=3, d_model=d, rank=2, n_rows=n_rows, pos_scale=0.0 if quantized else 0.3, b_scale=1.0)
    hyper = dict(alpha=0.7, beta=1.0, gamma=gamma, phi=phi)
    queries = _draw(g, (batch, n_text, d), quantized)
    x_vis_raw = _draw(g, (batch, n_rows, 3), quantized)
    upstream = g.normal(size=(batch, n_text, d))

    delta, cache, values, grads = branch(queries, x_vis_raw, p, upstream, **hyper)
    for b in range(batch):  # single-sample calls of the same kernel are the rank-2 reference
        single, single_cache, single_values, single_grads = branch(queries[b], x_vis_raw[b], p, upstream[b], **hyper)
        assert values[b].tobytes() == single_values.tobytes()
        assert delta[b].tobytes() == single.tobytes()
        assert cache.mask[b].tobytes() == single_cache.mask.tobytes()
        for name in ("x_text", "values"):
            assert grads[name][b].tobytes() == single_grads[name].tobytes(), name
        if phi in SCALAR_ACTS:
            out, scores, masks = param_free_scalar(queries[b], values[b], phi, gamma)
            np.testing.assert_allclose(cache.scores[b], scores, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(cache.mask[b], masks)
            np.testing.assert_allclose(delta[b], 0.7 * np.asarray(out), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n_sites=st.integers(1, 3),
    batch=st.integers(1, 3),
    n_rows=st.integers(1, 6),
    d=st.integers(1, 5),
    gamma=st.floats(0.0, 0.5, exclude_max=True),
    phi=st.sampled_from(ACTIVATIONS),
    quantized=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_visual_grads_matches_per_site_sum(n_sites, batch, n_rows, d, gamma, phi, quantized, seed):
    # sites of different lengths share one set of keys, as a model's blocks do
    g = rng(seed)
    values = _draw(g, (batch, n_rows, d), quantized)
    k_act, k_saved = activation(values, phi)
    sites, factors = [], []
    for _ in range(n_sites):
        queries = _draw(g, (batch, int(g.integers(1, 5)), d), quantized)
        upstream = g.normal(size=queries.shape)
        _, cache = site_forward(queries, values, k_act, 0.7, gamma, phi)
        factors.append(site_backward(upstream, cache, values, k_act, 0.7, phi)[1])
        sites.append((upstream, cache))
    got = visual_grads(factors, values, k_saved, phi)
    expect = per_site_visual_grads(sites, values, 0.7, lambda ct: activation_vjp(values, k_saved, ct, phi))
    assert got.shape == values.shape
    assert np.max(np.abs(got - expect)) <= 1e-12 * max(np.max(np.abs(expect)), 1e-300)


def test_drop_count_float64_semantics():
    assert drop_count(0.0, 320) == 0
    assert drop_count(0.2, 320) == 64
    assert drop_count(0.2, 5) == 1
    assert drop_count(0.4, 5) == 2
    assert drop_count(0.3, 10) == 3  # 0.3*10 rounds to exactly 3.0 in f64
    assert drop_count(0.29, 100) == 28  # 0.29*100 = 28.999999999999996 in f64
