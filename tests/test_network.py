import math

import numpy as np
import pytest

from mmner.corpus import Sentence
from mmner.embeddings import InputAssembly, random_table
from mmner.network import (
    EmissionMatrix,
    LstmParams,
    ProjectionParams,
    backward,
    bilstm_forward,
    emissions,
    _run_direction,
    forward_sentence,
    lstm_cell,
)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestLstmCell:
    def test_zero_parameters_fixed_point(self):
        params = LstmParams(1, 1, np.zeros((4, 2)), np.zeros(4))
        h, c = lstm_cell(np.zeros(1), np.zeros(1), np.zeros(1), params)
        # all gates sit at 1/2, the candidate at 0: zero state stays zero
        np.testing.assert_array_equal(h, 0.0)
        np.testing.assert_array_equal(c, 0.0)
        # a carried cell decays by the half-open forget gate
        h, c = lstm_cell(np.zeros(1), np.zeros(1), np.array([2.0]), params)
        np.testing.assert_allclose(c, 1.0)
        np.testing.assert_allclose(h, 0.5 * math.tanh(1.0))

    def test_scalar_hand_computation(self):
        w = np.array([[0.1, 0.2], [0.3, -0.1], [0.2, 0.2], [0.5, -0.5]])
        b = np.array([0.01, 0.02, 0.03, 0.04])
        params = LstmParams(1, 1, w, b)
        h, c = lstm_cell(np.array([1.0]), np.array([0.5]), np.array([0.7]), params)
        i = sigmoid(0.1 * 1.0 + 0.2 * 0.5 + 0.01)
        f = sigmoid(0.3 * 1.0 - 0.1 * 0.5 + 0.02)
        o = sigmoid(0.2 * 1.0 + 0.2 * 0.5 + 0.03)
        g = math.tanh(0.5 * 1.0 - 0.5 * 0.5 + 0.04)
        c_expect = f * 0.7 + i * g
        np.testing.assert_allclose(c, c_expect, rtol=1e-12)
        np.testing.assert_allclose(h, o * math.tanh(c_expect), rtol=1e-12)

    def test_init_stacks_four_gates(self):
        rng = np.random.default_rng(0)
        params = LstmParams.init(3, 2, rng)
        assert params.w.shape == (8, 5)
        np.testing.assert_array_equal(params.b, 0.0)
        # gate k owns rows [k*h, (k+1)*h): a bias on the forget rows alone
        # changes only how much of the carried cell survives
        params.w[:] = 0.0
        params.b[2:4] = 50.0
        h, c = lstm_cell(np.zeros(3), np.zeros(2), np.array([1.0, -2.0]), params)
        np.testing.assert_allclose(c, [1.0, -2.0])
        np.testing.assert_allclose(h, 0.5 * np.tanh([1.0, -2.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LstmParams(2, 2, np.zeros((8, 3)), np.zeros(8))
        params = LstmParams.init(2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            lstm_cell(np.zeros(3), np.zeros(2), np.zeros(2), params)


class TestBiLstm:
    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(1)
        params = LstmParams.init(2, 3, rng)
        x = rng.normal(size=(5, 2))
        x_pal = np.concatenate([x, x[-2::-1]])  # palindrome of length 9
        hidden = bilstm_forward(x_pal, params, params)
        n, h_dim = x_pal.shape[0], 3
        for t in range(n):
            np.testing.assert_allclose(
                hidden[t, :h_dim], hidden[n - 1 - t, h_dim:], rtol=1e-12
            )

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        fwd, bwd = LstmParams.init(2, 3, rng), LstmParams.init(2, 3, rng)
        x = rng.normal(size=(4, 2))
        first = bilstm_forward(x, fwd, bwd)
        second = bilstm_forward(x.copy(), fwd, bwd)
        np.testing.assert_array_equal(first, second)

    def test_empty_rejected(self):
        params = LstmParams.init(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            bilstm_forward(np.zeros((0, 2)), params, params)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gemm_direction_matches_stepping_the_cell(self, reverse):
        rng = np.random.default_rng(8)
        params = LstmParams(4, 3, rng.normal(size=(12, 7)), rng.normal(size=12))
        x = rng.normal(size=(6, 4)) * 2.0
        hidden, _ = _run_direction(x, params, reverse)
        h, c = np.zeros(3), np.zeros(3)
        for t in (range(5, -1, -1) if reverse else range(6)):
            h, c = lstm_cell(x[t], h, c, params)
            np.testing.assert_allclose(hidden[t], h, rtol=1e-12, atol=1e-12)


class TestEmissions:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        proj = ProjectionParams.init(4, 6, rng)
        em = emissions(rng.normal(size=(7, 6)) * 10, proj)
        np.testing.assert_allclose(em.probs.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.log(em.probs), em.log_probs, atol=1e-12)

    def test_uniform_row(self):
        proj = ProjectionParams(np.zeros((4, 3)), np.zeros(4))
        em = emissions(np.ones((1, 3)), proj)
        np.testing.assert_allclose(em.log_probs[0], -math.log(4), rtol=1e-12)
        assert em.log_probs[0, 2] == pytest.approx(-math.log(4))

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        hidden = rng.normal(size=(3, 5))
        proj = ProjectionParams(rng.normal(size=(4, 5)), rng.normal(size=4))
        shifted = ProjectionParams(proj.w_hy.copy(), proj.b_y + 100.0)
        np.testing.assert_allclose(
            emissions(hidden, proj).probs, emissions(hidden, shifted).probs, atol=1e-12
        )

    def test_extreme_logits_stable(self):
        proj = ProjectionParams(np.eye(2) * 500, np.zeros(2))
        em = emissions(np.array([[1.0, -1.0]]), proj)
        assert np.isfinite(em.log_probs).all()
        np.testing.assert_allclose(em.probs.sum(axis=1), 1.0)


def small_net(rng, n=3, window=3, d_tok=2, d_feat=2, hidden=3, n_labels=3):
    token = random_table(5, d_tok, rng)
    feat = random_table(4, d_feat, rng)
    assembly = InputAssembly(window, token, [feat], [0, 0])
    fwd = LstmParams.init(assembly.width, hidden, rng)
    bwd = LstmParams.init(assembly.width, hidden, rng)
    proj = ProjectionParams.init(n_labels, 2 * hidden, rng)
    sent = Sentence(
        tokens=["x"] * n,
        features=[[int(rng.integers(4)), int(rng.integers(4))] for _ in range(n)],
        token_ids=[int(rng.integers(5)) for _ in range(n)],
    )
    return sent, assembly, fwd, bwd, proj


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        sent, assembly, fwd, bwd, proj = small_net(rng)
        cache = forward_sentence(sent, assembly, fwd, bwd, proj)
        grads = backward(cache, np.zeros_like(cache.em.log_probs), assembly, fwd, bwd, proj)
        d_token = grads.d_token.dense(assembly.token_table.size)
        d_feat = grads.d_feats[0].dense(assembly.feature_tables[0].size)
        for arr in (d_token, grads.d_fwd_w, grads.d_fwd_b, grads.d_bwd_w,
                    grads.d_bwd_b, grads.d_w_hy, grads.d_b_y, d_feat):
            np.testing.assert_array_equal(arr, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        sent, assembly, fwd, bwd, proj = small_net(rng)
        upstream = rng.normal(size=(3, 3))

        def objective():
            cache = forward_sentence(sent, assembly, fwd, bwd, proj)
            return float((upstream * cache.em.log_probs).sum())

        cache = forward_sentence(sent, assembly, fwd, bwd, proj)
        grads = backward(cache, upstream, assembly, fwd, bwd, proj)
        named = [
            (assembly.token_table.vectors, grads.d_token.dense(assembly.token_table.size)),
            (assembly.feature_tables[0].vectors,
             grads.d_feats[0].dense(assembly.feature_tables[0].size)),
            (fwd.w, grads.d_fwd_w),
            (fwd.b, grads.d_fwd_b),
            (bwd.w, grads.d_bwd_w),
            (bwd.b, grads.d_bwd_b),
            (proj.w_hy, grads.d_w_hy),
            (proj.b_y, grads.d_b_y),
        ]
        eps = 1e-6
        for theta, analytic in named:
            for idx in np.ndindex(theta.shape):
                orig = theta[idx]
                theta[idx] = orig + eps
                up = objective()
                theta[idx] = orig - eps
                down = objective()
                theta[idx] = orig
                numeric = (up - down) / (2 * eps)
                assert abs(analytic[idx] - numeric) <= 1e-7 * max(1.0, abs(numeric))

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(7)
        sent, assembly, fwd, bwd, proj = small_net(rng)
        cache = forward_sentence(sent, assembly, fwd, bwd, proj)
        with pytest.raises(ValueError):
            backward(cache, np.zeros((2, 3)), assembly, fwd, bwd, proj)
