import math

import numpy as np
import pytest

from mmner.corpus import Sentence
from mmner.embeddings import InputAssembly, random_table
from mmner.model import init_params
from mmner.network import (
    LstmParams,
    ProjectionParams,
    _activate,
    backward,
    emissions,
    forward_sentence,
)
from mmner.synthetic import tiny_instance
from oracles import lstm_step, reference_lstm_init, reference_projection_init


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def step(x, h_prev, c_prev, params):
    """One recurrence step through the production gate nonlinearities."""
    a = params.w @ np.concatenate([x, h_prev]) + params.b
    h, c, _ = _activate(a, c_prev, params.hidden_dim)
    return h, c


class TestLstmCell:
    def test_zero_parameters_fixed_point(self):
        params = LstmParams(np.zeros((4, 2)), np.zeros(4))
        h, c = step(np.zeros(1), np.zeros(1), np.zeros(1), params)
        # all gates sit at 1/2, the candidate at 0: zero state stays zero
        np.testing.assert_array_equal(h, 0.0)
        np.testing.assert_array_equal(c, 0.0)
        # a carried cell decays by the half-open forget gate
        h, c = step(np.zeros(1), np.zeros(1), np.array([2.0]), params)
        np.testing.assert_allclose(c, 1.0)
        np.testing.assert_allclose(h, 0.5 * math.tanh(1.0))

    def test_scalar_hand_computation(self):
        w = np.array([[0.1, 0.2], [0.3, -0.1], [0.2, 0.2], [0.5, -0.5]])
        b = np.array([0.01, 0.02, 0.03, 0.04])
        params = LstmParams(w, b)
        h, c = step(np.array([1.0]), np.array([0.5]), np.array([0.7]), params)
        i = sigmoid(0.1 * 1.0 + 0.2 * 0.5 + 0.01)
        f = sigmoid(0.3 * 1.0 - 0.1 * 0.5 + 0.02)
        o = sigmoid(0.2 * 1.0 + 0.2 * 0.5 + 0.03)
        g = math.tanh(0.5 * 1.0 - 0.5 * 0.5 + 0.04)
        c_expect = f * 0.7 + i * g
        np.testing.assert_allclose(c, c_expect, rtol=1e-12)
        np.testing.assert_allclose(h, o * math.tanh(c_expect), rtol=1e-12)

    def test_init_stacks_four_gates(self):
        meta = tiny_instance(0)[0].meta
        params = init_params(meta, np.random.default_rng(0)).fwd
        h_dim, d = params.hidden_dim, params.input_dim  # read off the arrays
        assert (h_dim, d) == (meta.hidden_dim, meta.input_width)
        assert params.w.shape == (4 * h_dim, d + h_dim)
        np.testing.assert_array_equal(params.b, 0.0)
        # gate k owns rows [k*h, (k+1)*h): a bias on the forget rows alone
        # changes only how much of the carried cell survives
        params.w[:] = 0.0
        params.b[h_dim:2 * h_dim] = 50.0
        carried = np.linspace(-2.0, 1.0, h_dim)
        h, c = step(np.zeros(d), np.zeros(h_dim), carried, params)
        np.testing.assert_allclose(c, carried)
        np.testing.assert_allclose(h, 0.5 * np.tanh(carried))


class TestBiLstm:
    def test_palindrome_symmetry(self):
        # one window position: a palindromic sentence has palindromic input
        # rows, so with shared parameters the backward half of each row is
        # the forward half of its mirror row
        rng = np.random.default_rng(1)
        _, assembly, fwd, _, proj = small_net(rng, window=1)
        ids = [int(i) for i in rng.integers(5, size=5)]
        feats = [[int(a), int(b)] for a, b in rng.integers(4, size=(5, 2))]
        ids, feats = ids + ids[-2::-1], feats + feats[-2::-1]  # length 9
        sent = Sentence(tokens=["x"] * 9, features=np.array(feats), token_ids=np.array(ids))
        hidden = forward_sentence(sent, assembly, fwd, fwd, proj).hidden
        n, h_dim = 9, fwd.hidden_dim
        for t in range(n):
            np.testing.assert_allclose(
                hidden[t, :h_dim], hidden[n - 1 - t, h_dim:], rtol=1e-12
            )

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        sent, assembly, fwd, bwd, proj = small_net(rng, n=4)
        first = forward_sentence(sent, assembly, fwd, bwd, proj).hidden
        second = forward_sentence(sent, assembly, fwd, bwd, proj).hidden
        np.testing.assert_array_equal(first, second)

    def test_empty_rejected(self):
        _, assembly, fwd, bwd, proj = small_net(np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward_sentence(Sentence(tokens=[]), assembly, fwd, bwd, proj)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gemm_direction_matches_stepping_the_cell(self, reverse):
        # forward_sentence's first half steps the cell left to right over the
        # input rows, its second half right to left
        rng = np.random.default_rng(8)
        sent, assembly, small_fwd, _, proj = small_net(rng, n=6)
        for table in (assembly.token_table, assembly.slot_tables[0]):  # the slots share one table
            table.vectors *= 20.0  # inputs spread over about +-2
        width = small_fwd.input_dim
        fwd, bwd = (LstmParams(rng.normal(size=(12, width + 3)), rng.normal(size=12))
                    for _ in range(2))
        cache = forward_sentence(sent, assembly, fwd, bwd, proj)
        if reverse:
            params, half, steps = bwd, cache.hidden[:, 3:], range(5, -1, -1)
        else:
            params, half, steps = fwd, cache.hidden[:, :3], range(6)
        h, c = np.zeros(3), np.zeros(3)
        for t in steps:
            h, c = lstm_step(cache.inputs[t], h, c, params.w, params.b)
            np.testing.assert_allclose(half[t], h, rtol=1e-12, atol=1e-12)


class TestEmissions:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        proj = ProjectionParams(*reference_projection_init(4, 6, rng))
        em = emissions(rng.normal(size=(7, 6)) * 10, proj)
        np.testing.assert_allclose(np.exp(em.log_probs).sum(axis=1), 1.0, atol=1e-9)

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
        np.testing.assert_allclose(np.exp(emissions(hidden, proj).log_probs),
                                   np.exp(emissions(hidden, shifted).log_probs), atol=1e-12)

    def test_extreme_logits_stable(self):
        proj = ProjectionParams(np.eye(2) * 500, np.zeros(2))
        em = emissions(np.array([[1.0, -1.0]]), proj)
        assert np.isfinite(em.log_probs).all()
        np.testing.assert_allclose(np.exp(em.log_probs).sum(axis=1), 1.0)


def small_net(rng, n=3, window=3, d_tok=2, d_feat=2, hidden=3, n_labels=3):
    token = random_table(5, d_tok, rng)
    feat = random_table(4, d_feat, rng)
    assembly = InputAssembly(window, token, [feat, feat])
    width = window * d_tok + 2 * d_feat
    fwd = LstmParams(*reference_lstm_init(width, hidden, rng))
    bwd = LstmParams(*reference_lstm_init(width, hidden, rng))
    proj = ProjectionParams(*reference_projection_init(n_labels, 2 * hidden, rng))
    sent = Sentence(
        tokens=["x"] * n,
        features=np.array([[int(rng.integers(4)), int(rng.integers(4))] for _ in range(n)]),
        token_ids=np.array([int(rng.integers(5)) for _ in range(n)]),
    )
    return sent, assembly, fwd, bwd, proj


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        sent, assembly, fwd, bwd, proj = small_net(rng)
        cache = forward_sentence(sent, assembly, fwd, bwd, proj)
        grads = backward(cache, np.zeros_like(cache.em.log_probs), assembly, fwd, bwd, proj)
        d_token = grads.d_token.dense(assembly.token_table.size)
        d_feat = grads.d_feats[0].dense(assembly.slot_tables[0].size)
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
            (assembly.slot_tables[0].vectors,
             grads.d_feats[0].dense(assembly.slot_tables[0].size)),
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

    def test_a_margin_upstream_skips_the_softmax_term(self):
        # training's upstream, +1 at lbar and -1 at gold, sums to exactly zero
        # in every row, so the probabilities' term drops out bit for bit
        rng = np.random.default_rng(8)
        sent, assembly, fwd, bwd, proj = small_net(rng)
        cache = forward_sentence(sent, assembly, fwd, bwd, proj)
        upstream = np.zeros_like(cache.em.log_probs)
        rows, lbar, gold = np.arange(3), [2, 0, 1], [0, 0, 2]
        np.add.at(upstream, (rows, lbar), 1.0)
        np.add.at(upstream, (rows, gold), -1.0)
        grads = backward(cache, upstream, assembly, fwd, bwd, proj)
        assert np.array_equal(grads.d_b_y, upstream.sum(axis=0))
        assert np.array_equal(grads.d_w_hy, upstream.T @ cache.hidden)

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(7)
        sent, assembly, fwd, bwd, proj = small_net(rng)
        cache = forward_sentence(sent, assembly, fwd, bwd, proj)
        with pytest.raises(ValueError):
            backward(cache, np.zeros((2, 3)), assembly, fwd, bwd, proj)
