"""Bidirectional LSTM encoder with softmax emissions and exact reverse-mode
gradients for every parameter, embedding rows included.

Gate order in the stacked weight block is input, forget, output, candidate.
The cell is the standard forget-gate variant without peepholes:

    i = sigma(W_i [x; h_prev] + b_i)        f = sigma(W_f [x; h_prev] + b_f)
    o = sigma(W_o [x; h_prev] + b_o)        g = tanh (W_g [x; h_prev] + b_g)
    c = f * c_prev + i * g                  h = o * tanh(c)

Both directions start from zero states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Sentence
from .embeddings import InputAssembly, RowGrad, assemble_window, assembly_backward


@dataclass
class LstmParams:
    """One direction's recurrent parameters; the sizes are read off the arrays.

    ``w`` stacks the four gate matrices as (4*hidden, input+hidden) and ``b``
    the biases as (4*hidden,). Columns [:input] act on the input x (W_x),
    the rest on the previous hidden state (W_h).
    """

    w: np.ndarray
    b: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.b.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.w.shape[1] - self.hidden_dim


@dataclass
class ProjectionParams:
    """Affine map from hidden vectors to label logits."""

    w_hy: np.ndarray
    b_y: np.ndarray


def _activate(a: np.ndarray, c_prev: np.ndarray, h_dim: int):
    """Turn one step's gate pre-activations ``a`` (4*hidden,) into gate
    activations in place (one sigmoid over i/f/o, tanh over g) and return
    (h, c, tanh(c))."""
    ifo = a[:3 * h_dim]
    ifo *= 0.5
    np.tanh(ifo, out=ifo)  # sigma(x) = (1 + tanh(x/2)) / 2, stable for any x
    ifo += 1.0
    ifo *= 0.5
    g = a[3 * h_dim:]
    np.tanh(g, out=g)
    c = a[h_dim:2 * h_dim] * c_prev
    c += a[:h_dim] * g
    tc = np.tanh(c)
    return a[2 * h_dim:3 * h_dim] * tc, c, tc


def _run_direction(inputs: np.ndarray, params: LstmParams):
    """(hidden states, cache) of one left-to-right pass over ``inputs``; the
    cache holds the gate activations (n, 4*hidden), the tanh of the cell
    states (n, hidden), and the cell and hidden states (n+1, hidden), whose
    row t is the state step t starts from (row 0 the zero start state).

    The input projection of every step is one GEMM; the loop keeps only the
    recurrent matvec and the gate nonlinearities.
    """
    n, d, h_dim = inputs.shape[0], params.input_dim, params.hidden_dim
    act = inputs @ params.w[:, :d].T
    act += params.b
    w_h = params.w[:, d:]
    tc_all = np.empty((n, h_dim))
    c_all, h_all = np.zeros((n + 1, h_dim)), np.zeros((n + 1, h_dim))
    for t in range(n):
        a = act[t]
        a += w_h @ h_all[t]
        h_all[t + 1], c_all[t + 1], tc_all[t] = _activate(a, c_all[t], h_dim)
    return h_all[1:], (act, tc_all, c_all, h_all)


def _direction_backward(
    d_hidden: np.ndarray,
    inputs: np.ndarray,
    cache: tuple[np.ndarray, ...],
    params: LstmParams,
):
    """(dW, db, d_inputs) of one :func:`_run_direction` pass. The loop only
    runs the gate deltas back through time; the weight and input gradients
    are GEMMs over the stacked deltas."""
    n, d, h_dim = inputs.shape[0], params.input_dim, params.hidden_dim
    act, tc, c_all, h_all = cache
    i, f, o, g = (act[:, k * h_dim:(k + 1) * h_dim] for k in range(4))
    # d a_t = fac_t * (dc, dc, dh, dc) gate by gate
    fac = np.empty((n, 4, h_dim))
    fac[:, 0] = g * i * (1.0 - i)
    fac[:, 1] = c_all[:-1] * f * (1.0 - f)
    fac[:, 2] = tc * o * (1.0 - o)
    fac[:, 3] = i * (1.0 - g * g)
    dh_to_dc = o * (1.0 - tc * tc)
    w_h_t = params.w[:, d:].T
    da = np.empty((n, 4, h_dim))
    carry_h = np.zeros(h_dim)
    carry_c = np.zeros(h_dim)
    for t in range(n - 1, -1, -1):
        dh = d_hidden[t] + carry_h
        dc = dh * dh_to_dc[t]
        dc += carry_c
        np.multiply(fac[t], dc, out=da[t])
        np.multiply(fac[t, 2], dh, out=da[t, 2])
        carry_h = w_h_t @ da[t].reshape(-1)
        carry_c = dc * f[t]
    da = da.reshape(n, 4 * h_dim)
    dw = np.empty_like(params.w)
    np.matmul(da.T, inputs, out=dw[:, :d])
    np.matmul(da.T, h_all[:-1], out=dw[:, d:])
    return dw, da.sum(axis=0), da @ params.w[:, :d]


@dataclass
class EmissionMatrix:
    """Per-position label distributions; rows of ``probs`` sum to one."""

    probs: np.ndarray
    log_probs: np.ndarray

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def n_labels(self) -> int:
        return self.probs.shape[1]


def emissions(hidden: np.ndarray, proj: ProjectionParams) -> EmissionMatrix:
    """Row-wise stabilized softmax of the projected hidden vectors."""
    logits = hidden @ proj.w_hy.T + proj.b_y
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    return EmissionMatrix(exp / denom, shifted - np.log(denom))


@dataclass
class SentenceCache:
    """Everything the backward pass needs for one sentence."""

    sentence: Sentence
    inputs: np.ndarray
    fwd_cache: tuple
    bwd_cache: tuple
    hidden: np.ndarray
    em: EmissionMatrix


def forward_sentence(
    sentence: Sentence,
    assembly: InputAssembly,
    fwd: LstmParams,
    bwd: LstmParams,
    proj: ProjectionParams,
) -> SentenceCache:
    """Hidden vectors h_t = [forward_t ; backward_t] (n, 2*hidden), their
    emissions, and both directions' caches. The backward direction is the
    forward routine on the reversed sentence; its cache stays reversed."""
    if len(sentence) == 0:
        raise ValueError("empty sentence")
    inputs = assemble_window(sentence, assembly)
    h_fwd, fwd_cache = _run_direction(inputs, fwd)
    h_bwd, bwd_cache = _run_direction(inputs[::-1], bwd)
    hidden = np.concatenate([h_fwd, h_bwd[::-1]], axis=1)
    return SentenceCache(sentence, inputs, fwd_cache, bwd_cache, hidden, emissions(hidden, proj))


@dataclass
class NetworkGrads:
    d_token: RowGrad
    d_feats: list[RowGrad]
    d_fwd_w: np.ndarray
    d_fwd_b: np.ndarray
    d_bwd_w: np.ndarray
    d_bwd_b: np.ndarray
    d_w_hy: np.ndarray
    d_b_y: np.ndarray


def backward(
    cache: SentenceCache,
    d_log_probs: np.ndarray,
    assembly: InputAssembly,
    fwd: LstmParams,
    bwd: LstmParams,
    proj: ProjectionParams,
) -> NetworkGrads:
    """Exact gradients of sum(d_log_probs * log y) for all network tensors.

    ``d_log_probs`` is the upstream gradient at the per-position label
    log-probabilities, shape (n, n_labels).
    """
    if d_log_probs.shape != cache.em.log_probs.shape:
        raise ValueError("upstream gradient shape mismatch")
    probs = cache.em.probs
    # d log y / d logits folds the softmax normalizer back in.
    d_logits = d_log_probs - probs * d_log_probs.sum(axis=1, keepdims=True)
    d_w_hy = d_logits.T @ cache.hidden
    d_b_y = d_logits.sum(axis=0)
    d_hidden = d_logits @ proj.w_hy

    h_dim = fwd.hidden_dim
    d_fwd_w, d_fwd_b, d_inputs = _direction_backward(
        d_hidden[:, :h_dim], cache.inputs, cache.fwd_cache, fwd
    )
    d_bwd_w, d_bwd_b, d_in_bwd = _direction_backward(
        d_hidden[::-1, h_dim:], cache.inputs[::-1], cache.bwd_cache, bwd
    )
    d_inputs += d_in_bwd[::-1]
    d_token, d_feats = assembly_backward(d_inputs, cache.sentence, assembly)
    return NetworkGrads(d_token, d_feats, d_fwd_w, d_fwd_b, d_bwd_w, d_bwd_b, d_w_hy, d_b_y)
