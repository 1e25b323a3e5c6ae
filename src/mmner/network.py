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


def glorot(rng: np.random.Generator, rows: int, cols: int, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(rows, cols))


@dataclass
class LstmParams:
    """One direction's recurrent parameters.

    ``w`` stacks the four gate matrices as (4*hidden, input+hidden) and ``b``
    the biases as (4*hidden,). Columns [:input] act on the input x (W_x),
    the rest on the previous hidden state (W_h).
    """

    input_dim: int
    hidden_dim: int
    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        h, d = self.hidden_dim, self.input_dim
        if self.w.shape != (4 * h, d + h):
            raise ValueError(f"gate weight block must be {(4 * h, d + h)}, got {self.w.shape}")
        if self.b.shape != (4 * h,):
            raise ValueError(f"gate bias block must be ({4 * h},), got {self.b.shape}")

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> "LstmParams":
        w = glorot(rng, 4 * hidden_dim, input_dim + hidden_dim,
                   input_dim + hidden_dim, hidden_dim)
        return cls(input_dim, hidden_dim, w, np.zeros(4 * hidden_dim))


@dataclass
class ProjectionParams:
    """Affine map from hidden vectors to label logits."""

    w_hy: np.ndarray
    b_y: np.ndarray

    def __post_init__(self):
        if self.w_hy.ndim != 2 or self.b_y.shape != (self.w_hy.shape[0],):
            raise ValueError("projection shapes inconsistent")

    @classmethod
    def init(cls, n_labels: int, hidden_width: int, rng: np.random.Generator) -> "ProjectionParams":
        w = glorot(rng, n_labels, hidden_width, hidden_width, n_labels)
        return cls(w, np.zeros(n_labels))


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


def lstm_cell(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, params: LstmParams):
    """One recurrence step; returns (h, c)."""
    if x.shape != (params.input_dim,) or h_prev.shape != (params.hidden_dim,):
        raise ValueError("input or state dimension mismatch")
    a = params.w @ np.concatenate([x, h_prev]) + params.b
    h, c, _ = _activate(a, c_prev, params.hidden_dim)
    return h, c


def _steps(n: int, reverse: bool):
    return range(n - 1, -1, -1) if reverse else range(n)


def _previous(rows: np.ndarray, reverse: bool) -> np.ndarray:
    """Row t holds the state the recurrence saw before step t (zero first)."""
    out = np.roll(rows, -1 if reverse else 1, axis=0)
    out[-1 if reverse else 0] = 0.0
    return out


def _run_direction(inputs: np.ndarray, params: LstmParams, reverse: bool):
    """(hidden states, cache) of one direction, rows in sentence order; the
    cache holds the gate activations (n, 4*hidden), the cell states and their
    tanh (n, hidden).

    The input projection of every step is one GEMM; the loop keeps only the
    recurrent matvec and the gate nonlinearities.
    """
    n, d, h_dim = inputs.shape[0], params.input_dim, params.hidden_dim
    act = inputs @ params.w[:, :d].T
    act += params.b
    w_h = params.w[:, d:]
    c_all, tc_all, hidden = np.empty((n, h_dim)), np.empty((n, h_dim)), np.empty((n, h_dim))
    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    for t in _steps(n, reverse):
        a = act[t]
        a += w_h @ h
        h, c, tc = _activate(a, c, h_dim)
        hidden[t], c_all[t], tc_all[t] = h, c, tc
    return hidden, (act, c_all, tc_all)


def _direction_backward(
    d_hidden: np.ndarray,
    inputs: np.ndarray,
    hidden: np.ndarray,
    cache: tuple[np.ndarray, np.ndarray, np.ndarray],
    params: LstmParams,
    reverse: bool,
):
    """(dW, db, d_inputs) of one direction. The loop only runs the gate
    deltas back through time; the weight and input gradients are GEMMs over
    the stacked deltas."""
    n, d, h_dim = inputs.shape[0], params.input_dim, params.hidden_dim
    act, c, tc = cache
    i, f, o, g = (act[:, k * h_dim:(k + 1) * h_dim] for k in range(4))
    # d a_t = fac_t * (dc, dc, dh, dc) gate by gate
    fac = np.empty((n, 4, h_dim))
    fac[:, 0] = g * i * (1.0 - i)
    fac[:, 1] = _previous(c, reverse) * f * (1.0 - f)
    fac[:, 2] = tc * o * (1.0 - o)
    fac[:, 3] = i * (1.0 - g * g)
    dh_to_dc = o * (1.0 - tc * tc)
    w_h_t = params.w[:, d:].T
    da = np.empty((n, 4, h_dim))
    carry_h = np.zeros(h_dim)
    carry_c = np.zeros(h_dim)
    for t in _steps(n, not reverse):
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
    np.matmul(da.T, _previous(hidden, reverse), out=dw[:, d:])
    return dw, da.sum(axis=0), da @ params.w[:, :d]


def _bilstm(inputs: np.ndarray, fwd: LstmParams, bwd: LstmParams):
    """(hidden (n, 2*hidden), forward cache, backward cache)."""
    if inputs.shape[0] == 0:
        raise ValueError("empty input sequence")
    h_fwd, fwd_cache = _run_direction(inputs, fwd, reverse=False)
    h_bwd, bwd_cache = _run_direction(inputs, bwd, reverse=True)
    return np.concatenate([h_fwd, h_bwd], axis=1), fwd_cache, bwd_cache


def bilstm_forward(inputs: np.ndarray, fwd: LstmParams, bwd: LstmParams) -> np.ndarray:
    """Hidden vectors h_t = [forward_t ; backward_t], shape (n, 2*hidden)."""
    return _bilstm(inputs, fwd, bwd)[0]


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
    if len(sentence) == 0:
        raise ValueError("empty sentence")
    inputs = assemble_window(sentence, assembly)
    hidden, fwd_cache, bwd_cache = _bilstm(inputs, fwd, bwd)
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
        d_hidden[:, :h_dim], cache.inputs, cache.hidden[:, :h_dim], cache.fwd_cache, fwd, False
    )
    d_bwd_w, d_bwd_b, d_in_bwd = _direction_backward(
        d_hidden[:, h_dim:], cache.inputs, cache.hidden[:, h_dim:], cache.bwd_cache, bwd, True
    )
    d_inputs += d_in_bwd
    d_token, d_feats = assembly_backward(d_inputs, cache.sentence, assembly)
    return NetworkGrads(d_token, d_feats, d_fwd_w, d_fwd_b, d_bwd_w, d_bwd_b, d_w_hy, d_b_y)
