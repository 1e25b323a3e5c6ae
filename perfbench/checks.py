"""Correctness checks the benchmark runs on the outputs it times.

- ``reference_gap``: an independent NumPy BiLSTM + Viterbi, built only from
  ``ModelParams.named_tensors()``, gives the best attainable sentence score;
  the labels ``predict_labels`` returned must attain it.
- ``directional_check``: one ``mmner.train`` step on one sentence with
  l2 = 0 moves the parameters by delta = -lr * g, so the directional
  derivative of the instance loss along delta is -||delta||^2 / lr. A central
  difference of ``instance_loss`` along delta must agree at one of a
  decreasing series of steps.
- ``digest`` and ``all_finite`` summarize a trained model.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

import mmner
from mmner import Sentence, TrainConfig

PAD_INDEX = 1
# Central differences err by O(step^2): a correct gradient passes once the
# step is small enough, a wrong one misses by a fixed share at every step.
# Partly trained parameters take large steps (||delta|| up to ~25), which
# need the smaller steps.
FD_STEPS = (1e-3, 1e-4, 1e-5, 1e-6)
FD_TOLERANCE = 1e-4


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * a))


def _lstm_direction(inputs: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hidden states of one direction; gate order input, forget, output, candidate."""
    h_dim = b.shape[0] // 4
    h, c = np.zeros(h_dim), np.zeros(h_dim)
    out = np.empty((inputs.shape[0], h_dim))
    for t, x in enumerate(inputs):
        a = w @ np.concatenate([x, h]) + b
        i, f, o = _sigmoid(a[:h_dim]), _sigmoid(a[h_dim:2 * h_dim]), _sigmoid(a[2 * h_dim:3 * h_dim])
        c = f * c + i * np.tanh(a[3 * h_dim:])
        h = o * np.tanh(c)
        out[t] = h
    return out


def reference_log_probs(sentence: Sentence, tensors: dict[str, np.ndarray], window: int) -> np.ndarray:
    """Per-position label log-probabilities of a positional, bigram model."""
    n = len(sentence)
    half = window // 2
    padded = np.array([PAD_INDEX] * half + list(sentence.token_ids) + [PAD_INDEX] * half)
    tok = tensors["emb_token"]
    feats = np.array(sentence.features, dtype=np.intp).reshape(n, -1)
    parts = [tok[padded[k:k + n]] for k in range(window)]
    parts += [tensors["emb_bigram"][feats[:, s]] for s in range(feats.shape[1])]
    x = np.concatenate(parts, axis=1)
    fwd = _lstm_direction(x, tensors["lstm_fwd_w"], tensors["lstm_fwd_b"])
    bwd = _lstm_direction(x[::-1], tensors["lstm_bwd_w"], tensors["lstm_bwd_b"])[::-1]
    logits = np.concatenate([fwd, bwd], axis=1) @ tensors["proj_w"].T + tensors["proj_b"]
    top = logits.max(axis=1, keepdims=True)
    return logits - top - np.log(np.exp(logits - top).sum(axis=1, keepdims=True))


def reference_best_score(log_probs: np.ndarray, trans: np.ndarray) -> float:
    """max over label sequences of sum_t trans[prev, l_t] + log_probs[t, l_t]."""
    n_labels = log_probs.shape[1]
    best = trans[n_labels] + log_probs[0]
    for row in log_probs[1:]:
        best = (best[:, None] + trans[:n_labels]).max(axis=0) + row
    return float(best.max())


def sequence_score(log_probs: np.ndarray, trans: np.ndarray, labels: list[int]) -> float:
    if len(labels) != log_probs.shape[0]:
        raise ValueError(f"{len(labels)} labels for {log_probs.shape[0]} positions")
    prev = log_probs.shape[1]
    total = 0.0
    for t, lab in enumerate(labels):
        total += trans[prev, lab] + log_probs[t, lab]
        prev = lab
    return float(total)


def reference_gap(sentence: Sentence, params, labels: list[int]) -> float:
    """How far the given labels fall below the reference best score."""
    tensors = params.named_tensors()
    log_probs = reference_log_probs(sentence, tensors, params.meta.window)
    trans = tensors["transitions"]
    return reference_best_score(log_probs, trans) - sequence_score(log_probs, trans, labels)


def directional_check(sentence: Sentence, fresh, config: TrainConfig) -> tuple[str, float]:
    """("ok" | "fail" | "tie" | "no-violation", relative error).

    ``fresh()`` returns the starting parameters, the same on every call.
    The step uses ``config``'s trigger, beam width and learning rate, with
    l2 = 0 and one epoch.
    "ok" means the central difference agreed within FD_TOLERANCE at some
    step; "fail" gives the smallest error over the steps where the argmax
    stayed put. "tie" means the loss-augmented argmax moved within every
    probed step, so the loss is not differentiable there.
    """
    trigger, beam_k, lr = config.trigger, config.beam_k, config.learning_rate
    moved = fresh()
    _, lbar = mmner.instance_loss(sentence, moved, trigger, beam_k)
    if lbar.labels == sentence.gold_labels:
        return "no-violation", 0.0
    step_config = dataclasses.replace(config, l2_lambda=0.0, epochs=1)
    probe, _ = mmner.train(moved, [sentence], [], step_config)
    base = fresh()
    base_t, delta, probe_t = base.named_tensors(), moved.named_tensors(), probe.named_tensors()
    sq = 0.0
    for name, arr in delta.items():
        arr -= base_t[name]
        sq += float((arr * arr).sum())
    expected = -sq / lr
    if expected == 0.0:
        return "fail", float("inf")
    errors = []
    for step in FD_STEPS:
        losses = []
        for sign in (1.0, -1.0):
            for name, arr in probe_t.items():
                np.multiply(delta[name], sign * step, out=arr)
                arr += base_t[name]
            q, moved_lbar = mmner.instance_loss(sentence, probe, trigger, beam_k)
            if moved_lbar.labels != lbar.labels:
                break
            losses.append(q)
        else:
            numeric = (losses[0] - losses[1]) / (2.0 * step)
            errors.append(abs(numeric - expected) / abs(expected))
            if errors[-1] <= FD_TOLERANCE:
                return "ok", errors[-1]
    return ("fail", min(errors)) if errors else ("tie", 0.0)


def digest(params) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name, arr in params.named_tensors().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).data)
    return h.hexdigest()


def all_finite(params) -> bool:
    return all(bool(np.isfinite(arr).all()) for arr in params.named_tensors().values())
