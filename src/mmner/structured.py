"""Sequence-level scoring and decoding.

A label sequence l_1..l_n over emissions y scores

    s(l) = sum_t  A[l_{t-1}, l_t] + log y_t[l_t]

where A is a ((|Y|+1) x |Y|) transition score matrix whose last row is the
distinguished start row (the predecessor of position 1). There is no end
transition. All functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import EmissionMatrix

START = -1  # alias: transitions[START] is the start row


def check_transitions(trans: np.ndarray, n_labels: int) -> None:
    if trans.shape != (n_labels + 1, n_labels):
        raise ValueError(
            f"transition matrix must be {(n_labels + 1, n_labels)}, got {trans.shape}"
        )


@dataclass
class ScoredSequence:
    """A label sequence together with its sentence-level score."""

    labels: list[int]
    score: float


def sentence_score(em: EmissionMatrix, trans: np.ndarray, labels) -> float:
    """Score one label sequence; pure, exact order of accumulation."""
    n, n_labels = em.n, em.n_labels
    check_transitions(trans, n_labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    total = 0.0
    prev = n_labels
    for t, lab in enumerate(labels):
        total += float(trans[prev, lab] + em.log_probs[t, lab])
        prev = lab
    return total


def viterbi(em: EmissionMatrix, trans: np.ndarray) -> ScoredSequence:
    """Exact argmax decode; ties break toward the lower label index."""
    n, n_labels = em.n, em.n_labels
    check_transitions(trans, n_labels)
    if n < 1:
        raise ValueError("empty emission matrix")
    delta = trans[n_labels] + em.log_probs[0]
    back = np.empty((n, n_labels), dtype=np.intp)
    for t in range(1, n):
        cand = delta[:, None] + trans[:n_labels]  # (prev, next)
        best_prev = cand.argmax(axis=0)  # first max <=> lowest index
        delta = cand[best_prev, np.arange(n_labels)] + em.log_probs[t]
        back[t] = best_prev
    last = int(delta.argmax())
    labels = [0] * n
    labels[-1] = last
    for t in range(n - 1, 0, -1):
        labels[t - 1] = int(back[t, labels[t]])
    return ScoredSequence(labels, sentence_score(em, trans, labels))


def beam_topk(em: EmissionMatrix, trans: np.ndarray, k: int) -> list[ScoredSequence]:
    """Up to k distinct sequences by per-position beam expansion.

    Prefix scores are exact, so with a beam wide enough to hold everything
    the result is the full enumeration. The first element is always the
    Viterbi sequence (exact top-1, hoisted); the rest come in non-increasing
    score order, ties toward the lexicographically smaller label sequence.
    """
    n, n_labels = em.n, em.n_labels
    check_transitions(trans, n_labels)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 1:
        raise ValueError("empty emission matrix")

    beam = [
        (float(trans[n_labels, lab] + em.log_probs[0, lab]), (lab,))
        for lab in range(n_labels)
    ]
    beam.sort(key=lambda item: (-item[0], item[1]))
    beam = beam[:k]
    for t in range(1, n):
        grown = [
            (score + float(trans[prefix[-1], lab] + em.log_probs[t, lab]), prefix + (lab,))
            for score, prefix in beam
            for lab in range(n_labels)
        ]
        grown.sort(key=lambda item: (-item[0], item[1]))
        beam = grown[:k]

    # the beam is in (-score, labels) order, and its prefix scores are summed
    # in sentence_score's order, so they are exact as they stand
    vit = viterbi(em, trans)
    rest = [ScoredSequence(list(prefix), score) for score, prefix in beam
            if list(prefix) != vit.labels]
    return [vit] + rest[: k - 1]
