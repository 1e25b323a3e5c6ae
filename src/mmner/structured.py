"""Sequence-level scoring and decoding.

A label sequence l_1..l_n over emissions y scores

    s(l) = sum_t  A[l_{t-1}, l_t] + log y_t[l_t]

where A is a ((|Y|+1) x |Y|) transition score matrix whose last row is the
distinguished start row (the predecessor of position 1). There is no end
transition. Every function here adds the terms A[l_{t-1}, l_t] + log y_t[l_t]
left to right from 0.0. Rounding is monotone, so Viterbi's DP is the exact
argmax in floating point, not only in exact arithmetic. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import EmissionMatrix


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
    """Score one label sequence by the module's rule; 0.0 for no labels."""
    n, n_labels = em.n, em.n_labels
    check_transitions(trans, n_labels)
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    path = np.array([n_labels, *labels])  # non-integer labels fail to index
    terms = trans[path[:-1], path[1:]] + em.log_probs[np.arange(n), path[1:]]
    if path.min() < 0:  # indexing above wraps a negative label
        raise IndexError(f"labels must lie in [0, {n_labels}), got {path.min()}")
    return float(np.add.accumulate(np.append(0.0, terms))[-1])


def viterbi(em: EmissionMatrix, trans: np.ndarray) -> ScoredSequence:
    """Exact argmax of sentence_score; ties break toward the lower label index.
    The score is the DP's value, the winner's sentence_score bit for bit."""
    n, n_labels = em.n, em.n_labels
    check_transitions(trans, n_labels)
    if n < 1:
        raise ValueError("empty emission matrix")
    steps = trans[:n_labels] + em.log_probs[1:, None, :]  # (t, prev, next)
    delta = 0.0 + (trans[n_labels] + em.log_probs[0])  # from 0.0: -0.0 sums to 0.0
    back = np.empty((n, n_labels), dtype=np.intp)
    for t in range(1, n):
        cand = delta[:, None] + steps[t - 1]
        cand.argmax(axis=0, out=back[t])  # first max <=> lowest index
        delta = cand.max(axis=0)
    labels = [0] * (n - 1) + [int(delta.argmax())]
    for t in range(n - 1, 0, -1):
        labels[t - 1] = int(back[t, labels[t]])
    return ScoredSequence(labels, float(delta[labels[-1]]))


def beam_topk(em: EmissionMatrix, trans: np.ndarray, k: int) -> list[ScoredSequence]:
    """Up to k distinct sequences by per-position beam expansion.

    Prefix scores are exact, so with a beam wide enough to hold everything
    the result is the full enumeration. Scores add up by sentence_score's
    rule, so the hoisted Viterbi sequence, always first, holds the top score;
    the rest come in non-increasing score order, ties toward the
    lexicographically smaller label sequence. The beam is held in
    lexicographic order, so one stable sort of the flattened (beam x label)
    scores per position breaks ties that way too.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vit = viterbi(em, trans)  # checks the transitions and the empty case
    n, n_labels = em.n, em.n_labels
    prev, scores = np.array([n_labels]), np.zeros(1)  # the empty prefix, on the start row
    paths = np.empty((1, 0), dtype=np.intp)
    for t in range(n):
        step = trans[prev] + em.log_probs[t]  # (beam, label)
        grown = (scores[:, None] + step).ravel()
        keep = np.sort(np.argsort(-grown, kind="stable")[:k])  # back to lexicographic
        parent, prev = np.divmod(keep, n_labels)
        paths, scores = np.column_stack((paths[parent], prev)), grown[keep]

    best = np.argsort(-scores, kind="stable")
    rest = [ScoredSequence(labels, score)
            for labels, score in zip(paths[best].tolist(), scores[best].tolist())
            if labels != vit.labels]
    return [vit] + rest[: k - 1]
