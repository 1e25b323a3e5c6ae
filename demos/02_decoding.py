#!/usr/bin/env python3
"""Exact and top-k decoding over a toy scoring problem.

A label sequence is scored by summing, at each position, a learned
transition score from the previous label plus the log emission probability.
Viterbi finds the argmax exactly; the beam keeps the k best prefixes and,
at full width, reproduces the complete ranking.
"""

import itertools

import numpy as np

from mmner.network import EmissionMatrix
from mmner.structured import beam_topk, sentence_score, viterbi

rng = np.random.default_rng(42)
n, n_labels = 4, 3

logits = rng.normal(0.0, 1.5, (n, n_labels))
shifted = logits - logits.max(axis=1, keepdims=True)
probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
em = EmissionMatrix(np.log(probs))
# one extra row: transitions out of the virtual start state
trans = rng.normal(0.0, 1.0, (n_labels + 1, n_labels))

print(f"{n} positions, {n_labels} labels -> {n_labels ** n} candidate sequences")

best = viterbi(em, trans)
print("\nviterbi:", best.labels, f"score {best.score:.4f}")

# cross-check against exhaustive enumeration
scored = sorted(
    ((sentence_score(em, trans, labels), list(labels))
     for labels in itertools.product(range(n_labels), repeat=n)),
    key=lambda pair: (-pair[0], pair[1]),
)
assert best.labels == scored[0][1]
assert abs(best.score - scored[0][0]) < 1e-12
print("matches exhaustive enumeration")

print("\ntop-5 by beam vs enumeration:")
for got, (want_score, want_labels) in zip(beam_topk(em, trans, 5), scored[:5]):
    print(f"  beam {got.labels} {got.score:+.4f}   enum {want_labels} {want_score:+.4f}")

# the first beam entry is always the exact Viterbi argmax; what a narrow
# beam can miss are lower-ranked sequences, since only k prefixes survive
# each step. Measure recall of the true top-5 under a width-5 beam.
trials, found = 200, 0
for _ in range(trials):
    logits = rng.normal(0.0, 1.5, (n, n_labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    em_t = EmissionMatrix(np.log(p))
    tr = rng.normal(0.0, 1.0, (n_labels + 1, n_labels))
    truth = {
        tuple(labels)
        for _, labels in sorted(
            ((sentence_score(em_t, tr, lab), lab)
             for lab in itertools.product(range(n_labels), repeat=n)),
            key=lambda pair: -pair[0],
        )[:5]
    }
    found += sum(tuple(s.labels) in truth for s in beam_topk(em_t, tr, 5))
print(f"\nwidth-5 beam recovers {found / (5 * trials):.3f} of the true top-5")
