#!/usr/bin/env python3
"""The three margin triggers and what loss-augmented inference does.

Token accuracy and entity F-score disagree: truncating every entity by one
character keeps most labels right while driving entity F1 to zero. The
trigger function decides which of those errors training pushes hardest
against, and loss-augmented decoding surfaces the sequence that currently
violates the margin most.
"""

from mmner.corpus import TagScheme
from mmner.evaluation import token_accuracy
from mmner.training import _forward, loss_augmented_predict
from mmner.triggers import (
    Trigger,
    fscore_delta,
    hamming_delta,
    integrated_delta,
    sentence_f1,
)
from mmner.synthetic import tiny_instance

scheme = TagScheme.from_entity_types((("PER", "NAM"),))
B, I, O = scheme.index("B-PER.NAM"), scheme.index("I-PER.NAM"), scheme.outside_index

# --- the accuracy / F-score gap -------------------------------------------
gold = [B, I, O]
truncated = [B, O, O]
print("gold     ", [scheme.name(x) for x in gold])
print("truncated", [scheme.name(x) for x in truncated])
print("token accuracy:", round(token_accuracy([gold], [truncated]), 4))
print("entity F1:     ", sentence_f1(gold, truncated, scheme))

# --- the triggers on that example ------------------------------------------
kappa, beta = 0.2, 0.2
print(f"\nkappa={kappa}, beta={beta}")
print("hamming    delta =", hamming_delta(gold, truncated, kappa))
print("fscore     delta =", fscore_delta(gold, truncated, kappa, scheme))
print("integrated delta =", integrated_delta(gold, truncated, kappa, beta, scheme))

# hamming scales with the number of wrong tokens; fscore saturates at kappa
worse = [O, O, O]
print("\nall-O prediction (one more wrong token, same zero F1):")
print("hamming    delta =", hamming_delta(gold, worse, kappa))
print("fscore     delta =", fscore_delta(gold, worse, kappa, scheme))
print("integrated delta =", integrated_delta(gold, worse, kappa, beta, scheme))

# --- loss-augmented inference ----------------------------------------------
# The margin constraint wants s(gold) >= s(l) + delta(gold, l) for every l.
# Training therefore decodes argmax_l [ s(l) + delta(gold, l) ]: the plain
# score augmented by how much a mistake *should* be separated. With a large
# kappa the augmented argmax is pushed away from gold even when the model
# already decodes correctly.
params, sent = tiny_instance(seed=5, n_tokens=4)
em = _forward(sent, params).em
print("\ntiny random model, gold =", sent.gold_labels)
for kind in ("hamming", "fscore", "integrated"):
    for kappa in (0.0, 0.5, 3.0):
        trig = Trigger(kind, kappa=kappa, beta=0.2)
        got = loss_augmented_predict(sent, params, trig, beam_k=81)
        delta = trig.delta(sent.gold_labels, got.labels, params.meta.scheme)
        print(f"  {kind:<10} kappa={kappa:<4} -> {got.labels} "
              f"s={got.score:+.3f} delta={delta:+.3f}")
print("(kappa=0 is always the plain decoder output)")
