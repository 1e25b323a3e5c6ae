#!/usr/bin/env python3
"""Sweep the beta mixing weight of the integrated trigger.

The integrated margin is fscore_delta + beta * hamming_delta: beta = 0 is
pure sentence-F-score loss, large beta approaches per-token Hamming loss.
This trains one model per beta on a synthetic corpus and tabulates held-out
entity F1. On synthetic data no particular beta should be expected to win;
the point is the harness."""

import numpy as np

from mmner.evaluation import evaluate
from mmner.model import ModelMeta, init_params
from mmner.synthetic import synthetic_corpus
from mmner.training import TrainConfig, predict_all, train
from mmner.triggers import Trigger

BETAS = (0.0, 0.1, 0.2, 0.5, 1.0)

corpus = synthetic_corpus(n_sentences=30, seed=7)
heldout = synthetic_corpus(n_sentences=10, seed=9)

meta = ModelMeta.from_corpus(
    corpus.sentences, None, scheme=corpus.scheme, mode="positional", bigrams=False,
    window=3, d_token=16, d_feature=8, hidden_dim=16,
)
train_set = meta.encode(corpus.sentences, None)
dev_set = meta.encode(heldout.sentences, None)

# identical initialization for every beta, so the sweep isolates the trigger
params0 = init_params(meta, np.random.default_rng(1))

print("beta\tmean-q@final\toverall_f1")
for beta in BETAS:
    config = TrainConfig(
        trigger=Trigger("integrated", kappa=0.2, beta=beta),
        learning_rate=0.1, decay=0.95, l2_lambda=1e-6,
        epochs=5, beam_k=8, seed=1, window=3,
    )
    best, log = train(params0.copy(), train_set, dev_set, config)
    preds = predict_all(dev_set, best)
    f1 = evaluate(dev_set, preds, corpus.scheme).overall_f1
    final_q = log[-1].split("\t")[2]
    print(f"{beta:g}\t{final_q}\t{f1:.4f}")

print("\n(same table via the command line: mmner train --beta-sweep 0,0.1,0.2,0.5,1.0)")
