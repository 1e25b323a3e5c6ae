#!/usr/bin/env python3
"""Sweep the beta mixing weight of the integrated trigger.

The integrated margin is fscore_delta + beta * hamming_delta: beta = 0 is
pure sentence-F-score loss, large beta approaches per-token Hamming loss.
This trains one model per beta on a synthetic corpus and tabulates held-out
entity F1. On synthetic data no particular beta should be expected to win;
the point is the harness."""

import numpy as np

from mmner.corpus import build_vocab, encode_corpus, vocab_sources
from mmner.evaluation import evaluate
from mmner.model import ModelMeta, init_params
from mmner.synthetic import synthetic_corpus
from mmner.training import TrainConfig, predict_all, train
from mmner.triggers import Trigger

BETAS = (0.0, 0.1, 0.2, 0.5, 1.0)

corpus = synthetic_corpus(n_sentences=30, seed=7)
heldout = synthetic_corpus(n_sentences=10, seed=9)

mode, bigrams = "positional", False
token_strings, _ = vocab_sources(corpus.sentences, None, mode, bigrams)
token_vocab = build_vocab(token_strings)
meta = ModelMeta(
    scheme=corpus.scheme, mode=mode, bigrams=bigrams, window=3,
    d_token=16, d_feature=8, hidden_dim=16,
    token_itos=tuple(token_vocab.itos), bigram_itos=(),
)
train_set = encode_corpus(corpus.sentences, None, mode, bigrams, token_vocab, {})
dev_set = encode_corpus(heldout.sentences, None, mode, bigrams, token_vocab, {})

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
