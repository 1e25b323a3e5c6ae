#!/usr/bin/env python3
"""Train the full tagger on a synthetic corpus until it memorizes it.

The corpus maps each character to exactly one entity surface (or filler),
so a working model/trainer pair must reach entity F1 = 1.0 on its own
training data. This script wires the whole pipeline by hand: metadata and
vocabularies, parameter init, encoding, the training loop, and serialization.
"""

import os
import tempfile

import numpy as np

from mmner.evaluation import evaluate, render_report
from mmner.model import ModelMeta, init_params
from mmner.synthetic import synthetic_corpus
from mmner.training import (
    TrainConfig,
    load_model,
    predict_all,
    save_model,
    train,
)
from mmner.triggers import Trigger

corpus = synthetic_corpus(n_sentences=40, seed=7)
heldout = synthetic_corpus(n_sentences=10, seed=8)
print(f"{len(corpus.sentences)} training sentences, e.g.:")
s = corpus.sentences[0]
print(" ", " ".join(f"{t}/{corpus.scheme.name(g)}" for t, g in zip(s.tokens, s.gold_labels)))

# vocabularies come from the training split only; small dims keep this demo
# quick (the defaults are 100/100/100 with window 5)
meta = ModelMeta.from_corpus(
    corpus.sentences, None, scheme=corpus.scheme, mode="positional", bigrams=True,
    window=3, d_token=16, d_feature=8, hidden_dim=16,
)
print(f"\n{len(meta.token_itos)} token types, {len(meta.bigram_itos)} bigram types")
rng = np.random.default_rng(1)
params = init_params(meta, rng)

train_set = meta.encode(corpus.sentences, None)
dev_set = meta.encode(heldout.sentences, None)

config = TrainConfig(
    trigger=Trigger("integrated", kappa=0.2, beta=0.2),
    learning_rate=0.1, decay=0.95, l2_lambda=1e-6,
    epochs=8, beam_k=8, seed=1, window=3,
)
print("\nepoch\tlr\tmean q\tnamed\tnominal\toverall")
best, log = train(params, train_set, dev_set, config)
for line in log:
    print(line)

preds = predict_all(train_set, best)
print("\ntraining-set report for the selected model:")
print(render_report(evaluate(train_set, preds, corpus.scheme)))

# byte-exact serialization round trip
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo.bin")
    save_model(best, path)
    size = os.path.getsize(path)
    reloaded = load_model(path)
    same = all(
        a.tobytes() == b.tobytes()
        for a, b in zip(best.named_tensors().values(), reloaded.named_tensors().values())
    )
print(f"\nmodel file: {size} bytes; reload bit-exact: {same}")
