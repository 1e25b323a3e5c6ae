"""Shared plumbing for tests that need a real model over a real corpus."""

import numpy as np

from mmner.model import ModelMeta, init_params


def build_from_raw(
    raw_sentences,
    scheme,
    mode="positional",
    bigrams=True,
    seg_map=None,
    window=3,
    d_token=8,
    d_feature=4,
    hidden=8,
    seed=0,
):
    """Vocabularies, metadata, fresh params and encoded sentences in one go."""
    meta = ModelMeta.from_corpus(
        raw_sentences, seg_map, scheme=scheme, mode=mode, bigrams=bigrams, window=window,
        d_token=d_token, d_feature=d_feature, hidden_dim=hidden)
    params = init_params(meta, np.random.default_rng(seed))
    return params, meta.encode(raw_sentences, seg_map)
