"""The hand-written gradient at the paper's scale: d = hidden = 100, window 5,
positional with bigrams, sentences of about 50 characters. One SGD step with
l2 = 0 moves the parameters by delta = -lr * g, so the central difference of
the instance loss along delta must equal -||delta||^2 / lr. The check is
perfbench's ``directional_check``, imported from the repository root."""

import sys
from pathlib import Path

import numpy as np
import pytest

from mmner import TrainConfig, Trigger
from mmner.model import ModelMeta, init_params

sys.path.append(str(Path(__file__).resolve().parent.parent))
from perfbench.checks import directional_check  # noqa: E402
from perfbench.synth import CorpusShape, generate  # noqa: E402

PAPER = dict(mode="positional", bigrams=True, window=5, d_token=100, d_feature=100,
             hidden_dim=100)
SHAPE = CorpusShape(n_train=24, n_heldout=0, n_chars=400, n_words=600, surfaces_per_type=6)


@pytest.fixture(scope="module")
def paper_model():
    corpus = generate(5, SHAPE)
    meta = ModelMeta.from_corpus(corpus.train, None, scheme=corpus.scheme, **PAPER)
    params = init_params(meta, np.random.default_rng(5))
    # sentences of 40 to 60 characters that hold an entity, so the margin is violated
    sentences = [s for s in meta.encode(corpus.train, None)
                 if 40 <= len(s) <= 60 and any(lab != corpus.scheme.outside_index
                                               for lab in s.gold_labels)]
    return params, sentences


@pytest.mark.parametrize("kind, first", [("hamming", 0), ("fscore", 1), ("integrated", 2)])
def test_one_step_moves_the_loss_as_the_gradient_says(paper_model, kind, first):
    params, sentences = paper_model
    config = TrainConfig(Trigger(kind), l2_lambda=0.0, epochs=1)
    for sentence in sentences[first:]:  # each trigger starts at its own sentence
        status, rel = directional_check(sentence, params.copy, config)
        if status in ("ok", "fail"):  # "tie": the argmax moved at every step
            assert status == "ok", f"directional derivative off by {rel:.3g} (relative)"
            return
    pytest.fail("no sentence gave a differentiable margin violation")
