"""Deterministic synthetic corpora.

Useful for overfit tests and demos: every character belongs to exactly one
entity surface (or to the filler pool), so the token -> label mapping is
unambiguous and a healthy model can reach entity F1 = 1.0 on its own
training set. Two categories x two mention kinds, two-character entities,
single-character fillers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (
    MODE_POSITIONAL,
    Sentence,
    TagScheme,
    load_segmentation,
    repair_bio,
)
from .model import ModelMeta, ModelParams, init_params

SURFACES: dict[str, tuple[str, ...]] = {
    "PER.NAM": ("张伟", "李娜", "王强"),
    "PER.NOM": ("哥们", "姑娘", "大叔"),
    "GPE.NAM": ("北京", "上海", "广州"),
    "GPE.NOM": ("老家", "本市", "城里"),
}

FILLERS = tuple("的了我你他在说去看吃好不")

ENTITY_TYPES = tuple((t.split(".")[0], t.split(".")[1]) for t in SURFACES)

# tiny_instance's model size: small enough to enumerate and finite-difference
TINY_D_TOKEN, TINY_D_FEATURE, TINY_HIDDEN, TINY_WINDOW = 3, 2, 3, 3


@dataclass
class SyntheticCorpus:
    sentences: list[Sentence]
    scheme: TagScheme
    seg_lines: list[str]


def synthetic_corpus(n_sentences: int = 50, seed: int = 7) -> SyntheticCorpus:
    """Generate sentences of the shape filler* (entity filler+)+.

    Returns raw (unencoded) sentences with gold labels, the tag scheme, and
    pre-segmented lines (entities are words, fillers single-character words)
    covering every sentence.
    """
    scheme = TagScheme.from_entity_types(ENTITY_TYPES)
    types = sorted(SURFACES)
    rng = np.random.default_rng(seed)
    sentences: list[Sentence] = []
    seg_lines: list[str] = []
    for _ in range(n_sentences):
        words: list[str] = []
        labels: list[int] = []
        for _ in range(int(rng.integers(0, 3))):
            words.append(str(rng.choice(FILLERS)))
            labels.append(scheme.outside_index)
        for _ in range(int(rng.integers(1, 3))):
            typ = types[int(rng.integers(len(types)))]
            surface = SURFACES[typ][int(rng.integers(len(SURFACES[typ])))]
            words.append(surface)
            labels.append(scheme.begin(typ))
            labels.extend(scheme.inside(typ) for _ in surface[1:])
            for _ in range(int(rng.integers(1, 3))):
                words.append(str(rng.choice(FILLERS)))
                labels.append(scheme.outside_index)
        tokens = [ch for word in words for ch in word]
        sentences.append(Sentence(tokens, labels))
        seg_lines.append(" ".join(words))
    return SyntheticCorpus(sentences, scheme, seg_lines)


def tiny_instance(
    seed: int = 0,
    mode: str = MODE_POSITIONAL,
    bigrams: bool = True,
    n_tokens: int = 4,
) -> tuple[ModelParams, Sentence]:
    """A small random model plus one encoded sentence with random valid gold
    labels, sized for exhaustive enumeration and finite differences.

    The transition matrix gets noise and the projection extra scale so that
    sequence scores spread out; callers worried about near-ties should still
    check the augmented-score gap and resample.
    """
    rng = np.random.default_rng(seed)
    scheme = TagScheme.from_entity_types((("PER", "NAM"),))
    alphabet = tuple("甲乙丙丁戊")
    raw = [alphabet[int(rng.integers(len(alphabet)))] for _ in range(n_tokens)]
    gold, _ = repair_bio([int(rng.integers(scheme.n_labels)) for _ in range(n_tokens)], scheme)
    sent = Sentence(raw, gold)

    words = []
    left = n_tokens
    while left:
        take = min(int(rng.integers(1, 4)), left)
        words.append("".join(raw[n_tokens - left:n_tokens - left + take]))
        left -= take
    seg_map = load_segmentation([" ".join(words)])
    meta = ModelMeta.from_corpus(
        [sent], seg_map, scheme=scheme, mode=mode, bigrams=bigrams, window=TINY_WINDOW,
        d_token=TINY_D_TOKEN, d_feature=TINY_D_FEATURE, hidden_dim=TINY_HIDDEN)
    params = init_params(meta, rng)
    params.transitions += rng.normal(0.0, 0.5, params.transitions.shape)
    params.proj.w_hy *= 3.0
    return params, meta.encode([sent], seg_map)[0]


def to_conll(sentences: list[Sentence], scheme: TagScheme) -> str:
    """Render sentences as token<TAB>label lines, blank line between them."""
    return "\n\n".join(
        "\n".join(sent.tokens if sent.gold_labels is None else
                  [f"{tok}\t{scheme.name(lab)}" for tok, lab in zip(sent.tokens, sent.gold_labels)])
        for sent in sentences) + "\n"
