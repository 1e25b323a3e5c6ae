"""Seeded Weibo-sized synthetic NER corpus for the benchmark.

The corpus imitates the shape of the Weibo NER training data the paper uses:
1350 training and 270 held-out sentences, lognormal sentence lengths with a
mean near 50 characters and a tail to about 175, a Zipfian inventory of about
3.5k characters, entity mentions over the 8 default types (17 labels), and a
word segmentation supplied as segmented text.

Sentence lengths are drawn by stratified sampling of the lognormal: sentence
i of n gets the quantile (i + u_i) / n, u_i uniform, and the lengths are then
shuffled. Every seed therefore gets a different corpus (characters, words,
entities, which sentence is long) with almost the same length profile, so
the amount of work in a workload does not drift with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from mmner import Sentence, TagScheme, entities_from_labels

GOLDEN = (5 ** 0.5 - 1) / 2
CJK_BASE = 0x4E00
CJK_SPAN = 0x9FA5 - CJK_BASE

# Lognormal with mean exp(MU + SIGMA^2 / 2) = 50 and 99.9th percentile ~175.
LENGTH_MU = 3.817
LENGTH_SIGMA = 0.436
MIN_LENGTH = 5
MAX_LENGTH = 175

WORD_LENGTHS = (1, 2, 3, 4)
WORD_LENGTH_P = (0.22, 0.45, 0.18, 0.15)
NAM_LENGTHS = (2, 3, 4)
NAM_LENGTH_P = (0.45, 0.45, 0.10)
NOM_LENGTHS = (1, 2, 3)
NOM_LENGTH_P = (0.30, 0.60, 0.10)
CHAR_ZIPF = 0.55
WORD_ZIPF = 1.05
ENTITY_RATE = 0.062  # chance that the next word is an entity mention


@dataclass(frozen=True)
class CorpusShape:
    """Size knobs of the generator; ``WEIBO`` is the paper-scale setting."""

    n_train: int = 1350
    n_heldout: int = 270
    n_chars: int = 3500
    n_words: int = 60000
    surfaces_per_type: int = 150


WEIBO = CorpusShape()


@dataclass
class SyntheticCorpus:
    train: list[Sentence]
    heldout: list[Sentence]
    scheme: TagScheme
    seg_lines: list[str]


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** exponent
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size)), len(cdf) - 1)


def stratified_lengths(n: int, rng: np.random.Generator) -> np.ndarray:
    """n lognormal sentence lengths, one per quantile stratum, shuffled."""
    normal = NormalDist()
    u = (np.arange(n) + rng.random(n)) / n
    z = np.array([normal.inv_cdf(min(max(p, 1e-12), 1 - 1e-12)) for p in u])
    lengths = np.clip(np.rint(np.exp(LENGTH_MU + LENGTH_SIGMA * z)), MIN_LENGTH, MAX_LENGTH)
    return rng.permutation(lengths.astype(int))


def generate(seed: int, shape: CorpusShape = WEIBO) -> SyntheticCorpus:
    """The corpus for one seed; the same seed gives the same corpus."""
    rng = np.random.default_rng(seed)
    scheme = TagScheme.from_entity_types()
    picks = rng.choice(CJK_SPAN, size=shape.n_chars, replace=False)
    chars = [chr(CJK_BASE + int(c)) for c in picks]
    char_cdf = _zipf_cdf(shape.n_chars, CHAR_ZIPF)

    def make_words(count, lengths, probs) -> list[str]:
        # Lengths by rank from a golden-ratio sequence: the length mix is exact
        # at every rank prefix, so the vocabulary size barely moves with the seed.
        spread = (np.arange(count) * GOLDEN) % 1.0
        sizes = np.asarray(lengths)[np.searchsorted(np.cumsum(probs)[:-1], spread, side="right")]
        flat = "".join(chars[int(i)] for i in _draw(rng, char_cdf, int(sizes.sum())))
        ends = np.cumsum(sizes)
        return [flat[end - size:end] for end, size in zip(ends, sizes)]

    lexicon = make_words(shape.n_words, WORD_LENGTHS, WORD_LENGTH_P)
    word_cdf = _zipf_cdf(shape.n_words, WORD_ZIPF)
    types = [f"{cat}.{kind}" for cat, kind in scheme.entity_types]
    surfaces = {
        typ: make_words(
            shape.surfaces_per_type,
            *((NAM_LENGTHS, NAM_LENGTH_P) if typ.endswith("NAM") else (NOM_LENGTHS, NOM_LENGTH_P)),
        )
        for typ in types
    }
    surface_cdf = _zipf_cdf(shape.surfaces_per_type, 1.0)

    sentences: list[Sentence] = []
    seg_lines: list[str] = []
    outside = scheme.outside_index
    lengths = np.concatenate([
        stratified_lengths(shape.n_train, rng), stratified_lengths(shape.n_heldout, rng)
    ])
    for length in lengths:
        words: list[str] = []
        labels: list[int] = []
        left = int(length)
        while left:
            if rng.random() < ENTITY_RATE:
                typ = types[int(rng.integers(len(types)))]
                word = surfaces[typ][int(_draw(rng, surface_cdf, 1)[0])]
                tags = [scheme.begin(typ)] + [scheme.inside(typ)] * (len(word) - 1)
            else:
                word = lexicon[int(_draw(rng, word_cdf, 1)[0])]
                tags = [outside] * len(word)
            if len(word) > left:
                word = "".join(chars[int(i)] for i in _draw(rng, char_cdf, left))
                tags = [outside] * left
            words.append(word)
            labels.extend(tags)
            left -= len(word)
        sentences.append(Sentence([ch for word in words for ch in word], labels))
        seg_lines.append(" ".join(words))
    return SyntheticCorpus(
        sentences[:shape.n_train], sentences[shape.n_train:], scheme, seg_lines
    )


def entity_count(sentences: list[Sentence], scheme: TagScheme) -> int:
    return sum(len(entities_from_labels(s.gold_labels, scheme)) for s in sentences)


def length_stats(sentences: list[Sentence]) -> dict[str, float]:
    lengths = np.array([len(s) for s in sentences])
    return {
        "sentences": len(sentences),
        "mean_length": float(lengths.mean()),
        "p90_length": float(np.percentile(lengths, 90)),
        "max_length": int(lengths.max()),
    }
