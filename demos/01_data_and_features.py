#!/usr/bin/env python3
"""Walk through the data layer: CoNLL parsing, BIO repair, and the two
character representations (positional tags vs. segmentation features),
plus the bigram feature templates and the context-window assembly."""

import numpy as np

from mmner.corpus import (
    TagScheme,
    build_vocab,
    encode_corpus,
    load_segmentation,
    parse_conll,
    positional_tags,
    repair_bio,
    vocab_sources,
)
from mmner.embeddings import InputAssembly, assemble_window, random_table

SAMPLE = """\
张\tB-PER.NAM
伟\tI-PER.NAM
去\tO
北\tB-GPE.NAM
京\tI-GPE.NAM

哥\tB-PER.NOM
们\tI-PER.NOM
在\tO
老\tB-GPE.NOM
家\tI-GPE.NOM
"""

scheme = TagScheme.from_entity_types()
sentences, n_repaired = parse_conll(SAMPLE, scheme)
print(f"parsed {len(sentences)} sentences, {n_repaired} labels repaired")
for sent in sentences:
    pairs = [f"{tok}/{scheme.name(lab)}" for tok, lab in zip(sent.tokens, sent.gold_labels)]
    print(" ", " ".join(pairs))

# BIO repair: a span of type X opens at B-X, or at an I-X that does not continue
# an X span (corpus.entity_spans); repair writes each such I-X as B-X.
broken = [scheme.index("I-PER.NAM"), scheme.index("I-PER.NAM"), scheme.outside_index]
fixed, changes = repair_bio(broken, scheme)
print("\nrepair", [scheme.name(x) for x in broken], "->", [scheme.name(x) for x in fixed],
      f"({changes} changed)")

# Representation 1: positional characters. Each character is suffixed with
# its position inside its word (B/I/E/S), so the embedding vocabulary keys
# carry segmentation information.
seg = load_segmentation("张伟 去 北京\n哥们 在 老家\n")
print("\nper-word position tags for 张伟:", list(positional_tags("张伟")))
print("positional tokens:", vocab_sources(sentences[:1], seg, "positional", False)[0])
print("lookup for the joined sentence:", seg["张伟去北京"])

# Representation 2: raw characters plus a discrete segmentation-tag feature
# slot (same B/I/E/S alphabet, embedded separately and concatenated).

# Bigram templates around position t: (t-2,t-1) (t-1,t) (t,t+1) (t+1,t+2)
# and the skip pair (t-1,t+1); out-of-range slots read a boundary marker.
# With bigrams on, vocab_sources lists the five template strings of each
# position in template order, position after position.
_, bigrams = vocab_sources(sentences[:1], seg, "positional", True)
for t in range(len(sentences[0])):
    print(f"bigrams at t={t}:", bigrams[5 * t:5 * t + 5])

# Everything above feeds a per-position vector: a window of token embeddings
# concatenated with one embedding per feature slot.
token_strings, bigram_strings = vocab_sources(sentences, seg, "positional", True)
token_vocab = build_vocab(token_strings)
bigram_vocab = build_vocab(bigram_strings)
encoded = encode_corpus(sentences, seg, "positional", True, token_vocab,
                        {"bigram": bigram_vocab})

rng = np.random.default_rng(0)
assembly = InputAssembly(
    window=3,
    token_table=random_table(len(token_vocab), 4, rng),
    slot_tables=[random_table(len(bigram_vocab), 2, rng)] * 5,
)
# An encoded sentence carries integer arrays: token ids (n,) and one
# feature id per slot at each position (n, 5).
print("\ntoken ids:", encoded[0].token_ids)
print("feature ids, one row per position:\n", encoded[0].features)
X = assemble_window(encoded[0], assembly)
print(f"\nwindow=3, d_token=4, five bigram slots at d_feature=2"
      f" -> input width {assembly.width}")
print("assembled input matrix:", X.shape)
