"""Brute-force reference implementations the tests compare against.

Everything here is written independently of the package internals: scores
accumulate in a plain loop, sequences enumerate via itertools, and span
extraction re-derives the repair-then-extract semantics from scratch. The
one exception is reference_beam, the earlier tuple-based beam_topk, kept to
pin the array beam to it; like beam_topk it hoists the package's viterbi.
lstm_step is the LSTM recurrence written out with a plain logistic sigmoid,
which the GEMM-based directions of the network are checked against.
reference_bigrams is the per-position bigram extractor that the column-wise
corpus._columns replaced, each template written out on its own.
reference_represent, reference_encode_corpus and reference_vocab_sources
are the per-sentence text-to-ids steps that the corpus-wide columns of
corpus.encode_corpus and corpus.vocab_sources replaced: every template's
strings built apart from reference_bigrams, one lookup per string.
reference_assemble_window is the slice-and-concatenate input assembly that
the one-gather embeddings.assemble_window replaced, its padded ids built
from lists. reference_init_params is the parameter init that drew through a
Glorot helper and per-class initializers before model.init_params drew one
array per tensor name; both must draw the same numbers.
reference_repair_bio, reference_entities_from_labels and
reference_sentence_f1 are the two BIO walkers, and the F1 that chained
them, that corpus.entity_spans replaced; they parse each label name as the
scheme's split did then. loop_sentence_score is the per-position loop that
the gathered, accumulated structured.sentence_score replaced.
adversarial_instances draws decoding problems on which adding a path's
terms in another order than sentence_score's picks a wrong argmax.
"""

import itertools
from dataclasses import replace

import numpy as np

from mmner.corpus import BOUNDARY, EntitySpan, TagScheme, seg_tags_for
from mmner.embeddings import PAD_INDEX, random_table
from mmner.evaluation import Counts
from mmner.network import EmissionMatrix
from mmner.structured import ScoredSequence, viterbi


def random_em(rng, n, n_labels, spread=1.5):
    logits = rng.normal(0.0, spread, (n, n_labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    return EmissionMatrix(np.log(probs))


def random_instance(rng, n, n_labels):
    em = random_em(rng, n, n_labels)
    trans = rng.normal(0.0, 1.0, (n_labels + 1, n_labels))
    return em, trans


def score_of(em, trans, labels):
    total = 0.0
    prev = em.n_labels
    for t, lab in enumerate(labels):
        total += float(trans[prev, lab]) + float(em.log_probs[t, lab])
        prev = lab
    return total


def loop_sentence_score(em, trans, labels):
    n, n_labels = em.n, em.n_labels
    if trans.shape != (n_labels + 1, n_labels):
        raise ValueError("bad transition matrix")
    if len(labels) != n:
        raise ValueError(f"expected {n} labels, got {len(labels)}")
    total = 0.0
    prev = n_labels
    for t, lab in enumerate(labels):
        total += float(trans[prev, lab] + em.log_probs[t, lab])
        prev = lab
    return total


ADVERSARIAL_SCHEME = TagScheme.from_entity_types((("PER", "NAM"),))


def adversarial_instances(seed, count):
    """(em, trans) pairs, n 2-4 over ADVERSARIAL_SCHEME's 3 labels.

    Log-probs are N(0, 1) rounded to 1e-3 and transitions N(0, 1) rounded to
    quarters, times 3e15, where doubles are 0.5 to 2 apart: whether a log-prob
    is added to the transition or to the running sum decides how it rounds,
    so about 0.75% of these problems have a different argmax under another
    order.
    """
    rng = np.random.default_rng(seed)
    n_labels = ADVERSARIAL_SCHEME.n_labels
    for _ in range(count):
        n = int(rng.integers(2, 5))
        log_probs = np.round(rng.normal(size=(n, n_labels)), 3)
        trans = np.round(rng.normal(size=(n_labels + 1, n_labels)) * 4) / 4 * 3e15
        yield EmissionMatrix(log_probs), trans


def enumerate_all(em, trans):
    """Every sequence with its score, best first, ties lexicographic."""
    scored = [
        (score_of(em, trans, labels), labels)
        for labels in itertools.product(range(em.n_labels), repeat=em.n)
    ]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return scored


def oracle_spans(labels, scheme):
    """Spans after repairing stray I- labels into span starts."""
    names = [scheme.name(lab) for lab in labels]
    spans = set()
    current = None  # (type, start)
    for i, name in enumerate(names):
        if name == "O":
            if current:
                spans.add((current[0], current[1], i))
                current = None
            continue
        prefix, typ = name.split("-", 1)
        if prefix == "B" or current is None or current[0] != typ:
            if current:
                spans.add((current[0], current[1], i))
            current = (typ, i)
    if current:
        spans.add((current[0], current[1], len(names)))
    return spans


def oracle_f1(gold, pred, scheme):
    gs, ps = oracle_spans(gold, scheme), oracle_spans(pred, scheme)
    if not gs and not ps:
        return 1.0
    if not gs or not ps:
        return 0.0
    hits = len(gs & ps)
    p, r = hits / len(ps), hits / len(gs)
    return 2 * p * r / (p + r) if p + r else 0.0


def oracle_delta(kind, gold, pred, scheme, kappa, beta):
    hamming = kappa * sum(1 for a, b in zip(gold, pred) if a != b)
    if kind == "hamming":
        return hamming
    fscore = kappa * (1.0 - oracle_f1(gold, pred, scheme))
    if kind == "fscore":
        return fscore
    return fscore + beta * hamming


def augmented_argmax(em, trans, gold, kind, scheme, kappa, beta):
    """(labels, augmented score) maximizing s + delta by full enumeration."""
    best, best_aug = None, -np.inf
    for labels in itertools.product(range(em.n_labels), repeat=em.n):
        aug = score_of(em, trans, labels) + oracle_delta(
            kind, gold, list(labels), scheme, kappa, beta
        )
        if aug > best_aug:
            best, best_aug = list(labels), aug
    return best, best_aug


def lstm_step(x, h_prev, c_prev, w, b):
    """One LSTM step (gate rows input, forget, output, candidate) with an
    explicit logistic sigmoid; returns (h, c)."""
    a = w @ np.concatenate([x, h_prev]) + b
    i, f, o, g = np.split(a, 4)
    i, f, o = (1.0 / (1.0 + np.exp(-gate)) for gate in (i, f, o))
    c = f * c_prev + i * np.tanh(g)
    return o * np.tanh(c), c


def reference_beam(em, trans, k):
    """The per-position beam over Python tuples that beam_topk replaced."""
    n, n_labels = em.n, em.n_labels
    beam = [
        (float(trans[n_labels, lab] + em.log_probs[0, lab]), (lab,))
        for lab in range(n_labels)
    ]
    beam.sort(key=lambda item: (-item[0], item[1]))
    beam = beam[:k]
    for t in range(1, n):
        grown = [
            (score + float(trans[prefix[-1], lab] + em.log_probs[t, lab]), prefix + (lab,))
            for score, prefix in beam
            for lab in range(n_labels)
        ]
        grown.sort(key=lambda item: (-item[0], item[1]))
        beam = grown[:k]

    vit = viterbi(em, trans)
    rest = [ScoredSequence(list(prefix), score) for score, prefix in beam
            if list(prefix) != vit.labels]
    return [vit] + rest[: k - 1]


def reference_bigrams(tokens, t):
    """The five character-bigram templates around position t: offsets
    (-2,-1), (-1,0), (0,1), (1,2) and the skip pair (-1,1); out-of-range
    positions contribute the boundary symbol."""

    def tok(i):
        return tokens[i] if 0 <= i < len(tokens) else BOUNDARY

    return [
        tok(t - 2) + tok(t - 1),
        tok(t - 1) + tok(t),
        tok(t) + tok(t + 1),
        tok(t + 1) + tok(t + 2),
        tok(t - 1) + tok(t + 1),
    ]


def reference_represent(tokens, seg_tags, mode, bigrams):
    """Token keys and, per feature slot (the tag in segfeat mode, then the
    five templates), that slot's string at each position of one sentence."""
    keys = [f"{ch}#{tag}" for ch, tag in zip(tokens, seg_tags)] if mode == "positional" \
        else list(tokens)
    columns = [list(seg_tags)] if mode == "segfeat" else []
    if bigrams:
        rows = [reference_bigrams(tokens, t) for t in range(len(tokens))]
        columns += [[row[s] for row in rows] for s in range(5)]
    return keys, columns


def reference_encode_corpus(sentences, seg_map, mode, bigrams, token_vocab, vocabs):
    """Each sentence on its own: its strings, then one vocabulary lookup per string."""
    kinds = ["seg"] * (mode == "segfeat") + ["bigram"] * (5 * bigrams)
    out = []
    for sent in sentences:
        keys, columns = reference_represent(sent.tokens, seg_tags_for(sent.tokens, seg_map),
                                            mode, bigrams)
        features = np.empty((len(keys), len(kinds)), dtype=np.intp)
        for s, (kind, column) in enumerate(zip(kinds, columns)):
            features[:, s] = [vocabs[kind].stoi.get(x, 0) for x in column]
        token_ids = np.array([token_vocab.stoi.get(k, 0) for k in keys], dtype=np.intp)
        out.append(replace(sent, features=features, token_ids=token_ids))
    return out


def reference_vocab_sources(sentences, seg_map, mode, bigrams):
    """Every token key, and every bigram position after position in template order."""
    token_strings, bigram_strings = [], []
    for sent in sentences:
        keys, columns = reference_represent(sent.tokens, seg_tags_for(sent.tokens, seg_map),
                                            mode, bigrams)
        token_strings += keys
        if bigrams:
            bigram_strings += [s for row in zip(*columns[-5:]) for s in row]
    return token_strings, bigram_strings


def reference_assemble_window(sentence, assembly):
    """Input matrix of an encoded sentence: the window's token rows as one
    slice per offset into the padded rows, then one block per feature slot."""
    n = len(sentence)
    half = (assembly.window - 1) // 2
    token = assembly.token_table
    padded = np.array([PAD_INDEX] * half + list(sentence.token_ids) + [PAD_INDEX] * half)
    rows = token.vectors[padded]
    rows *= token.scale
    parts = [rows[k:k + n] for k in range(assembly.window)]
    feats = np.array(sentence.features, dtype=np.intp)
    for s, table in enumerate(assembly.slot_tables):
        parts.append(table.vectors[feats[:, s]])
        parts[-1] *= table.scale
    return np.concatenate(parts, axis=1)


def reference_glorot(rng, rows, cols, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(rows, cols))


def reference_lstm_init(input_dim, hidden_dim, rng):
    """(w, b) of one LSTM direction: Glorot weights whose fan-out is one gate."""
    w = reference_glorot(rng, 4 * hidden_dim, input_dim + hidden_dim,
                         input_dim + hidden_dim, hidden_dim)
    return w, np.zeros(4 * hidden_dim)


def reference_projection_init(n_labels, hidden_width, rng):
    """(w_hy, b_y) of the label projection."""
    w = reference_glorot(rng, n_labels, hidden_width, hidden_width, n_labels)
    return w, np.zeros(n_labels)


def reference_init_params(meta, rng, token_table=None):
    """Name -> array of a fresh model: the embedding tables first, then the
    forward, backward and projection weights, zero transitions."""
    shapes = meta.tensor_shapes()
    out = {name: (token_table if name == "emb_token" and token_table is not None
                  else random_table(*shape, rng)).vectors
           for name, shape in shapes.items() if name.startswith("emb_")}
    width = meta.input_width
    out["lstm_fwd_w"], out["lstm_fwd_b"] = reference_lstm_init(width, meta.hidden_dim, rng)
    out["lstm_bwd_w"], out["lstm_bwd_b"] = reference_lstm_init(width, meta.hidden_dim, rng)
    out["proj_w"], out["proj_b"] = reference_projection_init(
        meta.scheme.n_labels, 2 * meta.hidden_dim, rng)
    out["transitions"] = np.zeros(shapes["transitions"])
    return out


def reference_split(scheme, i):
    """(prefix, type) of a label index, parsed from its name; ("O", None) for outside."""
    name = scheme.labels[i]
    if name == scheme.outside_label:
        return "O", None
    prefix, _, typ = name.partition("-")
    return prefix, typ


def reference_repair_bio(labels, scheme):
    """(repaired, change count): an I-X whose (already repaired) predecessor
    is neither B-X nor I-X becomes B-X."""
    repaired = list(labels)
    changes = 0
    prev_type = None
    for i, lab in enumerate(repaired):
        prefix, typ = reference_split(scheme, lab)
        if prefix == "I" and typ != prev_type:
            repaired[i] = scheme.begin(typ)
            changes += 1
            prefix = "B"
        prev_type = typ if prefix in ("B", "I") else None
    return repaired, changes


def reference_entities_from_labels(labels, scheme):
    """Maximal B-X (I-X)* runs as spans; raises ValueError on invalid BIO."""
    spans = []
    open_type = None
    open_start = 0
    for i, lab in enumerate(labels):
        prefix, typ = reference_split(scheme, lab)
        if prefix == "I":
            if open_type != typ:
                raise ValueError(f"invalid BIO sequence: I-{typ} at position {i}")
            continue
        if open_type is not None:
            spans.append(EntitySpan(open_type, open_start, i))
            open_type = None
        if prefix == "B":
            open_type = typ
            open_start = i
    if open_type is not None:
        spans.append(EntitySpan(open_type, open_start, len(labels)))
    return spans


def reference_sentence_f1(gold, pred, scheme):
    """Entity F1 of both sequences repaired, then read as valid BIO."""
    gold_spans = set(reference_entities_from_labels(reference_repair_bio(gold, scheme)[0], scheme))
    pred_spans = set(reference_entities_from_labels(reference_repair_bio(pred, scheme)[0], scheme))
    if not gold_spans and not pred_spans:
        return 1.0
    tp = len(gold_spans & pred_spans)
    return Counts(tp, len(pred_spans) - tp, len(gold_spans) - tp).f1
