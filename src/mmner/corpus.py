"""Corpus handling: tag schemes, CoNLL ingestion, span/label conversion, and
the two character-level input representations (positional tokens and word
segmentation features) plus bigram feature templates."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable

UNK = "<unk>"
PAD = "<pad>"
BOUNDARY = "</s>"

SEG_TAGS = ("B", "I", "E", "S")

MODE_POSITIONAL = "positional"
MODE_SEGFEAT = "segfeat"
MODES = (MODE_POSITIONAL, MODE_SEGFEAT)

N_BIGRAM_SLOTS = 5

DEFAULT_ENTITY_TYPES = tuple(
    (cat, kind) for cat in ("PER", "ORG", "LOC", "GPE") for kind in ("NAM", "NOM")
)


class CorpusError(Exception):
    """Malformed corpus file or label inventory."""


@dataclass(frozen=True)
class TagScheme:
    """BIO label inventory over typed entity spans.

    Label indices are stable for the lifetime of a model: index i always maps
    to the same name. Every non-outside label is ``B-<type>`` or ``I-<type>``
    where ``<type>`` is ``<category>.<mention_kind>``.
    """

    labels: tuple[str, ...]
    entity_types: tuple[tuple[str, str], ...]
    outside_label: str = "O"

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate label names")
        if self.outside_label not in self.labels:
            raise ValueError("outside label %r not in label set" % self.outside_label)
        types = {f"{cat}.{kind}" for cat, kind in self.entity_types}
        for name in self.labels:
            if name == self.outside_label:
                continue
            prefix, _, typ = name.partition("-")
            if prefix not in ("B", "I") or typ not in types:
                raise ValueError("label %r is not B-/I- of a declared entity type" % name)
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(self.labels)})

    @classmethod
    def from_entity_types(cls, entity_types=DEFAULT_ENTITY_TYPES, outside="O"):
        labels = [outside]
        for cat, kind in entity_types:
            labels.append(f"B-{cat}.{kind}")
            labels.append(f"I-{cat}.{kind}")
        return cls(tuple(labels), tuple(entity_types), outside)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def outside_index(self) -> int:
        return self._index[self.outside_label]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CorpusError("unknown label %r" % name) from None

    def name(self, i: int) -> str:
        return self.labels[i]

    def split(self, i: int) -> tuple[str, str | None]:
        """Return (prefix, type) for a label index; ("O", None) for outside."""
        name = self.labels[i]
        if name == self.outside_label:
            return "O", None
        prefix, _, typ = name.partition("-")
        return prefix, typ

    def begin(self, typ: str) -> int:
        return self.index(f"B-{typ}")

    def inside(self, typ: str) -> int:
        return self.index(f"I-{typ}")

    @staticmethod
    def kind_of(typ: str) -> str:
        """Mention kind of a type name, e.g. "PER.NAM" -> "NAM"."""
        return typ.rsplit(".", 1)[-1]


@dataclass
class Sentence:
    """One input sentence.

    ``tokens`` are surface strings, either raw characters or positional
    characters depending on the chosen representation. ``features`` holds
    per-position discrete feature ids, one id per feature slot; ``token_ids``
    are vocabulary indices filled in by :func:`encode_sentence`.
    """

    tokens: list[str]
    gold_labels: list[int] | None = None
    features: list[list[int]] = field(default_factory=list)
    token_ids: list[int] | None = None

    def __post_init__(self):
        if self.gold_labels is not None and len(self.gold_labels) != len(self.tokens):
            raise ValueError("gold label count does not match token count")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class EntitySpan:
    """Typed entity span; start inclusive, end exclusive."""

    category: str
    start: int
    end: int


def repair_bio(labels: list[int], scheme: TagScheme) -> tuple[list[int], int]:
    """Repair an invalid BIO sequence, returning (repaired, change count).

    The rule: an I-X whose (already repaired) predecessor is neither B-X nor
    I-X becomes B-X. Deterministic, minimal edit, idempotent on valid input.
    """
    repaired = list(labels)
    changes = 0
    prev_type = None
    for i, lab in enumerate(repaired):
        prefix, typ = scheme.split(lab)
        if prefix == "I" and typ != prev_type:
            repaired[i] = scheme.begin(typ)
            changes += 1
            prefix = "B"
        prev_type = typ if prefix in ("B", "I") else None
    return repaired, changes


def entities_from_labels(labels: list[int], scheme: TagScheme) -> list[EntitySpan]:
    """Extract maximal B-X (I-X)* runs as spans. Input must be valid BIO."""
    spans: list[EntitySpan] = []
    open_type: str | None = None
    open_start = 0
    for i, lab in enumerate(labels):
        prefix, typ = scheme.split(lab)
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


def labels_from_entities(spans: list[EntitySpan], length: int, scheme: TagScheme) -> list[int]:
    """Inverse of :func:`entities_from_labels` for non-overlapping spans."""
    labels = [scheme.outside_index] * length
    taken = [False] * length
    for span in spans:
        if not 0 <= span.start < span.end <= length:
            raise ValueError(f"span {span} out of bounds for length {length}")
        if any(taken[span.start:span.end]):
            raise ValueError(f"span {span} overlaps another span")
        for t in range(span.start, span.end):
            taken[t] = True
        labels[span.start] = scheme.begin(span.category)
        for t in range(span.start + 1, span.end):
            labels[t] = scheme.inside(span.category)
    return labels


def parse_conll(text, scheme: TagScheme) -> tuple[list[Sentence], int]:
    """Parse CoNLL-style "<token>TAB<label>" lines into sentences.

    Blank lines separate sentences. The label column may be omitted
    throughout the input (unlabeled mode), but labeled and unlabeled lines
    cannot be mixed. Invalid BIO in labeled input is repaired with
    :func:`repair_bio`; the total number of repairs comes back as the second
    element.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [line.rstrip("\n") for line in text]

    sentences: list[Sentence] = []
    warnings = 0
    n_columns: int | None = None
    tokens: list[str] = []
    labels: list[int] = []

    def flush():
        nonlocal tokens, labels, warnings
        if not tokens:
            return
        if n_columns == 2:
            repaired, changes = repair_bio(labels, scheme)
            warnings += changes
            sentences.append(Sentence(tokens, repaired))
        else:
            sentences.append(Sentence(tokens))
        tokens, labels = [], []

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            flush()
            continue
        columns = line.split("\t")
        if n_columns is None:
            if len(columns) not in (1, 2):
                raise CorpusError(f"line {lineno}: expected 1 or 2 columns, got {len(columns)}")
            n_columns = len(columns)
        elif len(columns) != n_columns:
            raise CorpusError(
                f"line {lineno}: expected {n_columns} column(s), got {len(columns)}"
            )
        if not columns[0]:
            raise CorpusError(f"line {lineno}: empty token")
        tokens.append(columns[0])
        if n_columns == 2:
            try:
                labels.append(scheme.index(columns[1]))
            except CorpusError:
                raise CorpusError(f"line {lineno}: unknown label {columns[1]!r}") from None
    flush()
    return sentences, warnings


# ---------------------------------------------------------------------------
# Word segmentation representations


def positional_tags(word: str) -> list[str]:
    """Within-word position tags for one word: S, or B I* E."""
    if not word:
        raise ValueError("empty word")
    if len(word) == 1:
        return ["S"]
    return ["B"] + ["I"] * (len(word) - 2) + ["E"]


def apply_positional_tags(segmented_words: list[str]) -> list[str]:
    """Attach each character of each word to its positional tag.

    ["AB", "C"] -> ["A#B", "B#E", "C#S"]; output length equals the total
    character count.
    """
    out: list[str] = []
    for word in segmented_words:
        for ch, tag in zip(word, positional_tags(word)):
            out.append(f"{ch}#{tag}")
    return out


def extract_bigram_features(tokens: list[str], t: int) -> list[str]:
    """The five character-bigram templates around position t.

    Offsets (-2,-1), (-1,0), (0,1), (1,2) and the skip pair (-1,1);
    out-of-range positions contribute the boundary symbol.
    """
    if not 0 <= t < len(tokens):
        raise ValueError(f"position {t} out of range")

    def tok(i):
        return tokens[i] if 0 <= i < len(tokens) else BOUNDARY

    return [
        tok(t - 2) + tok(t - 1),
        tok(t - 1) + tok(t),
        tok(t) + tok(t + 1),
        tok(t + 1) + tok(t + 2),
        tok(t - 1) + tok(t + 1),
    ]


def load_segmentation(lines) -> dict[str, tuple[str, ...]]:
    """Build a character-sequence -> positional-tag lookup from pre-segmented
    text (words separated by single spaces, one sentence per line).

    The first segmentation seen for a character sequence wins.
    """
    if isinstance(lines, str):
        lines = lines.splitlines()
    table: dict[str, tuple[str, ...]] = {}
    for line in lines:
        words = line.split()
        if not words:
            continue
        key = "".join(words)
        if key not in table:
            tags: list[str] = []
            for word in words:
                tags.extend(positional_tags(word))
            table[key] = tuple(tags)
    return table


def seg_tags_for(tokens: list[str], seg_map: dict[str, tuple[str, ...]] | None) -> tuple[list[str], bool]:
    """Positional tags for a sentence, with identity fallback.

    Returns (tags, found). When the sentence's character sequence is absent
    from the lookup (or no lookup is given), every character becomes a
    single-character word ("S") and found is False.
    """
    if seg_map is not None:
        hit = seg_map.get("".join(tokens))
        if hit is not None:
            return list(hit), True
    return ["S"] * len(tokens), False


# ---------------------------------------------------------------------------
# Vocabulary


@dataclass
class Vocab:
    """String -> dense index map with reserved unknown (0) and padding (1)."""

    itos: list[str]
    stoi: dict[str, int]

    @classmethod
    def from_itos(cls, itos: list[str]) -> "Vocab":
        if itos[:2] != [UNK, PAD]:
            raise ValueError("vocabulary must reserve index 0 for %s and 1 for %s" % (UNK, PAD))
        return cls(list(itos), {s: i for i, s in enumerate(itos)})

    def index(self, s: str) -> int:
        return self.stoi.get(s, 0)

    def __len__(self) -> int:
        return len(self.itos)

    def __contains__(self, s: str) -> bool:
        return s in self.stoi


def build_vocab(tokens: Iterable[str], min_count: int = 1) -> Vocab:
    """Map each string appearing at least min_count times to a dense index.

    Indices follow first-occurrence order after the two reserved entries.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter()
    for tok in tokens:
        counts[tok] += 1
    itos = [UNK, PAD]
    for tok, n in counts.items():
        if n >= min_count and tok not in (UNK, PAD):
            itos.append(tok)
    return Vocab.from_itos(itos)


SEG_VOCAB = Vocab.from_itos([UNK, PAD, *SEG_TAGS])


# ---------------------------------------------------------------------------
# Putting a representation on a corpus


def slot_kinds(mode: str, bigrams: bool) -> list[str]:
    """Feature slot layout for a representation: vocab kind per slot."""
    if mode not in MODES:
        raise ValueError(f"unknown representation mode {mode!r}")
    kinds = ["seg"] if mode == MODE_SEGFEAT else []
    if bigrams:
        kinds.extend(["bigram"] * N_BIGRAM_SLOTS)
    return kinds


def represent(sentence: Sentence, seg_tags: list[str], mode: str, bigrams: bool):
    """Surface tokens and per-position feature strings for one sentence."""
    raw = sentence.tokens
    if len(seg_tags) != len(raw):
        raise ValueError("segmentation tag count does not match token count")
    if mode == MODE_POSITIONAL:
        surface = [f"{ch}#{tag}" for ch, tag in zip(raw, seg_tags)]
    elif mode == MODE_SEGFEAT:
        surface = list(raw)
    else:
        raise ValueError(f"unknown representation mode {mode!r}")
    slots: list[list[str]] = []
    for t in range(len(raw)):
        row = [seg_tags[t]] if mode == MODE_SEGFEAT else []
        if bigrams:
            row.extend(extract_bigram_features(raw, t))
        slots.append(row)
    return surface, slots


def encode_sentence(
    sentence: Sentence,
    seg_tags: list[str],
    mode: str,
    bigrams: bool,
    token_vocab: Vocab,
    vocabs: dict[str, Vocab],
) -> Sentence:
    """Return a copy of the sentence carrying surface tokens and mapped ids."""
    surface, slots = represent(sentence, seg_tags, mode, bigrams)
    kinds = slot_kinds(mode, bigrams)
    features = [[vocabs[kind].index(s) for kind, s in zip(kinds, row)] for row in slots]
    return replace(
        sentence,
        tokens=surface,
        token_ids=[token_vocab.index(tok) for tok in surface],
        features=features,
    )


def encode_corpus(
    sentences: list[Sentence],
    seg_map: dict[str, tuple[str, ...]] | None,
    mode: str,
    bigrams: bool,
    token_vocab: Vocab,
    vocabs: dict[str, Vocab],
) -> list[Sentence]:
    out = []
    for sent in sentences:
        tags, _ = seg_tags_for(sent.tokens, seg_map)
        out.append(encode_sentence(sent, tags, mode, bigrams, token_vocab, vocabs))
    return out


def vocab_sources(
    sentences: list[Sentence],
    seg_map: dict[str, tuple[str, ...]] | None,
    mode: str,
    bigrams: bool,
) -> tuple[list[str], list[str]]:
    """All surface tokens and bigram strings a corpus produces, for vocab building."""
    token_strings: list[str] = []
    bigram_strings: list[str] = []
    for sent in sentences:
        tags, _ = seg_tags_for(sent.tokens, seg_map)
        surface, slots = represent(sent, tags, mode, bigrams)
        token_strings.extend(surface)
        if bigrams:
            for row in slots:
                bigram_strings.extend(row[-N_BIGRAM_SLOTS:])
    return token_strings, bigram_strings
