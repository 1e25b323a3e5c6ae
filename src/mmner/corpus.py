"""Corpus handling: tag schemes, CoNLL ingestion, span/label conversion, and
the two character-level input representations (positional tokens and word
segmentation features) plus bigram feature templates."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice, repeat
from typing import Iterable, Sequence

import numpy as np

UNK = "<unk>"
PAD = "<pad>"
BOUNDARY = "</s>"

SEG_TAGS = ("B", "I", "E", "S")

MODE_POSITIONAL = "positional"
MODE_SEGFEAT = "segfeat"
MODES = (MODE_POSITIONAL, MODE_SEGFEAT)

# character-bigram templates: the offset pairs, relative to a position, of
# the two characters each joins; out-of-range positions give BOUNDARY
BIGRAM_OFFSETS = ((-2, -1), (-1, 0), (0, 1), (1, 2), (-1, 1))

DEFAULT_ENTITY_TYPES = tuple(
    (cat, kind) for cat in ("PER", "ORG", "LOC", "GPE") for kind in ("NAM", "NOM")
)


class CorpusError(Exception):
    """Malformed corpus file or label inventory."""


def split_lines(text: str) -> list[str]:
    """Lines split at "\\n" only, each without one trailing "\\r" (splitlines
    would also split at U+2028, U+0085, form feeds and more inside a line)."""
    return [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]


def split_fields(line: str) -> list[str]:
    """Space- or tab-separated fields (str.split() also splits at U+2028 and the like)."""
    return [f for f in line.replace("\t", " ").split(" ") if f]


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
        if {type(name) for name in self.labels} != {str}:
            raise ValueError("labels must be strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate label names")
        if self.outside_label not in self.labels:
            raise ValueError("outside label %r not in label set" % self.outside_label)
        types = {f"{c}.{k}" for c, k in self.entity_types if {type(c), type(k)} == {str}}
        if len(types) != len(self.entity_types):
            raise ValueError("entity types must be distinct pairs of strings")
        parts = []
        for name in self.labels:
            prefix, _, typ = name.partition("-")
            if name == self.outside_label:
                prefix, typ = "O", None
            elif prefix not in ("B", "I") or typ not in types:
                raise ValueError("label %r is not B-/I- of a declared entity type" % name)
            parts.append((prefix, typ))
        object.__setattr__(self, "_parts", tuple(parts))
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
        return self._parts[i]

    def begin(self, typ: str) -> int:
        return self.index(f"B-{typ}")

    def inside(self, typ: str) -> int:
        return self.index(f"I-{typ}")

    @staticmethod
    def kind_of(typ: str) -> str:
        """Mention kind of a type name, e.g. "PER.NAM" -> "NAM"."""
        return typ.rsplit(".", 1)[-1]


@dataclass(eq=False)
class Sentence:
    """One input sentence; sentences compare by identity, not by value.

    ``tokens`` are the text as read, one string per position; ``gold_labels`` is a
    list of label indices. :func:`encode_corpus` adds the integer arrays
    ``token_ids`` (n,) and ``features`` (n, n_slots), one id per slot.
    """

    tokens: list[str]
    gold_labels: list[int] | None = None
    features: np.ndarray | None = None
    token_ids: np.ndarray | None = None

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


def entity_spans(labels: list[int], scheme: TagScheme) -> list[EntitySpan]:
    """The spans of any label sequence, the one BIO reading rule: a span of
    type X opens at B-X, or at an I-X that does not continue an X span, and
    runs over the I-X labels that follow. On valid BIO these are its maximal
    B-X (I-X)* runs."""
    spans: list[EntitySpan] = []
    open_type: str | None = None
    open_start = 0
    for i, lab in enumerate(labels):
        prefix, typ = scheme.split(lab)
        if prefix == "I" and typ == open_type:
            continue
        if open_type is not None:
            spans.append(EntitySpan(open_type, open_start, i))
        open_type, open_start = typ, i
    if open_type is not None:
        spans.append(EntitySpan(open_type, open_start, len(labels)))
    return spans


def repair_bio(labels: list[int], scheme: TagScheme) -> tuple[list[int], int]:
    """Rewrite a label sequence as valid BIO, returning (repaired, change count).

    The spans are those :func:`entity_spans` reads, so an I-X that opens a
    span becomes B-X. The count is the number of positions that differ.
    """
    repaired = labels_from_entities(entity_spans(labels, scheme), len(labels), scheme)
    return repaired, sum(a != b for a, b in zip(labels, repaired))


def entities_from_labels(labels: list[int], scheme: TagScheme) -> list[EntitySpan]:
    """The spans of valid BIO; an I-X that opens a span raises ValueError."""
    spans = entity_spans(labels, scheme)
    for span in spans:
        if scheme.split(labels[span.start])[0] == "I":
            raise ValueError(f"invalid BIO sequence: I-{span.category} at position {span.start}")
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
        taken[span.start:span.end] = [True] * (span.end - span.start)
        labels[span.start] = scheme.begin(span.category)
        for t in range(span.start + 1, span.end):
            labels[t] = scheme.inside(span.category)
    return labels


def parse_conll(text: str, scheme: TagScheme | None) -> tuple[list[Sentence], int]:
    """Parse CoNLL-style "<token>TAB<label>" lines into sentences.

    Blank lines (nothing but spaces and tabs) separate sentences. The label
    column may be omitted throughout the input (unlabeled mode), but labeled
    and unlabeled lines cannot be mixed. Invalid BIO in labeled input is repaired with
    :func:`repair_bio`; the total number of repairs comes back as the second
    element. With ``scheme=None`` the label column is not read: every sentence
    comes back unlabeled, with 0 repairs, under the same column and token rules.
    """
    sentences: list[Sentence] = []
    warnings = 0
    n_columns: int | None = None
    tokens: list[str] = []
    labels: list[int] = []

    def flush():
        nonlocal tokens, labels, warnings
        if not tokens:
            return
        if labels:
            repaired, changes = repair_bio(labels, scheme)
            warnings += changes
            sentences.append(Sentence(tokens, repaired))
        else:
            sentences.append(Sentence(tokens))
        tokens, labels = [], []

    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip(" \t"):
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
        if n_columns == 2 and scheme is not None:
            try:
                labels.append(scheme.index(columns[1]))
            except CorpusError:
                raise CorpusError(f"line {lineno}: unknown label {columns[1]!r}") from None
    flush()
    return sentences, warnings


# ---------------------------------------------------------------------------
# Word segmentation representations


def positional_tags(word: str) -> str:
    """Within-word position tags for one word, one character each: S, or B I* E."""
    if not word:
        raise ValueError("empty word")
    return "S" if len(word) == 1 else "B" + "I" * (len(word) - 2) + "E"


def load_segmentation(lines) -> dict[str, tuple[str, ...]]:
    """Build a character-sequence -> positional-tag lookup from pre-segmented
    text (words separated by spaces, one sentence per line).

    The first segmentation seen for a character sequence wins.
    """
    if isinstance(lines, str):
        lines = split_lines(lines)
    table: dict[str, tuple[str, ...]] = {}
    for line in lines:
        words = split_fields(line)
        if not words:
            continue
        key = "".join(words)
        if key not in table:
            table[key] = tuple("".join(map(positional_tags, words)))
    return table


def seg_tags_for(tokens: list[str], seg_map: dict[str, tuple[str, ...]] | None) -> list[str]:
    """Positional tags for a sentence, with identity fallback.

    When the sentence's character sequence is absent from the lookup (or no
    lookup is given), every character becomes a single-character word ("S").
    A hit whose tag count is not the token count raises CorpusError.
    """
    hit = (seg_map or {}).get("".join(tokens))
    if hit is None:
        return ["S"] * len(tokens)
    if len(hit) != len(tokens):
        raise CorpusError(f"segmented text for sentence {''.join(tokens)!r} gives {len(hit)} "
                          f"tags for its {len(tokens)} tokens")
    return list(hit)


# ---------------------------------------------------------------------------
# Vocabulary


@dataclass
class Vocab:
    """String -> dense index map with reserved unknown (0) and padding (1)."""

    itos: Sequence[str]
    stoi: dict[str, int]

    @classmethod
    def from_itos(cls, itos: Sequence[str]) -> "Vocab":
        """The one vocabulary rule: ``itos`` holds strings, starts with UNK, PAD
        and holds no duplicate. The vocabulary keeps ``itos`` itself, not a copy."""
        stoi = dict(zip(itos, range(len(itos))))
        if list(itos[:2]) != [UNK, PAD] or len(stoi) != len(itos) or set(map(type, itos)) != {str}:
            raise ValueError(f"a vocabulary must hold strings, start with {UNK}, {PAD} "
                             "and hold no duplicate")
        return cls(itos, stoi)

    def index(self, s: str) -> int:
        return self.stoi.get(s, 0)

    def __len__(self) -> int:
        return len(self.itos)

    def __contains__(self, s: str) -> bool:
        return s in self.stoi


def vocab_itos(tokens: Iterable[str]) -> list[str]:
    """The two reserved entries, then each distinct string in first-occurrence order."""
    return list(dict.fromkeys(chain((UNK, PAD), tokens)))


def build_vocab(tokens: Iterable[str]) -> Vocab:
    """Map each distinct string to a dense index, in :func:`vocab_itos` order."""
    return Vocab.from_itos(vocab_itos(tokens))


SEG_VOCAB = Vocab.from_itos([UNK, PAD, *SEG_TAGS])


# ---------------------------------------------------------------------------
# Putting a representation on a corpus


def slot_kinds(mode: str, bigrams: bool) -> list[str]:
    """Feature slot layout for a representation: vocab kind per slot."""
    if mode not in MODES:
        raise ValueError(f"unknown representation mode {mode!r}")
    kinds = ["seg"] if mode == MODE_SEGFEAT else []
    if bigrams:
        kinds.extend(["bigram"] * len(BIGRAM_OFFSETS))
    return kinds


def _columns(sentences: list[Sentence], seg_map: dict | None, mode: str, bigrams: bool):
    """The one step from text to strings, over all ``sentences`` in a row, each
    sentence's tags read with :func:`seg_tags_for` before any column is built:
    the distinct (vocabulary kind, strings) columns, iterators to read once,
    the token keys (the characters, or ``char#tag`` when positional) first,
    and per slot of :func:`slot_kinds` a (column, indices) pair. A bigram
    column joins the entries 1 or 2 apart in the sentences joined with two
    BOUNDARY around each: the five templates index two columns."""
    chars = list(chain.from_iterable(sent.tokens for sent in sentences))
    tags = list(chain.from_iterable(seg_tags_for(sent.tokens, seg_map) for sent in sentences))
    segfeat = "seg" in slot_kinds(mode, bigrams)
    columns = [("token", iter(chars) if segfeat else map("#".join, zip(chars, tags)))]
    columns += [("seg", iter(tags))] if segfeat else []
    slots = [(1, np.arange(len(tags)))] if segfeat else []
    if bigrams:
        padded = [BOUNDARY, BOUNDARY]
        for sent in sentences:
            padded += [*sent.tokens, BOUNDARY, BOUNDARY]
        # the corpus's i-th token, in sentence k, is padded[i + 2 + 2k]
        at = np.arange(2, len(chars) + 2) + np.repeat(
            np.arange(0, 2 * len(sentences), 2), [len(sent) for sent in sentences])
        gaps = list(dict.fromkeys(b - a for a, b in BIGRAM_OFFSETS))
        slots += [(len(columns) + gaps.index(b - a), at + a) for a, b in BIGRAM_OFFSETS]
        columns += [("bigram", map(str.__add__, padded, islice(padded, gap, None))) for gap in gaps]
    return columns, slots


def encode_corpus(sentences: list[Sentence], seg_map: dict[str, tuple[str, ...]] | None,
                  mode: str, bigrams: bool, token_vocab: Vocab,
                  vocabs: dict[str, Vocab]) -> list[Sentence]:
    """Copies of the sentences, tokens as given, with the integer arrays of
    :class:`Sentence`: ids of the token keys and features. Each column is
    looked up as it is built, once for the whole corpus. A sentence gets
    copies of its rows, not views, which would keep the corpus-wide arrays
    alive; measured, that doubled the page faults of the training that follows."""
    columns, slots = _columns(sentences, seg_map, mode, bigrams)
    by_kind = {**vocabs, "token": token_vocab}
    ids = [np.fromiter(map(by_kind[kind].stoi.get, strings, repeat(0)), np.intp)
           for kind, strings in columns]
    features = np.empty((len(ids[0]), len(slots)), dtype=np.intp)
    for s, (c, at) in enumerate(slots):
        features[:, s] = ids[c][at]
    bounds = [0, *accumulate(map(len, sentences))]
    return [replace(sent, features=features[i:j].copy(), token_ids=ids[0][i:j].copy())
            for sent, i, j in zip(sentences, bounds, bounds[1:])]


def vocab_sources(sentences: list[Sentence], seg_map: dict[str, tuple[str, ...]] | None,
                  mode: str, bigrams: bool) -> tuple[list[str], list[str]]:
    """All token keys and bigram strings a corpus produces, for vocab
    building: the bigrams position after position, each in template order."""
    columns, slots = _columns(sentences, seg_map, mode, bigrams)
    strings = [list(column) for _, column in columns]
    templates = [map(strings[c].__getitem__, at.tolist()) for c, at in slots
                 if columns[c][0] == "bigram"]
    return strings[0], list(chain.from_iterable(zip(*templates)))
