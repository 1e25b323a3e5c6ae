"""Embedding tables, pretrained-vector loading, and windowed input assembly."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Sentence, Vocab

UNK_INDEX = 0
PAD_INDEX = 1

FALLBACK_SCALE = 0.1
# A decay scale below this is folded into the rows at once; this also covers
# lr * lambda >= 1, where the scale would reach zero or turn negative.
SCALE_FLOOR = 1e-3


class EmbeddingFormatError(Exception):
    """Malformed pretrained embedding file."""


class RowGrad(NamedTuple):
    """Sparse gradient of an embedding table: summed ``values`` (k, dim) for
    the unique, ascending row ids ``rows`` (k,); every other row is zero."""

    rows: np.ndarray
    values: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.values.nbytes

    def dense(self, n_rows: int) -> np.ndarray:
        out = np.zeros((n_rows, self.values.shape[1]))
        out[self.rows] = self.values
        return out


def _row_grad(ids: np.ndarray, values: np.ndarray) -> RowGrad:
    order = np.argsort(ids, kind="stable")
    rows, starts = np.unique(ids[order], return_index=True)
    return RowGrad(rows, np.add.reduceat(values[order], starts, axis=0))


@dataclass
class EmbeddingTable:
    """Dense lookup table. Row 0 is the unknown symbol, row 1 padding.

    L2 weight decay is lazy: the table's values are ``scale * vectors``, so a
    decay step only shrinks ``scale`` (Bottou 2012, "Stochastic Gradient
    Descent Tricks"). :meth:`fold` multiplies the scale back in; anything that
    reads ``vectors`` directly outside the training step must fold first.
    """

    dim: int
    vectors: np.ndarray
    trainable: bool = True
    scale: float = 1.0

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[1] != self.dim:
            raise ValueError("vector block must be (size, dim)")
        if self.vectors.shape[0] < 2:
            raise ValueError("table must contain the unknown and padding rows")

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def fold(self) -> np.ndarray:
        """Multiply the decay scale into the rows; returns the plain vectors."""
        if self.scale != 1.0:
            self.vectors *= self.scale
            self.scale = 1.0
        return self.vectors

    def sgd_update(self, grad: RowGrad | None, lr: float, l2_lambda: float) -> None:
        """values <- (1 - lr * lambda) * values - lr * grad, writing only the
        gradient's rows."""
        self.scale *= 1.0 - lr * l2_lambda
        if self.scale < SCALE_FLOOR:
            self.fold()
        if grad is not None:
            self.vectors[grad.rows] -= (lr / self.scale) * grad.values


def random_table(size: int, dim: int, rng: np.random.Generator, scale: float = FALLBACK_SCALE) -> EmbeddingTable:
    """Fresh table with uniform entries in [-scale, scale]; padding row is zero."""
    vectors = rng.uniform(-scale, scale, size=(size, dim))
    vectors[PAD_INDEX] = 0.0
    return EmbeddingTable(dim, vectors)


def load_pretrained(text, vocab: Vocab, dim: int, rng: np.random.Generator) -> EmbeddingTable:
    """Load word vectors in the plain text format "<word> v1 ... v_dim".

    An optional first line "<count> <dim>" (two integer fields) is skipped.
    Vocabulary words found in the file get the file vector; absent words keep
    the fallback initialization of :func:`random_table`. The unknown row
    becomes the mean of every vector parsed from the file (zero when the file
    holds none).
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [line.rstrip("\n") for line in text]

    table = random_table(len(vocab), dim, rng)
    total = np.zeros(dim)
    n_read = 0

    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2:
            try:
                int(head[0]), int(head[1])
                start = 1
            except ValueError:
                pass

    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        fields = line.split()
        word, components = fields[0], fields[1:]
        if len(components) != dim:
            raise EmbeddingFormatError(
                f"line {lineno}: expected {dim} components, got {len(components)}"
            )
        try:
            vec = np.array([float(x) for x in components])
        except ValueError:
            raise EmbeddingFormatError(f"line {lineno}: non-numeric component") from None
        if not np.isfinite(vec).all():
            raise EmbeddingFormatError(f"line {lineno}: non-finite component")
        total += vec
        n_read += 1
        idx = vocab.index(word)
        if idx > PAD_INDEX:
            table.vectors[idx] = vec

    if not np.isfinite(total).all():
        raise EmbeddingFormatError("vector components too large: their sum overflows")
    table.vectors[UNK_INDEX] = total / n_read if n_read else 0.0
    return table


@dataclass
class InputAssembly:
    """Recipe for per-position input vectors.

    Position t gets the token embeddings of the window around t (padding
    beyond the sentence ends) followed by one feature embedding per slot.
    Slots may share a table: ``slot_tables[s]`` indexes ``feature_tables``.
    """

    window: int
    token_table: EmbeddingTable
    feature_tables: list[EmbeddingTable]
    slot_tables: list[int]

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be a positive odd count")

    @property
    def width(self) -> int:
        feat = sum(self.feature_tables[i].dim for i in self.slot_tables)
        return self.window * self.token_table.dim + feat


def _padded_ids(sentence: Sentence, window: int) -> np.ndarray:
    half = (window - 1) // 2
    return np.array([PAD_INDEX] * half + list(sentence.token_ids) + [PAD_INDEX] * half)


def assemble_window(sentence: Sentence, assembly: InputAssembly) -> np.ndarray:
    """Per-position input matrix of shape (len(sentence), assembly.width)."""
    if sentence.token_ids is None:
        raise ValueError("sentence tokens not mapped to indices")
    n = len(sentence)
    token = assembly.token_table
    rows = token.vectors[_padded_ids(sentence, assembly.window)]
    rows *= token.scale
    parts = [rows[k:k + n] for k in range(assembly.window)]
    feats = np.array(sentence.features, dtype=np.intp)
    for s, table_idx in enumerate(assembly.slot_tables):
        table = assembly.feature_tables[table_idx]
        parts.append(table.vectors[feats[:, s]])
        parts[-1] *= table.scale
    return np.concatenate(parts, axis=1)


def assembly_backward(
    d_inputs: np.ndarray, sentence: Sentence, assembly: InputAssembly
) -> tuple[RowGrad, list[RowGrad]]:
    """Scatter input-matrix gradients back onto the embedding tables.

    Returns (token table gradient, per-table feature gradients), each holding
    only the rows this sentence reads.
    """
    dim = assembly.token_table.dim
    width = assembly.window * dim
    # row t of the windows holds the ids of the token blocks of input row t
    windows = np.lib.stride_tricks.sliding_window_view(_padded_ids(sentence, assembly.window),
                                                       assembly.window)
    d_tok = _row_grad(windows.ravel(), d_inputs[:, :width].reshape(-1, dim))
    ids = [[np.empty(0, np.intp)] for _ in assembly.feature_tables]
    values = [[np.empty((0, t.dim))] for t in assembly.feature_tables]
    offset = width
    feats = np.array(sentence.features, dtype=np.intp)
    for s, table_idx in enumerate(assembly.slot_tables):
        fdim = assembly.feature_tables[table_idx].dim
        ids[table_idx].append(feats[:, s])
        values[table_idx].append(d_inputs[:, offset:offset + fdim])
        offset += fdim
    d_feats = [_row_grad(np.concatenate(i), np.concatenate(v)) for i, v in zip(ids, values)]
    return d_tok, d_feats
