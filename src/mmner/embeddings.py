"""Embedding tables, pretrained-vector loading, and windowed input assembly."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Sentence, Vocab, split_fields, split_lines

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
    the unique, ascending row ids ``rows`` (k,); every other row is zero.
    ``sgd_step`` writes nothing unless each one :meth:`fits` its table (a
    repeated row would drop updates, a negative one write the last row)."""

    rows: np.ndarray
    values: np.ndarray

    def fits(self, size: int, dim: int) -> bool:
        """1-D integer rows strictly ascending in [0, size), float values (len(rows), dim)."""
        rows, values = self.rows, self.values
        return (isinstance(rows, np.ndarray) and isinstance(values, np.ndarray)
                and rows.ndim == 1 and rows.dtype.kind in "iu" and values.dtype.kind == "f"
                and values.shape == (len(rows), dim)
                and (not len(rows) or (rows[0] >= 0 and rows[-1] < size))
                and bool(np.all(rows[1:] > rows[:-1])))

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

    vectors: np.ndarray
    scale: float = 1.0

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def fold(self) -> np.ndarray:
        """Multiply the decay scale into the rows; returns the plain vectors."""
        if self.scale != 1.0:
            self.vectors *= self.scale
            self.scale = 1.0
        return self.vectors

    def sgd_update(self, grad: RowGrad | None, lr: float, l2_lambda: float) -> None:
        """values <- (1 - lr * lambda) * values - lr * grad, writing only the
        gradient's rows. ``grad.values`` is consumed (scaled in place)."""
        self.scale *= 1.0 - lr * l2_lambda
        if self.scale < SCALE_FLOOR:
            self.fold()
        if grad is not None:
            np.multiply(grad.values, lr / self.scale, out=grad.values)
            self.vectors[grad.rows] -= grad.values


def random_table(size: int, dim: int, rng: np.random.Generator) -> EmbeddingTable:
    """Fresh table with entries uniform in +-FALLBACK_SCALE; padding row is zero."""
    vectors = rng.uniform(-FALLBACK_SCALE, FALLBACK_SCALE, size=(size, dim))
    vectors[PAD_INDEX] = 0.0
    return EmbeddingTable(vectors)


def load_pretrained(text: str, vocab: Vocab, dim: int, rng: np.random.Generator) -> EmbeddingTable:
    """Load word vectors in the plain text format "<word> v1 ... v_dim".

    An optional first line "<count> <dim>" (two integer fields) is skipped.
    Vocabulary words found in the file get the file vector; absent words keep
    the fallback initialization of :func:`random_table`. The unknown row
    becomes the mean of every vector parsed from the file (zero when the file
    holds none).
    """
    lines = split_lines(text)
    table = random_table(len(vocab), dim, rng)
    total = np.zeros(dim)
    n_read = 0

    start = 0
    with contextlib.suppress(ValueError):  # a first line of exactly two integers is a header
        _count, _dim = map(int, split_fields(lines[0]))
        start = 1

    for lineno, line in enumerate(lines[start:], start=start + 1):
        fields = split_fields(line)
        if not fields:  # only spaces and tabs
            continue
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
    beyond the sentence ends) followed by one feature embedding per slot;
    slot s reads ``slot_tables[s]``, and slots may share a table.
    """

    window: int
    token_table: EmbeddingTable
    slot_tables: list[EmbeddingTable]

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be a positive odd count")


def _window_ids(sentence: Sentence, window: int) -> np.ndarray:
    """(n, window) ids: row t holds input row t's window of token ids, PAD_INDEX past the ends."""
    if sentence.token_ids is None:
        raise ValueError("sentence tokens not mapped to indices")
    n = len(sentence.token_ids)
    padded = np.full(n + window - 1, PAD_INDEX, dtype=np.intp)
    padded[window // 2:window // 2 + n] = sentence.token_ids
    return padded[np.arange(n)[:, None] + np.arange(window)]


def assemble_window(sentence: Sentence, assembly: InputAssembly) -> np.ndarray:
    """Per-position input matrix: row t is t's window of token vectors, then its slot features."""
    token = assembly.token_table
    parts = [token.vectors[_window_ids(sentence, assembly.window)].reshape(len(sentence), -1)]
    parts[0] *= token.scale
    for s, table in enumerate(assembly.slot_tables):
        parts.append(table.vectors[sentence.features[:, s]])
        parts[-1] *= table.scale
    return np.concatenate(parts, axis=1)


def assembly_backward(
    d_inputs: np.ndarray, sentence: Sentence, assembly: InputAssembly
) -> tuple[RowGrad, list[RowGrad]]:
    """Scatter input-matrix gradients back onto the embedding tables.

    Returns (token table gradient, feature gradients: one per distinct slot
    table, in order of first use), each holding only the rows the sentence reads.
    """
    dim = assembly.token_table.dim
    width = assembly.window * dim
    d_tok = _row_grad(_window_ids(sentence, assembly.window).ravel(),
                      d_inputs[:, :width].reshape(-1, dim))
    groups: dict[int, tuple[list, list]] = {}  # id(table) -> (ids, values) of its slots
    offset = width
    for s, table in enumerate(assembly.slot_tables):
        ids, values = groups.setdefault(id(table), ([], []))
        ids.append(sentence.features[:, s])
        values.append(d_inputs[:, offset:offset + table.dim])
        offset += table.dim
    d_feats = [_row_grad(np.concatenate(i), np.concatenate(v)) for i, v in groups.values()]
    return d_tok, d_feats
